import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import pwsfold as pf
from pwsfold import expr as ex, regularize
from pwsfold.cli import load_system_file
from pwsfold.exceptions import EvaluationError, NonHyperbolicPointError, ValidationError
from pwsfold.pws import MAX_SAMPLES
from pwsfold.roots import real_quadratic_roots
from pwsfold.regularize import (Stability, builtin_sigmoid, critical_manifold,
                                critical_manifold_csv, degeneracy_probe,
                                dummy_field, layer_field, nonhyperbolic_curve,
                                nonhyperbolic_curve_csv, regularized_field,
                                slow_u_dot, compile_regularized_field,
                                CriticalPoint)
from pwsfold.twofold import TwoFoldParams, build_normal_form

SIGMOIDS = [builtin_sigmoid(n) for n in ("tanh", "algebraic", "cubic")]


SYSTEMS_DIR = os.path.join(os.path.dirname(pf.__file__), "systems")
BUNDLED = tuple(load_system_file(os.path.join(SYSTEMS_DIR, name)).system
                for name in sorted(os.listdir(SYSTEMS_DIR)))


def normal_form(a1=1, a2=1, b1=-2, b2=-1, alpha=0.0):
    return build_normal_form(TwoFoldParams(a1, a2, b1, b2, alpha))


class TestSigmoids:
    @pytest.mark.parametrize("s", SIGMOIDS, ids=lambda s: s.name)
    def test_inverse_round_trip(self, s):
        for k in range(-49, 50):
            lam = k / 50.0
            u = s.inverse(lam)
            assert abs(s.value(u) - lam) < 1e-12
            assert abs(s.inverse(s.value(u)) - u) < 1e-10

    @pytest.mark.parametrize("s", SIGMOIDS, ids=lambda s: s.name)
    def test_strictly_increasing_inside(self, s):
        for k in range(-19, 20):
            u = s.inverse(k / 20.0)
            assert s.derivative(u) > 0.0

    @pytest.mark.parametrize("s", SIGMOIDS, ids=lambda s: s.name)
    def test_derivative_consistency(self, s):
        h = 1e-6
        for k in range(-9, 10):
            u = s.inverse(k / 10.0)
            fd = (s.value(u + h) - s.value(u - h)) / (2 * h)
            assert s.derivative(u) == pytest.approx(fd, rel=1e-6, abs=1e-9)
            fd2 = (s.derivative(u + h) - s.derivative(u - h)) / (2 * h)
            assert s.second_derivative(u) == pytest.approx(fd2, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("s", SIGMOIDS, ids=lambda s: s.name)
    def test_no_preimage_outside_the_range(self, s):
        # tanh and algebraic reach +-1 only in the limit; cubic reaches it
        outside = (-1.5, 1.5, math.nan) + ((-1.0, 1.0) if s.name != "cubic" else ())
        for lam in outside:
            with pytest.raises(ValidationError, match="no preimage for lambda"):
                s.inverse(lam)

    def test_cubic_saturates_exactly(self):
        c = builtin_sigmoid("cubic")
        assert c.value(1.0) == 1.0 and c.value(-3.7) == -1.0
        for u in (-5.0, -1.0, 1.0, 2.5):
            assert abs(c.value(u)) <= 1.0

    def test_asymptotic_profiles_stay_inside(self):
        # strict |phi| < 1 until double precision saturates (|u| ~ 19 for tanh)
        for name in ("tanh", "algebraic"):
            s = builtin_sigmoid(name)
            for u in (-15.0, -2.0, 0.5, 15.0):
                assert abs(s.value(u)) < 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_sigmoid("logistic")


class TestRegularizedField:
    def test_cubic_saturation_matches_branch_exactly(self):
        sys = normal_form(alpha=0.2)
        c = builtin_sigmoid("cubic")
        x = (0.05, 0.8, -0.4)  # |x1| >> eps
        assert regularized_field(sys, c, 1e-3, x) \
            == pf.combination(sys, x, 1.0)

    def test_tanh_smooth_through_zero(self):
        sys = normal_form(alpha=0.2)
        s = builtin_sigmoid("tanh")
        eps = 1e-5
        left = regularized_field(sys, s, eps, (-1e-9, 1.0, 1.0))
        right = regularized_field(sys, s, eps, (1e-9, 1.0, 1.0))
        mid = regularized_field(sys, s, eps, (0.0, 1.0, 1.0))
        for a, b in zip(left, right):
            assert abs(a - b) < 1e-3
        assert mid[0] == pytest.approx(0.2)  # (x3-x2)/2 + alpha at lambda=0

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            regularized_field(normal_form(), SIGMOIDS[0], 0.0, (0, 1, 1))

    @pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_eps_rejected_alike(self, eps):
        # a NaN eps once slipped through as the f- branch
        sys = pf.example_system("ii")
        with pytest.raises(ValueError) as plain:
            regularized_field(sys, SIGMOIDS[0], eps, (0.0, 0.1, 0.1))
        with pytest.raises(ValueError) as compiled:
            compile_regularized_field(sys, SIGMOIDS[0], eps)
        assert str(plain.value) == str(compiled.value)

    def test_compiled_field_matches(self):
        sys = normal_form(alpha=0.2)
        for s in SIGMOIDS:
            fn = compile_regularized_field(sys, s, 1e-3)
            rng = random.Random(1)
            for _ in range(50):
                x = tuple(rng.uniform(-0.01, 0.01) for _ in range(3))
                assert fn(0.0, x) == pytest.approx(
                    regularized_field(sys, s, 1e-3, x), rel=1e-14, abs=1e-300)


class TestLayerField:
    def test_root_of_filippov_ratio(self):
        assert layer_field(normal_form(), 1.0 / 3.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        assert layer_field(normal_form(), 0.5, 1.0, 1.0) == pytest.approx(-0.5)

    def test_boundary_equals_branch(self):
        sys = normal_form(alpha=0.3)
        assert layer_field(sys, 1.0, 0.7, -0.2) == pf.combination(sys, (0.0, 0.7, -0.2), 1.0)[0]


class TestCriticalManifold:
    def test_exists_only_in_same_sign_quadrants(self):
        sys = normal_form()
        grid = [-1.0, -0.5, 0.5, 1.0]
        pts = critical_manifold(sys, grid, grid)
        assert pts
        for p in pts:
            assert p.x2 * p.x3 > 0.0
        # and every same-sign node produced a point
        covered = {(p.x2, p.x3) for p in pts}
        for x2 in grid:
            for x3 in grid:
                if x2 * x3 > 0:
                    assert (x2, x3) in covered

    def test_attracting_in_positive_quadrant(self):
        pts = critical_manifold(normal_form(), [0.5, 1.0], [0.5, 1.5])
        assert all(p.stability is Stability.ATTRACTING for p in pts)

    def test_repelling_in_negative_quadrant(self):
        pts = critical_manifold(normal_form(), [-1.0], [-0.5])
        assert all(p.stability is Stability.REPELLING for p in pts)

    def test_nonhyperbolic_point_on_curve(self):
        sys = normal_form(alpha=0.2)
        pts = critical_manifold(sys, [0.2], [-0.2])
        assert len(pts) == 1
        assert pts[0].lam == pytest.approx(0.0, abs=1e-12)
        assert pts[0].stability is Stability.NON_HYPERBOLIC

    def test_csv_shape(self):
        text = critical_manifold_csv(critical_manifold(normal_form(), [1.0], [2.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,x2,x3,stability"
        assert len(lines) == 2
        assert lines[1].endswith("attracting")


# (system, x2 grid, x3 grid): closed-form roots with a fold-curve point
# (0.2, -0.2) at alpha = 0.2; alpha = 0, where f1 is linear in lambda; three
# seeded normal forms on a 100 x 100 grid; a hidden term that makes f1
# cubic in lambda (the root scan); and f1 = (1 - lambda^2)(lambda - 0.1)^2,
# whose scan root 0.1 is an extremum of f1. Every grid holds -0.0 right
# before or right after 0.0.
_GRID_100 = tuple(-1.0 + 2.0 * i / 99 for i in range(50)) + (-0.0, 0.0) \
    + tuple(-1.0 + 2.0 * i / 99 for i in range(50, 100))
_SEEDED = random.Random(18)
SWEEP_CASES = {
    "normal_form": (normal_form(alpha=0.2), (-1.0, -0.0, 0.0, 0.2, 0.5),
                    (-0.2, -0.0, 0.0, 1.0)),
    "alpha_zero": (normal_form(alpha=0.0), (-1.0, -0.0, 0.0, 0.25, 0.5),
                   (-0.5, 0.0, -0.0, 0.25, 1.0)),
    **{f"seeded_{i}": (build_normal_form(TwoFoldParams(
        _SEEDED.choice((-1, 1)), _SEEDED.choice((-1, 1)), _SEEDED.uniform(-3.0, 3.0),
        _SEEDED.uniform(-3.0, 3.0), _SEEDED.uniform(-1.0, 1.0))), _GRID_100, _GRID_100)
       for i in range(3)},
    "lambda_cubic": (pf.PiecewiseSystem.from_strings(
        ("x2 - 1", "1", "0"), ("x3 + 1", "0", "1"), ("0.5*lambda*x2", "0", "0")),
        (-2.0, -0.0, 0.0, 1.5), (-1.5, 0.0, -0.0, 2.0)),
    "extremum_root": (pf.PiecewiseSystem.from_strings(
        ("0", "0", "0"), ("0", "0", "0"), ("(lambda - 0.1)^2", "0", "0")),
        (-1.0, 0.0, -0.0, 0.5), (-0.0, 0.0, 1.0)),
}


def reference_coefficients(sys, x2, x3):
    """(a, b, c) with f1 = a lambda^2 + b lambda + c, from the f1 values at
    lambda = 0, 1 and -1; None where f1 is not at most quadratic in lambda."""
    if sys.lambda_degree is None or sys.lambda_degree > 2:
        return None
    v0 = sys.f1(0.0, x2, x3, 0.0)
    vp = sys.f1(0.0, x2, x3, 1.0)
    vm = sys.f1(0.0, x2, x3, -1.0)
    return 0.5 * (vp + vm) - v0, 0.5 * (vp - vm), v0


def reference_points(sys, x2, x3):
    """critical_manifold at one grid point as a plain loop: the closed form
    of reference_coefficients where f1 is at most quadratic in lambda, else
    sliding_lambdas; then f1_dlambda per root."""
    coefficients = reference_coefficients(sys, x2, x3)
    if coefficients is not None:
        roots = [min(1.0, max(-1.0, r)) for r in real_quadratic_roots(*coefficients)
                 if -1.0 - 1e-12 <= r <= 1.0 + 1e-12]
    else:
        roots = pf.sliding_lambdas(sys, x2, x3)
    points = []
    for lam in roots:
        slope = sys.f1_dlambda(0.0, x2, x3, lam)
        if abs(slope) < 1e-9:
            stability = Stability.NON_HYPERBOLIC
        elif slope < 0.0:
            stability = Stability.ATTRACTING
        else:
            stability = Stability.REPELLING
        points.append((lam, x2, x3, stability))
    return points


def reference_manifold(sys, x2_values, x3_values):
    """critical_manifold as reference_points over the grid, x2 outer."""
    return [point for x2 in x2_values for x3 in x3_values
            for point in reference_points(sys, x2, x3)]


class TestManifoldSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_points_equal_reference_loop(self, case):
        sys, x2s, x3s = SWEEP_CASES[case]
        got = critical_manifold(sys, x2s, x3s)
        want = reference_manifold(sys, x2s, x3s)
        assert all(type(p) is CriticalPoint for p in got)
        # float.hex tells -0.0 from 0.0, which == does not
        assert [(p.lam.hex(), p.x2.hex(), p.x3.hex(), p.stability) for p in got] \
            == [(lam.hex(), x2.hex(), x3.hex(), st) for lam, x2, x3, st in want]
        assert critical_manifold_csv(got) == "lambda,x2,x3,stability\n" + "".join(
            f"{lam:.17g},{x2:.17g},{x3:.17g},{st.value}\n" for lam, x2, x3, st in want)
        zeros = {math.copysign(1.0, p.x2) for p in got if p.x2 == 0.0}
        assert zeros == {1.0, -1.0}
        if case == "lambda_cubic":
            # the reference loop takes sliding_lambdas at every point
            assert sys.lambda_degree == 3
            assert all(reference_coefficients(sys, x2, x3) is None
                       for x2 in x2s for x3 in x3s)
        elif case == "alpha_zero":
            # f1 is linear in lambda: the closed form's a == 0 branch
            assert all(reference_coefficients(sys, x2, x3)[0] == 0.0
                       for x2 in x2s for x3 in x3s)
        elif case == "extremum_root":
            assert [(p.lam, p.stability) for p in got[:3]] == [
                (-1.0, Stability.REPELLING), (0.1, Stability.NON_HYPERBOLIC),
                (1.0, Stability.ATTRACTING)]
            assert len(got) == 3 * len(x2s) * len(x3s)
        elif case == "normal_form":
            assert Stability.NON_HYPERBOLIC in {p.stability for p in got}
        else:
            assert len(got) > 5000

    @pytest.mark.parametrize("f1, error", [("1/x2", ZeroDivisionError),
                                           ("sqrt(x2)", ValueError)])
    def test_raises_where_reference_loop_raises(self, f1, error):
        # f1 quadratic in lambda, raising at the grid node x2 = 0 or -1 only
        sys = pf.PiecewiseSystem.from_strings((f1, "1", "0"), ("x3", "0", "1"),
                                              ("0.2", "0", "0"))
        assert sys.lambda_degree == 2
        grid = (1.0, 0.0, -1.0)
        assert reference_manifold(sys, grid[:1], grid)
        with pytest.raises(error):
            reference_manifold(sys, grid, grid)
        with pytest.raises(error):
            critical_manifold(sys, grid, grid)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_csv_equals_row_by_row_format(self, case):
        sys, x2s, x3s = SWEEP_CASES[case]
        points = critical_manifold(sys, x2s, x3s)
        want = "lambda,x2,x3,stability\n" + "".join(
            f"{p.lam:.17g},{p.x2:.17g},{p.x3:.17g},{p.stability.value}\n" for p in points)
        assert ",-0," in want and ",0," in want
        assert critical_manifold_csv(points) == want

    def test_critical_point_is_a_named_tuple(self):
        point = CriticalPoint(0.5, 1.0, 2.0, Stability.REPELLING)
        assert point._fields == ("lam", "x2", "x3", "stability")
        assert tuple(point) == (0.5, 1.0, 2.0, Stability.REPELLING)
        assert point == CriticalPoint(lam=0.5, x2=1.0, x3=2.0,
                                      stability=Stability.REPELLING)


# Systems with f1 at most quadratic in lambda, for the generated row kernel.
# fplus and fminus enter f1 times (1 +- lambda)/2, so their f1 is at most
# linear in lambda; the hidden term enters times (1 - lambda^2), so it is
# lambda-free. Terms in x1 are constant on the surface (x1 = 0) and are
# folded at compile time; sqrt(x2) and 1/x3 raise on part of the grid, a
# division by a term in x1 alone on all of it.
_FREE = st.recursive(
    st.sampled_from(["0.5", "2", "3", "0.25", "x1", "x2", "x3", "sqrt(x2)", "1/x3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join).map("({})".format),
        st.tuples(st.sampled_from(ex.FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        inner.map("({})^2".format), inner.map("-{}".format)),
    max_leaves=5)
# lambda-only subtrees: degree 1, or lambda-free with lambda^0
_LAMBDA_ONLY = st.sampled_from(["lambda", "(lambda - 0.5)", "(0.25 + lambda*0.5)",
                                "sqrt(0.3)*lambda", "(lambda^2)^0"])
_BRANCH_F1 = st.tuples(st.one_of(_FREE, _LAMBDA_ONLY), _LAMBDA_ONLY, _FREE).map(
    "{0[0]} + {0[1]} * {0[2]}".format)
_GRID_VALUES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                                  st.floats(-2.0, 2.0)), min_size=1, max_size=4)


def _outcome(fn, *args):
    """The repr of each item fn returns, or the type and message of what it
    raised."""
    try:
        return [repr(point) for point in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


class TestRowKernel:
    @settings(max_examples=150, deadline=None)
    @given(_BRANCH_F1, _BRANCH_F1, st.one_of(st.just("0"), _FREE), _GRID_VALUES,
           _GRID_VALUES)
    def test_equals_reference_loop_bit_for_bit(self, f1_plus, f1_minus, g1, x2s, x3s):
        sys = pf.PiecewiseSystem.from_strings((f1_plus, "1", "0"), (f1_minus, "0", "1"),
                                              (g1, "0", "0"))
        assert sys.lambda_degree is not None and sys.lambda_degree <= 2
        # the grid point by point: points, or the exception, from each path
        want = []
        for x2 in x2s:
            for x3 in x3s:
                try:
                    points = [CriticalPoint(*p) for p in reference_points(sys, x2, x3)]
                except Exception as exc:
                    reference = lambdas = type(exc), str(exc)
                else:
                    reference = [repr(p) for p in points]
                    lambdas = [repr(p.lam) for p in points]
                assert _outcome(critical_manifold, sys, [x2], [x3]) == reference
                assert _outcome(pf.sliding_lambdas, sys, x2, x3) == lambdas
                want.append(reference)
        # the whole grid, x3 rows in one kernel call each: the points up to
        # the first point that raises, and then its exception
        raised = [w for w in want if isinstance(w, tuple)]
        assert _outcome(critical_manifold, sys, x2s, x3s) == (
            raised[0] if raised else [p for w in want for p in w])

    def test_compiled_once_on_first_sweep(self, monkeypatch):
        calls = []
        generate = ex._generate

        def counting(*args, **kwargs):
            calls.append("kernel" if kwargs.get("template") else "field")
            return generate(*args, **kwargs)

        monkeypatch.setattr(ex, "_generate", counting)
        sys = normal_form(alpha=0.2)
        sys.combined, sys.f1, sys.f1_dlambda, sys.lambda_degree
        sys.branch_field(1), sys.branch_field(-1)
        sys.surface_curvature((0.0, 0.1, 0.2), 1)
        # (1/2, 0, -3 alpha) is a repelling layer equilibrium of the normal form
        slow_u_dot(sys, SIGMOIDS[0], CriticalPoint(0.5, 0.0, -0.6, Stability.REPELLING))
        assert calls and "kernel" not in calls
        calls.clear()
        grid = [-1.0, 0.0, 0.5]
        first = critical_manifold(sys, grid, grid)
        assert calls == ["kernel"]
        assert critical_manifold(sys, grid, grid) == first
        assert pf.sliding_lambdas(sys, 0.5, 0.5) == [p.lam for p in first
                                                     if p[1:3] == (0.5, 0.5)]
        assert calls == ["kernel"]

    def test_too_deep_for_the_kernel_is_an_input_error(self):
        # a 400-term sum nests deeper than Python's compiler allows
        sys = pf.PiecewiseSystem.from_strings(("+".join(["x2"] * 400), "1", "0"),
                                              ("x3", "0", "1"))
        assert sys.lambda_degree == 2
        for sweep in (lambda: critical_manifold(sys, [0.0], [0.0]),
                      lambda: pf.sliding_lambdas(sys, 0.0, 0.0)):
            with pytest.raises(ValidationError, match="too deeply nested to compile"):
                sweep()


class TestNonHyperbolicCurve:
    def test_degenerate_alpha_zero(self):
        for lam, x2, x3 in nonhyperbolic_curve(TwoFoldParams(1, 1, -2, -1, 0.0), 7):
            assert (x2, x3) == (0.0, 0.0)

    def test_parametric_points(self):
        samples = nonhyperbolic_curve(TwoFoldParams(1, 1, -2, -1, 0.2), 3)
        assert samples[1] == pytest.approx((0.0, 0.2, -0.2))
        assert samples[2] == pytest.approx((1.0, 0.0, -0.8))

    def test_defining_residuals(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        sys = build_normal_form(p)
        for lam, x2, x3 in nonhyperbolic_curve(p, 41):
            assert abs(sys.combined(0.0, x2, x3, lam)[0]) < 1e-12
            assert abs(sys.f1_dlambda(0.0, x2, x3, lam)) < 1e-12

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            nonhyperbolic_curve(TwoFoldParams(1, 1, 0, 0, 0.1), 1)

    def test_at_most_max_samples(self, monkeypatch):
        def sampling_forbidden(*args):
            pytest.fail("sampled past the bound")

        monkeypatch.setattr(regularize, "_fold_point", sampling_forbidden)
        with pytest.raises(ValueError, match="at most"):
            nonhyperbolic_curve(TwoFoldParams(1, 1, -2, -1, 0.2), MAX_SAMPLES + 1)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(regularize, "MAX_SAMPLES", 12)
        assert len(nonhyperbolic_curve(TwoFoldParams(1, 1, -2, -1, 0.2), 12)) == 12
        with pytest.raises(ValueError, match="at most 12"):
            nonhyperbolic_curve(TwoFoldParams(1, 1, -2, -1, 0.2), 13)

    def test_csv(self):
        text = nonhyperbolic_curve_csv(nonhyperbolic_curve(
            TwoFoldParams(1, 1, -2, -1, 0.2), 3))
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,x2,x3,stability"
        assert all(l.endswith("non_hyperbolic") for l in lines[1:])

    def test_tangent_vector_components(self):
        # finite difference over lambda, rescaled by du, matches
        # (1, 2 alpha (lam-1) phi', -2 alpha (lam+1) phi'); nonzero slow
        # components mean the curve is transverse to the fast axis
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        s = builtin_sigmoid("tanh")
        h = 1e-6
        for lam in (-0.6, -0.1, 0.4, 0.8):
            al = p.alpha
            pt = lambda l: (l, al * (l - 1) ** 2, -al * (l + 1) ** 2)
            a, b = pt(lam - h), pt(lam + h)
            du = s.inverse(b[0]) - s.inverse(a[0])
            dx2 = (b[1] - a[1]) / du
            dx3 = (b[2] - a[2]) / du
            dphi = s.derivative(s.inverse(lam))
            assert dx2 == pytest.approx(2 * al * (lam - 1) * dphi, rel=1e-5)
            assert dx3 == pytest.approx(-2 * al * (lam + 1) * dphi, rel=1e-5)
            assert math.hypot(dx2, dx3) > 0.0


class TestSlowUDot:
    def test_error_at_folded_point(self):
        from pwsfold.twofold import folded_points
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        sys = build_normal_form(p)
        s = builtin_sigmoid("tanh")
        phi_s = folded_points(p)[0]
        point = CriticalPoint(phi_s, p.alpha * (phi_s - 1) ** 2,
                              -p.alpha * (phi_s + 1) ** 2,
                              Stability.NON_HYPERBOLIC)
        with pytest.raises(NonHyperbolicPointError):
            slow_u_dot(sys, s, point)

    def test_matches_trajectory_finite_difference(self):
        # u(t) = psi(lambda(t)) along a regularized orbit riding the manifold
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        sys = build_normal_form(p)
        s = builtin_sigmoid("tanh")
        eps = 1e-5
        traj = pf.regularized_trajectory(sys, s, eps, (0.5, 1.0, 1.0), 2.0)
        t0, dt = 1.5, 0.02
        xa = traj.state_at(t0 - dt)
        xb = traj.state_at(t0 + dt)
        xm = traj.state_at(t0)
        # u = x1/eps on the layer, so du/dt comes straight from x1 samples
        u_fd = (xb[0] - xa[0]) / (eps * 2 * dt)
        lam_m = s.value(xm[0] / eps)
        roots = pf.sliding_lambdas(sys, xm[1], xm[2])
        lam_star = min(roots, key=lambda r: abs(r - lam_m))
        point = CriticalPoint(lam_star, xm[1], xm[2], Stability.ATTRACTING)
        predicted = slow_u_dot(sys, s, point)
        assert predicted == pytest.approx(u_fd, rel=0.01)

    @pytest.mark.parametrize("s", SIGMOIDS, ids=lambda s: s.name)
    def test_equals_reduced_flow_formula(self, s):
        # u' = -(df1/dx2 f2 + df1/dx3 f3) / (phi' df1/dlambda), every
        # factor from the expression trees by the interpreter
        grid = [-2.0 + 0.2 * i for i in range(21)]
        checked = 0
        for sys in BUNDLED:
            f1 = sys.combined_expressions[0]
            d2, d3, dlam = (ex.differentiate(f1, v) for v in ("x2", "x3", "lambda"))
            for pt in critical_manifold(sys, grid, grid):
                if abs(pt.lam) >= 1.0:
                    continue
                at = (0.0, pt.x2, pt.x3, pt.lam)
                df1_du = s.derivative(s.inverse(pt.lam)) * ex.evaluate(dlam, *at)
                if abs(df1_du) <= 1e-9:
                    continue
                f2 = ex.evaluate(sys.combined_expressions[1], *at)
                f3 = ex.evaluate(sys.combined_expressions[2], *at)
                want = -(ex.evaluate(d2, *at) * f2 + ex.evaluate(d3, *at) * f3) / df1_du
                got = slow_u_dot(sys, s, pt)
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), (pt, got, want)
                checked += 1
        assert checked > 1000

    def test_numerator_structure(self):
        # numerator (f2,f3) . df1/d(x2,x3) equals the folded-point projection
        # expression evaluated at the sliding root
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        sys = build_normal_form(p)
        x2 = x3 = 1.0
        lam = pf.sliding_lambdas(sys, x2, x3)[0]
        _, f2v, f3v = sys.combined(0.0, x2, x3, lam)
        num = f2v * (-(1 + lam) / 2) + f3v * ((1 - lam) / 2)
        from pwsfold.twofold import folded_point_residual
        assert num == pytest.approx(folded_point_residual(p, lam), abs=1e-14)


class TestDummyField:
    def test_section6_literal_value(self):
        sys = pf.PiecewiseSystem.from_strings(("1", "-1", "0"), ("-1", "-1", "0"))
        assert dummy_field(sys, (0.0, 0.0, 0.0), 0.5) == pytest.approx((0.5, -1.0, 0.0))

    def test_evaluation_error_where_combination_raises(self):
        sys = pf.PiecewiseSystem.from_strings(("1", "0", "0"), ("1/x2", "0", "0"))
        with pytest.raises(EvaluationError):
            pf.combination(sys, (0.0, 0.0, 0.0), 0.5)
        with pytest.raises(EvaluationError):
            dummy_field(sys, (0.0, 0.0, 0.0), 0.5)
        # a raw ValueError of the compiled field, too
        sys = pf.PiecewiseSystem.from_strings(("sqrt(x2)", "0", "0"), ("1", "0", "0"))
        with pytest.raises(EvaluationError, match="math domain error"):
            pf.combination(sys, (0.0, -1.0, 0.0), 1.0)

    def test_equilibria_coincide_with_sliding_lambdas(self):
        sys = normal_form(alpha=0.2)
        for x2, x3 in ((1.0, 1.0), (0.5, 2.0), (1.3, 0.1)):
            for lam in pf.sliding_lambdas(sys, x2, x3):
                assert abs(dummy_field(sys, (0.0, x2, x3), lam)[0]) < 1e-12

    def test_slow_components_equal_sliding_field(self):
        rng = random.Random(17)
        for _ in range(100):
            sys = normal_form(rng.choice((-1, 1)), rng.choice((-1, 1)),
                              rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.uniform(-0.4, 0.4))
            x2, x3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            for lam in pf.sliding_lambdas(sys, x2, x3):
                if abs(sys.f1_dlambda(0.0, x2, x3, lam)) < 1e-9:
                    continue
                want = pf.sliding_field(sys, x2, x3, lam)
                got = dummy_field(sys, (0.0, x2, x3), lam)[1:]
                assert got == pytest.approx(want, abs=1e-10)


class TestDegeneracyProbe:
    def test_unperturbed_orders_vanish(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.0)
        s = builtin_sigmoid("tanh")
        for lam, x2, x3 in nonhyperbolic_curve(p, 20):
            lam = min(0.95, max(-0.95, lam))
            for r in (1, 2):
                assert abs(degeneracy_probe(p, s, (lam, x2, x3), r)) < 1e-12

    @pytest.mark.parametrize("name", ["tanh", "algebraic"])
    def test_perturbed_second_order(self, name):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        s = builtin_sigmoid(name)
        for k in range(-9, 10):
            lam = k / 10.0
            x2 = p.alpha * (lam - 1) ** 2
            x3 = -p.alpha * (lam + 1) ** 2
            got = degeneracy_probe(p, s, (lam, x2, x3), 2)
            want = -2.0 * p.alpha * s.derivative(s.inverse(lam)) ** 2
            assert got == pytest.approx(want, rel=1e-8)

    def test_higher_orders_run(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        s = builtin_sigmoid("tanh")
        for r in (3, 4):
            v = degeneracy_probe(p, s, (0.3, p.alpha * 0.49, -p.alpha * 1.69), r)
            assert math.isfinite(v)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            degeneracy_probe(TwoFoldParams(1, 1, 0, 0, 0.1),
                             builtin_sigmoid("tanh"), (0.0, 0.0, 0.0), 5)


def test_wechselberger_conditions_on_curve():
    s = builtin_sigmoid("tanh")
    for alpha, fourth_holds in ((0.2, True), (0.0, False)):
        p = TwoFoldParams(1, 1, -2, -1, alpha)
        sys = build_normal_form(p)
        for lam, x2, x3 in nonhyperbolic_curve(p, 21):
            lam = min(0.95, max(-0.95, lam))
            if alpha != 0.0:
                x2 = alpha * (lam - 1) ** 2
                x3 = -alpha * (lam + 1) ** 2
            u = s.inverse(lam)
            f1 = sys.combined(0.0, x2, x3, lam)[0]
            df1_du = sys.f1_dlambda(0.0, x2, x3, lam) * s.derivative(u)
            grad_norm = math.hypot((1 + lam) / 2, (1 - lam) / 2)
            d2 = degeneracy_probe(p, s, (lam, x2, x3), 2)
            assert abs(f1) < 1e-10
            assert abs(df1_du) < 1e-10
            assert grad_norm > 0.1
            if fourth_holds:
                assert abs(d2) > 0.0
            else:
                assert abs(d2) < 1e-12
