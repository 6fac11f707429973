import math
import os
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import pwsfold as pf
from pwsfold import cli, expr as ex
from pwsfold.cli import load_system_file
from pwsfold.exceptions import (IntegrationError, SlidingResidualError, StepUnderflowError,
                                ValidationError)
from pwsfold._rk import Dopri3, hermite
from pwsfold.pws import PwsOptions, _locate_crossing, _Recorder, _resolve_tangency
from pwsfold.roots import real_quadratic_roots
from pwsfold.twofold import TwoFoldParams, build_normal_form


def normal_form(a1=1, a2=1, b1=-2, b2=-1, alpha=0.0):
    return build_normal_form(TwoFoldParams(a1, a2, b1, b2, alpha))


# Planar pair with the same discontinuous limit; third component padded.
# The literal orientation (f1 = +-1 pointing away from the surface) is used
# for the algebraic identities below; the bundled demo systems flip the sign
# so trajectories actually reach the layer.
SECTION6_LITERAL = pf.PiecewiseSystem.from_strings(
    ("1", "-1", "0"), ("-1", "-1", "0"), ("0", "2", "0"))


SYSTEMS_DIR = os.path.join(os.path.dirname(pf.__file__), "systems")
BUNDLED = tuple(load_system_file(os.path.join(SYSTEMS_DIR, name)).system
                for name in sorted(os.listdir(SYSTEMS_DIR)))
# Section-6 pair with a hidden term linear in lambda: f1 is cubic in lambda.
LAMBDA_CUBIC = pf.PiecewiseSystem.from_strings(
    ("-1", "-1", "0"), ("1", "-1", "0"), ("0.2 + 0.1*lambda", "0", "0"))


def bundled(name):
    return load_system_file(os.path.join(SYSTEMS_DIR, f"{name}.json")).system


class TestF1:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BUNDLED + (LAMBDA_CUBIC,)), st.floats(-1, 1),
           st.floats(-5, 5), st.floats(-5, 5), st.floats(-1, 1))
    def test_bit_equal_to_combined(self, sys, x1, x2, x3, lam):
        assert sys.f1(x1, x2, x3, lam).hex() == sys.combined(x1, x2, x3, lam)[0].hex()

    def test_bundled_systems_loaded(self):
        assert len(BUNDLED) == 8
        assert LAMBDA_CUBIC.lambda_degree == 3


class TestCombination:
    def test_equals_fplus_at_lambda_one(self):
        sys = normal_form()
        assert pf.combination(sys, (0.0, 1.0, 1.0), 1.0) == (-1.0, 1.0, -2.0)

    def test_section6_midpoint(self):
        v = pf.combination(SECTION6_LITERAL, (0.0, 0.0, 0.0), 0.0)
        assert v[:2] == (0.0, 1.0)

    def test_equals_fminus_at_minus_one(self):
        sys = pf.PiecewiseSystem.from_strings(
            ("x2*x3", "sin(x1)", "2"), ("x3-1", "x1*x1", "cos(x2)"),
            ("lambda*x2", "1", "tanh(x3)"))
        rng = random.Random(3)
        for _ in range(25):
            x = tuple(rng.uniform(-2, 2) for _ in range(3))
            got = pf.combination(sys, x, -1.0)
            want = tuple(fn(x[0], x[1], x[2], -1.0)
                         for fn in map(pf.expr.compile_expression, sys.fminus))
            assert got == pytest.approx(want, abs=0.0)

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            pf.combination(normal_form(), (0, 0, 0), 1.5)

    def test_field_too_deep_to_compile_is_an_input_error(self):
        # a 250-term sum in f2 passes the parser but not Python's compiler;
        # that stays a ValidationError, not an EvaluationError of the call
        sys = pf.PiecewiseSystem.from_strings(("-1", "+".join(["x2"] * 250), "0"),
                                              ("1", "0", "0"))
        with pytest.raises(ValidationError, match="too deeply nested to compile"):
            pf.combination(sys, (0.0, 0.0, 0.0), 0.0)

    def test_hidden_annihilation_bulk(self):
        sys = pf.PiecewiseSystem.from_strings(
            ("x2 - x3", "1", "x3^2"), ("x3", "x1 - 1", "2"),
            ("x2*lambda", "tanh(x2)", "1 - lambda^2"))
        plus = pf.expr.compile_field(sys.fplus)
        minus = pf.expr.compile_field(sys.fminus)
        rng = random.Random(11)
        for _ in range(1000):
            x = tuple(rng.uniform(-3, 3) for _ in range(3))
            for lam, ref in ((1.0, plus), (-1.0, minus)):
                got = pf.combination(sys, x, lam)
                want = ref(x[0], x[1], x[2], lam)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-12


class TestClassifySurfacePoint:
    def test_attracting(self):
        sys = normal_form()
        assert pf.classify_surface_point(sys, (0.0, 1.0, 1.0)) \
            is pf.SurfaceMode.ATTRACTING_SLIDING

    def test_repelling(self):
        sys = normal_form()
        assert pf.classify_surface_point(sys, (0.0, -1.0, -1.0)) \
            is pf.SurfaceMode.REPELLING_SLIDING

    def test_crossing(self):
        sys = normal_form()
        assert pf.classify_surface_point(sys, (0.0, 1.0, -1.0)) \
            is pf.SurfaceMode.CROSSING

    def test_tangency(self):
        sys = normal_form()
        assert pf.classify_surface_point(sys, (0.0, 0.0, 1.0)) \
            is pf.SurfaceMode.TANGENCY

    def test_off_surface_rejected(self):
        with pytest.raises(ValueError):
            pf.classify_surface_point(normal_form(), (0.5, 1.0, 1.0))


class TestSlidingLambdas:
    def test_filippov_ratio(self):
        roots = pf.sliding_lambdas(normal_form(), 1.0, 2.0)
        assert roots == pytest.approx([1.0 / 3.0])

    def test_hidden_quadratic_root(self):
        sys = normal_form(alpha=0.2)
        roots = pf.sliding_lambdas(sys, 1.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.192582, abs=1e-6)
        residual = sys.combined(0.0, 1.0, 1.0, roots[0])[0]
        assert abs(residual) < 1e-12

    def test_crossing_region_empty(self):
        assert pf.sliding_lambdas(normal_form(), 1.0, -1.0) == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_form_equals_three_f1_calls(self, seed):
        # x2 near +-0 puts the normal forms' root lambda = 1 + O(x2) within,
        # or just past, the 1e-12 clamp tolerance
        rng = random.Random(seed)
        systems = BUNDLED + tuple(normal_form(alpha=rng.uniform(-1.0, 1.0)) for _ in range(3)) \
            + (pf.PiecewiseSystem.from_strings(("x2*x3 - 1", "1", "0"), ("x3 + x2*x2", "0", "1"),
                                               ("0.3*x2 - x3", "0", "0")),)
        for sys in systems:
            assert sys.lambda_degree <= 2
            f1 = sys.f1
            for _ in range(300):
                x2 = rng.choice((rng.uniform(-2.0, 2.0), 0.0, -0.0,
                                 rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-14.0, -9.0)))
                x3 = rng.uniform(-2.0, 2.0)
                v0, vp, vm = f1(0.0, x2, x3, 0.0), f1(0.0, x2, x3, 1.0), f1(0.0, x2, x3, -1.0)
                want = [min(1.0, max(-1.0, r)) for r in real_quadratic_roots(
                    0.5 * (vp + vm) - v0, 0.5 * (vp - vm), v0)
                    if -1.0 - 1e-12 <= r <= 1.0 + 1e-12]
                got = pf.sliding_lambdas(sys, x2, x3)
                assert [r.hex() for r in got] == [r.hex() for r in want], (x2, x3)

    def test_bracketing_path_nonpolynomial(self):
        # hidden term with tanh(lambda) forces the scanning solver
        sys = pf.PiecewiseSystem.from_strings(
            ("-x2", "1", "-2"), ("x3", "-1", "1"),
            ("tanh(lambda)/4 + 1/5", "0", "0"))
        assert sys.lambda_degree is None
        roots = pf.sliding_lambdas(sys, 1.0, 1.0)
        assert len(roots) >= 1
        for r in roots:
            assert abs(sys.combined(0.0, 1.0, 1.0, r)[0]) < 1e-12

    @pytest.mark.parametrize("fplus, expected", [
        (("1", "0", "0"), [0.0]),  # f1 = lambda (1.1 - 0.1 lambda^2)
        (("0", "0", "0"), [1.0]),  # f1 = (1 - lambda)(0.1 lambda (1 + lambda) - 0.5)
    ])
    def test_scan_root_on_a_node(self, fplus, expected):
        # the cubic hidden term forces the scan; its nodes include 0 and 1
        sys = pf.PiecewiseSystem.from_strings(
            fplus, ("-1", "0", "0"), ("0.1*lambda", "0", "0"))
        assert sys.lambda_degree == 3
        assert pf.sliding_lambdas(sys, 0.3, -0.2) == expected

    @pytest.mark.parametrize("below", [1e-3, 1e-4, 1e-6, 1e-9])
    def test_scan_finds_a_close_pair_beside_an_extremum(self, below):
        # f1 = x2 + lambda - lambda^3 has its minimum 2/(3 sqrt 3) at
        # lambda = -1/sqrt 3; just below it the two roots fall in one scan
        # subinterval, whose end values share a sign
        sys = pf.PiecewiseSystem.from_strings(("x2", "1", "0"), ("x2", "1", "0"),
                                              ("lambda", "0", "0"))
        x2 = 2.0 / (3.0 * math.sqrt(3.0)) - below
        roots = pf.sliding_lambdas(sys, x2, 0.0)
        assert len(roots) == 2
        for r in roots:
            assert abs(sys.f1(0.0, x2, 0.0, r)) <= 1e-12
        if below == 1e-4:
            assert roots == pytest.approx([-0.58493, -0.56974], abs=1e-5)

    @pytest.mark.parametrize("x2", [1e-6, 1e-10])
    def test_scan_root_beside_a_flat_extremum_on_a_node(self, x2):
        # f1 = x2 - (1 - lambda^2) lambda^2 has its maximum x2 at the scan
        # node 0 and roots near +-sqrt(x2); secant steps from that node
        # once stalled, returning +-0.016 with |f1| = 2.6e-4
        sys = pf.PiecewiseSystem.from_strings(("x2", "1", "0"), ("x2", "1", "0"),
                                              ("-lambda^2", "0", "0"))
        roots = pf.sliding_lambdas(sys, x2, 0.0)
        assert len(roots) == 4
        # |f1| <= 1e-12 puts lambda within 1e-12 / (2 sqrt(x2)) of the root
        assert roots[1:3] == pytest.approx([-math.sqrt(x2), math.sqrt(x2)],
                                           rel=1e-2)
        for r in roots:
            assert abs(sys.f1(0.0, x2, 0.0, r)) <= 1e-12

    def test_scan_skips_a_slope_it_cannot_evaluate(self):
        # f1 = (1 - lambda^2)(|lambda| - 0.5); its lambda-partial holds
        # lambda/|lambda|, which divides by zero at the node 0
        sys = pf.PiecewiseSystem.from_strings(("0", "0", "0"), ("0", "0", "0"),
                                              ("abs(lambda) - 0.5", "0", "0"))
        assert sys.lambda_degree is None
        with pytest.raises(ZeroDivisionError):
            sys.f1_dlambda(0.0, 0.0, 0.0, 0.0)
        roots = pf.sliding_lambdas(sys, 0.0, 0.0)
        assert roots == pytest.approx([-1.0, -0.5, 0.5, 1.0], abs=1e-12)

    def test_scan_raises_a_slope_it_cannot_compile(self):
        # f1 of degree 122 in lambda compiles, but its lambda-partial, a sum
        # of 120 products, is too deep for Python's compiler: that is an
        # input error, not a slope the scan skips as NaN
        hidden = "*".join(["(1+0.001*lambda)"] * 120)
        sys = pf.PiecewiseSystem.from_strings(("-1", "-1", "0"), ("1", "-1", "0"),
                                              (hidden, "0", "0"))
        sys.f1(0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValidationError, match="too deeply nested to compile"):
            pf.sliding_lambdas(sys, 0.0, 0.0)

    @pytest.mark.parametrize("hidden, expected", [
        # f1 = (1 - lambda^2) lambda (lambda - 1/64): the root on the node 0
        # once ended its subinterval's search, which missed 1/64
        ("lambda*(lambda - 1/64)", [-1.0, 0.0, 1.0 / 64.0, 1.0]),
        # |f1| <= 1e-12 all around the node 0, so the polish of [-1/32, 0]
        # once returned a point there instead of -1/64
        ("(lambda - 1e-13)*(lambda + 1/64)", [-1.0, -1.0 / 64.0, 1e-13, 1.0]),
    ])
    def test_scan_finds_each_root_beside_a_node_root(self, hidden, expected):
        sys = pf.PiecewiseSystem.from_strings(("0", "0", "0"), ("0", "0", "0"),
                                              (hidden, "0", "0"))
        assert sys.lambda_degree == 4
        roots = pf.sliding_lambdas(sys, 0.0, 0.0)
        assert roots == pytest.approx(expected, abs=1e-9)
        for r in roots:
            assert abs(sys.f1(0.0, 0.0, 0.0, r)) <= 1e-12

    @pytest.mark.parametrize("c", [0.1, 0.5078125])
    def test_scan_root_at_an_extremum(self, c):
        # f1 = (1 - lambda^2)(lambda - c)^2 touches 0 at its minimum c, off
        # the scan nodes: no piece changes sign, and the extremum found by
        # the split is the root
        sys = pf.PiecewiseSystem.from_strings(("0", "0", "0"), ("0", "0", "0"),
                                              (f"(lambda - {c!r})^2", "0", "0"))
        assert sys.lambda_degree == 4
        assert pf.sliding_lambdas(sys, 0.0, 0.0) == [-1.0, c, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-0.95, 0.95), min_size=2, max_size=4),
           st.floats(0.25, 4.0), st.sampled_from((1.0, -1.0)))
    def test_scan_finds_every_simple_root(self, inner, scale, sign):
        # f1 = (1 - lambda^2) c prod(lambda - r_i): its roots in [-1, 1] are
        # exactly -1, each r_i and 1
        expected = sorted([-1.0, 1.0] + inner)
        assume(all(b - a >= 1e-3 for a, b in zip(expected, expected[1:])))
        hidden = "*".join([repr(scale * sign)] + [f"(lambda - ({r!r}))" for r in inner])
        sys = pf.PiecewiseSystem.from_strings(("0", "0", "0"), ("0", "0", "0"),
                                              (hidden, "0", "0"))
        # the scan resolves one extremum per subinterval, not two
        grid = [-1.0 + 2.0 * k / 4096 for k in range(4097)]
        slopes = [sys.f1_dlambda(0.0, 0.0, 0.0, u) for u in grid]
        for i in range(64):
            signs = [v > 0.0 for v in slopes[64 * i:64 * (i + 1) + 1] if v != 0.0]
            assume(sum(a != b for a, b in zip(signs, signs[1:])) <= 1)
        roots = pf.sliding_lambdas(sys, 0.0, 0.0)
        assert len(roots) == len(expected)
        assert roots == sorted(roots)
        for r in roots:
            assert abs(sys.f1(0.0, 0.0, 0.0, r)) <= 1e-12
        for r, want in zip(roots, expected):
            assert min(expected, key=lambda e: abs(r - e)) == want

    def test_attracting_root_exists_where_attracting(self):
        rng = random.Random(5)
        for _ in range(200):
            sys = normal_form(rng.choice((-1, 1)), rng.choice((-1, 1)),
                              rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(-0.5, 0.5))
            x2, x3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if pf.classify_surface_point(sys, (0.0, x2, x3)) \
                    is not pf.SurfaceMode.ATTRACTING_SLIDING:
                continue
            roots = pf.sliding_lambdas(sys, x2, x3)
            assert any(sys.f1_dlambda(0.0, x2, x3, r) < 0.0 for r in roots)


class TestSurfaceCurvature:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BUNDLED), st.floats(-5, 5), st.floats(-5, 5),
           st.sampled_from((1, -1)))
    def test_equals_own_gradient_dot_own_field(self, sys, x2, x3, side):
        # grad f1+- . f+- from the side's own trees, by the interpreter
        comps = sys.fplus if side > 0 else sys.fminus
        at = (0.0, x2, x3, float(side))
        f = [ex.evaluate(c, *at) for c in comps]
        g = [ex.evaluate(ex.differentiate(comps[0], v), *at) for v in ("x1", "x2", "x3")]
        want = 0.0 + g[0] * f[0] + g[1] * f[1] + g[2] * f[2]
        assert sys.surface_curvature((0.0, x2, x3), side).hex() == want.hex()


class TestBranchField:
    def test_is_compiled_once_per_side(self):
        sys = bundled("example_ii")
        assert sys.branch_field(1) is sys.branch_field(1)
        assert sys.branch_field(-1) is sys.branch_field(-1)
        assert sys.branch_field(1) is not sys.branch_field(-1)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(BUNDLED), st.floats(-5, 5), st.floats(-5, 5),
           st.floats(-5, 5), st.sampled_from((1, -1)))
    def test_equals_the_side_field_by_the_interpreter(self, sys, x1, x2, x3, side):
        comps = sys.fplus if side > 0 else sys.fminus
        want = [ex.evaluate(c, x1, x2, x3, float(side)).hex() for c in comps]
        got = sys.branch_field(side)(0.0, (x1, x2, x3))
        assert [v.hex() for v in got] == want


class TestSlidingField:
    def test_section6_linear_literal(self):
        sys = pf.PiecewiseSystem.from_strings(("1", "-1", "0"), ("-1", "-1", "0"))
        assert pf.sliding_field(sys, 0.0, 0.0, 0.0) == pytest.approx((-1.0, 0.0))

    def test_section6_nonlinear_literal(self):
        assert pf.sliding_field(SECTION6_LITERAL, 0.0, 0.0, 0.0) \
            == pytest.approx((1.0, 0.0))

    def test_normal_form_midpoint(self):
        got = pf.sliding_field(normal_form(), 1.0, 1.0, 0.0)
        assert got == pytest.approx((0.0, -0.5))
        # cross-check against combination()
        assert pf.combination(normal_form(), (0.0, 1.0, 1.0), 0.0)[1:] \
            == pytest.approx(got)

    def test_residual_guard(self):
        with pytest.raises(SlidingResidualError):
            pf.sliding_field(normal_form(), 1.0, 1.0, 0.5)


class TestIntegratePws:
    def test_straight_line_no_events(self):
        sys = pf.PiecewiseSystem.from_strings(("0", "1", "0"), ("0", "1", "0"))
        traj = pf.integrate_pws(sys, (1.0, 0.0, 0.0), 2.0)
        assert traj.events == 0
        assert traj.final_state == pytest.approx((1.0, 2.0, 0.0), rel=1e-9)
        assert all(m == "free+" for m in traj.modes)

    def test_invisible_reaches_surface_and_slides(self):
        sys = normal_form(1, 1, -2, -1, 0.2)
        traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 1.0)
        idx = traj.modes.index("sliding")
        t_ev, x_ev = traj.times[idx], traj.states[idx]
        assert t_ev == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)
        assert abs(x_ev[0]) <= 1e-10
        assert pf.classify_surface_point(sys, x_ev) \
            is pf.SurfaceMode.ATTRACTING_SLIDING

    def test_section6_nonlinear_slope(self):
        sys = pf.section6_system(nonlinear=True)
        traj = pf.integrate_pws(sys, (0.5, 0.0, 0.0), 3.0)
        assert traj.events >= 1
        y1 = traj.state_at(1.0)[1]
        y2 = traj.state_at(3.0)[1]
        slope = (y2 - y1) / 2.0
        assert slope == pytest.approx(1.0, rel=0.01)
        lam_sliding = [l for m, l in zip(traj.modes, traj.lambdas)
                       if m == "sliding" and l is not None]
        assert lam_sliding
        assert max(abs(l) for l in lam_sliding) < 1e-9

    def test_sliding_residual_along_segments(self):
        sys = normal_form(1, 1, -2, -1, 0.2)
        traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 3.0)
        n = 0
        for x, m, lam in zip(traj.states, traj.modes, traj.lambdas):
            if m == "sliding" and lam is not None:
                assert abs(sys.combined(0.0, x[1], x[2], lam)[0]) < 1e-8
                n += 1
        assert n > 50

    def test_crossing_switches_branch(self):
        sys = normal_form()  # alpha = 0
        # start above the surface in the crossing region x2 x3 < 0
        traj = pf.integrate_pws(sys, (0.2, 1.0, -1.0), 1.0)
        assert "crossing" in traj.modes
        assert "free-" in traj.modes
        assert traj.final_state[0] < 0

    def test_repelling_sliding_sets_flag(self):
        sys = normal_form(1, 1, -2, -1, 0.0)
        opts = PwsOptions(dense_output_stride=0.002)
        traj = pf.integrate_pws(sys, (0.0, -0.5, -0.5), 0.2, opts)
        assert traj.non_unique

    def test_event_budget(self):
        sys = pf.section6_system(nonlinear=False)
        opts = PwsOptions(max_events=0)
        with pytest.raises(pf.EventLimitError):
            pf.integrate_pws(sys, (0.5, 0.0, 0.0), 5.0, opts)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            pf.integrate_pws(normal_form(), (1, 1, 1), 0.0)


class TestSlidingLeg:
    def test_exit_that_newton_cannot_put_back_on_f1_raises(self):
        # mixed_db from (0.5, 1, 1) leaves a fold near t = 1.42; with
        # df1/dlambda scaled by 10 each Newton step in lambda covers a tenth
        # of the way, and 30 of them leave the exit off f1 = 0 (at a scale
        # of 3 the run still passes)
        sys = bundled("mixed_db")
        f1_dlam = sys.f1_dlambda
        sys.__dict__["f1_dlambda"] = lambda x1, x2, x3, lam: 10.0 * f1_dlam(x1, x2, x3, lam)
        with pytest.raises(SlidingResidualError, match=r"sliding exit at \(x2, x3\) = "
                           r"\(0\.0612\d*, -0\.4184\d*\) stays off f1 = 0") as info:
            pf.integrate_pws(sys, (0.5, 1.0, 1.0), 2.0)
        assert info.type is SlidingResidualError

    def test_gets_past_the_folded_node_promptly(self):
        # this start slides into the folded node of invisible_db at t = 4.36;
        # a run past it once stalled for minutes near lambda = -1
        x0 = (0.5084476707878112, 1.0174576234719783, 0.9968842799984566)
        start = time.perf_counter()
        traj = pf.integrate_pws(bundled("invisible_db"), x0, 4.8)
        assert time.perf_counter() - start < 1.0
        assert traj.times[-1] == 4.8

    def test_agrees_with_a_tight_tolerance_run(self):
        # this start leaves a fold near t = 7.7-8.1
        sys = pf.example_system("ii")
        traj = pf.integrate_pws(sys, (-0.5, 0.5, 0.5), 10.0)
        ref = pf.integrate_pws(sys, (-0.5, 0.5, 0.5), 10.0,
                               PwsOptions(rel_tol=1e-11, abs_tol=1e-13))
        grid = [i / 100 for i in range(1001)]
        assert pf.compare_trajectories(traj, ref, grid) < 1e-4

    def test_singular_flow_away_from_a_fold_raises(self):
        # f1 = -lambda, so lambda = 0 with df1/dlambda = -1, while the
        # sliding flow x2' = -1/x2 blows up at t = 0.5
        sys = pf.PiecewiseSystem.from_strings(("-1", "0", "0"), ("1", "0", "0"),
                                              ("0", "-1/x2", "0"))
        with pytest.raises(StepUnderflowError):
            pf.integrate_pws(sys, (0.0, 1.0, 0.0), 1.0)

    def test_fold_exit_goes_where_the_layer_flow_leaves(self):
        # d2f1/dlambda2 = -0.4 < 0: at the fold the layer flow leaves the
        # critical manifold towards lambda = -1, whatever the sign of lambda
        sys = bundled("mixed_db")
        traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 5.0)
        order = [m for i, m in enumerate(traj.modes)
                 if i == 0 or m != traj.modes[i - 1]]
        assert order == ["free+", "sliding", "free-"]
        i = traj.modes.index("free-") - 1
        (_, x2, x3), lam = traj.states[i], traj.lambdas[i]
        assert lam == pytest.approx(0.447, abs=0.005)
        assert abs(sys.f1_dlambda(0.0, x2, x3, lam)) < 1e-2

    def test_every_sliding_record_lies_on_the_critical_manifold(self):
        # the exit record sits at the fold at t = 1.42, where lambda ~
        # sqrt(t* - t) and the step's cubic interpolant is a poor first guess
        sys = bundled("mixed_db")
        traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 5.0)
        rows = [(x, lam) for x, m, lam in zip(traj.states, traj.modes, traj.lambdas)
                if m == "sliding"]
        assert len(rows) > 50
        for (_, x2, x3), lam in rows:
            assert abs(sys.f1(0.0, x2, x3, lam)) <= 1e-9

    def test_start_without_a_sliding_root_leaves_to_the_sign_of_f1(self):
        # x2 x3 < 0 is the crossing region of this normal form: f1 has no
        # root lambda in [-1, 1], and f1(0, 1, -1, 0) = -1
        sys = normal_form(1, 1, -2, -1, 0.0)
        assert pf.sliding_lambdas(sys, 1.0, -1.0) == []
        traj = pf.integrate_pws(sys, (0.0, 1.0, -1.0), 1.0)
        assert traj.modes[0] == "sliding"
        assert set(traj.modes[1:]) == {"free-"}
        assert traj.events == 0
        assert traj.times[-1] == 1.0


class TestLegRestart:
    def test_legs_after_an_event_do_not_ramp_up_again(self, monkeypatch):
        # 39 surface events; with every leg starting from a ~1e-10 step
        # estimate this run took 1331 Runge-Kutta attempts, with each leg
        # after the first starting at its predecessor's last step, 845. Both
        # counts include the 76 attempts that locate the crossings; those
        # run on copies of the legs' steppers, so the steppers built here
        # count 769
        steppers = []

        class Recorded(pf.pws.Dopri3):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steppers.append(self)

        monkeypatch.setattr(pf.pws, "Dopri3", Recorded)
        traj = pf.integrate_pws(pf.example_system("ii"), (0.1, -0.5, 0.5), 50.0)
        assert traj.events == 39
        assert len(steppers) == 40
        assert sum(s.nsteps for s in steppers) <= 900


class TestLocateCrossing:
    def test_leaves_the_accepted_step_as_it_was(self):
        # x1 = 0.3 - t on f+: the leg's stepper is read, never rewound
        sys = pf.PiecewiseSystem.from_strings(("-1", "1", "0"), ("1", "1", "0"))
        stepper = Dopri3(sys.branch_field(1), 0.0, (0.3, 0.0, 0.0), PwsOptions())
        while stepper.x[0] > 0.0:
            stepper.step_to(1.0)
        names = ("t_prev", "x_prev", "f_prev", "t", "x", "f", "h", "nsteps")
        before = [getattr(stepper, name) for name in names]
        t, x = _locate_crossing(stepper, 1, stepper.t, stepper.x[0])
        assert [getattr(stepper, name) for name in names] == before
        assert stepper.t_prev < t < stepper.t
        assert t == pytest.approx(0.3, abs=1e-9)
        assert abs(x[0]) <= 1e-10

    def test_spent_budget_raises(self, monkeypatch, capsys):
        # most crossings of this run are placed by the second re-advance
        monkeypatch.setattr(pf.pws, "_LOCATE_BUDGET", 1)
        with pytest.raises(IntegrationError, match="not located") as info:
            pf.integrate_pws(pf.example_system("ii"), (0.1, 0.1, 0.1), 10.0)
        assert info.type is IntegrationError
        path = os.path.join(SYSTEMS_DIR, "example_ii.json")
        assert cli.main(["simulate", path, "--mode", "pws", "--x0", "0.1,0.1,0.1",
                         "--t-end", "10"]) == 3
        err = capsys.readouterr().err
        assert "IntegrationError" in err and f"(system file: {path})" in err

    def test_crossing_with_zero_slope(self):
        # on f+, x1 = -(t - 1/2)^3 / 3: the flow meets x1 = 0 where x1' = -x2^2 = 0
        sys = pf.PiecewiseSystem.from_strings(("-x2^2", "1", "0"), ("-1", "1", "0"))
        traj = pf.integrate_pws(sys, (0.125 / 3, -0.5, 0.0), 1.0)
        assert traj.events == 1
        i = traj.modes.index("crossing")
        assert traj.times[i] == pytest.approx(0.5000006, abs=1e-7)
        assert traj.states[i][0] == 0.0
        assert traj.states[i][1] == pytest.approx(6.1e-7, rel=0.01)
        assert set(traj.modes[:i]) == {"free+"} and set(traj.modes[i + 1:]) == {"free-"}

    def test_crossing_whose_excursion_fits_in_one_step(self):
        # on f-, x1 is quadratic in t, and one accepted step covers its whole
        # excursion through x1 = 0 (to about 0.0027) near t = 1.72-1.85; the
        # end is the time-reversed start of the alpha -> -alpha run
        sys = build_normal_form(TwoFoldParams(-1, -1, 2.640539049742811, -2.794729141191566,
                                              0.3905539698663345))
        traj = pf.integrate_pws(sys, (-1.594418713899311, 4.185029123744917,
                                      1.7871867534448678), 2.0)
        assert traj.events == 1
        i = traj.modes.index("crossing")
        assert traj.times[i] == pytest.approx(1.715, abs=1e-3)
        assert all(x[0] < 0.0 for x in traj.states[:i])
        assert traj.final_state == pytest.approx(
            (0.21386499153821936, -0.8930789142005968, 0.8244410612089501), rel=0, abs=1e-10)


class TestSurfaceDecision:
    # f1 = lambda - 2 lambda^3: roots -1/sqrt(2) and 1/sqrt(2) attract
    # (df1/dlambda = -2), 0 repels (df1/dlambda = 1); the slide stays put
    TWO_ATTRACTING = (("-1", "1", "0"), ("1", "1", "0"), ("2*lambda", "0", "0"))
    # f1 = 2 lambda^3 - lambda: the same roots, of opposite stability
    TWO_REPELLING = (("1", "1", "0"), ("-1", "1", "0"), ("-2*lambda", "0", "0"))

    @pytest.mark.parametrize("system, x1, lam", [
        (TWO_ATTRACTING, 0.5, math.sqrt(0.5)),
        (TWO_ATTRACTING, -0.5, -math.sqrt(0.5)),
        (TWO_ATTRACTING, 0.0, -math.sqrt(0.5)),  # a start counts as from below
        (TWO_REPELLING, 0.0, 0.0),  # attracting roots come first
    ])
    def test_slide_enters_the_attracting_root_nearest_its_side(self, system, x1, lam):
        sys = pf.PiecewiseSystem.from_strings(*system)
        assert pf.sliding_lambdas(sys, 0.0, 0.0) == [
            pytest.approx(-math.sqrt(0.5), abs=1e-9), 0.0,
            pytest.approx(math.sqrt(0.5), abs=1e-9)]
        traj = pf.integrate_pws(sys, (x1, 0.0, 0.0), 1.0)
        first = traj.modes.index("sliding")
        assert traj.lambdas[first] == pytest.approx(lam, abs=1e-9)
        assert traj.lambdas[-1] == pytest.approx(lam, abs=1e-9)
        assert not traj.non_unique

    def test_each_surface_event_appends_one_record(self, monkeypatch):
        # no dense samples: the start, the arrival and the t_end record only
        calls = []
        append = pf.Trajectory.append

        def spy(traj, t, state, mode, lam):
            calls.append((t, mode, lam is None))
            append(traj, t, state, mode, lam)

        monkeypatch.setattr(pf.Trajectory, "append", spy)
        sys = pf.PiecewiseSystem.from_strings(*self.TWO_ATTRACTING)
        traj = pf.integrate_pws(sys, (0.5, 0.0, 0.0), 1.0,
                                PwsOptions(dense_output_stride=10.0))
        assert calls == [(0.0, "free+", True), (traj.times[1], "sliding", False),
                         (1.0, "sliding", False)]
        assert traj.times[1] == pytest.approx(0.5, abs=1e-12)
        assert traj.events == 1


class TestTangency:
    # f+ = (-10 x1, 1, 0) reaches x1 = 0 tangentially, where its normal
    # component and its curvature both vanish; f- decides what follows
    GRAZING_PLUS = ("-10*x1", "1", "0")

    def arrive(self, fminus):
        sys = pf.PiecewiseSystem.from_strings(self.GRAZING_PLUS, fminus)
        traj = pf.integrate_pws(sys, (0.01, 0.0, 0.0), 5.0)
        order = [m for i, m in enumerate(traj.modes)
                 if i == 0 or m != traj.modes[i - 1]]
        i = traj.modes.index(order[1])
        assert traj.times[i] == pytest.approx(2.013, abs=1e-3)
        assert traj.times[-1] == 5.0
        return traj, order

    def test_slides_where_the_other_side_pushes_onto_the_surface(self):
        traj, order = self.arrive(("1", "0", "1"))
        assert order == ["free+", "sliding", "free+"]
        assert traj.events == 2

    def test_crosses_where_the_other_side_pulls_away(self):
        traj, order = self.arrive(("-1", "0", "1"))
        assert order == ["free+", "crossing", "free-"]
        assert traj.final_state[0] == pytest.approx(-2.987, abs=1e-3)

    def test_visible_fold_returns_to_its_own_side(self):
        # f+ = (-x2, -1, 0) grazes the origin and curves back into x1 > 0
        sys = pf.PiecewiseSystem.from_strings(("-x2", "-1", "0"), ("1", "0", "0"))
        assert _resolve_tangency(sys, (0.0, 0.0, 0.0)) == 1

    def test_two_fold_point_slides(self):
        # both normal components vanish at the origin
        sys = pf.PiecewiseSystem.from_strings(("-x2", "1", "0"), ("x3", "0", "1"))
        assert _resolve_tangency(sys, (0.0, 0.0, 0.0)) == 0


def test_oracle_equivalence_db_example_before_passage():
    # The determinacy-breaking invisible case funnels into the folded
    # singularity near t = 4.3; up to t = 4 the event-driven and regularized
    # trajectories must agree to a few 1e-4 and tighten as eps shrinks.
    p = TwoFoldParams(1, 1, -2, -1, 0.2)
    sys = build_normal_form(p)
    traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 4.0)
    s = pf.builtin_sigmoid("tanh")
    grid = [4.0 * i / 400 for i in range(401)]
    prev = None
    for eps in (4e-4, 2e-4, 1e-4):
        reg = pf.regularized_trajectory(sys, s, eps, (0.5, 1.0, 1.0), 4.0)
        dev = pf.compare_trajectories(traj, reg, grid)
        assert dev < 5e-3
        if prev is not None:
            assert dev < prev
        prev = dev


def test_sliding_solver_dual_route():
    # same layer equation solved by the closed-form quadratic and by the
    # sign-change scan: a value-neutral tanh(lambda) factor in the hidden
    # term defeats the polynomial-degree detection without changing values
    rng = random.Random(2024)
    for _ in range(50):
        a1, a2 = rng.choice((-1, 1)), rng.choice((-1, 1))
        b1, b2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        al = rng.uniform(-0.5, 0.5)
        quad = normal_form(a1, a2, b1, b2, al)
        scan = pf.PiecewiseSystem.from_strings(
            ("-x2", repr(float(a1)), repr(float(b1))),
            ("x3", repr(float(b2)), repr(float(a2))),
            (f"{al!r} + 0*tanh(lambda)", "0", "0"))
        assert quad.lambda_degree == 2 and scan.lambda_degree is None
        x2, x3 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        r_quad = pf.sliding_lambdas(quad, x2, x3)
        r_scan = pf.sliding_lambdas(scan, x2, x3)
        assert len(r_quad) == len(r_scan), (a1, a2, b1, b2, al, x2, x3)
        for q, s in zip(r_quad, r_scan):
            assert q == pytest.approx(s, abs=1e-7)


def test_invisible_db_canard_ejects_at_folded_singularity():
    # the determinacy-breaking funnel slides into the folded singularity and
    # the fold event hands the flow to the lower region (locked-in behavior:
    # the distinguished continuation at the singular passage is a policy)
    p = TwoFoldParams(1, 1, -2, -1, 0.2)
    sys = build_normal_form(p)
    traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 4.6)
    order = [m for i, m in enumerate(traj.modes)
             if i == 0 or m != traj.modes[i - 1]]
    assert order[:3] == ["free+", "sliding", "free-"]
    exit_idx = traj.modes.index("free-")
    t_exit = traj.times[exit_idx]
    assert 4.2 < t_exit < 4.45
    # exit lands near the folded singularity
    phi_s = 2.0 - math.sqrt(5.0)
    x2s = 0.2 * (phi_s - 1.0) ** 2
    x3s = -0.2 * (phi_s + 1.0) ** 2
    x_ev = traj.states[exit_idx - 1]
    assert math.hypot(x_ev[1] - x2s, x_ev[2] - x3s) < 0.05


def test_trajectory_state_at_and_range():
    sys = pf.PiecewiseSystem.from_strings(("0", "1", "0"), ("0", "1", "0"))
    traj = pf.integrate_pws(sys, (1.0, 0.0, 0.0), 1.0)
    assert traj.state_at(0.5)[1] == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        traj.state_at(1.5)


def test_trajectory_append_replaces_at_the_last_time_and_rejects_earlier():
    traj = pf.Trajectory()
    traj.append(0.0, (1.0, 0.0, 0.0), "free+", None)
    traj.append(1.0, (0.5, 1.0, 0.0), "free+", None)
    traj.append(1.0, (0.0, 1.0, 0.0), "sliding", 0.25)
    assert traj.times == [0.0, 1.0]
    last = (traj.states[-1], traj.modes[-1], traj.lambdas[-1])
    assert last == ((0.0, 1.0, 0.0), "sliding", 0.25)
    with pytest.raises(ValueError, match="precedes"):
        traj.append(0.5, (0.5, 0.5, 0.0), "free+", None)
    assert traj.times == [0.0, 1.0]
    assert traj.states[-1] == (0.0, 1.0, 0.0)


def test_trajectory_times_strictly_increasing():
    sys = normal_form(1, 1, -2, -1, 0.2)
    traj = pf.integrate_pws(sys, (0.5, 1.0, 1.0), 5.0)
    assert all(t1 < t2 for t1, t2 in zip(traj.times, traj.times[1:]))


def per_sample_emit(traj, k, stride, t_hi, at, mode=None):
    """The dense-output recorder one sample at a time (the reference):
    appends the samples up to t_hi of the step's interpolant at, called
    at one time at a time, and returns the next stride index."""
    bound = t_hi + 1e-12 * max(1.0, abs(t_hi))
    t = k * stride
    while t <= bound:
        if t > t_hi:
            t = t_hi
        s = at(t)
        if mode == "sliding":
            traj.append(t, (0.0, s[1], s[2]), mode, s[0])
        else:
            traj.append(t, s, mode or ("free+" if s[0] >= 0 else "free-"), None)
        k += 1
        t = k * stride
    return k


def accepted_step(t0, x0, f0, t1, x1, f1):
    """A stand-in for a Dopri3 whose last accepted step is the given one."""
    return SimpleNamespace(t_prev=t0, x_prev=x0, f_prev=f0, t=t1, x=x1, f=f1)


def sliding_projection(s):
    # nonlinear in lambda, and it moves x3 as well
    lam, x2, x3 = s
    return (0.5 * lam + 0.1 * lam ** 3, x2, x3 + lam * lam)


class TestRecorder:
    # one step from t = 0.25 to 1.0 whose x1 changes sign
    STEP = (0.25, (0.5, 1.0, -1.0), (-1.0, 0.5, 2.0),
            1.0, (-0.25, 1.25, 0.5), (-0.5, 0.0, 1.0))

    def emit(self, recorder, stride, t_hi, mode=None, k=1, first=(0.0, (0.5, 1.0, -1.0)),
             project=None, step=None):
        """The trajectory and next stride index after one emit_through of
        step (STEP by default) by _Recorder, or else by the reference."""
        step = step or self.STEP
        traj = pf.Trajectory()
        traj.append(first[0], first[1], "free+", None)
        if recorder:
            rec = _Recorder(traj, stride)
            rec.k = k
            rec.emit_through(t_hi, accepted_step(*step), mode, project)
            return traj, rec.k
        at = hermite(accepted_step(*step))
        if project is not None:
            raw = at

            def at(t):
                return project(raw(t))
        return traj, per_sample_emit(traj, k, stride, t_hi, at, mode)

    def both(self, *args, **kwargs):
        """(recorder, reference) results of emit."""
        return [self.emit(recorder, *args, **kwargs) for recorder in (True, False)]

    def assert_same(self, pair):
        # repr tells every float apart, -0.0 from 0.0 too: bit for bit
        (a, ka), (b, kb) = pair
        assert ka == kb
        assert repr((a.times, a.states, a.modes, a.lambdas)) == \
            repr((b.times, b.states, b.modes, b.lambdas))

    def test_many_samples_in_one_step(self):
        pair = self.both(1e-3, 1.0)
        self.assert_same(pair)
        traj = pair[0][0]
        assert len(traj.times) == 1001
        assert {"free+", "free-"} == set(traj.modes[1:])

    def test_clamped_sample_is_replaced_by_the_event_record(self):
        # 3 * 0.1 rounds above 0.3: that sample is taken at t_hi = 0.3
        pair = self.both(0.1, 0.3, "free+", k=3)
        self.assert_same(pair)
        assert pair[0][0].times[-1] == 0.3
        for traj, _ in pair:
            traj.append(0.3, (0.0, 1.0, 0.0), "crossing", None)
        self.assert_same(pair)
        assert pair[0][0].modes[-2:] == ["free+", "crossing"]

    def test_repeated_clamped_time_is_one_sample(self):
        # ten stride multiples fall between t_hi = 0.75 and its rounding
        # bound; each is taken at t_hi
        stride = 1e-13
        pair = self.both(stride, 0.75, k=int(0.75 / stride) - 2)
        self.assert_same(pair)
        times = pair[0][0].times
        assert times[-1] == 0.75 and times[-2] < 0.75
        assert pair[0][1] * stride > 0.75 + 1e-12

    def test_sliding_batch(self):
        def project(s):
            lam, x2, x3 = s
            return (0.5 * lam, x2, x3 + lam * lam)

        pair = self.both(0.01, 0.9, "sliding", project=project)
        self.assert_same(pair)
        traj = pair[0][0]
        assert set(traj.modes[1:]) == {"sliding"}
        assert all(x[0] == 0.0 and lam is not None
                   for x, lam in zip(traj.states[1:], traj.lambdas[1:]))

    def test_earlier_first_sample_raises(self):
        # the first stride sample, 0.1, precedes the trajectory's last, 0.5
        step = accepted_step(*self.STEP)
        at = hermite(step)
        for emit in (lambda traj: _Recorder(traj, 0.1).emit_through(1.0, step),
                     lambda traj: per_sample_emit(traj, 1, 0.1, 1.0, at)):
            traj = pf.Trajectory()
            traj.append(0.5, (0.0, 0.0, 0.0), "free+", None)
            with pytest.raises(ValueError, match="precedes"):
                emit(traj)
            assert traj.times == [0.5]

    def test_random_steps_match_the_per_sample_reference(self):
        """About 300 seeded draws of step, stride, start index, t_hi and
        mode; each equals the reference bit for bit, or both raise."""
        rng = random.Random(20261020)
        counts = {"samples": 0, "raised": 0, "replaced": 0, "zero_step": 0, "clamped": 0}

        def vec():
            return tuple(rng.choice((-0.0, rng.uniform(-2.0, 2.0))) for _ in range(3))

        for _ in range(300):
            t0 = rng.uniform(0.0, 3.0)
            t1 = t0 if rng.random() < 0.1 else t0 + 10 ** rng.uniform(-4.0, 0.5)
            step = (t0, vec(), vec(), t1, vec(), vec())
            stride = 10 ** rng.uniform(-13.0, 0.0)
            j = max(1, round(rng.uniform(t0, t1 + 0.5) / stride))
            where = rng.choice(("on", "between", "in_bound"))
            t_hi = j * stride
            if where == "between":
                t_hi = (j + rng.uniform(0.05, 0.95)) * stride
            elif where == "in_bound":
                t_hi -= rng.uniform(0.05, 0.95) * 1e-12 * max(1.0, t_hi)
            # a start index past j makes the first sample a clamped one
            k = max(1, j - (rng.randint(-3, 1) if rng.random() < 0.25 else rng.randint(0, 150)))
            mode = rng.choice((None, "free-", "sliding"))
            project = sliding_projection if mode == "sliding" else None
            # the trajectory's last sample: before the first new one, at its
            # time (it is replaced) or after it (ValidationError)
            first_t = k * stride if k * stride <= t_hi else t_hi
            last_t = rng.choice((first_t - rng.uniform(0.0, 1.0) * stride, first_t,
                                 first_t + stride))
            has_sample = k * stride <= t_hi + 1e-12 * max(1.0, abs(t_hi))
            counts["zero_step"] += t1 == t0 and has_sample
            args = (stride, t_hi, mode, k, (last_t, (0.5, 1.0, -1.0)), project, step)
            if has_sample and last_t > first_t:
                for recorder in (True, False):
                    with pytest.raises(ValidationError, match="precedes"):
                        self.emit(recorder, *args)
                counts["raised"] += 1
                continue
            pair = self.both(*args)
            self.assert_same(pair)
            traj = pair[0][0]
            counts["samples"] += len(traj.times) - 1
            counts["replaced"] += has_sample and last_t == first_t
            counts["clamped"] += traj.times[-1] == t_hi and where != "on"
        # every rule was reached
        assert all(counts.values()), counts


class TestRunEnd:
    def test_ends_at_t_end_with_the_end_state(self):
        # 3 * 0.1 and 7 * 0.1 round above 0.3 and 0.7
        sys = pf.example_system("ii")
        for t_end in (0.3, 0.7):
            traj = pf.integrate_pws(sys, (0.1, 0.1, 0.1), t_end,
                                    PwsOptions(dense_output_stride=0.1))
            sparse = pf.integrate_pws(sys, (0.1, 0.1, 0.1), t_end,
                                      PwsOptions(dense_output_stride=10.0))
            assert traj.times[-1] == t_end
            assert traj.final_state == sparse.final_state

    def test_keeps_an_event_record_that_a_sample_rounds_past(self):
        sys = pf.PiecewiseSystem.from_strings(("-1", "1", "0"), ("-1", "1", "0"))
        probe = pf.integrate_pws(sys, (0.3, 0.0, 0.0), 0.5,
                                 PwsOptions(dense_output_stride=10.0))
        t_ev = probe.times[probe.modes.index("crossing")]
        # the first stride sample falls 5e-13 after the crossing
        traj = pf.integrate_pws(sys, (0.3, 0.0, 0.0), 0.5,
                                PwsOptions(dense_output_stride=t_ev + 5e-13))
        i = traj.modes.index("crossing")
        assert traj.times[i] == t_ev
        assert traj.states[i] == probe.states[probe.modes.index("crossing")]
