import json
import math
import os
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import pwsfold as pf
from pwsfold import expr as ex
from pwsfold.cli import load_system_file
from pwsfold.exceptions import (DegenerateClassificationError,
                                DegenerateSystemError)
from pwsfold.pws import Stability
from pwsfold.regularize import builtin_sigmoid, critical_manifold
from pwsfold.twofold import (Canard, Flavour, FoldedClass, TwoFoldParams,
                             build_normal_form, canonical_coefficients,
                             canonical_fit, classify_folded, classify_twofold,
                             fit_fast_equation_coefficients,
                             folded_point_residual, folded_points,
                             folded_conditions_residuals, folded_reports)

TANH = builtin_sigmoid("tanh")
ALG = builtin_sigmoid("algebraic")


class TestParams:
    def test_a_values_restricted(self):
        with pytest.raises(ValueError):
            TwoFoldParams(2, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            TwoFoldParams(1, 0, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["b1", "b2", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"a1": 1, "a2": 1, "b1": -2.0, "b2": -1.0, "alpha": 0.2, field: value}
        with pytest.raises(ValueError, match=field):
            TwoFoldParams(**kwargs)


class TestBuildNormalForm:
    def test_fields(self):
        sys = build_normal_form(TwoFoldParams(1, 1, -2, -1, 0.0))
        assert pf.combination(sys, (0.0, 0.3, 0.7), 1.0) == (-0.3, 1.0, -2.0)
        assert pf.combination(sys, (0.0, 0.3, 0.7), -1.0) == (0.7, -1.0, 1.0)

    def test_hidden_strength(self):
        sys = build_normal_form(TwoFoldParams(1, 1, -2, -1, 0.2))
        v0 = pf.combination(sys, (0.0, 0.0, 0.0), 0.0)
        assert v0 == pytest.approx((0.2, 0.0, -0.5))

    def test_midpoint_formula(self):
        p = TwoFoldParams(-1, 1, 0.3, 1.7, 0.05)
        sys = build_normal_form(p)
        v0 = pf.combination(sys, (0.0, 0.0, 0.0), 0.0)
        assert v0 == pytest.approx((p.alpha, (p.a1 + p.b2) / 2, (p.b1 + p.a2) / 2))


class TestClassifyTwofold:
    def test_invisible_db(self):
        tc = classify_twofold(TwoFoldParams(1, 1, -2, -1))
        assert tc.flavour is Flavour.INVISIBLE and tc.determinacy_breaking

    def test_visible_db(self):
        tc = classify_twofold(TwoFoldParams(-1, -1, 0.5, 0.5))
        assert tc.flavour is Flavour.VISIBLE and tc.determinacy_breaking

    def test_mixed_without_db(self):
        tc = classify_twofold(TwoFoldParams(1, -1, 1.0, 0.0))
        assert tc.flavour is Flavour.MIXED and not tc.determinacy_breaking

    def test_mixed_with_db(self):
        tc = classify_twofold(TwoFoldParams(-1, 1, -3.0, 0.5))
        assert tc.flavour is Flavour.MIXED and tc.determinacy_breaking

    @pytest.mark.parametrize("a1,a2", [(1, 1), (-1, -1), (1, -1), (-1, 1)])
    def test_commutes_with_side_swap(self, a1, a2):
        # x1 -> -x1, lambda -> -lambda, x2 <-> x3 maps (a1, a2, b1, b2) onto
        # (a2, a1, b2, b1) and each folded point phi_s onto -phi_s
        rng = random.Random(4 + 2 * a1 + a2)
        for _ in range(1000):
            b1, b2 = rng.uniform(-6, 6), rng.uniform(-6, 6)
            p, image = TwoFoldParams(a1, a2, b1, b2), TwoFoldParams(a2, a1, b2, b1)
            assert classify_twofold(image) == classify_twofold(p), p
            assert sorted(-phi for phi in folded_points(image)) == folded_points(p), p

    def test_mixed_db_where_a_folded_point_is_faux(self):
        # for both mixed orientations the flag marks exactly the normal forms
        # with a folded point that carries a faux canard
        rng = random.Random(909)
        for _ in range(500):
            a1 = rng.choice((-1, 1))
            p = TwoFoldParams(a1, -a1, rng.uniform(-6, 6), rng.uniform(-6, 6),
                              rng.choice((-1, 1)) * rng.uniform(0.05, 1.0))
            faux = any(r.canard is Canard.FAUX_CANARD for r in folded_reports(p, TANH))
            assert classify_twofold(p).determinacy_breaking is faux, p


class TestFoldedPoints:
    def test_equal_curvature_case(self):
        got = folded_points(TwoFoldParams(1, 1, 3.0, 1.0))
        assert got == pytest.approx([math.sqrt(2.0) - 1.0])

    def test_mixed_below_threshold_empty(self):
        assert folded_points(TwoFoldParams(1, -1, 1.0, 0.0)) == []

    def test_mixed_pair(self):
        got = folded_points(TwoFoldParams(1, -1, 4.0, 0.0))
        r = math.sqrt(1.0 / 3.0)
        assert got == pytest.approx([-r, r])

    def test_equal_b_regular(self):
        # the closed form dividing by b1-b2 degenerates here; the quadratic
        # solve stays regular and yields the single midpoint root
        assert folded_points(TwoFoldParams(-1, -1, 0.5, 0.5)) == pytest.approx([0.0])

    def test_counts_small_sweep(self):
        rng = random.Random(1234)
        for _ in range(200):
            b1 = rng.uniform(-5, 5)
            b2 = rng.uniform(-5, 5)
            assert len(folded_points(TwoFoldParams(1, 1, b1, b2))) == 1
            assert len(folded_points(TwoFoldParams(-1, -1, b1, b2))) == 1
            n_pm = len(folded_points(TwoFoldParams(1, -1, b1, b2)))
            assert n_pm == (2 if b1 - b2 > 2 else 0)
            n_mp = len(folded_points(TwoFoldParams(-1, 1, b1, b2)))
            assert n_mp == (2 if b1 - b2 < -2 else 0)

    def test_residuals(self):
        rng = random.Random(77)
        for _ in range(200):
            p = TwoFoldParams(rng.choice((-1, 1)), rng.choice((-1, 1)),
                              rng.uniform(-5, 5), rng.uniform(-5, 5))
            for phi in folded_points(p):
                assert abs(folded_point_residual(p, phi)) < 1e-12


class TestCanonicalCoefficients:
    def test_invisible_r_value(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        phi_s = folded_points(p)[0]
        assert phi_s == pytest.approx(2.0 - math.sqrt(5.0))
        _, _, r_t = canonical_coefficients(p, TANH, phi_s)
        assert r_t == pytest.approx(-0.5 - 1.5 * phi_s)
        assert r_t == pytest.approx(-0.145898, abs=1e-6)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DegenerateSystemError):
            canonical_coefficients(TwoFoldParams(1, 1, -2, -1, 0.0), TANH, 0.1)

    def test_side_swap_invariance(self):
        # exchanging the two sides (a1,a2,b1,b2) -> (a2,a1,b2,b1) mirrors
        # phi_s -> -phi_s and preserves both the canard character (sign of q)
        # and the classifying product r*p
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        q = TwoFoldParams(1, 1, -1, -2, 0.2)
        phi_p = folded_points(p)[0]
        phi_q = folded_points(q)[0]
        assert phi_q == pytest.approx(-phi_p)
        cp = canonical_coefficients(p, TANH, phi_p)
        cq = canonical_coefficients(q, TANH, phi_q)
        assert cq[1] == pytest.approx(cp[1], rel=1e-12)
        assert cq[0] * cq[2] == pytest.approx(cp[0] * cp[2], rel=1e-12)

    def test_sigmoid_derivative_scaling(self):
        # at the same phi_s, q scales with sqrt(phi'(u_s)) and p with
        # phi'(u_s); r is sigmoid-independent
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        phi_s = folded_points(p)[0]
        pt_t, qt_t, rt_t = canonical_coefficients(p, TANH, phi_s)
        pt_a, qt_a, rt_a = canonical_coefficients(p, ALG, phi_s)
        ratio = ALG.derivative(ALG.inverse(phi_s)) / TANH.derivative(TANH.inverse(phi_s))
        assert rt_a == rt_t
        assert qt_a / qt_t == pytest.approx(math.sqrt(ratio), rel=1e-12)
        assert pt_a / pt_t == pytest.approx(ratio, rel=1e-12)

    def test_folded_points_sigmoid_independent(self):
        p = TwoFoldParams(1, -1, 4.0, 0.0, 0.2)
        assert folded_points(p) == folded_points(p)  # lambda-level object


class TestClassifyFolded:
    def test_saddle_with_canard(self):
        assert classify_folded(1.0, 1.0, -1.0) == (FoldedClass.FOLDED_SADDLE,
                                                   Canard.CANARD)

    def test_node_with_canard(self):
        assert classify_folded(1.0, 3.0, 1.0) == (FoldedClass.FOLDED_NODE,
                                                  Canard.CANARD)

    def test_focus_has_no_canard(self):
        assert classify_folded(1.0, 1.0, 1.0) == (FoldedClass.FOLDED_FOCUS, None)

    def test_faux_canard(self):
        assert classify_folded(1.0, -3.0, 1.0) == (FoldedClass.FOLDED_NODE,
                                                   Canard.FAUX_CANARD)

    def test_boundary_rp_zero(self):
        with pytest.raises(DegenerateClassificationError):
            classify_folded(0.0, 1.0, 1.0)

    def test_boundary_node_focus(self):
        with pytest.raises(DegenerateClassificationError):
            classify_folded(1.0, math.sqrt(8.0), 1.0)


class TestCanonicalFit:
    def test_matches_closed_form_reference_case(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        phi_s = folded_points(p)[0]
        closed = canonical_coefficients(p, TANH, phi_s)
        fitted = canonical_fit(p, TANH, phi_s)
        for c, f in zip(closed, fitted):
            assert f == pytest.approx(c, rel=1e-3)

    def test_fast_equation_unit_coefficients(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        phi_s = folded_points(p)[0]
        c_x2, c_x1sq = fit_fast_equation_coefficients(p, TANH, phi_s)
        assert c_x2 == pytest.approx(1.0, abs=1e-3)
        assert c_x1sq == pytest.approx(1.0, abs=1e-3)

    def test_normal_form_compiles_once_per_params(self, monkeypatch):
        calls = []
        generate = ex._generate

        def counting(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(ex, "_generate", counting)
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        phi_s = folded_points(p)[0]
        canonical_fit(p, TANH, phi_s)
        fit_fast_equation_coefficients(p, TANH, phi_s)
        assert len(calls) == 1

    def test_alpha_zero_rejected(self):
        with pytest.raises(DegenerateSystemError):
            canonical_fit(TwoFoldParams(1, 1, -2, -1, 0.0), TANH, 0.1)

    def test_negative_alpha_fit_agreement(self):
        p = TwoFoldParams(1, 1, -2, -1, -0.3)
        phi_s = folded_points(p)[0]
        closed = canonical_coefficients(p, TANH, phi_s)
        fitted = canonical_fit(p, TANH, phi_s)
        for c, f in zip(closed, fitted):
            assert f == pytest.approx(c, rel=1e-6)
        c_x2, c_x1sq = fit_fast_equation_coefficients(p, TANH, phi_s)
        assert c_x2 == pytest.approx(1.0, abs=1e-6)
        assert c_x1sq == pytest.approx(1.0, abs=1e-4)

    def test_fsing_conditions_at_folded_points(self):
        rng = random.Random(6)
        for _ in range(50):
            p = TwoFoldParams(rng.choice((-1, 1)), rng.choice((-1, 1)),
                              rng.uniform(-5, 5), rng.uniform(-5, 5),
                              rng.choice((0.05, 0.2, 1.0)))
            for phi_s in folded_points(p):
                r1, r2, r3 = folded_conditions_residuals(p, TANH, phi_s)
                assert r1 < 1e-9 and r2 < 1e-9 and r3 < 1e-9


class TestFoldedReports:
    def test_invisible_db_report(self):
        p = TwoFoldParams(1, 1, -2, -1, 0.2)
        reports = folded_reports(p, TANH)
        assert len(reports) == 1
        r = reports[0]
        assert r.folded_class is FoldedClass.FOLDED_NODE
        assert r.flavour is Flavour.INVISIBLE
        assert r.determinacy_breaking
        assert r.x2s == pytest.approx(p.alpha * (r.phi_s - 1) ** 2)
        assert r.x3s == pytest.approx(-p.alpha * (r.phi_s + 1) ** 2)
        assert TANH.value(r.u_s) == pytest.approx(r.phi_s, abs=1e-12)

    def test_json_round_trip(self):
        p = TwoFoldParams(-1, -1, 0.5, 0.5, 0.2)
        doc = folded_reports(p, TANH)[0].to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["folded_class"] == "folded_saddle"
        assert back["canard"] == "canard"
        assert set(back) == {"phi_s", "u_s", "x2s", "x3s", "p", "q", "r",
                             "folded_class", "canard", "flavour",
                             "determinacy_breaking"}


def desingularized_flow(sys):
    """(x2, x3, lambda) -> (x2, x3, lambda)' of the desingularized sliding
    flow on S = {f1(0, x2, x3, lambda) = 0}: (-df1/dlambda f2,
    -df1/dlambda f3, df1/dx2 f2 + df1/dx3 f3), the sliding field times
    -df1/dlambda, which is finite at folds."""
    dlam, (_, d2, d3) = sys.f1_dlambda, sys.f1_gradient

    def flow(v):
        x2, x3, lam = v
        _, f2, f3 = sys.combined(0.0, x2, x3, lam)
        d = dlam(0.0, x2, x3, lam)
        return (-d * f2, -d * f3,
                d2(0.0, x2, x3, lam) * f2 + d3(0.0, x2, x3, lam) * f3)

    return flow


def sliding_side_class(p: TwoFoldParams, report) -> FoldedClass:
    """Class of the folded point from the desingularized sliding flow.

    The flow has the folded point as an equilibrium. Its Jacobian, by
    central differences and restricted to the tangent plane of S spanned by
    (0, 0, 1) and (-df1/dx3, df1/dx2, 0), is classified by its determinant
    and trace. No closed form and no canonical fit enter. The time
    rescaling -df1/dlambda is positive on the attracting sheet and negative
    on the repelling one (test_time_rescaling_sign).
    """
    sys = build_normal_form(p)
    _, d2, d3 = sys.f1_gradient
    flow = desingularized_flow(sys)
    point = (report.x2s, report.x3s, report.phi_s)
    h = 1e-6
    columns = []
    for j in range(3):
        up = list(point)
        down = list(point)
        up[j] += h
        down[j] -= h
        columns.append([(a - b) / (2 * h) for a, b in zip(flow(up), flow(down))])

    def jac(v):
        return [sum(columns[j][i] * v[j] for j in range(3)) for i in range(3)]

    g2, g3 = d2(0.0, *point), d3(0.0, *point)
    basis = ((0.0, 0.0, 1.0), (-g3, g2, 0.0))
    m = [[sum(a * b for a, b in zip(bi, jac(bj))) / sum(a * a for a in bi)
          for bj in basis] for bi in basis]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    if det < 0.0:
        return FoldedClass.FOLDED_SADDLE
    return FoldedClass.FOLDED_NODE if tr * tr > 4.0 * det else FoldedClass.FOLDED_FOCUS


class TestSlidingSideClass:
    """The paper's theorem seen from the sliding side: the two-fold's folded
    singularity has the class the regularization's canonical form gives it."""

    def test_bundled_normal_forms(self):
        classes = set()
        for name in ("invisible_db", "visible_db", "mixed_db"):
            path = os.path.join(os.path.dirname(pf.__file__), "systems", f"{name}.json")
            params = load_system_file(path).normal_form
            for report in folded_reports(params, TANH):
                assert sliding_side_class(params, report) is report.folded_class
                classes.add(report.folded_class)
        assert len(classes) >= 2

    @pytest.mark.parametrize("name", ["invisible_db", "visible_db", "mixed_db"])
    def test_time_rescaling_sign(self, name):
        # on an 11 x 11 grid of spacing 0.01 about each folded point, at the
        # critical points within 0.2 of its lambda: the desingularized flow
        # is the sliding field times -df1/dlambda, and that factor is
        # positive where the layer flow attracts to the root (f1 falls
        # through 0 as lambda rises) and negative where it repels
        path = os.path.join(os.path.dirname(pf.__file__), "systems", f"{name}.json")
        params = load_system_file(path).normal_form
        sys = build_normal_form(params)
        flow = desingularized_flow(sys)
        for report in folded_reports(params, TANH):
            sides = set()
            grid2 = [report.x2s + 0.01 * i for i in range(-5, 6)]
            grid3 = [report.x3s + 0.01 * i for i in range(-5, 6)]
            for lam, x2, x3, stability in critical_manifold(sys, grid2, grid3):
                factor = -sys.f1_dlambda(0.0, x2, x3, lam)
                if abs(lam - report.phi_s) > 0.2 or abs(factor) < 1e-6:
                    continue
                lam_dot, x2_dot, x3_dot = sys._sliding_field(0.0, (lam, x2, x3))
                assert flow((x2, x3, lam)) == pytest.approx(
                    (factor * x2_dot, factor * x3_dot, factor * lam_dot), rel=1e-12)
                below = sys.f1(0.0, x2, x3, lam - 1e-7)
                above = sys.f1(0.0, x2, x3, lam + 1e-7)
                attracting = below > 0.0 > above
                assert attracting or below < 0.0 < above
                assert (factor > 0.0) is attracting
                assert (stability is Stability.ATTRACTING) is attracting
                sides.add(attracting)
            assert sides == {True, False}, report

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((-1, 1)), st.sampled_from((-1, 1)),
           st.floats(-3, 3), st.floats(-3, 3), st.sampled_from((0.2, -0.3, 0.5)))
    def test_random_normal_forms(self, a1, a2, b1, b2, alpha):
        params = TwoFoldParams(a1, a2, b1, b2, alpha)
        try:
            reports = folded_reports(params, TANH)
        except DegenerateClassificationError:
            assume(False)
        for report in reports:
            assert sliding_side_class(params, report) is report.folded_class
