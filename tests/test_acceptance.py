"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance and runtime budget is asserted, not just reported.
"""

import random
import time
from contextlib import contextmanager

import pytest

import pwsfold as pf
from pwsfold.pws import PwsOptions
from pwsfold.regularize import builtin_sigmoid, dummy_field
from pwsfold.sim import DEFAULT_EXAMPLE_X0, regularized_trajectory, run_example
from pwsfold.twofold import (FoldedClass, TwoFoldParams, build_normal_form,
                             canonical_coefficients, canonical_fit,
                             fit_fast_equation_coefficients,
                             folded_point_residual, folded_points,
                             folded_reports)

TANH = builtin_sigmoid("tanh")
ALG = builtin_sigmoid("algebraic")


@contextmanager
def criterion(number, label, budget_seconds):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_seconds, \
            f"criterion {number} runtime {elapsed:.2f} s exceeds {budget_seconds} s"
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number} {status} ({elapsed:.2f} s): {label}")


def test_criterion_1_regularization_ambiguity():
    # same discontinuous limit, opposite layer drift: dy/dt = -1 vs +1
    with criterion(1, "regularization-ambiguity demo (layer slopes -1/+1)", 1.0):
        eps = 1e-3
        for nonlinear, want in ((False, -1.0), (True, 1.0)):
            sys = pf.section6_system(nonlinear)
            traj = regularized_trajectory(sys, TANH, eps, (0.5, 0.0, 0.0), 3.0)
            entry = next(t for t, x in zip(traj.times, traj.states)
                         if abs(x[0]) <= eps)
            t1 = entry + 0.5
            slope = (traj.state_at(3.0)[1] - traj.state_at(t1)[1]) / (3.0 - t1)
            assert slope == pytest.approx(want, rel=0.01), \
                f"nonlinear={nonlinear}: slope {slope}"


def test_criterion_2_folded_point_existence_table():
    with criterion(2, "folded-point existence table (1000 draws per case)", 5.0):
        rng = random.Random(20250811)
        for a1, a2, expect in (
            (1, 1, lambda b1, b2: 1),
            (-1, -1, lambda b1, b2: 1),
            (1, -1, lambda b1, b2: 2 if b1 - b2 > 2 else 0),
            (-1, 1, lambda b1, b2: 2 if b1 - b2 < -2 else 0),
        ):
            for _ in range(1000):
                b1 = rng.uniform(-5.0, 5.0)
                b2 = rng.uniform(-5.0, 5.0)
                p = TwoFoldParams(a1, a2, b1, b2)
                roots = folded_points(p)
                assert len(roots) == expect(b1, b2), (a1, a2, b1, b2, roots)
                for phi in roots:
                    assert abs(folded_point_residual(p, phi)) < 1e-10


def test_criterion_3_degeneracy_of_unperturbed_layer():
    with criterion(3, "layer-derivative degeneracy (alpha=0) and its breaking", 1.0):
        p0 = TwoFoldParams(1, 1, -2, -1, 0.0)
        curve = pf.nonhyperbolic_curve(p0, 22)[1:-1]  # 20 interior points
        assert len(curve) == 20
        for point in curve:
            for order in (1, 2):
                assert abs(pf.degeneracy_probe(p0, TANH, point, order)) < 1e-12
        pa = TwoFoldParams(1, 1, -2, -1, 0.2)
        for lam, _, _ in curve:
            x2 = pa.alpha * (lam - 1.0) ** 2
            x3 = -pa.alpha * (lam + 1.0) ** 2
            got = pf.degeneracy_probe(pa, TANH, (lam, x2, x3), 2)
            want = -2.0 * pa.alpha * TANH.derivative(TANH.inverse(lam)) ** 2
            assert got == pytest.approx(want, rel=1e-8)


CANONICAL_SETS = ((1, 1, -2.0, -1.0), (-1, -1, 0.5, 0.5),
                  (1, -1, 4.0, 0.0), (-1, 1, 0.0, 4.0))


def test_criterion_4_canonical_form_equivalence():
    with criterion(4, "closed-form vs fitted canonical coefficients (rel 1e-3)", 10.0):
        for a1, a2, b1, b2 in CANONICAL_SETS:
            for alpha in (0.05, 0.2, 1.0):
                for s in (TANH, ALG):
                    p = TwoFoldParams(a1, a2, b1, b2, alpha)
                    points = folded_points(p)
                    assert points, (a1, a2, b1, b2)
                    for phi_s in points:
                        closed = canonical_coefficients(p, s, phi_s)
                        fitted = canonical_fit(p, s, phi_s)
                        for want, got in zip(closed, fitted):
                            assert got == pytest.approx(want, rel=1e-3), \
                                (p, s.name, phi_s, closed, fitted)
                        c_x2, c_x1sq = fit_fast_equation_coefficients(p, s, phi_s)
                        assert c_x2 == pytest.approx(1.0, abs=1e-3)
                        assert c_x1sq == pytest.approx(1.0, abs=1e-3)


def test_criterion_5_flavour_to_folded_class():
    with criterion(5, "flavour to folded-class mapping (saddle/node/pair)", 5.0):
        visible = folded_reports(TwoFoldParams(-1, -1, 0.5, 0.5, 0.2), TANH)
        assert len(visible) == 1
        assert visible[0].folded_class is FoldedClass.FOLDED_SADDLE

        invisible = folded_reports(TwoFoldParams(1, 1, -2, -1, 0.2), TANH)
        assert len(invisible) == 1
        assert invisible[0].folded_class is FoldedClass.FOLDED_NODE

        # mixed determinacy-breaking pair: (1,-1,-1,-4) has b1-b2 = 3 > 2 and
        # is the side-swap image of (-1,1,-4,-1), which satisfies the
        # determinacy-breaking inequalities; its two folded points split into
        # one saddle and one node (recorded for these parameters)
        mixed = folded_reports(TwoFoldParams(1, -1, -1.0, -4.0, 0.2), TANH)
        assert len(mixed) == 2
        assert mixed[0].determinacy_breaking
        classes = sorted(r.folded_class.value for r in mixed)
        assert classes == ["folded_node", "folded_saddle"]
        mirror = folded_reports(TwoFoldParams(-1, 1, -4.0, -1.0, 0.2), TANH)
        assert mirror[0].determinacy_breaking
        assert sorted(r.folded_class.value for r in mirror) == classes


def test_criterion_6_trajectory_oracle_equivalence():
    # invisible normal form whose flow from (0.5, 1, 1) stays in the
    # attracting-sliding and free regions over [0, 5]
    with criterion(6, "event-driven vs regularized trajectories (sup < 5e-3)", 10.0):
        p = TwoFoldParams(1, 1, 1.0, -1.0, 0.2)
        sys = build_normal_form(p)
        x0 = (0.5, 1.0, 1.0)
        traj = pf.integrate_pws(sys, x0, 5.0, PwsOptions())
        assert "sliding" in traj.modes
        grid = [5.0 * i / 500 for i in range(501)]
        devs = []
        for eps in (4e-4, 2e-4, 1e-4):
            reg = regularized_trajectory(sys, TANH, eps, x0, 5.0)
            devs.append(pf.compare_trajectories(traj, reg, grid))
        assert devs[0] > devs[1] > devs[2], devs
        assert devs[2] < 5e-3, devs


def _random_polynomial(rng, with_lambda=False):
    terms = [f"({rng.uniform(-1.5, 1.5):.3f})"]
    for var in ("x2", "x3"):
        if rng.random() < 0.7:
            terms.append(f"({rng.uniform(-1.5, 1.5):.3f})*{var}")
    if with_lambda:
        terms.append(f"({rng.uniform(-0.5, 0.5):.3f})*lambda")
    return " + ".join(terms)


def test_criterion_7_sliding_field_identity():
    with criterion(7, "sliding field equals dummy-system slow drift (500 pts)", 2.0):
        rng = random.Random(424243)
        checked = 0
        while checked < 500:
            hidden_lam = rng.random() < 0.5
            sys = pf.PiecewiseSystem.from_strings(
                (_random_polynomial(rng), _random_polynomial(rng),
                 _random_polynomial(rng)),
                (_random_polynomial(rng), _random_polynomial(rng),
                 _random_polynomial(rng)),
                (_random_polynomial(rng, with_lambda=hidden_lam),
                 _random_polynomial(rng), _random_polynomial(rng)))
            for _ in range(10):
                x2 = rng.uniform(-2.0, 2.0)
                x3 = rng.uniform(-2.0, 2.0)
                for lam in pf.sliding_lambdas(sys, x2, x3):
                    if abs(sys.f1_dlambda(0.0, x2, x3, lam)) < 1e-6:
                        continue
                    slide = pf.sliding_field(sys, x2, x3, lam)
                    dummy = dummy_field(sys, (0.0, x2, x3), lam)
                    assert abs(dummy[0]) < 1e-9
                    assert abs(slide[0] - dummy[1]) <= 1e-10
                    assert abs(slide[1] - dummy[2]) <= 1e-10
                    checked += 1
        assert checked >= 500


@pytest.mark.parametrize("which", ["i", "ii", "iii"])
def test_criterion_8_attractor_examples(which):
    with criterion(8, f"bounded recurrent attractor, example ({which})", 120.0):
        x0 = DEFAULT_EXAMPLE_X0[which]
        for sigmoid in ("tanh", "algebraic"):
            t0 = time.perf_counter()
            traj = run_example(which, 1e-4, 200.0, sigmoid, x0)
            run_seconds = time.perf_counter() - t0
            assert run_seconds < 60.0, (which, sigmoid, run_seconds)
            assert traj.sup_norm() < 50.0, (which, sigmoid, traj.sup_norm())
            entries = traj.layer_entry_count(1e-4)
            assert entries >= 10, (which, sigmoid, entries)
