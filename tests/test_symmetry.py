"""Side-swap and time-reversal symmetries of the two-fold normal form as
oracles.

The swap puts x1 -> -x1 and lambda -> -lambda and exchanges x2 with x3. It
maps the normal form (a1, a2, b1, b2, alpha) onto (a2, a1, b2, b1, -alpha),
the region x1 > 0 onto x1 < 0 (so free+ onto free-) and each folded point
phi_s onto -phi_s. The image's combined field is the swapped field term by
term: each component sums the same products in another order, and f1 flips
sign exactly. So the analysis layers commute with the swap to rounding, and
integrations do too. Dormand-Prince's error norm sums components 2 and 3 in
the other order, so a run and its image can take steps that differ in the
last bit, and their samples then differ by a few ulps.

Tolerances. ROADMAP item 12 measured, on its own draw, event-driven runs
that agree to 1.3e-15 with 37 of 40 bit for bit, and regularized runs at
eps 1e-3 that agree to 1.8e-14. This module's draws (seed 12) read:
- event-driven, t_end 5: 3.1e-15 (relative to max(1, |value|)) before each
  run's first sliding exit, and 35 of 40 runs bit for bit. Over seeds 1-20
  of the same draw: up to 4.3e-15, and 32 to 39 of 40 bit for bit. A
  sliding exit is placed by bisection in t down to a width of 1e-9, and a
  rounding-level difference can flip one of its decisions, so after an
  exit the runs agree only to about that width, times the flow's
  sensitivity (near a fold lambda ~ sqrt(t - t_exit)): up to 2.1e-7 in the
  states and 1.5e-5 in lambda over those seeds.
  This draw's runs after their first exit read 6.4e-12 in the states and
  8.5e-12 in lambda.
- regularized, eps 1e-3, t_end 2, two starts within 0.05 of the surface
  for each built-in sigmoid: bit for bit (515 samples in the layer). Over
  seeds 1-8 of the same draw: up to 4.4e-14; a draw of one start per
  sigmoid read up to 2.8e-13 over the same seeds.
The bounds below take the largest of those readings with a margin. The
event-driven and regularized runs write their dense samples through
pws._Recorder in all three of its modes (free, sliding, and labelled by
sign(x1)).

Time reversal. The normal form has f+ = (-x2, a1, b1), f- = (x3, b2, a2)
and the hidden term (1 - lambda^2) (alpha, 0, 0). With R = diag(1, -1, -1)
and x = R y, -R f+(x) = (-y2, a1, b1) = f+(y) and -R f-(x) = (y3, b2, a2)
= f-(y), while -R turns the hidden term's alpha into -alpha. So if x(t)
solves the normal form (a1, a2, b1, b2, alpha) off the surface on [0, T],
y(s) = R x(T - s) solves (a1, a2, b1, b2, -alpha): a run from x0 to x(T)
is retraced by the -alpha run from R x(T), which returns to R x0. What
this maps:
- f1+ = -x2 and f1- = x3 both change sign at R x, so the crossing region
  x2 x3 < 0 maps onto itself, and attracting sliding (x2 > 0, x3 > 0)
  onto repelling sliding (x2 < 0, x3 < 0). On the surface f1 of the image
  at lambda is -f1 at lambda, so each sliding root keeps its lambda and
  turns from attracting to repelling. A run that only crosses therefore
  maps onto a run that only crosses, with the same number of crossings in
  reverse order. A run that slides is not compared: its image would have
  to slide on a repelling sheet, where the forward flow is not unique and
  the integrator prefers an attracting root where one exists.
- A canard passes from attracting to repelling sliding through a folded
  singularity; reversed, it runs from the image of the repelling part
  (now attracting) to the image of the attracting part (now repelling),
  so it is again a canard, and a faux canard stays a faux canard. The
  regularized system maps the same way (x1, hence lambda = phi(x1/eps),
  is unchanged), so each folded point maps to the one at (-x2s, -x3s)
  with the same phi_s, class and label.
The reversed runs below come back to R x0 to 2.9e-13 (worst of seeds
1-20 of the draw, about 100 runs per seed that cross and never slide).
The bound, 1e-10, is SURFACE_TOL, to which each crossing is placed, and
over 300 times that reading. A free leg that missed a crossing whose excursion
through x1 = 0 began and ended inside one accepted step broke the count
for 5 to 9 of about 110 such runs per seed, off by up to 5 in the state.

Tier-1 budget: at most 3 s for the module (about 0.7 s on one core of a
2-core x86 host, Python 3.11, of which the time-reversal runs take 0.5 s).
"""

import random

import pytest

import pwsfold as pf
from pwsfold import sim
from pwsfold.pws import classify_surface_point, sliding_lambdas
from pwsfold.regularize import SIGMOID_NAMES, builtin_sigmoid, critical_manifold
from pwsfold.twofold import TwoFoldParams, build_normal_form, folded_reports

SEED = 12
EVENT_TOL = 1e-14          # relative, before a run's first sliding exit
EVENT_MIN_BIT_EXACT = 30   # of 40 runs
EXIT_STATE_TOL = 1e-6      # relative, after the first sliding exit
EXIT_LAMBDA_TOL = 1e-4
REGULARIZED_TOL = 1e-12    # relative
RETURN_TOL = 1e-10         # absolute, a time-reversed run's return to R x0
MIRROR = {"free+": "free-", "free-": "free+", "sliding": "sliding", "crossing": "crossing"}


def draw(rng):
    return TwoFoldParams(rng.choice((-1, 1)), rng.choice((-1, 1)), rng.uniform(-3.0, 3.0),
                         rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))


def swapped(p):
    return TwoFoldParams(p.a2, p.a1, p.b2, p.b1, -p.alpha)


def swap_state(x):
    return (-x[0], x[2], x[1])


def reversed_form(p):
    return TwoFoldParams(p.a1, p.a2, p.b1, p.b2, -p.alpha)


def reverse_state(x):
    return (x[0], -x[1], -x[2])


def rel(u, v):
    return abs(u - v) / max(1.0, abs(u))


def deviations(a, b):
    """Per sample: the largest relative difference between a's time and state
    and the swapped image of b's, and the difference of the lambdas."""
    out = []
    for ta, tb, sa, sb, la, lb in zip(a.times, b.times, a.states, b.states,
                                      a.lambdas, b.lambdas):
        sb = swap_state(sb)
        state = max(rel(ta, tb), rel(sa[0], sb[0]), rel(sa[1], sb[1]), rel(sa[2], sb[2]))
        assert (la is None) == (lb is None)
        out.append((state, 0.0 if la is None else abs(la + lb)))
    return out


def first_exit(traj):
    """Index of the run's first sliding exit record (len if none)."""
    for i in range(len(traj.modes) - 1):
        if traj.modes[i] == "sliding" and traj.modes[i + 1] != "sliding":
            return i
    return len(traj.modes)


def test_folded_reports_commute():
    rng = random.Random(SEED)
    seen = 0
    for _ in range(40):
        p = draw(rng)
        for name in SIGMOID_NAMES:
            s = builtin_sigmoid(name)
            got, image = folded_reports(p, s), folded_reports(swapped(p), s)[::-1]
            assert len(got) == len(image)
            for r, q in zip(got, image):
                seen += 1
                assert q.phi_s == -r.phi_s
                assert q.u_s == pytest.approx(-r.u_s, rel=1e-12, abs=1e-15)
                assert (q.x2s, q.x3s) == (r.x3s, r.x2s)
                # q is invariant; p and r trade a common factor
                assert q.q == pytest.approx(r.q, rel=1e-12)
                assert q.p * q.r == pytest.approx(r.p * r.r, rel=1e-12)
                assert (q.folded_class, q.canard, q.flavour, q.determinacy_breaking) == \
                    (r.folded_class, r.canard, r.flavour, r.determinacy_breaking)
    assert seen > 40


def test_surface_points_and_sliding_roots_commute():
    rng = random.Random(SEED)
    for _ in range(20):
        p = draw(rng)
        sys, image = build_normal_form(p), build_normal_form(swapped(p))
        for _ in range(50):
            x2, x3 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            assert classify_surface_point(image, (0.0, x3, x2)) is \
                classify_surface_point(sys, (0.0, x2, x3))
            roots = sliding_lambdas(sys, x2, x3)
            mirrored = sorted(-lam for lam in sliding_lambdas(image, x3, x2))
            assert mirrored == pytest.approx(roots, abs=1e-12)


def test_critical_manifold_commutes():
    rng = random.Random(SEED)
    grid = [-2.0 + 0.25 * i for i in range(17)]
    for _ in range(10):
        p = draw(rng)
        got = critical_manifold(build_normal_form(p), grid, grid)
        image = sorted((pt.x2, pt.x3, -pt.lam, pt.stability)
                       for pt in critical_manifold(build_normal_form(swapped(p)), grid, grid))
        got = sorted((pt.x3, pt.x2, pt.lam, pt.stability) for pt in got)
        assert len(got) == len(image)
        for a, b in zip(got, image):
            assert a[:2] == b[:2] and a[3] is b[3]
            assert a[2] == pytest.approx(b[2], abs=1e-12)


def test_event_driven_runs_commute():
    rng = random.Random(SEED)
    bit_exact = 0
    for _ in range(40):
        p = draw(rng)
        x0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        a = pf.integrate_pws(build_normal_form(p), x0, 5.0)
        b = pf.integrate_pws(build_normal_form(swapped(p)), swap_state(x0), 5.0)
        assert [MIRROR[m] for m in a.modes] == b.modes, p
        assert (a.events, a.non_unique) == (b.events, b.non_unique), p
        dev = deviations(a, b)
        k = first_exit(a)
        assert max(max(d) for d in dev[:k] or [(0.0, 0.0)]) <= EVENT_TOL, p
        for state, lam in dev[k:]:
            assert state <= EXIT_STATE_TOL and lam <= EXIT_LAMBDA_TOL, p
        bit_exact += all(d == (0.0, 0.0) for d in dev)
    assert bit_exact >= EVENT_MIN_BIT_EXACT


@pytest.mark.parametrize("name", SIGMOID_NAMES)
def test_regularized_runs_commute(name):
    s = builtin_sigmoid(name)
    rng = random.Random(SEED)
    layer_samples = 0
    for _ in range(2):
        p = draw(rng)
        x0 = (rng.uniform(-0.05, 0.05), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        a = sim.regularized_trajectory(build_normal_form(p), s, 1e-3, x0, 2.0)
        b = sim.regularized_trajectory(build_normal_form(swapped(p)), s, 1e-3,
                                       swap_state(x0), 2.0)
        assert len(a.times) == len(b.times)
        # a sample with x1 = 0 exactly is free+ on both sides
        assert all(mb == MIRROR[ma] or sa[0] == 0.0
                   for ma, mb, sa in zip(a.modes, b.modes, a.states))
        for state, lam in deviations(a, b):
            assert state <= REGULARIZED_TOL and lam <= REGULARIZED_TOL, p
        layer_samples += sum(lam is not None for lam in a.lambdas)
    assert layer_samples > 0


def test_folded_reports_reverse():
    rng = random.Random(SEED)
    seen = 0
    for _ in range(40):
        p = draw(rng)
        for name in SIGMOID_NAMES:
            s = builtin_sigmoid(name)
            got, image = folded_reports(p, s), folded_reports(reversed_form(p), s)
            assert len(got) == len(image)
            for r, q in zip(got, image):
                seen += 1
                assert q.phi_s == r.phi_s
                assert (q.x2s, q.x3s) == pytest.approx((-r.x2s, -r.x3s), abs=1e-12)
                assert (q.folded_class, q.canard, q.flavour, q.determinacy_breaking) == \
                    (r.folded_class, r.canard, r.flavour, r.determinacy_breaking)
    assert seen > 40


def test_crossing_runs_reverse():
    """About 500 seeded draws, T = 2: each forward run that crosses at least
    once and never slides is retraced by the time-reversed run."""
    rng = random.Random(SEED)
    pairs = 0
    for _ in range(500):
        p = draw(rng)
        x0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        a = pf.integrate_pws(build_normal_form(p), x0, 2.0)
        if a.events == 0 or "sliding" in a.modes:
            continue
        pairs += 1
        b = pf.integrate_pws(build_normal_form(reversed_form(p)),
                             reverse_state(a.final_state), 2.0)
        assert "sliding" not in b.modes, (p, x0)
        assert b.events == a.events, (p, x0)
        back = reverse_state(b.final_state)
        assert max(abs(u - v) for u, v in zip(back, x0)) <= RETURN_TOL, (p, x0)
    assert pairs >= 50
