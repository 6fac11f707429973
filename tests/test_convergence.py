"""Convergence-rate oracles: regularized against event-driven as eps -> 0.

Geometric singular perturbation theory predicts how fast the regularized
flow approaches the piecewise-smooth one: O(eps) along normally hyperbolic
sliding (Fenichel), more slowly near folds and folded singularities. Each
case fits the least-squares slope of log gap against log eps over a ladder
of halvings and checks it against the predicted exponent. Where the
exponent is 1 it also pins gap / eps, which says more than the slope.
"""

import math
import time

import pytest

import pwsfold as pf
from pwsfold.regularize import builtin_sigmoid
from pwsfold.sim import regularized_trajectory
from pwsfold.twofold import TwoFoldParams, build_normal_form

# name: (system, start, t_end, sigmoid, eps ladder, exponent band, gap/eps)
CASES = {
    # criterion 6's invisible normal form: free flight, then attracting
    # sliding over t in [0, 5], the gap a sup over a 501-point grid
    "attracting_sliding": (
        build_normal_form(TwoFoldParams(1, 1, 1.0, -1.0, 0.2)), (0.5, 1.0, 1.0), 5.0,
        "tanh", (1.6e-3, 8e-4, 4e-4, 2e-4, 1e-4), (0.98, 1.02), 0.4136),
}
BUDGET_SECONDS = 5.0


def log_log_slope(eps_values, gaps):
    """Least-squares slope of log(gap) against log(eps)."""
    xs = [math.log(e) for e in eps_values]
    ys = [math.log(g) for g in gaps]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


@pytest.mark.parametrize("name", sorted(CASES))
def test_gap_shrinks_at_the_predicted_rate(name):
    system, x0, t_end, sigmoid, ladder, (lo, hi), coefficient = CASES[name]
    t0 = time.perf_counter()
    reference = pf.integrate_pws(system, x0, t_end)
    grid = [t_end * i / 500 for i in range(501)]
    gaps = [pf.compare_trajectories(
                reference,
                regularized_trajectory(system, builtin_sigmoid(sigmoid), eps, x0, t_end),
                grid)
            for eps in ladder]
    elapsed = time.perf_counter() - t0
    assert lo <= log_log_slope(ladder, gaps) <= hi, gaps
    for eps, gap in zip(ladder, gaps):
        assert gap / eps == pytest.approx(coefficient, rel=0.01), (eps, gap)
    assert elapsed < BUDGET_SECONDS, elapsed
