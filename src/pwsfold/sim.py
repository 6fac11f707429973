"""Smooth integration, bundled demo systems, and comparisons.

The integrator is an explicit adaptive Runge-Kutta pair. In the stiff layer
of a regularized system its error control keeps the step near the pair's
stability boundary, so the step count grows as 1/eps there. Both
integrators take IntegratorOptions (pws.PwsOptions is the same class). The
bundled systems are read from the package's systems/*.json, the files the
CLI loads.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Iterable

from ._rk import Dopri3
from .exceptions import ValidationError
from .pws import (IntegratorOptions, PiecewiseSystem, Trajectory, _check_start,
                  _free_mode, _Recorder)
from .regularize import _NUM, Sigmoid, builtin_sigmoid, compile_regularized_field

__all__ = [
    "IntegratorOptions", "integrate_smooth", "regularized_trajectory",
    "run_example", "example_system", "compare_trajectories", "section6_system",
    "trajectory_csv", "EXAMPLE_NAMES", "DEFAULT_EXAMPLE_X0",
]


def integrate_smooth(field: Callable, x0, t_end: float,
                     opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate dx/dt = field(t, x) from a finite x0 to a finite t_end > 0
    with at most pws.MAX_SAMPLES dense samples (ValidationError otherwise).

    Sample modes are 'free+'/'free-' by the sign of x1. The error control
    and t_end alone size the steps. Use regularized_trajectory to also
    record the layer value of lambda.
    """
    opts = opts or IntegratorOptions()
    _check_start(x0, t_end, opts.dense_output_stride)
    stepper = Dopri3(field, 0.0, x0, opts)
    traj = Trajectory()
    traj.append(0.0, stepper.x, _free_mode(stepper.x[0]), None)
    emit = _Recorder(traj, opts.dense_output_stride).emit_through
    step_to = stepper.step_to
    while stepper.t < t_end:
        step_to(t_end)
        emit(stepper.t, stepper)
    traj.append(t_end, stepper.x, _free_mode(stepper.x[0]), None)
    return traj


def regularized_trajectory(sys: PiecewiseSystem, s: Sigmoid, eps: float,
                           x0, t_end: float,
                           opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the regularized system and record the layer value of lambda.

    eps must be positive and finite, and so must 1/eps
    (compile_regularized_field raises ValidationError otherwise).
    """
    field = compile_regularized_field(sys, s, eps)
    traj = integrate_smooth(field, x0, t_end, opts)
    # fill the lambda column where the sample sits in the layer
    for i, state in enumerate(traj.states):
        if abs(state[0]) <= eps:
            # min(1.0, max(-1.0, value)) without the builtin calls
            lam = s.value(state[0] / eps)
            lam = lam if lam > -1.0 else -1.0
            traj.lambdas[i] = lam if lam < 1.0 else 1.0
    return traj


# --- bundled demo systems -------------------------------------------------------

_SYSTEMS_DIR = os.path.join(os.path.dirname(__file__), "systems")


def _bundled_system(name: str) -> PiecewiseSystem:
    with open(os.path.join(_SYSTEMS_DIR, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return PiecewiseSystem.from_strings(doc["fplus"], doc["fminus"], doc.get("hidden"))


def section6_system(nonlinear: bool) -> PiecewiseSystem:
    """Two planar systems with the same discontinuous limit dx/dt = -sign(x1)
    but different transition-layer drift: the plain convex combination
    drifts with dy/dt = -1 on the layer, while adding the hidden term
    g = (0, 2, 0) flips the layer drift to dy/dt = +1 (the off-surface
    dynamics is identical)."""
    return _bundled_system("section6_nonlinear" if nonlinear else "section6_linear")


EXAMPLE_NAMES = ("i", "ii", "iii")

# Per-example starting points inside the attractor's basin. Example (i) also
# has unbounded orbits (x2 grows along repeated sliding phases from, e.g.,
# (0.1, 0.1, 0.1)), so its default starts on the bounded side.
DEFAULT_EXAMPLE_X0 = {
    "i": (0.1, -0.5, 0.5),
    "ii": (0.1, 0.1, 0.1),
    "iii": (0.1, 0.1, 0.1),
}


def example_system(which: str) -> PiecewiseSystem:
    """One of the bundled oscillatory two-fold attractors ('i', 'ii', 'iii'),
    each with hidden term (1/5, 0, 0)."""
    if which not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example {which!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    return _bundled_system(f"example_{which}")


def run_example(which: str, eps: float, t_end: float,
                s: Sigmoid | str = "tanh", x0=None,
                opts: IntegratorOptions | None = None) -> Trajectory:
    """Regularize and integrate a bundled attractor example."""
    if isinstance(s, str):
        s = builtin_sigmoid(s)
    sys = example_system(which)
    if x0 is None:
        x0 = DEFAULT_EXAMPLE_X0[which]
    return regularized_trajectory(sys, s, eps, x0, t_end, opts)


# --- comparison -------------------------------------------------------------------


def compare_trajectories(a: Trajectory, b: Trajectory,
                         t_grid: Iterable[float]) -> float:
    """Sup over t_grid of the Euclidean distance between interpolated states.

    Each grid time must lie inside both runs' time ranges (ValidationError
    otherwise, NaN included). Off the runs' sample times this reads linear
    interpolation between dense samples: across a kink, such as a
    regularized run's entry into the layer, it errs by about the distance
    to the nearer sample times the jump in slope, a floor that does not
    shrink with eps. Grids on sample times avoid it.
    """
    worst = 0.0
    for t in t_grid:
        xa = a.state_at(t)
        xb = b.state_at(t)
        d = math.sqrt((xa[0] - xb[0]) ** 2 + (xa[1] - xb[1]) ** 2 + (xa[2] - xb[2]) ** 2)
        if d > worst:
            worst = d
    return worst


# --- CSV ---------------------------------------------------------------------------


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["t,x1,x2,x3,lambda,mode"]
    for t, x, mode, lam in zip(traj.times, traj.states, traj.modes, traj.lambdas):
        lam_s = "" if lam is None else f"{lam:{_NUM}}"
        lines.append(f"{t:{_NUM}},{x[0]:{_NUM}},{x[1]:{_NUM}},{x[2]:{_NUM}},{lam_s},{mode}")
    return "\n".join(lines) + "\n"
