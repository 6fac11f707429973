"""Adaptive Dormand-Prince 5(4) stepping for 3-component systems.

The stepper is specialized (unrolled) for state tuples of length 3; the
event-driven integrator reuses it for sliding flow with the state
(lambda, x2, x3) on the surface x1 = 0. FSAL: the last stage of an accepted
step seeds the next. A stepper is built from the run's IntegratorOptions:
it reads their rel_tol, abs_tol and max_steps as attributes, so this module
imports nothing from pws. Step sizes are bounded by the error control and
the target time only. In the stiff layer of a regularized system the error
control alone holds the step near the explicit pair's stability boundary.
A stepper starts from an estimated step unless given one: each leg of an
event-driven run after its first starts at the last step its predecessor
accepted before its surface event was located, so it does not ramp up again
from a tiny step.

The accepted step. A stepper gives dense output and event location its
last accepted step as six attributes: the start t_prev, x_prev, f_prev
(time, state, slope) and the end t, x, f. Between them the state is the
cubic Hermite of the endpoint states and slopes, whose coefficients
hermite_coefficients gives. Callers read those attributes and never rewind
a stepper (a sliding leg only puts each step's end back on its manifold):
dense output (pws._Recorder) evaluates the cubic at each stride multiple
inside the step, the sliding-exit bisection evaluates it through
hermite(step), and event location re-advances a copy of the stepper from
the step's start.
"""

# On per-step paths, max() and min() are written as comparisons in the
# builtin's argument order: max(a, b) is `b if b > a else a` and min(a, b) is
# `b if b < a else a`, so NaN and -0.0 give what the builtin gives. Each
# builtin call cost about 145 ns against 3 ns for the comparison (Python
# 3.11), and an accepted step in a stiff layer costs about 7 us in all.

from __future__ import annotations

import math

from .exceptions import StepBudgetError, StepUnderflowError

# Dormand-Prince coefficients.
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
# Error weights: 5th-order minus embedded 4th-order solution.
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                          -17253 / 339200, 22 / 525, -1 / 40)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


def hermite_coefficients(h, x0, f0, x1, f1):
    """Horner coefficients (a1, a2, a3, b1, b2, b3, c1, c2, c3, e1, e2, e3)
    of the cubic Hermite on an accepted step of length h != 0 from state x0
    and slope f0 to x1 and f1: component i at th = (t - t0) / h is
    a_i + th * (b_i + th * (c_i + th * e_i))."""
    (a1, a2, a3), (p1, p2, p3), (q1, q2, q3) = x0, f0, f1
    d1, d2, d3 = x1[0] - a1, x1[1] - a2, x1[2] - a3
    return (a1, a2, a3, h * p1, h * p2, h * p3, 3.0 * d1 - h * (2.0 * p1 + q1),
            3.0 * d2 - h * (2.0 * p2 + q2), 3.0 * d3 - h * (2.0 * p3 + q3),
            -2.0 * d1 + h * (p1 + q1), -2.0 * d2 + h * (p2 + q2), -2.0 * d3 + h * (p3 + q3))


def hermite(step):
    """Cubic Hermite of step's accepted step, from (t_prev, x_prev, f_prev)
    to (t, x, f), as a function of one time.

    The attributes are read once, here, so a later step of the same stepper
    leaves the function as it is. Event location and the sliding-exit
    bisection evaluate it; dense output evaluates the same cubic, in the
    same operation order, in pws._Recorder. Each evaluation costs three
    cubics in th = (t - t_prev) / h, h the step's length. A step of length
    0 gives x at every time.
    """
    t0, x1 = step.t_prev, step.x
    h = step.t - t0
    if h == 0.0:
        return lambda t: x1
    a1, a2, a3, b1, b2, b3, c1, c2, c3, e1, e2, e3 = hermite_coefficients(
        h, step.x_prev, step.f_prev, x1, step.f)

    def at(t):
        th = (t - t0) / h
        return (a1 + th * (b1 + th * (c1 + th * e1)),
                a2 + th * (b2 + th * (c2 + th * e2)),
                a3 + th * (b3 + th * (c3 + th * e3)))

    return at


class Dopri3:
    """One 3-component Dormand-Prince integrator.

    field(t, x) must return a tuple of 3 floats. opts is the run's
    pws.IntegratorOptions, whose rel_tol, abs_tol and max_steps the stepper
    uses.
    """

    def __init__(self, field, t0: float, x0, opts, h: float | None = None):
        self.field = field
        self.t = float(t0)
        self.x = (float(x0[0]), float(x0[1]), float(x0[2]))
        self.f = field(self.t, self.x)
        self.rtol, self.atol, self.max_steps = opts.rel_tol, opts.abs_tol, opts.max_steps
        self.nsteps = 0
        # h, the first step to try, defaults to an estimate from the start
        if h is None:
            h = self._initial_step()
        # never below the 16 ulp under which step_to raises StepUnderflowError
        self.h = max(h, 32.0 * math.ulp(max(abs(self.t), 1.0)))
        # previous accepted endpoint: the accepted step's start, for dense
        # output and event location
        self.t_prev = self.t
        self.x_prev = self.x
        self.f_prev = self.f

    # -- utilities ----------------------------------------------------------

    def _initial_step(self) -> float:
        (f1, f2, f3), (x1, x2, x3) = self.f, self.x
        # left to right on every Python (sum() compensates since 3.12)
        fn = math.sqrt(f1 * f1 + f2 * f2 + f3 * f3)
        xn = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        scale = self.atol + self.rtol * max(xn, 1.0)
        return 0.01 * scale / fn if fn > 0 else 1e-6

    # -- stepping -----------------------------------------------------------

    def step_to(self, t_bound: float) -> None:
        """Advance by one accepted step, not crossing t_bound.

        Each attempt makes 6 field calls (the first stage is the last one of
        the previous step) and counts in nsteps before its first call.
        """
        t = self.t
        at = abs(t)
        tiny = 16.0 * math.ulp(1.0 if 1.0 > at else at)
        gap = t_bound - t
        if gap <= 2.0 * tiny:
            if t_bound > t:
                self.t = t_bound  # sub-resolution gap: declare arrival
            return
        h = gap if gap < self.h else self.h
        y1, y2, y3 = self.x
        k11, k12, k13 = self.f
        f = self.field
        rtol, atol = self.rtol, self.atol
        ay1, ay2, ay3 = abs(y1), abs(y2), abs(y3)
        isfinite = math.isfinite
        n, max_steps = self.nsteps, self.max_steps
        while True:
            if n >= max_steps:
                raise StepBudgetError(f"exceeded max_steps={max_steps}")
            if not h >= tiny:  # a NaN step, from overflowing norms, too
                raise StepUnderflowError(f"step size underflow at t={t!r}")
            n += 1
            self.nsteps = n

            a = h * A21
            k21, k22, k23 = f(t + C2 * h, (y1 + a * k11, y2 + a * k12, y3 + a * k13))
            k31, k32, k33 = f(t + C3 * h, (y1 + h * (A31 * k11 + A32 * k21),
                                           y2 + h * (A31 * k12 + A32 * k22),
                                           y3 + h * (A31 * k13 + A32 * k23)))
            k41, k42, k43 = f(t + C4 * h, (y1 + h * (A41 * k11 + A42 * k21 + A43 * k31),
                                           y2 + h * (A41 * k12 + A42 * k22 + A43 * k32),
                                           y3 + h * (A41 * k13 + A42 * k23 + A43 * k33)))
            k51, k52, k53 = f(t + C5 * h,
                              (y1 + h * (A51 * k11 + A52 * k21 + A53 * k31 + A54 * k41),
                               y2 + h * (A51 * k12 + A52 * k22 + A53 * k32 + A54 * k42),
                               y3 + h * (A51 * k13 + A52 * k23 + A53 * k33 + A54 * k43)))
            k61, k62, k63 = f(t + h,
                              (y1 + h * (A61 * k11 + A62 * k21 + A63 * k31 + A64 * k41 + A65 * k51),
                               y2 + h * (A61 * k12 + A62 * k22 + A63 * k32 + A64 * k42 + A65 * k52),
                               y3 + h * (A61 * k13 + A62 * k23 + A63 * k33 + A64 * k43 + A65 * k53)))
            z1 = y1 + h * (B1 * k11 + B3 * k31 + B4 * k41 + B5 * k51 + B6 * k61)
            z2 = y2 + h * (B1 * k12 + B3 * k32 + B4 * k42 + B5 * k52 + B6 * k62)
            z3 = y3 + h * (B1 * k13 + B3 * k33 + B4 * k43 + B5 * k53 + B6 * k63)
            k71, k72, k73 = f(t + h, (z1, z2, z3))

            e1 = h * (E1 * k11 + E3 * k31 + E4 * k41 + E5 * k51 + E6 * k61 + E7 * k71)
            e2 = h * (E1 * k12 + E3 * k32 + E4 * k42 + E5 * k52 + E6 * k62 + E7 * k72)
            e3 = h * (E1 * k13 + E3 * k33 + E4 * k43 + E5 * k53 + E6 * k63 + E7 * k73)
            # the larger of |y| and |z|, |y| on a tie or a NaN, as max() picks
            az1, az2, az3 = abs(z1), abs(z2), abs(z3)
            s1 = atol + rtol * (az1 if az1 > ay1 else ay1)
            s2 = atol + rtol * (az2 if az2 > ay2 else ay2)
            s3 = atol + rtol * (az3 if az3 > ay3 else ay3)
            err = math.sqrt(((e1 / s1) ** 2 + (e2 / s2) ** 2 + (e3 / s3) ** 2) / 3.0)

            if not (isfinite(z1) and isfinite(z2) and isfinite(z3)):
                h *= 0.25
            elif err <= 1.0:
                factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** -0.2
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
                self.t_prev, self.x_prev, self.f_prev = t, self.x, self.f
                self.t, self.x, self.f = t + h, (z1, z2, z3), (k71, k72, k73)
                self.h = h * factor
                return
            else:
                # a NaN err shrinks by _MIN_FACTOR, as max() would
                shrink = _SAFETY * err ** -0.2
                h *= shrink if shrink > _MIN_FACTOR else _MIN_FACTOR

    def advance_to(self, t_target: float) -> None:
        """Run accepted steps until t == t_target (error-controlled)."""
        while self.t < t_target:
            self.step_to(t_target)
