import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pwsfold._rk import Dopri3, hermite
from pwsfold.exceptions import StepBudgetError, StepUnderflowError
from pwsfold.pws import IntegratorOptions, integrate_pws
from pwsfold.regularize import builtin_sigmoid, compile_regularized_field
from pwsfold.sim import example_system, run_example


def cubic(c, t):
    return c[0] + t * (c[1] + t * (c[2] + t * c[3]))


def cubic_slope(c, t):
    return c[1] + t * (2.0 * c[2] + t * 3.0 * c[3])


COEFFS = ((1.0, -2.0, 0.5, 0.25), (0.0, 1.0, -3.0, 2.0), (-0.5, 0.0, 0.0, 1.0))


def accepted_step(t0, x0, f0, t1, x1, f1):
    """A stand-in for a Dopri3 whose last accepted step is the given one."""
    return SimpleNamespace(t_prev=t0, x_prev=x0, f_prev=f0, t=t1, x=x1, f=f1)


class TestHermite:
    def test_endpoint_values_and_slopes(self):
        x0, f0 = (1.0, -2.0, 0.5), (0.3, 4.0, -1.0)
        x1, f1 = (1.5, -1.0, 0.25), (-0.2, 2.0, 0.5)
        t0, t1 = 0.5, 0.75
        at = hermite(accepted_step(t0, x0, f0, t1, x1, f1))
        assert at(t0) == x0
        assert at(t1) == pytest.approx(x1, rel=1e-15, abs=1e-15)
        d = 1e-5
        for t, f in ((t0, f0), (t1, f1)):
            plus, minus = at(t + d), at(t - d)
            slope = [(p - m) / (2 * d) for p, m in zip(plus, minus)]
            assert slope == pytest.approx(f, rel=1e-8, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(0.01, 10), st.floats(0, 1))
    def test_reproduces_a_cubic(self, t0, h, w):
        t1 = t0 + h
        x0 = tuple(cubic(c, t0) for c in COEFFS)
        x1 = tuple(cubic(c, t1) for c in COEFFS)
        f0 = tuple(cubic_slope(c, t0) for c in COEFFS)
        f1 = tuple(cubic_slope(c, t1) for c in COEFFS)
        t = t0 + w * h
        scale = 1.0 + max(abs(t0), abs(t1)) ** 3
        got = hermite(accepted_step(t0, x0, f0, t1, x1, f1))(t)
        for c, v in zip(COEFFS, got):
            assert v == pytest.approx(cubic(c, t), abs=1e-12 * scale)

    def test_zero_length_step(self):
        x1 = (1.0, 2.0, 3.0)
        assert hermite(accepted_step(2.0, (0.0, 0.0, 0.0), x1, 2.0, x1, x1))(2.0) is x1

    def test_stepper_interpolant_spans_last_step(self):
        stepper = Dopri3(lambda t, x: (x[1], -x[0], 1.0), 0.0, (1.0, 0.0, 0.0),
                         IntegratorOptions())
        stepper.step_to(1.0)
        stepper.step_to(1.0)
        at = hermite(stepper)
        first, last = at(stepper.t_prev), at(stepper.t)
        assert first == stepper.x_prev
        assert last == pytest.approx(stepper.x, rel=1e-15, abs=1e-15)


def counted(field):
    """field wrapped with a call counter, read as calls[0]."""
    calls = [0]

    def wrapped(t, x):
        calls[0] += 1
        return field(t, x)

    return wrapped, calls


def layer_stepper(rtol=None):
    # example iii at eps 1e-3 reaches the layer by t = 20; rtol None keeps
    # the options' default
    field = compile_regularized_field(example_system("iii"),
                                      builtin_sigmoid("tanh"), 1e-3)
    wrapped, calls = counted(field)
    tol = {} if rtol is None else {"rel_tol": rtol}
    return Dopri3(wrapped, 0.0, (0.1, 0.1, 0.1), IntegratorOptions(**tol)), calls


def nan_seventh_stage():
    """A field that is NaN on each attempt's seventh stage (call 1 + 6j + 6)
    and constant elsewhere, and the list of that stage's times."""
    calls, sevenths = [0], []

    def field(t, x):
        calls[0] += 1
        if calls[0] > 1 and calls[0] % 6 == 1:
            sevenths.append(t)
            return (math.nan, 0.0, 0.0)
        return (1.0, 1.0, 1.0)

    return field, sevenths


class TestStepper:
    @pytest.mark.parametrize("rtol", [None, 1e-3])
    def test_field_calls_are_one_plus_six_per_attempt(self, rtol):
        stepper, calls = layer_stepper(rtol)
        accepted = 0
        while stepper.t < 20.0:
            stepper.step_to(20.0)
            accepted += 1
        assert stepper.nsteps > accepted  # the run has rejected attempts
        assert calls[0] == 1 + 6 * stepper.nsteps

    def test_fresh_stepper_starts_above_its_underflow_floor(self):
        # 0.01 (atol + rtol |x|) / |f| is 1.7e-15 here, under 16 ulp(100)
        stepper = Dopri3(lambda t, x: (0.0, 1.0, 1.0), 100.0, (0.0, 0.0, 0.0),
                         IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13))
        stepper.advance_to(101.0)
        assert stepper.t == 101.0
        assert stepper.x == pytest.approx((0.0, 1.0, 1.0), rel=1e-12)

    def test_overflowing_start_underflows_instead_of_looping(self):
        # |f|^2 and |x|^2 overflow, so the first step is inf/inf = NaN; a
        # NaN step must stop the run at once, not use up max_steps
        opts = IntegratorOptions(max_steps=10_000)
        x0 = (1e160, 0.0, 0.0)
        with pytest.raises(StepUnderflowError):
            integrate_pws(example_system("i"), x0, 1.0, opts)
        with pytest.raises(StepUnderflowError):
            run_example("i", 1e-3, 1.0, x0=x0, opts=opts)

    def test_non_finite_stage_shrinks_the_step_until_it_underflows(self):
        # an attempt whose stages reach x1 >= 0.5 is never accepted: one
        # with a non-finite end state is retried at a quarter of the step,
        # one with a finite end state has an infinite error estimate
        def field(t, x):
            return (1.0 if x[0] < 0.5 else math.inf, 0.0, 0.0)

        stepper = Dopri3(field, 0.0, (0.0, 0.0, 0.0), IntegratorOptions())
        with pytest.raises(StepUnderflowError):
            stepper.advance_to(1.0)
        assert stepper.t == pytest.approx(0.5, abs=1e-12)
        assert stepper.t < 0.5
        assert all(math.isfinite(v) for v in stepper.x + stepper.f)
        assert stepper.x[0] == pytest.approx(stepper.t, abs=1e-12)

    def test_nan_error_estimate_shrinks_the_step_by_min_factor(self):
        # the seventh stage of every attempt is NaN, so the end state is
        # finite but the error estimate is NaN: max(0.2, NaN) is 0.2
        field, sevenths = nan_seventh_stage()
        stepper = Dopri3(field, 0.0, (0.0, 0.0, 0.0), IntegratorOptions(), h=1.0)
        with pytest.raises(StepUnderflowError):
            stepper.advance_to(1.0)
        # from t = 0 the seventh stage sits at t + h = h
        assert len(sevenths) == stepper.nsteps > 20
        assert sevenths[0] == 1.0
        assert all(b == 0.2 * a for a, b in zip(sevenths, sevenths[1:]))
        assert stepper.t == 0.0


class TestStepCounter:
    """nsteps counts an attempt before its first field call, so a caller
    that reads it after an exception sees every attempt made."""

    @pytest.mark.parametrize("n", [1, 5])
    def test_field_error_passes_through_with_its_attempt_counted(self, n):
        calls = [0]

        def field(t, x):
            calls[0] += 1
            if calls[0] == 1 + 6 * (n - 1) + 3:  # third call of attempt n
                raise ZeroDivisionError("field")
            return (x[1], -x[0], 1.0)

        stepper = Dopri3(field, 0.0, (1.0, 0.0, 0.0), IntegratorOptions())
        with pytest.raises(ZeroDivisionError, match="field"):
            stepper.advance_to(10.0)
        assert stepper.nsteps == n

    def test_budget_of_rejected_attempts(self):
        n = 4
        field, _ = nan_seventh_stage()
        wrapped, calls = counted(field)
        stepper = Dopri3(wrapped, 0.0, (0.0, 0.0, 0.0), IntegratorOptions(max_steps=n), h=1.0)
        with pytest.raises(StepBudgetError):
            stepper.advance_to(1.0)
        assert stepper.nsteps == n
        assert calls[0] == 1 + 6 * n
