import math

import pytest

import pwsfold as pf
from pwsfold import pws, sim
from pwsfold.regularize import compile_regularized_field
from pwsfold.sim import (IntegratorOptions, compare_trajectories,
                         example_system, integrate_smooth,
                         regularized_trajectory, run_example, section6_system,
                         trajectory_csv)


def decay_field(t, x):
    return (-x[0], -x[1], -x[2])


class TestIntegrateSmooth:
    def test_linear_decay(self):
        traj = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0)
        e = math.exp(-1.0)
        for v in traj.final_state:
            assert abs(v - e) < 1e-7

    def test_global_error_budget(self):
        traj = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0)
        e = math.exp(-1.0)
        err = max(abs(v - e) for v in traj.final_state)
        assert err < 1e-6

    def test_dense_output_stride(self):
        opts = IntegratorOptions(dense_output_stride=0.25)
        traj = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0, opts)
        assert traj.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.state_at(0.5)[0] == pytest.approx(math.exp(-0.5), abs=1e-7)

    def test_step_budget_error(self):
        opts = IntegratorOptions(max_steps=3)
        with pytest.raises(pf.StepBudgetError):
            integrate_smooth(decay_field, (1.0, 1.0, 1.0), 10.0, opts)

    @pytest.mark.parametrize("bad", [
        {"rel_tol": 0.0}, {"max_steps": 0},
        # a NaN tolerance failed later as StepUnderflowError at t = 0, and
        # an infinite one passed every trial step
        {"rel_tol": math.nan}, {"abs_tol": math.nan},
        {"rel_tol": math.inf}, {"abs_tol": math.inf},
        {"max_events": -1},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_options(self, bad):
        with pytest.raises(ValueError):
            IntegratorOptions(**bad)

    @pytest.mark.parametrize("stride", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_stride(self, stride):
        # a stride that is not positive and finite made the recorder loop forever
        with pytest.raises(ValueError, match="dense_output_stride"):
            IntegratorOptions(dense_output_stride=stride)

    def test_rejects_more_than_max_samples(self, monkeypatch):
        # the README's t-end 1000 run at the default stride stays allowed
        assert 1000.0 <= pws.MAX_SAMPLES * 0.01
        # a tiny stride once made the recorder allocate until memory ran out;
        # a bound of 10 keeps a regression here down to 20 samples
        monkeypatch.setattr(pws, "MAX_SAMPLES", 10)
        opts = IntegratorOptions(dense_output_stride=0.01)
        with pytest.raises(ValueError, match="dense_output_stride"):
            integrate_smooth(decay_field, (1.0, 1.0, 1.0), 0.2, opts)
        with pytest.raises(ValueError, match="dense_output_stride"):
            pf.integrate_pws(section6_system(False), (0.5, 0.0, 0.0), 0.2, opts)
        assert len(integrate_smooth(decay_field, (1.0, 1.0, 1.0), 0.1, opts).times) == 11

    @pytest.mark.parametrize("layer_eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_layer_eps(self, layer_eps):
        # layer_eps has no effect on a run, but a caller's bad value still fails
        with pytest.raises(ValueError, match="layer_eps"):
            IntegratorOptions(layer_eps=layer_eps)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate_smooth(decay_field, (1.0, 1.0, 1.0), t_end)
        with pytest.raises(ValueError, match="t_end"):
            pf.integrate_pws(section6_system(False), (0.5, 0.0, 0.0), t_end)

    @pytest.mark.parametrize("x0", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                    (0.1, 0.0, -math.inf)])
    def test_rejects_non_finite_x0(self, x0):
        # such a start raised StepUnderflowError at t = 0, naming the wrong fault
        with pytest.raises(ValueError, match="x0"):
            integrate_smooth(decay_field, x0, 1.0)
        with pytest.raises(ValueError, match="x0"):
            pf.run_example("ii", 1e-3, 1.0, x0=x0)
        with pytest.raises(ValueError, match="x0"):
            pf.integrate_pws(section6_system(False), x0, 1.0)

    @pytest.mark.parametrize("x0", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4), (), ("0.1", 0.2, 0.3)])
    def test_rejects_x0_that_is_not_three_reals(self, x0):
        # a 2-vector raised IndexError and a 4-vector was cut to 3
        sys = section6_system(False)
        with pytest.raises(pf.ValidationError, match="x0 must be three finite reals"):
            integrate_smooth(decay_field, x0, 1.0)
        with pytest.raises(pf.ValidationError, match="x0 must be three finite reals"):
            sim.regularized_trajectory(sys, pf.builtin_sigmoid("tanh"), 1e-3, x0, 1.0)
        with pytest.raises(pf.ValidationError, match="x0 must be three finite reals"):
            pf.integrate_pws(sys, x0, 1.0)

    def test_unknown_example_names_the_choices(self):
        with pytest.raises(pf.ValidationError) as err:
            pf.example_system("iv")
        assert str(err.value) == "unknown example 'iv'; choose from i, ii, iii"

    def test_matches_event_driven_away_from_surface(self):
        # x1' = -x1 keeps x1 > 0, so integrate_pws runs one free+ leg
        sys = pf.PiecewiseSystem.from_strings(("-x1", "x1 - x2", "1 - x3"),
                                              ("1", "0", "0"))
        opts = IntegratorOptions(dense_output_stride=0.07)
        smooth = integrate_smooth(sys.branch_field(1), (1.0, 0.5, -0.5), 5.0, opts)
        event = pf.integrate_pws(sys, (1.0, 0.5, -0.5), 5.0, opts)
        assert event.events == 0
        assert smooth.times == event.times
        assert smooth.states == event.states
        assert smooth.modes == event.modes == ["free+"] * len(smooth.times)

    def test_tolerance_monotonicity(self):
        # halving rel_tol never increases the deviation from a tight reference
        field = lambda t, x: (x[1], -x[0], 0.25 * x[0] * x[1])
        ref = integrate_smooth(field, (1.0, 0.0, 0.1), 10.0,
                               IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13))
        grid = [10.0 * i / 100 for i in range(101)]
        prev = None
        for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            traj = integrate_smooth(field, (1.0, 0.0, 0.1), 10.0,
                                    IntegratorOptions(rel_tol=rtol, abs_tol=1e-12))
            dev = compare_trajectories(traj, ref, grid)
            if prev is not None:
                assert dev <= prev * (1 + 1e-9)
            prev = dev


class TestSection6:
    @pytest.mark.parametrize("nonlinear,slope", [(False, -1.0), (True, 1.0)])
    def test_layer_drift_slopes(self, nonlinear, slope):
        sys = section6_system(nonlinear)
        s = pf.builtin_sigmoid("tanh")
        eps = 1e-3
        traj = regularized_trajectory(sys, s, eps, (0.5, 0.0, 0.0), 3.0)
        entry = next(t for t, x in zip(traj.times, traj.states)
                     if abs(x[0]) <= eps)
        t1 = entry + 0.5
        got = (traj.state_at(3.0)[1] - traj.state_at(t1)[1]) / (3.0 - t1)
        assert got == pytest.approx(slope, rel=0.01)

    def test_slope_difference_two_percent(self):
        s = pf.builtin_sigmoid("tanh")
        eps = 1e-3
        slopes = []
        for nonlinear in (False, True):
            traj = regularized_trajectory(section6_system(nonlinear), s, eps,
                                          (0.5, 0.0, 0.0), 3.0)
            slopes.append((traj.state_at(3.0)[1] - traj.state_at(1.0)[1]) / 2.0)
        assert slopes[1] - slopes[0] == pytest.approx(2.0, rel=0.02)

    def test_off_surface_dynamics_identical(self):
        lin = section6_system(False)
        non = section6_system(True)
        for lam in (1.0, -1.0):
            for x in ((0.5, 0.2, 0.0), (-0.3, -1.0, 0.0)):
                assert pf.combination(lin, x, lam) == pf.combination(non, x, lam)


class TestRunExample:
    def test_short_run_bounded(self):
        traj = run_example("ii", 1e-3, 10.0, "tanh")
        assert traj.sup_norm() < 5.0
        assert traj.times[-1] == pytest.approx(10.0)

    def test_unknown_example(self):
        with pytest.raises(pf.ValidationError):
            run_example("iv", 1e-3, 1.0)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            run_example("i", 0.0, 1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 1e-320])
    def test_rejects_eps_without_finite_inverse(self, eps):
        # 1e-320 is positive, but 1/eps overflows to inf
        with pytest.raises(ValueError, match="eps"):
            run_example("ii", eps, 0.1)
        with pytest.raises(ValueError, match="eps"):
            compile_regularized_field(example_system("ii"), pf.builtin_sigmoid("tanh"), eps)

    def test_layer_lambda_recorded(self):
        traj = run_example("ii", 1e-3, 10.0, "tanh")
        in_layer = [lam for x, lam in zip(traj.states, traj.lambdas)
                    if abs(x[0]) <= 1e-3]
        assert in_layer
        assert all(lam is not None and abs(lam) <= 1.0 for lam in in_layer)

    def test_ends_at_t_end_with_the_end_state(self):
        # 3 * 0.1 and 7 * 0.1 round above 0.3 and 0.7
        sys = pf.example_system("ii")
        s = pf.builtin_sigmoid("tanh")
        for t_end in (0.3, 0.7):
            traj = regularized_trajectory(sys, s, 1e-3, (0.1, 0.1, 0.1), t_end,
                                          IntegratorOptions(dense_output_stride=0.1))
            sparse = regularized_trajectory(sys, s, 1e-3, (0.1, 0.1, 0.1), t_end,
                                            IntegratorOptions(dense_output_stride=10.0))
            assert traj.times[-1] == t_end
            assert traj.final_state == sparse.final_state

    def test_fine_scale_flag_path(self):
        # the full-scale settings (eps down to 1e-5) stay usable; short
        # horizon keeps this cheap
        traj = run_example("ii", 1e-5, 1.0, "tanh")
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.sup_norm() < 5.0

    def test_error_control_alone_sizes_layer_steps(self, monkeypatch):
        # a step cap of eps/|f| in the layer made 52,057 field calls here
        calls = [0]
        compile_field = sim.compile_regularized_field

        def counting_compile(*args):
            field = compile_field(*args)

            def counted(t, x):
                calls[0] += 1
                return field(t, x)

            return counted

        monkeypatch.setattr(sim, "compile_regularized_field", counting_compile)
        traj = regularized_trajectory(pf.example_system("ii"), pf.builtin_sigmoid("tanh"),
                                      1e-5, (0.1, 0.1, 0.1), 10.0)
        assert traj.times[-1] == 10.0
        assert 0 < calls[0] < 12_000

    # the small-eps regularized cases of tools/output_digest.py
    @pytest.mark.parametrize("which,eps,t_end,sigmoid", [
        ("ii", 1e-5, 10.0, "tanh"), ("ii", 1e-5, 10.0, "cubic"), ("iii", 1e-4, 16.0, "tanh")])
    def test_small_eps_run_is_close_to_a_tight_run(self, which, eps, t_end, sigmoid):
        traj = run_example(which, eps, t_end, sigmoid)
        ref = run_example(which, eps, t_end, sigmoid,
                          opts=IntegratorOptions(rel_tol=1e-12, abs_tol=1e-14))
        grid = [k * 0.01 for k in range(round(t_end / 0.01) + 1)]
        assert compare_trajectories(traj, ref, grid) <= 1e-5


class TestCompareTrajectories:
    def test_identical_zero(self):
        traj = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0)
        grid = [i / 50 for i in range(51)]
        assert compare_trajectories(traj, traj, grid) == 0.0

    def test_grid_outside_range(self):
        a = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0)
        b = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            compare_trajectories(a, b, [0.75])

    def test_nan_grid_time_raises(self):
        # a NaN passed the range check, and both runs then read their end
        # states: 0.0 for two runs that end alike
        traj = integrate_smooth(decay_field, (1.0, 1.0, 1.0), 1.0)
        with pytest.raises(pf.ValidationError, match="outside trajectory range"):
            traj.state_at(math.nan)
        with pytest.raises(pf.ValidationError, match="outside trajectory range"):
            compare_trajectories(traj, traj, [0.5, math.nan])


class TestTrajectoryCsv:
    def test_header_and_lambda_column(self):
        sys = section6_system(True)
        traj = pf.integrate_pws(sys, (0.5, 0.0, 0.0), 1.0)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,x2,x3,lambda,mode"
        free = [l for l in lines[1:] if l.endswith("free+")]
        sliding = [l for l in lines[1:] if l.endswith("sliding")]
        assert free and sliding
        assert all(l.split(",")[4] == "" for l in free)
        assert all(l.split(",")[4] != "" for l in sliding)

    def test_seventeen_significant_digits(self):
        sys = section6_system(False)
        traj = pf.integrate_pws(sys, (1.0 / 3.0, 0.0, 0.0), 0.1)
        row = trajectory_csv(traj).strip().split("\n")[1]
        assert row.split(",")[1] == f"{1.0/3.0:.17g}"
