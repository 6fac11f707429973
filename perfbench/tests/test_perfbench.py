"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pf():
    return run.fresh_import(str(ROOT / "src"))


# --- percentile rule ---------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert harness.percentile(list(range(99)), 90) is None
    assert harness.percentile(list(range(100)), 90) == 89  # ranks 91..100 beyond
    assert harness.percentile(list(range(1000, 0, -1)), 90) == 900
    assert harness.percentile([], 90) is None


def test_median_rank_is_allowed_with_twenty_samples():
    assert harness.percentile(list(range(20)), 50) == 9
    assert harness.percentile(list(range(19)), 50) is None


def test_end_to_end_omits_p90_below_the_rule():
    tally = harness.Tally()
    tally.attempted = 99
    pairs = [[(0.001, 0.002), (0.002, 0.002)]]
    metrics, raw = harness.end_to_end([(0.1, 0.002)], pairs * 99, tally, 10.0)
    assert "op_p90_ref" not in metrics and "op_p90_ms" not in raw
    tally.attempted = 100
    metrics, raw = harness.end_to_end([(0.1, 0.002)], pairs * 100, tally, 10.0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]


def test_op_costs_are_medians_of_time_over_reference():
    tally = harness.Tally()
    tally.attempted = 3
    # op 1 runs at half speed in its second round, and so does the kernel
    times = [[(0.010, 0.001), (0.020, 0.002), (0.011, 0.001)],
             [(0.050, 0.001), (0.030, 0.001), (0.090, 0.001)],
             [(0.002, 0.001), (0.001, 0.001), (0.004, 0.001)]]
    # the second set-up ran at a third of the speed
    setups = [(0.2, 0.001), (0.6, 0.003), (0.3, 0.001)]
    metrics, raw = harness.end_to_end(setups, times, tally, 10.0)
    assert metrics["wall_ref"][0] == pytest.approx(10.0 + 50.0 + 2.0)
    assert metrics["op_p50_ref"][0] == pytest.approx(10.0)
    assert metrics["setup_s"][0] == pytest.approx(200.0 * harness.REF_NOMINAL_S)
    assert raw["setup_raw_s"][0] == pytest.approx(0.3)
    assert raw["wall_s"][0] == pytest.approx(0.011 + 0.050 + 0.002)


# --- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "expr.field_evals", "a-b.c_9", "9x"])
def test_valid_metric_names(name):
    assert harness.valid_metric_name(name)
    line = harness.result_line(True, 1, 0, {name: (1.5, "s")})
    assert json.loads(line)["metrics"][name] == {"value": 1.5, "unit": "s"}


@pytest.mark.parametrize("name", ["", "op p90", "x/y", "_lead", ".lead", "a" * 65,
                                  "ratio%"])
def test_invalid_metric_names_are_refused(name):
    assert not harness.valid_metric_name(name)
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, {name: (1.0, "s")})


def test_declared_metric_names_are_valid():
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert harness.valid_metric_name(m["name"]), m["name"]


def test_non_finite_values_are_refused():
    with pytest.raises(ValueError):
        harness.result_line(True, 1, 0, {"wall_s": (float("nan"), "s")})


# --- failures are counted ----------------------------------------------------

def _failing_check(result):
    raise CheckFailed(f"bad output {result}")


def _raising_run():
    raise ArithmeticError("boom")


def test_failing_check_is_counted_and_reported():
    lines = []
    tally = harness.Tally(report=lines.append)
    ops = [Op("good", lambda: 1, lambda r: None),
           Op("bad-check", lambda: 2, _failing_check),
           Op("raises", _raising_run, lambda r: None)]
    times = harness.measure(ops, 0.0, tally)
    rounds = harness.MIN_ROUNDS
    assert [len(t) for t in times] == [rounds] * 3
    assert (tally.attempted, tally.failed) == (3 * rounds, 2 * rounds)
    assert any("bad-check" in s and "bad output 2" in s for s in lines)
    assert any("raises" in s and "boom" in s for s in lines)
    result = json.loads(harness.result_line(tally.failed == 0, tally.attempted,
                                            tally.failed, {}))
    assert result["correct"] is False and result["failed"] == 2 * rounds


def test_setup_is_timed_with_the_reference_kernel():
    result, (seconds, ref) = harness.time_setup(lambda: "built")
    assert result == "built"
    assert seconds >= 0.0 and ref > 0.0


def test_crashing_check_is_a_failure_not_an_abort():
    tally = harness.Tally(report=lambda s: None)
    ok = tally.settle(Op("x", None, None), {}, None, lambda r: r["missing"])
    assert not ok and tally.failed == 1


# --- smoke runs --------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(pf, workload, tmp_path):
    ops = WORKLOADS[workload](pf, 7, str(tmp_path), small=True)
    assert ops
    tally = harness.Tally()
    times = [[] for _ in ops]
    harness.one_round(ops, tally, times)
    assert tally.attempted == len(ops)
    assert all(len(t) == 1 for t in times)
    assert tally.failed == 0


def test_same_seed_same_inputs(pf, tmp_path):
    names = [[op.name for op in WORKLOADS["event-driven"](pf, 3, str(tmp_path))]
             for _ in range(2)]
    assert names[0] == names[1]
    other = [op.name for op in WORKLOADS["event-driven"](pf, 4, str(tmp_path))]
    assert other != names[0]


@pytest.mark.parametrize("workload", ["regularized", "cli-batch"])
def test_traced_smoke(pf, workload, tmp_path):
    build = WORKLOADS[workload]
    ops = build(pf, 7, str(tmp_path), small=True)
    tracer = Tracer(pf)
    tracer.install()
    try:
        traced_ops = build(pf, 7, str(tmp_path), small=True)
    finally:
        tracer.uninstall()
    tally = harness.Tally()
    metrics, spans = harness.measure_traced(ops, traced_ops, tracer, 0.0, tally)
    assert tally.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"], m["name"]
    assert metrics["trace.identity_checks"][0] > 0
    assert 0 < metrics["rk.accepted"][0] <= metrics["rk.attempts"][0]
    assert metrics["rk.rejected"][0] == (metrics["rk.attempts"][0]
                                         - metrics["rk.accepted"][0])
    if workload == "cli-batch":
        assert metrics["cli.calls"][0] == len(ops)
        assert metrics["cli.out_bytes"][0] > 0
    # the tracer is gone after the run: library functions are the originals
    assert not hasattr(pf.pws.integrate_pws, "__wrapped__")
    spans = list(spans)
    assert spans and all(s[3] >= s[2] for s in spans)


def test_identity_violation_fails_the_op():
    spans = [(1, "sim.integrate_smooth", 0.0, 1.0, -1, 0, 0, 13, 2),
             (2, "sim.integrate_smooth", 0.0, 1.0, -1, 1, 0, 14, 2)]
    from tracer import identity_violations
    assert identity_violations(spans) == (2, {1})


def test_self_time_subtracts_union_of_children():
    from tracer import self_times
    spans = [(1, "cli.main", 0.0, 10.0, -1, 0, 0, 0, 0),
             (2, "pws.integrate_pws", 1.0, 5.0, 1, 0, 1, 0, 0),
             (3, "pws.integrate_pws", 2.0, 6.0, 1, 0, 2, 0, 0),
             (4, "sim.trajectory_csv", 8.0, 9.0, 1, 0, 0, 0, 0)]
    own = {span[0]: t for span, t in self_times(spans)}
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(4.0)


# --- command -----------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
