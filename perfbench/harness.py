"""Run loop and statistics of the benchmark; run.py is the command."""

from __future__ import annotations

import gc
import json
import math
import re
import signal
import statistics
import threading
import time
from contextlib import contextmanager

from tracer import Tracer, identity_violations, replay, summarize
from workloads import CheckFailed

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_BEYOND = 10       # samples beyond a reported percentile
MIN_ROUNDS = 3        # rounds per run, so every op has a median of 3+
REF_STEPS = 180       # size of the reference kernel
# setup_s is the set-up time on a host where the reference kernel takes this
# long: raw set-up seconds follow the host's speed, whose swings moved their
# median over ten runs by 44% between two sets of runs of the same code.
REF_NOMINAL_S = 1e-3
HARD_LIMIT_S = 150.0  # stop starting rounds after this, whatever is missing
OP_TIMEOUT_S = 30.0   # an op running longer is stopped and counted failed
MAX_REPORTED = 5      # failures printed in full per run


def percentile(samples, pct: int):
    """Nearest-rank pct-th percentile, or None when fewer than 10 samples
    lie beyond it (so p90 needs at least 100 samples)."""
    n = len(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The final JSON line; refuses bad names and non-finite values."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not valid_metric_name(name):
            raise ValueError(f"bad metric name {name!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ValueError(f"metric {name} is {value!r}")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": out})


class OpTimeout(Exception):
    pass


@contextmanager
def _deadline(seconds: float):
    """Raise OpTimeout in the main thread after seconds (no-op elsewhere)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise OpTimeout(f"op ran longer than {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Operations attempted and failed; failures are counted, never dropped."""

    def __init__(self, report=print):
        self.attempted = 0
        self.failed = 0
        self.report = report

    def fail(self, op_name: str, error: BaseException) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED:
            self.report(f"# FAILED {op_name}: {type(error).__name__}: {error}")

    def settle(self, op, result, error, check) -> bool:
        """Count one attempt; run its check unless the op itself raised."""
        self.attempted += 1
        if error is None:
            try:
                check(result)
            except CheckFailed as exc:
                error = exc
            except Exception as exc:  # a check that crashes fails the op too
                error = exc
        if error is not None:
            self.fail(op.name, error)
            return False
        return True


def time_op(run):
    """(seconds, result, error) of one call; an exception is the error."""
    start = time.perf_counter()
    try:
        with _deadline(OP_TIMEOUT_S):
            result = run()
    except Exception as exc:  # the op failed; the run goes on and counts it
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def _reference_field(t, x):
    x1, x2, x3 = x
    return (-x2 + 0.1 * x1, x1 - 1.2 + 0.3 * math.tanh(10.0 * x1),
            x1 - 2.0 - 0.1 * x3)


def reference_kernel():
    """Fixed-step RK4 on a 3-component field (about 1 ms), timed between
    ops and around every set-up.

    It mimics pwsfold's hot path (a field called through a function, state
    tuples, float math) but calls nothing in pwsfold, so its time follows
    only the host's speed. Other processes on a small shared host slow this
    process by up to 2x for minutes at a time; an op's time divided by the
    kernel's time next to it stays within a few percent through them.
    """
    field = _reference_field
    x, t, h = (0.1, 0.1, 0.1), 0.0, 0.01
    for _ in range(REF_STEPS):
        k1 = field(t, x)
        k2 = field(t + 0.5 * h, (x[0] + 0.5 * h * k1[0], x[1] + 0.5 * h * k1[1],
                                 x[2] + 0.5 * h * k1[2]))
        k3 = field(t + 0.5 * h, (x[0] + 0.5 * h * k2[0], x[1] + 0.5 * h * k2[1],
                                 x[2] + 0.5 * h * k2[2]))
        k4 = field(t + h, (x[0] + h * k3[0], x[1] + h * k3[1], x[2] + h * k3[2]))
        x = tuple(x[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                  for i in range(3))
        t += h
    return x


def _time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def time_setup(setup):
    """(setup()'s result, (its seconds, mean of the reference kernel's
    seconds just before and just after it))."""
    ref_before = _time_reference()
    start = time.perf_counter()
    result = setup()
    seconds = time.perf_counter() - start
    return result, (seconds, 0.5 * (ref_before + _time_reference()))


def one_round(ops, tally: Tally, times: list[list[tuple[float, float]]],
              runs=None) -> list[bool]:
    """Run every op once, checking each; appends (op seconds, mean of the
    reference kernel's seconds just before and just after it) to times[i].
    runs[i], when given, is run in place of ops[i].run. Returns which ops
    passed."""
    gc.collect()
    passed = []
    for i, (op, op_times) in enumerate(zip(ops, times)):
        ref_before = _time_reference()
        seconds, result, error = time_op(op.run if runs is None else runs[i])
        op_times.append((seconds, 0.5 * (ref_before + _time_reference())))
        passed.append(tally.settle(op, result, error, op.check))
    return passed


def _round_cost(times) -> float:
    """The last round's summed op time / kernel time."""
    return sum(t[-1][0] / t[-1][1] for t in times)


def measure(ops, seconds: float, tally: Tally):
    """Repeat the op list until seconds have passed and MIN_ROUNDS ran;
    returns each op's (seconds, reference) pairs over the rounds."""
    start = time.perf_counter()
    times: list[list[tuple[float, float]]] = [[] for _ in ops]
    rounds = 0
    while True:
        one_round(ops, tally, times)
        rounds += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and rounds >= MIN_ROUNDS) or elapsed >= HARD_LIMIT_S:
            return times


def op_costs(times):
    """Per op: (median of op time / kernel time, median op time)."""
    return [(statistics.median(s / r for s, r in t),
             statistics.median(s for s, _ in t)) for t in times]


def end_to_end(setup_times, times, tally: Tally, peak_rss_mb: float):
    """(metrics, raw timings) of an untraced run.

    Op costs are each op's median over the rounds of its time divided by the
    reference kernel's (unit "ref"); the raw medians in seconds come second,
    for reading, as they swing with the host's load. Set-up times are scaled
    the same way, to seconds on a host where the kernel takes REF_NOMINAL_S.
    """
    norm, raw = zip(*op_costs(times))
    metrics = {
        "setup_s": (statistics.median(s / r for s, r in setup_times)
                    * REF_NOMINAL_S, "s"),
        "wall_ref": (sum(norm), "ref"),
        "op_p50_ref": (statistics.median(norm), "ref"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_info = {
        "setup_raw_s": (statistics.median(s for s, _ in setup_times), "s"),
        "wall_s": (sum(raw), "s"),
        "op_p50_ms": (statistics.median(raw) * 1e3, "ms"),
        "ref_ms": (statistics.median(r for t in times for _, r in t) * 1e3, "ms"),
    }
    p90 = percentile(norm, 90)
    if p90 is not None:
        metrics["op_p90_ref"] = (p90, "ref")
        raw_info["op_p90_ms"] = (percentile(raw, 90) * 1e3, "ms")
    return metrics, raw_info


def _unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure_traced(ops, traced_ops, tracer: Tracer, seconds: float,
                   tally: Tally):
    """Alternate untraced and traced rounds until seconds have passed.

    Traced ops are built after the tracer was installed, so their compiled
    fields count calls; each is checked with its untraced twin's check, so
    checks add no spans or counts. Returns (per-layer metrics, an iterator
    over the spans of the first traced round).
    """
    start = time.perf_counter()
    plain, traced, layers = [], [], []
    first = None

    def traced_run(i, run):
        def call():
            tracer.op_id = i
            tracer.install()
            try:
                return tracer.call("bench.op", run)
            finally:
                tracer.uninstall()
        return call

    runs = [traced_run(i, top.run) for i, top in enumerate(traced_ops)]
    times = [[] for _ in ops]
    while True:
        one_round(ops, tally, times)
        plain.append(_round_cost(times))
        tracer.reset()
        passed = one_round(ops, tally, times, runs)
        traced.append(_round_cost(times))
        frozen = tracer.freeze()
        spans = list(tracer.spans(frozen))
        checked, bad = identity_violations(spans)
        for op_id in sorted(bad):
            if passed[op_id]:
                tally.fail(ops[op_id].name,
                           CheckFailed("field calls != 1 + 6 x RK attempts"))
        metrics = summarize(spans, tracer.counts())
        del spans  # the next round's spans take its place in memory
        metrics["trace.identity_checks"] = checked
        layers.append(metrics)
        if first is None:
            first = frozen
        if time.perf_counter() - start >= seconds:
            break
    out = {}
    for name in layers[0]:
        unit = _unit(name)
        values = [m[name] for m in layers]
        if unit != "count":
            out[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:  # counts repeat exactly unless the code changed
            print(f"# warning: {name} differs between traced rounds: {values}")
        out[name] = (values[0], unit)
    for name, value in replay(tracer).items():
        out[name] = (value, "ns")
    out["trace.overhead_ratio"] = (statistics.median(traced) /
                                   statistics.median(plain), "ratio")
    return out, tracer.spans(first)
