"""pwsfold benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pwsfold checkout; the package is imported from
./src. Workloads: regularized, event-driven, analysis, cli-batch (see
workloads.py and README.md). The run repeats the workload's op list until S
seconds have passed and at least 3 rounds ran. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics. The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; results and spans also go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile

import harness
import tracer as tracing
from workloads import WORKLOADS

# Set-ups timed per untraced run: the one that builds the timed op list, and
# the rest after the timed rounds, because the memory each re-import leaves
# behind slowed ops timed after it by about 5%. One set-up over the kernel's
# time spreads by about 10%, and medians of 21 in a row by up to 5%, as the
# host's speed changes within seconds.
SETUP_REPEATS = 41
OUT_DIR = ".perfbench_out"


def _pwsfold_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "pwsfold" or n.startswith("pwsfold.")}


def fresh_import(src: str):
    """Import pwsfold from src anew, dropping any copy already imported."""
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in _pwsfold_modules():
        del sys.modules[name]
    pf = importlib.import_module("pwsfold")
    importlib.import_module("pwsfold.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(pf.__file__))) != src:
        raise ImportError(f"pwsfold imported from {pf.__file__}, not {src}")
    return pf


def commit_of(root: str) -> str:
    """HEAD's commit, or 'unknown' outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pwsfold", "__init__.py")):
        print(f"perfbench: no pwsfold sources under {src}; run from the root "
              "of a pwsfold checkout", file=sys.stderr)
        return 2
    # the CLI's batch pool sizes itself from nproc unless this is set
    os.environ.pop("PWSFOLD_THREADS", None)
    build = WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit_of(root)}
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))

    tally = harness.Tally()
    with tempfile.TemporaryDirectory(dir=os.path.join(root, OUT_DIR)) as work:
        def setup():
            pf = fresh_import(src)
            return pf, build(pf, args.seed, work)

        (pf, ops), first_setup = harness.time_setup(setup)
        info, per_op = {}, []
        if args.trace:
            tr = tracing.Tracer(pf)
            tr.install()
            try:
                traced_ops = build(pf, args.seed, work)
            finally:
                tr.uninstall()
            metrics, spans = harness.measure_traced(ops, traced_ops, tr,
                                                    args.seconds, tally)
        else:
            times = harness.measure(ops, args.seconds, tally)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_times = [first_setup] + [harness.time_setup(setup)[1]
                                           for _ in range(SETUP_REPEATS - 1)]
            metrics, info = harness.end_to_end(setup_times, times, tally, peak)
            info["rounds"] = (len(times[0]), "count")
            info["ops"] = (len(ops), "count")
            per_op = [{"op": op.name, "cost_ref": cost, "median_s": median_s}
                      for op, (cost, median_s) in zip(ops, harness.op_costs(times))]

    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracing.write_spans(stem + "-spans.csv.gz", spans, meta)
    for name, (value, unit) in info.items():
        print(f"# {name}: {value:.6g} {unit} (not gated)")
    print(f"# fail_ratio: {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    line = harness.result_line(tally.failed == 0, tally.attempted, tally.failed,
                               metrics)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "info": info, **json.loads(line),
                   "ops": per_op}, fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
