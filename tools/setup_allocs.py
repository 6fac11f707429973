"""Print the net number of GC-tracked allocations in one perfbench set-up.

    python3 tools/setup_allocs.py [--seed N]

Run from anywhere; it imports pwsfold from this checkout's src/ and only
reads perfbench's modules. For each workload, a set-up is what perfbench
times as `setup_s`: run.fresh_import of the package plus the workload's
build. One untimed set-up runs first, so the standard-library imports fall
outside the count; then, after gc.collect() and with gc disabled, the count
is the growth of gc.get_count()[0] over one more set-up.

Where a set-up's count falls decides whether a generation-1 collection lands
in the reference-kernel run that perfbench times after it, and so which of
two values `analysis` `setup_s` reads (about 0.08 s or 0.17 s for the same
set-up work). The count depends on the Python version (3.11 for the numbers
in CHANGES.md and ROADMAP.md).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def net_allocations(build, seed: int, workdir: str) -> int:
    """gc.get_count()[0] growth over one set-up after an untimed one."""
    src = os.path.join(ROOT, "src")

    def setup():
        pf = run.fresh_import(src)
        return pf, build(pf, seed, workdir)

    setup()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        setup()
        return gc.get_count()[0] - before
    finally:
        gc.enable()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as work:
            print(f"{net_allocations(WORKLOADS[name], args.seed, work):8d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
