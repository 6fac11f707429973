"""Span tracer for pwsfold, applied from outside the package.

`Tracer.install` replaces pwsfold's public callables with wrappers, in every
pwsfold module that holds them (modules import each other's functions by
name). Each wrapped call records one span: name, start, end, parent span, op
id and thread. Compiled fields returned by the code generators are wrapped to
count evaluations, and `Dopri3.step_to` to count Runge-Kutta attempts (from
the stepper's own step counter) and accepted steps. Spans sit in per-thread
flat arrays, so recording needs no lock, until `summarize` turns them into
per-layer metrics.
"""

from __future__ import annotations

import array
import gzip
import itertools
import os
import statistics
import sys
import threading
import time

# Public callables that get a span, by module. The layer of a span is the
# module's short name.
SPANNED = {
    "expr": ("compile_field", "compile_expression"),
    "regularize": ("compile_regularized_field", "critical_manifold",
                   "slow_u_dot", "nonhyperbolic_curve", "degeneracy_probe"),
    "sim": ("run_example", "regularized_trajectory", "integrate_smooth",
            "trajectory_csv"),
    "pws": ("integrate_pws", "sliding_lambdas", "classify_surface_point"),
    "roots": ("real_quadratic_roots", "polish_bracketed_root"),
    "twofold": ("classify_twofold", "folded_points", "folded_reports",
                "canonical_coefficients", "canonical_fit",
                "fit_fast_equation_coefficients"),
    "cli": ("main", "load_system_file"),
}
# Code generators: their results are the compiled fields whose calls count
# as field evaluations.
CODEGEN = ("expr.compile_field", "expr.compile_expression",
           "regularize.compile_regularized_field")
LAYERS = ("expr", "sim", "pws", "roots", "regularize", "twofold", "cli")

# Replay inputs: every 64th field call and 16th sliding solve, at most
# _REPLAY_CAP of them per compiled field or per system, so late ops of a
# round are sampled too.
_FIELD_SAMPLE_EVERY = 64
_SLIDING_SAMPLE_EVERY = 16
_REPLAY_CAP = 256
_TRAJ_CAP = 4


class _ThreadBuf:
    """Spans and hot counters of one thread."""

    def __init__(self, number: int):
        self.thread = number
        self.base = number << 32
        self.stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.evals = array.array("q")     # field evaluations inside the span
        self.attempts = array.array("q")  # RK attempts inside the span
        self.field_evals = 0
        self.rk_attempts = 0
        self.accepted = 0
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Wraps a freshly imported pwsfold package; see the module docstring."""

    def __init__(self, pf):
        self.pf = pf
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._numbers = itertools.count()
        self._lock = threading.Lock()
        self._bufs: list[_ThreadBuf] = []
        self._main = self._buf()
        self.op_id = -1
        self.field_samples: list[list] = []   # per compiled field
        self.sliding_samples: dict = {}       # id(system) -> (system, [(x2, x3)])
        self.trajectories: list = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- recording -----------------------------------------------------------

    def _buf(self) -> _ThreadBuf:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuf(next(self._numbers))
            with self._lock:
                self._bufs.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, after=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        nid = self._name_id(name)
        buf = self._buf()
        stack = buf.stack
        idx = len(buf.start)
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to whatever the main thread
            # has open, which is the CLI call that started the pool
            main_stack = self._main.stack
            parent = main_stack[-1] if main_stack else -1
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.op.append(self.op_id)
        buf.evals.append(0)
        buf.attempts.append(0)
        evals0 = buf.field_evals
        attempts0 = buf.rk_attempts
        stack.append(buf.base | idx)
        buf.start.append(time.perf_counter())
        buf.end.append(0.0)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            buf.add(f"{name}.error.{type(exc).__name__}", 1)
            raise
        finally:
            buf.end[idx] = time.perf_counter()
            stack.pop()
            buf.evals[idx] = buf.field_evals - evals0
            buf.attempts[idx] = buf.rk_attempts - attempts0
        if after is not None:
            after(buf, args, kwargs, result)
        return result

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, raw):
        """Wrap a compiled field so its calls are counted and sampled."""
        samples: list = []
        self.field_samples.append(samples)
        get_buf = self._buf

        def field(*args):
            buf = get_buf()
            n = buf.field_evals = buf.field_evals + 1
            if not n % _FIELD_SAMPLE_EVERY and len(samples) < _REPLAY_CAP:
                samples.append((raw, args))
            return raw(*args)
        return field

    # -- patches -------------------------------------------------------------------

    def _build_patches(self) -> None:
        mods = {layer: sys.modules[f"pwsfold.{layer}"] for layer in SPANNED}
        trajs = self.trajectories
        sliding = self.sliding_samples

        def keep_traj(traj):
            if len(trajs) < _TRAJ_CAP:
                trajs.append(traj)

        def smooth(buf, args, kwargs, traj):
            buf.add("sim.samples", len(traj.times))
            keep_traj(traj)

        def csv(buf, args, kwargs, text):
            buf.add("sim.csv_rows", len(args[0].times))
            keep_traj(args[0])

        def pws_run(buf, args, kwargs, traj):
            buf.add("pws.events", traj.events)
            buf.add("pws.non_unique_runs", int(traj.non_unique))
            keep_traj(traj)

        def slide(buf, args, kwargs, roots):
            n = buf.counts.get("pws.sliding_seen", 0) + 1
            buf.counts["pws.sliding_seen"] = n
            if not n % _SLIDING_SAMPLE_EVERY:
                system, x2, x3 = args[:3]
                kept = sliding.setdefault(id(system), (system, []))[1]
                if len(kept) < _REPLAY_CAP:
                    kept.append((x2, x3))

        def manifold(buf, args, kwargs, points):
            buf.add("regularize.critical_points", len(points))

        def curve(buf, args, kwargs, samples):
            buf.add("regularize.nonhyperbolic", len(samples))

        def reports(buf, args, kwargs, out):
            buf.add("twofold.reports", len(out))

        def cli_main(buf, args, kwargs, code):
            argv = list(args[0]) if args else list(kwargs.get("argv") or [])
            if "--out" in argv:
                folder = os.path.dirname(argv[argv.index("--out") + 1]) or "."
                buf.add("cli.out_bytes", sum(
                    e.stat().st_size for e in os.scandir(folder) if e.is_file()))

        hooks = {"sim.integrate_smooth": smooth, "sim.trajectory_csv": csv,
                 "pws.integrate_pws": pws_run, "pws.sliding_lambdas": slide,
                 "regularize.critical_manifold": manifold,
                 "regularize.nonhyperbolic_curve": curve,
                 "twofold.folded_reports": reports, "cli.main": cli_main}

        for layer, funcs in SPANNED.items():
            for func in funcs:
                name = f"{layer}.{func}"
                orig = getattr(mods[layer], func)
                if name in CODEGEN:
                    wrapper = self._codegen_wrapper(name, orig)
                else:
                    wrapper = self._spanned(name, orig, hooks.get(name))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "pwsfold" or mod_name.startswith("pwsfold."):
                        for attr, value in vars(mod).items():
                            if value is orig:
                                self._patches.append((mod, attr, orig, wrapper))

        dopri = mods["sim"].Dopri3
        raw_step_to = dopri.step_to
        get_buf = self._buf

        def step_to(stepper, t_bound):
            # attempts until one is accepted, or raises
            before = stepper.nsteps
            try:
                raw_step_to(stepper, t_bound)
            finally:
                made = stepper.nsteps - before
                get_buf().rk_attempts += made
            if made:
                get_buf().accepted += 1
        self._patches.append((dopri, "step_to", raw_step_to, step_to))

    def _codegen_wrapper(self, name, orig):
        def wrapper(*args, **kwargs):
            return self._counted(self.call(name, orig, *args, **kwargs))
        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def reset(self) -> None:
        """Drop recorded spans and counts (kept replay samples stay)."""
        with self._lock:
            for buf in self._bufs:
                buf.clear()

    # -- reading -----------------------------------------------------------------

    def freeze(self) -> list[tuple]:
        """The recorded span arrays, by thread; reset() leaves them intact."""
        with self._lock:
            return [(b.thread, b.base, b.name, b.start, b.end, b.parent, b.op,
                     b.evals, b.attempts) for b in self._bufs]

    def spans(self, frozen: list[tuple]):
        """Yield (id, name, start, end, parent, op, thread, field_evals,
        rk_attempts) per span."""
        names = self.names
        for thread, base, name, start, end, parent, op, evals, attempts in frozen:
            for i in range(len(start)):
                yield (base | i, names[name[i]], start[i], end[i], parent[i],
                       op[i], thread, evals[i], attempts[i])

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {"field_evals": 0, "attempts": 0, "accepted": 0}
        for buf in self._bufs:
            total["field_evals"] += buf.field_evals
            total["attempts"] += buf.rk_attempts
            total["accepted"] += buf.accepted
            for key, n in buf.counts.items():
                total[key] = total.get(key, 0) + n
        return total


def write_spans(path: str, spans, meta: dict) -> None:
    """Gzipped CSV, one span per line, after a '#'-prefixed metadata line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write("span,name,start,end,parent,op,thread,field_evals,rk_attempts\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]},{s[2]:.9f},{s[3]:.9f},{s[4]},{s[5]},"
                     f"{s[6]},{s[7]},{s[8]}\n")


def self_times(spans: list[tuple]):
    """Yield (span, its duration minus the part its child spans cover).

    Children on other threads may overlap each other, so the covered part is
    the union of the children's intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append((s[2], s[3]))
    for span in spans:
        sid, _, start, end = span[:4]
        covered = 0.0
        lo = hi = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= hi:
                continue
            if c_start > hi:
                covered += hi - lo
                lo = c_start
            hi = c_end
        covered += hi - lo
        yield span, (end - start) - covered


def summarize(spans: list[tuple], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    n: dict[str, int] = {}
    incl: dict[str, float] = {}
    for s in spans:
        n[s[1]] = n.get(s[1], 0) + 1
        incl[s[1]] = incl.get(s[1], 0.0) + (s[3] - s[2])

    def cnt(*names):
        return sum(n.get(x, 0) for x in names)

    def secs(*names):
        return sum(incl.get(x, 0.0) for x in names)

    attempts = counts["attempts"]
    main_ids = {s[0] for s in spans if s[1] == "cli.main"}
    cli_children = sum(s[3] - s[2] for s in spans if s[4] in main_ids)
    main_s = secs("cli.main")
    m = {
        "expr.field_evals": counts["field_evals"],
        "expr.compile_calls": cnt(*CODEGEN),
        "expr.compile_s": secs(*CODEGEN),
        "rk.attempts": attempts,
        "rk.accepted": counts["accepted"],
        "rk.rejected": attempts - counts["accepted"],
        "rk.accept_ratio": counts["accepted"] / attempts if attempts else 0.0,
        "sim.integrate_calls": cnt("sim.integrate_smooth"),
        "sim.integrate_s": secs("sim.integrate_smooth"),
        "sim.samples": counts.get("sim.samples", 0),
        "sim.csv_rows": counts.get("sim.csv_rows", 0),
        "sim.csv_s": secs("sim.trajectory_csv"),
        "pws.integrate_calls": cnt("pws.integrate_pws"),
        "pws.integrate_s": secs("pws.integrate_pws"),
        "pws.events": counts.get("pws.events", 0),
        "pws.non_unique_runs": counts.get("pws.non_unique_runs", 0),
        "pws.sliding_solves": cnt("pws.sliding_lambdas"),
        "pws.sliding_solve_s": secs("pws.sliding_lambdas"),
        "pws.classify_calls": cnt("pws.classify_surface_point"),
        "pws.classify_s": secs("pws.classify_surface_point"),
        "roots.quadratic_calls": cnt("roots.real_quadratic_roots"),
        "roots.polish_calls": cnt("roots.polish_bracketed_root"),
        "roots.s": secs("roots.real_quadratic_roots", "roots.polish_bracketed_root"),
        "regularize.manifold_calls": cnt("regularize.critical_manifold"),
        "regularize.manifold_s": secs("regularize.critical_manifold"),
        "regularize.critical_points": counts.get("regularize.critical_points", 0),
        "regularize.slow_u_dot_calls": cnt("regularize.slow_u_dot"),
        "regularize.slow_u_dot_s": secs("regularize.slow_u_dot"),
        "regularize.nonhyperbolic": counts.get("regularize.nonhyperbolic", 0),
        "twofold.reports": counts.get("twofold.reports", 0),
        "twofold.report_s": secs("twofold.folded_reports"),
        "twofold.fit_calls": cnt("twofold.canonical_fit",
                                 "twofold.fit_fast_equation_coefficients"),
        "twofold.fit_s": secs("twofold.canonical_fit",
                              "twofold.fit_fast_equation_coefficients"),
        "twofold.degenerate": sum(v for k, v in counts.items()
                                  if k.startswith("twofold.")
                                  and ".error.Degenerate" in k),
        "cli.calls": cnt("cli.main"),
        "cli.main_s": main_s,
        "cli.load_s": secs("cli.load_system_file"),
        "cli.out_bytes": counts.get("cli.out_bytes", 0),
        "cli.busy_ratio": cli_children / main_s if main_s else 0.0,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for span, own in self_times(spans):
        layer = span[1].split(".", 1)[0]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += own
    return m


def identity_violations(spans: list[tuple]) -> tuple[int, set[int]]:
    """Check field calls == 1 + 6 x RK attempts on every integrate_smooth span.

    Dormand-Prince evaluates the field once at the start and six times per
    attempt (FSAL). Returns (spans checked, op ids of the spans that break it).
    """
    checked, bad = 0, set()
    for s in spans:
        if s[1] == "sim.integrate_smooth":
            checked += 1
            if s[7] != 1 + 6 * s[8]:
                bad.add(s[5])
    return checked, bad


def _per_call_ns(calls, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, in ns."""
    if not calls:
        return 0.0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(times) * 1e9


def replay(tracer: Tracer) -> dict[str, float]:
    """Unit costs replayed on inputs recorded during traced rounds.

    Run with the tracer uninstalled: the replayed callables are the raw
    compiled fields, pws.sliding_lambdas on fresh copies of the recorded
    systems (so their compiled fields are raw too) and sim.trajectory_csv.
    """
    pf = tracer.pf
    quad, scan = [], []
    for system, points in tracer.sliding_samples.values():
        copy = type(system)(system.fplus, system.fminus, system.hidden)
        degree = copy.lambda_degree
        calls = quad if degree is not None and degree <= 2 else scan
        calls.extend((pf.pws.sliding_lambdas, (copy, x2, x3)) for x2, x3 in points)
    rows = sum(len(t.times) for t in tracer.trajectories)
    csv_calls = [(pf.sim.trajectory_csv, (t,)) for t in tracer.trajectories]
    return {
        "expr.field_eval_ns": _per_call_ns(
            [call for field in tracer.field_samples for call in field]),
        "pws.sliding_quadratic_ns": _per_call_ns(quad),
        "pws.sliding_scan_ns": _per_call_ns(scan),
        "sim.csv_row_ns": (_per_call_ns(csv_calls) * len(csv_calls) / rows
                           if rows else 0.0),
    }
