"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations. An operation is
one timed call (or short fixed sequence of calls) into pwsfold's public API;
its check compares the output with the paper's own oracles and runs outside
the timed region. Operations look library functions up on their modules at
call time, so a tracer that swaps module attributes sees every call.

Each workload function takes (pf, seed, workdir, small): the imported
pwsfold package, the seed, a scratch directory for files and a flag that
shrinks the list for smoke tests; it returns the operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import jsonschema

SIGMOIDS = ("tanh", "algebraic", "cubic")


class CheckFailed(Exception):
    """An operation's output failed its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _perturb(rng: random.Random, x0, radius: float):
    return tuple(v + rng.uniform(-radius, radius) for v in x0)


def _check_times(traj, t_end: float) -> None:
    times = traj.times
    require(all(a < b for a, b in zip(times, times[1:])),
            "sample times are not strictly increasing")
    require(times[-1] == t_end, f"trajectory ends at {times[-1]!r}, not {t_end!r}")


# --- regularized -------------------------------------------------------------

# (example, eps, t_end, sigmoids, perturbed starts per sigmoid). 87 short
# runs at eps 1e-3 (two layer passages for i, six for ii) and 9 longer ones
# (iii, two passages) give the op-time distribution 101 distinct ops, with
# p90 (rank 91) inside the iii group; 5 long runs carry the cost that grows
# as 1/eps in the layer. The small-eps decade sits only on cases that are
# cheap per unit time: ii, and iii over t=16, which enters the layer once.
REGULARIZED_CASES = (
    ("i", 1e-3, 20.0, SIGMOIDS, 14),
    ("ii", 1e-3, 10.0, SIGMOIDS, 15),
    ("iii", 1e-3, 20.0, SIGMOIDS, 3),
    ("ii", 1e-4, 200.0, ("tanh",), 1),
    ("ii", 1e-5, 100.0, ("tanh", "cubic"), 1),
    ("iii", 1e-4, 16.0, ("tanh",), 1),
)
X0_RADIUS = 0.01
# Criterion 8 regime: layer entries are counted on 0.01-spaced samples, which
# resolve the layer from eps = 1e-4 on and see >= 10 entries by t = 200.
ENTRY_CHECK_EPS = 1e-4
ENTRY_CHECK_T = 200.0
# Criterion 6: an invisible normal form whose flow from (0.5, 1, 1) only
# slides attractingly and flies freely over [0, 5].
C6_PARAMS = (1, 1, 1.0, -1.0, 0.2)
C6_X0 = (0.5, 1.0, 1.0)
C6_T = 5.0
C6_EPS = (4e-4, 2e-4, 1e-4)


def _example_op(pf, which, eps, t_end, sigmoid, x0) -> Op:
    def run():
        return pf.sim.run_example(which, eps, t_end, sigmoid, x0)

    def check(traj):
        _check_times(traj, t_end)
        require(traj.sup_norm() < 50.0, f"sup norm {traj.sup_norm()}")
        if eps >= ENTRY_CHECK_EPS and t_end >= ENTRY_CHECK_T:
            entries = traj.layer_entry_count(eps)
            require(entries >= 10, f"{entries} layer entries")

    return Op(f"{which}/{sigmoid}/eps={eps:g}/t={t_end:g}", run, check)


def _criterion6_op(pf) -> Op:
    params = pf.twofold.TwoFoldParams(*C6_PARAMS)
    tanh = pf.regularize.builtin_sigmoid("tanh")
    system = pf.twofold.build_normal_form(params)
    reference = {}

    def run():
        return [pf.sim.regularized_trajectory(system, tanh, eps, C6_X0, C6_T)
                for eps in C6_EPS]

    def check(trajs):
        if "ref" not in reference:
            reference["ref"] = pf.pws.integrate_pws(
                pf.twofold.build_normal_form(params), C6_X0, C6_T)
        ref = reference["ref"]
        require("sliding" in ref.modes, "reference never slides")
        grid = [C6_T * i / 500 for i in range(501)]
        devs = [pf.sim.compare_trajectories(ref, t, grid) for t in trajs]
        require(devs[0] > devs[1] > devs[2], f"deviation not decreasing: {devs}")
        require(devs[2] < 5e-3, f"deviation {devs[2]} at eps 1e-4")

    return Op("criterion6/normal-form", run, check)


def regularized(pf, seed: int, workdir: str, small: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = [_criterion6_op(pf)] if not small else []
    for which, eps, t_end, sigmoids, copies in REGULARIZED_CASES:
        if small:
            eps, t_end, copies = 1e-2, 5.0, 1
        for sigmoid in sigmoids:
            for _ in range(copies):
                x0 = _perturb(rng, pf.sim.DEFAULT_EXAMPLE_X0[which], X0_RADIUS)
                ops.append(_example_op(pf, which, eps, t_end, sigmoid, x0))
    return ops


# --- event-driven ------------------------------------------------------------

# (bundled system file, base start, t_end, perturbed starts). Bases keep each
# run in the 10-150 ms range. The seeded invisible_db starts never slide; its
# sliding case is STALL_CASES.
EVENT_CASES = (
    ("example_i", (0.1, -0.5, 0.5), 50.0, 8),
    ("example_i", (-0.3, -0.3, 0.8), 50.0, 8),
    ("example_ii", (0.1, -0.5, 0.5), 50.0, 8),
    ("example_ii", (-0.5, 0.5, 0.5), 50.0, 8),
    ("example_ii", (0.5, 1.0, 1.0), 50.0, 8),
    ("example_iii", (-0.3, -0.3, 0.8), 50.0, 8),
    ("invisible_db", (0.1, 0.1, 0.1), 50.0, 8),
    ("mixed_db", (0.1, 0.1, 0.1), 50.0, 8),
    ("mixed_db", (0.5, 1.0, 1.0), 50.0, 8),
    ("visible_db", (0.1, 0.1, 0.1), 50.0, 8),
    ("section6_linear", (0.1, 0.1, 0.1), 50.0, 8),
    ("section6_nonlinear", (0.1, 0.1, 0.1), 50.0, 8),
    ("scan", (0.5, 0.0, 0.0), 8.0, 8),
)
EVENT_RADIUS = 0.02
# invisible_db from starts that slide through its two-fold into repelling
# sliding (about 1 in 6 seeded starts near (-0.5, 0.5, 0.5), 1 in 20 near
# (0.5, 1, 1)). That sliding leg then creeps towards lambda* = -1 near
# (x2, x3) = (0.131, 0) in steps of about 2e-9 and never reaches the exit
# test |lambda*| >= 1 - 1e-12; to t = 50 it runs for minutes. Each t_end
# stops inside the creep, so the op takes 0.4-0.5 s on a 2-core x86 host,
# nearly all of it there, and finishes in milliseconds once the integrator
# leaves repelling sliding or locates this exit. Whether a run creeps
# depends on its exact step sequence: a slightly different t_end can skip it.
STALL_CASES = (
    ((0.5084476707878112, 1.0174576234719783, 0.9968842799984566), 4.652057),
    ((-0.4957, 0.5032, 0.4863), 2.087855),
)
# A sliding leg ends at an exit located by bisection in time. The exit
# sample carries the last root found before the root left [-1, 1] or vanished
# at a fold (residual up to ~2e-6 measured), and dense samples within one
# output stride before it may carry lambda = None. These exit records are
# checked to lie on the surface only.
EXIT_WINDOW = 0.01
# The section-6 pair with a hidden term cubic in lambda: sliding_lambdas
# takes its 64-point scan path here instead of the closed form.
SCAN_SYSTEM = (("-1", "-1", "0"), ("1", "-1", "0"), ("0.2 + 0.1*lambda", "0", "0"))


def _systems_dir(pf) -> str:
    return os.path.join(os.path.dirname(pf.__file__), "systems")


def _warm(system) -> None:
    """Fill the lazily compiled fields an integration would compile."""
    system.combined(0.0, 0.0, 0.0, 0.0)
    system.f1_dlambda(0.0, 0.0, 0.0, 0.0)
    system.lambda_degree
    system.branch_field(1)
    system.surface_curvature((0.0, 0.0, 0.0), 1)


def _load(pf, name: str):
    if name == "scan":
        system = pf.pws.PiecewiseSystem.from_strings(*SCAN_SYSTEM)
    else:
        path = os.path.join(_systems_dir(pf), f"{name}.json")
        system = pf.cli.load_system_file(path).system
    _warm(system)
    return system


def _exit_times(traj) -> list[float]:
    """Per sample, the time of the sliding exit that ends its leg (inf if none)."""
    out = [math.inf] * len(traj.times)
    exit_t = math.inf
    for i in range(len(traj.times) - 1, -1, -1):
        if traj.modes[i] != "sliding":
            exit_t = math.inf
        elif i + 1 < len(traj.modes) and traj.modes[i + 1] != "sliding":
            exit_t = traj.times[i]
        out[i] = exit_t
    return out


def _passage_index(system, traj, exits) -> int:
    """Index of the first sample past the two-fold (len if none).

    That is the first sliding sample outside an exit record whose tracked
    root has vanished (the flow is at a fold of the critical manifold) or is
    not attracting. Nothing from there on is checked: the continuation into
    repelling sliding is due to change.
    """
    for i, (x, mode, lam) in enumerate(zip(traj.states, traj.modes, traj.lambdas)):
        if mode != "sliding" or exits[i] - traj.times[i] <= EXIT_WINDOW:
            continue
        if lam is None or system.f1_dlambda(0.0, x[1], x[2], lam) >= 0.0:
            return i
    return len(traj.states)


def _pws_op(pf, name, system, x0, t_end) -> Op:
    def run():
        return pf.pws.integrate_pws(system, x0, t_end)

    def check(traj):
        _check_times(traj, t_end)
        exits = _exit_times(traj)
        for i in range(_passage_index(system, traj, exits)):
            x, lam, t = traj.states[i], traj.lambdas[i], traj.times[i]
            require(all(math.isfinite(v) for v in x), f"non-finite state {x}")
            if traj.modes[i] != "sliding":
                continue
            require(abs(x[0]) <= 1e-10, f"sliding sample off the surface: {x}")
            if exits[i] - t <= EXIT_WINDOW:
                continue  # an exit record, see EXIT_WINDOW
            require(lam is not None and -1.0 <= lam <= 1.0,
                    f"sliding lambda {lam!r} at t={t}")
            try:
                pf.pws.sliding_field(system, x[1], x[2], lam)
            except pf.SlidingResidualError as exc:
                raise CheckFailed(f"t={t}: {exc}") from None

    return Op(f"{name}/x0=({x0[0]:.3f},{x0[1]:.3f},{x0[2]:.3f})", run, check)


def event_driven(pf, seed: int, workdir: str, small: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    systems = {}
    for name, base, t_end, copies in EVENT_CASES:
        if name not in systems:
            systems[name] = _load(pf, name)
        if small:
            t_end, copies = 2.0, 1
        for _ in range(copies):
            x0 = _perturb(rng, base, EVENT_RADIUS)
            ops.append(_pws_op(pf, name, systems[name], x0, t_end))
    if not small:
        ops += [_pws_op(pf, "invisible_db", systems["invisible_db"], x0, t_end)
                for x0, t_end in STALL_CASES]
    return ops


# --- analysis ----------------------------------------------------------------

ANALYSIS_PARAMS = 60          # normal forms per round, each x tanh/algebraic
ANALYSIS_GRID = 16            # critical manifold sampled on 16 x 16 (x2, x3)
ANALYSIS_SLOW_POINTS = 8      # slow_u_dot evaluations per op
ANALYSIS_CURVE = 101          # non-hyperbolic curve samples
BOUNDARY_MARGIN = 0.15


def _expected_folded_count(a1, a2, b1, b2) -> int:
    """Criterion 2's existence table."""
    if a1 == a2:
        return 1
    if a1 == 1:
        return 2 if b1 - b2 > 2 else 0
    return 2 if b1 - b2 < -2 else 0


def _off_boundaries(pf, params) -> bool:
    """True when the draw is clear of every classification boundary."""
    b1, b2 = params.b1, params.b2
    # flavour/determinacy-breaking inequalities and the |b1 - b2| = 2 fold
    for v in (b1, b2, b1 * b2 - 1, b1 * b2 + 1, b1 + b2, b1 - b2 + 2, b1 - b2 - 2):
        if abs(v) < BOUNDARY_MARGIN:
            return False
    for name in ("tanh", "algebraic"):
        s = pf.regularize.builtin_sigmoid(name)
        for phi in pf.twofold.folded_points(params):
            if abs(phi) > 0.9:
                return False
            p, q, r = pf.twofold.canonical_coefficients(params, s, phi)
            scale = max(abs(r * p), q * q)
            if min(abs(r * p), abs(q * q - 8 * r * p)) < 0.05 * scale:
                return False
    return True


def _analysis_op(pf, params, sigmoid, system) -> Op:
    s = pf.regularize.builtin_sigmoid(sigmoid)
    grid = [-1.0 + 2.0 * i / (ANALYSIS_GRID - 1) for i in range(ANALYSIS_GRID)]
    non_hyperbolic = pf.regularize.Stability.NON_HYPERBOLIC

    def run():
        tw, reg = pf.twofold, pf.regularize
        cls = tw.classify_twofold(params)
        reports = tw.folded_reports(params, s)
        fits = [(tw.canonical_fit(params, s, r.phi_s),
                 tw.fit_fast_equation_coefficients(params, s, r.phi_s))
                for r in reports]
        points = reg.critical_manifold(system, grid, grid)
        hyperbolic = [pt for pt in points
                      if pt.stability is not non_hyperbolic and abs(pt.lam) < 0.9]
        step = max(1, len(hyperbolic) // ANALYSIS_SLOW_POINTS)
        slow = [(pt, reg.slow_u_dot(system, s, pt))
                for pt in hyperbolic[::step][:ANALYSIS_SLOW_POINTS]]
        curve = reg.nonhyperbolic_curve(params, ANALYSIS_CURVE)
        probes = [(c, reg.degeneracy_probe(params, s, c, 2))
                  for c in curve[1:-1:10]]
        return cls, reports, fits, points, slow, probes

    def check(result):
        cls, reports, fits, points, slow, probes = result
        want = _expected_folded_count(params.a1, params.a2, params.b1, params.b2)
        require(len(reports) == want, f"{len(reports)} folded points, want {want}")
        for r, ((p_f, q_f, r_f), (c_x2, c_x1sq)) in zip(reports, fits):
            for closed, fitted in ((r.p, p_f), (r.q, q_f), (r.r, r_f)):
                require(abs(fitted - closed) <= 1e-3 * abs(closed),
                        f"fit {fitted} vs closed form {closed}")
            require(abs(c_x2 - 1.0) <= 1e-3 and abs(c_x1sq - 1.0) <= 1e-3,
                    f"fast-equation coefficients {c_x2}, {c_x1sq}")
        for pt in points:
            if abs(system.f1_dlambda(0.0, pt.x2, pt.x3, pt.lam)) < 1e-6:
                continue
            slide = pf.pws.sliding_field(system, pt.x2, pt.x3, pt.lam)
            dummy = pf.regularize.dummy_field(system, (0.0, pt.x2, pt.x3), pt.lam)
            require(abs(dummy[0]) < 1e-9 and abs(slide[0] - dummy[1]) <= 1e-10
                    and abs(slide[1] - dummy[2]) <= 1e-10,
                    f"sliding field {slide} vs dummy {dummy}")
        for _, rate in slow:
            require(math.isfinite(rate), f"slow u' = {rate}")
        for (lam, _, _), d2 in probes:
            want_d2 = -2.0 * params.alpha * s.derivative(s.inverse(lam)) ** 2
            require(abs(d2 - want_d2) <= 1e-8 * abs(want_d2),
                    f"layer d2 {d2} vs {want_d2}")

    p = params
    return Op(f"{sigmoid}/({p.a1},{p.a2},{p.b1:.3f},{p.b2:.3f},{p.alpha:.3f})",
              run, check)


def _warm_slow_flow(pf, params, system) -> None:
    """Fill the surface-gradient cache that slow_u_dot compiles on first use.

    (lambda, x2, x3) = (1/2, 0, -3 alpha) is a hyperbolic (repelling) layer
    equilibrium of every normal form: f1 = 0 there, df1/dlambda = alpha / 2.
    """
    reg = pf.regularize
    point = reg.CriticalPoint(0.5, 0.0, -3.0 * params.alpha,
                              reg.Stability.REPELLING)
    reg.slow_u_dot(system, reg.builtin_sigmoid("tanh"), point)


def normal_forms(pf, rng: random.Random, count: int) -> list:
    """Seeded normal forms off the classification boundaries.

    The four (a1, a2) sign pairs come in turn, so every flavour appears
    equally; the mixed pairs alternate between two folded points and none,
    so every seed asks for the same number of fits.
    """
    signs = ((1, 1), (-1, -1), (1, -1), (-1, 1), (1, 1), (-1, -1), (1, -1), (-1, 1))
    out = []
    while len(out) < count:
        a1, a2 = signs[len(out) % 8]
        want = 1 if a1 == a2 else 2 * (len(out) % 8 < 4)
        params = pf.twofold.TwoFoldParams(a1, a2, rng.uniform(-3.0, 3.0),
                                          rng.uniform(-3.0, 3.0),
                                          rng.uniform(0.05, 1.0))
        if _expected_folded_count(a1, a2, params.b1, params.b2) == want \
                and _off_boundaries(pf, params):
            out.append(params)
    return out


def analysis(pf, seed: int, workdir: str, small: bool = False) -> list[Op]:
    ops = []
    for params in normal_forms(pf, random.Random(seed),
                               8 if small else ANALYSIS_PARAMS):
        system = pf.twofold.build_normal_form(params)
        _warm(system)
        _warm_slow_flow(pf, params, system)
        for sigmoid in ("tanh", "algebraic"):
            ops.append(_analysis_op(pf, params, sigmoid, system))
    return ops


# --- cli-batch ---------------------------------------------------------------

CLI_NORMAL_FORMS = 20
CLI_BATCH_X0 = 4
CLI_T_END = 50.0
CLI_REG_T_END = 20.0
CLI_STRIDE = 0.01
CSV_HEADER = "t,x1,x2,x3,lambda,mode"


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _run_cli(pf, argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return pf.cli.main(argv)


def _simulate_op(pf, name, argv_head, system_path, mode, x0s, t_end, outdir,
                 eps=None) -> Op:
    out = os.path.join(outdir, "traj.csv")
    argv = list(argv_head) + ["--mode", mode, "--t-end", repr(t_end),
                              "--stride", repr(CLI_STRIDE), "--out", out]
    if eps is not None:
        argv += ["--eps", repr(eps)]
    for x0 in x0s:
        argv += ["--x0", ",".join(repr(v) for v in x0)]
    outputs = ([out] if len(x0s) == 1 else
               [os.path.join(outdir, f"traj.{i}.csv") for i in range(len(x0s))])
    reference = []

    def expected():
        if not reference:
            system = pf.cli.load_system_file(system_path).system
            for x0 in x0s:
                if mode == "pws":
                    traj = pf.pws.integrate_pws(
                        system, x0, t_end,
                        pf.pws.PwsOptions(dense_output_stride=CLI_STRIDE))
                else:
                    traj = pf.sim.regularized_trajectory(
                        system, pf.regularize.builtin_sigmoid("tanh"), eps, x0,
                        t_end, pf.sim.IntegratorOptions(
                            dense_output_stride=CLI_STRIDE, layer_eps=eps))
                reference.append(pf.sim.trajectory_csv(traj))
        return reference

    def run():
        return _run_cli(pf, argv)

    def check(code):
        require(code == 0, f"exit code {code}")
        for path, want in zip(outputs, expected()):
            text = _read(path)
            require(text.startswith(CSV_HEADER + "\n"), f"{path}: bad header")
            for line in text.splitlines()[1:3]:
                [float(v) for v in line.split(",")[:4]]
            require(text == want, f"{path} differs from trajectory_csv")

    return Op(name, run, check)


def _write_normal_form(path: str, params) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"normal_form": {"a1": params.a1, "a2": params.a2,
                                   "b1": params.b1, "b2": params.b2,
                                   "alpha": params.alpha}}, fh)


def _classify_op(pf, path, sigmoid, outdir, schema) -> Op:
    out = os.path.join(outdir, "classify.json")
    argv = ["classify", path, "--sigmoid", sigmoid, "--out", out]

    def check(code):
        require(code == 0, f"exit code {code}")
        try:
            jsonschema.validate(json.loads(_read(out)), schema)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"classify report: {exc.message}") from None

    return Op(f"classify/{os.path.basename(path)}/{sigmoid}",
              lambda: _run_cli(pf, argv), check)


def _fit_op(pf, path, sigmoid, outdir) -> Op:
    out = os.path.join(outdir, "fit.json")
    argv = ["fit", path, "--sigmoid", sigmoid, "--out", out]

    def check(code):
        require(code == 0, f"exit code {code}")
        for row in json.loads(_read(out)):
            for key, rel in row["relative_difference"].items():
                require(rel <= 1e-3, f"fit {key} relative difference {rel}")

    return Op(f"fit/{os.path.basename(path)}/{sigmoid}",
              lambda: _run_cli(pf, argv), check)


def _manifold_op(pf, path, n, outdir) -> Op:
    out = os.path.join(outdir, "manifold.csv")
    argv = ["manifold", path, f"--x2=-1:1:{n}", f"--x3=-1:1:{n}", "--out", out]

    def check(code):
        require(code == 0, f"exit code {code}")
        for csv_path in (out, out + ".lcurve.csv"):
            lines = _read(csv_path).splitlines()
            require(lines[0] == "lambda,x2,x3,stability", f"{csv_path}: header")
            for line in lines[1:]:
                lam, x2, x3, _ = line.split(",")
                require(-1.0 <= float(lam) <= 1.0, f"{csv_path}: lambda {lam}")

    return Op(f"manifold/{os.path.basename(path)}/{n}",
              lambda: _run_cli(pf, argv), check)


def cli_batch(pf, seed: int, workdir: str, small: bool = False) -> list[Op]:
    rng = random.Random(seed)
    systems = _systems_dir(pf)
    schema_path = os.path.join(os.path.dirname(pf.__file__), "schemas",
                               "classify_report.schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    ops: list[Op] = []

    def outdir():
        path = os.path.join(workdir, f"op{len(ops)}")
        os.makedirs(path, exist_ok=True)
        return path

    t_end = 2.0 if small else CLI_T_END
    reg_t_end = 2.0 if small else CLI_REG_T_END

    def starts(base, n):
        return [_perturb(rng, base, EVENT_RADIUS) for _ in range(n)]

    for name, base in (("example_ii", (0.1, -0.5, 0.5)),
                       ("section6_nonlinear", (0.1, 0.1, 0.1))):
        path = os.path.join(systems, f"{name}.json")
        ops.append(_simulate_op(pf, f"simulate/{name}/pws/x{CLI_BATCH_X0}",
                                ["simulate", path], path, "pws",
                                starts(base, CLI_BATCH_X0), t_end, outdir()))
    path = os.path.join(systems, "example_iii.json")
    ops.append(_simulate_op(pf, "examples/iii/regularized/x2",
                            ["examples", "iii"], path, "regularized",
                            starts((0.1, 0.1, 0.1), 2), reg_t_end, outdir(),
                            eps=1e-3))
    path = os.path.join(systems, "example_i.json")
    ops.append(_simulate_op(pf, "examples/i/pws/x1", ["examples", "i"], path,
                            "pws", starts((0.1, -0.5, 0.5), 1), t_end, outdir()))
    ops.append(_simulate_op(pf, "examples/ii/regularized/x1", ["examples", "ii"],
                            os.path.join(systems, "example_ii.json"),
                            "regularized", starts((0.1, 0.1, 0.1), 1), reg_t_end,
                            outdir(), eps=1e-3))
    forms = []
    for params in normal_forms(pf, rng, 2 if small else CLI_NORMAL_FORMS):
        path = os.path.join(workdir, f"nf{len(forms)}.json")
        _write_normal_form(path, params)
        forms.append(path)
    for path in forms:
        for sigmoid in ("tanh", "algebraic"):
            ops.append(_classify_op(pf, path, sigmoid, outdir(), schema))
            ops.append(_fit_op(pf, path, sigmoid, outdir()))
        ops.append(_manifold_op(pf, path, 20 if small else 100, outdir()))
    return ops


WORKLOADS = {
    "regularized": regularized,
    "event-driven": event_driven,
    "analysis": analysis,
    "cli-batch": cli_batch,
}
