"""Print `name sha256` for a fixed set of pwsfold outputs.

    python3 tools/output_digest.py

Run from anywhere; the package is imported from this checkout's src/. The
outputs are the trajectory CSVs of event-driven runs on every bundled system,
on a system whose f1 is cubic in lambda, on two invisible_db starts that
slide into its folded node, and on three starts that reach the tangency and
no-sliding-root policies (a grazing arrival that slides, one that crosses,
and a start on the surface where f1 has no root); regularized runs of
examples i-iii at eps 1e-3 with each built-in sigmoid, and at eps 1e-4 and
1e-5; the manifold CSV, with its non-hyperbolic curve, of a bundled normal
form and of one with another alpha (the only parameter that shapes a normal
form's manifold), and the manifold CSV of the lambda-cubic system (the
root-scan path); the CSV of a regularized `examples` run; the exit code,
standard output and CSVs of a 3-start `simulate` batch, whose starts run in
forked processes on a host with more than one CPU; the JSON that the CLI's
classify, fit and folded commands write for the bundled normal forms; and
the exit code, standard output and standard error of failing CLI calls, one
per error path and one for a batch whose failing start runs in a child
(temporary paths replaced by a fixed token).
Then the critical-manifold quantities, as float.hex text: surface_curvature
of every bundled system on both sides of a grid of surface points, and
slow_u_dot, degeneracy_probe and folded_conditions_residuals of the bundled
normal forms with each built-in sigmoid. An empty `diff` of the printouts of
two checkouts shows that these outputs are byte-identical. Stdlib only;
takes about 2 s on one core of a 2-core x86 host (Python 3.11).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from pwsfold import cli, sim  # noqa: E402
from pwsfold.pws import PiecewiseSystem, integrate_pws  # noqa: E402
from pwsfold.regularize import (SIGMOID_NAMES, builtin_sigmoid,  # noqa: E402
                                critical_manifold, degeneracy_probe,
                                nonhyperbolic_curve, slow_u_dot)
from pwsfold.twofold import (TwoFoldParams, build_normal_form,  # noqa: E402
                             folded_conditions_residuals, folded_points)

# (bundled system, start, t_end): the bases of the benchmark's event-driven
# cases, and its two starts that slide into the folded node of invisible_db.
PWS_CASES = (
    ("example_i", (0.1, -0.5, 0.5), 50.0),
    ("example_i", (-0.3, -0.3, 0.8), 50.0),
    ("example_ii", (0.1, -0.5, 0.5), 50.0),
    ("example_ii", (-0.5, 0.5, 0.5), 50.0),
    ("example_ii", (0.5, 1.0, 1.0), 50.0),
    ("example_iii", (-0.3, -0.3, 0.8), 50.0),
    ("invisible_db", (0.1, 0.1, 0.1), 50.0),
    ("mixed_db", (0.1, 0.1, 0.1), 50.0),
    ("mixed_db", (0.5, 1.0, 1.0), 50.0),
    ("visible_db", (0.1, 0.1, 0.1), 50.0),
    ("section6_linear", (0.1, 0.1, 0.1), 50.0),
    ("section6_nonlinear", (0.1, 0.1, 0.1), 50.0),
    ("invisible_db", (0.5084476707878112, 1.0174576234719783, 0.9968842799984566),
     4.652057),
    ("invisible_db", (-0.4957, 0.5032, 0.4863), 2.087855),
)
# Section-6 pair with a hidden term cubic in lambda (the root-scan path).
CUBIC_SYSTEM = (("-1", "-1", "0"), ("1", "-1", "0"), ("0.2 + 0.1*lambda", "0", "0"))
# (name, system, start, t_end): f+ = (-10 x1, 1, 0) grazes x1 = 0 near
# t = 2.013, where f- makes it slide or cross; the normal form started in its
# crossing region x2 x3 < 0 has no sliding root and leaves to sign(f1).
POLICY_CASES = (
    ("tangency_slide", PiecewiseSystem.from_strings(("-10*x1", "1", "0"), ("1", "0", "1")),
     (0.01, 0.0, 0.0), 5.0),
    ("tangency_cross", PiecewiseSystem.from_strings(("-10*x1", "1", "0"), ("-1", "0", "1")),
     (0.01, 0.0, 0.0), 5.0),
    ("no_sliding_root", build_normal_form(TwoFoldParams(1, 1, -2, -1, 0.0)),
     (0.0, 1.0, -1.0), 1.0),
)
# (example, eps, t_end, sigmoid): regularized runs deep in the layer regime.
SMALL_EPS_CASES = (
    ("ii", 1e-5, 10.0, "tanh"),
    ("ii", 1e-5, 10.0, "cubic"),
    ("iii", 1e-4, 16.0, "tanh"),
)
# Starts of the CLI batch, one per process on a host with 3+ CPUs.
BATCH_X0 = ("0.1,-0.5,0.5", "-0.5,0.5,0.5", "0.5,1,1")
NORMAL_FORMS = ("invisible_db", "visible_db", "mixed_db")
BUNDLED = ("example_i", "example_ii", "example_iii", "invisible_db", "mixed_db",
           "section6_linear", "section6_nonlinear", "visible_db")
GRID = tuple(-2.0 + 0.2 * i for i in range(21))


def _system_path(name: str) -> str:
    return os.path.join(SRC, "pwsfold", "systems", f"{name}.json")


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _cli_output(argv, out: str, files=None) -> bytes:
    """Exit code, standard output and the files written: the one named by
    --out, or each of files in turn."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv + ["--out", out])
    data = f"exit={code}\n{printed.getvalue()}".encode()
    for path in files or [out]:
        with open(path, "rb") as fh:
            data += fh.read()
    return data


def _cli_error(argv, tmp: str) -> bytes:
    """Exit code, standard output and standard error of a failing call,
    with tmp replaced by a fixed token."""
    printed, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
        code = cli.main(argv)
    text = f"exit={code}\n{printed.getvalue()}\n{errors.getvalue()}"
    return text.replace(tmp, "<tmp>").encode()


def _write(tmp: str, name: str, text: str) -> str:
    """Write text to tmp/name and return that path."""
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _manifold_files(tmp: str):
    """Yield (name, path) of the system files whose manifold CSVs are hashed."""
    yield "invisible_db", _system_path("invisible_db")
    yield "alpha=0.5", _write(tmp, "alpha.json", json.dumps({"normal_form": {
        "a1": 1, "a2": 1, "b1": -2, "b2": -1, "alpha": 0.5}}))
    fplus, fminus, hidden = CUBIC_SYSTEM
    yield "lambda_cubic", _write(tmp, "lambda_cubic.json", json.dumps(
        {"fplus": fplus, "fminus": fminus, "hidden": hidden}))


def _error_cases(tmp: str):
    """Yield (name, argv) for one failing CLI call per error path."""
    bad_json = _write(tmp, "bad.json", "{")
    zero_div = _write(tmp, "zero_div.json", json.dumps(
        {"fplus": ["1/(x2-x2)", "0", "0"], "fminus": ["1", "0", "0"]}))
    singular = _write(tmp, "singular.json", json.dumps(
        {"fplus": ["-1/x1", "0", "0"], "fminus": ["1", "0", "0"]}))
    math_domain = _write(tmp, "math_domain.json", json.dumps(
        {"fplus": ["sqrt(x2)", "1", "0"], "fminus": ["x3", "0", "1"],
         "hidden": ["0.2", "0", "0"]}))
    out = ["--out", os.path.join(tmp, "never.csv")]
    yield "missing_file", ["classify", os.path.join(tmp, "missing.json")]
    yield "invalid_json", ["show", bad_json]
    yield "no_normal_form", ["classify", singular]
    yield "unknown_example", ["examples", "iv", "--eps", "1e-3", "--t-end", "1"]
    yield "eps_zero", ["examples", "i", "--eps", "0", "--t-end", "1"] + out
    yield "eps_negative_pws", ["simulate", _system_path("example_ii"), "--mode", "pws",
                               "--eps", "-1", "--t-end", "1"] + out
    yield "stride_too_small", ["examples", "ii", "--eps", "1e-3", "--t-end", "0.1",
                               "--stride", "1e-300"] + out
    yield "stride_zero", ["examples", "ii", "--eps", "1e-3", "--t-end", "1",
                          "--stride", "0"] + out
    manifold = ["manifold", _system_path("invisible_db")]
    yield "grid_too_large", manifold + ["--x2=-1:1:100000", "--x3=-1:1:100000"] + out
    yield "lcurve_too_large", manifold + ["--x2=-1:1:3", "--x3=-1:1:3",
                                          "--lcurve-samples", "10000001"] + out
    yield "lcurve_too_small", manifold + ["--x2=-1:1:3", "--x3=-1:1:3",
                                          "--lcurve-samples", "1"] + out
    yield "lcurve_without_normal_form", ["manifold", _system_path("example_ii"),
                                         "--x2=-1:1:3", "--x3=-1:1:3", "--lcurve-out",
                                         os.path.join(tmp, "never.lcurve.csv")] + out
    yield "zero_division", ["simulate", zero_div, "--mode", "pws", "--t-end", "1",
                            "--x0", "1,0,0"] + out
    yield "integration_error", ["simulate", singular, "--mode", "pws", "--t-end", "2",
                                "--x0", "1,0,0"] + out
    yield "math_domain", ["manifold", math_domain, "--x2=1:-1:3", "--x3=-1:1:3"] + out
    # the failing second start runs in a forked child on a host with 2+ CPUs
    yield "batch_failure", ["simulate", singular, "--mode", "pws", "--t-end", "2",
                            "--x0=-5,0,0", "--x0=1,0,0"] + out


def _hex_or_error(fn, *args) -> str:
    """float.hex of each value fn returns, or the name of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the failure is the output
        return type(exc).__name__
    values = value if isinstance(value, tuple) else (value,)
    return " ".join(v.hex() for v in values)


def _manifold_quantities():
    """Yield (name, text) for the critical-manifold quantities."""
    for name in BUNDLED:
        system = cli.load_system_file(_system_path(name)).system
        yield f"surface_curvature/{name}", "\n".join(
            _hex_or_error(system.surface_curvature, (0.0, x2, x3), side)
            for x2 in GRID for x3 in GRID for side in (1, -1))
    forms = [cli.load_system_file(_system_path(name)) for name in NORMAL_FORMS]
    sigmoids = [builtin_sigmoid(n) for n in SIGMOID_NAMES]
    yield "slow_u_dot/normal_forms", "\n".join(
        _hex_or_error(slow_u_dot, sf.system, s, pt)
        for sf in forms for s in sigmoids
        for pt in critical_manifold(sf.system, GRID, GRID))
    yield "degeneracy_probe/normal_forms", "\n".join(
        _hex_or_error(degeneracy_probe, sf.normal_form, s, point, r)
        for sf in forms for s in sigmoids
        for point in nonhyperbolic_curve(sf.normal_form, 11)[1:-1]
        for r in (1, 2, 3, 4))
    yield "folded_conditions_residuals/normal_forms", "\n".join(
        _hex_or_error(folded_conditions_residuals, sf.normal_form, s, phi_s)
        for sf in forms for s in sigmoids
        for phi_s in folded_points(sf.normal_form))


def digests():
    """Yield (name, sha256) pairs in a fixed order."""
    for name, x0, t_end in PWS_CASES:
        system = cli.load_system_file(_system_path(name)).system
        traj = integrate_pws(system, x0, t_end)
        yield (f"pws/{name}/x0={x0[0]!r},{x0[1]!r},{x0[2]!r}/t={t_end!r}",
               _sha(sim.trajectory_csv(traj)))
    traj = integrate_pws(PiecewiseSystem.from_strings(*CUBIC_SYSTEM), (0.5, 0.0, 0.0), 8.0)
    yield "pws/lambda_cubic/t=8", _sha(sim.trajectory_csv(traj))
    for name, system, x0, t_end in POLICY_CASES:
        traj = integrate_pws(system, x0, t_end)
        yield (f"pws/{name}/x0={x0[0]!r},{x0[1]!r},{x0[2]!r}/t={t_end!r}",
               _sha(sim.trajectory_csv(traj)))

    for which in sim.EXAMPLE_NAMES:
        for sigmoid in ("tanh", "algebraic", "cubic"):
            traj = sim.run_example(which, 1e-3, 20.0, sigmoid)
            yield f"regularized/{which}/{sigmoid}/eps=0.001/t=20", _sha(sim.trajectory_csv(traj))
    for which, eps, t_end, sigmoid in SMALL_EPS_CASES:
        traj = sim.run_example(which, eps, t_end, sigmoid)
        yield (f"regularized/{which}/{sigmoid}/eps={eps!r}/t={t_end!r}",
               _sha(sim.trajectory_csv(traj)))

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for name, path in _manifold_files(tmp):
            out_manifold = os.path.join(tmp, f"manifold-{name}")
            manifold = _cli_output(["manifold", path, "--x2=-1:1:41", "--x3=-1:1:41"],
                                   out_manifold)
            if os.path.exists(out_manifold + ".lcurve.csv"):  # normal forms only
                with open(out_manifold + ".lcurve.csv", "rb") as fh:
                    manifold += fh.read()
            yield f"cli/manifold/{name}", _sha(manifold)
        yield ("cli/examples/iii/eps=1e-3/t=5",
               _sha(_cli_output(["examples", "iii", "--eps", "1e-3", "--t-end", "5"], out)))
        batch = os.path.join(tmp, "batch.csv")
        yield ("cli/simulate/batch",
               _sha(_cli_output(["simulate", _system_path("example_ii"), "--mode", "pws",
                                 "--t-end", "5"] + [f"--x0={x0}" for x0 in BATCH_X0],
                                batch, [os.path.join(tmp, f"batch.{i}.csv")
                                        for i in range(len(BATCH_X0))])))
        for name in NORMAL_FORMS:
            for command in ("classify", "fit", "folded"):
                yield (f"cli/{command}/{name}",
                       _sha(_cli_output([command, _system_path(name)], out)))
        for name, argv in _error_cases(tmp):
            yield f"cli/error/{name}", _sha(_cli_error(argv, tmp))

    for name, text in _manifold_quantities():
        yield name, _sha(text)


def main() -> int:
    for name, digest in digests():
        print(name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
