"""Command-line front end.

Commands: classify, folded, fit, show, manifold, simulate, examples. System
definitions are JSON files (expression fields or a normal_form block);
reports are JSON on stdout, bulk numeric output is CSV. Exit codes: 0
success; 2 input error, a ValidationError; 3 any other failure, a failure
to compute, whose message names the system file.

simulate and examples run several --x0 starts on up to one process per CPU
in os.sched_getaffinity, the children forked from this one (_batch); the
files, summaries and errors are those of running the starts in turn.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys as _sys
from dataclasses import dataclass

from . import sim
from .exceptions import PwsfoldError, ValidationError
from .expr import to_text
from .pws import MAX_SAMPLES, PiecewiseSystem, integrate_pws
from .regularize import (Sigmoid, builtin_sigmoid, critical_manifold,
                         critical_manifold_csv, nonhyperbolic_curve,
                         nonhyperbolic_curve_csv, SIGMOID_NAMES)
from .twofold import (TwoFoldParams, build_normal_form, classify_twofold,
                      canonical_coefficients, canonical_fit, folded_points,
                      folded_reports)


@dataclass
class SystemFile:
    """Parsed system definition: expression fields, or a normal form."""

    system: PiecewiseSystem
    normal_form: TwoFoldParams | None


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def load_system_file(path: str) -> SystemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise _fail(path, "top level must be an object")

    nf = doc.get("normal_form")
    if nf is not None:
        if not isinstance(nf, dict):
            raise _fail(path, "normal_form: must be an object")
        vals = {}
        for key in ("a1", "a2", "b1", "b2"):
            if key not in nf:
                raise _fail(path, f"normal_form.{key}: missing")
            if not isinstance(nf[key], (int, float)) or isinstance(nf[key], bool):
                raise _fail(path, f"normal_form.{key}: must be a number")
            vals[key] = nf[key]
        alpha = nf.get("alpha", 0.0)
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise _fail(path, "normal_form.alpha: must be a number")
        if vals["a1"] not in (-1, 1) or vals["a2"] not in (-1, 1):
            raise _fail(path, "normal_form.a1/a2: must be +1 or -1")
        try:
            params = TwoFoldParams(int(vals["a1"]), int(vals["a2"]),
                                   float(vals["b1"]), float(vals["b2"]), float(alpha))
        except (ValueError, OverflowError) as exc:  # an integer too large for a float
            raise _fail(path, f"normal_form: {exc}") from exc
        return SystemFile(build_normal_form(params), params)

    def expressions(key, required):
        arr = doc.get(key)
        if arr is None:
            if required:
                raise _fail(path, f"{key}: missing")
            return None
        if not isinstance(arr, list) or len(arr) != 3:
            raise _fail(path, f"{key}: must be an array of 3 expression strings")
        for i, s in enumerate(arr):
            if not isinstance(s, str):
                raise _fail(path, f"{key}[{i}]: must be a string")
        return arr

    fplus = expressions("fplus", required=True)
    fminus = expressions("fminus", required=True)
    hidden = expressions("hidden", required=False)
    try:
        system = PiecewiseSystem.from_strings(fplus, fminus, hidden)
    except PwsfoldError as exc:
        raise _fail(path, str(exc)) from exc
    return SystemFile(system, None)


def _parse_grid(spec: str, flag: str) -> tuple[float, float, int]:
    """(LO, HI, COUNT) of a LO:HI:COUNT flag value."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{flag}: expected LO:HI:COUNT, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{flag}: LO and HI must be finite, got {spec!r}")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"{flag}: HI - LO must be finite, got {spec!r}")
    if n < 1:
        raise ValidationError(f"{flag}: COUNT must be at least 1")
    return lo, hi, n


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values from lo to hi (lo alone when n is 1)."""
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _parse_x0(spec: str) -> tuple[float, float, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--x0: expected three comma-separated reals, got {spec!r}")
    try:
        x0 = tuple(float(v) for v in parts)
    except ValueError as exc:
        raise ValidationError(f"--x0: {exc}") from exc
    if not all(math.isfinite(v) for v in x0):
        raise ValidationError(f"--x0: values must be finite, got {spec!r}")
    return x0  # type: ignore[return-value]


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        _sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- commands ----------------------------------------------------------------


def _normal_form_and_sigmoid(args) -> tuple[TwoFoldParams, Sigmoid]:
    """The normal form of args.file and the sigmoid named by --sigmoid."""
    params = load_system_file(args.file).normal_form
    if params is None:
        raise _fail(args.file, "normal_form: missing (required by this command)")
    return params, builtin_sigmoid(args.sigmoid)


def _folded_json(params: TwoFoldParams, s) -> list[dict]:
    """Folded-point reports as JSON objects; none when alpha = 0, where the
    regularization is degenerate and has no canonical coefficients."""
    if params.alpha == 0.0:
        return []
    return [r.to_json_dict() for r in folded_reports(params, s)]


def cmd_classify(args) -> int:
    params, s = _normal_form_and_sigmoid(args)
    tc = classify_twofold(params)
    report = {
        "flavour": tc.flavour.value,
        "determinacy_breaking": tc.determinacy_breaking,
        "folded_points": _folded_json(params, s),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_folded(args) -> int:
    report = _folded_json(*_normal_form_and_sigmoid(args))
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_fit(args) -> int:
    params, s = _normal_form_and_sigmoid(args)
    rows = []
    for phi_s in folded_points(params):
        p_c, q_c, r_c = canonical_coefficients(params, s, phi_s)
        p_f, q_f, r_f = canonical_fit(params, s, phi_s)
        rows.append({
            "phi_s": phi_s,
            "closed_form": {"p": p_c, "q": q_c, "r": r_c},
            "fit": {"p": p_f, "q": q_f, "r": r_f},
            "relative_difference": {
                "p": abs(p_f - p_c) / max(abs(p_c), 1e-300),
                "q": abs(q_f - q_c) / max(abs(q_c), 1e-300),
                "r": abs(r_f - r_c) / max(abs(r_c), 1e-300),
            },
        })
    _write_text(args.out, json.dumps(rows, indent=2) + "\n")
    return 0


def cmd_show(args) -> int:
    sf = load_system_file(args.file)
    lines = []
    if sf.normal_form is not None:
        nf = sf.normal_form
        lines.append(f"normal_form: a1={nf.a1} a2={nf.a2} b1={nf.b1!r} "
                     f"b2={nf.b2!r} alpha={nf.alpha!r}")
    for name, comps in (("fplus", sf.system.fplus),
                        ("fminus", sf.system.fminus),
                        ("hidden", sf.system.hidden)):
        for i, comp in enumerate(comps):
            lines.append(f"{name}[{i}] = {to_text(comp)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_manifold(args) -> int:
    sf = load_system_file(args.file)
    if args.lcurve_out is not None and sf.normal_form is None:
        raise ValidationError("--lcurve-out: the non-hyperbolic curve needs a system "
                              "file with a normal_form block")
    x2_spec = _parse_grid(args.x2, "--x2")
    x3_spec = _parse_grid(args.x3, "--x3")
    # bounds on the parsed counts, before any list is built
    if x2_spec[2] * x3_spec[2] > MAX_SAMPLES:
        raise ValidationError(f"--x2, --x3: COUNT x COUNT must not exceed {MAX_SAMPLES}")
    # checked for every file, also one without the curve's normal_form block
    if args.lcurve_samples < 2:
        raise ValidationError("--lcurve-samples: need at least 2 samples")
    if args.lcurve_samples > MAX_SAMPLES:
        raise ValidationError(f"--lcurve-samples: must not exceed {MAX_SAMPLES}")
    points = critical_manifold(sf.system, _grid(*x2_spec), _grid(*x3_spec))
    # the curve before any write, so a bad --lcurve-samples leaves no file
    nf = sf.normal_form
    samples = None if nf is None else nonhyperbolic_curve(nf, args.lcurve_samples)
    _write_text(args.out, critical_manifold_csv(points))
    if samples is not None:
        if args.lcurve_out is not None:
            _write_text(args.lcurve_out, nonhyperbolic_curve_csv(samples))
        elif args.out is not None and args.out != "-":
            _write_text(args.out + ".lcurve.csv", nonhyperbolic_curve_csv(samples))
    return 0


def _simulate(system: PiecewiseSystem, args, default_x0) -> int:
    """Run simulate or examples: each --x0 (default_x0 when none is given)
    to --t-end, trajectory CSV to --out, a summary line per run."""
    if not 0.0 < args.t_end < math.inf:
        raise ValidationError("--t-end: must be positive and finite")
    if not 0.0 < args.stride < math.inf:
        raise ValidationError("--stride: must be positive and finite")
    if args.eps is not None and not 0.0 < args.eps < math.inf:
        raise ValidationError("--eps: must be positive and finite")
    opts = sim.IntegratorOptions(dense_output_stride=args.stride)
    if args.t_end > MAX_SAMPLES * args.stride:
        raise ValidationError(f"--stride: --t-end / --stride must not exceed {MAX_SAMPLES}")
    x0s = [_parse_x0(s) for s in args.x0] or [default_x0]
    if len(x0s) > 1 and (args.out is None or args.out == "-"):
        raise ValidationError("--out: required when several --x0 are given")
    if args.mode == "regularized" and args.eps is None:
        raise ValidationError("--eps: required in regularized mode")

    def run_start(x0) -> tuple[str, str]:
        if args.mode == "regularized":
            traj = sim.regularized_trajectory(system, builtin_sigmoid(args.sigmoid),
                                              args.eps, x0, args.t_end, opts)
        else:
            traj = integrate_pws(system, x0, args.t_end, opts)
        return sim.trajectory_csv(traj), (
            f"events={traj.events} final=({traj.final_state[0]:.6g},"
            f"{traj.final_state[1]:.6g},{traj.final_state[2]:.6g}) "
            f"non_unique={str(traj.non_unique).lower()}")

    # all runs before any write, so a failed start leaves no output file;
    # imported here, as only simulate and examples run batches
    from ._batch import run_batch
    outputs = run_batch(run_start, x0s)
    for i, (text, summary) in enumerate(outputs):
        if len(outputs) == 1:
            out = args.out
        else:
            root, ext = os.path.splitext(args.out)
            out = f"{root}.{i}{ext or '.csv'}"
        _write_text(out, text)
        stream = _sys.stderr if out in (None, "-") else _sys.stdout
        stream.write(summary + "\n")
    return 0


def cmd_simulate(args) -> int:
    return _simulate(load_system_file(args.file).system, args, (0.1, 0.1, 0.1))


def cmd_examples(args) -> int:
    return _simulate(sim.example_system(args.which), args, sim.DEFAULT_EXAMPLE_X0[args.which])


# --- entry point ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pwsfold argument parser, built on the first call and shared by
    every later one: main() parses each argv with it. Parsing leaves the
    parser as it was; the --x0 list default is copied, not appended to."""
    ap = argparse.ArgumentParser(
        prog="pwsfold",
        description="Two-fold singularities of piecewise-smooth systems: "
                    "classification, folded points, regularization, simulation.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_sigmoid(p):
        p.add_argument("--sigmoid", choices=SIGMOID_NAMES, default="tanh")

    for name, func, summary in (
            ("classify", cmd_classify, "two-fold class and folded-point report"),
            ("folded", cmd_folded, "folded-point report only"),
            ("fit", cmd_fit, "closed-form vs fitted canonical coefficients"),
            ("show", cmd_show, "print the parsed system in canonical form")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        if func is not cmd_show:
            add_sigmoid(p)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("manifold", help="critical-manifold CSV sampler")
    p.add_argument("file")
    p.add_argument("--x2", required=True, metavar="LO:HI:COUNT")
    p.add_argument("--x3", required=True, metavar="LO:HI:COUNT")
    p.add_argument("--out", default=None)
    p.add_argument("--lcurve-out", default=None)
    p.add_argument("--lcurve-samples", type=int, default=101)
    p.set_defaults(func=cmd_manifold)

    def add_sim_flags(p):
        p.add_argument("--mode", choices=("pws", "regularized"), default="regularized")
        p.add_argument("--eps", type=float, default=None)
        add_sigmoid(p)
        p.add_argument("--t-end", type=float, default=10.0, dest="t_end")
        p.add_argument("--x0", action="append", default=[],
                       help="comma-separated initial state; repeatable")
        p.add_argument("--stride", type=float, default=0.01)
        p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="integrate a system file to CSV")
    p.add_argument("file")
    add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("examples", help="integrate a bundled attractor example")
    p.add_argument("which")
    add_sim_flags(p)
    p.set_defaults(func=cmd_examples)

    return ap


# Flags whose values may start with '-': argparse reads "--x0 -5,0,0" as a
# flag without its value, so main() rewrites it to "--x0=-5,0,0".
_SIGNED_VALUE_FLAGS = ("--x0", "--x2", "--x3")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out = []
    it = iter(argv)
    for arg in it:
        value = next(it, None) if arg in _SIGNED_VALUE_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_signed_values(_sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValidationError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PwsfoldError, ArithmeticError, ValueError) as exc:
        # a failure to compute on accepted input; a raw ArithmeticError or
        # ValueError comes from a compiled expression of the system file
        source = getattr(args, "file", None) or f"bundled example_{args.which}.json"
        _sys.stderr.write(f"numerical failure: {exc!r} (system file: {source})\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
