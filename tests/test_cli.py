import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import jsonschema
import pytest

from pwsfold import cli, sim
from pwsfold.exceptions import (DegenerateClassificationError, DegenerateSystemError,
                                EvaluationError, NonHyperbolicPointError, ParseError,
                                StepBudgetError, ValidationError)

SYSTEMS_DIR = os.path.join(os.path.dirname(cli.__file__), "systems")
SCHEMA_PATH = os.path.join(os.path.dirname(cli.__file__), "schemas",
                           "classify_report.schema.json")


def bundled(name):
    return os.path.join(SYSTEMS_DIR, name)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def child_env():
    """The environment of a child python that imports this pwsfold."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def sampling_forbidden(*args):
    raise AssertionError("the manifold was sampled past the bound")


class TestClassify:
    def test_invisible_db(self, tmp_path, capsys):
        assert run(["classify", bundled("invisible_db.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flavour"] == "invisible"
        assert report["determinacy_breaking"] is True
        assert len(report["folded_points"]) == 1
        assert report["folded_points"][0]["folded_class"] == "folded_node"

    def test_mixed_without_points(self, tmp_path, capsys):
        path = write_json(tmp_path, "m.json", {
            "normal_form": {"a1": 1, "a2": -1, "b1": 1, "b2": 0, "alpha": 0.2}})
        assert run(["classify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flavour"] == "mixed"
        assert report["folded_points"] == []

    def test_missing_field_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {
            "normal_form": {"a1": 1, "a2": 1, "b2": -1, "alpha": 0.2}})
        assert run(["classify", path]) == 2
        assert "normal_form.b1" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["b1", "b2", "alpha"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, field):
        # Python's json reads NaN and Infinity
        nf = {"a1": 1, "a2": 1, "b1": -2, "b2": -1, "alpha": 0.2, field: float("nan")}
        path = write_json(tmp_path, "nan.json", {"normal_form": nf})
        assert run(["classify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path in captured.err and field in captured.err

    @pytest.mark.parametrize("field", ["b1", "alpha"])
    def test_huge_integer_exit_2(self, tmp_path, capsys, field):
        # a JSON integer too large for a float raised OverflowError (exit 3)
        nf = {"a1": 1, "a2": 1, "b1": -2, "b2": -1, "alpha": 0.2, field: 10**400}
        path = write_json(tmp_path, "huge.json", {"normal_form": nf})
        assert run(["classify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path in captured.err and "normal_form" in captured.err

    def test_expression_file_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "e.json", {
            "fplus": ["-x2", "1", "-2"], "fminus": ["x3", "-1", "1"]})
        assert run(["classify", path]) == 2
        assert "normal_form" in capsys.readouterr().err

    def test_schema_validation(self, capsys):
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        for name in ("invisible_db.json", "visible_db.json", "mixed_db.json"):
            assert run(["classify", bundled(name)]) == 0
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, schema)

    def test_mixed_db_pairing(self, capsys):
        assert run(["classify", bundled("mixed_db.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        classes = sorted(p["folded_class"] for p in report["folded_points"])
        assert classes == ["folded_node", "folded_saddle"]


class TestFoldedAndFit:
    def test_folded_list(self, capsys):
        assert run(["folded", bundled("mixed_db.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report, list) and len(report) == 2

    def test_fit_agreement(self, capsys):
        assert run(["fit", bundled("invisible_db.json")]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        for key in ("p", "q", "r"):
            assert rows[0]["relative_difference"][key] < 1e-3


class TestAlphaZero:
    """alpha = 0: no folded points to report and no coefficients to fit."""

    @pytest.fixture
    def path(self, tmp_path):
        return write_json(tmp_path, "nf0.json", {
            "normal_form": {"a1": 1, "a2": 1, "b1": -2, "b2": -1, "alpha": 0}})

    def test_classify_reports_no_points(self, path, capsys):
        assert run(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)["folded_points"] == []

    def test_folded_reports_no_points(self, path, capsys):
        assert run(["folded", path]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_fit_exit_2(self, path, capsys):
        assert run(["fit", path]) == 2
        assert "alpha != 0" in capsys.readouterr().err


class TestManifold:
    def test_lcurve_degenerate_alpha_zero(self, tmp_path):
        path = write_json(tmp_path, "nf0.json", {
            "normal_form": {"a1": 1, "a2": 1, "b1": -2, "b2": -1, "alpha": 0}})
        out = tmp_path / "m.csv"
        lcurve = tmp_path / "l.csv"
        assert run(["manifold", path, "--x2=-1:1:5", "--x3=-1:1:5",
                    "--out", str(out), "--lcurve-out", str(lcurve)]) == 0
        rows = lcurve.read_text().strip().split("\n")[1:]
        for row in rows:
            _, x2, x3, _ = row.split(",")
            assert float(x2) == 0.0 and float(x3) == 0.0

    def test_lcurve_perturbed_row(self, tmp_path):
        out = tmp_path / "m.csv"
        lcurve = tmp_path / "l.csv"
        assert run(["manifold", bundled("invisible_db.json"),
                    "--x2", "0:1:3", "--x3", "0:1:3",
                    "--out", str(out), "--lcurve-out", str(lcurve),
                    "--lcurve-samples", "3"]) == 0
        rows = lcurve.read_text().strip().split("\n")[1:]
        lam0 = rows[1].split(",")
        assert float(lam0[0]) == 0.0
        assert float(lam0[1]) == pytest.approx(0.2)
        assert float(lam0[2]) == pytest.approx(-0.2)

    def test_negative_grid_after_space(self, tmp_path):
        spaced, attached = tmp_path / "s.csv", tmp_path / "a.csv"
        path = bundled("invisible_db.json")
        assert run(["manifold", path, "--x2", "-1:1:5", "--x3", "-1:1:5",
                    "--out", str(spaced)]) == 0
        assert run(["manifold", path, "--x2=-1:1:5", "--x3=-1:1:5",
                    "--out", str(attached)]) == 0
        assert spaced.read_bytes() == attached.read_bytes()

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        assert run(["manifold", bundled("invisible_db.json"),
                    "--x2", "0:1:0", "--x3", "0:1:3"]) == 2
        assert "COUNT" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan:1:3", "-1:inf:3"])
    def test_non_finite_grid_exit_2(self, tmp_path, capsys, grid):
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"), f"--x2={grid}",
                    "--x3=0:1:3", "--out", str(out)]) == 2
        assert "--x2" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_span_exit_2(self, tmp_path, capsys):
        # finite ends whose difference overflows built the grid [nan, inf, inf]
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"), "--x2=-1e308:1e308:3",
                    "--x3=-1:1:3", "--out", str(out)]) == 2
        assert "--x2: HI - LO must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("f1, code, error", [
        ("1/x2", 3, "ZeroDivisionError"), ("sqrt(x2)", 3, "math domain error")])
    def test_f1_raising_at_a_node(self, tmp_path, capsys, f1, code, error):
        # f1 quadratic in lambda, raising at the grid node x2 = 0 or -1
        path = write_json(tmp_path, "raise.json", {
            "fplus": [f1, "1", "0"], "fminus": ["x3", "0", "1"], "hidden": ["0.2", "0", "0"]})
        out = tmp_path / "m.csv"
        assert run(["manifold", path, "--x2=1:-1:3", "--x3=-1:1:3", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert error in err and path in err
        assert not out.exists()

    def test_bad_lcurve_samples_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"), "--x2=-1:1:3",
                    "--x3=-1:1:3", "--out", str(out), "--lcurve-samples", "1"]) == 2
        assert "need at least 2 samples" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "m.csv.lcurve.csv").exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--x2=-1:1:100000", "--x3=-1:1:100000"], "--x2, --x3"),
        (["--x2=-1:1:10001", "--x3=-1:1:1000"], "--x2, --x3"),
        (["--x2=-1:1:3", "--x3=-1:1:3", "--lcurve-samples", "10000001"],
         "--lcurve-samples")])
    def test_too_many_samples_exit_2(self, tmp_path, capsys, monkeypatch, flags, flag):
        # 10^10 grid points ran until memory ran out; samplers that fail the
        # test stand in, so a missing bound costs nothing to find
        monkeypatch.setattr(cli, "critical_manifold", sampling_forbidden)
        monkeypatch.setattr(cli, "nonhyperbolic_curve", sampling_forbidden)
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"), *flags,
                    "--out", str(out)]) == 2
        assert f"error: {flag}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sample_bound_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 12)
        path, out = bundled("invisible_db.json"), str(tmp_path / "m.csv")
        assert run(["manifold", path, "--x2=-1:1:3", "--x3=-1:1:4",
                    "--lcurve-samples", "12", "--out", out]) == 0
        assert run(["manifold", path, "--x2=-1:1:13", "--x3=-1:1:1", "--out", out]) == 2
        assert run(["manifold", path, "--x2=-1:1:3", "--x3=-1:1:4",
                    "--lcurve-samples", "13", "--out", out]) == 2

    def test_negative_zero_grid_prints_minus_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"), "--x2=-0:1:1",
                    "--x3=0:1:1", "--out", str(out)]) == 0
        assert out.read_text() == ("lambda,x2,x3,stability\n"
                                   "-1,-0,0,repelling\n1,-0,0,attracting\n")

    def test_manifold_csv_content(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["manifold", bundled("invisible_db.json"),
                    "--x2", "1:1:1", "--x3", "1:1:1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "lambda,x2,x3,stability"
        assert len(lines) == 2 and lines[1].endswith("attracting")


_NF = {"a1": 1, "a2": 1, "b1": -2, "b2": -1}
_FIELD = ["-1", "0", "0"]
_GRID = ["--x2=-1:1:3", "--x3=-1:1:3"]
_PWS = ["--mode", "pws", "--t-end", "1"]


class TestInputChecks:
    # (system file, or None for a bundled one; the flags after FILE; the
    # flag the message names, or None for the file; the message's start)
    @pytest.mark.parametrize("doc, flags, flag, message", [
        ([_NF], _GRID, None, "top level must be an object"),
        ({"normal_form": [_NF]}, _GRID, None, "normal_form: must be an object"),
        ({"normal_form": dict(_NF, b2="-1")}, _GRID, None, "normal_form.b2: must be a number"),
        ({"normal_form": dict(_NF, alpha=True)}, _GRID, None, "normal_form.alpha: must be"),
        ({"normal_form": dict(_NF, a1=2)}, _GRID, None, "normal_form.a1/a2: must be +1"),
        ({"fplus": _FIELD}, _GRID, None, "fminus: missing"),
        ({"fplus": _FIELD[:2], "fminus": _FIELD}, _GRID, None, "fplus: must be an array"),
        ({"fplus": _FIELD, "fminus": _FIELD, "hidden": ["0", 0, "0"]}, _GRID, None,
         "hidden[1]: must be a string"),
        (None, ["--x2=-1:1", "--x3=-1:1:3"], "--x2", "expected LO:HI:COUNT"),
        (None, ["--x2=-1:1:3", "--x3=-1:1:three"], "--x3", "invalid literal"),
        (None, _PWS + ["--x0=0.1,0.1"], "--x0", "expected three comma-separated reals"),
        (None, _PWS + ["--x0=0.1,0.1,zero"], "--x0", "could not convert"),
        # example_ii has expression fields, no normal_form block, so no curve
        (None, _GRID + ["--lcurve-out={tmp}/l.csv"], "--lcurve-out",
         "the non-hyperbolic curve needs a system file with a normal_form block"),
        # checked although example_ii draws no curve
        (None, _GRID + ["--lcurve-samples=-5"], "--lcurve-samples", "need at least 2 samples"),
        (None, _PWS + ["--stride=0"], "--stride", "must be positive and finite"),
    ], ids=["top_level", "normal_form", "number", "alpha", "sign", "missing",
            "length", "string", "grid_parts", "grid_count", "x0_parts", "x0_value",
            "lcurve_without_normal_form", "lcurve_too_small", "stride_zero"])
    def test_exit_2_names_it_and_writes_nothing(self, tmp_path, capsys, doc, flags, flag,
                                                message):
        command = "simulate" if flag in ("--x0", "--stride") else "manifold"
        if doc is None:
            path = bundled("invisible_db.json" if flag in ("--x2", "--x3")
                           else "example_ii.json")
        else:
            path = write_json(tmp_path, "system.json", doc)
        before = os.listdir(tmp_path)
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert run([command, path] + flags + ["--out", str(tmp_path / "out.csv")]) == 2
        assert f"{flag or path}: {message}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == before


class TestSimulate:
    def test_regularized_example_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run(["simulate", bundled("example_i.json"),
                    "--mode", "regularized", "--eps", "1e-3",
                    "--sigmoid", "tanh", "--t-end", "5",
                    "--x0", "0.1,-0.5,0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x1,x2,x3,lambda,mode"
        assert len(lines) > 100
        summary = capsys.readouterr().out
        assert "events=" in summary and "non_unique=" in summary

    def test_pws_section6_sliding_lambda_zero(self, tmp_path):
        out = tmp_path / "t.csv"
        # attracting orientation so the trajectory reaches the surface
        path = bundled("section6_nonlinear.json")
        assert run(["simulate", path, "--mode", "pws", "--t-end", "2",
                    "--x0", "0.5,0,0", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        sliding = [r for r in rows if r[5] == "sliding"]
        assert sliding
        assert all(abs(float(r[4])) < 1e-9 for r in sliding if r[4])

    def test_eps_zero_exit_2(self, tmp_path, capsys):
        assert run(["simulate", bundled("example_i.json"),
                    "--mode", "regularized", "--eps", "0",
                    "--t-end", "1"]) == 2

    def test_eps_required_in_regularized_mode(self, tmp_path, capsys):
        assert run(["simulate", bundled("example_i.json"),
                    "--mode", "regularized", "--t-end", "1"]) == 2

    def test_deterministic_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", bundled("section6_linear.json"), "--mode", "pws",
                "--t-end", "2", "--x0", "0.5,0,0"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @staticmethod
    def check_batch_matches_single_runs(tmp_path):
        # five starts: more than this host's CPUs, or than the three of
        # test_batch_on_three_cpus, so some process runs two or more
        argv = ["simulate", bundled("section6_linear.json"), "--mode", "pws",
                "--t-end", "1"]
        starts = ["0.5,0,0", "0.25,0,0", "0.1,0.2,-0.3", "-0.5,0.1,0.1", "0.3,-0.2,0"]
        assert run(argv + [f"--x0={x0}" for x0 in starts]
                   + ["--out", str(tmp_path / "batch.csv")]) == 0
        for i, x0 in enumerate(starts):
            single = tmp_path / f"single{i}.csv"
            assert run(argv + [f"--x0={x0}", "--out", str(single)]) == 0
            assert (tmp_path / f"batch.{i}.csv").read_bytes() == single.read_bytes()

    def test_batch_x0_matches_single_runs(self, tmp_path):
        self.check_batch_matches_single_runs(tmp_path)

    def test_batch_on_three_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        self.check_batch_matches_single_runs(tmp_path)

    def test_batch_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the second start hits the 1/x1 singularity of test_numerical_failure_exit_3;
        # with two CPUs it runs in a forked child
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = write_json(tmp_path, "sing.json", {
            "fplus": ["-1/x1", "0", "0"], "fminus": ["1", "0", "0"]})
        out = tmp_path / "out"
        out.mkdir()
        argv = ["simulate", path, "--mode", "pws", "--t-end", "2"]
        code = run(argv + ["--x0=-5,0,0", "--x0", "1,0,0", "--out", str(out / "b.csv")])
        batch = capsys.readouterr()
        assert code == 3
        assert list(out.iterdir()) == []
        assert run(argv + ["--x0", "1,0,0", "--out", str(tmp_path / "alone.csv")]) == 3
        assert (batch.out, batch.err) == ("", capsys.readouterr().err)

    def test_first_failure_in_start_order(self, tmp_path, capsys, monkeypatch):
        # start 1 (a child's) fails at t = 0.5, start 2 (this process's) at
        # t = 1.125: the batch reports start 1, as one process would
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = write_json(tmp_path, "sing.json", {
            "fplus": ["-1/x1", "0", "0"], "fminus": ["1", "0", "0"]})
        argv = ["simulate", path, "--mode", "pws", "--t-end", "2",
                "--out", str(tmp_path / "b.csv")]
        assert run(argv + ["--x0=-5,0,0", "--x0=1,0,0", "--x0=1.5,0,0"]) == 3
        batch = capsys.readouterr().err
        assert run(argv + ["--x0=1,0,0"]) == 3
        assert batch == capsys.readouterr().err
        assert "t=0.5" in batch
        assert run(argv + ["--x0=1.5,0,0"]) == 3
        assert "t=1.12" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["nan,0,0", "0,inf,0"])
    def test_non_finite_x0_exit_2(self, tmp_path, capsys, x0):
        out = tmp_path / "n.csv"
        assert run(["simulate", bundled("invisible_db.json"), "--mode", "pws",
                    "--t-end", "1", f"--x0={x0}", "--out", str(out)]) == 2
        assert "--x0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_x0_after_space(self, tmp_path):
        spaced, attached = tmp_path / "s.csv", tmp_path / "a.csv"
        argv = ["examples", "ii", "--mode", "pws", "--t-end", "2"]
        assert run(argv + ["--x0", "-0.5,0.5,0.5", "--out", str(spaced)]) == 0
        assert run(argv + ["--x0=-0.5,0.5,0.5", "--out", str(attached)]) == 0
        assert spaced.read_bytes() == attached.read_bytes()
        assert spaced.read_text().split("\n")[1].startswith("0,-0.5,")

    def test_ends_at_t_end(self, tmp_path):
        # 3 * 0.1 rounds to 0.30000000000000004
        out = tmp_path / "e.csv"
        assert run(["examples", "ii", "--mode", "pws", "--t-end", "0.3",
                    "--stride", "0.1", "--out", str(out)]) == 0
        times = [row.split(",")[0] for row in out.read_text().strip().split("\n")[1:]]
        assert times == ["0", "0.10000000000000001", "0.20000000000000001",
                         "0.29999999999999999"]

    @pytest.mark.parametrize("stride", ["0", "-0.01", "nan"])
    def test_bad_stride_exit_2(self, tmp_path, capsys, stride):
        # options first: a stride they accept would hang the run below
        with pytest.raises(ValueError):
            sim.IntegratorOptions(dense_output_stride=float(stride))
        out = tmp_path / "s.csv"
        assert run(["examples", "ii", "--mode", "pws", "--t-end", "1",
                    "--stride", stride, "--out", str(out)]) == 2
        assert "error: --stride: must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_samples_exit_2(self, tmp_path):
        # 0.1 / 1e-300 samples: the recorder allocated until memory ran out.
        # A child with 1 GiB of address space fails fast if that comes back.
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from pwsfold import cli; sys.exit(cli.main(sys.argv[1:]))")
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-c", code, "examples", "ii", "--eps", "1e-3",
             "--t-end", "0.1", "--stride", "1e-300", "--out", str(out)],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "--stride" in proc.stderr
        assert not out.exists()

    def test_eps_checked_in_pws_mode(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["simulate", bundled("example_ii.json"), "--mode", "pws",
                    "--eps", "-1", "--t-end", "1", "--out", str(out)]) == 2
        assert "--eps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--eps", "nan"], ["--eps", "inf"],
                                       ["--eps", "1e-320"],
                                       ["--eps", "1e-3", "--t-end", "nan"],
                                       ["--eps", "1e-3", "--t-end", "inf"]])
    def test_non_finite_eps_or_t_end_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "e.csv"
        assert run(["examples", "ii", *flags, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_requires_out(self, capsys):
        assert run(["simulate", bundled("section6_linear.json"),
                    "--mode", "pws", "--t-end", "1",
                    "--x0", "0.5,0,0", "--x0", "0.25,0,0"]) == 2

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # field singular on the path: 1/x1 blows up approaching the surface
        path = write_json(tmp_path, "sing.json", {
            "fplus": ["-1/x1", "0", "0"], "fminus": ["1", "0", "0"]})
        code = run(["simulate", path, "--mode", "pws", "--t-end", "2",
                    "--x0", "1,0,0", "--out", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: StepUnderflowError('step size underflow")
        assert err.endswith(f"(system file: {path})\n")

    def test_arithmetic_error_exit_3(self, tmp_path, capsys):
        # compiled fields raise raw ZeroDivisionError, mapped to exit 3
        path = write_json(tmp_path, "zero.json", {
            "fplus": ["1/(x2-x2)", "0", "0"], "fminus": ["1", "0", "0"]})
        code = run(["simulate", path, "--mode", "pws", "--t-end", "1",
                    "--x0", "1,0,0", "--out", str(tmp_path / "z.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ZeroDivisionError")
        assert err.endswith(f"(system file: {path})\n")


def forbid_fork(*args, **kwargs):
    raise AssertionError("the batch forked")


class TestBatchWorkers:
    """A batch's starts run on one process per usable CPU, forked; every
    child is joined before main returns, and none is forked where that is
    unsafe or pointless."""

    ARGV = ["simulate", bundled("section6_linear.json"), "--mode", "pws",
            "--t-end", "1", "--x0=0.5,0,0", "--x0=0.25,0,0", "--x0=0.1,0.2,-0.3"]

    def test_starts_run_in_residue_classes(self, tmp_path, monkeypatch):
        # two CPUs: this process runs starts 0 and 2, one child start 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sim, "trajectory_csv", lambda traj: str(os.getpid()))
        assert run(self.ARGV + ["--out", str(tmp_path / "b.csv")]) == 0
        pids = [(tmp_path / f"b.{i}.csv").read_text() for i in range(3)]
        assert pids[0] == pids[2] == str(os.getpid()) != pids[1]

    def test_no_child_outlives_a_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run(self.ARGV + ["--out", str(tmp_path / "ok.csv")]) == 0
        assert multiprocessing.active_children() == []
        path = write_json(tmp_path, "sing.json", {
            "fplus": ["-1/x1", "0", "0"], "fminus": ["1", "0", "0"]})
        assert run(["simulate", path, "--mode", "pws", "--t-end", "2", "--x0=-5,0,0",
                    "--x0=1,0,0", "--out", str(tmp_path / "fail.csv")]) == 3
        assert multiprocessing.active_children() == []

    def test_unwinding_terminates_children(self, tmp_path, monkeypatch):
        # Ctrl-C in this process while its children are still busy: they
        # are terminated and joined, not waited for
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        parent = os.getpid()

        def integrate(system, x0, t_end, opts):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cli, "integrate_pws", integrate)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run(self.ARGV + ["--out", str(tmp_path / "b.csv")])
        assert time.monotonic() - began < 30
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    def test_dead_child_starts_rerun_here(self, tmp_path, monkeypatch):
        # a child killed mid-batch sends nothing; its starts run here instead
        assert run(self.ARGV + ["--out", str(tmp_path / "ref.csv")]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent, integrate = os.getpid(), cli.integrate_pws

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return integrate(*args)

        monkeypatch.setattr(cli, "integrate_pws", dying)
        assert run(self.ARGV + ["--out", str(tmp_path / "b.csv")]) == 0
        for i in range(3):
            assert (tmp_path / f"b.{i}.csv").read_bytes() == \
                (tmp_path / f"ref.{i}.csv").read_bytes()

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", forbid_fork)
        assert run(self.ARGV + ["--out", str(tmp_path / "b.csv")]) == 0
        assert len(list(tmp_path.iterdir())) == 3

    def test_no_affinity_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", forbid_fork)
        assert run(self.ARGV + ["--out", str(tmp_path / "b.csv")]) == 0
        assert len(list(tmp_path.iterdir())) == 3

    def test_live_thread_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", forbid_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            assert run(self.ARGV + ["--out", str(tmp_path / "b.csv")]) == 0
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert len(list(tmp_path.iterdir())) == 3


class TestFailureRule:
    """The exception's type alone decides the exit code: a ValidationError,
    a ParseError, DegenerateSystemError or DegenerateClassificationError
    among them, exits 2; any other failure exits 3 and names the system
    file."""

    SQRT = {"fplus": ["sqrt(x2)", "1", "0"], "fminus": ["x3", "0", "1"],
            "hidden": ["0.2", "0", "0"]}

    @pytest.mark.parametrize("exc, code", [
        (ValidationError("bad"), 2), (ParseError("bad", 0), 2),
        (DegenerateSystemError("bad"), 2), (DegenerateClassificationError("bad"), 2),
        (EvaluationError("bad"), 3), (StepBudgetError("bad"), 3),
        (NonHyperbolicPointError("bad"), 3), (ZeroDivisionError("bad"), 3),
        (OverflowError("bad"), 3), (ValueError("bad"), 3)])
    def test_type_decides_the_code(self, monkeypatch, capsys, exc, code):
        def fail(path):
            raise exc
        monkeypatch.setattr(cli, "load_system_file", fail)
        path = bundled("invisible_db.json")
        assert run(["show", path]) == code
        want = (f"error: {exc}\n" if code == 2
                else f"numerical failure: {exc!r} (system file: {path})\n")
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("argv", [
        ["manifold", "--x2=1:-1:3", "--x3=-1:1:3"],
        ["simulate", "--mode", "pws", "--x0=0.5,-1,0"]])
    def test_math_domain_error_exit_3(self, tmp_path, capsys, argv):
        # sqrt(x2) of f1+ at x2 = -1 raises a raw ValueError from compiled code
        path = write_json(tmp_path, "sqrt.json", self.SQRT)
        out = tmp_path / "out.csv"
        assert run(argv[:1] + [path] + argv[1:] + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: ValueError('math domain error') (system file: {path})\n")
        assert not out.exists()

    def test_bundled_example_is_named(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise StepBudgetError("exceeded max_steps=1")
        monkeypatch.setattr(sim, "regularized_trajectory", fail)
        assert run(["examples", "ii", "--eps", "1e-3", "--t-end", "1",
                    "--out", str(tmp_path / "e.csv")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: StepBudgetError('exceeded max_steps=1') "
            "(system file: bundled example_ii.json)\n")


class TestDeepExpressions:
    # Python recurses at most about 1000 frames deep, and compiles at most
    # 200 nested parentheses
    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "deep.json", {
            "fplus": ["(" * 200 + "x2" + ")" * 200, "1", "0"],
            "fminus": ["1", "0", "0"]})
        out = str(tmp_path / "out.csv")
        for argv in (["show", path],
                     ["simulate", path, "--mode", "pws", "--t-end", "1",
                      "--x0", "1,0,0", "--out", out]):
            assert run(argv) == 2
            assert "nested more than 100 levels deep" in capsys.readouterr().err

    def test_long_sum_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "long.json", {
            "fplus": ["-1", "+".join(["x2"] * 250), "0"],
            "fminus": ["1", "0", "0"]})
        assert run(["simulate", path, "--mode", "pws", "--t-end", "1",
                    "--x0", "1,0,0", "--out", str(tmp_path / "out.csv")]) == 2
        assert "too deeply nested to compile" in capsys.readouterr().err

    @pytest.mark.parametrize("terms, code", [(1200, 2), (150, 0)])
    def test_long_sum_in_f1(self, tmp_path, capsys, terms, code):
        # the parser builds a long sum without recursing; printing,
        # differentiating and the degree walk recurse once per term, past
        # Python's recursion limit at 1,200 terms
        path = write_json(tmp_path, "sum.json", {
            "fplus": ["+".join(["x2"] * terms), "1", "0"],
            "fminus": ["1", "0", "0"]})
        argvs = [["show", path], ["manifold", path, "--x2=-1:1:3", "--x3=-1:1:3"]]
        if code == 0:
            argvs.append(["simulate", path, "--mode", "pws", "--t-end", "1",
                          "--x0", "1,0,0", "--out", str(tmp_path / "out.csv")])
        for argv in argvs:
            assert run(argv) == code
            err = capsys.readouterr().err
            assert ("too deeply nested" in err) == (code == 2)


class TestShow:
    def test_canonical_round_trip(self, capsys):
        from pwsfold import expr
        assert run(["show", bundled("example_i.json")]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 9
        for line in out:
            name, text = line.split(" = ", 1)
            back = expr.parse_expression(text)
            assert expr.to_text(back) == text

    def test_normal_form_header(self, capsys):
        assert run(["show", bundled("invisible_db.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("normal_form: a1=1 a2=1")
        assert "fplus[0] = (-x2)" in out


class TestExamples:
    def test_alias_matches_simulate(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        flags = ["--mode", "regularized", "--eps", "1e-3", "--t-end", "2",
                 "--x0", "0.1,-0.5,0.5"]
        assert run(["examples", "i", *flags, "--out", str(a)]) == 0
        assert run(["simulate", bundled("example_i.json"), *flags,
                    "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_example_exit_2(self, capsys):
        assert run(["examples", "iv", "--eps", "1e-3", "--t-end", "1"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_bounded_summary(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["examples", "ii", "--t-end", "20", "--eps", "1e-3",
                    "--out", str(out)]) == 0
        assert "events=" in capsys.readouterr().out


class TestParserReuse:
    # each call, in this order in one process, against the same call made
    # first in a fresh process: argparse's shared --x0 default list must not
    # carry the two starts of the first call into the second
    CALLS = (
        ["simulate", bundled("example_ii.json"), "--mode", "pws", "--t-end", "1",
         "--x0=0.1,-0.5,0.5", "--x0=-0.5,0.5,0.5", "--out", "two.csv"],
        ["simulate", bundled("example_ii.json"), "--mode", "pws", "--t-end", "1",
         "--out", "default.csv"],
        ["classify", bundled("invisible_db.json"), "--out", "classify.json"],
        ["simulate", bundled("example_ii.json"), "--sigmoid", "logistic"],
    )

    @staticmethod
    def files(folder):
        return {e.name: e.read_bytes() for e in folder.iterdir()}

    def test_calls_in_one_process_equal_fresh_processes(self, tmp_path, capsys,
                                                        monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        here = tmp_path / "here"
        here.mkdir()
        monkeypatch.chdir(here)
        code = "import sys; from pwsfold import cli; sys.exit(cli.main(sys.argv[1:]))"
        for i, argv in enumerate(self.CALLS):
            before = self.files(here)
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            captured = capsys.readouterr()
            written = {k: v for k, v in self.files(here).items() if before.get(k) != v}
            fresh = tmp_path / f"fresh{i}"
            fresh.mkdir()
            proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=fresh,
                                  capture_output=True, text=True, env=child_env(),
                                  timeout=120)
            assert (status, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
            assert written == self.files(fresh), argv
        assert sorted(self.files(here)) == ["classify.json", "default.csv",
                                            "two.0.csv", "two.1.csv"]
        first = (here / "default.csv").read_text().split("\n")[1]
        assert first.startswith("0,0.10000000000000001,0.10000000000000001,"
                                "0.10000000000000001,")
        assert status == 2 and "invalid choice: 'logistic'" in captured.err
