import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holo_lab
from holo_lab import cli
from holo_lab.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_PASS,
    MAX_GRID_ANGLES,
    MAX_RANDOM_COUNT,
    MAX_RANDOM_DIM,
    main,
    run,
)
from holo_lab.disc import DiscGrid
from holo_lab.rigidity import BUILTIN_FUNCTIONS, rigidity_verdict
from oracles import csv_text

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CASES = sorted(os.listdir(GOLDEN_DIR)) if os.path.isdir(GOLDEN_DIR) else []

# Runs every golden config, then shift-sim with --emit-plots at the golden
# order and at the order cap, in one process.  argv: golden dir, output dir.
GOLDEN_RUNNER = """
import json, os, sys
from holo_lab.cli import main
golden, out = sys.argv[1:3]
for case in sorted(os.listdir(golden)):
    cfg = os.path.join(golden, case, "config.json")
    if main(["--config", cfg, "--out", os.path.join(out, case), "--seed", "1"]) != 0:
        sys.exit(f"{case}: nonzero exit")
cfg = os.path.join(golden, "shift-sim", "config.json")
if main(["--config", cfg, "--out", os.path.join(out, "plots"), "--seed", "1", "--emit-plots"]) != 0:
    sys.exit("shift-sim --emit-plots: nonzero exit")
cfg = os.path.join(out, "order256.json")
with open(cfg, "w") as f:
    json.dump({"command": "shift-sim", "t": 0.5, "order": 256, "n_check": 128}, f)
if main(["--config", cfg, "--out", os.path.join(out, "order256"), "--seed", "1", "--emit-plots"]) != 0:
    sys.exit("shift-sim order 256 --emit-plots: nonzero exit")
"""


def _numpy_on_dynamic_arch_openblas():
    """True when numpy links an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(tmp_path, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out), *extra])
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report, out


def matrix_json(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def scalar_params_json(a, b):
    return {
        "dim": 1,
        "A": matrix_json(np.array([[a]], dtype=complex)),
        "B": matrix_json(np.array([[b]], dtype=complex)),
    }


class TestExitCodes:
    def test_pass(self, tmp_path):
        code, report, _ = run_cli(tmp_path, {"command": "rigidity-check", "function": "const:0.3,0.7"})
        assert code == EXIT_PASS
        assert report["overall_pass"] is True
        assert report["verdicts"]["verdict"] == "CONSTANT_CONFIRMED"

    def test_fail_on_mismatched_verdict(self, tmp_path):
        cfg = {
            "command": "rigidity-check",
            "function": "linear",
            "expect_verdict": "CONSTANT_CONFIRMED",
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_FAIL
        assert report["verdicts"]["verdict"] == "HYPOTHESIS_VIOLATED"
        assert report["overall_pass"] is False

    def test_expected_negative_passes(self, tmp_path):
        cfg = {
            "command": "rigidity-check",
            "function": "linear",
            "expect_verdict": "HYPOTHESIS_VIOLATED",
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        assert report["overall_pass"] is True

    def test_invalid_b_spectrum(self, tmp_path, capsys):
        cfg = {"command": "recover-params", "params": scalar_params_json(0.0, 1.2)}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "0 <= B <= I" in capsys.readouterr().err

    def test_non_self_adjoint_a(self, tmp_path, capsys):
        cfg = {
            "command": "recover-params",
            "params": {
                "dim": 1,
                "A": matrix_json(np.array([[1j]])),
                "B": matrix_json(np.array([[0.5]])),
            },
        }
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert "self-adjoint" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = {"command": "rigidity-check", "function": "phi", "typo_field": 1}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert "typo_field" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path):
        code, _, _ = run_cli(tmp_path, {"command": "no-such-thing"})
        assert code == EXIT_INVALID

    def test_random_requires_seed(self, tmp_path, capsys):
        cfg = {"command": "factorize-verify", "random": {"dim": 2}}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["factorize-verify-random", *GOLDEN_CASES])
    def test_negative_seed_is_invalid(self, tmp_path, capsys, case):
        if case == "factorize-verify-random":
            cfg = {"command": "factorize-verify", "random": {"dim": 1}, "grid": {"radii": [0.5], "n_angles": 8}}
        else:
            cfg = json.loads(Path(GOLDEN_DIR, case, "config.json").read_text())
        code, report, _ = run_cli(tmp_path, cfg, "--seed", "-1")
        assert code == EXIT_INVALID
        assert report is None
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == EXIT_INVALID

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == EXIT_INVALID

    def test_config_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["--config", str(path), "--out", str(tmp_path)]) == EXIT_INVALID

    def test_params_and_params_file_exclusive(self, tmp_path):
        cfg = {
            "command": "recover-params",
            "params": scalar_params_json(0.0, 0.5),
            "params_file": "x.json",
        }
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID

    def test_unknown_tolerance_name(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "phi", "tolerances": {"nope": 1.0}}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID

    def test_bad_tol_flag(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "phi"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["--config", cfg_path, "--out", str(tmp_path), "--tol", "nope=1"]) == EXIT_INVALID
        assert main(["--config", cfg_path, "--out", str(tmp_path), "--tol", "eps_holo"]) == EXIT_INVALID

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nonfinite_or_negative_tolerance(self, tmp_path, capsys, value, source):
        cfg = {"command": "recover-params", "params": scalar_params_json(0.3, 0.5)}
        extra = []
        if source == "flag":
            extra = ["--tol", f"recover={value}"]
        else:
            cfg["tolerances"] = {"recover": float(value)}  # json writes Infinity / NaN
        code, report, _ = run_cli(tmp_path, cfg, *extra)
        assert code == EXIT_INVALID
        assert report is None
        assert "a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "1e-8"], ids=["true", "string"])
    def test_tolerance_must_be_a_json_number(self, tmp_path, capsys, value):
        # float(True) is 1.0, a gram tolerance that any quadrature passes
        cfg = {"command": "shift-sim", "t": 0.5, "tolerances": {"gram": value}}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "tolerance gram must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "recover-params", "params": 5}, "'params' must be a JSON object"),
            ({"command": "factorize-verify", "params": [1, 2]}, "'params' must be a JSON object"),
            ({"command": "recover-params", "params": dict(scalar_params_json(0.0, 0.5), dim=True)},
             "params dim"),
            ({"command": "recover-params", "params_file": ["p.json"]}, "params_file"),
            (
                {"command": "herglotz-analyze", "params": {"A": [[[0.0, 0.0]]], "B": [[[1.0, 0.0]]], "C": 1},
                 "n_samples": 64, "n_moments": 4},
                "['C']",
            ),
        ],
        ids=["params-number", "params-list", "dim-bool", "params_file-list", "herglotz-unknown-key"],
    )
    def test_invalid_params(self, tmp_path, capsys, cfg, field):
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [None, "[1, 2]", b"\xff\xfe"], ids=["directory", "not-an-object", "not-utf8"]
    )
    def test_unreadable_params_file(self, tmp_path, capsys, content):
        path = tmp_path / "params"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, report, _ = run_cli(tmp_path, {"command": "recover-params", "params_file": str(path)})
        assert code == EXIT_INVALID
        assert report is None
        assert "params_file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "recover-params",
              "params": {"dim": 1, "A": [[["0", "0"]]], "B": [[["0.5", "0"]]]}}, "recover-params params A"),
            ({"command": "factorize-verify", "params": {"dim": 1, "A": [[[True, 0]]], "B": [[[0.5, 0]]]},
              "grid": {"radii": [0.3, 0.9], "n_angles": 16}}, "factorize-verify params A"),
            ({"command": "herglotz-analyze", "params": {"A": [[[0, 0]]], "B": [[["1", 0]]]},
              "n_samples": 64, "n_moments": 4}, "herglotz-analyze params B"),
        ],
        ids=["recover-params-string", "factorize-verify-bool", "herglotz-analyze-string"],
    )
    def test_matrix_entries_must_be_numbers(self, tmp_path, capsys, cfg, field):
        # float() reads "0.5" as 0.5 and true as 1.0
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert f"{field} entry must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [40, 64, 128, 256])
    def test_shiftsim_passes_at_every_order(self, tmp_path, order):
        cfg = {"command": "shift-sim", "t": 1.0, "order": order, "n_check": order // 2}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        gram = next(c for c in report["checks"] if c["name"] == "gram_residual")
        assert gram["residual"] <= 1e-11

    def test_shiftsim_large_t_writes_strict_json(self, tmp_path):
        # an unscaled coefficient recurrence overflows here into a NaN residual,
        # which json writes as the non-JSON literal NaN
        cfg = {"command": "shift-sim", "t": 1e6, "order": 256, "n_check": 128}
        code, _, out = run_cli(tmp_path, cfg, "--emit-plots")
        assert code == EXIT_PASS

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["overall_pass"] is True

    def test_nothing_checked_is_invalid(self, tmp_path, capsys):
        cfg = {
            "command": "factorize-verify",
            "params": scalar_params_json(0.0, 0.5),
            "t_list": [5000.0],
            "grid": {"radii": [0.3, 0.9], "n_angles": 16},
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "EXP_NORM_BUDGET" in capsys.readouterr().err


    def test_no_semigroup_point_is_invalid(self, tmp_path, capsys):
        cfg = {
            "command": "factorize-verify",
            "params": scalar_params_json(0.0, 0.5),
            "t_list": [1.0],
            "grid": {"radii": [0.3, 0.9], "n_angles": 16},
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "semigroup law" in capsys.readouterr().err

    @pytest.mark.parametrize("t_list", [[5000.0, 6000.0], [2500.0, 2500.0]],
                             ids=["over-the-budget-everywhere", "sum-over-the-budget-everywhere"])
    def test_semigroup_law_compared_nowhere_is_invalid(self, tmp_path, capsys, t_list):
        # one message for every t_list that compares nothing; |phi| is least at z = -0.95, 0.05 / 1.95, where
        # t = 2500 is within the budget and 5000 is not
        cfg = {
            "command": "factorize-verify",
            "params": scalar_params_json(0.0, 0.5),
            "t_list": t_list,
            "grid": {"radii": [0.3, 0.95], "n_angles": 16},
        }
        code, report, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID and report is None
        assert err.count("\n") == 1 and "semigroup law" in err and "EXP_NORM_BUDGET" in err, err

    @pytest.mark.parametrize("dim, a, expected", [
        (2, 300.0, EXIT_PASS), (2, 1000.0, EXIT_PASS), (2, 1e4, EXIT_FAIL), (2, 1e6, EXIT_FAIL), (1, 1e5, EXIT_FAIL),
    ])
    def test_recovered_b_is_a_measurement(self, tmp_path, dim, a, expected):
        # B = diag(1, 0) (or 1) read back with round-off leaves 0 <= B <= I by more than 1e-12; the run
        # compares it with the tolerances, and never exits 3
        A = a * (np.ones((dim, dim)) - np.eye(dim)) if dim > 1 else np.array([[a]])
        B = np.diag([1.0, 0.0][:dim])
        cfg = {"command": "recover-params", "params": {"dim": dim, "A": matrix_json(A), "B": matrix_json(B)}}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == expected, report

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "rigidity-check", "function": "phi", "tolerances": [1, 2]}, "tolerances"),
            ({"command": "rigidity-check", "function": "phi", "grid": [1, 2]}, "grid"),
            ({"command": "factorize-verify", "random": [1]}, "random"),
            ({"command": "herglotz-analyze", "params": [1, 2]}, "params"),
        ],
        ids=["tolerances", "grid", "random", "herglotz-params"],
    )
    def test_section_not_an_object(self, tmp_path, capsys, cfg, field):
        code, report, _ = run_cli(tmp_path, cfg, "--seed", "1")
        assert code == EXIT_INVALID
        assert report is None
        assert f"field {field!r} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t_list", [[0.0, 1.0], [-1, 1], [float("nan")], "abc", [], [0.5, "1"], [True]],
        ids=["zero", "negative", "nan", "string", "empty", "string-entry", "bool"],
    )
    def test_invalid_t_list(self, tmp_path, capsys, t_list):
        cfg = {
            "command": "factorize-verify",
            "params": scalar_params_json(0.0, 0.5),
            "t_list": t_list,
            "grid": {"radii": [0.3, 0.9], "n_angles": 16},
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "t_list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "herglotz-analyze", "function": "phi", "n_samples": "abc"}, "n_samples"),
            ({"command": "herglotz-analyze", "function": "phi", "n_samples": 1e9}, "n_samples"),
            ({"command": "herglotz-analyze", "function": "phi", "n_samples": 1000}, "n_samples"),
            ({"command": "herglotz-analyze", "function": "phi", "n_samples": 2**30}, "n_samples"),
            ({"command": "herglotz-analyze", "function": "phi", "r": 1.5}, "r"),
            ({"command": "herglotz-analyze", "function": "phi", "r": float("nan")}, "r"),
            ({"command": "herglotz-analyze", "function": "phi", "n_moments": 0}, "n_moments"),
            ({"command": "herglotz-analyze", "function": "phi", "n_samples": 64, "n_moments": 16},
             "n_moments"),
            ({"command": "shift-sim", "t": -1}, "t"),
            ({"command": "shift-sim", "t": float("inf")}, "t"),
            ({"command": "shift-sim", "order": 0}, "order"),
            ({"command": "shift-sim", "order": 32.5}, "order"),
            ({"command": "shift-sim", "order": 100000}, "order"),
            ({"command": "shift-sim", "order": 32, "n_check": 17}, "n_check"),
            ({"command": "shift-sim", "n_check": 0}, "n_check"),
            ({"command": "shift-sim", "n_check": 1}, "n_check"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"n_angles": "x"}}, "n_angles"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"n_angles": 4}}, "n_angles"),
            ({"command": "factorize-verify", "random": {"dim": 0}}, "random.dim"),
            ({"command": "factorize-verify", "random": {"dim": True}}, "random.dim"),
            ({"command": "factorize-verify", "random": {"dim": 2, "count": 0}}, "random.count"),
            ({"command": "factorize-verify", "random": {"dim": 17}}, "random.dim"),
            ({"command": "factorize-verify", "random": {"dim": 1, "count": 9}}, "random.count"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"n_angles": 1025}}, "n_angles"),
        ],
        ids=[
            "n_samples-string", "n_samples-1e9", "n_samples-not-power-of-two", "n_samples-above-cap",
            "r-outside-disc", "r-nan", "n_moments-zero", "n_moments-aliasing", "t-negative", "t-inf",
            "order-zero", "order-fraction", "order-above-cap",
            "n_check-above-half-order", "n_check-zero", "n_check-one", "n_angles-string", "n_angles-too-few",
            "random-dim-zero", "random-dim-bool",
            "random-count-zero", "random-dim-above-cap", "random-count-above-cap",
            "n_angles-above-cap",
        ],
    )
    def test_invalid_number_field(self, tmp_path, capsys, cfg, field):
        code, report, _ = run_cli(tmp_path, cfg, "--seed", "1")
        assert code == EXIT_INVALID
        assert report is None
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "factorize-verify", "random": {"dim": MAX_RANDOM_DIM, "count": MAX_RANDOM_COUNT},
             "grid": {"radii": [0.5], "n_angles": 8}},
            {"command": "rigidity-check", "function": "const:0.5,0",
             "grid": {"radii": [0.5], "n_angles": MAX_GRID_ANGLES}},
        ],
        ids=["random-at-caps", "n_angles-at-cap"],
    )
    def test_size_caps_are_inclusive(self, tmp_path, cfg):
        code, _, _ = run_cli(tmp_path, cfg, "--seed", "1")
        assert code == EXIT_PASS

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "rigidity-check", "function": "phi", "grid": {"radii": 5}}, "grid radii"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"radii": [[0.5]]}}, "radii entry"),
            ({"command": "rigidity-check", "function": 5}, "function id"),
            ({"command": "herglotz-analyze", "function": 5}, "function id"),
            ({"command": "herglotz-analyze", "function": "const:1,0", "expect_concentrated": "false"},
             "expect_concentrated"),
            ({"command": "herglotz-analyze", "function": "const:1,0", "expect_concentrated": "no"},
             "expect_concentrated"),
            ({"command": "herglotz-analyze", "function": "phi", "expect_concentrated": 1}, "expect_concentrated"),
            ({"command": "rigidity-check", "function": "phi", "expect_verdict": "VIOLATED"}, "expect_verdict"),
            ({"command": "rigidity-check", "function": "phi", "expect_verdict": None}, "expect_verdict"),
        ],
        ids=[
            "radii-number", "radii-nested", "rigidity-function-number", "herglotz-function-number",
            "expect_concentrated-false-string", "expect_concentrated-no", "expect_concentrated-int",
            "expect_verdict-typo", "expect_verdict-null",
        ],
    )
    def test_invalid_field_type(self, tmp_path, capsys, cfg, field):
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert f"{field} must be" in capsys.readouterr().err


class TestInternalErrors:
    @staticmethod
    def _raising(cfg, seed, emit_plots):
        raise RuntimeError("boom")

    @staticmethod
    def _unserialisable(cfg, seed, emit_plots):
        return [], {"verdict": object()}, {}

    @pytest.mark.parametrize(
        "runner, phase",
        [("_raising", "running shift-sim: RuntimeError: boom"), ("_unserialisable", "writing the report: TypeError")],
    )
    def test_message_names_the_phase(self, tmp_path, capsys, monkeypatch, runner, phase):
        monkeypatch.setitem(cli._RUNNERS, "shift-sim", getattr(self, runner))
        code, _, _ = run_cli(tmp_path, {"command": "shift-sim"})
        assert code == EXIT_INTERNAL
        assert f"holo-lab: internal error while {phase}" in capsys.readouterr().err

    def test_reading_phase(self, tmp_path, capsys):
        # a directory where the config file should be
        code = main(["--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_INTERNAL
        assert "holo-lab: internal error while reading the config: IsADirectoryError" in capsys.readouterr().err


# any JSON value, NaN and the infinities included (json.load reads them
# too), with small numbers drawn often enough to pass validation now and then
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 64) | st.floats() | st.floats(-2, 2)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


class TestMutatedGoldens:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_never_an_internal_error(self, data):
        # one top-level field of a golden config, other than the command,
        # replaced by any JSON value: the run passes, fails or rejects the
        # input, and never exits 3
        case = data.draw(st.sampled_from(GOLDEN_CASES), label="case")
        cfg = json.loads(Path(GOLDEN_DIR, case, "config.json").read_text())
        field = data.draw(st.sampled_from(sorted(set(cfg) - {"command"})), label="field")
        cfg[field] = data.draw(JSON_VALUES, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            code = main(["--config", path, "--out", os.path.join(tmp, "out"), "--seed", "1"])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INVALID)


class TestToleranceOverrides:
    def test_flag_beats_config(self, tmp_path):
        cfg = {
            "command": "rigidity-check",
            "function": "phi",
            "expect_verdict": "HYPOTHESIS_VIOLATED",
            "tolerances": {"eps_holo": 1e-3},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--tol", "eps_holo=1e-5"]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["tolerances"]["eps_holo"] == 1e-5

    def test_config_beats_default(self, tmp_path):
        cfg = {
            "command": "shift-sim",
            "t": 0.5,
            "tolerances": {"conjugation": 1e-3},
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        assert report["tolerances"]["conjugation"] == 1e-3
        assert report["tolerances"]["gram"] == 1e-8


class TestGridOptions:
    def test_grid_radii_flag(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "const:0.2,0"}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["--config", cfg_path, "--out", str(out), "--grid-radii", "0.3,0.6"])
        assert code == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["overall_pass"] is True

    def test_bad_grid(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "phi", "grid": {"radii": [1.5]}}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("cfg, field", [
        ({"command": "rigidity-check", "function": "phi", "grid": {"radii": [0.5] * 10**5}}, "grid radii"),
        ({"command": "herglotz-analyze", "params": {"A": [[[0, 0]] * 10**5], "B": [[[1, 0]]]}}, "params A"),
    ], ids=["list", "matrix-row"])
    def test_long_value_is_not_echoed(self, tmp_path, capsys, cfg, field):
        # the message gives a list's length and first entries, not all 10**5 of them
        code, report, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID and report is None
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert field in err and "100000 entries" in err

    def test_long_list_is_rejected_before_its_entries(self, tmp_path, capsys):
        # 17 entries are too many for any config list, whatever they hold
        cfg = {"command": "rigidity-check", "function": "phi", "grid": {"radii": [0.05 * k for k in range(1, 17)] + ["x"]}}
        code, report, _ = run_cli(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == EXIT_INVALID and report is None
        assert "grid radii must be" in err and "17 entries" in err and "entry must be" not in err, err

    def test_unknown_grid_field(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "phi", "grid": {"n_points": 10}}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("command", ["factorize-verify", "recover-params"])
    def test_grid_near_the_circle_needs_no_stencil(self, tmp_path, command):
        # no command takes a step off the grid.  The parameters are exact, and the master and recovery
        # residuals invert nothing, so |phi| ~ 4e4 on the outer circle costs no pass
        cfg = {"command": command, "params": scalar_params_json(0.0, 0.5),
               "grid": {"radii": [0.3, 0.99995], "n_angles": 16}}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS, report["checks"]
        assert report["overall_pass"] is True

    @pytest.mark.parametrize("command, rest", [
        ("rigidity-check", {"function": "phi"}),
        ("factorize-verify", {"params": scalar_params_json(0.0, 0.5)}),
    ], ids=["rigidity-check", "factorize-verify"])
    def test_stencil_h_is_an_unknown_grid_field(self, tmp_path, capsys, command, rest):
        # no check takes a step off the grid: the holomorphy test reads circle coefficients
        cfg = {"command": command, **rest, "grid": {"radii": [0.3, 0.9], "n_angles": 16, "stencil_h": 1e-4}}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert f"{command} grid: unknown field(s) ['stencil_h']" in capsys.readouterr().err

    @pytest.mark.parametrize("imag", [1.0, 1e2, 1e4, 1e6, 1e8])
    def test_large_imaginary_constant_confirmed(self, tmp_path, imag):
        # g = c + z conj(c) is exactly holomorphic; its residual is the round-off of |c| ~ 1e8, about 6e-8
        code, report, _ = run_cli(tmp_path, {"command": "rigidity-check", "function": f"const:0.5,{imag!r}"})
        assert code == EXIT_PASS, report
        assert report["verdicts"]["verdict"] == "CONSTANT_CONFIRMED"

    @pytest.mark.parametrize("how", ["section", "flag"])
    @pytest.mark.parametrize("cfg", [
        {"command": "herglotz-analyze", "function": "phi", "r": 0.9, "n_samples": 64, "n_moments": 4},
        {"command": "shift-sim", "order": 8, "n_check": 4},
    ], ids=["herglotz-analyze", "shift-sim"])
    def test_commands_without_a_grid_reject_one(self, tmp_path, capsys, cfg, how):
        if how == "section":
            code, report, _ = run_cli(tmp_path, dict(cfg, grid={"radii": [0.5], "n_angles": 8}))
        else:
            code, report, _ = run_cli(tmp_path, cfg, "--grid-radii", "0.5")
        assert code == EXIT_INVALID
        assert report is None
        assert f"{cfg['command']}: unknown field(s) ['grid']" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["", " "])
    @pytest.mark.parametrize("cfg", [
        {"command": "rigidity-check", "function": "phi", "expect_verdict": "HYPOTHESIS_VIOLATED"},
        {"command": "shift-sim", "order": 8, "n_check": 4},
    ], ids=["rigidity-check", "shift-sim"])
    def test_empty_grid_radii_flag_is_invalid(self, tmp_path, capsys, cfg, value):
        # an empty value is a value: it goes through the flag's checks, not around them
        code, report, _ = run_cli(tmp_path, cfg, "--grid-radii", value)
        assert code == EXIT_INVALID
        assert report is None
        assert f"--grid-radii: {value!r} is not a number" in capsys.readouterr().err


class TestDeterminism:
    def test_report_bytes_stable_across_reruns(self, tmp_path):
        cfg = {
            "command": "factorize-verify",
            "random": {"dim": 2, "count": 2},
            "grid": {"radii": [0.3, 0.9], "n_angles": 16},
        }
        cfg_path = write_config(tmp_path, cfg)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg_path, "--out", str(out), "--seed", "7"]) == EXIT_PASS
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_report_config_is_the_config_as_run(self, tmp_path):
        # the flags are merged into the report's config, so that config run without flags gives the same bytes
        cfg = {"command": "recover-params", "params": scalar_params_json(0.0, 0.5)}
        flagged, rerun = tmp_path / "flagged", tmp_path / "rerun"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(flagged),
                     "--grid-radii", "0.3", "--tol", "residual=1e-8"]) == EXIT_PASS
        report = json.loads((flagged / "report.json").read_text())
        assert report["config"] == dict(cfg, grid={"radii": [0.3]}, tolerances={"residual": 1e-8})
        config = write_config(tmp_path, report["config"], "as-run.json")
        assert main(["--config", config, "--out", str(rerun)]) == EXIT_PASS
        assert (rerun / "report.json").read_bytes() == (flagged / "report.json").read_bytes()

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_golden_report(self, tmp_path, case):
        cfg_path = os.path.join(GOLDEN_DIR, case, "config.json")
        out = tmp_path / "out"
        code = main(["--config", cfg_path, "--out", str(out), "--seed", "1"])
        assert code == EXIT_PASS
        expected = Path(GOLDEN_DIR, case, "report.json").read_bytes()
        assert (out / "report.json").read_bytes() == expected

    @pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64") or not _numpy_on_dynamic_arch_openblas(),
        reason="needs numpy on a DYNAMIC_ARCH OpenBLAS on x86-64",
    )
    def test_golden_reports_stable_across_blas_kernels(self, tmp_path):
        # Prescott and Nehalem kernels run on any x86-64 CPU; each sums in a
        # different order from the other and from the default kernel.
        src = os.path.dirname(os.path.dirname(holo_lab.__file__))
        base = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")
        }
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        plots = {}
        for core in (None, "Prescott", "Nehalem"):
            for threads in ("1", "2"):
                env = dict(base, OMP_NUM_THREADS=threads)
                if core:
                    env["OPENBLAS_CORETYPE"] = core
                setting = f"OPENBLAS_CORETYPE={core or 'unset'} OMP_NUM_THREADS={threads}"
                out = tmp_path / f"{core or 'unset'}-{threads}"
                proc = subprocess.run(
                    [sys.executable, "-c", GOLDEN_RUNNER, GOLDEN_DIR, str(out)],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == EXIT_PASS, f"{setting}: {proc.stderr}"
                for case in GOLDEN_CASES:
                    expected = Path(GOLDEN_DIR, case, "report.json").read_bytes()
                    assert (out / case / "report.json").read_bytes() == expected, f"{case} under {setting}"
                outputs = [*(out / "plots").glob("*.csv"), *(out / "order256").glob("*.csv"),
                           out / "order256" / "report.json"]
                plots[setting] = {p.relative_to(out).as_posix(): p.read_bytes() for p in outputs}
        reference = plots["OPENBLAS_CORETYPE=unset OMP_NUM_THREADS=1"]
        assert {"plots/taylor_coefficients.csv", "order256/taylor_coefficients.csv",
                "order256/report.json"} <= set(reference)
        for setting, files in plots.items():
            assert files == reference, f"shift-sim --emit-plots outputs under {setting}"


class TestEmitPlots:
    def test_csv_writer_equals_per_value_formatter(self, tmp_path):
        floats = [-0.0, 0.0, 5e-324, 1e308, -1e308, float("inf"), -float("inf"), float("nan"), 0.1, np.float64(1 / 3)]
        ints = [0, -3, 2**70, -(2**64) - 1, 123456789012345678901234567890] * 2
        for header, columns in ((["a", "b", "c", "d"], [ints, floats, [-f for f in floats], [2 * i for i in ints]]),
                                (["f", "i"], [floats, ints])):
            cli._write_csv(tmp_path / "out.csv", header, columns)
            assert (tmp_path / "out.csv").read_text() == csv_text(header, list(zip(*columns)))
        for header in (["x"], ["x", "y"]):
            cli._write_csv(tmp_path / "empty.csv", header, [[] for _ in header])
            assert (tmp_path / "empty.csv").read_text() == csv_text(header, [])
        for columns in ([[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]]):
            with pytest.raises(ValueError):
                cli._write_csv(tmp_path / "unequal.csv", ["x", "y"], columns)
        assert not (tmp_path / "unequal.csv").exists()

    @pytest.mark.parametrize("cfg", [
        {"command": "rigidity-check", "function": "linear", "expect_verdict": "HYPOTHESIS_VIOLATED",
         "grid": {"radii": [0.3, 0.9], "n_angles": 16}},
        {"command": "factorize-verify", "random": {"dim": 2, "count": 2}, "grid": {"radii": [0.5], "n_angles": 8}},
        {"command": "recover-params", "params": scalar_params_json(0.0, 0.5)},
        {"command": "herglotz-analyze", "function": "phi", "r": 0.9, "n_samples": 64, "n_moments": 4},
        {"command": "herglotz-analyze", "params": {"A": matrix_json(np.zeros((2, 2))),
                                                   "B": matrix_json(np.diag([0.5, 0.25]))},
         "r": 0.9, "n_samples": 64, "n_moments": 4},
        {"command": "shift-sim", "t": 1.0, "order": 8, "n_check": 4},
    ], ids=["rigidity-check", "factorize-verify", "recover-params", "herglotz-function", "herglotz-params",
            "shift-sim"])
    def test_every_runner_passes_equal_length_columns(self, tmp_path, monkeypatch, cfg):
        # _write_csv takes a column's format from its first value, so each column holds one type
        written = {}
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, columns: written.update(
            {os.path.basename(path): (header, columns)}))
        report, code = run(cfg, seed=3, out_dir=str(tmp_path), emit_plots=True)
        assert code == EXIT_PASS
        assert sorted(written) == report["artifacts"]
        for name, (header, columns) in written.items():
            assert len(header) == len(columns), name
            assert len({len(column) for column in columns}) == 1 and len(columns[0]) > 0, name
            for column in columns:
                assert type(column) is list and {type(v) for v in column} in ({float}, {int}), name

    def test_shiftsim_coefficient_csv(self, tmp_path):
        cfg = {"command": "shift-sim", "t": 1.0, "order": 16}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--emit-plots"]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert "taylor_coefficients.csv" in report["artifacts"]
        lines = (out / "taylor_coefficients.csv").read_text().splitlines()
        assert lines[0] == "n,c_n"
        n0, c0 = lines[1].split(",")
        assert n0 == "0"
        assert float(c0) == pytest.approx(np.exp(-1), abs=1e-15)

    def test_herglotz_moment_csv(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "function": "phi",
            "r": 0.99,
            "n_samples": 2048,
            "n_moments": 32,
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--emit-plots"]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["concentrated"] is True
        lines = (out / "moment_profile.csv").read_text().splitlines()
        assert lines[0] == "n,moment_norm,distance_to_atom"
        # phi has a unit atom at angle 0: every moment norm is close to 1
        norms = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(norms) == 65
        assert max(abs(v - 1) for v in norms) <= 1e-2
        assert "arc_mass_profile.csv" in report["artifacts"]

    def test_factorize_residual_csv_matches_report(self, tmp_path):
        cfg = {
            "command": "factorize-verify",
            "random": {"dim": 2, "count": 1},
            "grid": {"radii": [0.3, 0.9], "n_angles": 16},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--seed", "5", "--emit-plots"]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        lines = (out / "factorize_residuals.csv").read_text().splitlines()
        assert lines[0] == "radius,angle,master_residual"
        assert len(lines) == 33
        column = [float(line.split(",")[2]) for line in lines[1:]]
        master = next(c for c in report["checks"] if c["name"] == "master_equation")
        assert max(column) == master["residual"]

    def test_factorize_residual_csv_columns_are_the_scalar_values(self, tmp_path):
        # the columns are taken over the grid as arrays; each row keeps the bits of abs and angle of its point
        grid = {"radii": [0.1, 0.35, 0.8, 0.95], "n_angles": 1024}
        cfg = {"command": "factorize-verify", "random": {"dim": 1, "count": 1}, "grid": grid}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--seed", "5", "--emit-plots"]) == EXIT_PASS
        rows = (out / "factorize_residuals.csv").read_text().splitlines()[1:]
        points = DiscGrid(grid["radii"], grid["n_angles"]).points()
        expected = [f"{float(abs(z)):.17g},{float(np.angle(z)):.17g}" for z in points]
        assert [row.rsplit(",", 1)[0] for row in rows] == expected

    def test_rigidity_residual_csv(self, tmp_path):
        cfg = {
            "command": "rigidity-check",
            "function": "const:0.4,0.1",
            "grid": {"radii": [0.5], "n_angles": 8},
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--emit-plots"]) == EXIT_PASS
        lines = (out / "rigidity_residuals.csv").read_text().splitlines()
        assert len(lines) == 10 and lines[-1].startswith("0,0,")  # the 8 grid points, then z = 0
        assert all(float(line.split(",")[2]) <= 1e-10 for line in lines[1:])


    def test_rigidity_residual_csv_matches_verdict(self, tmp_path):
        grid = {"radii": [0.3, 0.9], "n_angles": 16}
        cfg = {
            "command": "rigidity-check",
            "function": "linear",
            "expect_verdict": "HYPOTHESIS_VIOLATED",
            "grid": grid,
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--emit-plots"]) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        lines = (out / "rigidity_residuals.csv").read_text().splitlines()
        assert lines[0] == "re_z,im_z,holo_residual"
        assert len(lines) == 34
        column = np.array([float(line.split(",")[2]) for line in lines[1:]])
        verdict = rigidity_verdict(BUILTIN_FUNCTIONS["linear"], DiscGrid(**grid))
        assert np.array_equal(column, verdict.holo_residuals)
        assert max(column) == report["verdicts"]["holo_residual"]


class TestSharedParser:
    def test_no_state_between_calls(self, tmp_path, monkeypatch):
        # main parses with the one parser built at import; a flag of one call must not reach the next
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_new_parser)
        config_a = write_config(tmp_path, {"command": "rigidity-check", "function": "linear",
                                           "expect_verdict": "HYPOTHESIS_VIOLATED",
                                           "grid": {"radii": [0.3, 0.9], "n_angles": 16}}, "a.json")
        cfg_b = {"command": "rigidity-check", "function": "const:0.4,0.1", "grid": {"radii": [0.5], "n_angles": 8}}
        config_b = write_config(tmp_path, cfg_b, "b.json")
        flags_a = ["--tol", "eps_holo=1e-5", "--tol", "eps_const=1e-9", "--emit-plots"]
        outs = [tmp_path / name for name in ("a1", "b", "a2")]
        assert main(["--config", config_a, "--out", str(outs[0]), *flags_a]) == EXIT_PASS
        assert main(["--config", config_b, "--out", str(outs[1])]) == EXIT_PASS
        assert main(["--config", config_a, "--out", str(outs[2]), *flags_a]) == EXIT_PASS
        files = [{p.name: p.read_bytes() for p in sorted(out.iterdir())} for out in outs]
        assert files[0] == files[2]
        assert sorted(files[0]) == ["report.json", "rigidity_residuals.csv"]
        assert list(files[1]) == ["report.json"]
        report_b = json.loads(files[1]["report.json"])
        assert report_b["config"] == cfg_b
        assert report_b["tolerances"] == {"eps_holo": 1e-6, "eps_const": 1e-8}
        assert report_b["artifacts"] == []


class TestHerglotzCommand:
    def test_params_model(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "params": {
                "A": matrix_json(np.zeros((2, 2))),
                "B": matrix_json(np.diag([1.0, 0.5])),
            },
            "r": 0.99,
            "n_samples": 2048,
            "n_moments": 32,
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        assert report["verdicts"]["concentrated"] is True
        assert report["verdicts"]["atom_norm"] == pytest.approx(1.0, abs=1e-2)

    def test_expected_diffuse(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "function": "const:1,0",
            "expect_concentrated": False,
            "n_samples": 1024,
            "n_moments": 16,
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        assert report["verdicts"]["concentrated"] is False
        assert report["verdicts"]["leak_mass"] == pytest.approx(1.0, abs=5e-2)

    @pytest.mark.parametrize(
        "A, B, message",
        [
            (np.zeros((1, 1)), np.array([[-0.5]]), "positive semidefinite"),
            (np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, -1e-3]]), "positive semidefinite"),
            (np.zeros((2, 2)), np.array([[0.5]]), "A is (2, 2), B is (1, 1)"),
        ],
    )
    def test_invalid_mass_rejected(self, tmp_path, capsys, A, B, message):
        cfg = {
            "command": "herglotz-analyze",
            "params": {"A": matrix_json(A), "B": matrix_json(B)},
            "n_samples": 1024,
            "n_moments": 16,
        }
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert message in capsys.readouterr().err

    # read as 1.0, true would call even the diffuse const:0.5,0 concentrated
    @pytest.mark.parametrize("tol_atom", [float("nan"), -1.0, "abc", True, "0.5"])
    def test_invalid_tol_atom(self, tmp_path, capsys, tol_atom):
        cfg = {"command": "herglotz-analyze", "function": "phi", "tol_atom": tol_atom,
               "r": 0.9, "n_samples": 64, "n_moments": 4}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "tol_atom" in capsys.readouterr().err

    def test_large_exact_mass_passes(self, tmp_path):
        # B = 1e6 I meets the hypotheses exactly; the FFT's round-off (3.5e-10) once failed a moment-symmetry
        # check, which held by construction for the self-adjoint samples of Re h and is gone
        cfg = {"command": "herglotz-analyze",
               "params": {"A": matrix_json(np.zeros((2, 2))), "B": matrix_json(1e6 * np.eye(2))}}
        code, report, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_PASS
        assert [c["name"] for c in report["checks"]] == ["concentrated_at_1"]
        assert report["tolerances"] == {}

    @pytest.mark.parametrize("tolerances, flags", [({"moment_symmetry": 1e-10}, ()),
                                                   ({}, ("--tol", "moment_symmetry=1e-10"))],
                             ids=["config", "flag"])
    def test_reads_no_tolerance(self, tmp_path, capsys, tolerances, flags):
        cfg = {"command": "herglotz-analyze", "function": "phi", "tolerances": tolerances}
        code, report, _ = run_cli(tmp_path, cfg, *flags)
        assert code == EXIT_INVALID
        assert report is None
        assert "moment_symmetry" in capsys.readouterr().err

    def test_function_and_params_exclusive(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "function": "phi",
            "params": {
                "A": matrix_json(np.zeros((1, 1))),
                "B": matrix_json(np.ones((1, 1))),
            },
        }
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        cfg_path = write_config(tmp_path, {"command": "rigidity-check", "function": "const:0.5,0"})
        proc = subprocess.run(
            [sys.executable, "-m", "holo_lab", "--config", cfg_path, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PASS
        assert proc.stdout == ""  # report data goes to files, status to stderr
        assert "PASS" in proc.stderr

    def test_runtime_does_not_import_scipy(self, tmp_path):
        # scipy is a test-only dependency, the oracle for exp_sweep; importing
        # it took most of the CLI's start-up time
        code = GOLDEN_RUNNER + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code, GOLDEN_DIR, str(tmp_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestRunApi:
    def test_report_shape(self):
        report, code = run({"command": "rigidity-check", "function": "const:0.5,0"})
        assert code == EXIT_PASS
        assert set(report) == {
            "command", "config", "seed", "tolerances", "checks",
            "verdicts", "artifacts", "overall_pass",
        }
