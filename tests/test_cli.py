import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holo_lab
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
from holo_lab.disc import default_grid
from holo_lab.operators import matrix_to_jsonable
from holo_lab.rigidity import BUILTIN_FUNCTIONS, rigidity_verdict

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_CASES = sorted(os.listdir(GOLDEN_DIR)) if os.path.isdir(GOLDEN_DIR) else []

# Runs every golden config, then shift-sim with --emit-plots, in one process.
# argv: golden dir, output dir.
GOLDEN_RUNNER = """
import os, sys
from holo_lab.cli import main
golden, out = sys.argv[1:3]
for case in sorted(os.listdir(golden)):
    cfg = os.path.join(golden, case, "config.json")
    if main(["--config", cfg, "--out", os.path.join(out, case), "--seed", "1"]) != 0:
        sys.exit(f"{case}: nonzero exit")
cfg = os.path.join(golden, "shift-sim", "config.json")
if main(["--config", cfg, "--out", os.path.join(out, "plots"), "--seed", "1", "--emit-plots"]) != 0:
    sys.exit("shift-sim --emit-plots: nonzero exit")
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


def scalar_params_json(a, b):
    return {
        "dim": 1,
        "A": matrix_to_jsonable(np.array([[a]], dtype=complex)),
        "B": matrix_to_jsonable(np.array([[b]], dtype=complex)),
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
                "A": matrix_to_jsonable(np.array([[1j]])),
                "B": matrix_to_jsonable(np.array([[0.5]])),
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
            ({"command": "rigidity-check", "function": "phi", "grid": {"n_angles": "x"}}, "n_angles"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"n_angles": 4}}, "n_angles"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"stencil_h": "x"}}, "stencil_h"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"stencil_h": -1e-4}}, "stencil_h"),
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
            "n_check-above-half-order", "n_check-zero", "n_angles-string", "n_angles-too-few",
            "stencil_h-string", "stencil_h-negative", "random-dim-zero", "random-dim-bool",
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

    def test_unknown_grid_field(self, tmp_path):
        cfg = {"command": "rigidity-check", "function": "phi", "grid": {"n_points": 10}}
        code, _, _ = run_cli(tmp_path, cfg)
        assert code == EXIT_INVALID


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
                plots[setting] = {p.name: p.read_bytes() for p in (out / "plots").glob("*.csv")}
        reference = plots["OPENBLAS_CORETYPE=unset OMP_NUM_THREADS=1"]
        assert "taylor_coefficients.csv" in reference
        for setting, files in plots.items():
            assert files == reference, f"shift-sim --emit-plots CSVs under {setting}"


class TestEmitPlots:
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
        assert len(lines) == 9
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
        assert lines[0] == "re_z,im_z,dbar_residual"
        assert len(lines) == 33
        column = np.array([float(line.split(",")[2]) for line in lines[1:]])
        verdict = rigidity_verdict(BUILTIN_FUNCTIONS["linear"], default_grid(**grid))
        assert np.array_equal(column, verdict.dbar_residuals)
        assert max(column) == report["verdicts"]["holo_residual"]


class TestHerglotzCommand:
    def test_params_model(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "params": {
                "A": matrix_to_jsonable(np.zeros((2, 2))),
                "B": matrix_to_jsonable(np.diag([1.0, 0.5])),
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
            "params": {"A": matrix_to_jsonable(A), "B": matrix_to_jsonable(B)},
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

    def test_function_and_params_exclusive(self, tmp_path):
        cfg = {
            "command": "herglotz-analyze",
            "function": "phi",
            "params": {
                "A": matrix_to_jsonable(np.zeros((1, 1))),
                "B": matrix_to_jsonable(np.ones((1, 1))),
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
        # scipy is a test-only dependency, the oracle for matrix_exp; importing
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
