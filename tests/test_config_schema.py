"""The config contract read from cli.SCHEMA: the README field table, and every bound probed at its edge.

The boundary-value test changes one field of a golden config at a time to a
value just inside or just outside one of its bounds, or to a value of the
wrong kind.  A value inside must run (exit 0 or 1) and write strict JSON; a
value outside must exit 2 with a message that names the field.  The
hand-listed cases in test_cli.py stay as the independent oracle.
"""
import ast
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_lab import cli, disc, rigidity
from holo_lab.cli import EXIT_FAIL, EXIT_INTERNAL, EXIT_INVALID, EXIT_PASS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
MAX = sys.float_info.max


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def run_config(cfg):
    """(exit code, report text or None, stderr) of one CLI run; json writes NaN and the infinities as NaN, Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", path, "--out", str(out), "--seed", "1"])
        report = out / "report.json"
        return code, report.read_text() if report.exists() else None, err.getvalue()


# ------------------------------------------------------------- README table

def readme_rows():
    """The expected field table: one row per scalar or list field, each section once.

    A row names its field as the CLI's messages do; a section that several
    commands share (grid, params) goes without the command.
    """
    uses = Counter(id(f.table) for top in cli.SCHEMA.values() for _, f in walk_fields(top) if f.kind == "object")
    rows, seen = [], set()

    def walk(table, label):
        for field in table.fields:
            if field.kind == "object":
                if id(field.table) not in seen:
                    seen.add(id(field.table))
                    walk(field.table, (label if uses[id(field.table)] == 1 else "") + field.table.label)
            elif field.name != "command":
                default = {id(cli.REQUIRED): "required", id(cli.ABSENT): "—"}.get(id(field.default))
                rows.append([f"`{label}{field.name}`", field.kind, cli._rule(field),
                             default or f"`{json.dumps(field.default)}`"])

    for table in cli.SCHEMA.values():
        walk(table, table.label)
    return rows


def test_readme_field_table_matches_schema():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| field | kind | rule | default |")
    table = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split(" | ")])
    expected = readme_rows()
    for k, (have, want) in enumerate(zip(table, expected)):
        assert have == want, f"README field table row {k + 1}"
    assert len(table) == len(expected)
    names = [row[0].strip("`") for row in table]
    for top in cli.SCHEMA.values():
        for _, field in walk_fields(top):
            if field.bounds or field.rule:
                assert any(name.endswith(field.name) for name in names), f"no README row for {field.name}"


def walk_fields(table):
    for field in table.fields:
        yield table, field
        if field.kind == "object":
            yield from walk_fields(field.table)


# ------------------------------------------------------ boundary-value probes

def _int_edges(op, bound):
    """(just inside, just outside) of an integer field for one bound."""
    return {
        ">=": (math.ceil(bound), math.ceil(bound) - 1),
        ">": (math.floor(bound) + 1, math.floor(bound)),
        "<=": (math.floor(bound), math.floor(bound) + 1),
        "<": (math.ceil(bound) - 1, math.ceil(bound)),
    }[op]


def _float_edges(op, bound):
    down, up = np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)
    return {">=": (bound, down), ">": (up, bound), "<=": (bound, up), "<": (down, bound)}[op]


def _bound_value(bound, values):
    return bound.value(values) if isinstance(bound, cli.Ref) else bound


def _still_valid(table, field, value, values):
    """False when value for field pushes a later field of the table outside its bounds."""
    new = dict(values, **{field.name: value})
    for later in table.fields[table.fields.index(field) + 1:]:
        current = new.get(later.name)
        if current is None or not later.bounds or later.kind == "object":
            continue
        for entry in (current if later.kind == "list" else [current]):
            for op, bound in later.bounds:
                if not cli._COMPARE[op](entry, _bound_value(bound, new)):
                    return False
    return True


def _base_configs():
    """The golden configs, and factorize-verify with random parameters in place of params."""
    configs = {case.name: json.loads((case / "config.json").read_text()) for case in sorted(GOLDEN_DIR.iterdir())}
    randomized = dict(configs["factorize-verify"], random={"dim": 1})
    del randomized["params"]
    configs["factorize-verify-random"] = randomized
    return configs


def _probes():
    """(case, path to the field, value, 'inside' or 'outside', field name) for every bound of every config."""
    probes = []
    for case, cfg in _base_configs().items():
        command = cfg["command"]

        def walk(table, data, values, path):
            for field in table.fields:
                if field.kind == "object":
                    if field.name in data or field.default is not cli.ABSENT:
                        walk(field.table, data.get(field.name, {}), values[field.name], path + (field.name,))
                    continue
                if field.kind not in ("integer", "number", "list"):
                    continue
                is_list = field.kind == "list"
                current = list(values[field.name]) if is_list else values.get(field.name)
                edges = _int_edges if field.kind == "integer" else _float_edges
                draws = []  # (value, side, which list entry)
                for op, bound in field.bounds:
                    inside, outside = edges(op, _bound_value(bound, values))
                    entry = 0 if op in (">=", ">") else -1
                    draws += [(inside, "inside", entry), (outside, "outside", entry)]
                if field.kind != "integer" and not any(op in ("<=", "<") for op, _ in field.bounds):
                    draws.append((MAX, "inside", -1))
                for wrong in [True, "1", float("nan"), float("inf"), -float("inf")] + [1.5] * (field.kind == "integer"):
                    draws.append((wrong, "outside", 0))
                if is_list:
                    draws += [([], "outside", None), (current[0], "outside", None)]  # not a list of numbers
                for value, side, entry in draws:
                    if is_list and entry is not None:
                        new = list(current)
                        new[entry] = value
                        value = new
                    if side == "inside" and field.rule and not field.rule[1](value, values):
                        continue  # a bound's edge that breaks the field's own rule, such as a radius rounding onto 1
                    if side == "inside" and not _still_valid(table, field, value, values):
                        continue
                    probes.append((case, path + (field.name,), value, side, field.name))

        walk(cli.SCHEMA[command], cfg, cli._parse(cli.SCHEMA[command], cfg), ())
    return probes


PROBES = _probes()


def _mutated(case, path, value):
    cfg = _mutated_config(_base_configs()[case], path, value)
    if path[-2:] == ("params", "dim") and type(value) is int and value >= 1:
        cfg["params"].update(_params_of_dim(value))  # an accepted dim runs with A and B of its size
    return cfg


def _params_of_dim(d):
    """params A = 0 and B = I / 2 of size d, as [re, im] literals."""
    return {"dim": d, "A": [[[0.0, 0.0]] * d] * d,
            "B": [[[0.5 if i == j else 0.0, 0.0] for j in range(d)] for i in range(d)]}


def _mutated_config(base, path, value):
    cfg = json.loads(json.dumps(base))
    section = cfg
    for name in path[:-1]:
        section = section.setdefault(name, {})
    section[path[-1]] = value
    return cfg


class TestBoundaryValues:
    @settings(derandomize=True, max_examples=4 * len(PROBES), deadline=None, database=None)
    @given(probe=st.sampled_from(PROBES))
    def test_edges_of_every_bound(self, probe):
        case, path, value, side, name = probe
        code, report, err = run_config(_mutated(case, path, value))
        if side == "inside":
            assert code in (EXIT_PASS, EXIT_FAIL), err
            strict_json(report)
        else:
            assert code == EXIT_INVALID, err
            assert report is None
            assert f"{name} must be" in err or f"{name} entry must be" in err, err

    def test_probes_cover_every_bounded_field(self):
        probed = {(probe[1][-1], probe[3]) for probe in PROBES}
        for top in cli.SCHEMA.values():
            for _, field in walk_fields(top):
                if field.bounds:
                    assert (field.name, "inside") in probed and (field.name, "outside") in probed, field.name


# ------------------------------------------------------------ dead knobs

class _ReadRecorder(dict):
    """A parsed section that records each field looked up by key.

    Passing a section on with ** does not count as a read: the callee may
    drop what it receives, as default_grid once dropped stencil_h for every
    command but rigidity-check.
    """

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestEveryFieldIsRead:
    """A config field exists only on the commands that read it."""

    @pytest.mark.parametrize("emit_plots", [False, True], ids=["report", "plots"])
    @pytest.mark.parametrize("case", sorted(_base_configs()))
    def test_run_reads_every_parsed_field(self, monkeypatch, tmp_path, case, emit_plots):
        parse, sections = cli._parse, []

        def recording_parse(table, data, label=""):
            values = _ReadRecorder(parse(table, data, label))
            sections.append((label + table.label, table, values))
            return values

        monkeypatch.setattr(cli, "_parse", recording_parse)
        _, code = cli.run(_base_configs()[case], seed=1, out_dir=str(tmp_path), emit_plots=emit_plots)
        assert code in (EXIT_PASS, EXIT_FAIL)
        assert sections
        unread = [f"{label}{name}" for label, table, values in sections for name in values
                  if name not in values.read and not (name == "command" and table in cli.SCHEMA.values())]
        assert not unread, f"parsed but never read: {unread}"  # the command picks the table before parsing


# ------------------------------------------------------------ single cases

class TestInputDecoding:
    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"command": "shift-sim", "t": "\xff"}')
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "not UTF-8 JSON" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


SCALAR_PARAMS = {"dim": 1, "A": [[[0.0, 0.0]]], "B": [[[0.5, 0.0]]]}
NEAR_EDGE_GRID = {"radii": [0.3, 0.99999999999], "n_angles": 8}


class TestSingularInputs:
    # ||h1(z)|| so large that 1 lies numerically in the spectrum of psi_j
    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "recover-params", "params": dict(SCALAR_PARAMS, A=[[[1e17, 0.0]]])},
            {"command": "factorize-verify", "params": SCALAR_PARAMS, "grid": NEAR_EDGE_GRID},
            {"command": "recover-params", "params": SCALAR_PARAMS, "grid": NEAR_EDGE_GRID},
            {"command": "factorize-verify", "params": dict(SCALAR_PARAMS, A=[[[1e13, 0.0]]]), "t_list": [1e-12, 2e-12]},
        ],
        ids=["recover-large-A", "factorize-edge-grid", "recover-edge-grid", "factorize-large-A-small-t"],
    )
    def test_singular_cayley_transform_is_invalid_input(self, cfg):
        code, report, err = run_config(cfg)
        assert code == EXIT_INVALID
        assert report is None
        assert "holo-lab: invalid input: matrix is numerically singular" in err


class TestGridPointsInDisc:
    # every bound holds, but a computed grid point has modulus 1
    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "recover-params", "params": SCALAR_PARAMS,
              "grid": {"radii": [0.9999999999999999], "n_angles": 16}}, "radii"),
            ({"command": "rigidity-check", "function": "phi",
              "grid": {"radii": [0.9999999999999998]}}, "radii"),
        ],
        ids=["recover-point-on-circle", "rigidity-point-on-circle"],
    )
    def test_rejected_with_the_field(self, cfg, field):
        grid = cli._parse(cli.GRID, {}) | cfg["grid"]
        with pytest.raises(ValueError, match="modulus >= 1"):
            disc.DiscGrid(grid["radii"], grid["n_angles"])
        code, report, err = run_config(cfg)
        assert code == EXIT_INVALID, err
        assert report is None
        assert f"grid {field} must be" in err, err

    def test_accepted_grid_passes_every_disc_check(self):
        grid = disc.DiscGrid(radii=(0.5, 0.9999999999999996), n_angles=64)
        zs = np.append(grid.points(), 0)
        assert np.all(np.isfinite(disc.holomorphy_residuals(disc.mobius_phi(zs)[:, None, None], grid)))
        disc.varphi_t(1.0, grid.points())


class TestValueRules:
    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "herglotz-analyze", "function": "phi", "r": 5e-324}, "r"),
            ({"command": "herglotz-analyze", "function": "phi", "r": 0.5, "n_samples": 65536, "n_moments": 16383},
             "r"),
            ({"command": "shift-sim", "t": MAX}, "t"),
            ({"command": "shift-sim", "t": 1e6 + 1}, "t"),
            ({"command": "herglotz-analyze", "function": "const:1e306,0"}, "function"),
            ({"command": "rigidity-check", "function": "const:1e308,0"}, "function"),
            ({"command": "rigidity-check", "function": "const:0,-1e301"}, "function"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"radii": None}}, "radii"),
            ({"command": "shift-sim", "order": None}, "order"),
        ],
        ids=["r-subnormal", "r-amplification", "t-huge", "t-above-cap", "herglotz-const-large",
             "rigidity-const-large", "const-large-imag", "radii-null", "order-null"],
    )
    def test_rejected(self, cfg, field):
        code, report, err = run_config(cfg)
        assert code == EXIT_INVALID, err
        assert report is None
        assert f"{field} must be" in err or f"{field}: constant" in err, err

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "herglotz-analyze", "function": "const:1e300,0", "expect_concentrated": False},
            {"command": "rigidity-check", "function": "const:1e300,-1e300"},
            {"command": "herglotz-analyze", "function": "phi", "tol_atom": None, "r": 0.9, "n_samples": 64,
             "n_moments": 4},
            # rigidity-check takes every grid DiscGrid takes: it has no step that could leave the disc, and
            # its holomorphy test forms only (r/R)^n <= 1, never R^{-n}, which overflows from R = 1e-300 on
            {"command": "rigidity-check", "function": "phi", "grid": {"radii": [0.9999999999999996]}},
            {"command": "rigidity-check", "function": "const:1e300,1e300",
             "grid": {"radii": [1e-300, 0.5], "n_angles": 1024}},
            {"command": "rigidity-check", "function": "const:1e300,1e300", "grid": {"radii": [1e-300], "n_angles": 1024}},
        ],
        ids=["herglotz-const-at-cap", "rigidity-const-at-cap", "tol_atom-null", "rigidity-radius-below-1",
             "rigidity-tiny-circle-at-cap", "rigidity-tiny-outer-circle-at-cap"],
    )
    def test_accepted_with_strict_json(self, cfg):
        code, report, err = run_config(cfg)
        assert code in (EXIT_PASS, EXIT_FAIL), err
        strict_json(report)

    @staticmethod
    def _smallest_float_where(holds, lo, hi):
        """The smallest float in (lo, hi] at which holds(), false at lo, true at hi and switching once, is true."""
        while np.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        assert holds(hi) and not holds(np.nextafter(hi, lo))
        return float(hi)

    @pytest.mark.parametrize("n_moments", [1, 8, 32, 16383])
    def test_r_floor_is_the_overflow_edge(self, n_moments):
        def power_finite(r):  # r ** -n_moments, the largest factor of estimate_moments, in its float64 power
            with np.errstate(over="ignore"):
                return np.isfinite(r ** -np.array([n_moments]))[0]

        r = self._smallest_float_where(power_finite, 0.0, 1.0)
        cfg = {"command": "herglotz-analyze", "function": "phi", "n_moments": n_moments,
               "n_samples": 2 ** max(4, (4 * n_moments).bit_length()), "expect_concentrated": False}
        code, report, err = run_config(dict(cfg, r=r))
        assert code in (EXIT_PASS, EXIT_FAIL), err
        strict_json(report)
        code, report, err = run_config(dict(cfg, r=float(np.nextafter(r, 0))))
        assert code == EXIT_INVALID, err
        assert report is None
        assert "herglotz-analyze r must be" in err, err

    def test_resolve_function_bounds_constants(self):
        assert rigidity.resolve_function(f"const:{rigidity.MAX_CONSTANT!r},0").name.startswith("const:")
        for spec in ("const:1e301,0", "const:0,-1e301", "const:nan,0", "const:inf,0"):
            with pytest.raises(ValueError, match="abs"):
                rigidity.resolve_function(spec)


def _scalar_herglotz(a, b, r, n_samples, n_moments):
    return {"command": "herglotz-analyze", "params": {"A": [[[a, 0.0]]], "B": [[[b, 0.0]]]}, "r": r,
            "n_samples": n_samples, "n_moments": n_moments}


FFT_OVERFLOW = _scalar_herglotz(0.0, 1e305, 0.5, 65536, 16)


class TestOverflowingParams:
    """Params whose arithmetic overflows exit 0, 1 or 2 and print one line; the suite turns a warning into exit 3."""

    @pytest.mark.parametrize("cfg, code, message", [
        (_scalar_herglotz(0.0, 1e308, 0.9, 64, 4), EXIT_INVALID, "herglotz-analyze params: "),
        # phi(r) is about 2e10 here
        (_scalar_herglotz(0.0, 1e300, 0.9999999999, 65536, 16), EXIT_INVALID, "herglotz-analyze params: "),
        # exact params: no check fails on round-off (moment symmetry, gone, failed at 5.6e278 > 1e-10 here)
        (_scalar_herglotz(0.0, 1e300, 0.999999, 64, 4), EXIT_PASS, "PASS"),
        (_scalar_herglotz(1e308, 0.5, 0.9, 64, 4), EXIT_PASS, "PASS"),
        # every sample is finite, their FFT sum is not
        (FFT_OVERFLOW, EXIT_INVALID, "herglotz-analyze params: the moments of Re h on |z| = 0.5 are not finite"),
        ({"command": "recover-params", "params": dict(SCALAR_PARAMS, A=[[[1e300, 0.0]]]),
          "grid": {"radii": [0.5], "n_angles": 8}}, EXIT_INVALID, "numerically singular"),
        ({"command": "factorize-verify",
          "params": {"dim": 2, "A": [[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]],
                     "B": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}},
         EXIT_INVALID, "A is not self-adjoint (deviation inf"),
    ], ids=["herglotz-B-1e308", "herglotz-B-1e300-near-circle", "herglotz-B-1e300", "herglotz-A-1e308",
            "herglotz-B-1e305-fft", "recover-A-1e300", "factorize-A-skew-1e308"])
    def test_exit_code_and_one_line(self, cfg, code, message):
        got, report, err = run_config(cfg)
        assert got == code, err
        assert message in err and err.count("\n") == 1, err

    def test_fft_overflow_prints_no_warning(self, tmp_path):
        # the suite runs with warnings as errors; under the default setting the overflow must stay silent too
        path = tmp_path / "config.json"
        path.write_text(json.dumps(FFT_OVERFLOW))
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "holo_lab", "--config", str(path),
                               "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stderr.count("\n") == 1 and "are not finite" in proc.stderr, proc.stderr


class TestMatrixKind:
    """The matrix kind reads every [re, im] entry as a number; the library receives arrays."""

    # ints, signed zeros, the smallest subnormal and the largest float
    LITERAL = [[[3, -0.0], [5e-324, -2]], [[-0.0, 1.7976931348623157e308], [0, -5e-324]]]

    def test_decoding(self):
        values = cli._parse(cli.PARAMS, {"dim": 2, "A": self.LITERAL, "B": self.LITERAL})
        # the reference is the arithmetic the (A, B) reader has always used: a float array, then re + 1j * im
        parts = np.asarray(self.LITERAL, dtype=float)
        reference = parts[..., 0] + 1j * parts[..., 1]
        for name in ("A", "B"):
            M = values[name]
            assert M.dtype == complex and M.shape == (2, 2)
            assert np.array_equal(M, reference)
            assert np.array_equal(np.signbit(M.real), np.signbit(reference.real))
            assert np.array_equal(np.signbit(M.imag), np.signbit(reference.imag))
            assert np.array_equal(M.real, parts[..., 0]) and np.array_equal(M.imag, parts[..., 1])

    BAD = {
        "bool": [[[True, 0.0]]],
        "string": [[["0.5", 0.0]]],
        "nan": [[[float("nan"), 0.0]]],
        "int-beyond-float": [[[10**400, 0.0]]],
        "ragged": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        "not-square": [[[0.0, 0.0], [0.0, 0.0]]],
        "entry-of-1": [[[0.0]]],
        "entry-of-3": [[[0.0, 0.0, 0.0]]],
        "empty": [],
        "not-a-list": 0.5,
    }
    COMMANDS = {
        "factorize-verify": {"dim": 1},
        "recover-params": {"dim": 1},
        "herglotz-analyze": {},
        "params_file": {"dim": 1},
    }

    @pytest.mark.parametrize("name", ["A", "B"])
    @pytest.mark.parametrize("case", sorted(BAD))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_rejected_with_the_field(self, tmp_path, command, case, name):
        params = dict(self.COMMANDS[command], A=[[[0.0, 0.0]]], B=[[[0.5, 0.0]]])
        params[name] = self.BAD[case]
        if command == "params_file":
            path = tmp_path / "params.json"
            path.write_text(json.dumps(params))
            command, cfg = "recover-params", {"command": "recover-params", "params_file": str(path)}
        else:
            cfg = {"command": command, "params": params}
        code, report, err = run_config(cfg)
        assert code == EXIT_INVALID, err
        assert report is None
        assert f"{command} params {name} must be" in err or f"{command} params {name} entry must be" in err, err

    @pytest.mark.parametrize("command", ["factorize-verify", "recover-params"])
    def test_dim_must_be_the_size(self, command):
        code, report, err = run_config({"command": command, "params": dict(SCALAR_PARAMS, dim=2)})
        assert code == EXIT_INVALID, err
        assert f"{command} params dim must be" in err, err


class TestParamsDimCap:
    """params dim is at most MAX_RANDOM_DIM, as random.dim is: the certificates' round-off bounds hold for d <= 16."""

    GRID = {"grid": {"radii": [0.3, 0.9], "n_angles": 16}}

    @staticmethod
    def _cfg(tmp_path, command, d):
        if command == "params_file":
            path = tmp_path / "params.json"
            path.write_text(json.dumps(_params_of_dim(d)))
            return "recover-params", {"command": "recover-params", "params_file": str(path), **TestParamsDimCap.GRID}
        return command, {"command": command, "params": _params_of_dim(d), **TestParamsDimCap.GRID}

    @pytest.mark.parametrize("command", ["factorize-verify", "recover-params", "params_file"])
    def test_edge(self, tmp_path, command):
        assert cli.MAX_RANDOM_DIM == 16
        _, cfg = self._cfg(tmp_path, command, 16)
        code, report, err = run_config(cfg)
        assert code == EXIT_PASS, err
        strict_json(report)

    @pytest.mark.parametrize("command", ["factorize-verify", "recover-params", "params_file"])
    def test_above_the_cap_is_rejected(self, tmp_path, command):
        command, cfg = self._cfg(tmp_path, command, 17)
        code, report, err = run_config(cfg)
        assert code == EXIT_INVALID, err
        assert report is None
        assert f"{command} params dim must be" in err and "<= 16" in err, err


class TestHerglotzSampleCap:
    """n_samples * d**2 <= 2**20: a rejected config is rejected while parsing, before any sample is taken."""

    @staticmethod
    def _cfg(d, n_samples):
        zero = [[[0.0, 0.0]] * d] * d
        return {"command": "herglotz-analyze", "params": {"A": zero, "B": zero}, "n_samples": n_samples}

    def test_edge(self):
        assert 2**14 * 8**2 == cli.MAX_HERGLOTZ_ENTRIES
        code, report, err = run_config(self._cfg(8, 2**14))
        assert code in (EXIT_PASS, EXIT_FAIL), err
        strict_json(report)

    @pytest.mark.parametrize("d, n_samples", [(8, 2**15), (5, 2**16), (64, 2**16)])
    def test_above_the_cap_is_rejected(self, monkeypatch, d, n_samples):
        def no_sampling(*args):
            raise AssertionError("a config above the cap reached sample_boundary")

        monkeypatch.setattr(cli.herglotz, "sample_boundary", no_sampling)
        code, report, err = run_config(self._cfg(d, n_samples))
        assert code == EXIT_INVALID, err
        assert report is None
        assert "herglotz-analyze n_samples must be" in err, err

    def test_params_of_size_1_take_every_n_samples(self):
        cfg = {"command": "herglotz-analyze", "params": {"A": [[[0.0, 0.0]]], "B": [[[0.5, 0.0]]]}, "n_samples": 2**16}
        assert cli._parse(cli.SCHEMA["herglotz-analyze"], cfg)["n_samples"] == cli.MAX_HERGLOTZ_SAMPLES


class TestListLengthCaps:
    """grid radii and t_list hold at most MAX_GRID_RADII and MAX_T_LIST entries, checked before any point is built."""

    # name: (config, path to the list, cap, (module, function) that a list above the cap must not reach)
    CASES = {
        "grid radii": ({"command": "rigidity-check", "function": "phi", "expect_verdict": "HYPOTHESIS_VIOLATED"},
                       ("grid", "radii"), cli.MAX_GRID_RADII, (cli.disc, "grid_points_in_disc")),
        "t_list": ({"command": "factorize-verify", "params": {"dim": 1, "A": [[[0.0, 0.0]]], "B": [[[0.5, 0.0]]]},
                    "grid": {"radii": [0.3, 0.9], "n_angles": 16}},
                   ("t_list",), cli.MAX_T_LIST, (cli, "verify_factorization")),
    }

    @staticmethod
    def _cfg(base, path, n):
        values = [(k + 1) / (n + 1) for k in range(n)]  # ascending, in (0, 1), and t's within the budget
        return _mutated_config(base, path, values)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edge(self, name):
        base, path, cap, _ = self.CASES[name]
        code, report, err = run_config(self._cfg(base, path, cap))
        assert code == EXIT_PASS, err
        strict_json(report)

    @pytest.mark.parametrize("n", [1, 10**4], ids=["one-over", "far-over"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_above_the_cap_is_rejected(self, monkeypatch, name, n):
        base, path, cap, (module, builder) = self.CASES[name]

        def no_points(*args, **kwargs):
            raise AssertionError(f"a {name} above the cap reached {builder}")

        monkeypatch.setattr(module, builder, no_points)
        code, report, err = run_config(self._cfg(base, path, cap + n))
        assert code == EXIT_INVALID, err
        assert report is None
        assert f"{name} must be a non-empty list of finite numbers > 0" in err and "at most" in err, err


class TestOneMatrixReader:
    def test_only_cli_reads_json(self):
        # the [re, im] literal is read by the schema's matrix kind alone; the library takes arrays
        for path in sorted((ROOT / "src" / "holo_lab").glob("*.py")):
            imported, defined = set(), set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    defined.add(node.id)
            assert ("json" in imported) == (path.name == "cli.py"), path.name
            assert not [name for name in defined if "jsonable" in name], path.name


class TestOneCircleTransform:
    def test_only_disc_reads_circle_coefficients(self):
        # the DFT and the r^{-|n|} power of circle samples live in disc.circle_coefficients and disc.circle_scale
        for path in sorted((ROOT / "src" / "holo_lab").glob("*.py")):
            names, negative_powers = set(), 0
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                    names |= {part for module in modules for part in module.split(".")}
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                    negative_powers += isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
            assert ("fft" in names) == (path.name == "disc.py"), path.name
            assert negative_powers == (path.name == "disc.py"), path.name


def naming_sites(name):
    """(module file, top-level definition) of every top-level statement in src/holo_lab that names name.

    A name is an attribute, a variable or the last part of an import.
    """
    sites = set()
    for path in sorted((ROOT / "src" / "holo_lab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}
            names |= {alias.name.split(".")[-1] for n in ast.walk(node)
                      if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
            if name in names:
                sites.add((path.name, getattr(node, "name", None)))
    return sites


class TestOneExponential:
    """exp_sweep is the one matrix exponential, and no exponential solves: only _cayley_divide does."""

    def test_only_cayley_divide_solves(self):
        assert naming_sites("solve") == {("operators.py", "_cayley_divide")}

    def test_exp_sweep_is_the_only_exponential(self):
        tree = ast.parse((ROOT / "src" / "holo_lab" / "operators.py").read_text())
        defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined += [target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)]
        assert [name for name in defined if "exp" in name.lower() or "pade" in name.lower()] == ["exp_sweep"]


class TestNoInverse:
    def test_no_module_names_inv(self):
        # nonsingularity is certified by the Cholesky of Re X - c I, and the Cayley transforms solve
        assert naming_sites("inv") == set()


class TestRigidityLapackThroughOperators:
    """rigidity.py names no np.linalg: every LAPACK call of a verdict goes through the operators norms."""

    def test_rigidity_names_no_linalg(self):
        sites = naming_sites("linalg")
        assert {site for site in sites if site[0] == "rigidity.py"} == set()
        assert {("operators.py", "operator_norm"), ("operators.py", "spectrum_ends")} <= sites

    def test_certificate_lives_in_operators(self):
        # factorization and rigidity call largest_norm and spectrum_within, and keep no certificate of their own
        for name in ("_cholesky_certifies", "CERTIFICATE_MARGIN"):
            assert {module for module, _ in naming_sites(name)} == {"operators.py"}, name
        assert not {module for module, _ in naming_sites("_adjoint")} & {"factorization.py", "rigidity.py"}


def run_readers():
    """The files a run reads from: src/holo_lab, perfbench/ but its tests, and tools/."""
    src = ROOT / "src" / "holo_lab"
    return [*(p for p in src.glob("*.py") if p.name != "__init__.py"),
            *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
            *(ROOT / "tools").glob("*.py")]


def holo_lab_modules():
    return [p for p in sorted((ROOT / "src" / "holo_lab").glob("*.py")) if p.name not in ("__init__.py", "__main__.py")]


class TestEveryExportIsRead:
    EXEMPT = set()

    @staticmethod
    def public_definitions(path):
        """Top-level def, class and assignment names of a module that do not start with _."""
        names = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return [name for name in names if not name.startswith("_")]

    def test_every_public_name_is_read_by_a_run(self):
        # a name only the tests read is a test oracle and lives in tests/oracles.py
        read = set()
        for path in run_readers():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        unread = {(p.stem, name) for p in holo_lab_modules() for name in self.public_definitions(p) if name not in read}
        assert unread == self.EXEMPT

    def test_package_root_exports_nothing(self):
        # one import path per name: the package root imports nothing, and every reader imports the submodules
        src = ROOT / "src" / "holo_lab"
        root = ast.parse((src / "__init__.py").read_text())
        assert not [node for node in ast.walk(root) if isinstance(node, (ast.Import, ast.ImportFrom))]
        submodules = {p.stem for p in src.glob("*.py")}
        readers = [*src.glob("*.py"), *(p for d in ("tests", "perfbench", "tools") for p in (ROOT / d).glob("*.py"))]
        for path in readers:
            for node in ast.walk(ast.parse(path.read_text())):
                from_root = isinstance(node, ast.ImportFrom) and (node.module == "holo_lab" or node.level == 1
                                                                  and node.module is None)
                if from_root:
                    assert {alias.name for alias in node.names} <= submodules, path.name


class TestEveryRecordFieldIsRead:
    # a field or method that no run reads is work a run pays for and never sees; the tests compute their own
    EXEMPT = set()

    @staticmethod
    def members(path):
        """(class, name) of every annotated field and public method or property of the module's classes."""
        members = []
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        members.append((cls.name, node.target.id))
                    elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        members.append((cls.name, node.name))
        return members

    def test_every_field_and_method_is_read_by_a_run(self):
        # a read is an attribute load, or a field name as a string, which _run_factorize passes to getattr
        read = set()
        for path in run_readers():
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
        unread = {(p.stem, *m) for p in holo_lab_modules() for m in self.members(p) if m[1] not in read}
        assert unread == self.EXEMPT

    def test_the_guard_sees_fields_methods_and_properties(self):
        members = {m for p in holo_lab_modules() for m in self.members(p)}
        assert {("RigidityReport", "verdict"), ("DiscGrid", "points"), ("LaguerreQuadrature", "basis_order"),
                ("FactorParams", "dim")} <= members


def holo_lab_loads(path):
    """The dotted path of every attribute a file loads from a holo_lab binding, and of every name it imports.

    A binding is the name `holo_lab` of `import holo_lab.x`, or a name that
    `from holo_lab... import` binds; `shiftsim.as_matrix` after
    `from holo_lab import shiftsim` is `holo_lab.shiftsim.as_matrix`.
    """
    tree = ast.parse(path.read_text())
    bound, loads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "holo_lab":
                    loads.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["holo_lab"] = "holo_lab"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "holo_lab":
            for alias in node.names:
                loads.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                loads.add(".".join([bound[node.id], *chain]))
    return loads


def resolves(dotted):
    """True when every part of dotted after the package resolves as an attribute."""
    obj = importlib.import_module("holo_lab")
    for part in dotted.split(".")[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


class TestBenchmarkLoadsResolve:
    """What perfbench/ (its tests too) and tools/ load from holo_lab exists.

    perfbench/test_jobs.py is outside the Tier-1 test paths, so without this
    guard a deletion in src could break the benchmark while Tier-1 passes.
    """

    @staticmethod
    def loads():
        for module in holo_lab_modules():
            importlib.import_module(f"holo_lab.{module.stem}")
        paths = [*sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]
        return {(path.relative_to(ROOT).as_posix(), dotted) for path in paths for dotted in holo_lab_loads(path)}

    def test_every_load_resolves(self):
        assert {(path, dotted) for path, dotted in self.loads() if not resolves(dotted)} == set()

    def test_the_guard_sees_the_benchmark_loads(self):
        loaded = {dotted for _, dotted in self.loads()}
        assert {"holo_lab.shiftsim.truncated_factorization_check", "holo_lab.shiftsim.as_matrix",
                "holo_lab.rigidity.OperatorFunction", "holo_lab.cli.main"} <= loaded
        assert not resolves("holo_lab.shiftsim.no_such_name")


class TestOutputDigestsCompare:
    """tools/output_digests.py --compare: the byte-identity check of two digest files in one command."""

    @staticmethod
    def compare(tmp_path, first, second):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, digests in zip(paths, (first, second)):
            path.write_text(json.dumps(digests))
        return subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"), "--compare", *map(str, paths)],
                              capture_output=True, text=True)

    def test_equal_files_exit_0(self, tmp_path):
        digests = {"job-1 seed 0": {"exit": 0, "files": {"report.json": "ab"}}, "job-2 seed 0": {"repr": "x"}}
        proc = self.compare(tmp_path, digests, dict(reversed(digests.items())))
        assert (proc.returncode, proc.stdout) == (0, "0 of 2 entries differ\n")

    def test_differing_and_missing_ids_exit_1(self, tmp_path):
        first = {"a": {"exit": 0}, "b": {"exit": 0}, "c": {"repr": "x"}}
        second = {"a": {"exit": 0}, "b": {"exit": 1}, "d": {"repr": "x"}}
        proc = self.compare(tmp_path, first, second)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert (proc.returncode, proc.stdout.splitlines()) == (
            1, ["b: exit", f"c: missing from {b}", f"d: missing from {a}", "3 of 4 entries differ"])

    def test_names_what_differs(self, tmp_path):
        # the files whose sha256 differs (or that one run lacks), then exit, raised and repr
        first = {"cli seed 0": {"exit": 0, "files": {"report.json": "ab", "plot.csv": "cd", "old.csv": "ef"}},
                 "cli seed 7": {"exit": 0, "files": {"report.json": "ab"}},
                 "library seed 0": {"repr": "x"}, "library seed 7": {"repr": "x"}}
        second = {"cli seed 0": {"exit": 0, "files": {"report.json": "ab", "plot.csv": "00", "new.csv": "ef"}},
                  "cli seed 7": {"exit": 2, "files": {}},
                  "library seed 0": {"repr": "y"}, "library seed 7": {"raised": "ValueError: x"}}
        proc = self.compare(tmp_path, first, second)
        assert (proc.returncode, proc.stdout.splitlines()) == (1, [
            "cli seed 0: new.csv, old.csv, plot.csv", "cli seed 7: report.json, exit", "library seed 0: repr",
            "library seed 7: raised, repr", "4 of 4 entries differ"])


class TestStrictReport:
    @staticmethod
    def _nan_residual(cfg, seed, emit_plots):
        return [cli._check("residual", float("nan"), 1.0)], {}, {}

    def test_non_finite_value_is_an_internal_error(self, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "shift-sim", self._nan_residual)
        code, report, err = run_config({"command": "shift-sim"})
        assert code == EXIT_INTERNAL
        assert report is None
        assert "internal error while writing the report: ValueError" in err
