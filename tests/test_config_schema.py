"""The config contract read from cli.SCHEMA: the README field table, and every bound probed at its edge.

The boundary-value test changes one field of a golden config at a time to a
value just inside or just outside one of its bounds, or to a value of the
wrong kind.  A value inside must run (exit 0 or 1) and write strict JSON; a
value outside must exit 2 with a message that names the field.  The
hand-listed cases in test_cli.py stay as the independent oracle.
"""
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo_lab import cli, rigidity
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
            elif field.kind != "matrix" and field.name != "command":
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
                        if side == "inside" and new != sorted(new) and field.rule:
                            continue
                        value = new
                    if side == "inside" and not _still_valid(table, field, value, values):
                        continue
                    probes.append((case, path + (field.name,), value, side, field.name))

        walk(cli.SCHEMA[command], cfg, cli._parse(cli.SCHEMA[command], cfg), ())
    return probes


PROBES = _probes()


def _mutated(case, path, value):
    cfg = json.loads(json.dumps(_base_configs()[case]))
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
NEAR_EDGE_GRID = {"radii": [0.3, 0.99999999999], "stencil_h": 1e-12, "n_angles": 8}


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


class TestValueRules:
    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({"command": "herglotz-analyze", "function": "phi", "r": 5e-324}, "r"),
            ({"command": "herglotz-analyze", "function": "phi", "r": 0.5, "n_samples": 65536, "n_moments": 16383},
             "r"),
            ({"command": "shift-sim", "t": MAX}, "t"),
            ({"command": "shift-sim", "t": 1e6 + 1}, "t"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"stencil_h": 1e-310}}, "stencil_h"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"stencil_h": 5e-324}}, "stencil_h"),
            ({"command": "herglotz-analyze", "function": "const:1e306,0"}, "function"),
            ({"command": "rigidity-check", "function": "const:1e308,0"}, "function"),
            ({"command": "rigidity-check", "function": "const:0,-1e301"}, "function"),
            ({"command": "rigidity-check", "function": "phi", "grid": {"radii": None}}, "radii"),
            ({"command": "shift-sim", "order": None}, "order"),
        ],
        ids=["r-subnormal", "r-amplification", "t-huge", "t-above-cap", "stencil_h-subnormal",
             "stencil_h-smallest", "herglotz-const-large", "rigidity-const-large", "const-large-imag",
             "radii-null", "order-null"],
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
        ],
        ids=["herglotz-const-at-cap", "rigidity-const-at-cap", "tol_atom-null"],
    )
    def test_accepted_with_strict_json(self, cfg):
        code, report, err = run_config(cfg)
        assert code in (EXIT_PASS, EXIT_FAIL), err
        strict_json(report)

    def test_smallest_r_is_the_overflow_edge(self):
        with np.errstate(over="ignore"):
            for M in (1, 8, 32, 16383):
                r = cli._smallest_r(M)
                assert np.isfinite(r ** -np.array([M]))[0]
                assert not np.isfinite(np.nextafter(r, 0) ** -np.array([M]))[0]

    def test_stencil_cap_is_the_grid_edge(self):
        for top in (1e-300, 0.3, 0.5, 0.9, 0.95, 0.99999999999, np.nextafter(1, 0)):
            h = cli._stencil_cap(top)
            assert top + h >= 1 and top + np.nextafter(h, 0) < 1

    def test_resolve_function_bounds_constants(self):
        assert rigidity.resolve_function(f"const:{rigidity.MAX_CONSTANT!r},0").name.startswith("const:")
        for spec in ("const:1e301,0", "const:0,-1e301", "const:nan,0", "const:inf,0"):
            with pytest.raises(ValueError, match="abs"):
                rigidity.resolve_function(spec)


class TestStrictReport:
    @staticmethod
    def _nan_residual(cfg, grid, tols, seed, out_dir, emit_plots):
        return [cli._check("residual", float("nan"), 1.0)], {}, []

    def test_non_finite_value_is_an_internal_error(self, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "shift-sim", self._nan_residual)
        code, report, err = run_config({"command": "shift-sim"})
        assert code == EXIT_INTERNAL
        assert report is None
        assert "internal error while writing the report: ValueError" in err
