"""Batch driver: JSON config in, machine-readable JSON report + CSV plot data out.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
input (config, parameters, flags), 3 internal/IO error.  Reports are
byte-stable for a fixed (config, seed): volatile data such as wall time goes
to stderr, never into report.json; a report's config has the --grid-radii and
--tol flags merged in, so rerunning it without flags reproduces the report.
The golden reports are also the same across the BLAS kernels a
run-time-dispatched OpenBLAS may pick and across its thread counts; a
factorization report with d > 1 can change in its last bits with the BLAS
kernel, through the stacked matmul of the matrix exponential, which solves
nothing, and the LAPACK solve of the Cayley transform, the one solve left
(operators._cayley_divide; see the README).
"""
from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from collections import namedtuple

import numpy as np

from . import disc, herglotz, rigidity, shiftsim
from .factorization import (
    DEFAULT_T_LIST,
    FactorParams,
    master_residuals,
    pair_from_params,
    random_params,
    recover_params,
    verify_factorization,
)
from .operators import SingularityError, operator_norm

__all__ = ["main"]

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2, 3

# size caps, so that a config cannot ask for gigabytes: herglotz-analyze holds n_samples d x d
# matrices, at most MAX_HERGLOTZ_ENTRIES entries (16 MB complex), shift-sim a few order x order matrices
MAX_HERGLOTZ_SAMPLES = 2**16
MAX_HERGLOTZ_ENTRIES = 2**20
MAX_SHIFT_ORDER = 256
# or hours: factorize-verify takes 0.7 s at dim 16 on the default grid, and
# 290 s and 84 MB at all five caps below (2 vCPUs; see the README); the dim cap
# holds for params too, as the Cholesky certificates state their round-off for d <= 16
MAX_RANDOM_DIM = 16
MAX_RANDOM_COUNT = 8
MAX_GRID_ANGLES = 1024
MAX_GRID_RADII = 16
MAX_T_LIST = 8
# from t ~ 745 every compared coefficient is 0; from t ~ 9e307 2t overflows
MAX_SHIFT_T = 10**6

# what a rigidity-check config may expect; rigidity_verdict returns one of these
RIGIDITY_VERDICTS = (rigidity.CONSTANT_CONFIRMED, rigidity.HYPOTHESIS_VIOLATED, rigidity.INCONCLUSIVE)


class InvalidInput(ValueError):
    """Configuration or input data violates the documented contract."""


REQUIRED, ABSENT = object(), object()
# One config field.  kind is a key of _KINDS or "object" (read against table); bounds are
# (operator, constant or Ref) pairs, checked on each entry of a list; rule is (text, predicate of the value
# and the values read before it) for what bounds cannot say; default is REQUIRED, ABSENT (no value) or the
# value; a null means a default of None.
Field = namedtuple("Field", "name kind default bounds rule table", defaults=(ABSENT, (), (), None))
# a JSON object's fields, read in order; one_of: groups of exactly one given; label + f names f
Table = namedtuple("Table", "label fields one_of", defaults=((),))
# a bound computed from the values of the fields read before the one it bounds
Ref = namedtuple("Ref", "text value")
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

# kind: (what a value must be, test, conversion)
_KINDS = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    # abs(v) <= max also rejects nan, the infinities and integers too large for a float
    "number": ("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max, float),
    "boolean": ("true or false", lambda v: isinstance(v, bool), bool),
    "string": ("a string", lambda v: isinstance(v, str), str),
    # no config list holds more than MAX_GRID_RADII entries, so a longer one is rejected before its entries are read
    "list": ("a non-empty list of finite numbers",
             lambda v: isinstance(v, (list, tuple)) and 0 < len(v) <= MAX_GRID_RADII, tuple),
    # read as a float array, then re + 1j * im
    "matrix": ("d rows of d [re, im] pairs of finite numbers",
               lambda v: isinstance(v, list) and len(v) > 0 and all(
                   isinstance(row, list) and len(row) == len(v)
                   and all(isinstance(pair, list) and len(pair) == 2 for pair in row) for row in v),
               lambda v: v[..., 0] + 1j * v[..., 1]),
    "function id": ("a function id", lambda v: True, rigidity.resolve_function),
}


def _rule(field):
    """The field's rule in words: its bounds, then its named rule."""
    bounds = " and ".join(f"{op} {getattr(bound, 'text', bound)}" for op, bound in field.bounds)
    return ", ".join(w for w in (bounds, *field.rule[:1]) if w)


def _shown(value):
    """repr(value), but every list longer than any config list (MAX_GRID_RADII) as its length and first 4 entries."""
    if not isinstance(value, list):
        return repr(value)
    if len(value) > MAX_GRID_RADII:
        return f"{len(value)} entries [{', '.join(map(_shown, value[:4]))}, ...]"
    return f"[{', '.join(map(_shown, value))}]"


def _value(field, value, values, label):
    """value read as `field` of the section whose messages start with label."""
    if field.kind == "object":
        if not isinstance(value, dict):
            where = label.rstrip(" .")
            raise InvalidInput(f"{where}: field {field.name!r} must be a JSON object, got {type(value).__name__}")
        return _parse(field.table, value, label)
    what, test, convert = _KINDS[field.kind]
    ok = test(value)
    if ok and field.kind in ("list", "matrix"):  # each entry is a number, and the bounds hold for it
        entry = field._replace(name=field.name + " entry", kind="number", rule=())
        flat = value if field.kind == "list" else [v for row in value for pair in row for v in pair]
        numbers = [_value(entry, v, values, label) for v in flat]
        value = numbers if field.kind == "list" else np.reshape(numbers, (len(value), len(value), 2))
    elif ok:
        ok = all(_COMPARE[op](value, b.value(values) if isinstance(b, Ref) else b) for op, b in field.bounds)
    if not ok or field.rule and not field.rule[1](value, values):
        raise InvalidInput(f"{label}{field.name} must be {' '.join(filter(None, [what, _rule(field)]))}, "
                           f"got {_shown(value)}")
    try:
        return convert(value)
    except ValueError as exc:
        raise InvalidInput(f"{label}{field.name}: {exc}") from exc


def _parse(table, data, label=""):
    """data, a JSON object, read against table: the value of every field, defaults filled in."""
    label += table.label
    where = label.rstrip(" .")
    missing = [f.name for f in table.fields if f.default is REQUIRED and f.name not in data]
    unknown = [k for k in data if k not in [f.name for f in table.fields]]
    if missing:
        raise InvalidInput(f"{where}: missing required field(s) {missing}")
    if unknown:
        raise InvalidInput(f"{where}: unknown field(s) {unknown}")
    for group in table.one_of:
        if sum(name in data for name in group) != 1:
            raise InvalidInput(f"{where}: provide exactly one of {list(group)}")
    values = {}
    for field in table.fields:
        value = data.get(field.name, field.default)
        if value is not ABSENT:
            null_default = value is None and field.default is None
            values[field.name] = None if null_default else _value(field, value, values, label)
    return values


HERGLOTZ_PARAMS = Table("params ", (Field("A", "matrix", REQUIRED), Field("B", "matrix", REQUIRED)))
# the rules are DiscGrid's own tests: a radius within a few ulps of 1 can round a point onto the circle
GRID = Table("grid ", (
    Field("n_angles", "integer", disc.DEFAULT_N_ANGLES, ((">=", 8), ("<=", MAX_GRID_ANGLES))),
    Field("radii", "list", disc.DEFAULT_RADII, ((">", 0), ("<", 1)),
          (f"at most {MAX_GRID_RADII} entries, ascending, every grid point of modulus < 1",
           lambda v, values: list(v) == sorted(v) and disc.grid_points_in_disc(v, values["n_angles"]))),
))
PARAMS = Table("params ", (Field("dim", "integer", REQUIRED, ((">=", 1), ("<=", MAX_RANDOM_DIM))),
                           *HERGLOTZ_PARAMS.fields))
FUNCTION_RULE = (f"a name in {sorted(rigidity.BUILTIN_FUNCTIONS)} or 'const:re,im' with abs(re), abs(im) "
                 f"<= {rigidity.MAX_CONSTANT:g}", lambda v, values: True)  # resolve_function checks it


def _command(name, grid, tolerances, fields, one_of=()):
    """A command's table: the command, its grid table or None, its tolerances (name: default), its own fields."""
    tolerances = tuple(Field(k, "number", v, ((">=", 0),)) for k, v in tolerances.items())
    grid = (Field("grid", "object", {}, table=grid),) if grid else ()
    common = (Field("command", "string", REQUIRED), *grid,
              Field("tolerances", "object", {}, table=Table("tolerance ", tolerances)))
    return Table(name + " ", common + fields, one_of)


SCHEMA = {
    "rigidity-check": _command("rigidity-check", GRID, {"eps_holo": rigidity.DEFAULT_EPS_HOLO,
                                                        "eps_const": rigidity.DEFAULT_EPS_CONST}, (
        Field("function", "function id", REQUIRED, rule=FUNCTION_RULE),
        Field("expect_verdict", "string", rigidity.CONSTANT_CONFIRMED,
              rule=(f"in {list(RIGIDITY_VERDICTS)}", lambda v, values: v in RIGIDITY_VERDICTS)),
    )),
    "factorize-verify": _command("factorize-verify", GRID, {"factorization": 1e-8, "master": 1e-10}, (
        Field("params", "object", table=PARAMS),
        Field("params_file", "string"),
        Field("random", "object", table=Table("random.", (
            Field("dim", "integer", REQUIRED, ((">=", 1), ("<=", MAX_RANDOM_DIM))),
            Field("count", "integer", 1, ((">=", 1), ("<=", MAX_RANDOM_COUNT))),
        ))),
        Field("t_list", "list", DEFAULT_T_LIST, ((">", 0),),
              (f"at most {MAX_T_LIST} entries", lambda v, values: len(v) <= MAX_T_LIST)),
    ), one_of=[("params", "params_file", "random")]),
    "recover-params": _command("recover-params", GRID, {"recover": 1e-10, "residual": 1e-9}, (
        Field("params", "object", table=PARAMS), Field("params_file", "string"),
    ), one_of=[("params", "params_file")]),
    "herglotz-analyze": _command("herglotz-analyze", None, {}, (
        Field("function", "function id", rule=FUNCTION_RULE),
        Field("params", "object", table=HERGLOTZ_PARAMS),
        Field("n_samples", "integer", herglotz.DEFAULT_N, ((">=", 16), ("<=", MAX_HERGLOTZ_SAMPLES)),
              (f"a power of two, n_samples * d**2 <= {MAX_HERGLOTZ_ENTRIES} (d the size of params A, 1 for a "
               "function)", lambda v, values: v & (v - 1) == 0
               and v * (len(values["params"]["A"]) if "params" in values else 1) ** 2 <= MAX_HERGLOTZ_ENTRIES)),
        Field("n_moments", "integer", herglotz.DEFAULT_M,
              ((">=", 1), ("<", Ref("n_samples / 4", lambda v: v["n_samples"] / 4)))),
        Field("r", "number", herglotz.DEFAULT_R, ((">", 0), ("<", 1)),
              ("r ** -n_moments finite",  # the largest factor estimate_moments applies
               lambda v, values: bool(np.isfinite(disc.circle_scale(v, [values["n_moments"]]))[0]))),
        Field("tol_atom", "number", None, ((">=", 0),)),
        Field("expect_concentrated", "boolean", True),
    ), one_of=[("function", "params")]),
    # n_check 1 compares no lower-triangle entry, and both sign conventions agree on the diagonal
    "shift-sim": _command("shift-sim", None, {"conjugation": 1e-6, "lower_triangle": 1e-8, "gram": 1e-8}, (
        Field("t", "number", 1.0, ((">=", 0), ("<=", MAX_SHIFT_T))),
        Field("order", "integer", shiftsim.DEFAULT_BASIS_ORDER, ((">=", 2), ("<=", MAX_SHIFT_ORDER))),
        Field("n_check", "integer", 8, ((">=", 2), ("<=", Ref("order / 2", lambda v: v["order"] / 2)))),
    )),
}


def _check(name, residual, tolerance):
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _verdict_check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual, "passed": bool(expected == actual)}


def _read_json(path, what):
    """The JSON object in the UTF-8 file at path; OSError propagates."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON or not UTF-8
        raise InvalidInput(f"{what} {path!r} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"{what} {path!r} must hold a JSON object")
    return data


def _load_params(cfg, command):
    if "params" in cfg:
        data = cfg["params"]
    else:
        try:
            data = _parse(PARAMS, _read_json(cfg["params_file"], f"{command} params_file"), command + " ")
        except OSError as exc:
            raise InvalidInput(f"{command}: cannot read params_file {cfg['params_file']!r}: {exc}") from exc
    if data["dim"] != len(data["A"]):
        raise InvalidInput(f"{command} params dim must be the size of A, got {data['dim']} for a "
                           f"{len(data['A'])} x {len(data['A'])} A")
    try:
        return FactorParams(A=data["A"], B=data["B"])
    except ValueError as exc:
        raise InvalidInput(f"{command}: {exc}") from exc


def _write_csv(path, header, columns):
    """Write the header and the equal-length columns in one call: a float column as %.17g, any other as str.

    A column's first value gives its format; one %-format for the whole file is applied once to the values
    interleaved row by row.  Columns of unequal length raise ValueError.
    """
    n, k = len(columns[0]), len(columns)
    flat = [None] * (n * k)
    for j, column in enumerate(columns):
        flat[j::k] = column
    row = ",".join("%.17g" if n and isinstance(column[0], float) else "%s" for column in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + row * n % tuple(flat))


def _grid(cfg):
    """The DiscGrid of cfg's grid section."""
    return disc.DiscGrid(cfg["grid"]["radii"], cfg["grid"]["n_angles"])


def _run_rigidity(cfg, seed, emit_plots):
    grid, tols = _grid(cfg), cfg["tolerances"]
    report = rigidity.rigidity_verdict(cfg["function"], grid, eps_holo=tols["eps_holo"], eps_const=tols["eps_const"])
    checks = [_verdict_check("verdict", cfg["expect_verdict"], report.verdict)]
    verdicts = {
        "verdict": report.verdict,
        "strip_ok": report.strip_ok,
        "holo_residual": float(report.holo_residual),
        "constancy_deviation": float(report.constancy_deviation),
    }
    zs = np.append(grid.points(), 0)  # the points of report.holo_residuals: the grid, then z = 0
    plots = {"rigidity_residuals.csv": (["re_z", "im_z", "holo_residual"], [
        zs.real.tolist(), zs.imag.tolist(), report.holo_residuals.tolist()
    ])} if emit_plots else {}
    return checks, verdicts, plots


def _run_factorize(cfg, seed, emit_plots):
    if "random" in cfg:
        if seed is None:
            raise InvalidInput("factorize-verify: randomized runs require --seed")
        rng = np.random.default_rng(seed)
        params_list = [random_params(rng, cfg["random"]["dim"]) for _ in range(cfg["random"]["count"])]
    else:
        params_list = [_load_params(cfg, "factorize-verify")]

    grid, tols = _grid(cfg), cfg["tolerances"]
    reports, masters = [], []
    for params in params_list:
        try:  # t_list compares the semigroup law at no grid point
            reports.append(verify_factorization(params, grid, t_list=cfg["t_list"]))
        except ValueError as exc:
            raise InvalidInput(f"factorize-verify: {exc}") from exc
        masters.append(master_residuals(pair_from_params(params), grid))
    checks = [_check(name, max(getattr(rep, field) for rep in reports), tols["factorization"]) for name, field in (
        ("product_identity", "product_residual"),
        ("commutation", "commutation_residual"),
        ("contractivity", "contractivity_excess"),
        ("semigroup_law", "semigroup_residual"),
    )]
    checks.append(_check("master_equation", max(float(m.max()) for m in masters), tols["master"]))
    zs = grid.points()
    plots = {"factorize_residuals.csv": (["radius", "angle", "master_residual"], [
        np.hypot(zs.real, zs.imag).tolist(), np.angle(zs).tolist(), masters[0].tolist()
    ])} if emit_plots else {}
    return checks, {}, plots


def _run_recover(cfg, seed, emit_plots):
    params = _load_params(cfg, "recover-params")
    A, B, residual = recover_params(pair_from_params(params), _grid(cfg))
    dev = max(float(np.max(np.abs(A - params.A))), float(np.max(np.abs(B - params.B))))
    checks = [
        _check("roundtrip_params", dev, cfg["tolerances"]["recover"]),
        _check("exponential_form_residual", residual, cfg["tolerances"]["residual"]),
    ]
    return checks, {}, {}


def _run_herglotz(cfg, seed, emit_plots):
    M = cfg["n_moments"]
    args = {"r": cfg["r"], "N": cfg["n_samples"], "M": M, "tol_atom": cfg["tol_atom"]}
    if "function" in cfg:
        approx = herglotz.analyze(cfg["function"], **args)
    else:
        # the schema has read r, N and M, so a ValueError is the params': atom_model rejects (A, B), or a sample
        # of Re h on |z| = r is not finite
        try:
            h = herglotz.atom_model(cfg["params"]["A"], cfg["params"]["B"])
            approx = herglotz.analyze(h, **args)
        except ValueError as exc:
            raise InvalidInput(f"herglotz-analyze params: {exc}") from exc
    checks = [_verdict_check("concentrated_at_1", cfg["expect_concentrated"], approx.concentrated)]
    verdicts = {
        "concentrated": approx.concentrated,
        "leak_mass": float(approx.leak_mass),
        "atom_norm": float(operator_norm(approx.atom_mass_at_1)),
    }
    plots = {}
    if emit_plots:
        moments = approx.moments  # moment(n) at index n + M
        norms = operator_norm(moments)
        distances = operator_norm(moments - approx.atom_mass_at_1)
        plots["moment_profile.csv"] = (["n", "moment_norm", "distance_to_atom"], [
            list(range(-M, M + 1)), norms.tolist(), distances.tolist()
        ])
        thetas, mass = herglotz.arc_mass_profile(moments)
        plots["arc_mass_profile.csv"] = (["theta", "fejer_mass_norm"], [thetas.tolist(), mass.tolist()])
    return checks, verdicts, plots


def _run_shiftsim(cfg, seed, emit_plots):
    t, order, tols = cfg["t"], cfg["order"], cfg["tolerances"]
    quad = shiftsim.laguerre_quadrature(basis_order=order)
    result = shiftsim.conjugation_check(t, n_check=cfg["n_check"], quad=quad)
    checks = [
        _check("gram_residual", quad.gram_residual, tols["gram"]),
        _check("conjugation_elements", result.residual, tols["conjugation"]),
        _check("lower_triangle", result.lower_violation, tols["lower_triangle"]),
    ]
    verdicts = {"sign_convention": result.convention}
    plots = {"taylor_coefficients.csv": (["n", "c_n"], [
        list(range(order)), shiftsim.taylor_varphi_t(t, order).tolist()
    ])} if emit_plots else {}
    return checks, verdicts, plots


# A runner takes (parsed config, seed, emit_plots) and returns (checks, verdicts, plots); plots maps a CSV file
# name to (header, columns), equal-length lists taken with .tolist(), and run() writes the files
_RUNNERS = {
    "rigidity-check": _run_rigidity,
    "factorize-verify": _run_factorize,
    "recover-params": _run_recover,
    "herglotz-analyze": _run_herglotz,
    "shift-sim": _run_shiftsim,
}


def _flag_number(text, flag):
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidInput(f"{flag}: {text!r} is not a number") from exc


def _with_flags(config, grid_radii_flag, tol_flags):
    """config with --grid-radii merged over its grid section and --tol NAME=VALUE flags over its tolerances."""
    radii = None
    if grid_radii_flag is not None:  # an empty value is a value, and fails the number check
        radii = [_flag_number(v, "--grid-radii") for v in grid_radii_flag.split(",")]
    flags = {"grid": {} if radii is None else {"radii": radii}, "tolerances": {}}
    for item in tol_flags or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise InvalidInput(f"--tol expects NAME=VALUE, got {item!r}")
        flags["tolerances"][name] = _flag_number(value, f"--tol {name}")
    merged = dict(config)
    for section, values in flags.items():
        if values and isinstance(merged.setdefault(section, {}), dict):  # else _parse rejects the section
            merged[section] = {**merged[section], **values}
    return merged


def run(config, seed=None, out_dir=".", grid_radii=None, tol_overrides=None, emit_plots=False):
    """Execute one config, write its CSV plot data to out_dir, and return (report dict, exit code)."""
    if seed is not None and seed < 0:
        raise InvalidInput(f"--seed must be a non-negative integer, got {seed}")
    command = config.get("command")
    if command not in list(SCHEMA):
        raise InvalidInput(f"unknown command {command!r}; known: {list(SCHEMA)}")
    config = _with_flags(config, grid_radii, tol_overrides)  # the report records the config as run
    cfg = _parse(SCHEMA[command], config)
    checks, verdicts, plots = _RUNNERS[command](cfg, seed, emit_plots)
    for name, (header, columns) in plots.items():
        _write_csv(os.path.join(out_dir, name), header, columns)
    overall = all(c["passed"] for c in checks)
    report = {
        "command": command,
        "config": config,
        "seed": seed,
        "tolerances": cfg["tolerances"],
        "checks": checks,
        "verdicts": verdicts,
        "artifacts": sorted(plots),
        "overall_pass": overall,
    }
    return report, (EXIT_PASS if overall else EXIT_FAIL)


def _internal_error(phase, exc):
    print(f"holo-lab: internal error while {phase}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


# built once: parse_args keeps no state in the parser between calls
_PARSER = argparse.ArgumentParser(prog="holo-lab", description="Run a verification suite from a JSON config.")
_PARSER.add_argument("--config", required=True, help="path to the JSON run config")
_PARSER.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
_PARSER.add_argument("--out", default=".", help="output directory for report.json and CSVs")
_PARSER.add_argument("--grid-radii", default=None,
                     help="comma-separated radii override (rigidity-check, factorize-verify, recover-params)")
_PARSER.add_argument("--tol", action="append", default=None, metavar="NAME=VALUE", help="tolerance override")
_PARSER.add_argument("--emit-plots", action="store_true", help="write CSV plot data")


def main(argv=None):
    args = _PARSER.parse_args(argv)

    start = time.monotonic()
    phase = "reading the config"
    try:
        config = _read_json(args.config, "config")
        phase = "creating the output directory"
        os.makedirs(args.out, exist_ok=True)
        phase = f"running {config.get('command')}"
        report, code = run(
            config,
            seed=args.seed,
            out_dir=args.out,
            grid_radii=args.grid_radii,
            tol_overrides=args.tol,
            emit_plots=args.emit_plots,
        )
    except (InvalidInput, SingularityError, FileNotFoundError) as exc:  # only inputs make a Cayley transform singular
        print(f"holo-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # internal error contract: exit 3, never a traceback
        return _internal_error(phase, exc)

    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"  # strict JSON, no partial file
        path = os.path.join(args.out, "report.json")
        with open(path, "w") as fh:
            fh.write(text)
    except Exception as exc:
        return _internal_error("writing the report", exc)

    elapsed = time.monotonic() - start
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    status = "PASS" if not failing else f"FAIL ({', '.join(failing)})"
    print(f"holo-lab: {report['command']}: {status} [{elapsed:.2f}s] -> {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
