"""Batch driver: JSON config in, machine-readable JSON report + CSV plot data out.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
input (config, parameters, flags), 3 internal/IO error.  Reports are
byte-stable for a fixed (config, seed): volatile data such as wall time goes
to stderr, never into report.json.  The golden reports are also the same
across the BLAS kernels a run-time-dispatched OpenBLAS may pick and across
its thread counts; a factorization report with d > 1 can change in its last
bits with the BLAS kernel (see the README).
"""
from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import struct
import sys
import time
from collections import namedtuple

import numpy as np

from . import disc, herglotz, rigidity, shiftsim
from .factorization import (
    DEFAULT_T_LIST,
    EXP_NORM_BUDGET,
    FactorParams,
    master_residuals,
    pair_from_params,
    random_params,
    recover_params,
    verify_factorization,
)
from .operators import SingularityError, matrix_from_jsonable, operator_norm

__all__ = ["main"]

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2, 3

# size caps, so that a config cannot ask for gigabytes: herglotz-analyze holds
# n_samples d x d matrices, shift-sim a few order x order matrices
MAX_HERGLOTZ_SAMPLES = 2**16
MAX_SHIFT_ORDER = 256
# or hours: factorize-verify takes 1.7 s at dim 16 on the default grid, and
# 209 s and 145 MB at all three caps below (2 vCPUs; see the README)
MAX_RANDOM_DIM = 16
MAX_RANDOM_COUNT = 8
MAX_GRID_ANGLES = 1024
# from t ~ 745 every compared coefficient is 0; from t ~ 9e307 2t overflows
MAX_SHIFT_T = 10**6

# what a rigidity-check config may expect; rigidity_verdict returns one of these
RIGIDITY_VERDICTS = (rigidity.CONSTANT_CONFIRMED, rigidity.HYPOTHESIS_VIOLATED, rigidity.INCONCLUSIVE)


class InvalidInput(ValueError):
    """Configuration or input data violates the documented contract."""


REQUIRED, ABSENT = object(), object()
# One config field.  kind is a key of _KINDS or "object" (read against table); bounds are
# (operator, constant or Ref) pairs, checked on each entry of a list; rule is (text, predicate) for what
# bounds cannot say; default is REQUIRED, ABSENT (no value) or the value; a null means a default of None.
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
    "list": ("a non-empty list of finite numbers", lambda v: isinstance(v, (list, tuple)) and len(v) > 0, tuple),
    "matrix": ("rows of [re, im] entries", lambda v: True, lambda v: v),  # checked by the library
    "function id": ("a function id", lambda v: True, rigidity.resolve_function),
}


def _rule(field):
    """The field's rule in words: its bounds, then its named rule."""
    bounds = " and ".join(f"{op} {getattr(bound, 'text', bound)}" for op, bound in field.bounds)
    return ", ".join(w for w in (bounds, *field.rule[:1]) if w)


def _value(field, value, values, label):
    """value read as `field` of the section whose messages start with label."""
    if field.kind == "object":
        if not isinstance(value, dict):
            where = label.rstrip(" .")
            raise InvalidInput(f"{where}: field {field.name!r} must be a JSON object, got {type(value).__name__}")
        return _parse(field.table, value, label)
    what, test, convert = _KINDS[field.kind]
    ok = test(value)
    if ok and field.kind == "list":  # the bounds hold for each entry
        entry = field._replace(name=field.name + " entry", kind="number", rule=())
        value = [_value(entry, v, values, label) for v in value]
    elif ok:
        ok = all(_COMPARE[op](value, b.value(values) if isinstance(b, Ref) else b) for op, b in field.bounds)
    if not ok or field.rule and not field.rule[1](value):
        raise InvalidInput(f"{label}{field.name} must be {' '.join(filter(None, [what, _rule(field)]))}, got {value!r}")
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


def _edge(holds):
    """The smallest float in (0, 1] at which holds(), false at 0, true at 1 and switching once, is true."""
    as_float = lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]  # noqa: E731
    lo, hi = 0, 0x3FF0000000000000  # bit patterns of 0.0 and 1.0; floats >= 0 sort as their patterns do
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(as_float(mid)) else (mid, hi)
    return as_float(hi)


@functools.lru_cache
@np.errstate(over="ignore")
def _smallest_r(n_moments):
    """The smallest r whose r ** -n_moments, the largest factor estimate_moments applies, is finite."""
    exponent = -np.array([n_moments])  # the float64 power of estimate_moments
    return _edge(lambda r: np.isfinite(r ** exponent)[0])


@functools.lru_cache
def _stencil_cap(top):
    """The smallest stencil_h with top + stencil_h >= 1 in floating point, which DiscGrid rejects."""
    return _edge(lambda h: top + h >= 1)


HERGLOTZ_PARAMS = Table("params ", (Field("A", "matrix", REQUIRED), Field("B", "matrix", REQUIRED)))
GRID = Table("grid ", (
    Field("radii", "list", disc.DEFAULT_RADII, ((">", 0), ("<", 1)), ("ascending", lambda v: list(v) == sorted(v))),
    Field("n_angles", "integer", disc.DEFAULT_N_ANGLES, ((">=", 8), ("<=", MAX_GRID_ANGLES))),
    # a subnormal step makes the Wirtinger quotient inf * 0 = nan
    Field("stencil_h", "number", disc.DEFAULT_STENCIL_H,
          ((">=", sys.float_info.min), ("<", Ref("1 - max(radii)", lambda v: _stencil_cap(max(v["radii"])))))),
))
PARAMS = Table("params ", (Field("dim", "integer", REQUIRED, ((">=", 1),)), *HERGLOTZ_PARAMS.fields))
FUNCTION_RULE = (f"a name in {sorted(rigidity.BUILTIN_FUNCTIONS)} or 'const:re,im' with abs(re), abs(im) "
                 f"<= {rigidity.MAX_CONSTANT:g}", lambda v: True)  # resolve_function checks it


def _command(name, tolerances, fields, one_of=()):
    """A command's table: the command, the grid, its tolerances (name: default), then its own fields."""
    tolerances = tuple(Field(k, "number", v, ((">=", 0),)) for k, v in tolerances.items())
    common = (Field("command", "string", REQUIRED), Field("grid", "object", {}, table=GRID),
              Field("tolerances", "object", {}, table=Table("tolerance ", tolerances)))
    return Table(name + " ", common + fields, one_of)


SCHEMA = {
    "rigidity-check": _command("rigidity-check", {"eps_holo": 1e-6, "eps_const": 1e-8}, (
        Field("function", "function id", REQUIRED, rule=FUNCTION_RULE),
        Field("expect_verdict", "string", rigidity.CONSTANT_CONFIRMED,
              rule=(f"in {list(RIGIDITY_VERDICTS)}", lambda v: v in RIGIDITY_VERDICTS)),
    )),
    "factorize-verify": _command("factorize-verify", {"factorization": 1e-8, "master": 1e-10}, (
        Field("params", "object", table=PARAMS),
        Field("params_file", "string"),
        Field("random", "object", table=Table("random.", (
            Field("dim", "integer", REQUIRED, ((">=", 1), ("<=", MAX_RANDOM_DIM))),
            Field("count", "integer", 1, ((">=", 1), ("<=", MAX_RANDOM_COUNT))),
        ))),
        Field("t_list", "list", DEFAULT_T_LIST, ((">", 0),)),
    ), one_of=[("params", "params_file", "random")]),
    "recover-params": _command("recover-params", {"recover": 1e-10, "residual": 1e-9}, (
        Field("params", "object", table=PARAMS), Field("params_file", "string"),
    ), one_of=[("params", "params_file")]),
    "herglotz-analyze": _command("herglotz-analyze", {"moment_symmetry": 1e-10}, (
        Field("function", "function id", rule=FUNCTION_RULE),
        Field("params", "object", table=HERGLOTZ_PARAMS),
        Field("n_samples", "integer", herglotz.DEFAULT_N, ((">=", 16), ("<=", MAX_HERGLOTZ_SAMPLES)),
              ("a power of two", lambda v: v & (v - 1) == 0)),
        Field("n_moments", "integer", herglotz.DEFAULT_M,
              ((">=", 1), ("<", Ref("n_samples / 4", lambda v: v["n_samples"] / 4)))),
        Field("r", "number", herglotz.DEFAULT_R,
              ((">=", Ref("the smallest r with r ** -n_moments finite", lambda v: _smallest_r(v["n_moments"]))),
               ("<", 1))),
        Field("tol_atom", "number", None, ((">=", 0),)),
        Field("expect_concentrated", "boolean", True),
    ), one_of=[("function", "params")]),
    "shift-sim": _command("shift-sim", {"conjugation": 1e-6, "lower_triangle": 1e-8, "gram": 1e-8}, (
        Field("t", "number", 1.0, ((">=", 0), ("<=", MAX_SHIFT_T))),
        Field("order", "integer", 32, ((">=", 2), ("<=", MAX_SHIFT_ORDER))),
        Field("n_check", "integer", 8, ((">=", 1), ("<=", Ref("order / 2", lambda v: v["order"] / 2)))),
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
    try:
        return FactorParams.from_jsonable(data)
    except ValueError as exc:
        raise InvalidInput(f"{command}: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _run_rigidity(cfg, grid, tols, seed, out_dir, emit_plots):
    report = rigidity.rigidity_verdict(cfg["function"], grid, eps_holo=tols["eps_holo"], eps_const=tols["eps_const"])
    checks = [_verdict_check("verdict", cfg["expect_verdict"], report.verdict)]
    verdicts = {
        "verdict": report.verdict,
        "strip_ok": report.strip_ok,
        "holo_residual": float(report.holo_residual),
        "constancy_deviation": float(report.constancy_deviation),
    }
    artifacts = []
    if emit_plots:
        rows = [
            (float(z.real), float(z.imag), float(res))
            for z, res in zip(grid.points(), report.dbar_residuals)
        ]
        name = "rigidity_residuals.csv"
        _write_csv(os.path.join(out_dir, name), ["re_z", "im_z", "dbar_residual"], rows)
        artifacts.append(name)
    return checks, verdicts, artifacts


def _run_factorize(cfg, grid, tols, seed, out_dir, emit_plots):
    if "random" in cfg:
        if seed is None:
            raise InvalidInput("factorize-verify: randomized runs require --seed")
        rng = np.random.default_rng(seed)
        params_list = [random_params(rng, cfg["random"]["dim"]) for _ in range(cfg["random"]["count"])]
    else:
        params_list = [_load_params(cfg, "factorize-verify")]

    checks, artifacts = [], []
    worst = {"product": 0.0, "commutation": 0.0, "contractivity": 0.0, "semigroup": 0.0, "master": 0.0}
    first_residuals = None
    for params in params_list:
        rep = verify_factorization(params, grid, t_list=cfg["t_list"])
        if rep.n_checked == 0:
            raise InvalidInput(
                "factorize-verify: no (t, z) point lies within the exponent-norm budget "
                f"t * (||A|| + |phi(z)|) <= EXP_NORM_BUDGET = {EXP_NORM_BUDGET:g}; "
                "lower t_list or the grid radii"
            )
        if rep.n_semigroup == 0:
            raise InvalidInput(
                "factorize-verify: the semigroup law was checked at no (t, s, z) point; t_list needs "
                "two consecutive values t, s whose sum lies within the exponent-norm budget "
                f"(EXP_NORM_BUDGET = {EXP_NORM_BUDGET:g}) at some grid point"
            )
        worst["product"] = max(worst["product"], rep.product_residual)
        worst["commutation"] = max(worst["commutation"], rep.commutation_residual)
        worst["contractivity"] = max(worst["contractivity"], rep.contractivity_excess)
        worst["semigroup"] = max(worst["semigroup"], rep.semigroup_residual)
        residuals = master_residuals(pair_from_params(params), grid)
        if first_residuals is None:
            first_residuals = residuals
        worst["master"] = max(worst["master"], float(residuals.max()))
    tol = tols["factorization"]
    checks.append(_check("product_identity", worst["product"], tol))
    checks.append(_check("commutation", worst["commutation"], tol))
    checks.append(_check("contractivity", worst["contractivity"], tol))
    checks.append(_check("semigroup_law", worst["semigroup"], tol))
    checks.append(_check("master_equation", worst["master"], tols["master"]))
    if emit_plots:
        rows = [
            (float(abs(z)), float(np.angle(z)), float(res))
            for z, res in zip(grid.points(), first_residuals)
        ]
        name = "factorize_residuals.csv"
        _write_csv(os.path.join(out_dir, name), ["radius", "angle", "master_residual"], rows)
        artifacts.append(name)
    return checks, {}, artifacts


def _run_recover(cfg, grid, tols, seed, out_dir, emit_plots):
    params = _load_params(cfg, "recover-params")
    pair = pair_from_params(params)
    recovered, residual = recover_params(pair, grid)
    dev = max(
        float(np.max(np.abs(recovered.A - params.A))),
        float(np.max(np.abs(recovered.B - params.B))),
    )
    checks = [
        _check("roundtrip_params", dev, tols["recover"]),
        _check("exponential_form_residual", residual, tols["residual"]),
    ]
    return checks, {}, []


def _herglotz_function(cfg):
    if "function" in cfg:
        return cfg["function"]
    try:
        A, B = (matrix_from_jsonable(cfg["params"][k], self_adjoint=True, name=k) for k in ("A", "B"))
        return herglotz.atom_model(A, B)
    except ValueError as exc:
        raise InvalidInput(f"herglotz-analyze params: {exc}") from exc


def _run_herglotz(cfg, grid, tols, seed, out_dir, emit_plots):
    h = _herglotz_function(cfg)
    M = cfg["n_moments"]
    approx, concentrated = herglotz.analyze(h, r=cfg["r"], N=cfg["n_samples"], M=M, tol_atom=cfg["tol_atom"])
    moments = approx.moments  # moment(n) at index n + M
    sym = float(np.max(np.abs(moments[M::-1] - moments[M:].conj().swapaxes(-1, -2))))
    checks = [_check("moment_symmetry", sym, tols["moment_symmetry"])]
    checks.append(_verdict_check("concentrated_at_1", cfg["expect_concentrated"], concentrated))
    verdicts = {
        "concentrated": concentrated,
        "leak_mass": float(approx.leak_mass),
        "atom_norm": float(operator_norm(approx.atom_mass_at_1)),
    }
    artifacts = []
    if emit_plots:
        norms = operator_norm(moments)
        distances = operator_norm(moments - approx.atom_mass_at_1)
        rows = [(n, float(a), float(b)) for n, a, b in zip(range(-M, M + 1), norms, distances)]
        name = "moment_profile.csv"
        _write_csv(os.path.join(out_dir, name), ["n", "moment_norm", "distance_to_atom"], rows)
        artifacts.append(name)
        thetas, mass = herglotz.arc_mass_profile(approx)
        name2 = "arc_mass_profile.csv"
        _write_csv(
            os.path.join(out_dir, name2),
            ["theta", "fejer_mass_norm"],
            [(float(t), float(m)) for t, m in zip(thetas, mass)],
        )
        artifacts.append(name2)
    return checks, verdicts, artifacts


def _run_shiftsim(cfg, grid, tols, seed, out_dir, emit_plots):
    t, order = cfg["t"], cfg["order"]
    quad = shiftsim.laguerre_quadrature(basis_order=order)
    result = shiftsim.conjugation_check(t, n_check=cfg["n_check"], quad=quad)
    checks = [
        _check("gram_residual", quad.gram_residual, tols["gram"]),
        _check("conjugation_elements", result.residual, tols["conjugation"]),
        _check("lower_triangle", result.lower_violation, tols["lower_triangle"]),
    ]
    verdicts = {"sign_convention": result.convention}
    artifacts = []
    if emit_plots:
        coeffs = shiftsim.taylor_varphi_t(t, order)
        name = "taylor_coefficients.csv"
        _write_csv(
            os.path.join(out_dir, name),
            ["n", "c_n"],
            [(n, float(c)) for n, c in enumerate(coeffs)],
        )
        artifacts.append(name)
    return checks, verdicts, artifacts


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
    radii = [_flag_number(v, "--grid-radii") for v in grid_radii_flag.split(",")] if grid_radii_flag else None
    flags = {"grid": {"radii": radii} if radii else {}, "tolerances": {}}
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
    """Execute one config and return (report dict, exit code)."""
    command = config.get("command")
    if command not in list(SCHEMA):
        raise InvalidInput(f"unknown command {command!r}; known: {list(SCHEMA)}")
    cfg = _parse(SCHEMA[command], _with_flags(config, grid_radii, tol_overrides))
    grid = disc.default_grid(**cfg["grid"])
    tols = cfg["tolerances"]
    checks, verdicts, artifacts = _RUNNERS[command](cfg, grid, tols, seed, out_dir, emit_plots)
    overall = all(c["passed"] for c in checks)
    report = {
        "command": command,
        "config": config,
        "seed": seed,
        "tolerances": tols,
        "checks": checks,
        "verdicts": verdicts,
        "artifacts": sorted(artifacts),
        "overall_pass": overall,
    }
    return report, (EXIT_PASS if overall else EXIT_FAIL)


def _internal_error(phase, exc):
    print(f"holo-lab: internal error while {phase}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="holo-lab", description="Run a verification suite from a JSON config."
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    parser.add_argument("--out", default=".", help="output directory for report.json and CSVs")
    parser.add_argument("--grid-radii", default=None, help="comma-separated radii override")
    parser.add_argument(
        "--tol", action="append", default=None, metavar="NAME=VALUE", help="tolerance override"
    )
    parser.add_argument("--emit-plots", action="store_true", help="write CSV plot data")
    args = parser.parse_args(argv)

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
