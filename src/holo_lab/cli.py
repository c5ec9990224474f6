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
import json
import math
import os
import sys
import time

import numpy as np

from . import herglotz, rigidity, shiftsim
from .disc import default_grid
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
from .operators import matrix_from_jsonable, operator_norm

__all__ = ["main"]

EXIT_PASS, EXIT_FAIL, EXIT_INVALID, EXIT_INTERNAL = 0, 1, 2, 3

COMMANDS = ("rigidity-check", "factorize-verify", "recover-params", "herglotz-analyze", "shift-sim")

DEFAULT_TOLERANCES = {
    "rigidity-check": {"eps_holo": 1e-6, "eps_const": 1e-8},
    "factorize-verify": {"factorization": 1e-8, "master": 1e-10},
    "recover-params": {"recover": 1e-10, "residual": 1e-9},
    "herglotz-analyze": {"moment_symmetry": 1e-10},
    "shift-sim": {"conjugation": 1e-6, "lower_triangle": 1e-8, "gram": 1e-8},
}


# a Herglotz atom mass B may have eigenvalues down to -HERGLOTZ_MASS_TOL (round-off)
HERGLOTZ_MASS_TOL = 1e-10

# size caps, so that a config cannot ask for gigabytes: herglotz-analyze holds
# n_samples d x d matrices, shift-sim a few order x order matrices
MAX_HERGLOTZ_SAMPLES = 2**16
MAX_SHIFT_ORDER = 256
# or hours: factorize-verify takes 1.7 s at dim 16 on the default grid, and
# 209 s and 145 MB at all three caps below (2 vCPUs; see the README)
MAX_RANDOM_DIM = 16
MAX_RANDOM_COUNT = 8
MAX_GRID_ANGLES = 1024

# what a rigidity-check config may expect; rigidity_verdict returns one of these
RIGIDITY_VERDICTS = (rigidity.CONSTANT_CONFIRMED, rigidity.HYPOTHESIS_VIOLATED, rigidity.INCONCLUSIVE)


class InvalidInput(ValueError):
    """Configuration or input data violates the documented contract."""


def _require_keys(cfg, required, optional, where):
    missing = [k for k in required if k not in cfg]
    unknown = [k for k in cfg if k not in required and k not in optional]
    if missing:
        raise InvalidInput(f"{where}: missing required field(s) {missing}")
    if unknown:
        raise InvalidInput(f"{where}: unknown field(s) {unknown}")


def _section(cfg, key, where):
    """The JSON object cfg[key], or {} when the field is absent."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise InvalidInput(f"{where}: field {key!r} must be a JSON object, got {type(value).__name__}")
    return value


def _check(name, residual, tolerance):
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _verdict_check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual, "passed": bool(expected == actual)}


def _load_params(cfg, where):
    if ("params" in cfg) == ("params_file" in cfg):
        raise InvalidInput(f"{where}: provide exactly one of 'params' or 'params_file'")
    if "params" in cfg:
        data = _section(cfg, "params", where)
    else:
        path = cfg["params_file"]
        if not isinstance(path, str):
            raise InvalidInput(f"{where}: field 'params_file' must be a path string, got {path!r}")
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON or not UTF-8
            raise InvalidInput(f"{where}: cannot read params_file {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidInput(f"{where}: params_file {path!r} must hold a JSON object")
    _require_keys(data, ["dim", "A", "B"], [], f"{where} params")
    _number(data["dim"], f"{where} params dim", int, lambda v: v >= 1, ">= 1")
    try:
        return FactorParams.from_jsonable(data)
    except ValueError as exc:
        raise InvalidInput(f"{where}: {exc}") from exc


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _run_rigidity(cfg, grid, tols, seed, out_dir, emit_plots):
    _require_keys(cfg, ["command", "function"], ["expect_verdict"], "rigidity-check")
    try:
        F = rigidity.resolve_function(cfg["function"])
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    expected = cfg.get("expect_verdict", rigidity.CONSTANT_CONFIRMED)
    if expected not in RIGIDITY_VERDICTS:
        raise InvalidInput(
            f"rigidity-check expect_verdict must be one of {list(RIGIDITY_VERDICTS)}, got {expected!r}"
        )
    report = rigidity.rigidity_verdict(F, grid, eps_holo=tols["eps_holo"], eps_const=tols["eps_const"])
    checks = [_verdict_check("verdict", expected, report.verdict)]
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
    _require_keys(
        cfg, ["command"], ["params", "params_file", "random", "t_list"], "factorize-verify"
    )
    t_list = cfg.get("t_list", DEFAULT_T_LIST)
    if not isinstance(t_list, (list, tuple)) or not t_list:
        raise InvalidInput(f"factorize-verify t_list must be a non-empty list, got {t_list!r}")
    t_list = tuple(_number(t, "factorize-verify t_list entry", float, lambda v: v > 0, "> 0") for t in t_list)
    if "random" in cfg:
        if "params" in cfg or "params_file" in cfg:
            raise InvalidInput("factorize-verify: 'random' excludes explicit params")
        if seed is None:
            raise InvalidInput("factorize-verify: randomized runs require --seed")
        spec = _section(cfg, "random", "factorize-verify")
        _require_keys(spec, ["dim"], ["count"], "factorize-verify.random")
        dim = _number(spec["dim"], "factorize-verify random.dim", int, lambda v: 1 <= v <= MAX_RANDOM_DIM,
                      f">= 1 and <= {MAX_RANDOM_DIM}")
        count = _number(spec.get("count", 1), "factorize-verify random.count", int,
                        lambda v: 1 <= v <= MAX_RANDOM_COUNT, f">= 1 and <= {MAX_RANDOM_COUNT}")
        rng = np.random.default_rng(seed)
        params_list = [random_params(rng, dim) for _ in range(count)]
    else:
        params_list = [_load_params(cfg, "factorize-verify")]

    checks, artifacts = [], []
    worst = {"product": 0.0, "commutation": 0.0, "contractivity": 0.0, "semigroup": 0.0, "master": 0.0}
    first_residuals = None
    for params in params_list:
        rep = verify_factorization(params, grid, t_list=t_list)
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
    _require_keys(cfg, ["command"], ["params", "params_file"], "recover-params")
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
    if ("function" in cfg) == ("params" in cfg):
        raise InvalidInput("herglotz-analyze: provide exactly one of 'function' or 'params'")
    if "function" in cfg:
        try:
            return rigidity.resolve_function(cfg["function"])
        except ValueError as exc:
            raise InvalidInput(str(exc)) from exc
    data = _section(cfg, "params", "herglotz-analyze")
    _require_keys(data, ["A", "B"], [], "herglotz-analyze params")
    try:
        A = matrix_from_jsonable(data["A"], self_adjoint=True, name="A")
        B = matrix_from_jsonable(data["B"], self_adjoint=True, name="B")
    except ValueError as exc:
        raise InvalidInput(f"herglotz-analyze params: {exc}") from exc
    if A.shape != B.shape:
        raise InvalidInput(f"herglotz-analyze params: A is {A.shape}, B is {B.shape}")
    lowest = float(np.linalg.eigvalsh(B)[0])
    if lowest < -HERGLOTZ_MASS_TOL:
        raise InvalidInput(
            "herglotz-analyze params: the atom mass B must be positive semidefinite "
            f"(smallest eigenvalue {lowest:.3e})"
        )
    return rigidity.OperatorFunction(
        A.shape[0], lambda z: herglotz.herglotz_reconstruct(B, A, z), "atom-model"
    )


def _run_herglotz(cfg, grid, tols, seed, out_dir, emit_plots):
    _require_keys(
        cfg,
        ["command"],
        ["function", "params", "r", "n_samples", "n_moments", "tol_atom", "expect_concentrated"],
        "herglotz-analyze",
    )
    h = _herglotz_function(cfg)
    where = "herglotz-analyze"
    r = _number(cfg.get("r", herglotz.DEFAULT_R), f"{where} r", float, lambda v: 0 < v < 1, "in (0, 1)")
    N = _number(
        cfg.get("n_samples", herglotz.DEFAULT_N), f"{where} n_samples", int,
        lambda v: 16 <= v <= MAX_HERGLOTZ_SAMPLES and v & (v - 1) == 0,
        f"2**k with 16 <= n_samples <= {MAX_HERGLOTZ_SAMPLES}",
    )
    M = _number(
        cfg.get("n_moments", herglotz.DEFAULT_M), f"{where} n_moments", int,
        lambda v: 1 <= v < N / 4, ">= 1 and < n_samples / 4",
    )
    expected = cfg.get("expect_concentrated", True)
    if not isinstance(expected, bool):
        raise InvalidInput(f"{where} expect_concentrated must be true or false, got {expected!r}")
    tol_atom = cfg.get("tol_atom")
    if tol_atom is not None:
        tol_atom = _number(tol_atom, f"{where} tol_atom", float, lambda v: v >= 0, ">= 0")
    approx, concentrated = herglotz.analyze(h, r=r, N=N, M=M, tol_atom=tol_atom)
    moments = approx.moments  # moment(n) at index n + M
    sym = float(np.max(np.abs(moments[M::-1] - moments[M:].conj().swapaxes(-1, -2))))
    checks = [_check("moment_symmetry", sym, tols["moment_symmetry"])]
    checks.append(_verdict_check("concentrated_at_1", expected, concentrated))
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
    _require_keys(cfg, ["command"], ["t", "order", "n_check"], "shift-sim")
    t = _number(cfg.get("t", 1.0), "shift-sim t", float, lambda v: v >= 0, ">= 0")
    order = _number(cfg.get("order", 32), "shift-sim order", int, lambda v: 2 <= v <= MAX_SHIFT_ORDER,
                    f">= 2 and <= {MAX_SHIFT_ORDER}")
    n_check = _number(cfg.get("n_check", 8), "shift-sim n_check", int, lambda v: 1 <= v <= order / 2,
                      ">= 1 and <= order / 2")
    quad = shiftsim.laguerre_quadrature(basis_order=order)
    result = shiftsim.conjugation_check(t, n_check=n_check, quad=quad)
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


def _number(value, field, kind, valid, rule):
    """A config field as kind: a JSON integer (kind int) or number (kind float), finite and valid.

    Strings, booleans, nan, infinities and values failing valid() are invalid
    input; `rule` says in words what valid() checks.
    """
    try:
        ok = (
            isinstance(value, int if kind is int else (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and valid(value)
        )
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise InvalidInput(f"{field} must be {what} {rule}, got {value!r}")
    return kind(value)


def _tolerances(command, cfg_tols, flags):
    """DEFAULT_TOLERANCES[command] updated by the config's tolerances, then by --tol NAME=VALUE flags.

    A tolerance that is not a finite number >= 0 would make its check vacuous.
    """
    overrides = list(cfg_tols.items())
    for item in flags or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise InvalidInput(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides.append((name, float(value)))
        except ValueError as exc:
            raise InvalidInput(f"--tol {name}: {value!r} is not a number") from exc
    tols = dict(DEFAULT_TOLERANCES[command])
    for name, value in overrides:
        if name not in tols:
            raise InvalidInput(f"unknown tolerance {name!r} for {command}; known: {sorted(tols)}")
        tols[name] = _number(value, f"tolerance {name}", float, lambda v: v >= 0, ">= 0")
    return tols


def _build_grid(cfg, grid_radii_flag):
    spec = _section(cfg, "grid", "config")
    _require_keys(spec, [], ["radii", "n_angles", "stencil_h"], "grid")
    radii = spec.get("radii")
    if grid_radii_flag:
        try:
            radii = [float(v) for v in grid_radii_flag.split(",")]
        except ValueError as exc:
            raise InvalidInput(f"--grid-radii: {exc}") from exc
    kwargs = {}
    if radii is not None:
        if not isinstance(radii, list) or not radii:
            raise InvalidInput(f"grid radii must be a non-empty list, got {radii!r}")
        kwargs["radii"] = tuple(
            _number(r, "grid radii entry", float, lambda v: 0 < v < 1, "in (0, 1)") for r in radii
        )
    if "n_angles" in spec:
        kwargs["n_angles"] = _number(spec["n_angles"], "grid n_angles", int,
                                     lambda v: 8 <= v <= MAX_GRID_ANGLES, f">= 8 and <= {MAX_GRID_ANGLES}")
    if "stencil_h" in spec:
        kwargs["stencil_h"] = _number(spec["stencil_h"], "grid stencil_h", float, lambda v: v > 0, "> 0")
    try:
        return default_grid(**kwargs)
    except ValueError as exc:
        raise InvalidInput(f"grid: {exc}") from exc


def run(config, seed=None, out_dir=".", grid_radii=None, tol_overrides=None, emit_plots=False):
    """Execute one config and return (report dict, exit code)."""
    command = config.get("command")
    if command not in COMMANDS:
        raise InvalidInput(f"unknown command {command!r}; known: {list(COMMANDS)}")
    cfg = {k: v for k, v in config.items() if k != "grid"}
    grid = _build_grid(config, grid_radii)
    tols = _tolerances(command, _section(config, "tolerances", "config"), tol_overrides)
    cfg.pop("tolerances", None)
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
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise InvalidInput("config must be a JSON object")
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
    except (InvalidInput, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"holo-lab: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # internal error contract: exit 3, never a traceback
        return _internal_error(phase, exc)

    try:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"  # no partial file if this raises
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
