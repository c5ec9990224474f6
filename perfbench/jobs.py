"""Seeded job lists for the holo-lab benchmark, and the code that runs one job.

A job list is plain JSON data: generating it needs only numpy and the seed,
never holo_lab, so the program under test receives nothing but the generated
inputs.  Every job carries its expected outcome.  A CLI job always expects
exit 0; negative cases ask for their verdict through the config's
`expect_verdict` / `expect_concentrated`.  A library job expects a verdict
or a residual bound.

Each workload's list is stratified: every seed gives the same jobs in the
same order, with the same sizes and the same ones emitting plots; the seed
draws only the parameters.  Run-to-run cost therefore depends little on the
seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

WORKLOADS = {
    # matrix_exp and small operator_norm SVDs dominate (~40% each in a d=4
    # job), then as_matrix re-validation; almost no FFT or dense Toeplitz work.
    "factorization": "default-grid factorize-verify and recover-params CLI jobs: small-matrix expm, SVD and validation",
    # per-point OperatorFunction evaluation, the Wirtinger stencil and
    # sample_boundary; no expm at all, so an expm change must not move it.
    "rigidity_herglotz": "rigidity and Herglotz jobs: per-point evaluator calls, the stencil and boundary sampling, no expm",
    # expm at one t over 256-512 circle samples, dense block-Toeplitz
    # products and SVDs up to 512 on a side, the Python toeplitz_of loop and
    # the Laguerre quadrature's BLAS products.
    "shiftsim": "shift-sim CLI and truncated-factorization jobs: dense Toeplitz products and SVDs, Laguerre quadrature",
}

DIMS = (1, 2, 3, 4, 8)
BUILTIN_NEGATIVES = ("linear", "re-plus-half", "abs-shift", "phi")
HERGLOTZ_SIZES = ((4096, 64), (16384, 256))
HERGLOTZ_R = 0.999
SHIFT_TS = (0.25, 0.5, 1.0, 2.0, 3.0)
SHIFT_N_CHECK = (8, 16)
# orders above 32 fail the default Gram tolerance (1.08e-6 at order 48)
SHIFT_ORDER = 32
TFC_NS = (16, 32, 64)
TFC_TS = (0.5, 1.0, 2.0)
# worst residual measured over the whole (d, N, t) grid was 1.6e-13
TFC_MAX_RESIDUAL = 1e-8


# ---------------------------------------------------------------- generation

def _jsonable(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _hermitian(rng, d, norm):
    """Gaussian matrix made exactly self-adjoint, scaled to operator norm `norm`."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = (G + G.conj().T) / 2
    return H * (norm / np.linalg.norm(H, 2))


def _contraction(rng, d):
    """Exactly self-adjoint B = V diag(u) V* with u in [0.05, 0.95], so 0 <= B <= I."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    V, _ = np.linalg.qr(G)
    B = (V * rng.uniform(0.05, 0.95, size=d)) @ V.conj().T
    return (B + B.conj().T) / 2


def _params(rng, d):
    """JSON (A, B) with A = A* and 0 <= B <= I."""
    A = _hermitian(rng, d, rng.uniform(1.0, 2.0))
    return {"dim": d, "A": _jsonable(A), "B": _jsonable(_contraction(rng, d))}


def _seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _cli(config, rng):
    return {"kind": "cli", "config": config, "seed": _seed(rng), "emit_plots": False}


def _interleave(*groups):
    """Round-robin over the groups, so job kinds alternate in a fixed order."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out += [g[k] for g in groups if k < len(g)]
    return out


def _every_other_plots(jobs, commands):
    for k, job in enumerate(j for j in jobs if j["kind"] == "cli" and j["config"]["command"] in commands):
        job["emit_plots"] = k % 2 == 1
    return jobs


def _factorization(rng):
    verify_random = [_cli({"command": "factorize-verify", "random": {"dim": d, "count": 1}}, rng) for d in DIMS]
    verify_params = [_cli({"command": "factorize-verify", "params": _params(rng, d)}, rng) for d in (2, 3, 4)]
    recover = [_cli({"command": "recover-params", "params": _params(rng, d)}, rng) for d in (1, 2, 4, 8)]
    return _every_other_plots(_interleave(verify_random, verify_params, recover), ("factorize-verify",))


def _rigidity_herglotz(rng):
    positives = [
        _cli({"command": "rigidity-check",
              "function": f"const:{rng.uniform(0.05, 0.95)!r},{rng.uniform(-2.0, 2.0)!r}"}, rng)
        for _ in range(4)
    ]
    negatives = [
        _cli({"command": "rigidity-check", "function": name, "expect_verdict": "HYPOTHESIS_VIOLATED"}, rng)
        for name in BUILTIN_NEGATIVES
    ]
    atoms = {size: [] for size in HERGLOTZ_SIZES}
    for (N, M), group in atoms.items():
        for d in (1, 2, 3, 4):
            p = _params(rng, d)
            group.append(_cli({"command": "herglotz-analyze", "params": {"A": p["A"], "B": p["B"]},
                               "r": HERGLOTZ_R, "n_samples": N, "n_moments": M}, rng))
    diffuse = [
        _cli({"command": "herglotz-analyze", "function": f"const:{rng.uniform(0.1, 0.9)!r},0.0",
              "r": HERGLOTZ_R, "n_samples": 4096, "n_moments": 64, "expect_concentrated": False}, rng)
        for _ in range(2)
    ]
    constants = []
    for d in (1, 2, 3, 4):
        p = _params(rng, d)  # constant C = B + iA, so Re C = B has spectrum in [0, 1]
        constants.append({"kind": "rigidity_verdict", "coeffs": [[p["B"], p["A"]]],
                          "expect_verdict": "CONSTANT_CONFIRMED"})
    polynomials = []
    for d in (1, 2, 3, 4):
        coeffs = [[_jsonable(0.5 * rng.standard_normal((d, d))), _jsonable(0.5 * rng.standard_normal((d, d)))]
                  for _ in range(3)]  # F(z) = C0 + z C1 + z^2 C2, C_k = re_k + i im_k
        polynomials.append({"kind": "rigidity_verdict", "coeffs": coeffs,
                            "expect_verdict": "HYPOTHESIS_VIOLATED"})
    jobs = _interleave(positives, atoms[HERGLOTZ_SIZES[0]], constants, negatives,
                       atoms[HERGLOTZ_SIZES[1]], polynomials, diffuse)
    return _every_other_plots(jobs, ("rigidity-check", "herglotz-analyze"))


def _shiftsim(rng):
    # one shift-sim job per t, so that the median falls among the truncated checks
    shift = [
        _cli({"command": "shift-sim", "t": t, "order": SHIFT_ORDER, "n_check": int(rng.choice(SHIFT_N_CHECK))}, rng)
        for t in SHIFT_TS
    ]
    truncated = []  # a Latin square: each d and each N meets every t
    for i, d in enumerate(DIMS):
        for j, N in enumerate(TFC_NS):
            truncated.append({"kind": "truncated_factorization_check", "params": _params(rng, d),
                              "t": TFC_TS[(i + j) % len(TFC_TS)], "N": N, "max_residual": TFC_MAX_RESIDUAL})
    return _interleave(truncated, shift)


_GENERATORS = {"factorization": _factorization, "rigidity_herglotz": _rigidity_herglotz, "shiftsim": _shiftsim}


def generate(workload, seed):
    """The workload's job list for `seed`: a list of JSON-serialisable dicts, each with an `id`."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    jobs = _GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
    return jobs


def dumps(jobs):
    """Canonical bytes of a job list."""
    return json.dumps(jobs, sort_keys=True).encode()


# ------------------------------------------------------------------- running

def _matrix(rows):
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def samples_grid(job):
    """True when the job evaluates on the default disc grid."""
    command = job["config"]["command"] if job["kind"] == "cli" else job["kind"]
    return command in ("rigidity-check", "factorize-verify", "recover-params", "rigidity_verdict")


def herglotz_samples(job):
    """N * d^2 boundary samples of a herglotz-analyze job, or 0."""
    if job["kind"] != "cli" or job["config"]["command"] != "herglotz-analyze":
        return 0
    cfg = job["config"]
    d = len(cfg["params"]["A"]) if "params" in cfg else 1
    return cfg["n_samples"] * d * d


def toeplitz_work(job):
    """(flops, bytes) of the dense block-Toeplitz algebra of a truncated-factorization job.

    Two complex (dN)^3 products at 8 real flops per multiply-add, and three
    dense (dN)^2 complex128 truncations.  Computed from the job, not measured.
    """
    if job["kind"] != "truncated_factorization_check":
        return 0, 0
    n = job["params"]["dim"] * job["N"]
    return 2 * 8 * n**3, 3 * 16 * n**2


class Runner:
    """Runs the jobs of one list in-process; CLI jobs get their own directory under `work_dir`."""

    def __init__(self, jobs, work_dir):
        import holo_lab.cli  # noqa: F401  (imports every holo_lab module)
        from holo_lab import disc, factorization, rigidity

        self.jobs = jobs
        self.grid = disc.default_grid()
        self.grid_size = len(self.grid.points())
        self.digests = {}
        self._prepared = []
        for job in jobs:
            if job["kind"] == "cli":
                jdir = os.path.join(work_dir, job["id"])
                os.makedirs(jdir, exist_ok=True)
                cfg_path = os.path.join(jdir, "config.json")
                with open(cfg_path, "w") as fh:
                    json.dump(job["config"], fh)
                out = os.path.join(jdir, "out")
                argv = ["--config", cfg_path, "--out", out, "--seed", str(job["seed"])]
                self._prepared.append((argv + ["--emit-plots"] * job["emit_plots"], out))
            elif job["kind"] == "rigidity_verdict":
                mats = [_matrix(re) + 1j * _matrix(im) for re, im in job["coeffs"]]
                self._prepared.append(rigidity.OperatorFunction(
                    mats[0].shape[0], lambda z, mats=mats: sum(C * z**k for k, C in enumerate(mats)), "poly"))
            else:
                p = job["params"]
                self._prepared.append(factorization.FactorParams(A=_matrix(p["A"]), B=_matrix(p["B"])))

    def run(self, i):
        """Run job i once; return (wall seconds, error string or None, bytes written)."""
        from holo_lab import cli, rigidity, shiftsim

        job, prep = self.jobs[i], self._prepared[i]
        if job["kind"] == "cli":
            argv, out = prep
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            wall = time.perf_counter() - t0
            return wall, self._check_cli(job, code, out, err.getvalue()), _dir_bytes(out)
        t0 = time.perf_counter()
        try:
            if job["kind"] == "rigidity_verdict":
                verdict = rigidity.rigidity_verdict(prep, self.grid).verdict
                wall = time.perf_counter() - t0
                ok = verdict == job["expect_verdict"]
                return wall, None if ok else f"verdict {verdict}, expected {job['expect_verdict']}", 0
            res = shiftsim.truncated_factorization_check(prep, job["t"], N=job["N"])
            wall = time.perf_counter() - t0
            ok = res <= job["max_residual"]
            return wall, None if ok else f"residual {res:.3e} > {job['max_residual']:.1e}", 0
        except Exception as exc:  # a raising job is a failed job, never a crashed run
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", 0

    def _check_cli(self, job, code, out, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}"
        path = os.path.join(out, "report.json")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            return f"no report.json: {exc}"
        digest = hashlib.sha256(blob).hexdigest()
        first = self.digests.setdefault(job["id"], digest)
        if digest != first:
            return f"report.json sha256 {digest[:12]} differs from first execution {first[:12]}"
        try:
            report = json.loads(blob)
        except ValueError as exc:
            return f"report.json is not JSON: {exc}"
        if report.get("overall_pass") is not True:
            return "overall_pass is not true"
        cfg, verdicts = job["config"], report.get("verdicts", {})
        if cfg["command"] == "rigidity-check":
            want = cfg.get("expect_verdict", "CONSTANT_CONFIRMED")
            if verdicts.get("verdict") != want:
                return f"verdict {verdicts.get('verdict')}, expected {want}"
        if cfg["command"] == "herglotz-analyze":
            want = cfg.get("expect_concentrated", True)
            if verdicts.get("concentrated") != want:
                return f"concentrated {verdicts.get('concentrated')}, expected {want}"
        return None


def _dir_bytes(path):
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except OSError:
        return 0
