"""Acceptance suite: one test per advertised guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Each test prints `criterion N: PASS/FAIL (worst=...)` before asserting, so a
failing tolerance is visible alongside the measured value.
"""
import json
import os
from pathlib import Path

import numpy as np
import pytest

from holo_lab.cli import main as cli_main
from holo_lab.disc import default_grid
from holo_lab.factorization import (
    FactorParams,
    master_residuals,
    pair_from_params,
    phi_jt,
    random_params,
    recover_params,
    verify_factorization,
)
from holo_lab.herglotz import analyze
from holo_lab.operators import operator_norm
from holo_lab.rigidity import (
    CONSTANT_CONFIRMED,
    DEGENERATE,
    HYPOTHESIS_VIOLATED,
    INCONCLUSIVE,
    NONCONSTANT_FAMILY,
    OperatorFunction,
    constant_function,
    convexity_diagnostic,
    g_transform,
    recover_F,
    resolve_function,
    rigidity_verdict,
)

GRID = default_grid()
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report_line(number, label, passed, worst):
    print(f"criterion {number} ({label}): {'PASS' if passed else 'FAIL'} (worst={worst:.3g})")


def random_hermitian(rng, d, scale=1.0):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (X + X.conj().T) / 2


def random_positive_contraction(rng, d):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    vecs = np.linalg.qr(X)[0]
    return vecs @ np.diag(rng.uniform(0, 1, d)) @ vecs.conj().T


def random_constant(rng, d):
    C = random_positive_contraction(rng, d) + 1j * random_hermitian(rng, d)
    return constant_function(C)


def random_polynomial(rng, d, degree):
    coeffs = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(degree + 1)
    ]
    def evaluator(z, coeffs=coeffs):
        acc = np.zeros((d, d), dtype=complex)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    return OperatorFunction(d, evaluator, f"poly-deg{degree}-d{d}")


def test_c1_lemma_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(1, 9))
        if k % 2 == 0:
            F = random_constant(rng, d)
        else:
            F = random_polynomial(rng, d, int(rng.integers(1, 4)))
        zs = GRID.points()
        worst = max(worst, float(np.max(np.abs(recover_F(g_transform(F), zs) - F(zs)))))
    passed = worst <= 1e-12
    report_line(1, "lemma round trip", passed, worst)
    assert passed


def test_c2_rigidity_verdicts():
    rng = np.random.default_rng(202)
    verdicts = []
    worst_violated_residual = np.inf
    for k in range(500):
        if k % 4 != 3:
            F = random_constant(rng, int(rng.integers(1, 5)))
            expected = CONSTANT_CONFIRMED
        else:
            F = resolve_function(NONCONSTANT_FAMILY[(k // 4) % len(NONCONSTANT_FAMILY)])
            expected = HYPOTHESIS_VIOLATED
        report = rigidity_verdict(F, GRID)
        verdicts.append((report.verdict, expected))
        if expected == HYPOTHESIS_VIOLATED:
            worst_violated_residual = min(worst_violated_residual, report.holo_residual)
    mismatches = sum(1 for actual, expected in verdicts if actual != expected)
    inconclusive = sum(1 for actual, _ in verdicts if actual == INCONCLUSIVE)
    passed = mismatches == 0 and inconclusive == 0 and worst_violated_residual >= 1e-3
    report_line(2, "rigidity verdicts", passed, float(mismatches + inconclusive))
    assert mismatches == 0
    assert inconclusive == 0
    assert worst_violated_residual >= 1e-3
    assert passed


def test_c3_convexity_diagnostic():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        c = complex(rng.uniform(0.05, 0.95), rng.uniform(-1, 1))
        result = convexity_diagnostic(constant_function(c), GRID)
        assert result.status == "OK"
        worst = max(worst, result.deviation)
    degenerate_ok = all(
        convexity_diagnostic(constant_function(complex(re, im)), GRID).status == DEGENERATE
        for re in (0.0, 1.0)
        for im in (0.0, 0.3)
    )
    passed = worst <= 1e-10 and degenerate_ok
    report_line(3, "convexity diagnostic", passed, worst)
    assert worst <= 1e-10
    assert degenerate_ok


def test_c4_herglotz_dirac_recovery():
    rng = np.random.default_rng(404)
    worst_coarse, worst_fine = 0.0, 0.0
    for _ in range(6):
        d = int(rng.integers(1, 5))
        A = random_hermitian(rng, d)
        B = random_positive_contraction(rng, d)
        from holo_lab.disc import mobius_phi

        h = OperatorFunction(d, lambda z, A=A, B=B: 1j * A + mobius_phi(z) * B, "atom-model")
        approx, concentrated = analyze(h, r=0.999, N=4096, M=64)
        worst_coarse = max(worst_coarse, float(operator_norm(approx.atom_mass_at_1 - B)))
        assert concentrated
        # at M = 256 the moment count forces a denser circle: N = 4096 leaves
        # an aliasing floor near 3.3e-2, above the 1.5e-2 target, so use the
        # next power-of-two sampling that resolves it
        approx_fine, _ = analyze(h, r=0.999, N=16384, M=256)
        worst_fine = max(worst_fine, float(operator_norm(approx_fine.atom_mass_at_1 - B)))
    diffuse = OperatorFunction(2, lambda z: np.eye(2, dtype=complex), "diffuse")
    _, diffuse_concentrated = analyze(diffuse, r=0.999, N=4096, M=64)
    passed = worst_coarse <= 5e-2 and worst_fine <= 1.5e-2 and not diffuse_concentrated
    report_line(4, "Herglotz Dirac recovery", passed, max(worst_coarse, worst_fine))
    assert worst_coarse <= 5e-2
    assert worst_fine <= 1.5e-2
    assert not diffuse_concentrated


def test_c5_master_equation_and_classification():
    rng = np.random.default_rng(505)
    dims = [1, 2, 3, 4, 8] * 10
    worst_master, worst_factor, worst_roundtrip = 0.0, 0.0, 0.0
    for d in dims:
        params = random_params(rng, d)
        pair = pair_from_params(params)
        worst_master = max(worst_master, master_residuals(pair, grid=GRID).max())
        rep = verify_factorization(params, grid=GRID)
        worst_factor = max(worst_factor, rep.worst())
        recovered, _ = recover_params(pair, grid=GRID)
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.max(np.abs(recovered.A - params.A))),
            float(np.max(np.abs(recovered.B - params.B))),
        )
    passed = worst_master <= 1e-10 and worst_factor <= 1e-8 and worst_roundtrip <= 1e-10
    report_line(
        5, "master equation + classification", passed,
        max(worst_master, worst_factor, worst_roundtrip),
    )
    assert worst_master <= 1e-10
    assert worst_factor <= 1e-8
    assert worst_roundtrip <= 1e-10


def test_c6_converse_contractivity():
    rng = np.random.default_rng(606)
    t_values = (0.25, 0.5, 1.0, 2.0)
    n_params, n_z = 25, 50
    z_points = list(GRID.points())
    worst = 0.0
    count = 0
    for _ in range(n_params):
        params = random_params(rng, int(rng.integers(1, 5)))
        for t in t_values:
            for idx in rng.choice(len(z_points), size=n_z, replace=False):
                for j in (1, 2):
                    worst = max(worst, operator_norm(phi_jt(params, j, t, z_points[idx])) - 1.0)
                    count += 1
    assert count == 10_000
    passed = worst <= 1e-10
    report_line(6, "converse contractivity (1e4 triples)", passed, worst)
    assert passed


def test_c7_shift_conjugation():
    from holo_lab.shiftsim import conjugation_check, laguerre_quadrature

    worst_agree, worst_lower = 0.0, 0.0
    for t in (0.25, 0.5, 1.0):
        quad = laguerre_quadrature(basis_order=32, breakpoints=(t,))
        result = conjugation_check(t, n_check=8, quad=quad)
        worst_agree = max(worst_agree, result.residual)
        worst_lower = max(worst_lower, result.lower_violation)
        assert result.convention == "plain"
    passed = worst_agree <= 1e-6 and worst_lower <= 1e-8
    report_line(7, "shift-semigroup conjugation", passed, max(worst_agree, worst_lower))
    assert worst_agree <= 1e-6
    assert worst_lower <= 1e-8


def test_c8_truncated_factorization():
    from holo_lab.shiftsim import truncated_factorization_check

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        params = random_params(rng, int(rng.integers(1, 4)))
        worst = max(worst, truncated_factorization_check(params, 1.0, 32))
    monotone_ok = True
    for _ in range(3):
        params = random_params(rng, int(rng.integers(1, 4)))
        res = [truncated_factorization_check(params, 1.0, N) for N in (8, 16, 32, 64)]
        monotone_ok = monotone_ok and all(b <= a + 1e-10 for a, b in zip(res, res[1:]))
    passed = worst <= 1e-8 and monotone_ok
    report_line(8, "truncated factorization", passed, worst)
    assert worst <= 1e-8
    assert monotone_ok


def test_c9_cli_determinism(tmp_path):
    failures = []
    for case in sorted(os.listdir(GOLDEN_DIR)):
        cfg_path = os.path.join(GOLDEN_DIR, case, "config.json")
        blobs = []
        for run_name in ("run1", "run2"):
            out = tmp_path / case / run_name
            code = cli_main(["--config", cfg_path, "--out", str(out), "--seed", "1"])
            if code != 0:
                failures.append(f"{case}: exit {code}")
            blobs.append((out / "report.json").read_bytes())
        if blobs[0] != blobs[1]:
            failures.append(f"{case}: reruns differ")
        golden = Path(GOLDEN_DIR, case, "report.json").read_bytes()
        if blobs[0] != golden:
            failures.append(f"{case}: differs from golden fixture")
    passed = not failures
    report_line(9, "CLI determinism", passed, float(len(failures)))
    assert not failures, failures
