"""Truncated simulation of the shift semigroup and its Hardy-space conjugate.

The unitary identification sends the n-th Laguerre function
l_n(x) = sqrt(2) e^{-x} L_n(2x) on the half-line to the monomial z^n, and
the time-t shift to multiplication by varphi_t(z) = exp(-t(1+z)/(1-z)).
Two independent routes compute the same numbers: Gauss quadrature of
<S_t l_m, l_n> on the half-line, and the Taylor coefficients c_{n-m}(t)
of varphi_t by power-series composition.  Their agreement is the
strongest check in the package.

Multiplication operators are truncated to lower block-triangular
(block-)Toeplitz matrices in the monomial basis; products of truncations
agree with truncations of products, which yields the factorization check
at the operator level.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .factorization import phi_jt
from .operators import as_matrix, operator_norm

__all__ = [
    "taylor_varphi_t",
    "taylor_matrix_symbol",
    "toeplitz_of",
    "laguerre_fns",
    "LaguerreQuadrature",
    "laguerre_quadrature",
    "shift_matrix_elements",
    "ConjugationResult",
    "conjugation_check",
    "truncated_factorization_check",
]


# The reductions below feed report.json, so their summation order must not
# depend on the BLAS kernel OpenBLAS picks at run time or on its thread
# count.  einsum with optimize=False runs numpy's own loops, never BLAS.


def _dot(a, b):
    """sum_k a_k b_k in a fixed order."""
    return np.einsum("i,i->", a, b, optimize=False)


def _gram(a, b):
    """(m, n) -> sum_k a[m, k] b[n, k], i.e. a @ b.T, in a fixed order."""
    return np.einsum("mk,nk->mn", a, b, optimize=False)


def taylor_varphi_t(t, N):
    """First N Taylor coefficients of exp(-t(1+z)/(1-z)).

    Writes the symbol as e^{-t} exp(u(z)) with u(z) = -2tz/(1-z), whose
    coefficients are all -2t, and runs the exponential-series recurrence
    c_n = (1/n) sum_k k u_k c_{n-k}.  Exact up to round-off.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    c = np.zeros(N)
    c[0] = 1.0
    ks = np.arange(1, N)
    for n in range(1, N):
        c[n] = -2.0 * t * _dot(ks[:n], c[n - 1 :: -1]) / n
    return np.exp(-t) * c


def taylor_matrix_symbol(params, j, t, N):
    """Taylor coefficients of the matrix symbol z -> phi_{j,t}(z).

    Samples the symbol at S = max(8N, 256) equispaced points of the circle
    |z| = 0.9 and applies an entrywise r^{-n}-corrected DFT.
    """
    S, r = max(8 * N, 256), 0.9
    # the aliasing wrap r^(S - N) is at most 0.9^224 = 5.6e-11 for every N
    # (S - N = 7N from N = 32 on, 256 - N below)
    theta = 2 * np.pi * np.arange(S) / S
    vals = phi_jt(params, j, t, r * np.exp(1j * theta))
    fft = np.fft.fft(vals, axis=0) / S
    return fft[:N] * (r ** -np.arange(N, dtype=float))[:, None, None]


def toeplitz_of(coeffs, d=None):
    """Lower block-triangular Toeplitz truncation of a multiplication operator.

    coeffs is (N,) scalar or (N, d, d) matrix-valued; block (i, j) equals
    coeffs[i - j] for i >= j.  A scalar sequence with d > 1 is promoted to
    c_n * I blocks.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim == 1:
        dd = 1 if d is None else d
        coeffs = coeffs[:, None, None] * np.eye(dd)
    elif coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
        raise ValueError(f"coeffs must be (N,) or (N, d, d); got {coeffs.shape}")
    elif d is not None and d != coeffs.shape[1]:
        raise ValueError("explicit d conflicts with matrix coefficients")
    N, dd = coeffs.shape[0], coeffs.shape[1]
    T = np.zeros((N, dd, N, dd), dtype=complex)  # T[i, :, j, :] is block (i, j)
    i, j = np.tril_indices(N)
    T[i, :, j, :] = coeffs[i - j]
    return T.reshape(N * dd, N * dd)


def laguerre_fns(n_max, x):
    """All l_n(x) = sqrt(2) e^{-x} L_n(2x) for 0 <= n < n_max, shape (n_max, len(x)).

    Three-term recurrence in n; stable for the moderate orders used here.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("laguerre functions live on x >= 0")
    y = 2 * x
    L = np.empty((n_max, x.size))
    if n_max >= 1:
        L[0] = 1.0
    if n_max >= 2:
        L[1] = 1.0 - y
    for n in range(1, n_max - 1):
        L[n + 1] = ((2 * n + 1 - y) * L[n] - n * L[n - 1]) / (n + 1)
    return np.sqrt(2.0) * np.exp(-x)[None, :] * L


@dataclass(frozen=True)
class LaguerreQuadrature:
    """Panel Gauss-Legendre rule on [0, x_max] with a validated Laguerre Gram matrix."""

    nodes: np.ndarray
    weights: np.ndarray
    basis_order: int
    gram_residual: float


def laguerre_quadrature(basis_order=32, breakpoints=()):
    """Build a composite quadrature that resolves l_n for n < basis_order.

    The rule is fixed: 10-node Gauss-Legendre panels of width 0.5 on
    [0, x_max] with x_max = 2 * basis_order + 20, past the classical turning
    point 2 * basis_order so the highest basis functions have decayed.
    Extra breakpoints force panel edges (e.g. at the kink x = t of a shifted
    integrand); those outside (0, x_max) are ignored.  The Gram matrix of
    the basis under the rule is computed at construction; its deviation
    from the identity is stored as gram_residual.  The rule under-resolves
    l_n from basis_order 40 on, where gram_residual exceeds 1e-8.
    """
    x_max = 2 * basis_order + 20.0
    edges = set(np.arange(0.0, x_max, 0.5))
    edges.add(float(x_max))
    edges.update(float(b) for b in breakpoints if 0.0 < b < x_max)
    edges = sorted(edges)
    gx, gw = leggauss(10)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append((b - a) / 2 * gx + (a + b) / 2)
        weights.append((b - a) / 2 * gw)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    basis = laguerre_fns(basis_order, nodes)
    gram = _gram(basis * weights, basis)
    gram_residual = float(np.max(np.abs(gram - np.eye(basis_order))))
    return LaguerreQuadrature(
        nodes=nodes, weights=weights, basis_order=basis_order, gram_residual=gram_residual
    )


def shift_matrix_elements(t, N, quad):
    """Matrix (m, n) -> <S_t l_m, l_n> by quadrature on the shifted product.

    S_t translates by t and cuts at zero, so the integrand is
    l_m(x - t) 1[x >= t] l_n(x).  Accurate when the quadrature has a panel
    edge at x = t (see laguerre_quadrature breakpoints).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if N > quad.basis_order:
        raise ValueError(f"N={N} exceeds quadrature basis order {quad.basis_order}")
    if quad.gram_residual > 1e-8:
        warnings.warn(
            f"quadrature Gram residual {quad.gram_residual:.2e} exceeds 1e-8; "
            "matrix elements may be inaccurate",
            stacklevel=2,
        )
    x = quad.nodes
    mask = x >= t
    basis = laguerre_fns(N, x)
    shifted = laguerre_fns(N, np.maximum(x - t, 0.0)) * mask
    return _gram(shifted * quad.weights, basis)


@dataclass(frozen=True)
class ConjugationResult:
    """Dual-oracle comparison of shift matrix elements with symbol coefficients."""

    residual: float  # for the matching sign convention; target c_{n-m} under "plain"
    residual_alternating: float  # target (-1)^{n-m} c_{n-m}
    convention: str  # "plain" or "alternating", whichever matched
    lower_violation: float  # max |<S_t l_m, l_n>| over n < m
    column_energy: np.ndarray  # sum_n <S_t l_m, l_n>^2 over the full basis order


def conjugation_check(t, n_check=8, quad=None):
    """Check that the shift acts as multiplication by varphi_t in the Laguerre basis.

    Compares quadrature elements <S_t l_m, l_n> against Taylor coefficients
    c_{n-m}(t) for 0 <= m <= n < n_check, under both admissible sign
    conventions for the basis (l_n vs (-1)^n l_n), and reports which one
    matches rather than silently picking.  Also reports the lower-triangle
    violation and per-column energies (1 minus the truncation leak).
    """
    if quad is None:
        quad = laguerre_quadrature(breakpoints=(t,))
    N = quad.basis_order
    if not n_check <= N / 2:
        raise ValueError("n_check must be at most half the quadrature basis order")
    S = shift_matrix_elements(t, N, quad)
    c = taylor_varphi_t(t, n_check)
    alternating = np.where(np.arange(n_check) % 2, -c, c)
    m, n = np.triu_indices(n_check)  # m <= n
    upper = S[m, n]
    res_plain = float(np.max(np.abs(upper - c[n - m])))
    res_alt = float(np.max(np.abs(upper - alternating[n - m])))
    lower = np.max(np.abs(S[np.tril_indices(n_check, -1)]), initial=0.0)
    convention = "plain" if res_plain <= res_alt else "alternating"
    return ConjugationResult(
        residual=min(res_plain, res_alt),
        residual_alternating=res_alt,
        convention=convention,
        lower_violation=float(lower),
        column_energy=np.sum(S[:n_check, :] ** 2, axis=1),
    )


def truncated_factorization_check(params, t, N=32):
    """Residual of the factorization at truncation order N.

    Builds the block-Toeplitz truncations T1, T2 of the two factor symbols
    and T of varphi_t * I, and returns max(||T1 T2 - T||, ||T1 T2 - T2 T1||).
    Lower-triangular Toeplitz products truncate cleanly, so this measures
    coefficient accuracy only.
    """
    T1 = toeplitz_of(taylor_matrix_symbol(params, 1, t, N))
    T2 = toeplitz_of(taylor_matrix_symbol(params, 2, t, N))
    T = toeplitz_of(taylor_varphi_t(t, N), d=params.dim)
    P = T1 @ T2
    return max(operator_norm(P - T), operator_norm(P - T2 @ T1))
