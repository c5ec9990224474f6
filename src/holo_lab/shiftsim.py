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
    "laguerre_fn",
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


def taylor_matrix_symbol(params, j, t, N, r=0.9, n_samples=None):
    """Taylor coefficients of the matrix symbol z -> phi_{j,t}(z).

    Samples the symbol on the circle |z| = r and applies an entrywise
    r^{-n}-corrected DFT.  The aliasing wrap is O(r^{n_samples - N}); a
    warning is raised when that estimate exceeds 1e-10.
    """
    if not 0 < r < 1:
        raise ValueError("sampling radius must satisfy 0 < r < 1")
    S = n_samples if n_samples is not None else max(8 * N, 256)
    if N > S / 4:
        raise ValueError(f"need N <= n_samples/4 (N={N}, n_samples={S})")
    if r ** (S - N) > 1e-10:
        warnings.warn(
            f"estimated aliasing r^(S-N) = {r ** (S - N):.2e} exceeds 1e-10; "
            "increase n_samples or lower r",
            stacklevel=2,
        )
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
    T = np.zeros((N * dd, N * dd), dtype=complex)
    for i in range(N):
        for j in range(i + 1):
            T[i * dd : (i + 1) * dd, j * dd : (j + 1) * dd] = coeffs[i - j]
    return T


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


def laguerre_fn(n, x):
    """Single orthonormal Laguerre function l_n(x)."""
    scalar = np.isscalar(x)
    out = laguerre_fns(n + 1, x)[n]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LaguerreQuadrature:
    """Panel Gauss-Legendre rule on [0, x_max] with a validated Laguerre Gram matrix."""

    nodes: np.ndarray
    weights: np.ndarray
    basis_order: int
    gram_residual: float


def laguerre_quadrature(basis_order=32, x_max=None, panel_width=0.5, nodes_per_panel=10, breakpoints=()):
    """Build a composite quadrature that resolves l_n for n < basis_order.

    x_max defaults past the classical turning point 2*basis_order so the
    highest basis functions have decayed.  Extra breakpoints force panel
    edges (e.g. at the kink x = t of a shifted integrand).  The Gram
    matrix of the basis under the rule is computed at construction; its
    deviation from the identity is stored as gram_residual.
    """
    if x_max is None:
        x_max = 2 * basis_order + 20.0
    edges = set(np.arange(0.0, x_max, panel_width))
    edges.add(float(x_max))
    edges.update(float(b) for b in breakpoints if 0.0 < b < x_max)
    edges = sorted(edges)
    gx, gw = leggauss(nodes_per_panel)
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

    residual: float  # for the matching sign convention
    residual_plain: float  # target c_{n-m}
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
        quad = laguerre_quadrature(breakpoints=(t,) if t > 0 else ())
    N = quad.basis_order
    if not n_check <= N / 2:
        raise ValueError("n_check must be at most half the quadrature basis order")
    S = shift_matrix_elements(t, N, quad)
    c = taylor_varphi_t(t, n_check)
    res_plain = res_alt = 0.0
    for m in range(n_check):
        for n in range(m, n_check):
            res_plain = max(res_plain, abs(S[m, n] - c[n - m]))
            res_alt = max(res_alt, abs(S[m, n] - (-1) ** (n - m) * c[n - m]))
    lower = max(
        (abs(S[m, n]) for m in range(n_check) for n in range(m)), default=0.0
    )
    convention = "plain" if res_plain <= res_alt else "alternating"
    return ConjugationResult(
        residual=min(res_plain, res_alt),
        residual_plain=res_plain,
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
