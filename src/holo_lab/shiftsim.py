"""Truncated simulation of the shift semigroup and its Hardy-space conjugate.

The unitary identification sends the n-th Laguerre function
l_n(x) = sqrt(2) e^{-x} L_n(2x) on the half-line to the monomial z^n, and
the time-t shift to multiplication by varphi_t(z) = exp(-t(1+z)/(1-z)).
Two independent routes compute the same numbers: Gauss-Laguerre
quadrature of <S_t l_m, l_n> on the half-line, exact at every basis order,
and the Taylor coefficients c_{n-m}(t) of varphi_t by power-series
composition.  Their agreement is the strongest check in the package.

Multiplication operators are truncated to lower block-triangular
(block-)Toeplitz matrices in the monomial basis, and T_N(a) T_N(b) =
T_N(ab).  The factorization check reads the coefficients of the pointwise
product of the two factors off one circle of samples, and the Wiener norm
sum_k ||r_k|| bounds a truncation's operator norm: no (dN) x (dN) matrix
is formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import circle, circle_coefficients
from .factorization import phi_jt
from .operators import as_matrix, operator_norm  # as_matrix: perfbench/test_jobs.py reads shiftsim.as_matrix

__all__ = [
    "taylor_varphi_t",
    "laguerre_fns",
    "LaguerreQuadrature",
    "laguerre_quadrature",
    "shift_matrix_elements",
    "ConjugationResult",
    "conjugation_check",
    "truncated_factorization_check",
    "DEFAULT_BASIS_ORDER",
]

# laguerre_quadrature's default number of nodes
DEFAULT_BASIS_ORDER = 32


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
    c_n = (1/n) sum_k k u_k c_{n-k} from c_0 = e^{-t}.  Every |c_n| <= 1
    (the symbol is inner), so nothing overflows, however large t is.  Exact
    up to round-off.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    c = np.zeros(N)
    c[0] = np.exp(-t)
    ks = np.arange(1, N)
    for n in range(1, N):
        c[n] = -2.0 * t * _dot(ks[:n], c[n - 1 :: -1]) / n
    return c


def laguerre_fns(n_max, x):
    """All l_n(x) = sqrt(2) e^{-x} L_n(2x) for 0 <= n < n_max, shape (n_max, len(x)).

    Runs the three-term recurrence on l_n itself, from l_0 = sqrt(2) e^{-x}
    and l_1 = (1 - 2x) l_0.  Every |l_n(x)| <= sqrt(2) on x >= 0 (Szego), so
    nothing overflows, however large x is.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("laguerre functions live on x >= 0")
    y = 2 * x
    l = np.empty((n_max, x.size))
    if n_max >= 1:
        l[0] = np.sqrt(2.0) * np.exp(-x)
    if n_max >= 2:
        l[1] = (1.0 - y) * l[0]
    for n in range(1, n_max - 1):
        l[n + 1] = ((2 * n + 1 - y) * l[n] - n * l[n - 1]) / (n + 1)
    return l


@dataclass(frozen=True)
class LaguerreQuadrature:
    """Gauss-Laguerre rule for products of l_n, with its validated Gram matrix."""

    nodes: np.ndarray
    weights: np.ndarray
    gram_residual: float

    @property
    def basis_order(self):
        return self.nodes.size


def laguerre_quadrature(basis_order=DEFAULT_BASIS_ORDER):
    """The basis_order-node Gauss-Laguerre rule, in l-function form.

    With K = basis_order, sum_k weights[k] f(nodes[k]) equals int_0^inf f dx
    exactly when f is e^{-2x} times a polynomial of degree <= 2K - 1, which
    covers l_m(x) l_n(x + t) for all m, n < K and t >= 0.  The nodes are half
    the eigenvalues of the K x K Laguerre Jacobi matrix (Golub-Welsch); the
    weights 2x / ((K+1)^2 l_{K+1}(x)^2) are the classical ones
    (Abramowitz-Stegun 25.4.45) times e^{2x}.  The Gram matrix of the basis
    under the rule is computed at construction; its deviation from the
    identity, round-off only, is stored as gram_residual.
    """
    K = basis_order
    k = np.arange(1, K)
    jacobi = np.diag(2.0 * np.arange(K) + 1) + np.diag(k, 1) + np.diag(k, -1)
    nodes = np.linalg.eigvalsh(jacobi) / 2
    fns = laguerre_fns(K + 2, nodes)
    weights = 2 * nodes / ((K + 1) ** 2 * fns[K + 1] ** 2)
    basis = fns[:K]
    gram = _gram(basis * weights, basis)
    gram_residual = float(np.max(np.abs(gram - np.eye(K))))
    return LaguerreQuadrature(nodes=nodes, weights=weights, gram_residual=gram_residual)


def shift_matrix_elements(t, quad):
    """Matrix (m, n) -> <S_t l_m, l_n> = int_0^inf l_m(x) l_n(x + t) dx, m, n < quad.basis_order.

    S_t translates by t and cuts at zero; substituting x -> x + t removes
    the cut, and the shifted integrand is smooth, so the Gauss-Laguerre
    rule integrates it exactly, up to round-off.  Its leading N x N block
    holds the elements with m, n < N.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    K, x = quad.basis_order, quad.nodes
    return _gram(laguerre_fns(K, x) * quad.weights, laguerre_fns(K, x + t))


@dataclass(frozen=True)
class ConjugationResult:
    """Dual-oracle comparison of shift matrix elements with symbol coefficients."""

    residual: float  # for the matching convention: target c_{n-m}, or (-1)^{n-m} c_{n-m} under "alternating"
    convention: str  # "plain" or "alternating", whichever matched
    lower_violation: float  # max |<S_t l_m, l_n>| over n < m


def conjugation_check(t, n_check, quad):
    """Check that the shift acts as multiplication by varphi_t in the Laguerre basis.

    Compares quadrature elements <S_t l_m, l_n> against Taylor coefficients
    c_{n-m}(t) for 0 <= m <= n < n_check, under both admissible sign
    conventions for the basis (l_n vs (-1)^n l_n), and reports which one
    matches rather than silently picking.  Also reports the lower-triangle
    violation.
    """
    if not n_check <= quad.basis_order / 2:
        raise ValueError("n_check must be at most half the quadrature basis order")
    S = shift_matrix_elements(t, quad)
    c = taylor_varphi_t(t, n_check)
    alternating = np.where(np.arange(n_check) % 2, -c, c)
    m, n = np.triu_indices(n_check)  # m <= n
    upper = S[m, n]
    res_plain = float(np.max(np.abs(upper - c[n - m])))
    res_alt = float(np.max(np.abs(upper - alternating[n - m])))
    return ConjugationResult(
        residual=min(res_plain, res_alt),
        convention="plain" if res_plain <= res_alt else "alternating",
        lower_violation=float(np.max(np.abs(S[np.tril_indices(n_check, -1)]), initial=0.0)),
    )


def truncated_factorization_check(params, t, N=32):
    """Residual of the factorization at truncation order N.

    Samples both factor symbols once on circle(0.9, S), S = max(8N, 256).
    P and C are the first N Taylor coefficients (disc.circle_coefficients)
    of the pointwise product Q1 Q2 and of the commutator Q1 Q2 - Q2 Q1, and
    c those of varphi_t (by the series recurrence).  Returns

        max(sum_k ||P_k - c_k I||, sum_k ||C_k||),

    ||.|| the spectral norm.  Lower block-triangular Toeplitz truncations
    multiply cleanly, so P and C are the coefficient sequences of T1 T2 and
    T1 T2 - T2 T1 for the truncations T1, T2 of the two factors.  A
    truncation is T_N(r) = sum_k J^k (x) r_k with J the N x N truncated
    shift and ||J^k|| <= 1, so ||T_N(r)|| <= sum_k ||r_k|| (the
    Wiener-algebra bound, Boettcher-Silbermann, Analysis of Toeplitz
    Operators, section 2): the sums bound the dense ||T1 T2 - T_N(c) (x) I||
    and ||T1 T2 - T2 T1|| at order N, and a residual within a tolerance
    certifies both.
    """
    S, r, ns = max(8 * N, 256), 0.9, np.arange(N)
    # the aliasing wrap is at most r^(S - N) <= 0.9^224 = 5.6e-11: S - N >= 224 for every N
    z = circle(r, S)
    Q1, Q2 = phi_jt(params, 1, t, z), phi_jt(params, 2, t, z)
    product = Q1 @ Q2
    P = circle_coefficients(product, r, ns)
    C = circle_coefficients(product - Q2 @ Q1, r, ns)
    c = taylor_varphi_t(t, N)
    target = np.sum(operator_norm(P - c[:, None, None] * np.eye(params.dim)))
    return float(max(target, np.sum(operator_norm(C))))
