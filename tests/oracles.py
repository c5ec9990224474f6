"""Test oracles: independent routes to what the library computes, and the paper's constructions that no run reads.

Nothing in holo_lab, perfbench or tools calls these; the tests use them to
check the library from a second direction:

- poisson_factor, the Poisson kernel at the point 1;
- numerical_abscissa, which bounds the norm of a matrix exponential;
- inside_budget, the exponent-norm budget of factorization.verify_factorization
  at one point;
- g_transform, the g-transform F(z) + z F(z)^* as an OperatorFunction, which
  rigidity.rigidity_verdict forms on its one stack of F values; L_transform,
  its scalar form, and recover_F, its exact inverse;
- h_split, the paper's route g -> h_1 = g/(1 - z), h_2 = phi I - h_1, which
  factorization.build_h states directly in (A, B);
- rotated_atom, the h_1 of build_h with its atom moved off the point 1: a
  Herglotz pair outside the paper's family;
- re_h1_identity_check and convexity_diagnostic, two statements about that
  split;
- split_additivity_check, linearity of the Herglotz moment map;
- toeplitz_of, the dense block-Toeplitz truncation that shiftsim's
  coefficient convolution stands for;
- dense_arc_mass_profile, the Fejer sum of herglotz.arc_mass_profile as a
  dense phase matrix, normed by the SVD;
- csv_text, the per-value formatter of cli's CSV files;
- eigvalsh_within and svd_largest_norm, operators.spectrum_within and
  operators.largest_norm from eigvalsh and operator_norm of every slice, and
  FLOORS, the two floors the package gives largest_norm;
- NONCONSTANT_FAMILY, the built-in functions that must fail the rigidity
  hypotheses.
"""
from dataclasses import dataclass

import numpy as np

from holo_lab.disc import DomainError, _maybe_scalar, _require_in_disc, mobius_phi
from holo_lab.factorization import EXP_NORM_BUDGET
from holo_lab.herglotz import DEFAULT_M, DEFAULT_N, DEFAULT_R, estimate_moments, sample_boundary
from holo_lab.operators import operator_norm, re_part
from holo_lab.rigidity import OperatorFunction

DEGENERATE = "DEGENERATE"

# members of rigidity.BUILTIN_FUNCTIONS expected to fail the rigidity hypotheses (negative controls)
NONCONSTANT_FAMILY = ("linear", "re-plus-half", "abs-shift")


def poisson_factor(z):
    """(1 - |z|^2)/|1 - z|^2, the Poisson kernel at the boundary point 1.

    Equals Re mobius_phi(z) and is strictly positive on the disc.
    """
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, "poisson_factor")
    return _maybe_scalar((1 - np.abs(z) ** 2) / np.abs(1 - z) ** 2)


def numerical_abscissa(M):
    """Largest eigenvalue of (M + M*)/2; bounds log of the norm of e^M."""
    return float(np.linalg.eigvalsh(re_part(M))[-1])


def inside_budget(t, a_norm, z):
    """t (||A|| + |phi(z)|) <= EXP_NORM_BUDGET at the one point z, a_norm = ||A||, in Python floats.

    verify_factorization compares a factor at (t, z) and the semigroup law of
    consecutive t, s at z exactly where this holds for t and for t + s.
    """
    return t * (a_norm + abs(complex(mobius_phi(z)))) <= EXP_NORM_BUDGET


def g_transform(F):
    """Operator transform: z -> F(z) + z F(z)^*, the scalar f(z) + z conj(f(z)) at d = 1."""
    def ev(z, F=F):
        M = F(z)
        return M + z * M.conj().swapaxes(-1, -2)
    return OperatorFunction(dim=F.dim, evaluator=ev, name=f"g[{F.name}]")


def L_transform(f):
    """Scalar real-linear transform: z -> f(z) + z*conj(f(z))."""
    return lambda z: f(z) + z * np.conj(f(z))


def recover_F(g, z):
    """Exact inverse of g_transform: (g(z) - z g(z)^*)/(1 - |z|^2); z a point or an array of points."""
    z = np.asarray(z, dtype=complex)
    # hypot gives abs(z) bit for bit at any batch size (np.abs may not)
    r = np.hypot(z.real, z.imag)[..., None, None]
    if np.any(r >= 1):
        raise DomainError("recover_F requires |z| < 1")
    G = g(z)
    return (G - z[..., None, None] * G.conj().swapaxes(-1, -2)) / (1 - r**2)


def h_split(g):
    """Split g into h1(z) = g(z)/(1 - z) and h2(z) = phi(z) I - h1(z).

    h1 + h2 = phi*I identically; both have positive-semidefinite real part
    whenever g arises from a function with real part in [0, I].
    """
    def h1(z, g=g):
        if np.any(z == 1):
            raise DomainError("h1 is singular at z = 1")
        return g(z) / (1 - z)

    def h2(z, g=g, h1=h1):
        return mobius_phi(z) * np.eye(g.dim) - h1(z)

    return (
        OperatorFunction(dim=g.dim, evaluator=h1, name=f"h1[{g.name}]"),
        OperatorFunction(dim=g.dim, evaluator=h2, name=f"h2[{g.name}]"),
    )


def rotated_atom(A, B, alpha):
    """(h1, h2): h1(z) = phi(e^{-i alpha} z) B + i A and h2(z) = phi(z) I - h1(z), as OperatorFunctions.

    h1 is a Herglotz function whose measure is the atom B at e^{i alpha}; at alpha = 0 the pair is
    factorization.build_h's, off it Re h2 = P(z) I - P(e^{-i alpha} z) B is no longer >= 0 near e^{i alpha}.
    """
    rotation, eye = np.exp(-1j * alpha), np.eye(len(A))

    def h1(z):
        return mobius_phi(rotation * z) * B + 1j * A

    def h2(z):
        return mobius_phi(z) * eye - h1(z)

    return OperatorFunction(len(A), h1, f"h1[alpha={alpha:g}]"), OperatorFunction(len(A), h2, f"h2[alpha={alpha:g}]")


def re_h1_identity_check(F, grid):
    """Max deviation of Re h1(z) from re_part(F(z)) * poisson_factor(z).

    This is an exact algebraic identity, so the return value measures
    round-off only.
    """
    h1, _ = h_split(g_transform(F))
    zs = grid.points()
    dev = re_part(h1(zs)) - re_part(F(zs)) * poisson_factor(zs)[:, None, None]
    return float(np.max(np.abs(dev)))


@dataclass(frozen=True)
class ConvexityResult:
    status: str  # "OK" or DEGENERATE
    deviation: float  # max_j max_z |f_j(z) - phi(z)|; nan when degenerate


def convexity_diagnostic(F, grid):
    """Scalar diagnostic for the extreme-point argument.

    Builds f_j(z) = (h_j(z) - i Im h_j(0)) / Re h_j(0), normalized members
    of the class {f holomorphic, f(0) = 1, Re f > 0} that average to phi.
    When the hypotheses hold both must coincide with phi, so the returned
    deviation is ~0.  Re h_j(0) <= 1e-12 is the constant-h boundary case and
    is reported as DEGENERATE rather than a failure.
    """
    if F.dim != 1:
        raise ValueError("convexity_diagnostic is scalar-only (dim 1)")
    h1, h2 = h_split(g_transform(F))
    zs = grid.points()
    deviation = 0.0
    for h in (h1, h2):
        values = h(np.concatenate(([0], zs)))[:, 0, 0]  # h(0), then h on the grid
        h0 = values[0]
        if h0.real <= 1e-12:
            return ConvexityResult(status=DEGENERATE, deviation=float("nan"))
        f = (values - 1j * h0.imag) / h0.real
        if not abs(f[0] - 1) <= 1e-12:
            raise ArithmeticError(f"normalized {h.name} has f(0) = {complex(f[0])}, not 1")
        deviation = max(deviation, float(np.max(np.abs(f[1:] - mobius_phi(zs)))))
    return ConvexityResult(status="OK", deviation=deviation)


def split_additivity_check(h1, h2, r=DEFAULT_R, N=DEFAULT_N, M=DEFAULT_M):
    """Max over n of ||moments_{h1}(n) + moments_{h2}(n) - moments_{phi*I}(n)||.

    The moment map is linear in the measure, so for h1 + h2 = phi*I this
    measures round-off only.
    """
    if h1.dim != h2.dim:
        raise ValueError("h1 and h2 must share a dimension")
    eye = np.eye(h1.dim)
    phi_eye = OperatorFunction(h1.dim, lambda z: mobius_phi(z) * eye, "phi*I")
    m1 = estimate_moments(sample_boundary(h1, r, N), r, M)
    m2 = estimate_moments(sample_boundary(h2, r, N), r, M)
    m = estimate_moments(sample_boundary(phi_eye, r, N), r, M)
    return float(operator_norm(m1 + m2 - m).max())


def toeplitz_of(coeffs, d=None):
    """Lower block-triangular Toeplitz truncation of a multiplication operator.

    coeffs is (N,) scalar or (N, d, d) matrix-valued; block (i, j) equals
    coeffs[i - j] for i >= j.  A scalar sequence with d > 1 is promoted to
    c_n * I blocks.  This is the dense oracle: the checks in shiftsim work
    on the coefficients and never build it.
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


def dense_arc_mass_profile(moments):
    """(thetas, ||density||) of herglotz.arc_mass_profile, the Fejer sum formed as a 360 x (2M + 1) phase matrix.

    Every moment meets every angle in one tensordot, with no fold and no FFT;
    the norm is the SVD's largest singular value.
    """
    M = len(moments) // 2
    ns = np.arange(-M, M + 1)
    weights = 1 - np.abs(ns) / (M + 1)
    thetas = 2 * np.pi * np.arange(360) / 360
    phases = np.exp(1j * np.outer(thetas, ns)) * weights
    density = np.tensordot(phases, moments, axes=(1, 0))
    return thetas, np.linalg.svd(density, compute_uv=False)[:, 0]


def csv_text(header, rows):
    """The text of a CSV file of cli, one value at a time: a float as f"{v:.17g}", any other value as str(v)."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return "".join(lines)


def eigvalsh_within(R, low, high):
    """Whether every slice of the Hermitian stack R has its spectrum in [low, high], from eigvalsh of every slice."""
    eigs = np.linalg.eigvalsh(R)
    return bool(eigs.min() >= low and eigs.max() <= high)


# contractivity's floor 1 (the excess is largest_norm - 1) and constancy's None (the reference slice's norm)
FLOORS = (1.0, None)


def svd_largest_norm(M, floor):
    """max(floor, max_k ||M_k||_2) from operator_norm of every slice of the stack M: an SVD of each, np.hypot at
    d = 1; floor None is no floor, and an empty stack gives 0.0."""
    norm = float(operator_norm(M).max(initial=0.0))
    return norm if floor is None else max(floor, norm)
