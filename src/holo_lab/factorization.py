"""Classification of commuting factorizations of the truncated-shift symbol.

Every factorization is parametrized by a self-adjoint A and a positive
contraction B through h_1(z) = phi(z) B + i A and h_2(z) = phi(z) I - h_1(z),
built by build_h alone.  The factor symbols are phi_{j,t}(z) = exp(-t h_j(z)),
whose exponents commute for every z, so their product is exp(-t phi(z)) I
exactly; the factorizing pair is psi_j = cayley(h_j), which solves the master
equation inverse_cayley(psi_1(z)) + inverse_cayley(psi_2(z)) = phi(z) I.

The product, commutation, semigroup, master-equation and recovery residuals
are Frobenius norms, upper bounds on the operator norm: a residual at or
below a tolerance certifies the operator-norm residual too.  Contractivity
needs the tight ||Q||_2 and keeps it: operators.largest_norm at the floor 1
takes an SVD only of the factors its Cholesky certificate leaves open, and the
same Cholesky clears each I - psi_j divided by as nonsingular.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import _require_in_disc, mobius_phi, varphi_t
from .operators import (
    _require_nonsingular,
    cayley,
    exp_sweep,
    frobenius_norm,
    im_part,
    inverse_cayley,
    largest_norm,
    operator_norm,
    re_part,
    require_self_adjoint,
)
from .rigidity import OperatorFunction

__all__ = [
    "require_pair",
    "FactorParams",
    "FactorPair",
    "random_params",
    "build_h",
    "pair_from_params",
    "phi_jt",
    "FactorizationReport",
    "verify_factorization",
    "master_residuals",
    "recover_params",
    "DEFAULT_T_LIST",
    "EXP_NORM_BUDGET",
]

# every t must be > 0: at t = 0 each factor is I and every check compares nothing
DEFAULT_T_LIST = (0.25, 0.5, 1.0, 2.0)

# the exponentials are trusted for exponent norms up to this; points beyond are skipped
EXP_NORM_BUDGET = 100.0

# slices per stack of a factorization check: an exp_sweep call of verify_factorization holds the
# default t_list's 7 multipliers on one 64-point circle, a master or recovery stack 448 points
_SWEEP_SLICES = 7 * 64


def require_pair(A, B, tol):
    """(A, B, eigenvalues of B) of matrices A = A*, B = B* to tol, of one size: FactorParams' and atom_model's check."""
    A, B = require_self_adjoint(A, tol=tol, name="A"), require_self_adjoint(B, tol=tol, name="B")
    if A.shape != B.shape:
        raise ValueError(f"A and B must have the same dimension: A is {A.shape}, B is {B.shape}")
    return A, B, np.linalg.eigvalsh(B)


@dataclass(frozen=True)
class FactorParams:
    """Pair (A, B): A self-adjoint, 0 <= B <= I.  Parametrizes a factorization."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A, B, eigs = require_pair(self.A, self.B, tol=1e-12)
        if not (eigs[0] >= -1e-12 and eigs[-1] <= 1 + 1e-12):
            raise ValueError("B violates the 0 <= B <= I invariant")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class FactorPair:
    """Contraction-valued pair (psi_1, psi_2) satisfying the master equation."""

    psi1: OperatorFunction
    psi2: OperatorFunction


def random_params(rng, dim):
    """Seeded random (A, B): Gaussian self-adjoint A with ||A|| <= 2,
    B = V diag(u) V* with u uniform in [0, 1] and Haar-ish V from QR."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = (G + G.conj().T) / 2
    nrm = operator_norm(A)
    if nrm > 2.0:
        A = A * (2.0 / nrm)
    V, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = rng.uniform(0.0, 1.0, size=dim)
    B = (V * u) @ V.conj().T
    return FactorParams(A=(A + A.conj().T) / 2, B=(B + B.conj().T) / 2)


def build_h(A, B, j, z):
    """h_1(z) = phi(z) B + i A or h_2(z) = phi(z) I - h_1(z), for j = 1 or 2, from (d, d) arrays A and B.

    A scalar z gives a (d, d) matrix, an (n,) array of z an (n, d, d) stack.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, "build_h")
    phi = np.asarray(mobius_phi(z))[..., None, None]
    h1 = phi * B + 1j * A
    return h1 if j == 1 else phi * np.eye(len(A)) - h1


def pair_from_params(params):
    """Cayley-transform (A, B) into the factorizing pair psi_j = cayley(h_j)."""

    # the evaluators receive z shaped (n, 1, 1); build_h takes the flat points
    def psi(j):
        return OperatorFunction(params.dim, lambda z: cayley(build_h(params.A, params.B, j, z.ravel())), f"psi{j}")

    return FactorPair(psi1=psi(1), psi2=psi(2))


def phi_jt(params, j, t, z):
    """Factor symbol phi_{j,t}(z) = exp(-t h_j(z)); a contraction.

    A scalar z gives a (d, d) matrix, an (n,) array of z an (n, d, d) stack.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"phi_jt requires a finite t >= 0, got {t}")
    H = -build_h(params.A, params.B, j, z)
    stack = H.reshape(-1, params.dim, params.dim)
    return exp_sweep(stack, np.full((1, len(stack)), float(t)))[0].reshape(H.shape)


@dataclass(frozen=True)
class FactorizationReport:
    """Worst residual per factorization axiom.

    The product, commutation and semigroup residuals are Frobenius norms, at
    least the operator norm; contractivity_excess is the exact
    max(0, ||Q||_2 - 1).
    """

    product_residual: float
    commutation_residual: float
    contractivity_excess: float
    semigroup_residual: float


def verify_factorization(params, grid, t_list=DEFAULT_T_LIST):
    """Check the four factorization axioms over (t, z) in t_list x grid.

    (i) product phi_{1,t} phi_{2,t} = e^{-t phi} I; (ii) the factors
    commute; (iii) each factor is a contraction; (iv) the semigroup law for
    consecutive t, s in t_list, against exp(-(t + s) h_j) computed
    directly.  (i), (ii) and (iv) are measured in the Frobenius norm, (iii)
    in the operator norm.  A point is compared at t where the exponent-norm
    estimate t (||A|| + |phi(z)|) is within EXP_NORM_BUDGET, and in the
    semigroup law where t + s is (then t and s are too).  So every axiom is
    compared somewhere exactly when t_list has two values and its two
    smallest sum within the budget at some grid point; otherwise ValueError,
    before any exponential.
    The grid is swept in chunks of _SWEEP_SLICES // T points, T = 2 len(t_list) - 1:
    one exp_sweep per factor exponentiates a chunk at every t of t_list and
    every consecutive sum, each directly from h_j, with multiplier 0 (the
    identity) where (t, z) is over the budget; each axiom is checked once per
    chunk, on the stack of its compared slices.  Every t must be finite and > 0.
    """
    t_list = sorted(float(t) for t in t_list)
    if not all(np.isfinite(t) and t > 0 for t in t_list):
        raise ValueError(f"t_list must hold finite values > 0, got {t_list}")
    L = len(t_list)
    ts = np.array(t_list + [t + s for t, s in zip(t_list, t_list[1:])])
    zs = grid.points()
    # hypot gives abs(phi) of each point bit for bit (np.abs may not), so
    # the points on the budget's edge do not depend on the batching
    phi = mobius_phi(zs)
    with np.errstate(over="ignore"):  # a product that overflows to inf is over budget too
        ok = ts[:, None] * (operator_norm(params.A) + np.hypot(phi.real, phi.imag)) <= EXP_NORM_BUDGET
    if L < 2 or not ok[L].any():
        raise ValueError(
            f"t_list {t_list} compares the semigroup law at no grid point: its two smallest values t, s need "
            f"(t + s) (||A|| + |phi(z)|) <= EXP_NORM_BUDGET = {EXP_NORM_BUDGET:g} at some grid point"
        )
    eye = np.eye(params.dim)
    prod_res = comm_res = semi_res = 0.0
    norm = 1.0  # max(1, the largest factor norm so far)
    chunk = _SWEEP_SLICES // len(ts)
    for start in range(0, len(zs), chunk):
        z, mask = zs[start:start + chunk], ok[:, start:start + chunk]
        t = np.where(mask, ts[:, None], 0.0)
        Q = [exp_sweep(-build_h(params.A, params.B, j, z), t) for j in (1, 2)]
        m = mask[:L]
        Q1, Q2 = Q[0][:L][m], Q[1][:L][m]
        prod = Q1 @ Q2
        prod_res = max(prod_res, frobenius_norm(prod - varphi_t(t[:L], z)[m][:, None, None] * eye).max(initial=0))
        comm_res = max(comm_res, frobenius_norm(prod - Q2 @ Q1).max(initial=0))
        norm = largest_norm(Q2, largest_norm(Q1, norm))
        del Q1, Q2, prod  # so that the semigroup stacks do not run beside them
        m = mask[L:]  # the semigroup points of (t_list[i], t_list[i + 1]) are inside both their masks
        semi_res = max(semi_res, *(frobenius_norm(P[L:][m] - P[:L - 1][m] @ P[1:L][m]).max(initial=0) for P in Q))
        del Q  # so that the next chunk's sweeps do not run beside these factors
    return FactorizationReport(
        product_residual=float(prod_res),
        commutation_residual=float(comm_res),
        contractivity_excess=norm - 1,
        semigroup_residual=float(semi_res),
    )


def _product(X, Y):
    """X @ Y per slice of two stacks, in einsum: no BLAS, so the same bits under every BLAS kernel."""
    return np.einsum("nij,njk->nik", X, Y, optimize=False)


def _point_chunks(grid):
    """grid.points() in order, as contiguous stacks of at most _SWEEP_SLICES points."""
    zs = grid.points()
    return [zs[start:start + _SWEEP_SLICES] for start in range(0, len(zs), _SWEEP_SLICES)]


def master_residuals(pair, grid):
    """residuals[k] = ||2(I - psi1 psi2) - phi (I - psi1)(I - psi2)||_F at z_k = grid.points()[k].

    This is the master equation ic(psi1) + ic(psi2) = phi I (ic = inverse_cayley)
    multiplied by I - psi1 on the left and by I - psi2 on the right: exact
    whether or not psi1 and psi2 commute, and equivalent wherever I - psi_j is
    invertible, so a numerically singular I - psi_j raises SingularityError.
    It forms no inverse, whose round-off would grow like |phi| near the
    circle, and as (I - psi_j)^-1 = (I + ic(psi_j))/2 it bounds the first form:
    ||ic(psi1) + ic(psi2) - phi I|| <= ||(I + ic(psi1))/2|| ||(I + ic(psi2))/2|| residuals[k].
    """
    eye = np.eye(pair.psi1.dim)
    residuals = []
    for zs in _point_chunks(grid):
        P1, P2 = pair.psi1(zs), pair.psi2(zs)
        L, R = eye - P1, eye - P2
        _require_nonsingular(L)
        _require_nonsingular(R)
        phi = mobius_phi(zs)[:, None, None]
        residuals.append(frobenius_norm(2 * (eye - _product(P1, P2)) - phi * _product(L, R)))
    return np.concatenate(residuals)


def recover_params(pair, grid):
    """Read (A, B) back off a factorizing pair: (A, B, residual).

    h_1(0) = inverse_cayley(psi1(0)) = B + iA fixes the parameters, returned
    as arrays, not FactorParams: a B read back with round-off may leave
    0 <= B <= I by more than FactorParams allows.  The residual
    max_z ||(I + psi1(z)) - h_1(z)(I - psi1(z))||_F certifies that the pair
    really is of the classified exponential form.
    It is ic(psi1) = h_1 multiplied by I - psi1 on the right, inverts nothing
    (a numerically singular I - psi1 raises SingularityError) and bounds the
    first form: ||ic(psi1(z)) - h_1(z)|| <= ||(I + ic(psi1(z)))/2|| residual.
    """
    h10 = inverse_cayley(pair.psi1(0))
    A, B = im_part(h10), re_part(h10)
    eye = np.eye(len(A))
    residual = 0.0
    for zs in _point_chunks(grid):
        P1 = pair.psi1(zs)
        _require_nonsingular(eye - P1)
        dev = (eye + P1) - _product(build_h(A, B, 1, zs), eye - P1)
        residual = max(residual, frobenius_norm(dev).max())
    return A, B, float(residual)
