"""Classification of commuting factorizations of the truncated-shift symbol.

Every factorization is parametrized by a self-adjoint A and a positive
contraction B: the two factor symbols are matrix exponentials
phi_{1,t}(z) = exp(t[iA - phi(z)B]) and phi_{2,t}(z) = exp(t[-iA -
phi(z)(I-B)]), whose exponents commute for every z, so their product is
exp(-t phi(z)) I exactly.  The Cayley transform converts between (A, B)
and the factorizing pair (psi_1, psi_2) solving

    inverse_cayley(psi_1(z)) + inverse_cayley(psi_2(z)) = phi(z) I.

Internal canonical form: h1(z) = phi(z) B - i A, so phi_{1,t} = exp(-t h1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import _require_in_disc, mobius_phi, varphi_t
from .operators import (
    as_matrix,
    cayley,
    im_part,
    inverse_cayley,
    is_positive_contraction,
    matrix_exp,
    matrix_from_jsonable,
    matrix_to_jsonable,
    operator_norm,
    re_part,
    require_self_adjoint,
)
from .rigidity import OperatorFunction

__all__ = [
    "FactorParams",
    "FactorPair",
    "random_params",
    "build_h1",
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

# matrix_exp is trusted for exponent norms up to this; points beyond are skipped
EXP_NORM_BUDGET = 100.0


@dataclass(frozen=True)
class FactorParams:
    """Pair (A, B): A self-adjoint, 0 <= B <= I.  Parametrizes a factorization."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = require_self_adjoint(as_matrix(self.A), tol=1e-12, name="A")
        B = as_matrix(self.B)
        if A.shape != B.shape:
            raise ValueError("A and B must have the same dimension")
        if not is_positive_contraction(B, tol=1e-12):
            raise ValueError("B violates the 0 <= B <= I invariant")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self):
        return self.A.shape[0]

    def to_jsonable(self):
        return {"dim": self.dim, "A": matrix_to_jsonable(self.A), "B": matrix_to_jsonable(self.B)}

    @classmethod
    def from_jsonable(cls, data):
        if set(data) != {"dim", "A", "B"}:
            raise ValueError(f"params must have exactly the fields dim, A, B; got {sorted(data)}")
        A = matrix_from_jsonable(data["A"], name="A")
        B = matrix_from_jsonable(data["B"], name="B")
        if A.shape[0] != data["dim"]:
            raise ValueError("dim field does not match matrix size")
        return cls(A=A, B=B)


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


def _phi_column(z, who):
    """phi(z) shaped (..., 1, 1) to scale (d, d) matrices; z scalar or array in the disc."""
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, who)
    return np.asarray(mobius_phi(z))[..., None, None]


def build_h1(params, z):
    """h1(z) = phi(z) B - i A; exp(-t h1) is the first factor symbol.

    A scalar z gives a (d, d) matrix, an (n,) array of z an (n, d, d) stack.
    """
    return _phi_column(z, "build_h1") * params.B - 1j * params.A


def pair_from_params(params):
    """Cayley-transform (A, B) into the factorizing pair (psi_1, psi_2)."""
    eye = np.eye(params.dim)

    # the evaluators receive z shaped (n, 1, 1); build_h1 takes the flat points
    def psi1(z, params=params):
        return cayley(build_h1(params, z.ravel()))

    def psi2(z, params=params, eye=eye):
        return cayley(mobius_phi(z) * eye - build_h1(params, z.ravel()))

    return FactorPair(
        psi1=OperatorFunction(params.dim, psi1, "psi1"),
        psi2=OperatorFunction(params.dim, psi2, "psi2"),
    )


def _exponent(params, j, z):
    """exponent_j(z), so phi_{j,t}(z) = exp(t exponent_j(z)); stacked like build_h1."""
    phi = _phi_column(z, "phi_jt")
    if j == 1:
        return 1j * params.A - phi * params.B
    if j == 2:
        return -1j * params.A - phi * (np.eye(params.dim) - params.B)
    raise ValueError("j must be 1 or 2")


def phi_jt(params, j, t, z):
    """Factor symbol phi_{j,t}(z) = exp(t * exponent_j(z)); a contraction.

    A scalar z gives a (d, d) matrix, an (n,) array of z an (n, d, d) stack.
    """
    if t < 0:
        raise ValueError("phi_jt requires t >= 0")
    return matrix_exp(t * _exponent(params, j, z))


@dataclass(frozen=True)
class FactorizationReport:
    """Worst residual per factorization axiom, plus checked and skipped counts.

    n_checked counts (t, z) points inside the exponent-norm budget and
    n_semigroup the (t, s, z) points, s following t in t_list, at which the
    semigroup law was compared; a report with either count 0 does not pass.
    """

    product_residual: float
    commutation_residual: float
    contractivity_excess: float
    semigroup_residual: float
    n_checked: int
    n_skipped: int
    n_semigroup: int

    def passed(self, tol):
        return (
            self.n_checked > 0
            and self.n_semigroup > 0
            and self.product_residual <= tol
            and self.commutation_residual <= tol
            and self.contractivity_excess <= tol
            and self.semigroup_residual <= tol
        )

    def worst(self):
        return max(
            self.product_residual,
            self.commutation_residual,
            self.contractivity_excess,
            self.semigroup_residual,
        )


def _largest_norm(stack):
    return float(np.max(operator_norm(stack)))


def verify_factorization(params, grid, t_list=DEFAULT_T_LIST):
    """Check the four factorization axioms over (t, z) in t_list x grid.

    (i) product phi_{1,t} phi_{2,t} = e^{-t phi} I; (ii) the factors
    commute; (iii) each factor is a contraction; (iv) the semigroup law for
    consecutive t, s in t_list, against exp((t + s) exponent) computed
    directly.  Points whose exponent-norm estimate t (||A|| + |phi(z)|)
    exceeds EXP_NORM_BUDGET are skipped and counted.  The grid is swept one
    circle at a time, each as one stack per (t, factor).  Every t must be
    finite and > 0.
    """
    t_list = sorted(float(t) for t in t_list)
    if not all(np.isfinite(t) and t > 0 for t in t_list):
        raise ValueError(f"t_list must hold finite values > 0, got {t_list}")
    a_norm = operator_norm(params.A)
    eye = np.eye(params.dim)
    prod_res = comm_res = contr_exc = semi_res = 0.0
    n_checked = n_skipped = n_semigroup = 0

    for zs in grid.circles():
        phi = mobius_phi(zs)
        # hypot gives abs(phi) of each point bit for bit (np.abs may not), so
        # the points on the budget's edge do not depend on the batching
        phi_abs = np.hypot(phi.real, phi.imag)
        exps = (_exponent(params, 1, zs), _exponent(params, 2, zs))

        def budget_ok(t):
            with np.errstate(over="ignore"):  # a product that overflows to inf is over budget too
                return t * (a_norm + phi_abs) <= EXP_NORM_BUDGET

        factors = {}  # t -> (mask, phi_{1,t}, phi_{2,t}), factors only at the points in mask
        for t in t_list:
            ok = budget_ok(t)
            n_skipped += int(np.count_nonzero(~ok))
            n_checked += int(np.count_nonzero(ok))
            if not ok.any():
                factors[t] = (ok, None, None)
                continue
            Q1 = matrix_exp(t * exps[0][ok])
            Q2 = matrix_exp(t * exps[1][ok])
            factors[t] = (ok, Q1, Q2)
            prod = Q1 @ Q2
            prod_res = max(prod_res, _largest_norm(prod - varphi_t(t, zs[ok])[:, None, None] * eye))
            comm_res = max(comm_res, _largest_norm(prod - Q2 @ Q1))
            contr_exc = max(contr_exc, _largest_norm(Q1) - 1, _largest_norm(Q2) - 1)
        for t, s in zip(t_list, t_list[1:]):
            ok_t, ok_s = factors[t][0], factors[s][0]
            ok = ok_t & ok_s & budget_ok(t + s)
            n_skipped += int(np.count_nonzero(~ok))
            n_semigroup += int(np.count_nonzero(ok))
            if not ok.any():
                continue
            for j in (1, 2):
                Pts = matrix_exp((t + s) * exps[j - 1][ok])
                Pt, Ps = factors[t][j][ok[ok_t]], factors[s][j][ok[ok_s]]
                semi_res = max(semi_res, _largest_norm(Pts - Pt @ Ps))
    return FactorizationReport(
        product_residual=prod_res,
        commutation_residual=comm_res,
        contractivity_excess=max(contr_exc, 0.0),
        semigroup_residual=semi_res,
        n_checked=n_checked,
        n_skipped=n_skipped,
        n_semigroup=n_semigroup,
    )


def master_residuals(pair, grid):
    """Per-point residual of the master equation.

    residuals[k] = ||ic(psi1(z_k)) + ic(psi2(z_k)) - phi(z_k) I|| for
    z_k = grid.points()[k].  inverse_cayley raises SingularityError where 1
    is (numerically) in the spectrum of psi_j(z).
    """
    eye = np.eye(pair.psi1.dim)
    residuals = []
    for zs in grid.circles():
        P1, P2 = pair.psi1(zs), pair.psi2(zs)
        phi = mobius_phi(zs)[:, None, None]
        residuals.append(operator_norm(inverse_cayley(P1) + inverse_cayley(P2) - phi * eye))
    return np.concatenate(residuals)


def recover_params(pair, grid):
    """Read (A, B) back off a factorizing pair.

    h1(0) = inverse_cayley(psi1(0)) = B - iA fixes the parameters; the
    returned residual max_z ||inverse_cayley(psi1(z)) - (phi(z)B - iA)||
    certifies that the pair really is of the classified exponential form.
    """
    h10 = inverse_cayley(pair.psi1(0))
    B = re_part(h10)
    A = -im_part(h10)
    params = FactorParams(A=A, B=B)
    residual = 0.0
    for zs in grid.circles():
        dev = inverse_cayley(pair.psi1(zs)) - build_h1(params, zs)
        residual = max(residual, _largest_norm(dev))
    return params, residual
