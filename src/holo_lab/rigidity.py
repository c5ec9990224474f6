"""Rigidity checks for functions on the disc whose real part lives in [0, I].

The central objects: the real-linear transform F -> F(z) + z*conj(F(z))
(operator form F(z) + z F(z)^*), and a verdict procedure that classifies a
candidate function as constant, hypothesis-violating, or (never, if the
theorem holds) inconclusive.  The split of the transformed function into
h_1 and h_2 is factorization.build_h, stated in (A, B).

The verdict decides the strip 0 <= Re F <= I and takes the constancy
deviation max ||F(z) - F(0)||_2 from the batched, BLAS-free Cholesky of
operators._cholesky_certifies, with CERTIFICATE_MARGIN of room for round-off:
eigvalsh and the SVD run only on the slices that its certificates leave open
(_strip_ok, _deviation), so both keep the bits of an eigvalsh and an SVD of
every slice.  This module calls LAPACK only through the operators norms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc import holomorphy_residuals, mobius_phi
from .operators import (
    _adjoint,
    _as_square,
    _cholesky_certifies,
    as_matrix,
    operator_norm,
    re_part,
    spectrum_ends,
)

__all__ = [
    "CONSTANT_CONFIRMED",
    "HYPOTHESIS_VIOLATED",
    "INCONCLUSIVE",
    "OperatorFunction",
    "constant_function",
    "RigidityReport",
    "rigidity_verdict",
    "BUILTIN_FUNCTIONS",
    "resolve_function",
    "DEFAULT_EPS_HOLO",
    "DEFAULT_EPS_CONST",
]

CONSTANT_CONFIRMED = "CONSTANT_CONFIRMED"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"

# rigidity_verdict's default tolerances on the holomorphy residual and the deviation from F(0)
DEFAULT_EPS_HOLO = 1e-6
DEFAULT_EPS_CONST = 1e-8

# the strip: Re F(z) has its spectrum in [-STRIP_TOL, 1 + STRIP_TOL] at every point
STRIP_TOL = 1e-10
# the room that the strip and constancy certificates keep for round-off (_strip_ok, _deviation)
CERTIFICATE_MARGIN = 1e-11


@dataclass(frozen=True)
class OperatorFunction:
    """A pure evaluator z -> d x d matrix on the open disc (d = 1 is scalar).

    A scalar z gives a (d, d) matrix, an array of n points (such as (n,) or
    (n, 1, 1)) an (n, d, d) stack.  The evaluator is called once, with the
    points shaped (n, 1, 1) so that expressions like C0 + z*C1 broadcast;
    its result is broadcast to (n, d, d) and validated once.
    """

    dim: int
    evaluator: Callable
    name: str = ""

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        n, d = z.size, self.dim
        M = _as_square(self.evaluator(z.reshape(n, 1, 1)))
        if M.shape[-1] != d or (M.ndim == 3 and M.shape[0] not in (1, n)):
            raise ValueError(f"{self.name or 'function'} returned shape {M.shape} at {n} point(s), dim {d}")
        if M.shape != (n, d, d):
            M = np.broadcast_to(M, (n, d, d)).copy()
        return M[0] if z.ndim == 0 else M


def constant_function(C, name=""):
    C = as_matrix(C)
    return OperatorFunction(dim=C.shape[0], evaluator=lambda z, C=C: C, name=name or "const")


@dataclass(frozen=True)
class RigidityReport:
    strip_ok: bool
    holo_residual: float
    constancy_deviation: float
    verdict: str
    holo_residuals: np.ndarray  # per point, in grid.points() order and then z = 0


def rigidity_verdict(F, grid, eps_holo=DEFAULT_EPS_HOLO, eps_const=DEFAULT_EPS_CONST):
    """Classify F against the rigidity theorem.

    F is evaluated once, on the grid points and then z = 0.  Checks (i) Re F(z)
    has spectrum in [0, 1] (up to STRIP_TOL) at every point, (ii) g(z) = F(z) +
    z F(z)^* is numerically holomorphic: disc.holomorphy_residuals is at most
    eps_holo, (iii) F deviates from F(0) by at most eps_const.
    CONSTANT_CONFIRMED needs all three; a failure of (i) or (ii) is
    HYPOTHESIS_VIOLATED; the rest is INCONCLUSIVE and contradicts the theorem.
    (i) is eigvalsh of every slice, and (iii) operator_norm of every slice,
    as two certificates give them: a point is in the strip where the shifted
    Re F(z) + (STRIP_TOL - c) I and (1 + STRIP_TOL - c) I - Re F(z), c =
    CERTIFICATE_MARGIN, have a Cholesky factor, and out of it where a diagonal
    entry is beyond the strip by c; a point cannot raise the deviation where
    (tau (1 - c))^2 I - D*D has one, D = F(z) - F(0) and tau the norm of a
    reference point.  Only the points that neither decides reach LAPACK.
    """
    pts = np.append(grid.points(), 0)
    values = F(pts)

    strip_ok = _strip_ok(re_part(values))

    holo_residuals = holomorphy_residuals(values + pts[:, None, None] * values.conj().swapaxes(-1, -2), grid)
    holo_residual = float(holo_residuals.max())

    deviation = _deviation(values - values[-1])

    if strip_ok and holo_residual <= eps_holo and deviation <= eps_const:
        verdict = CONSTANT_CONFIRMED
    elif not strip_ok or holo_residual > eps_holo:
        verdict = HYPOTHESIS_VIOLATED
    else:
        verdict = INCONCLUSIVE
    return RigidityReport(strip_ok, holo_residual, deviation, verdict, holo_residuals)


def _strip_ok(R):
    """Whether every slice of the Hermitian stack R has its spectrum in [-STRIP_TOL, 1 + STRIP_TOL], as eigvalsh decides it.

    With c = CERTIFICATE_MARGIN, a slice is outside where a diagonal entry lies below -STRIP_TOL - c or above
    1 + STRIP_TOL + c, as lambda_min <= R_ii <= lambda_max, and inside where R_k + (STRIP_TOL - c) I and
    (1 + STRIP_TOL - c) I - R_k have a Cholesky factor (operators._cholesky_certifies).  eigvalsh agrees:
    its error is O(d eps) ||R_k||_2 (Weyl), so a slice with ||R_k||_2 >= 2 is out of the strip for it too,
    and the Cholesky's backward error, O(d^2 eps) of the factored matrix (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10), lets only slices with ||R_k||_2 < 1.01 pass both; c covers both
    errors at these norms for d <= 16.  Only where no slice is outside, eigvalsh runs on the slices that
    are not inside.
    """
    c, eye = CERTIFICATE_MARGIN, np.eye(R.shape[-1])
    diag = R.reshape(len(R), -1)[:, ::len(eye) + 1].real
    if diag.min() < -STRIP_TOL - c or diag.max() > 1 + STRIP_TOL + c:
        return False
    inside = _cholesky_certifies(R + (STRIP_TOL - c) * eye) & _cholesky_certifies((1 + STRIP_TOL - c) * eye - R)
    if inside.all():
        return True
    lowest, highest = spectrum_ends(R[~inside])
    return bool(lowest.min() >= -STRIP_TOL and highest.max() <= 1 + STRIP_TOL)


def _deviation(D):
    """max_k ||D_k||_2 over the slices of the stack D, as operator_norm(D).max() gives it.

    D = 0 gives 0.0, and 1 x 1 slices operator_norm of every slice, np.hypot, which takes no SVD; an
    entry that overflowed gets operator_norm's ValueError.  Otherwise D is scaled to X = 2^-e D, exactly (ldexp), so that the largest |Re| or |Im| of an entry is
    in [1/2, 1): every entry of X is at most sqrt(2), so X*X cannot overflow, and an underflow moves it by
    d 2^-1074 at most.  tau is operator_norm of the slice with the largest trace of X*X, its Frobenius norm.
    A slice whose (2^-e tau (1 - CERTIFICATE_MARGIN))^2 I - X*X has a Cholesky factor has ||D_k||_2 <
    tau (1 - CERTIFICATE_MARGIN / 2), as the Cholesky's O(d^2 eps) backward error and the product's
    O(d eps) round-off stay inside the margin for d <= 16, and so an SVD norm below tau: the argument of
    factorization._contractivity_excess with tau in place of 1.  Only the other slices get
    operator_norm, whose SVD keeps a slice's bits in any stack, so the maximum of theirs and tau is the
    all-SVD value.
    """
    parts = D.view(float).reshape(len(D), -1)
    largest = np.abs(parts).max()
    if largest == 0:
        return 0.0
    if D.shape[-1] == 1 or largest == np.inf:  # np.hypot, no SVD to spare; or operator_norm's error on an overflow
        return float(operator_norm(D).max())
    e = math.frexp(largest)[1]
    X = np.ldexp(parts, -e).view(complex).reshape(D.shape)
    gram = _adjoint(X) @ X
    tau = operator_norm(D[np.einsum("nii->n", gram).real.argmax()])
    bound = (math.ldexp(tau, -e) * (1 - CERTIFICATE_MARGIN)) ** 2
    certified = _cholesky_certifies(bound * np.eye(D.shape[-1]) - gram)
    return max(tau, float(operator_norm(D[~certified]).max(initial=0.0)))


BUILTIN_FUNCTIONS = {
    "linear": OperatorFunction(1, lambda z: 0.5 * z + 0.5, "linear"),
    "re-plus-half": OperatorFunction(1, lambda z: z.real + 0.5, "re-plus-half"),
    # hypot gives Python's abs(z) bit for bit; np.abs may differ in the last bit
    "abs-shift": OperatorFunction(1, lambda z: 0.5 * np.hypot(z.real, z.imag) + 0.25, "abs-shift"),
    "phi": OperatorFunction(1, mobius_phi, "phi"),
}

# largest |re|, |im| of a 'const:re,im' function: the Herglotz FFT sums up to 2**16
# samples (1e305 overflows there), the rigidity FFT 1024 of |F + zF*| < 3e300
MAX_CONSTANT = 1e300


def resolve_function(spec):
    """Look up a built-in test function by id; 'const:re,im' builds a constant."""
    if not isinstance(spec, str):
        raise ValueError(f"function id must be a string, got {spec!r}")
    if spec.startswith("const:"):
        parts = spec[len("const:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad constant spec {spec!r}; expected 'const:re,im'")
        c = complex(float(parts[0]), float(parts[1]))
        if not (abs(c.real) <= MAX_CONSTANT and abs(c.imag) <= MAX_CONSTANT):
            raise ValueError(f"constant {spec!r} needs abs(re) and abs(im) <= {MAX_CONSTANT:g}")
        return constant_function(np.array([[c]]), name=spec)
    if spec in BUILTIN_FUNCTIONS:
        return BUILTIN_FUNCTIONS[spec]
    raise ValueError(f"unknown function id {spec!r}; known: {sorted(BUILTIN_FUNCTIONS)} or const:re,im")
