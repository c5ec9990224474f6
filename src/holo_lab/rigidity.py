"""Rigidity checks for functions on the disc whose real part lives in [0, I].

The central objects: the real-linear transform F -> F(z) + z*conj(F(z))
(operator form F(z) + z F(z)^*), and a verdict procedure that classifies a
candidate function as constant, hypothesis-violating, or (never, if the
theorem holds) inconclusive.  The split of the transformed function into
h_1 and h_2 is factorization.build_h, stated in (A, B).

The verdict decides the strip 0 <= Re F <= I with operators.spectrum_within
and takes the constancy deviation max ||F(z) - F(0)||_2 from
operators.largest_norm: both keep the bits of an eigvalsh and an SVD of every
point, and this module calls LAPACK only through the operators kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc import holomorphy_residuals, mobius_phi
from .operators import _as_square, as_matrix, largest_norm, re_part, spectrum_within

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
    (i) is operators.spectrum_within and (iii) operators.largest_norm, which
    give the eigvalsh and the operator_norm of every point and send only the
    points that their Cholesky certificates leave open to LAPACK.
    """
    pts = np.append(grid.points(), 0)
    values = F(pts)

    strip_ok = spectrum_within(re_part(values), -STRIP_TOL, 1 + STRIP_TOL)

    holo_residuals = holomorphy_residuals(values + pts[:, None, None] * values.conj().swapaxes(-1, -2), grid)
    holo_residual = float(holo_residuals.max())

    deviation = largest_norm(values - values[-1])

    if strip_ok and holo_residual <= eps_holo and deviation <= eps_const:
        verdict = CONSTANT_CONFIRMED
    elif not strip_ok or holo_residual > eps_holo:
        verdict = HYPOTHESIS_VIOLATED
    else:
        verdict = INCONCLUSIVE
    return RigidityReport(strip_ok, holo_residual, deviation, verdict, holo_residuals)


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
