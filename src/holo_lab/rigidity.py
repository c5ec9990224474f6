"""Rigidity checks for functions on the disc whose real part lives in [0, I].

The central objects: the real-linear transform F -> F(z) + z*conj(F(z))
(operator form F(z) + z F(z)^*), its exact algebraic inverse, the split of
the transformed function into two positive-real-part pieces, a convexity
diagnostic in the scalar case, and a verdict procedure that classifies a
candidate function as constant, hypothesis-violating, or (never, if the
theorem holds) inconclusive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc import DomainError, mobius_phi, poisson_factor, wirtinger_dbar
from .operators import _as_square, as_matrix, re_part

__all__ = [
    "CONSTANT_CONFIRMED",
    "HYPOTHESIS_VIOLATED",
    "INCONCLUSIVE",
    "DEGENERATE",
    "OperatorFunction",
    "constant_function",
    "RigidityReport",
    "ConvexityResult",
    "L_transform",
    "g_transform",
    "recover_F",
    "h_split",
    "re_h1_identity_check",
    "convexity_diagnostic",
    "rigidity_verdict",
    "BUILTIN_FUNCTIONS",
    "resolve_function",
]

CONSTANT_CONFIRMED = "CONSTANT_CONFIRMED"
HYPOTHESIS_VIOLATED = "HYPOTHESIS_VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"
DEGENERATE = "DEGENERATE"


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


def L_transform(f):
    """Scalar real-linear transform: z -> f(z) + z*conj(f(z))."""
    return lambda z: f(z) + z * np.conj(f(z))


def g_transform(F):
    """Operator transform: z -> F(z) + z F(z)^* (agrees with L_transform at d = 1)."""
    def ev(z, F=F):
        M = F(z)
        return M + z * M.conj().swapaxes(-1, -2)
    return OperatorFunction(dim=F.dim, evaluator=ev, name=f"g[{F.name}]")


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


@dataclass(frozen=True)
class RigidityReport:
    strip_ok: bool
    holo_residual: float
    constancy_deviation: float
    recovered_constant: np.ndarray
    verdict: str
    dbar_residuals: np.ndarray  # max |dbar g| entry per point, in grid.points() order


def rigidity_verdict(F, grid, eps_holo=1e-6, eps_const=1e-8):
    """Classify F against the rigidity theorem.

    Checks (i) Re F(z) has spectrum in [0, 1] (up to 1e-10) at every grid
    point, (ii) the transform F(z) + z F(z)^* is numerically holomorphic,
    (iii) F deviates from F(0) by at most eps_const.  CONSTANT_CONFIRMED
    needs all three; a failure of (i) or (ii) is HYPOTHESIS_VIOLATED; the
    remaining case is INCONCLUSIVE and would contradict the theorem.
    """
    pts = grid.points()
    values = F(pts)

    eigs = np.linalg.eigvalsh(re_part(values))
    strip_ok = bool(eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10)

    dbar = wirtinger_dbar(g_transform(F), pts, grid.stencil_h)
    dbar_residuals = np.max(np.abs(dbar), axis=(1, 2))
    holo_residual = float(dbar_residuals.max())

    F0 = F(0)
    deviation = float(np.linalg.svd(values - F0, compute_uv=False)[:, 0].max())

    if strip_ok and holo_residual <= eps_holo and deviation <= eps_const:
        verdict = CONSTANT_CONFIRMED
    elif not strip_ok or holo_residual > eps_holo:
        verdict = HYPOTHESIS_VIOLATED
    else:
        verdict = INCONCLUSIVE
    return RigidityReport(
        strip_ok=strip_ok,
        holo_residual=holo_residual,
        constancy_deviation=deviation,
        recovered_constant=F0,
        verdict=verdict,
        dbar_residuals=dbar_residuals,
    )


BUILTIN_FUNCTIONS = {
    "linear": OperatorFunction(1, lambda z: 0.5 * z + 0.5, "linear"),
    "re-plus-half": OperatorFunction(1, lambda z: z.real + 0.5, "re-plus-half"),
    # hypot gives Python's abs(z) bit for bit; np.abs may differ in the last bit
    "abs-shift": OperatorFunction(1, lambda z: 0.5 * np.hypot(z.real, z.imag) + 0.25, "abs-shift"),
    "phi": OperatorFunction(1, mobius_phi, "phi"),
}

# members expected to fail the rigidity hypotheses (used as negative controls)
NONCONSTANT_FAMILY = ("linear", "re-plus-half", "abs-shift")

# largest |re|, |im| of a 'const:re,im' function: the Herglotz FFT sums up to
# 2**16 samples (1e305 overflows there) and the g-transform F + zF* adds two
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
