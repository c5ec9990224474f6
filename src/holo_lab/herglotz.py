"""Numerical Herglotz analysis on circles of radius r < 1.

The real part of h(z) = i Im h(0) + \\int (e^{it} + z)/(e^{it} - z) dS(t),
S a positive matrix-valued measure, is the Poisson extension of S.  Its
Fourier coefficients at radius r therefore equal r^{|n|} * S-hat(n), so a
single circle of samples recovers the moments of the boundary measure up
to aliasing of size O(r^{N - 2|n|}).  A point mass at angle 0 is then read
off as the Cesaro (Wiener) average of the moments.

The measure itself is never represented: only moments, the atom at the
point 1, and the leaked (non-atomic) mass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import DomainError, circle, circle_coefficients, circle_synthesis
from .factorization import build_h, require_pair
from .operators import hermitian_norm, re_part
from .rigidity import OperatorFunction

__all__ = [
    "HerglotzApprox",
    "sample_boundary",
    "estimate_moments",
    "atom_at_angle",
    "dirac_concentration_test",
    "atom_model",
    "arc_mass_profile",
    "analyze",
    "DEFAULT_R",
    "DEFAULT_N",
    "DEFAULT_M",
]

DEFAULT_R = 0.999
DEFAULT_N = 4096
DEFAULT_M = 64
# an atom mass may have eigenvalues down to -MASS_TOL (round-off)
MASS_TOL = 1e-10


@dataclass(frozen=True)
class HerglotzApprox:
    """What analyze reads off the boundary measure: its moments, the atom at the point 1 and the leaked mass."""

    moments: np.ndarray  # shape (2M + 1, d, d), moment n at index n + M
    atom_mass_at_1: np.ndarray
    leak_mass: float
    concentrated: bool


def sample_boundary(h, r, N):
    """The (N, d, d) samples of Re h at N equispaced angles on the circle of radius r; every sample must be finite."""
    if not 0 < r < 1:
        raise DomainError("sample_boundary requires 0 < r < 1")
    if N < 16 or N & (N - 1):
        raise ValueError("N must be a power of two, >= 16")
    # h or Re h may overflow: h rejects a value that is not finite, the test below a sample
    with np.errstate(over="ignore", invalid="ignore"):
        samples = re_part(h(circle(r, N)))
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"Re h is not finite at every sample on |z| = {r!r}")
    return samples


def estimate_moments(samples, r, M):
    """The (2M + 1, d, d) moments S-hat(n) = int e^{-int} dS(t), |n| <= M, moment n at index n + M.

    moment(n) = r^{-|n|} * (1/N) * sum_k samples_k e^{-in theta_k} over the
    samples on circle(r, N) (disc.circle_coefficients); r^{-|n|} undoes the
    Poisson smoothing, at the price of amplifying the O(r^{N-|n|}) aliasing
    wrap, hence the M < N/4 margin.  Every moment must be finite: finite
    samples can still sum past the float range, and that raises ValueError.
    """
    N = len(samples)
    if not M < N / 4:
        raise ValueError(f"anti-aliasing margin requires M < N/4 (M={M}, N={N})")
    try:
        return circle_coefficients(samples, r, np.arange(-M, M + 1))
    except ValueError:
        raise ValueError(f"the moments of Re h on |z| = {r!r} are not finite") from None


def atom_at_angle(moments, theta0):
    """Wiener average (2M+1)^{-1} sum_n moment(n) e^{in theta0}.

    Converges to the point mass of the measure at angle theta0 as M grows;
    the diffuse part contributes O(1/M).
    """
    ns = np.arange(len(moments)) - len(moments) // 2
    return np.tensordot(np.exp(1j * ns * theta0), moments, axes=(0, 0)) / len(moments)


def dirac_concentration_test(moments, tol_atom=None):
    """Atom at the point 1, leaked mass, and whether the measure is one atom.

    leak = ||moment(0) - atom||; a measure concentrated at {1} (as the
    rigidity argument forces) leaks only the O(1/M) Wiener error, which the
    default tol_atom, max(1e-2, 4 ||moment(0)|| / M), allows.  moment(0), the
    total mass, and the atom are Hermitian, so both norms are hermitian_norm.
    """
    M = len(moments) // 2
    if tol_atom is None:
        tol_atom = max(1e-2, 4 * hermitian_norm(moments[M]) / M)
    atom = re_part(atom_at_angle(moments, 0.0))
    leak = hermitian_norm(moments[M] - atom)
    return atom, leak, bool(leak <= tol_atom)


def atom_model(A, B):
    """build_h's h_1(z) = phi(z) B + i A, the pure-atom Herglotz function; A = A*, B = B* to 1e-10, the mass B >= 0."""
    A, B, eigs = require_pair(A, B, tol=1e-10)
    if eigs[0] < -MASS_TOL:
        raise ValueError(f"the atom mass B must be positive semidefinite (smallest eigenvalue {eigs[0]:.3e})")
    return OperatorFunction(A.shape[0], lambda z: build_h(A, B, 1, z.ravel()), "atom-model")


def arc_mass_profile(moments):
    """Fejer-smoothed (nonnegative) arc-mass density at 360 equispaced angles, for plotting.

    The density sum_n (1 - |n|/(M + 1)) moment(n) e^{in theta} is Hermitian (moment(-n) = moment(n)*) and is
    summed at the 360 angles by one inverse DFT (disc.circle_synthesis); its norm is hermitian_norm.
    """
    M = len(moments) // 2
    ns = np.arange(-M, M + 1)
    weights = 1 - np.abs(ns) / (M + 1)
    thetas = 2 * np.pi * np.arange(360) / 360
    density = circle_synthesis(weights[:, None, None] * moments, ns, 360)
    return thetas, hermitian_norm(density)


def analyze(h, r=DEFAULT_R, N=DEFAULT_N, M=DEFAULT_M, tol_atom=None):
    """Full pipeline: sample -> moments -> atom/leak."""
    moments = estimate_moments(sample_boundary(h, r, N), r, M)
    return HerglotzApprox(moments, *dirac_concentration_test(moments, tol_atom=tol_atom))
