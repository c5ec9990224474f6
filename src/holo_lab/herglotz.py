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

from dataclasses import dataclass, replace

import numpy as np

from .disc import DomainError, _require_in_disc, mobius_phi
from .operators import as_matrix, im_part, operator_norm, re_part
from .rigidity import OperatorFunction

__all__ = [
    "BoundaryProfile",
    "HerglotzApprox",
    "sample_boundary",
    "estimate_moments",
    "atom_at_angle",
    "default_tol_atom",
    "dirac_concentration_test",
    "herglotz_reconstruct",
    "atom_model",
    "split_additivity_check",
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
class BoundaryProfile:
    """Samples of Re h on the circle of radius r at N equispaced angles."""

    r: float
    samples: np.ndarray  # shape (N, d, d), self-adjoint slices

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class HerglotzApprox:
    """Estimated moments of the boundary measure; analyze() returns a copy with atom and leak."""

    r: float
    M: int
    moments: np.ndarray  # shape (2M + 1, d, d), index n + M
    im_at_0: np.ndarray
    atom_mass_at_1: np.ndarray | None = None
    leak_mass: float | None = None

    def moment(self, n):
        if abs(n) > self.M:
            raise IndexError(f"moment index |{n}| exceeds M = {self.M}")
        return self.moments[n + self.M]

    @property
    def dim(self):
        return self.moments.shape[1]


def sample_boundary(h, r, N):
    """Sample Re h at N equispaced angles on the circle of radius r."""
    if not 0 < r < 1:
        raise DomainError("sample_boundary requires 0 < r < 1")
    if N < 16 or N & (N - 1):
        raise ValueError("N must be a power of two, >= 16")
    theta = 2 * np.pi * np.arange(N) / N
    return BoundaryProfile(r=r, samples=re_part(h(r * np.exp(1j * theta))))


def estimate_moments(profile, M):
    """Moments S-hat(n) = int e^{-int} dS(t) for |n| <= M, from one circle.

    moment(n) = r^{-|n|} * (1/N) * sum_k samples_k e^{-in theta_k}; the
    r^{-|n|} factor undoes the Poisson smoothing, at the price of
    amplifying the O(r^{N-|n|}) aliasing wrap, hence the M < N/4 margin.
    """
    N = profile.n_samples
    if not M < N / 4:
        raise ValueError(f"anti-aliasing margin requires M < N/4 (M={M}, N={N})")
    fft = np.fft.fft(profile.samples, axis=0) / N
    ns = np.arange(-M, M + 1)
    moments = fft[ns % N] * (profile.r ** (-np.abs(ns)))[:, None, None]
    return HerglotzApprox(
        r=profile.r, M=M, moments=moments, im_at_0=np.zeros((profile.dim,) * 2)
    )


def atom_at_angle(approx, theta0):
    """Wiener average (2M+1)^{-1} sum_n moment(n) e^{in theta0}.

    Converges to the point mass of the measure at angle theta0 as M grows;
    the diffuse part contributes O(1/M).
    """
    ns = np.arange(-approx.M, approx.M + 1)
    phase = np.exp(1j * ns * theta0)
    return np.tensordot(phase, approx.moments, axes=(0, 0)) / (2 * approx.M + 1)


def default_tol_atom(approx):
    return max(1e-2, 4 * operator_norm(approx.moment(0)) / approx.M)


def dirac_concentration_test(approx, tol_atom=None):
    """Atom at the point 1, leaked mass, and whether the measure is one atom.

    leak = ||moment(0) - atom||; a measure concentrated at {1} (as the
    rigidity argument forces) leaks only the O(1/M) Wiener error.
    """
    if tol_atom is None:
        tol_atom = default_tol_atom(approx)
    atom = atom_at_angle(approx, 0.0)
    atom = (atom + atom.conj().T) / 2
    leak = operator_norm(approx.moment(0) - atom)
    return atom, leak, bool(leak <= tol_atom)


def herglotz_reconstruct(atom_mass, im_at_0, z):
    """The pure-atom Herglotz function i*im_at_0 + phi(z)*atom_mass; z a point or (n, 1, 1) points."""
    _require_in_disc(z, "herglotz_reconstruct")
    return 1j * as_matrix(im_at_0) + mobius_phi(z) * as_matrix(atom_mass)


def atom_model(A, B):
    """The pure-atom Herglotz function i*A + phi(z)*B as an OperatorFunction; the mass B must be >= 0."""
    if A.shape != B.shape:
        raise ValueError(f"A is {A.shape}, B is {B.shape}")
    lowest = float(np.linalg.eigvalsh(B)[0])
    if lowest < -MASS_TOL:
        raise ValueError(f"the atom mass B must be positive semidefinite (smallest eigenvalue {lowest:.3e})")
    return OperatorFunction(A.shape[0], lambda z: herglotz_reconstruct(B, A, z), "atom-model")


def split_additivity_check(h1, h2, r=DEFAULT_R, N=DEFAULT_N, M=DEFAULT_M):
    """Max over n of ||moments_{h1}(n) + moments_{h2}(n) - moments_{phi*I}(n)||.

    The moment map is linear in the measure, so for h1 + h2 = phi*I this
    measures round-off only.
    """
    if h1.dim != h2.dim:
        raise ValueError("h1 and h2 must share a dimension")
    from .rigidity import OperatorFunction  # local import avoids a cycle

    eye = np.eye(h1.dim)
    phi_eye = OperatorFunction(h1.dim, lambda z: mobius_phi(z) * eye, "phi*I")
    m1 = estimate_moments(sample_boundary(h1, r, N), M).moments
    m2 = estimate_moments(sample_boundary(h2, r, N), M).moments
    m = estimate_moments(sample_boundary(phi_eye, r, N), M).moments
    return float(np.linalg.svd(m1 + m2 - m, compute_uv=False)[:, 0].max())


def arc_mass_profile(approx):
    """Fejer-smoothed (nonnegative) arc-mass density at 360 equispaced angles, for plotting."""
    ns = np.arange(-approx.M, approx.M + 1)
    weights = 1 - np.abs(ns) / (approx.M + 1)
    thetas = 2 * np.pi * np.arange(360) / 360
    phases = np.exp(1j * np.outer(thetas, ns)) * weights
    density = np.tensordot(phases, approx.moments, axes=(1, 0))
    return thetas, np.linalg.svd(density, compute_uv=False)[:, 0]


def analyze(h, r=DEFAULT_R, N=DEFAULT_N, M=DEFAULT_M, tol_atom=None):
    """Full pipeline: sample -> moments -> atom/leak, with im_at_0 from h(0)."""
    approx = estimate_moments(sample_boundary(h, r, N), M)
    atom, leak, concentrated = dirac_concentration_test(approx, tol_atom=tol_atom)
    approx = replace(approx, im_at_0=im_part(h(0)), atom_mass_at_1=atom, leak_mass=leak)
    return approx, concentrated
