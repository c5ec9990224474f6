"""Scalar complex-analytic primitives on the open unit disc.

Everything here is elementary: the half-plane map, the semigroup symbol,
the Poisson factor, sampling grids, and a finite-difference test for
holomorphy.  All functions accept scalars or numpy arrays of complex
numbers and are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DiscGrid",
    "default_grid",
    "mobius_phi",
    "varphi_t",
    "poisson_factor",
    "wirtinger_dbar",
]


class DomainError(ValueError):
    """Evaluation requested outside the admissible domain."""


def _maybe_scalar(out):
    return out[()] if isinstance(out, np.ndarray) and out.ndim == 0 else out


def mobius_phi(z):
    """Conformal map (1+z)/(1-z) of the disc onto the right half-plane."""
    z = np.asarray(z, dtype=complex)
    if np.any(z == 1):
        raise DomainError("mobius_phi is singular at z = 1")
    return _maybe_scalar((1 + z) / (1 - z))


def _require_in_disc(z, who):
    if np.any(np.abs(z) >= 1):
        raise DomainError(f"{who} requires |z| < 1")


def varphi_t(t, z):
    """Semigroup symbol exp(-t*(1+z)/(1-z)); a unimodular-bounded function on the disc."""
    if t < 0:
        raise DomainError("varphi_t requires t >= 0")
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, "varphi_t")
    return _maybe_scalar(np.exp(-t * mobius_phi(z)))


def poisson_factor(z):
    """(1 - |z|^2)/|1 - z|^2, the Poisson kernel at the boundary point 1.

    Equals Re mobius_phi(z) and is strictly positive on the disc.
    """
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, "poisson_factor")
    return _maybe_scalar((1 - np.abs(z) ** 2) / np.abs(1 - z) ** 2)


@dataclass(frozen=True)
class DiscGrid:
    """Finite sampling of the disc: circles of the given radii, equispaced angles.

    stencil_h is the step used by the finite-difference holomorphy test;
    max(radii) + stencil_h must stay inside the disc.  The default radii
    stop at 0.95 so no point comes close to the singularity of phi at 1.
    """

    radii: tuple
    n_angles: int
    stencil_h: float

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or any(not np.isfinite(r) or not 0 < r < 1 for r in radii):
            raise ValueError("radii must be finite and in (0, 1)")
        if list(radii) != sorted(radii):
            raise ValueError("radii must be ascending")
        if self.n_angles < 8:
            raise ValueError("n_angles must be >= 8")
        if not self.stencil_h > 0:
            raise ValueError("stencil_h must be positive")
        if max(radii) + self.stencil_h >= 1:
            raise ValueError("stencil leaves the disc: max(radii) + stencil_h >= 1")

    def points(self):
        """All grid points as a flat complex array, circle after circle."""
        return self.circles().ravel()

    def circles(self):
        """Grid points one circle per row, shape (len(radii), n_angles), ascending radius."""
        theta = 2 * np.pi * np.arange(self.n_angles) / self.n_angles
        return np.asarray(self.radii)[:, None] * np.exp(1j * theta)[None, :]


DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEFAULT_N_ANGLES = 64
DEFAULT_STENCIL_H = 1e-4


def default_grid(radii=DEFAULT_RADII, n_angles=DEFAULT_N_ANGLES, stencil_h=DEFAULT_STENCIL_H):
    return DiscGrid(radii=tuple(radii), n_angles=n_angles, stencil_h=stencil_h)


def wirtinger_dbar(f, z, h):
    """d-bar derivative (d/dx + i d/dy)/2 of f at z by central differences.

    Vanishes (to O(h^2)) exactly when f is holomorphic near z.  z is a point
    or an array; f is called once, on the flat array of stencil points, and
    returns one value or one matrix per point.  All four stencil points
    must stay in the disc.
    """
    z = np.asarray(z, dtype=complex)
    if not h > 0:
        raise ValueError("stencil step h must be positive")
    stencil = np.stack((z + h, z - h, z + 1j * h, z - 1j * h))
    _require_in_disc(stencil, "wirtinger_dbar stencil")
    values = np.asarray(f(stencil.ravel()))
    values = values.reshape(stencil.shape + values.shape[1:])
    fx = (values[0] - values[1]) / (2 * h)
    fy = (values[2] - values[3]) / (2 * h)
    return _maybe_scalar(0.5 * (fx + 1j * fy))
