"""Scalar complex-analytic primitives on the open unit disc.

Everything here is elementary: the half-plane map, the semigroup symbol,
sampling grids, the coefficients of samples on one circle and the values
of coefficients at equispaced angles, and a holomorphy test on a grid read
off the coefficients of its outer circle.  All functions accept scalars or
numpy arrays of complex numbers and are pure.  Circle samples and their
coefficients are read only here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "DiscGrid",
    "grid_points_in_disc",
    "default_grid",
    "circle",
    "circle_scale",
    "circle_coefficients",
    "circle_synthesis",
    "mobius_phi",
    "varphi_t",
    "holomorphy_residuals",
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


def _in_disc(z):
    """True when every point of z has computed modulus < 1, the test each function here applies."""
    return not np.any(np.abs(z) >= 1)


def _require_in_disc(z, who):
    if not _in_disc(z):
        raise DomainError(f"{who} requires |z| < 1")


def varphi_t(t, z):
    """Semigroup symbol exp(-t*(1+z)/(1-z)), t a number or an array broadcasting against z; bounded by 1."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("varphi_t requires t >= 0")
    z = np.asarray(z, dtype=complex)
    _require_in_disc(z, "varphi_t")
    return _maybe_scalar(np.exp(-t * mobius_phi(z)))


def _circles(radii, n_angles):
    """Points r exp(2 pi i k / n_angles), one circle of radius r per row."""
    theta = 2 * np.pi * np.arange(n_angles) / n_angles
    return np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta)[None, :]


def circle(r, n):
    """The n points r exp(2 pi i k / n) of the circle of radius r, as DiscGrid((r,), n) computes them."""
    return _circles((r,), n)[0]


@np.errstate(over="ignore")
def circle_scale(r, ns):
    """The float64 factors r^{-|n|}, n in ns, that undo the Poisson smoothing r^{|n|}; inf where they overflow."""
    return r ** -np.abs(np.asarray(ns))


def circle_coefficients(values, r, ns):
    """Coefficients a_n, n in ns, of sum_n a_n r^{|n|} e^{in theta} from its N = len(values) samples on circle(r, N).

    a_n = r^{-|n|} (1/N) sum_k values_k e^{-2 pi i n k / N}, values_k a scalar
    or a matrix: the Taylor coefficients of a function holomorphic on |z| <= r,
    or the moments of a measure from its Poisson extension, up to aliasing of
    the coefficients n + jN, which r^{-|n|} amplifies.  Finite samples can
    still sum or scale past the float range: a coefficient that is not finite
    raises ValueError.
    """
    values, ns = np.asarray(values), np.asarray(ns)
    N = len(values)
    scale = circle_scale(r, ns).reshape((-1,) + (1,) * (values.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the test below reports an overflow
        coefficients = np.fft.fft(values, axis=0)[ns % N] / N * scale
    if not np.all(np.isfinite(coefficients)):
        raise ValueError(f"the coefficients on |z| = {r!r} are not finite")
    return coefficients


def circle_synthesis(coefficients, ns, N):
    """The N sums sum_n a_n e^{2 pi i n k / N}, k < N, of the coefficients a_n, n in ns.

    The synthesis counterpart of circle_coefficients, at r = 1: a_n is a
    scalar or a matrix, and the coefficients are folded mod N, n and n + jN
    adding, before one unnormalised inverse DFT, so len(ns) may exceed N.
    """
    coefficients = np.asarray(coefficients)
    folded = np.zeros((N,) + coefficients.shape[1:], dtype=complex)
    np.add.at(folded, np.asarray(ns) % N, coefficients)
    return np.fft.ifft(folded, axis=0, norm="forward")


def grid_points_in_disc(radii, n_angles):
    """True when every grid point, as DiscGrid computes it, has modulus < 1.

    r exp(i theta) can round onto the unit circle for r within a few ulps of 1.
    """
    return _in_disc(_circles(radii, n_angles))


@dataclass(frozen=True)
class DiscGrid:
    """Finite sampling of the disc: circles of the given radii, equispaced angles.

    A grid is its points only; holomorphy_residuals reads the disc off its
    circles and z = 0, with no step of its own.  Every grid point must have
    computed modulus < 1, so no function on the disc rejects a point of the
    grid.  The default radii stop at 0.95 so no point comes close to the
    singularity of phi at 1.
    """

    radii: tuple
    n_angles: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        object.__setattr__(self, "radii", radii)
        if not radii or any(not np.isfinite(r) or not 0 < r < 1 for r in radii):
            raise ValueError("radii must be finite and in (0, 1)")
        if list(radii) != sorted(radii):
            raise ValueError("radii must be ascending")
        if self.n_angles < 8:
            raise ValueError("n_angles must be >= 8")
        if not grid_points_in_disc(radii, self.n_angles):
            raise ValueError("a grid point rounds to modulus >= 1")

    def points(self):
        """All grid points as a flat complex array, circle after circle."""
        return self.circles().ravel()

    def circles(self):
        """Grid points one circle per row, shape (len(radii), n_angles), ascending radius."""
        return _circles(self.radii, self.n_angles)


DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
DEFAULT_N_ANGLES = 64


def default_grid():
    """The default DiscGrid: ten circles of 64 points."""
    return DiscGrid(DEFAULT_RADII, DEFAULT_N_ANGLES)


def holomorphy_residuals(values, grid):
    """Per point, the distance of g from a function holomorphic on the disc.

    values: g at grid.points(), then at z = 0, an (n, d, d) stack.  The
    coefficients a_n (circle_coefficients at r = 1) of the N samples on the
    outer circle R split at N/2: n < N/2 (n <= (N - 1)/2 for odd N) are the
    Taylor terms b_n R^n, the rest negative frequencies.  One circle_synthesis
    predicts g(rho e^{i theta}) = sum a_n (rho/R)^n e^{in theta}, never forming
    R^{-n}, and g(0) = a_0.  A residual, the largest entry modulus of g minus
    its prediction, is g's negative-frequency part on the outer circle and
    g(0) - a_0 at z = 0, which catches a radial defect such as |z|^2 on one
    circle.  Aliasing of the terms m >= N/2 of a holomorphic g adds at most
    2 sum_{m >= N/2} |b_m| R^m: no verdict changes, as a constant F gives a
    g of degree 1 and a non-constant F with holomorphic g breaks the strip.
    """
    N = grid.n_angles
    ns = np.arange((N + 1) // 2)
    a = circle_coefficients(values[-1 - N:-1], 1.0, ns)
    powers = (np.asarray(grid.radii) / grid.radii[-1]) ** ns[:, None]
    predicted = circle_synthesis(a[:, None] * powers[..., None, None], ns, N).swapaxes(0, 1)
    return np.abs(values - np.concatenate((predicted.reshape(values[:-1].shape), a[:1]))).max(axis=(1, 2))
