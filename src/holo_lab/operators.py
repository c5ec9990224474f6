"""Finite-dimensional complex matrix algebra used throughout the package.

Matrices are plain numpy arrays of shape (d, d), complex dtype, treated as
immutable values.  The kernels (Cayley transform and inverse, exponential,
operator norm) also take an (n, d, d) stack and act slice by slice, with
the same bits per slice as a call on that slice alone.  The matrix Cayley
transform and its inverse exchange positive-real-part matrices and
contractions.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "SingularityError",
    "as_matrix",
    "re_part",
    "im_part",
    "require_self_adjoint",
    "is_positive_contraction",
    "cayley",
    "inverse_cayley",
    "matrix_exp",
    "numerical_abscissa",
    "operator_norm",
    "matrix_to_jsonable",
    "matrix_from_jsonable",
]

# smallest singular value below this (relative) marks a matrix singular
SINGULARITY_RTOL = 1e-10


class SingularityError(RuntimeError):
    """A matrix that must be inverted is numerically singular."""


def _as_square(T, ndims=(2, 3)):
    """Coerce a scalar or array to a complex (d, d) matrix or (n, d, d) stack.

    ndims lists the accepted dimensions; entries must be finite.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim == 0:
        T = T.reshape(1, 1)
    if T.ndim not in ndims or T.shape[-1] != T.shape[-2]:
        kind = "square matrix" if ndims == (2,) else "square matrix or stack of them"
        raise ValueError(f"expected a {kind}, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("matrix entries must be finite")
    return T


def _adjoint(T):
    """Conjugate transpose of a matrix or of each slice of a stack."""
    return T.conj().swapaxes(-1, -2)


def as_matrix(T):
    """Coerce a scalar or array to a (d, d) complex matrix."""
    return _as_square(T, ndims=(2,))


def re_part(T):
    """Self-adjoint real part (T + T*)/2 of a matrix or of each slice of a stack."""
    T = _as_square(T)
    return (T + _adjoint(T)) / 2


def im_part(T):
    """Self-adjoint imaginary part (T - T*)/(2i), so T = re + i*im exactly."""
    T = as_matrix(T)
    return (T - T.conj().T) / (2j)


def require_self_adjoint(T, tol=1e-10, name="matrix"):
    T = as_matrix(T)
    dev = np.max(np.abs(T - T.conj().T))
    if dev > tol:
        raise ValueError(f"{name} is not self-adjoint (deviation {dev:.3e} > {tol:.1e})")
    return T


def is_positive_contraction(B, tol=1e-10):
    """True iff B = B* and the spectrum of B lies in [-tol, 1 + tol]."""
    B = require_self_adjoint(B, tol=tol, name="is_positive_contraction input")
    eigs = np.linalg.eigvalsh(B)
    return bool(eigs[0] >= -tol and eigs[-1] <= 1 + tol)


def _right_divide(num, den):
    """num @ inv(den) per slice, raising SingularityError if any den is ill-conditioned."""
    den = _as_square(den)
    s = np.linalg.svd(den, compute_uv=False)
    smallest = s[..., -1]
    singular = smallest <= SINGULARITY_RTOL * np.maximum(s[..., 0], 1.0)
    if np.any(singular):
        k = int(np.argmax(singular))
        where = f" at stack index {k}" if den.ndim == 3 else ""
        raise SingularityError(
            f"matrix is numerically singular{where} "
            f"(smallest singular value {np.ravel(smallest)[k]:.3e})"
        )
    return _adjoint(np.linalg.solve(_adjoint(den), _adjoint(_as_square(num))))


def cayley(h):
    """Cayley transform (h - I)(h + I)^{-1}; maps Re h >= 0 into contractions."""
    h = _as_square(h)
    eye = np.eye(h.shape[-1])
    return _right_divide(h - eye, h + eye)


def inverse_cayley(psi):
    """Inverse Cayley transform (I + psi)(I - psi)^{-1}.

    Singular exactly when 1 is (numerically) in the spectrum of psi.
    """
    psi = _as_square(psi)
    eye = np.eye(psi.shape[-1])
    return _right_divide(eye + psi, eye - psi)


def matrix_exp(M):
    """Matrix exponential (scaling-and-squaring, via scipy) of a matrix or of each slice."""
    return scipy.linalg.expm(_as_square(M))


def numerical_abscissa(M):
    """Largest eigenvalue of (M + M*)/2; bounds log of the norm of e^M."""
    return float(np.linalg.eigvalsh(re_part(M))[-1])


def operator_norm(M):
    """Largest singular value: a float for a matrix, an (n,) array for a stack."""
    M = _as_square(M)
    s = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(s) if M.ndim == 2 else s


def matrix_to_jsonable(M):
    """Matrix literal: list of rows, each entry a two-element [re, im] list."""
    M = as_matrix(M)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def matrix_from_jsonable(rows, self_adjoint=False, tol=1e-10, name="matrix"):
    """Parse the [re, im] row format; optionally validate self-adjointness."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: malformed matrix literal") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError(f"{name}: expected d x d entries of [re, im], got shape {arr.shape}")
    M = as_matrix(arr[..., 0] + 1j * arr[..., 1])
    if self_adjoint:
        require_self_adjoint(M, tol=tol, name=name)
    return M
