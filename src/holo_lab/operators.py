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


# Padé degree m -> coefficients b_0..b_m of the [m/m] approximant to exp, and
# theta_m, the largest 1-norm at which r_m(A) = exp(A) to double precision
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE = {
    3: ((120.0, 60.0, 12.0, 1.0), 1.495585217958292e-2),
    5: ((30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0), 2.539398330063230e-1),
    7: ((17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
        9.504178996162932e-1),
    9: ((17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0), 2.097847961257068),
    13: ((64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
         5.371920351148152),
}


def _pade_uv(A, m):
    """Odd part U and even part V of the degree-m Padé numerator at each slice of A."""
    b = _PADE[m][0]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
        return U, V
    powers = [eye, A2]  # A^0, A^2, ..., A^(m-1)
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ A2)
    U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
    V = sum(b[2 * k] * P for k, P in enumerate(powers))
    return U, V


def matrix_exp(M):
    """Matrix exponential of a matrix or of each slice of a stack.

    Scaling and squaring with a Padé approximant (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005): each slice gets the lowest degree m in
    {3, 5, 7, 9, 13} whose theta_m bounds its exact 1-norm, or degree 13
    after scaling by 2^-s.  One stacked evaluation per degree, one batched
    solve and s squarings per slice, so a slice gets the same bits alone or
    in any stack.  A 1 x 1 matrix is np.exp of its entry.
    """
    M = _as_square(M)
    if M.shape[-1] == 1:
        return np.exp(M)
    A = M.reshape(-1, *M.shape[-2:])
    # hypot is the modulus with the same bits under every SIMD dispatch
    norm1 = np.hypot(A.real, A.imag).sum(axis=-2).max(axis=-1)
    degree = np.full(len(A), 13)
    for m in (9, 7, 5, 3):
        degree[norm1 <= _PADE[m][1]] = m
    # s = ceil(log2(norm1 / theta_13)) for the degree-13 slices, from the exact frexp
    frac, exp2 = np.frexp(norm1 / _PADE[13][1])
    s = np.where(degree == 13, np.maximum(exp2 - (frac == 0.5), 0), 0)
    A = A * np.ldexp(1.0, -s)[:, None, None]
    U, V = np.empty_like(A), np.empty_like(A)
    for m in np.unique(degree):
        group = degree == m
        U[group], V[group] = _pade_uv(A[group], int(m))
    R = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        left = s > k
        R[left] = R[left] @ R[left]
    return R.reshape(M.shape)


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


def matrix_from_jsonable(rows, self_adjoint=False, name="matrix"):
    """Parse the [re, im] row format; optionally validate self-adjointness."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: malformed matrix literal") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError(f"{name}: expected d x d entries of [re, im], got shape {arr.shape}")
    M = as_matrix(arr[..., 0] + 1j * arr[..., 1])
    if self_adjoint:
        require_self_adjoint(M, name=name)
    return M
