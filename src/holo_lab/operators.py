"""Finite-dimensional complex matrix algebra used throughout the package.

Matrices are plain numpy arrays of shape (d, d), complex dtype, treated as
immutable values.  The kernels (Cayley transform and inverse, exponential,
operator, Hermitian and Frobenius norms) also take an (n, d, d) stack and act
slice by slice, with the same bits per slice as a call on that slice alone.
exp_sweep is the one matrix exponential: it exponentiates a stack at one or
many real multipliers per slice, sharing the powers and the Taylor evaluation
across them, and solves nothing; only the Cayley transforms' _cayley_divide
solves a linear system, and nothing forms an inverse.  The matrix Cayley
transform and its inverse exchange positive-real-part matrices and contractions.

The two certified kernels, largest_norm (max_k ||M_k||_2 of a stack) and
spectrum_within (every spectrum of a Hermitian stack inside a range), send to
the SVD or eigvalsh only the slices that the batched Cholesky of
_cholesky_certifies, with CERTIFICATE_MARGIN of room, leaves open.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularityError",
    "as_matrix",
    "re_part",
    "im_part",
    "require_self_adjoint",
    "cayley",
    "inverse_cayley",
    "exp_sweep",
    "operator_norm",
    "hermitian_norm",
    "spectrum_ends",
    "largest_norm",
    "spectrum_within",
    "frobenius_norm",
]

# smallest singular value below this (relative) marks a matrix singular
SINGULARITY_RTOL = 1e-10
# the room for round-off that the certificates of largest_norm and spectrum_within keep
CERTIFICATE_MARGIN = 1e-11


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
    """Self-adjoint real part (T + T*)/2 of a matrix or of each slice of a stack.

    The transpose is copied into a new C-ordered array, which is conjugated, added to and halved in place:
    the bits of (T + T*)/2 without its strided add.  Always a copy, never a view of T (ascontiguousarray
    would hand back T itself where the swap is a no-op, as for 1 x 1 slices).
    """
    T = _as_square(T)
    R = T.swapaxes(-1, -2).copy()
    np.conjugate(R, out=R)
    R += T
    R /= 2
    return R


def im_part(T):
    """Self-adjoint imaginary part (T - T*)/(2i), so T = re + i*im exactly."""
    T = as_matrix(T)
    return (T - T.conj().T) / (2j)


def require_self_adjoint(T, tol=1e-10, name="matrix"):
    T = as_matrix(T)
    with np.errstate(over="ignore"):  # a deviation that overflows to inf is not self-adjoint either
        dev = np.max(np.abs(T - T.conj().T))
    if dev > tol:
        raise ValueError(f"{name} is not self-adjoint (deviation {dev:.3e} > {tol:.1e})")
    return T


def _cholesky_certifies(M):
    """Per slice of the Hermitian stack M: True where M has a Cholesky factor, every pivot > 0 (a NaN is not).

    A Cholesky that runs to completion factors M + dM with ||dM||_2 = O(d^2 eps) ||M||_2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10).  Right-looking, one column per step,
    in elementwise numpy on a (d, d, n) copy, so that every operation runs over the n slices: no BLAS.
    """
    certified = M[:, 0, 0].real > 0
    if M.shape[-1] == 1:  # the one pivot is the entry
        return certified
    A = M.transpose(1, 2, 0).copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # a failed pivot leaves NaN below it
        for k in range(1, len(A)):
            col = A[k:, k - 1] / np.sqrt(A[k - 1, k - 1].real)
            A[k:, k:] -= col[:, None] * col.conj()
            certified &= A[k, k].real > 0
    return certified


def _require_nonsingular(X):
    """Raise SingularityError if the matrix X, or a slice of the stack X, is ill-conditioned.

    A slice is singular when its smallest singular value is at most SINGULARITY_RTOL * max(largest, 1).
    It is not where Re X - c I, c = 2 SINGULARITY_RTOL max(||X||_F, 1), has a Cholesky factor: sigma_min(X)
    >= lambda_min(Re X) (Fan & Hoffman, Proc. AMS 6, 1955), sigma_max(X) <= ||X||_F, and the factor 2 covers
    the O(d^2 eps) round-off of the Cholesky and of the SVD for d <= 16.  That clears the accretive X the
    package divides by (Re(h + I) >= I, Re(I - psi) >= 0); only the other slices, a rotation say, get the
    SVD, so the decision, the index and the message are an all-SVD test's.  An overflow certifies nothing.
    """
    stack = X.reshape(-1, *X.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite c leaves -inf or NaN pivots
        c = 2 * SINGULARITY_RTOL * np.maximum(_frobenius(stack), 1.0)
        M = (stack + _adjoint(stack)) / 2
        M.reshape(len(M), -1)[:, ::M.shape[-1] + 1] -= c[:, None]  # Re X - c I
    open_ = np.flatnonzero(~_cholesky_certifies(M))
    if len(open_):
        s = np.linalg.svd(stack[open_], compute_uv=False)
        smallest = s[:, -1]
        singular = smallest <= SINGULARITY_RTOL * np.maximum(s[:, 0], 1.0)
        if np.any(singular):
            i = int(np.argmax(singular))
            where = f" at stack index {open_[i]}" if X.ndim == 3 else ""
            raise SingularityError(
                f"matrix is numerically singular{where} "
                f"(smallest singular value {smallest[i]:.3e})"
            )


def _cayley_divide(num, den):
    """num @ inv(den) per slice, raising SingularityError if any den is ill-conditioned (_require_nonsingular).

    A 1 x 1 den divides as a number: unlike LAPACK's solve, the same bits under every BLAS.
    """
    _require_nonsingular(den)
    if den.shape[-1] == 1:
        return num / den
    return _adjoint(np.linalg.solve(_adjoint(den), _adjoint(num)))


def cayley(h):
    """Cayley transform (h - I)(h + I)^{-1}; maps Re h >= 0 into contractions."""
    h = _as_square(h)
    eye = np.eye(h.shape[-1])
    return _cayley_divide(h - eye, h + eye)


def inverse_cayley(psi):
    """Inverse Cayley transform (I + psi)(I - psi)^{-1}.

    Singular exactly when 1 is (numerically) in the spectrum of psi.
    """
    psi = _as_square(psi)
    eye = np.eye(psi.shape[-1])
    return _cayley_divide(eye + psi, eye - psi)


# theta_24: the largest 1-norm at which the degree-24 Taylor polynomial is exp(X + E) with
# ||E||_1 <= 2^-53 ||X||_1, from the backward-error series (Al-Mohy & Higham, SIAM J. Sci.
# Comput. 33(2), 2011, Table 3.1).  T_24 = sum_i G^(6i) B_i in Paterson-Stockmeyer form (SIAM J.
# Comput. 2(1), 1973), Horner in G^6; row i of _TAYLOR_BLOCKS indexes the coefficients of I, G, ..., G^6
# in B_i: a_(6i) .. a_(6i+5) and a_25 = 0 for i < 3, a_18 .. a_24 for B_3
_TAYLOR_THETA = 2.219048869365090
_TAYLOR_BLOCKS = np.array([[*range(6 * i, 6 * i + 6), 25] for i in range(3)] + [list(range(18, 25))])


def exp_sweep(H, t):
    """exp(t[i, k] H_k) for an (n, d, d) stack H and a (T, n) array t of real multipliers: (T, n, d, d).

    Scaling and squaring with the degree-24 Taylor polynomial, no solve.  Column k is
    scaled to G_k = 2^-e H_k with ||G_k||_1 in [1/2, 1), so its powers G^2 .. G^6 cannot
    overflow and are formed once for every t, in three products per slice: G^2, then
    [G^3 | G^4] = G^2 [G | G^2] and [G^5 | G^6] = G^4 [G | G^2].  Each (i, k) then gets its own
    X = t[i, k] H_k / 2^s with ||X||_1 <= theta_24, coefficients a_m = (t 2^(e-s))^m / m!,
    three Horner products shared by the T multipliers of a column (one product per slice,
    of its T matrices stacked in rows, by G^6), and its own s squarings.  So column k's bits depend only on H_k
    and t[:, k], and t = 0 gives I.  A 1 x 1 stack is np.exp(t * H).
    """
    H = np.ascontiguousarray(_as_square(H, ndims=(3,)))
    t = np.asarray(t, dtype=float)
    if H.shape[-1] == 1:
        return np.exp(t[..., None, None] * H)
    (T, n), d = t.shape, H.shape[-1]
    frac, e = np.frexp(np.hypot(H.real, H.imag).sum(axis=-2).max(axis=-1))
    powers = np.empty((n, 7, d, d), dtype=complex)
    powers[:, 0], powers[:, 1] = np.eye(d), np.ldexp(H.view(float), -e[:, None, None]).view(complex)
    powers[:, 2] = powers[:, 1] @ powers[:, 1]
    right = np.concatenate([powers[:, 1], powers[:, 2]], axis=-1)  # [G | G^2]
    for j in (3, 5):
        P = powers[:, j - 1] @ right
        powers[:, j], powers[:, j + 1] = P[..., :d], P[..., d:]
    # s = ceil(log2(|t| ||H||_1 / theta_24)) from the exact frexp, 0 at t = 0
    f2, e2 = np.frexp(np.abs(t.T) * frac[:, None] / _TAYLOR_THETA)
    s = np.where(f2 == 0, 0, np.maximum(e2 + e[:, None] - (f2 == 0.5), 0))
    c = np.ldexp(t.T, e[:, None] - s)
    a = np.cumprod(np.concatenate([np.ones((n, T, 1)), c[..., None] / np.arange(1, 25), np.zeros((n, T, 1))], -1), -1)
    # Horner in G^6; block i's sum for every t of a column is one real (T, 7) x (7, 2 d^2) product per slice,
    # formed as it is added, so no more than one block of T n d^2 entries is held.  coef[i] is a contiguous
    # (n, T, 7) array, so a slice's product takes the same path (and bits) alone as in any stack, also at T = 1
    coef = np.ascontiguousarray(a[:, :, _TAYLOR_BLOCKS].transpose(2, 0, 1, 3))
    flat = powers.view(float).reshape(n, 7, -1)
    R = (coef[3] @ flat).view(complex).reshape(n, T * d, d)
    for i in (2, 1, 0):
        R = R @ powers[:, 6]
        R += (coef[i] @ flat).view(complex).reshape(n, T * d, d)
    del powers, flat, right, P  # the squarings' two temporaries take their place
    R = R.reshape(n * T, d, d)
    s = s.ravel()
    for k in range(int(s.max(initial=0))):
        left = R[s > k]
        R[s > k] = left @ left
    return R.reshape(n, T, d, d).swapaxes(0, 1)


def operator_norm(M):
    """Largest singular value: a float for a matrix, an (n,) array for a stack.

    An SVD; a 1 x 1 matrix is the number's modulus, np.hypot, the same bits under every BLAS.
    """
    M = _as_square(M)
    if M.shape[-1] == 1:
        s = np.hypot(M.real, M.imag)[..., 0, 0]
    else:
        s = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(s) if M.ndim == 2 else s


def hermitian_norm(M):
    """operator_norm of a Hermitian M = M*, max(-lambda_min, lambda_max) from eigvalsh, which reads the lower triangle.

    The singular values of a Hermitian matrix are the moduli of its eigenvalues, so this is
    sigma_max without the SVD; a 1 x 1 matrix is operator_norm's np.hypot.
    """
    M = _as_square(M)
    if M.shape[-1] == 1:
        return operator_norm(M)
    lowest, highest = spectrum_ends(M)
    s = np.maximum(-lowest, highest)
    return float(s) if M.ndim == 2 else s


def spectrum_ends(M):
    """(lambda_min, lambda_max) of the Hermitian M, or per slice of a stack, from eigvalsh (its lower triangle).

    A slice keeps its bits in any stack.
    """
    eigs = np.linalg.eigvalsh(M)
    return eigs[..., 0], eigs[..., -1]


def largest_norm(M, floor=None):
    """max(floor, max_k ||M_k||_2) over the slices of the (n, d, d) stack M, bit for bit max(floor, operator_norm(M).max()).

    floor=None is operator_norm of the reference slice, the one with the largest trace of X*X.  X = 2^-e M,
    exactly (ldexp), with the largest |Re| or |Im| of an entry in [1/2, 1): X*X cannot overflow, and an
    underflow moves it by d 2^-1074 at most.  A slice whose (2^-e floor (1 - c))^2 I - X*X, c =
    CERTIFICATE_MARGIN, has a Cholesky factor has ||M_k||_2 < floor (1 - c / 2), as the Cholesky's O(d^2 eps)
    backward error (below 3e-14 for d <= 16; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 10) and the product's O(d eps) round-off stay inside c, and so an SVD norm below the floor.  Only the
    other slices get operator_norm, whose SVD keeps a slice's bits in any stack, so the result is the all-SVD
    value; X*X, a BLAS product, only picks them.  An empty or zero stack gives the floor (0.0 for None) and
    calls no LAPACK, 1 x 1 slices take np.hypot of every slice, and a NaN or infinite entry gets operator_norm's
    ValueError: none of these runs a Cholesky.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    parts = M.view(float)
    largest = np.abs(parts).max(initial=0.0)
    if M.shape[-1] == 1 or not 0 < largest < np.inf:  # np.hypot, a zero stack (no LAPACK) or operator_norm's error
        norm = float(operator_norm(M).max()) if largest else 0.0
        return norm if floor is None else max(floor, norm)
    e = math.frexp(largest)[1]
    X = M if e == 0 else np.ldexp(parts, -e).view(complex)  # e = 0: no copy, as for most contraction stacks
    G = _adjoint(X) @ X
    if floor is None:
        floor = operator_norm(M[np.einsum("nii->n", G).real.argmax()])
    try:
        bound = (math.ldexp(floor, -e) * (1 - CERTIFICATE_MARGIN)) ** 2
    except OverflowError:  # a floor far above every slice: the largest float certifies every slice too
        bound = np.finfo(float).max
    open_ = ~_cholesky_certifies(np.subtract(bound * np.eye(M.shape[-1]), G, out=G))  # in place: no second stack
    return max(floor, float(operator_norm(M[open_]).max())) if open_.any() else floor


def spectrum_within(R, low, high):
    """Whether every slice of the Hermitian stack R has its spectrum in [low, high], as spectrum_ends of every slice decides it.

    With c = CERTIFICATE_MARGIN, a slice is outside where a diagonal entry lies below low - c or above high + c,
    as lambda_min <= R_ii <= lambda_max, and inside where R_k - (low + c) I and (high - c) I - R_k have a
    Cholesky factor.  For max(|low|, |high|) <= 2 and d <= 16, eigvalsh agrees: its error is O(d eps) ||R_k||_2
    (Weyl), so a slice with ||R_k||_2 >= 4 is outside for it too, and the Cholesky's O(d^2 eps) backward error
    lets only slices with ||R_k||_2 < 2.01 pass both; at these norms c covers both errors.  Only where no
    slice is outside, eigvalsh runs on the slices that are not inside.
    """
    c, eye = CERTIFICATE_MARGIN, np.eye(R.shape[-1])
    diag = R.reshape(len(R), -1)[:, ::len(eye) + 1].real
    if diag.min() < low - c or diag.max() > high + c:
        return False
    inside = _cholesky_certifies(R - (low + c) * eye) & _cholesky_certifies((high - c) * eye - R)
    if inside.all():
        return True
    lowest, highest = spectrum_ends(R[~inside])
    return bool(lowest.min() >= low and highest.max() <= high)


def _frobenius(M):
    """frobenius_norm without the input checks; squares beyond about 1e154 overflow to inf."""
    x = np.ascontiguousarray(M).view(float)
    return np.sqrt(np.einsum("...ij,...ij->...", x, x, optimize=False))


def frobenius_norm(M):
    """Frobenius norm: a float for a matrix, an (n,) array for a stack.

    An upper bound on the operator norm, ||M||_2 <= ||M||_F <= sqrt(d) ||M||_2
    (Golub & Van Loan, Matrix Computations, 2.3), so a residual that passes
    ||M||_F <= tol also passes ||M||_2 <= tol.  A sum of squares of the real
    and imaginary parts in einsum: no BLAS, the same bits for a slice alone
    or in any stack.
    """
    M = _as_square(M)
    s = _frobenius(M)
    return float(s) if M.ndim == 2 else s
