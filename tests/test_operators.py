
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from holo_lab.disc import default_grid, mobius_phi
from holo_lab.factorization import EXP_NORM_BUDGET, build_h, random_params
from holo_lab.operators import (
    SINGULARITY_RTOL,
    SingularityError,
    _TAYLOR_THETA,
    _cayley_divide,
    as_matrix,
    cayley,
    exp_sweep,
    frobenius_norm,
    hermitian_norm,
    im_part,
    inverse_cayley,
    largest_norm,
    operator_norm,
    re_part,
    spectrum_within,
)
from oracles import FLOORS, inside_budget, numerical_abscissa


def random_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_hermitian(rng, d, scale=1.0):
    M = random_matrix(rng, d, scale)
    return (M + M.conj().T) / 2


# 1-norms log-spaced from 1e-3 to EXP_NORM_BUDGET: from far below theta_24 (2.2) to 6 squarings
ORACLE_NORMS = np.logspace(-3, np.log10(EXP_NORM_BUDGET), 64)


def one_norm(M):
    return np.abs(M).sum(axis=-2).max(axis=-1)


def expm(M):
    """exp(M) of a matrix or of each slice of a stack: exp_sweep at the one multiplier 1, as phi_jt calls it."""
    stack = np.reshape(M, (-1, *np.shape(M)[-2:]))
    return exp_sweep(stack, np.ones((1, len(stack))))[0].reshape(np.shape(M))


def assert_matches_scipy(M, X=None):
    """X, by default expm(M), against the independent oracle scipy.linalg.expm(M), slice by slice."""
    X = expm(M) if X is None else X
    R = scipy.linalg.expm(M)
    assert np.all(operator_norm(X - R) <= 1e-13 * np.maximum(1.0, operator_norm(R)))


def assert_sweep_matches_scipy(H, t):
    """exp_sweep(H, t) against scipy.linalg.expm(t[i, k] H_k), slice by slice."""
    d = H.shape[-1]
    assert_matches_scipy((t[..., None, None] * H).reshape(-1, d, d), exp_sweep(H, t).reshape(-1, d, d))


class TestHermitianSplit:
    def test_scalar(self):
        T = np.array([[1 + 2j]])
        assert re_part(T) == pytest.approx(np.array([[1.0]]))
        assert im_part(T) == pytest.approx(np.array([[2.0]]))

    def test_self_adjoint(self):
        H = np.array([[1.0, 2j], [-2j, 3.0]])
        np.testing.assert_allclose(re_part(H), H)
        np.testing.assert_allclose(im_part(H), 0 * H, atol=1e-15)

    def test_nilpotent(self):
        # direct matrix arithmetic oracle
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(re_part(T), [[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(im_part(T), [[0, -0.5j], [0.5j, 0]])

    def test_exact_reassembly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T = random_matrix(rng, 5)
            np.testing.assert_allclose(T, re_part(T) + 1j * im_part(T), rtol=1e-14, atol=1e-15)

    def test_bits_of_the_formula_and_input_unchanged(self):
        # re_part conjugates a copy of the transpose in place: it must give (T + T*)/2 bit for bit and never write
        # into T, also where the transpose is T itself (1 x 1 slices) or T is a view
        rng = np.random.default_rng(11)
        big = random_matrix(rng, 7).reshape(1, 7, 7) * rng.standard_normal((9, 1, 1))
        signed_zeros = np.array([[-0.0, 0.0 - 0.0j], [-0.0 + 1j, complex(-0.0, -0.0)]])
        cases = [
            *(random_matrix(rng, d) for d in (1, 2, 3, 8)),
            *(random_matrix(rng, d).reshape(1, d, d) * rng.standard_normal((n, 1, 1)) for n, d in
              ((5, 2), (64, 4), (3, 16))),
            random_matrix(rng, 1, 1e300).reshape(1, 1, 1) * rng.standard_normal((33, 1, 1)),
            (rng.standard_normal((64, 1, 1)) + 1j * rng.standard_normal((64, 1, 1))),
            big[::2, 1:5, ::-2],  # a view: strided, reversed, not contiguous
            big.transpose(0, 2, 1),
            signed_zeros,
            np.array([[1e308, 1.5e308j], [1.7e308 - 1e308j, -1e308]]),  # T + T* overflows
        ]
        for T in cases:
            before = T.copy()
            with np.errstate(over="ignore", invalid="ignore"):  # inf / 2 as a complex division makes a NaN
                want = (T + T.conj().swapaxes(-1, -2)) / 2
                got = re_part(T)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), T.shape
            assert T.tobytes() == before.tobytes() and not np.shares_memory(got, T), T.shape


class TestCayley:
    def test_examples(self):
        eye = np.eye(2)
        np.testing.assert_allclose(cayley(eye), 0 * eye, atol=1e-15)
        np.testing.assert_allclose(cayley(0 * eye), -eye)
        # scalar identity cayley(phi(z)) = z at z = 0.5
        np.testing.assert_allclose(cayley(3 * eye), 0.5 * eye)

    def test_inverse_examples(self):
        eye = np.eye(2)
        np.testing.assert_allclose(inverse_cayley(0 * eye), eye)
        np.testing.assert_allclose(inverse_cayley(-eye), 0 * eye, atol=1e-15)
        np.testing.assert_allclose(inverse_cayley(0.5 * eye), 3 * eye)

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            h = random_hermitian(rng, 4) + 1j * random_hermitian(rng, 4) + 3 * np.eye(4)
            np.testing.assert_allclose(inverse_cayley(cayley(h)), h, atol=1e-10)
            psi = cayley(h)
            np.testing.assert_allclose(cayley(inverse_cayley(psi)), psi, atol=1e-10)

    def test_singularities(self):
        with pytest.raises(SingularityError):
            cayley(-np.eye(3))
        with pytest.raises(SingularityError):
            inverse_cayley(np.eye(3))  # 1 in the point spectrum

    def test_one_by_one_divides_as_numbers(self):
        # a complex division has the same bits under every BLAS kernel; LAPACK's 1 x 1 solve does not
        rng = np.random.default_rng(12)
        h = (rng.standard_normal(32) + 1j * rng.standard_normal(32)).reshape(-1, 1, 1)
        assert np.array_equal(cayley(h), (h - 1) / (h + 1))
        assert np.array_equal(inverse_cayley(h), (1 + h) / (1 - h))
        with pytest.raises(SingularityError, match="stack index 1"):
            cayley(np.array([2.0, -1.0, 3.0]).reshape(-1, 1, 1))

    def test_accretive_to_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            P = random_hermitian(rng, 4)
            P = P @ P.conj().T  # P >= 0
            h = P + 1j * random_hermitian(rng, 4)
            assert operator_norm(cayley(h)) <= 1 + 1e-10


class TestMatrixExp:
    """The exponential at one multiplier per slice (T = 1, as phi_jt calls exp_sweep), against scipy and examples."""

    def test_examples(self):
        np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3))
        np.testing.assert_allclose(expm(np.diag([1j * np.pi])), np.diag([-1.0]), atol=1e-12)
        np.testing.assert_allclose(
            expm(np.array([[0.0, 1.0], [0.0, 0.0]])), [[1, 1], [0, 1]]
        )

    def test_commuting_product(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = random_matrix(rng, 4)
            N = 0.3 * M @ M - 0.7 * M + 0.2 * np.eye(4)  # commutes with M
            assert operator_norm(M @ N - N @ M) <= 1e-13
            dev = expm(M + N) - expm(M) @ expm(N)
            assert operator_norm(dev) <= 1e-9 * max(1, operator_norm(expm(M + N)))

    def test_norm_bounded_by_abscissa(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            M = random_matrix(rng, 5, scale=2.0)
            M *= min(1.0, 10 / operator_norm(M))
            assert operator_norm(expm(M)) <= np.exp(numerical_abscissa(M)) + 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_stacks(self, d):
        rng = np.random.default_rng(40 + d)
        M = np.stack([random_matrix(rng, d) for _ in ORACLE_NORMS])
        assert_matches_scipy(M * (ORACLE_NORMS / one_norm(M))[:, None, None])

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_strictly_triangular_stacks(self, d):
        rng = np.random.default_rng(50 + d)
        N = np.triu(np.stack([random_matrix(rng, d) for _ in ORACLE_NORMS]), 1)  # nilpotent
        assert_matches_scipy(N * (ORACLE_NORMS / one_norm(N))[:, None, None])

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_factorization_exponents(self, d):
        z = default_grid().points()
        params = random_params(np.random.default_rng(60 + d), d)
        a_norm = operator_norm(params.A)
        E = [-build_h(params.A, params.B, j, z) for j in (1, 2)]
        for t in (0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 40.0):
            ok = np.array([inside_budget(t, a_norm, zk) for zk in z])  # the points verify_factorization checks
            assert ok.any()
            for Ej in E:
                assert_matches_scipy(t * Ej[ok])

    def test_one_by_one_is_exp(self):
        rng = np.random.default_rng(7)
        z = 20 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
        for M in (z.reshape(-1, 1, 1), z[:1].reshape(1, 1)):
            assert np.array_equal(expm(M), np.exp(M))
            assert np.array_equal(expm(M), scipy.linalg.expm(M))


# the factorization multipliers: DEFAULT_T_LIST, their consecutive sums, and t up to 40
SWEEP_T = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 20.0, 40.0)


class TestExpSweep:
    """exp_sweep(H, t)[i, k] = exp(t[i, k] H_k), against scipy and against its own columns."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_random_stacks(self, d):
        rng = np.random.default_rng(70 + d)
        M = np.stack([random_matrix(rng, d) for _ in ORACLE_NORMS])
        H = M * (ORACLE_NORMS / one_norm(M))[:, None, None]
        assert_sweep_matches_scipy(H, np.array([1.0, 0.5, 0.0, 0.3]).repeat(len(H)).reshape(4, -1))

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_strictly_triangular_stacks(self, d):
        rng = np.random.default_rng(80 + d)
        N = np.triu(np.stack([random_matrix(rng, d) for _ in ORACLE_NORMS]), 1)  # nilpotent
        H = N * (ORACLE_NORMS / one_norm(N))[:, None, None]
        assert_sweep_matches_scipy(H, np.array([1.0, 0.25, 0.7]).repeat(len(H)).reshape(3, -1))

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_factorization_exponents(self, d):
        # -h_j on each grid circle at the multipliers verify_factorization passes: t inside the budget, else 0
        params = random_params(np.random.default_rng(60 + d), d)
        a_norm = operator_norm(params.A)
        for zs in default_grid().circles():
            t = np.array([[t if inside_budget(t, a_norm, z) else 0.0 for z in zs] for t in SWEEP_T])
            assert t.any()
            for j in (1, 2):
                assert_sweep_matches_scipy(-build_h(params.A, params.B, j, zs), t)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_both_sides_of_each_scaling_edge(self, d):
        # s squarings from t ||H||_1 > theta_24 2^(s-1): multipliers an ulp and 1e-6 below and above each edge
        rng = np.random.default_rng(90 + d)
        H = np.stack([random_matrix(rng, d) for _ in range(4)])
        H[1] = -build_h(np.eye(d), np.diag(np.linspace(0, 1, d)), 1, 0.9)
        edges = _TAYLOR_THETA * 2.0 ** np.arange(7)[:, None] / one_norm(H)
        t = np.concatenate([edges * (1 - 1e-6), np.nextafter(edges, 0), edges, np.nextafter(edges, 1e3),
                            edges * (1 + 1e-6)])
        assert_sweep_matches_scipy(H, t)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_slice_alone_equals_stack(self, d):
        # T = 1 (phi_jt's one multiplier per slice) and T = 5; a slice's Horner product must not take another
        # matmul path alone than in a stack at either
        rng = np.random.default_rng(100 + d)
        H = np.stack([random_matrix(rng, d, 3.0) for _ in range(16)])
        for T in (1, 5):
            t = rng.uniform(0.0, 4.0, size=(T, 16)) * (rng.uniform(size=(T, 16)) < 0.8)
            R = exp_sweep(H, t)
            for k in range(16):
                assert np.array_equal(exp_sweep(H[k:k + 1], t[:, k:k + 1])[:, 0], R[:, k]), (T, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_multiplier_is_identity(self, d):
        rng = np.random.default_rng(110 + d)
        H = np.stack([random_matrix(rng, d, scale) for scale in (1.0, 1e8, 1e16)])
        t = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 1e-17], [0.0, 1e-9, 0.0]])
        R = exp_sweep(H, t)
        assert np.array_equal(R[t == 0], np.broadcast_to(np.eye(d), (np.count_nonzero(t == 0), d, d)))

    def test_one_by_one_is_exp(self):
        rng = np.random.default_rng(7)
        H = 20 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)).reshape(-1, 1, 1)
        t = rng.uniform(0.0, 2.0, size=(3, 32))
        assert np.array_equal(exp_sweep(H, t), np.exp(t[..., None, None] * H))

    def test_tiny_multiplier_of_a_huge_exponent(self):
        # |phi(z)| near 1e16 next to z = 1; t |phi| from below the underflow of t^24 / 24! to inside the budget
        z = np.array([1 - 2.0**-52, 1 - 2.0**-50])
        assert np.all(np.abs(mobius_phi(z)) > 2e15)
        params = random_params(np.random.default_rng(5), 3)
        H = -build_h(params.A, params.B, 1, z)
        t = np.array([[1e-300, 1e-300], [1e-20, 1e-20], [1e-15, 2e-15], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = exp_sweep(H, t)
        assert np.all(np.isfinite(R))
        assert_sweep_matches_scipy(H, t)


class TestAbscissaAndNorm:
    def test_skew_adjoint(self):
        S = np.array([[0, 1.0], [-1.0, 0]])
        assert numerical_abscissa(S) == pytest.approx(0, abs=1e-14)

    def test_diagonal(self):
        assert numerical_abscissa(np.diag([-2.0, -3.0])) == pytest.approx(-2)

    def test_dissipative_exponent(self):
        # eigenvalue oracle: (M + M*)/2 = -t Re(phi) B <= 0 when B >= 0
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = random_hermitian(rng, 3)
            B = random_hermitian(rng, 3)
            B = B @ B.conj().T
            phi = 2.0 + 1.5j  # Re > 0
            t = rng.uniform(0, 2)
            M = t * (1j * A - phi * B)
            assert numerical_abscissa(M) <= 1e-12

    def test_norm_examples(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1)
        assert operator_norm(np.diag([2.0, -1.0])) == pytest.approx(2)
        assert operator_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(3)


class TestHermitianNorm:
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_equals_svd(self, d):
        rng = np.random.default_rng(d)
        H = np.stack([random_hermitian(rng, d) for _ in range(64)])
        P = H @ H  # positive semidefinite: lambda_max alone is the norm
        # negative definite but for a small positive part: |lambda_min| > lambda_max
        N = -P + 1e-2 * np.stack([random_hermitian(rng, d) for _ in range(64)])
        stack = np.concatenate([H, P, N])
        eigs = np.linalg.eigvalsh(stack)
        sigma = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert np.count_nonzero(-eigs[:, 0] > eigs[:, -1]) >= 64
        assert np.max(np.abs(hermitian_norm(stack) - sigma) / sigma) <= 4e-15
        assert hermitian_norm(stack[0]) == hermitian_norm(stack)[0]
        assert isinstance(hermitian_norm(stack[0]), float)

    def test_d1_is_hypot(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((256, 1, 1)) + 1j * rng.standard_normal((256, 1, 1))
        expected = np.hypot(M.real, M.imag)[:, 0, 0]
        for norm in (hermitian_norm, operator_norm):
            assert np.array_equal(norm(M), expected)
            assert norm(M[3]) == expected[3] and isinstance(norm(M[3]), float)
        assert np.array_equal(hermitian_norm(M.real), np.abs(M.real[:, 0, 0]))


class TestStacks:
    """Each kernel on an (n, d, d) stack gives, bit for bit, its per-slice calls."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_stack_equals_slices(self, d):
        rng = np.random.default_rng(d)
        M = np.stack([random_matrix(rng, d) for _ in range(16)])
        h = M + 3 * np.eye(d)  # away from the Cayley singularity at -I
        psi = np.stack([cayley(x) for x in h])
        for kernel, arg in (
            (expm, M),
            (operator_norm, M),
            (cayley, h),
            (inverse_cayley, psi),
        ):
            assert np.array_equal(kernel(arg), np.array([kernel(x) for x in arg])), kernel.__name__

    def test_one_singular_slice(self):
        stack = np.stack([2 * np.eye(3), -np.eye(3), 3 * np.eye(3)])
        with pytest.raises(SingularityError, match="stack index 1"):
            cayley(stack)
        with pytest.raises(SingularityError, match="stack index 2"):
            inverse_cayley(np.stack([0 * np.eye(2), 0.5 * np.eye(2), np.eye(2)]))

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            exp_sweep(np.stack([np.eye(2), np.full((2, 2), np.nan)]), np.ones((1, 2)))
        with pytest.raises(ValueError, match="square"):
            operator_norm(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3, 3)))  # as_matrix stays the 2-D contract


# round-off allowance for comparing two computed norms of one matrix
NORM_SLACK = 1 + 8 * np.finfo(float).eps


class TestFrobeniusNorm:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_bounds_the_operator_norm(self, d):
        # ||M||_2 <= ||M||_F <= sqrt(d) ||M||_2, with rank-one slices at the lower
        # bound and scaled unitaries at the upper
        rng = np.random.default_rng(40 + d)
        general = [random_matrix(rng, d, scale) for scale in np.logspace(-8, 8, 48)]
        rank_one = [np.outer(random_matrix(rng, d)[0], random_matrix(rng, d)[0].conj()) for _ in range(8)]
        unitary = [np.linalg.qr(random_matrix(rng, d))[0] * scale for scale in (1e-3, 1.0, 7.0, 1e5)]
        M = np.stack(general + rank_one + unitary)
        op, fro = operator_norm(M), frobenius_norm(M)
        assert np.all(op <= fro * NORM_SLACK)
        assert np.all(fro <= np.sqrt(d) * op * NORM_SLACK)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_stack_equals_slices(self, d):
        M = np.stack([random_matrix(np.random.default_rng(d), d) for _ in range(16)])
        assert np.array_equal(frobenius_norm(M), [frobenius_norm(x) for x in M])

    def test_examples(self):
        assert frobenius_norm(np.eye(4)) == 2.0
        assert frobenius_norm(np.array([[3.0, 4.0j], [0.0, 0.0]])) == 5.0
        assert frobenius_norm(np.zeros((2, 2))) == 0.0
        assert isinstance(frobenius_norm(np.eye(2)), float)
        assert frobenius_norm(np.stack([np.eye(2), 2 * np.eye(2)]).swapaxes(-1, -2)).shape == (2,)

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            frobenius_norm(np.stack([np.eye(2), np.full((2, 2), np.inf)]))
        with pytest.raises(ValueError, match="square"):
            frobenius_norm(np.zeros((2, 3)))


def svd_right_divide(num, den):
    """num @ inv(den) with the singularity decided by an SVD of every slice: the oracle for _cayley_divide.

    A 1 x 1 den divides as a number, as _cayley_divide's does.
    """
    s = np.linalg.svd(den, compute_uv=False)
    smallest = s[..., -1]
    singular = smallest <= SINGULARITY_RTOL * np.maximum(s[..., 0], 1.0)
    if np.any(singular):
        k = int(np.argmax(singular))
        where = f" at stack index {k}" if den.ndim == 3 else ""
        raise SingularityError(
            f"matrix is numerically singular{where} (smallest singular value {np.ravel(smallest)[k]:.3e})"
        )
    if den.shape[-1] == 1:
        return num / den
    adj = lambda T: T.conj().swapaxes(-1, -2)  # noqa: E731
    return adj(np.linalg.solve(adj(den), adj(num)))


def outcome(divide, num, den):
    try:
        return "solved", divide(num, den)
    except SingularityError as exc:
        return "singular", str(exc)


def assert_same_outcome(num, den):
    got, want = outcome(_cayley_divide, num, den), outcome(svd_right_divide, num, den)
    assert got[0] == want[0]
    if got[0] == "solved":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got[0]


def with_singular_values(rng, s):
    """U diag(s) V* for random unitaries U, V."""
    d = len(s)
    U, V = (np.linalg.qr(random_matrix(rng, d))[0] for _ in range(2))
    return (U * s) @ V.conj().T


@pytest.fixture
def svd_slices(monkeypatch):
    """The number of slices of each SVD that _require_nonsingular takes."""
    counts, svd = [], np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_require_nonsingular":
            counts.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return counts


class TestRightDivideCertificate:
    """The certificate skips the SVD but keeps every decision, message and solved bit of the all-SVD test."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_random_stacks(self, d):
        rng = np.random.default_rng(60 + d)
        den = np.stack([random_matrix(rng, d, scale) + shift * np.eye(d)
                        for scale in np.logspace(-6, 6, 8) for shift in (0.0, 1.0, 3.0)])
        num = np.stack([random_matrix(rng, d) for _ in den])
        assert assert_same_outcome(num, den) == "solved"
        for k in range(len(den)):
            assert_same_outcome(num[k], den[k])

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    @pytest.mark.parametrize("largest", [0.5, 1.0, 40.0, 1e6])
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_edge_of_the_threshold(self, d, largest, side):
        # one slice with smallest singular value within 1e-3 relative of the threshold
        rng = np.random.default_rng(80 + d)
        if d == 1:  # the one singular value is also the largest: the threshold is SINGULARITY_RTOL
            edge = with_singular_values(rng, [SINGULARITY_RTOL * side])
        else:
            edge = with_singular_values(rng, np.linspace(largest, SINGULARITY_RTOL * max(largest, 1.0) * side, d))
        den = np.stack([with_singular_values(rng, rng.uniform(0.5, 2.0, d)) for _ in range(5)])
        den[3] = edge
        num = np.stack([random_matrix(rng, d) for _ in den])
        result = assert_same_outcome(num, den)
        assert result == ("singular" if side < 1 else "solved")
        if result == "singular":
            assert "at stack index 3" in outcome(_cayley_divide, num, den)[1]
        assert assert_same_outcome(num[3], den[3]) == result

    def test_overflowing_bound(self):
        # ||den||_F^2 overflows to inf, so c = inf certifies nothing and the SVD decides
        den = np.stack([np.eye(2), np.diag([1e200, 1e-200]), np.diag([1e200, 1.0])]).astype(complex)
        num = np.stack([np.eye(2)] * 3)
        assert assert_same_outcome(num, den) == "singular"
        assert assert_same_outcome(num[[0, 2]], den[[0, 2]]) == "singular"
        assert assert_same_outcome(num[2], np.diag([1e160, 1e160]).astype(complex)) == "solved"

    def test_exactly_singular_slice(self, svd_slices):
        # the three identities are certified; only the zero slice reaches the SVD, which decides it singular
        den = np.stack([np.eye(3), 2 * np.eye(3), np.zeros((3, 3)), np.eye(3)]).astype(complex)
        assert assert_same_outcome(np.stack([np.eye(3)] * 4), den) == "singular"
        assert svd_slices == [1]
        with pytest.raises(SingularityError, match="stack index 2"):
            _cayley_divide(np.stack([np.eye(3)] * 4), den)


class TestNonsingularCertificate:
    """The Cholesky of Re X - c I, c = 2 SINGULARITY_RTOL max(||X||_F, 1), decides 10^-6 away from its edge."""

    @staticmethod
    def accretive(rng, n, d, scale, side):
        """n slices X = H + iK, H and K real symmetric, ||K||_F = scale, lambda_min(H) = c (1 + side 1e-6).

        Re X is H exactly, and the spectrum of H lies in [c (1 - 1e-6), 2c], so that the Cholesky's
        round-off, O(d^2 eps c), cannot move the edge.
        """
        c = 2 * SINGULARITY_RTOL * max(scale, 1.0)
        X = np.empty((n, d, d), dtype=complex)
        for k in range(n):
            U = np.linalg.qr(rng.standard_normal((d, d)))[0]
            lam = c * rng.uniform(1.0, 2.0, size=d)
            lam[0] = c * (1 + side * 1e-6)
            K = rng.standard_normal((d, d))
            K = K + K.T
            X[k] = (U * lam) @ U.T + 1j * (scale / np.linalg.norm(K)) * K
        # ||X||_F is ||K||_F up to c^2 / scale: the edge c is the one _require_nonsingular computes
        assert np.allclose(2 * SINGULARITY_RTOL * np.maximum(frobenius_norm(X), 1.0), c, rtol=1e-12, atol=0)
        return X

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("scale", [0.5, 1e3])
    def test_decides_at_the_edge(self, d, scale, svd_slices):
        rng = np.random.default_rng(100 + d)
        for side, svds in ((1, []), (-1, [16])):  # certified above the edge; open below it, so the SVD decides
            X = self.accretive(rng, 16, d, scale, side)
            num = np.stack([random_matrix(rng, d) for _ in X])
            assert assert_same_outcome(num, X) == "solved"
            assert svd_slices == svds
            svd_slices.clear()

    def test_rotation_reaches_the_svd_and_solves(self, svd_slices):
        # Re X = 0: not accretive, so open, but nonsingular (both singular values 1)
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        den = np.stack([np.eye(2), rotation, 2 * np.eye(2)]).astype(complex)
        num = np.stack([random_matrix(np.random.default_rng(110), 2) for _ in den])
        assert assert_same_outcome(num, den) == "solved"
        assert assert_same_outcome(num[1], rotation) == "solved"
        assert svd_slices == [1, 1]


class TestLargestNorm:
    """largest_norm of an empty or zero stack is its floor, with no Cholesky and no LAPACK call."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_empty_and_zero_stacks(self, d, lapack, verdicts):
        # an empty stack is a verify_factorization chunk that compares no factor
        for M in (np.zeros((0, d, d), dtype=complex), np.zeros((16, d, d), dtype=complex), np.full((4, d, d), -0.0 - 0.0j)):
            for floor in FLOORS:
                assert largest_norm(M, floor) == (0.0 if floor is None else floor)
        assert lapack == [] and verdicts == []


class TestSpectrumWithin:
    """spectrum_within at ranges other than the rigidity strip, as eigvalsh of every slice decides them."""

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("low, high", [(0.25, 0.75), (-2.0, 2.0), (-1.0, -0.5)])
    def test_decided_at_its_edges(self, d, low, high, strip_check):
        rng = np.random.default_rng(130 + d)
        U = np.linalg.qr(rng.standard_normal((32, d, d)) + 1j * rng.standard_normal((32, d, d)))[0]
        width = high - low
        for edge in (low, high):
            for inset in (0.1, 1e-6, 1e-9, -1e-9, -1e-3):  # one eigenvalue inset * width inside the edge, or outside
                eigs = rng.uniform(low + 0.2 * width, high - 0.2 * width, size=(32, d))
                eigs[:, 0] = low + inset * width if edge == low else high - inset * width
                R = re_part((U * eigs[:, None, :]) @ U.conj().swapaxes(-1, -2))
                assert strip_check(R, low, high) == (inset > 0)
