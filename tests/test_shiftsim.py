import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_laguerre

from holo_lab import shiftsim
from holo_lab.disc import circle, circle_coefficients
from holo_lab.factorization import FactorParams, random_params
from holo_lab.operators import operator_norm
from holo_lab.shiftsim import (
    conjugation_check,
    laguerre_fns,
    laguerre_quadrature,
    shift_matrix_elements,
    taylor_varphi_t,
    truncated_factorization_check,
)

from oracles import toeplitz_of


def taylor_oracle(t, N):
    """Independent closed form: c_n(t) = e^{-t} (L_n(2t) - L_{n-1}(2t))."""
    n = np.arange(N)
    L = np.array([eval_laguerre(k, 2 * t) for k in range(N)])
    c = np.empty(N)
    c[0] = L[0]
    c[1:] = L[1:] - L[:-1]
    return np.exp(-t) * c


def coeff_tail_energy(t, start, K=200_000):
    """sum_{start <= n < K} c_n(t)^2 via the stable Laguerre recurrence."""
    x = 2 * t
    L_prev, L_cur = 1.0, 1.0 - x
    total = 0.0
    for n in range(1, K):
        c = np.exp(-t) * (L_cur - L_prev)
        if n >= start:
            total += c * c
        L_prev, L_cur = L_cur, ((2 * n + 1 - x) * L_cur - n * L_prev) / (n + 1)
    return total


class TestTaylorCoefficients:
    def test_examples(self):
        for t in (0.25, 1.0, 2.0):
            assert taylor_varphi_t(t, 4)[0] == pytest.approx(np.exp(-t))
        assert taylor_varphi_t(1.0, 4)[1] == pytest.approx(-2 * np.exp(-1))
        np.testing.assert_allclose(taylor_varphi_t(0.0, 5), [1, 0, 0, 0, 0])

    def test_closed_form_oracle(self):
        for t in (0.25, 0.5, 1.0, 2.0):
            np.testing.assert_allclose(taylor_varphi_t(t, 64), taylor_oracle(t, 64), atol=1e-13)

    def test_h2_contractive(self):
        for t in (0.1, 0.5, 1.0, 3.0):
            assert np.sum(taylor_varphi_t(t, 256) ** 2) <= 1 + 1e-12

    def test_cauchy_product_semigroup(self):
        N = 48
        for t, s in [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0)]:
            conv = np.convolve(taylor_varphi_t(t, N), taylor_varphi_t(s, N))[:N]
            np.testing.assert_allclose(taylor_varphi_t(t + s, N), conv, atol=1e-10)

    @pytest.mark.parametrize("N", [16, 128, 256])
    @pytest.mark.parametrize("t", [2e3, 1e4, 1e6])
    def test_finite_for_large_t(self, t, N):
        # an unscaled recurrence overflows to inf and e^{-t} * inf gives NaN;
        # every true |c_n| <= 1 (and underflows to 0 at these t)
        c = taylor_varphi_t(t, N)
        assert np.all(np.isfinite(c))
        assert np.max(np.abs(c)) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            taylor_varphi_t(1.0, 0)
        with pytest.raises(ValueError):
            taylor_varphi_t(-1.0, 4)


def toeplitz_by_blocks(coeffs, d):
    """The definition, block by block: block (i, j) is coeffs[i - j] (times I_d if scalar) for i >= j."""
    N = len(coeffs)
    T = np.zeros((N * d, N * d), dtype=complex)
    for i in range(N):
        for j in range(i + 1):
            c = coeffs[i - j]
            T[i * d : (i + 1) * d, j * d : (j + 1) * d] = c if np.ndim(c) else c * np.eye(d)
    return T


class TestToeplitz:
    @pytest.mark.parametrize("N", [1, 5, 16])
    @pytest.mark.parametrize(
        "shape, d", [((), None), ((), 2), ((), 4), ((1, 1), None), ((3, 3), None)],
        ids=["scalar", "promoted-d2", "promoted-d4", "matrix-d1", "matrix-d3"],
    )
    def test_equals_block_definition(self, N, shape, d):
        rng = np.random.default_rng(N)
        coeffs = rng.standard_normal((N, *shape)) + 1j * rng.standard_normal((N, *shape))
        dd = shape[0] if shape else d or 1
        assert np.array_equal(toeplitz_of(coeffs, d=d), toeplitz_by_blocks(coeffs, dd))

    def test_identity_symbol(self):
        np.testing.assert_array_equal(toeplitz_of(np.array([1.0, 0, 0])), np.eye(3))

    def test_shift_orientation(self):
        # symbol z <-> ones on the first subdiagonal: pins the orientation
        T = toeplitz_of(np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(T, np.diag(np.ones(3), -1))

    def test_block_structure_exact(self):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        T = toeplitz_of(coeffs)
        for i in range(4):
            for j in range(4):
                block = T[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if i >= j:
                    np.testing.assert_array_equal(block, coeffs[i - j])
                else:
                    np.testing.assert_array_equal(block, 0 * block)

    def test_product_is_truncated_cauchy_product(self):
        N = 32
        for t, s in [(0.25, 0.5), (0.5, 0.5)]:
            P = toeplitz_of(taylor_varphi_t(t, N)) @ toeplitz_of(taylor_varphi_t(s, N))
            np.testing.assert_allclose(P, toeplitz_of(taylor_varphi_t(t + s, N)), atol=1e-10)

    def test_scalar_promotion(self):
        T = toeplitz_of(np.array([1.0, 2.0]), d=2)
        np.testing.assert_array_equal(T[2:4, 0:2], 2 * np.eye(2))


class TestLaguerreBasis:
    def test_ell0(self):
        x = np.linspace(0, 5, 11)
        np.testing.assert_allclose(laguerre_fns(1, x)[0], np.sqrt(2) * np.exp(-x))

    def test_ell1_at_zero(self):
        assert laguerre_fns(2, 0.0)[1, 0] == pytest.approx(np.sqrt(2))

    def test_against_scipy(self):
        x = np.linspace(0, 30, 50)
        for n in (0, 1, 5, 20):
            expected = np.sqrt(2) * np.exp(-x) * eval_laguerre(n, 2 * x)
            np.testing.assert_allclose(laguerre_fns(n + 1, x)[n], expected, atol=1e-10)

    def test_finite_far_out(self):
        # L_256(2x) alone overflows long before x = 1e4, and e^{-x} underflows
        l = laguerre_fns(256, np.linspace(0, 1e4, 2001))
        assert np.all(np.isfinite(l))
        assert np.max(np.abs(l)) <= np.sqrt(2) * (1 + 1e-12)  # |l_n| <= sqrt(2), up to round-off

    @pytest.mark.parametrize("K", [2, 16, 32, 40, 48, 64, 128, 256])
    def test_gram_exact_at_every_order(self, K):
        assert laguerre_quadrature(basis_order=K).gram_residual <= 1e-11

    def test_orthonormal_under_quadrature(self):
        quad = laguerre_quadrature(basis_order=16)
        assert quad.gram_residual <= 1e-10
        basis = laguerre_fns(2, quad.nodes)
        assert abs(np.sum(quad.weights * basis[0] * basis[1])) <= 1e-10
        assert np.sum(quad.weights * basis[0] ** 2) == pytest.approx(1, abs=1e-12)


class TestShiftMatrixElements:
    def test_closed_form_00(self):
        # oracle: 2 e^t int_t^inf e^{-2x} dx = e^{-t}
        quad = laguerre_quadrature(basis_order=8)
        S = shift_matrix_elements(0.7, quad)
        assert S[0, 0] == pytest.approx(np.exp(-0.7), abs=1e-12)

    def test_closed_form_01(self):
        # oracle: 2 e^t int_t^inf e^{-2x} L_1(2x) dx = -2t e^{-t} = c_1(t)
        t = 0.4
        quad = laguerre_quadrature(basis_order=8)
        S = shift_matrix_elements(t, quad)
        assert S[0, 1] == pytest.approx(-2 * t * np.exp(-t), abs=1e-10)
        assert S[0, 1] == pytest.approx(taylor_varphi_t(t, 2)[1], abs=1e-6)

    def test_t_zero_is_identity(self):
        quad = laguerre_quadrature(basis_order=12)
        S = shift_matrix_elements(0.0, quad)
        assert np.max(np.abs(S - np.eye(12))) <= max(quad.gram_residual, 1e-12)


class TestConjugation:
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_dual_oracle_agreement(self, t):
        quad = laguerre_quadrature()
        result = conjugation_check(t, n_check=8, quad=quad)
        assert result.residual <= 1e-6
        assert result.lower_violation <= 1e-8
        assert result.convention == "plain"
        # the alternating convention must be clearly rejected, not a near-tie
        S, c = shift_matrix_elements(t, quad), taylor_varphi_t(t, 8)
        m, n = np.triu_indices(8)
        assert np.max(np.abs(S[m, n] - (-1.0) ** (n - m) * c[n - m])) > 1e-2

    @pytest.mark.parametrize("n_check", [8, 16])
    @pytest.mark.parametrize("t", [0.0, 0.25, 1.0, 3.0])
    def test_equals_elementwise_definition(self, t, n_check):
        quad = laguerre_quadrature()
        S = shift_matrix_elements(t, quad)
        c = taylor_varphi_t(t, n_check)
        upper = [(S[m, n], c[n - m], (-1) ** (n - m)) for m in range(n_check) for n in range(m, n_check)]
        res_plain = max(abs(s - cn) for s, cn, _ in upper)
        res_alt = max(abs(s - sign * cn) for s, cn, sign in upper)
        lower = max(abs(S[m, n]) for m in range(n_check) for n in range(m))
        result = conjugation_check(t, n_check=n_check, quad=quad)
        assert result.residual == min(res_plain, res_alt)
        assert result.convention == ("plain" if res_plain <= res_alt else "alternating")
        assert result.lower_violation == lower

    @pytest.mark.parametrize("t", [0.0, 0.25, 3.0])
    def test_exact_at_order_cap(self, t):
        quad = laguerre_quadrature(basis_order=256)
        result = conjugation_check(t, n_check=128, quad=quad)
        assert result.residual <= 1e-10
        assert result.lower_violation <= 1e-10
        # every element of the 256 x 256 matrix against the closed-form coefficients
        S = shift_matrix_elements(t, quad)
        c = taylor_oracle(t, 256)
        m, n = np.triu_indices(256)
        assert np.max(np.abs(S[m, n] - c[n - m])) <= 1e-10
        assert np.max(np.abs(S[np.tril_indices(256, -1)])) <= 1e-10

    def test_t_zero(self):
        quad = laguerre_quadrature()
        result = conjugation_check(0.0, n_check=8, quad=quad)
        assert result.residual <= max(quad.gram_residual, 1e-12)

    def test_isometry_up_to_truncation_leak(self):
        # ||S_t l_m|| = 1 exactly; the truncated column loses exactly the
        # tail energy sum_{n >= N} c_{n-m}^2, computed independently from
        # the closed-form coefficients
        t = 0.5
        quad = laguerre_quadrature(basis_order=32)
        energy = np.sum(shift_matrix_elements(t, quad)[:8] ** 2, axis=1)
        for m in range(8):
            tail = coeff_tail_energy(t, start=32 - m)
            assert energy[m] + tail == pytest.approx(1, abs=5e-3)


class TestTruncatedFactorization:
    def test_scalar_half_mass(self):
        p = FactorParams(A=np.zeros((1, 1)), B=np.array([[0.5]]))
        assert truncated_factorization_check(p, 1.0, 32) <= 1e-9

    def test_full_mass_trivial_factor(self):
        p = FactorParams(A=np.zeros((2, 2)), B=np.eye(2))
        assert truncated_factorization_check(p, 1.0, 16) <= 1e-12

    def test_random(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 2)
        assert truncated_factorization_check(p, 1.0, 32) <= 1e-8

    def test_residual_nonincreasing_in_order(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 2)
        res = [truncated_factorization_check(p, 1.0, N) for N in (8, 16, 32, 64)]
        assert all(r2 <= r1 + 1e-10 for r1, r2 in zip(res, res[1:]))

    def test_detects_a_coefficient_error(self, monkeypatch):
        # c_5 off by 1e-6 must show: the residual cannot pass vacuously
        exact = taylor_varphi_t

        def perturbed(t, N):
            c = exact(t, N)
            c[5] += 1e-6
            return c

        monkeypatch.setattr(shiftsim, "taylor_varphi_t", perturbed)
        p = random_params(np.random.default_rng(3), 2)
        assert truncated_factorization_check(p, 1.0, 16) >= 1e-6

    def test_memory_scales_with_coefficients(self):
        # d = 8, N = 256: dense (dN) x (dN) products and SVDs would need about 400 MB
        p = random_params(np.random.default_rng(4), 8)
        tracemalloc.start()
        try:
            res = truncated_factorization_check(p, 1.0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(res)
        assert peak < 64 * 2**20

    @staticmethod
    def planted(monkeypatch, plant, d, N, t=1.0):
        """The check's residual with phi_jt replaced by plant(exact phi_jt, params, j, t, z), and the
        first N Taylor coefficients a, b of the two planted factors, read off circle(0.9, S) as the check does."""
        exact = shiftsim.phi_jt
        monkeypatch.setattr(shiftsim, "phi_jt", lambda params, j, t, z: plant(exact, params, j, t, z))
        p = random_params(np.random.default_rng(10 * d + N), d)
        S = max(8 * N, 256)
        a, b = (circle_coefficients(shiftsim.phi_jt(p, j, t, circle(0.9, S)), 0.9, np.arange(N)) for j in (1, 2))
        return truncated_factorization_check(p, t, N), a, b

    @staticmethod
    def assert_bounds(res, dense, d):
        """res is at least 1e-6, the Wiener sum of the dense lower block-Toeplitz residual (its first
        block column is its coefficient sequence) and so its operator norm."""
        wiener = np.sum(operator_norm(dense[:, :d].reshape(-1, d, d)))
        assert res >= 1e-6
        assert res >= (1 - 1e-9) * wiener
        assert res >= (1 - 1e-9) * operator_norm(dense)

    @pytest.mark.parametrize("N", [4, 8, 17])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_detects_a_non_commuting_factor(self, monkeypatch, d, N):
        # factor 2 built from A + 0.1 H: the residual bounds the dense ||T_N(a) T_N(b) - T_N(b) T_N(a)||;
        # at d = 3, N = 4 and 8 the commutator's Wiener sum exceeds the product's, so a check that
        # dropped the commutator half would fail here
        H = random_params(np.random.default_rng(d), d).A

        def plant(exact, params, j, t, z):
            return exact(FactorParams(A=params.A + 0.1 * H, B=params.B) if j == 2 else params, j, t, z)

        res, a, b = self.planted(monkeypatch, plant, d, N)
        Ta, Tb = toeplitz_of(a), toeplitz_of(b)
        self.assert_bounds(res, Ta @ Tb - Tb @ Ta, d)

    @pytest.mark.parametrize("N", [4, 8, 17])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_detects_a_scaled_factor(self, monkeypatch, d, N):
        # factor 1 scaled by 1 + 1e-3: the residual bounds the dense ||T_N(a) T_N(b) - T_N(c) I||
        def plant(exact, params, j, t, z):
            return (1 + 1e-3 if j == 1 else 1) * exact(params, j, t, z)

        res, a, b = self.planted(monkeypatch, plant, d, N)
        self.assert_bounds(res, toeplitz_of(a) @ toeplitz_of(b) - toeplitz_of(taylor_varphi_t(1.0, N), d=d), d)


def random_blocks(rng, N, d, scale=1.0):
    shape = (N, d, d)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestBlockConvolution:
    """The coefficients of a product are the block convolution of the factors' coefficients."""

    @pytest.mark.parametrize("N", [1, 2, 17])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_is_the_toeplitz_product(self, d, N):
        # what truncated_factorization_check reads: the first N coefficients of the sampled
        # pointwise product a(z) b(z) are the coefficient sequence of T_N(a) T_N(b)
        rng = np.random.default_rng(10 * d + N)
        a, b = random_blocks(rng, N, d), random_blocks(rng, N, d)
        S, r = max(8 * N, 256), 0.9
        z = circle(r, S)[:, None, None, None]
        symbol_a, symbol_b = (np.sum(c * z ** np.arange(N)[:, None, None], axis=1) for c in (a, b))
        dense = toeplitz_of(a) @ toeplitz_of(b)
        diff = toeplitz_of(circle_coefficients(symbol_a @ symbol_b, r, np.arange(N))) - dense
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("N", [1, 2, 5, 17, 32])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_wiener_sum_bounds_the_operator_norm(self, d, N):
        # the bound truncated_factorization_check relies on: ||T_N(r)|| <= sum_k ||r_k||
        rng = np.random.default_rng(100 * d + N)
        for _ in range(5):
            r = random_blocks(rng, N, d)
            assert np.sum(operator_norm(r)) >= operator_norm(toeplitz_of(r)) * (1 - 1e-14)
