import numpy as np
import pytest

from holo_lab.disc import (
    DiscGrid,
    DomainError,
    circle,
    circle_coefficients,
    circle_scale,
    default_grid,
    holomorphy_residuals,
    mobius_phi,
    varphi_t,
)
from oracles import poisson_factor


class TestMobius:
    def test_values(self):
        assert mobius_phi(0) == 1
        assert mobius_phi(1j) == pytest.approx(1j)
        assert mobius_phi(0.5) == pytest.approx(3)

    def test_singularities(self):
        with pytest.raises(DomainError):
            mobius_phi(1)

    def test_right_half_plane(self):
        assert np.all(mobius_phi(default_grid().points()).real > 0)


class TestVarphi:
    def test_values(self):
        assert varphi_t(1, 0) == pytest.approx(np.exp(-1))
        assert varphi_t(0, 0.3 + 0.2j) == 1
        assert varphi_t(2, 0.5) == pytest.approx(np.exp(-6))

    def test_domain(self):
        with pytest.raises(DomainError):
            varphi_t(1, 1.0)
        with pytest.raises(DomainError):
            varphi_t(-0.5, 0.0)

    def test_contractive_and_semigroup(self):
        z = default_grid().points()
        for t, s in [(0.25, 0.5), (1.0, 2.0), (0.0, 1.0)]:
            assert np.all(np.abs(varphi_t(t, z)) <= 1 + 1e-15)
            dev = varphi_t(t + s, z) - varphi_t(t, z) * varphi_t(s, z)
            assert np.max(np.abs(dev)) < 1e-12


class TestPoisson:
    def test_values(self):
        assert poisson_factor(0) == 1
        assert poisson_factor(0.5) == pytest.approx(3)
        assert poisson_factor(0.5j) == pytest.approx(0.6)

    def test_equals_re_phi(self):
        z = default_grid().points()
        assert np.max(np.abs(poisson_factor(z) - mobius_phi(z).real)) < 1e-12

    def test_positive(self):
        assert np.all(poisson_factor(default_grid().points()) > 0)


class TestHolomorphyResidual:
    """holomorphy_residuals on a whole grid, the way rigidity_verdict calls it."""

    GRID = default_grid()
    ZS = np.append(GRID.points(), 0)
    R = GRID.radii[-1]

    def residuals(self, f, grid=GRID):
        zs = np.append(grid.points(), 0)
        return holomorphy_residuals(f(zs)[:, None, None], grid)

    def test_polynomial(self):
        assert np.max(self.residuals(lambda z: 1 + z - 2j * z**3 + 0.5 * z**31)) <= 1e-14

    def test_conjugate(self):
        # conj(z) has only the frequency -1, so nothing is predicted: the residual is |z|
        np.testing.assert_allclose(self.residuals(np.conj), np.abs(self.ZS), rtol=0, atol=1e-15)

    def test_l_transform_of_re_plus_half(self):
        # (1 + z)(Re z + 1/2) = 1/2 + |z|^2/2 + conj(z)/2 + z + z^2/2: the outer circle predicts
        # 1/2 + R^2/2 + z + z^2/2, so the residual is |(|z|^2 - R^2)/2 + conj(z)/2|, R^2/2 at z = 0
        zs = self.ZS
        residuals = self.residuals(lambda z: (z.real + 0.5) + z * np.conj(z.real + 0.5))
        assert np.max(residuals) > 0.5
        np.testing.assert_allclose(residuals, np.abs((np.abs(zs) ** 2 - self.R**2) / 2 + np.conj(zs) / 2),
                                   rtol=0, atol=1e-14)

    def test_abs_squared_on_one_circle(self):
        # |z|^2 is the constant r^2 on the one circle, so only z = 0 shows it
        grid = DiscGrid((0.9,), 16)
        residuals = self.residuals(lambda z: np.abs(z) ** 2, grid)
        np.testing.assert_allclose(residuals[:-1], 0, rtol=0, atol=1e-15)
        assert residuals[-1] == pytest.approx(0.81, abs=1e-15)

    @pytest.mark.parametrize("n_angles", [8, 9, 15, 16])
    def test_split_at_half_the_angles(self, n_angles):
        # the frequencies 0 ... top are predicted, top = N/2 - 1 for even N and (N - 1)/2 for odd N;
        # top + 1 ... N - 1, the frequencies -(N - 1 - top) ... -1, are the residual on the outer circle
        grid = DiscGrid((0.5, 0.75), n_angles)
        top, R = (n_angles - 1) // 2, 0.75
        assert np.max(self.residuals(lambda z: z**top, grid)) <= 1e-14
        bottom = n_angles - 1 - top
        outer = lambda f: self.residuals(f, grid)[n_angles:-1]
        np.testing.assert_allclose(outer(lambda z: z ** (top + 1)), R ** (top + 1), rtol=1e-12)
        np.testing.assert_allclose(outer(lambda z: np.conj(z) ** bottom), R**bottom, rtol=1e-12)

    def test_aliasing_bound(self):
        # z^m, m >= N/2, is holomorphic, but its residual is up to 2 R^m, the bound of the docstring
        grid, R = DiscGrid((0.3, 0.6, 0.9), 16), 0.9
        for m in range(8, 40):
            assert np.max(self.residuals(lambda z: z**m, grid)) <= 2 * R**m * (1 + 1e-12), m
        assert np.max(self.residuals(lambda z: z**15, grid)) >= R**15 * (1 - 1e-12)  # seen as the frequency -1
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * rng.uniform(0.5, 1.5) ** np.arange(40)
            residual = np.max(self.residuals(lambda z: np.polynomial.polynomial.polyval(z, b), grid))
            bound = 2 * np.sum(np.abs(b[8:]) * R ** np.arange(8, 40))
            assert residual <= bound * (1 + 1e-12)

    def test_tiny_circles_do_not_overflow(self):
        # R^{-n} overflows from R = 1e-300 at n = 2, but only (r/R)^n <= 1 is formed
        grid = DiscGrid((1e-300, 0.5), 1024)
        residuals = self.residuals(lambda z: 1e300 * (1 + 1j) + z * 1e300 * (1 - 1j), grid)
        assert np.all(np.isfinite(residuals))
        small = DiscGrid((1e-300,), 1024)
        assert np.max(self.residuals(lambda z: 0.5 + z, small)) <= 1e-15

    def test_matrix_values(self):
        # the residual of a stack is the largest entry modulus per point
        rng = np.random.default_rng(3)
        C = rng.standard_normal((3, 2, 2))
        zs = self.ZS[:, None, None]
        values = C[0] + zs * C[1] + np.conj(zs) * C[2]
        residuals = holomorphy_residuals(values, self.GRID)
        np.testing.assert_allclose(residuals, np.abs(self.ZS) * np.abs(C[2]).max(), rtol=1e-12, atol=1e-15)


class TestDiscGrid:
    def test_default(self):
        grid = default_grid()
        pts = grid.points()
        assert pts.size == len(grid.radii) * grid.n_angles
        assert np.array_equal(pts.reshape(len(grid.radii), -1), grid.circles())
        assert np.max(np.abs(pts)) == pytest.approx(0.95, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5, 0.3), n_angles=16)  # not ascending
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5,), n_angles=4)  # too few angles
        with pytest.raises(ValueError, match="modulus >= 1"):
            DiscGrid(radii=(0.9999999999999999,), n_angles=16)  # the angle-0 point rounds onto the circle
        with pytest.raises(ValueError):
            DiscGrid(radii=(1.2,), n_angles=16)


class TestCircleCoefficients:
    @pytest.mark.parametrize("r, n", [(0.1, 8), (0.9, 256), (0.999, 4096), (0.95, 1024)])
    def test_circle_is_the_grid_circle(self, r, n):
        assert np.array_equal(circle(r, n), DiscGrid((r,), n).points())

    def test_taylor_coefficients_of_a_polynomial(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        r, z = 0.7, circle(0.7, 64)
        values = np.einsum("kij,kn->nij", coeffs, z ** np.arange(6)[:, None])
        got = circle_coefficients(values, r, np.arange(10))
        np.testing.assert_allclose(got[:6], coeffs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got[6:], 0, rtol=0, atol=1e-13)

    def test_negative_coefficients_of_a_trigonometric_polynomial(self):
        # sum_n a_n r^{|n|} e^{in theta}: the Poisson extension of a measure with moments a_n
        rng = np.random.default_rng(6)
        r, ns = 0.8, np.arange(-4, 5)
        a = rng.standard_normal(ns.size) + 1j * rng.standard_normal(ns.size)
        theta = 2 * np.pi * np.arange(32) / 32
        values = np.exp(1j * np.outer(theta, ns)) @ (a * r ** np.abs(ns))
        np.testing.assert_allclose(circle_coefficients(values, r, ns), a, rtol=0, atol=1e-13)

    def test_scale(self):
        np.testing.assert_array_equal(circle_scale(0.5, [-3, 0, 2]), [8.0, 1.0, 4.0])
        assert np.array_equal(circle_scale(1e-300, [2]), [np.inf])  # overflows without a warning

    @pytest.mark.parametrize("values, r", [(np.ones(16), 1e-300), (np.full(16, 1.5e308), 0.5)])
    def test_overflow_raises(self, values, r):
        # a scale past the float range, and samples that sum past it
        with pytest.raises(ValueError, match="not finite"):
            circle_coefficients(values, r, np.arange(-3, 4))
