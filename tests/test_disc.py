import numpy as np
import pytest

from holo_lab.disc import (
    DiscGrid,
    DomainError,
    default_grid,
    mobius_phi,
    poisson_factor,
    varphi_t,
    wirtinger_dbar,
)


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


class TestWirtinger:
    def test_holomorphic_input(self):
        assert abs(wirtinger_dbar(lambda z: z**2, 0.3, 1e-4)) < 1e-8

    def test_conjugate(self):
        assert wirtinger_dbar(np.conj, 0.2 + 0.1j, 1e-4) == pytest.approx(1, abs=1e-8)

    def test_abs_squared(self):
        # oracle by symbolic differentiation: dbar |z|^2 = z
        z0 = 0.2 + 0.1j
        assert abs(wirtinger_dbar(lambda z: abs(z) ** 2, z0, 1e-4) - z0) < 1e-7

    def test_stencil_domain(self):
        with pytest.raises(DomainError):
            wirtinger_dbar(lambda z: z, 0.99999, 1e-4)


class TestHolomorphyResidual:
    """wirtinger_dbar on a whole grid, the way rigidity_verdict calls it."""

    GRID = default_grid()

    def dbar(self, f):
        return wirtinger_dbar(f, self.GRID.points(), self.GRID.stencil_h)

    def test_polynomial(self):
        assert np.max(np.abs(self.dbar(lambda z: z**3))) <= 1e-7

    def test_conjugate(self):
        assert np.min(np.abs(self.dbar(np.conj))) >= 1 - 1e-7

    def test_l_transform_of_re_plus_half(self):
        # finite-difference oracle: dbar[(1 + z)(Re z + 1/2)] = (1 + z)/2
        zs = self.GRID.points()
        f = lambda z: (z.real + 0.5) + z * np.conj(z.real + 0.5)
        dbar = self.dbar(f)
        assert np.max(np.abs(dbar)) > 0.5
        np.testing.assert_allclose(dbar, (1 + zs) / 2, rtol=0, atol=1e-7)


class TestDiscGrid:
    def test_default(self):
        grid = default_grid()
        pts = grid.points()
        assert pts.size == len(grid.radii) * grid.n_angles
        assert np.max(np.abs(pts)) + grid.stencil_h < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5, 0.3), n_angles=16, stencil_h=1e-4)  # not ascending
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5,), n_angles=4, stencil_h=1e-4)  # too few angles
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.9999,), n_angles=16, stencil_h=1e-3)  # stencil escapes
        with pytest.raises(ValueError):
            DiscGrid(radii=(1.2,), n_angles=16, stencil_h=1e-4)
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5,), n_angles=16, stencil_h=0.0)
