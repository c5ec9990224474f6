from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from holo_lab.disc import DomainError, mobius_phi, poisson_factor
from holo_lab.herglotz import (
    analyze,
    arc_mass_profile,
    atom_at_angle,
    dirac_concentration_test,
    estimate_moments,
    herglotz_reconstruct,
    sample_boundary,
    split_additivity_check,
)
from holo_lab.operators import im_part, operator_norm
from holo_lab.rigidity import OperatorFunction, constant_function

# the spec-sheet default N = 4096 at r = 0.999 carries an aliasing floor
# r^(N-2M) + r^N ~ 3.5e-2; the sharp assertions below use N = 16384 where
# the wrap is < 1e-6 (see the acceptance suite for the desk-scale run)
R, N_SHARP, M = 0.999, 16384, 64


def scalar_fn(f, name=""):
    return OperatorFunction(1, lambda z: f(z) * np.ones((1, 1)), name)


PHI = scalar_fn(mobius_phi, "phi")


def atom_model(A, B):
    return OperatorFunction(A.shape[0], lambda z: herglotz_reconstruct(B, A, z), "atom-model")


class TestSampling:
    def test_phi_samples_are_poisson(self):
        prof = sample_boundary(PHI, 0.5, 16)
        theta = 2 * np.pi * np.arange(16) / 16
        expected = poisson_factor(0.5 * np.exp(1j * theta))
        np.testing.assert_allclose(prof.samples[:, 0, 0], expected)

    def test_constants(self):
        prof = sample_boundary(scalar_fn(lambda z: 3j), 0.5, 16)
        np.testing.assert_allclose(prof.samples, 0, atol=1e-15)
        prof1 = sample_boundary(scalar_fn(lambda z: 1.0), 0.5, 16)
        np.testing.assert_allclose(prof1.samples, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_boundary(PHI, 1.0, 16)
        with pytest.raises(ValueError):
            sample_boundary(PHI, 0.5, 24)  # not a power of two
        with pytest.raises(ValueError):
            sample_boundary(PHI, 0.5, 8)


class TestMoments:
    def test_diffuse_constant(self):
        # contour-integral oracle: int (e^{it}+z)/(e^{it}-z) dt/2pi = 1, so
        # h = 1 has the normalized arc-length measure: Sigma-hat(0) = 1, rest 0
        approx = estimate_moments(sample_boundary(scalar_fn(lambda z: 1.0), R, 4096), M)
        assert approx.moment(0)[0, 0] == pytest.approx(1, abs=1e-10)
        for n in (1, 5, -17, M):
            assert abs(approx.moment(n)[0, 0]) <= 1e-10

    def test_zero_measure(self):
        approx = estimate_moments(sample_boundary(scalar_fn(lambda z: 5j), R, 4096), M)
        assert np.max(np.abs(approx.moments)) <= 1e-12

    def test_dirac_moments_all_one(self):
        approx = estimate_moments(sample_boundary(PHI, R, N_SHARP), M)
        assert np.max(np.abs(approx.moments - 1)) <= 1e-6

    def test_antialias_margin(self):
        prof = sample_boundary(PHI, R, 64)
        with pytest.raises(ValueError, match="N/4"):
            estimate_moments(prof, 16)

    def test_moment_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (A + A.conj().T) / 2
        B = np.eye(3) * 0.5
        approx = estimate_moments(sample_boundary(atom_model(A, B), R, 1024), 32)
        for n in range(33):
            dev = approx.moment(-n) - approx.moment(n).conj().T
            assert np.max(np.abs(dev)) <= 1e-10


class TestAtomExtraction:
    def test_dirac_atom(self):
        approx = estimate_moments(sample_boundary(PHI, R, N_SHARP), M)
        assert atom_at_angle(approx, 0.0)[0, 0] == pytest.approx(1, abs=2e-3)

    def test_no_atom_at_pi(self):
        # closed-form geometric-sum oracle: |sum e^{in pi}/(2M+1)| <= 1/(2M+1)
        approx = estimate_moments(sample_boundary(PHI, R, N_SHARP), M)
        assert abs(atom_at_angle(approx, np.pi)[0, 0]) <= 2 / (2 * M + 1)

    def test_diffuse_vanishing_atom(self):
        # only n = 0 survives: atom = 1/(2M+1)
        approx = estimate_moments(sample_boundary(scalar_fn(lambda z: 1.0), R, 4096), M)
        assert atom_at_angle(approx, 0.0)[0, 0] == pytest.approx(1 / (2 * M + 1), abs=1e-8)

    def test_positivity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 2))
        A = (A + A.T) / 2
        B = np.diag([0.2, 0.9])
        approx = estimate_moments(sample_boundary(atom_model(A, B), R, 1024), 32)
        m0 = approx.moment(0)
        assert np.linalg.eigvalsh((m0 + m0.conj().T) / 2).min() >= -1e-10
        # off-atom Wiener averages can dip slightly negative through Dirichlet
        # kernel leakage; the dip is O(||m0|| / M)
        bound = (4 / (2 * approx.M + 1)) * operator_norm(m0)
        for theta in np.linspace(0.3, 2 * np.pi - 0.3, 7):
            atom = atom_at_angle(approx, theta)
            assert np.linalg.eigvalsh((atom + atom.conj().T) / 2).min() >= -bound


class TestConcentration:
    def test_atom_model_concentrated(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (G + G.conj().T) / 2
        V, _ = np.linalg.qr(G)
        B = (V * rng.uniform(0, 1, 3)) @ V.conj().T
        B = (B + B.conj().T) / 2
        approx = estimate_moments(sample_boundary(atom_model(A, B), R, N_SHARP), M)
        atom, leak, concentrated = dirac_concentration_test(approx)
        assert concentrated
        assert operator_norm(atom - B) <= 5e-2

    def test_diffuse_not_concentrated(self):
        approx = estimate_moments(sample_boundary(scalar_fn(lambda z: 1.0), R, 4096), M)
        atom, leak, concentrated = dirac_concentration_test(approx)
        assert not concentrated
        assert leak == pytest.approx(1, abs=1e-2)

    def test_approx_is_not_modified(self):
        approx = estimate_moments(sample_boundary(PHI, R, 4096), M)
        moments = approx.moments.copy()
        dirac_concentration_test(approx)
        assert approx.atom_mass_at_1 is None and approx.leak_mass is None
        assert np.array_equal(approx.moments, moments)
        with pytest.raises(FrozenInstanceError):
            approx.leak_mass = 0.0

    def test_zero_measure_concentrated(self):
        approx = estimate_moments(sample_boundary(scalar_fn(lambda z: 0.0), R, 4096), M)
        atom, leak, concentrated = dirac_concentration_test(approx)
        assert np.max(np.abs(atom)) <= 1e-12 and leak <= 1e-12 and concentrated


class TestReconstruct:
    def test_values(self):
        eye = np.eye(2)
        np.testing.assert_allclose(herglotz_reconstruct(eye, 0 * eye, 0), eye)
        A = np.diag([1.0, -2.0])
        np.testing.assert_allclose(herglotz_reconstruct(0 * eye, A, 0.3j), 1j * A)
        B = np.diag([0.5, 1.0])
        np.testing.assert_allclose(herglotz_reconstruct(B, A, 0.5), 1j * A + 3 * B)

    def test_domain(self):
        with pytest.raises(DomainError):
            herglotz_reconstruct(np.eye(1), np.zeros((1, 1)), 1.0)

    def test_loop_closure(self):
        # sample -> moments -> atom recovers the generating (B, Im h(0))
        rng = np.random.default_rng(3)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = (G + G.conj().T) / 2
        B = np.diag([0.3, 0.8]).astype(complex)
        h = atom_model(A, B)
        approx, concentrated = analyze(h, r=R, N=N_SHARP, M=M)
        assert concentrated
        np.testing.assert_allclose(approx.im_at_0, im_part(h(0)))
        for z in (0.0, 0.5, 0.2 - 0.6j, 0.9):
            dev = herglotz_reconstruct(approx.atom_mass_at_1, approx.im_at_0, z) - h(z)
            assert np.max(np.abs(dev)) <= 1e-4

    def test_atom_error_improves_in_M(self):
        # atom of mass 0.7 plus a diffuse (Lebesgue) part of mass 0.3: the
        # Wiener average then over-counts the diffuse part by ~0.3/(2M+1),
        # which must shrink as the moment window grows
        B = np.array([[0.7]])
        base = atom_model(np.zeros((1, 1)), B)
        h = OperatorFunction(1, lambda z: base(z) + 0.3 * np.eye(1), "atom-plus-diffuse")
        errs = []
        for m in (16, 64, 256):
            approx, _ = analyze(h, r=R, N=N_SHARP, M=m)
            errs.append(operator_norm(approx.atom_mass_at_1 - B))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3


class TestSplitAdditivity:
    def test_symmetric_split(self):
        half_phi = OperatorFunction(2, lambda z: 0.5 * mobius_phi(z) * np.eye(2), "phi/2")
        assert split_additivity_check(half_phi, half_phi, N=1024, M=32) <= 1e-9

    def test_trivial_split(self):
        phi_eye = OperatorFunction(2, lambda z: mobius_phi(z) * np.eye(2), "phi")
        zero = constant_function(np.zeros((2, 2)))
        assert split_additivity_check(phi_eye, zero, N=1024, M=32) <= 1e-9

    def test_random_factor_split(self):
        # linearity-of-DFT oracle: moments add exactly
        rng = np.random.default_rng(4)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = (G + G.conj().T) / 2
        B = np.diag([0.25, 0.75]).astype(complex)
        h1 = atom_model(A, B)
        h2 = OperatorFunction(2, lambda z: mobius_phi(z) * np.eye(2) - h1(z), "h2")
        assert split_additivity_check(h1, h2, N=1024, M=32) <= 1e-6


class TestArcMass:
    def test_dirac_mass_peaks_at_zero(self):
        approx = estimate_moments(sample_boundary(PHI, R, 4096), M)
        thetas, mass = arc_mass_profile(approx)
        assert np.argmax(mass) == 0
        assert mass.min() >= -1e-8  # Fejer smoothing keeps the profile nonnegative
