import json
import sys

import numpy as np
import pytest

from holo_lab import cli
from holo_lab.disc import DomainError, mobius_phi
from holo_lab.factorization import random_params
from holo_lab.herglotz import (
    analyze,
    arc_mass_profile,
    atom_at_angle,
    atom_model,
    dirac_concentration_test,
    estimate_moments,
    sample_boundary,
)
from holo_lab.operators import im_part, operator_norm
from holo_lab.rigidity import OperatorFunction, constant_function
from oracles import dense_arc_mass_profile, poisson_factor, rotated_atom, split_additivity_check

# the spec-sheet default N = 4096 at r = 0.999 carries an aliasing floor
# r^(N-2M) + r^N ~ 3.5e-2; the sharp assertions below use N = 16384 where
# the wrap is < 1e-6 (see the acceptance suite for the desk-scale run)
R, N_SHARP, M = 0.999, 16384, 64


def scalar_fn(f, name=""):
    return OperatorFunction(1, lambda z: f(z) * np.ones((1, 1)), name)


PHI = scalar_fn(mobius_phi, "phi")


def moments_of(h, r, N, m):
    """The (2m + 1, d, d) moments of h's boundary measure from N samples on |z| = r, moment n at index n + m."""
    return estimate_moments(sample_boundary(h, r, N), r, m)


class TestSampling:
    def test_phi_samples_are_poisson(self):
        samples = sample_boundary(PHI, 0.5, 16)
        theta = 2 * np.pi * np.arange(16) / 16
        expected = poisson_factor(0.5 * np.exp(1j * theta))
        np.testing.assert_allclose(samples[:, 0, 0], expected)

    def test_constants(self):
        np.testing.assert_allclose(sample_boundary(scalar_fn(lambda z: 3j), 0.5, 16), 0, atol=1e-15)
        np.testing.assert_allclose(sample_boundary(scalar_fn(lambda z: 1.0), 0.5, 16), 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_boundary(PHI, 1.0, 16)
        with pytest.raises(ValueError):
            sample_boundary(PHI, 0.5, 24)  # not a power of two
        with pytest.raises(ValueError):
            sample_boundary(PHI, 0.5, 8)

    @pytest.mark.parametrize("h", [
        atom_model(np.zeros((1, 1)), np.array([[1e308]])),  # phi(z) * B overflows in h
        scalar_fn(lambda z: 1e308 + 0 * z),  # h is finite, (h + h*) / 2 overflows
    ], ids=["h-overflows", "re-h-overflows"])
    def test_sample_not_finite(self, h):
        # the suite turns warnings into errors, so the overflow must stay silent
        with pytest.raises(ValueError, match="finite"):
            sample_boundary(h, 0.9, 64)


class TestAtomModel:
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_self_adjoint_to_1e_10(self, name):
        def model(dev):
            off = np.array([[0.5, dev], [0.0, 0.5]])
            return atom_model(**{"A": np.zeros((2, 2)), "B": np.eye(2) / 2, name: off})

        model(1e-10)
        with pytest.raises(ValueError, match=f"{name} is not self-adjoint"):
            model(2e-10)


class TestMoments:
    def test_diffuse_constant(self):
        # contour-integral oracle: int (e^{it}+z)/(e^{it}-z) dt/2pi = 1, so
        # h = 1 has the normalized arc-length measure: Sigma-hat(0) = 1, rest 0
        moments = moments_of(scalar_fn(lambda z: 1.0), R, 4096, M)
        assert moments.shape == (2 * M + 1, 1, 1)
        assert moments[M, 0, 0] == pytest.approx(1, abs=1e-10)
        for n in (1, 5, -17, M):
            assert abs(moments[n + M, 0, 0]) <= 1e-10

    def test_zero_measure(self):
        assert np.max(np.abs(moments_of(scalar_fn(lambda z: 5j), R, 4096, M))) <= 1e-12

    def test_dirac_moments_all_one(self):
        assert np.max(np.abs(moments_of(PHI, R, N_SHARP, M) - 1)) <= 1e-6

    def test_antialias_margin(self):
        samples = sample_boundary(PHI, R, 64)
        with pytest.raises(ValueError, match="N/4"):
            estimate_moments(samples, R, 16)

    def test_moments_not_finite(self):
        # every sample is finite, their sum is not; the suite turns warnings into errors, so the overflow is silent
        samples = np.full((64, 1, 1), 1e307 + 0j)
        with pytest.raises(ValueError, match=r"moments of Re h on \|z\| = 0.5 are not finite"):
            estimate_moments(samples, 0.5, 4)

    def test_moment_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (A + A.conj().T) / 2
        B = np.eye(3) * 0.5
        moments = moments_of(atom_model(A, B), R, 1024, 32)
        for n in range(33):
            dev = moments[32 - n] - moments[32 + n].conj().T
            assert np.max(np.abs(dev)) <= 1e-10


class TestAtomExtraction:
    def test_dirac_atom(self):
        assert atom_at_angle(moments_of(PHI, R, N_SHARP, M), 0.0)[0, 0] == pytest.approx(1, abs=2e-3)

    def test_no_atom_at_pi(self):
        # closed-form geometric-sum oracle: |sum e^{in pi}/(2M+1)| <= 1/(2M+1)
        assert abs(atom_at_angle(moments_of(PHI, R, N_SHARP, M), np.pi)[0, 0]) <= 2 / (2 * M + 1)

    def test_diffuse_vanishing_atom(self):
        # only n = 0 survives: atom = 1/(2M+1)
        moments = moments_of(scalar_fn(lambda z: 1.0), R, 4096, M)
        assert atom_at_angle(moments, 0.0)[0, 0] == pytest.approx(1 / (2 * M + 1), abs=1e-8)

    def test_positivity(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 2))
        A = (A + A.T) / 2
        B = np.diag([0.2, 0.9])
        moments = moments_of(atom_model(A, B), R, 1024, 32)
        m0 = moments[32]
        assert np.linalg.eigvalsh((m0 + m0.conj().T) / 2).min() >= -1e-10
        # off-atom Wiener averages can dip slightly negative through Dirichlet
        # kernel leakage; the dip is O(||m0|| / M)
        bound = (4 / (2 * 32 + 1)) * operator_norm(m0)
        for theta in np.linspace(0.3, 2 * np.pi - 0.3, 7):
            atom = atom_at_angle(moments, theta)
            assert np.linalg.eigvalsh((atom + atom.conj().T) / 2).min() >= -bound


class TestConcentration:
    def test_atom_model_concentrated(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (G + G.conj().T) / 2
        V, _ = np.linalg.qr(G)
        B = (V * rng.uniform(0, 1, 3)) @ V.conj().T
        B = (B + B.conj().T) / 2
        atom, leak, concentrated = dirac_concentration_test(moments_of(atom_model(A, B), R, N_SHARP, M))
        assert concentrated
        assert operator_norm(atom - B) <= 5e-2

    def test_diffuse_not_concentrated(self):
        atom, leak, concentrated = dirac_concentration_test(moments_of(scalar_fn(lambda z: 1.0), R, 4096, M))
        assert not concentrated
        assert leak == pytest.approx(1, abs=1e-2)

    def test_zero_measure_concentrated(self):
        atom, leak, concentrated = dirac_concentration_test(moments_of(scalar_fn(lambda z: 0.0), R, 4096, M))
        assert np.max(np.abs(atom)) <= 1e-12 and leak <= 1e-12 and concentrated


class TestReconstruct:
    def test_values(self):
        eye = np.eye(2)
        np.testing.assert_allclose(atom_model(0 * eye, eye)(0), eye)
        A = np.diag([1.0, -2.0])
        np.testing.assert_allclose(atom_model(A, 0 * eye)(0.3j), 1j * A)
        B = np.diag([0.5, 1.0])
        np.testing.assert_allclose(atom_model(A, B)(0.5), 1j * A + 3 * B)

    def test_domain(self):
        h = atom_model(np.zeros((1, 1)), np.eye(1))
        for z in (1.0, np.array([0.5, 1.5j])):
            with pytest.raises(DomainError):
                h(z)

    def test_loop_closure(self):
        # sample -> moments -> atom recovers the generating (B, Im h(0))
        rng = np.random.default_rng(3)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = (G + G.conj().T) / 2
        B = np.diag([0.3, 0.8]).astype(complex)
        h = atom_model(A, B)
        approx = analyze(h, r=R, N=N_SHARP, M=M)
        assert approx.concentrated
        for z in (0.0, 0.5, 0.2 - 0.6j, 0.9):
            dev = atom_model(im_part(h(0)), approx.atom_mass_at_1)(z) - h(z)
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
            approx = analyze(h, r=R, N=N_SHARP, M=m)
            errs.append(operator_norm(approx.atom_mass_at_1 - B))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3


class TestRotatedAtom:
    @pytest.mark.parametrize("d", [1, 3])
    def test_concentration_carries_the_atom_at_1(self, d):
        # concentrated reads whether the measure of h_1 is one atom at 1; oracles.rotated_atom moves the atom to
        # e^{i alpha}.  At r = 0.99 (the aliasing stays out), N = 4096, M = 64 the leak measured 2.2e-4 (d = 1) and
        # 3.7e-4 (d = 3) at |alpha| = 1e-3, 2.1e-2 and 3.6e-2 at 1e-2, against a default tol_atom of 1e-2 or more:
        # 1e-3 is below these moments' resolution, 1e-2 is not.  The atom at e^{i alpha} measured B to 3.8e-15
        p = random_params(np.random.default_rng(1), d)
        for alpha, concentrated in ((0.0, True), (1e-3, True), (-1e-3, True), (1e-2, False), (-1e-2, False)):
            approx = analyze(rotated_atom(p.A, p.B, alpha)[0], r=0.99, N=4096, M=64)
            assert approx.concentrated is concentrated, alpha
            assert operator_norm(atom_at_angle(approx.moments, alpha) - p.B) <= 1e-14


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


def hermitian_moments(rng, m, d):
    """Random (2m + 1, d, d) moments with moment(-n) = moment(n)*, those of a real (signed) measure."""
    moments = rng.standard_normal((2 * m + 1, d, d)) + 1j * rng.standard_normal((2 * m + 1, d, d))
    moments[:m] = moments[:m:-1].conj().swapaxes(-1, -2)
    moments[m] = (moments[m] + moments[m].conj().T) / 2
    return moments


class TestArcMass:
    def test_dirac_mass_peaks_at_zero(self):
        thetas, mass = arc_mass_profile(moments_of(PHI, R, 4096, M))
        assert np.argmax(mass) == 0
        assert mass.min() >= -1e-8  # Fejer smoothing keeps the profile nonnegative

    # 2m + 1 first exceeds the 360 angles at m = 180, where the fold mod 360 starts
    @pytest.mark.parametrize("m", [4, 64, 179, 180, 256])
    @pytest.mark.parametrize("d", [1, 3])
    def test_equals_dense_fejer_sum(self, m, d):
        moments = hermitian_moments(np.random.default_rng(m + d), m, d)
        thetas, mass = arc_mass_profile(moments)
        dense_thetas, dense = dense_arc_mass_profile(moments)
        assert np.array_equal(thetas, dense_thetas)
        assert np.max(np.abs(mass - dense)) <= 1e-12 * np.max(dense)

    @pytest.mark.parametrize("m", [64, 180, 256])
    @pytest.mark.parametrize("d", [1, 3])
    def test_planted_moment_error_moves_the_profile(self, m, d):
        # an atom B >= 0 at the point 1 has every moment B; 1e-6 I planted in moment(n) and its mirror moment(-n)
        # adds 2e-6 (1 - n/(m + 1)) cos(n theta) I to the positive density
        rng = np.random.default_rng(m + d)
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        moments = np.broadcast_to(X @ X.conj().T, (2 * m + 1, d, d)).copy()
        _, mass = arc_mass_profile(moments)
        for n in (1, m):
            planted = moments.copy()
            planted[[m - n, m + n]] += 1e-6 * np.eye(d)
            _, moved = arc_mass_profile(planted)
            assert np.max(np.abs(moved - mass)) >= 1e-6 * (1 - n / (m + 1))


class TestSvdOffHerglotz:
    """Only the non-Hermitian moment stacks and atom_norm of herglotz-analyze reach an SVD, none at d = 1."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_svd_calls(self, tmp_path, monkeypatch, d):
        svd, calls = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            frames, f = [], sys._getframe(1)
            while f is not None:
                frames.append(f.f_code.co_name)
                f = f.f_back
            calls.append((int(np.prod(np.shape(a)[:-2])), frames))
            return svd(a, *args, **kwargs)

        m, X = 16, np.random.default_rng(d).standard_normal((d, d))
        A, B = ([[[float(v), 0.0] for v in row] for row in M] for M in (np.zeros((d, d)), X @ X.T))
        cfg = {"command": "herglotz-analyze", "params": {"A": A, "B": B}, "n_samples": 256, "n_moments": m}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        argv = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out"), "--emit-plots"]
        assert cli.main(argv) == cli.EXIT_PASS
        if d == 1:
            assert calls == []
            return
        for n, frames in calls:
            assert frames[:2] == ["operator_norm", "_run_herglotz"], frames
            assert "arc_mass_profile" not in frames and "dirac_concentration_test" not in frames
        # moment_profile's norms and distances to the atom, one stack of 2m + 1 slices each, and atom_norm
        assert sorted(n for n, _ in calls) == [1, 2 * m + 1, 2 * m + 1]
