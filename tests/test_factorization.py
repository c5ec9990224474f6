import sys
from types import SimpleNamespace

import numpy as np
import pytest

from holo_lab import factorization, operators
from holo_lab.disc import DiscGrid, DomainError, default_grid, mobius_phi, varphi_t
from holo_lab.factorization import (
    DEFAULT_T_LIST,
    EXP_NORM_BUDGET,
    FactorPair,
    FactorParams,
    build_h,
    master_residuals,
    pair_from_params,
    phi_jt,
    random_params,
    recover_params,
    verify_factorization,
)
from holo_lab.herglotz import atom_model
from holo_lab.operators import (
    cayley,
    exp_sweep,
    frobenius_norm,
    inverse_cayley,
    largest_norm,
    operator_norm,
    re_part,
)
from holo_lab.rigidity import OperatorFunction, constant_function
from oracles import (
    FLOORS,
    g_transform,
    h_split,
    inside_budget,
    numerical_abscissa,
    poisson_factor,
    rotated_atom,
    svd_largest_norm,
)

# expm-heavy sweeps use a thinned grid; identities are z-pointwise so
# coverage in z, not density, is what matters
FAST_GRID = DiscGrid(radii=(0.3, 0.6, 0.9, 0.95), n_angles=16)


def scalar_params(a, b):
    return FactorParams(A=np.array([[a]], dtype=complex), B=np.array([[b]], dtype=complex))


def axiom_residuals(rep):
    """The four residuals of a FactorizationReport."""
    return rep.product_residual, rep.commutation_residual, rep.contractivity_excess, rep.semigroup_residual


class TestFactorParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            FactorParams(A=np.array([[0.0, 1.0], [0.0, 0.0]]), B=np.eye(2) / 2)
        with pytest.raises(ValueError, match="0 <= B <= I"):
            scalar_params(0.0, 1.5)
        with pytest.raises(ValueError, match="0 <= B <= I"):
            scalar_params(0.0, -0.2)
        with pytest.raises(ValueError, match="dimension"):
            FactorParams(A=np.eye(2), B=np.eye(3) / 2)
        with pytest.raises(ValueError, match="B is not self-adjoint"):
            FactorParams(A=np.zeros((2, 2)), B=np.array([[0.5, 2e-12], [0.0, 0.5]]))

    def test_boundary_B_allowed(self):
        scalar_params(1.0, 0.0)
        scalar_params(1.0, 1.0)
        FactorParams(A=np.zeros((2, 2)), B=np.diag([0.0, 1.0]))


class TestPositiveContraction:
    """FactorParams' rule on B: 0 <= B <= I to 1e-12, after require_pair's B = B*."""

    @staticmethod
    def params(B):
        return FactorParams(A=np.zeros_like(B), B=B)

    def test_examples(self):
        self.params(np.diag([0.0, 1.0]))
        self.params(np.array([[0.5]]))
        with pytest.raises(ValueError, match="0 <= B <= I"):
            self.params(np.array([[1.5]]))

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            self.params(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_random_spectra(self):
        rng = np.random.default_rng(3)
        for d in (2, 4, 8):
            V, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            H = (V * rng.uniform(0, 1, d)) @ V.conj().T
            H = (H + H.conj().T) / 2
            self.params(H)
            with pytest.raises(ValueError, match="0 <= B <= I"):
                self.params(H + 1.01 * np.eye(d))


class TestBuildH1:
    def test_examples(self):
        eye = np.eye(2)
        p = FactorParams(A=0 * eye, B=eye)
        np.testing.assert_allclose(build_h(p.A, p.B, 1, 0.5), 3 * eye)

        p2 = FactorParams(A=1.5 * eye, B=0 * eye)
        for z in (0.0, 0.3j, -0.5):
            np.testing.assert_allclose(build_h(p2.A, p2.B, 1, z), 1.5j * eye)

        p3 = FactorParams(A=np.diag([1.0, -1.0]), B=0.5 * eye)
        np.testing.assert_allclose(build_h(p3.A, p3.B, 1, 0), 0.5 * eye + 1j * np.diag([1.0, -1.0]))

    def test_domain(self):
        with pytest.raises(DomainError):
            build_h(np.zeros((1, 1)), np.full((1, 1), 0.5), 1, 1.0)


class TestBuildH:
    """build_h is the one definition of h_j: every factor symbol and Cayley factor is built from it."""

    CASES = [(d, z) for d in (1, 2, 4) for z in (0.3 - 0.4j, FAST_GRID.points())]
    IDS = [f"d{d}-{'stack' if np.ndim(z) else 'scalar'}" for d, z in CASES]

    @pytest.mark.parametrize("d, z", CASES, ids=IDS)
    def test_factors_are_built_from_h(self, d, z):
        p = random_params(np.random.default_rng(70 + d), d)
        pair = pair_from_params(p)
        for j, psi in ((1, pair.psi1), (2, pair.psi2)):
            H = -build_h(p.A, p.B, j, np.atleast_1d(z))
            for t in (0.5, 2.0):
                assert np.array_equal(phi_jt(p, j, t, z).reshape(H.shape), exp_sweep(H, np.full((1, len(H)), t))[0])
            assert np.array_equal(psi(z), cayley(build_h(p.A, p.B, j, z)))

    @pytest.mark.parametrize("d, z", CASES, ids=IDS)
    def test_real_parts_split_the_poisson_factor(self, d, z):
        # Re h_1 = P(z) B and Re h_2 = P(z) (I - B): B splits the Poisson kernel at the point 1
        p = random_params(np.random.default_rng(80 + d), d)
        P = np.asarray(poisson_factor(z))[..., None, None]
        for j, mass in ((1, p.B), (2, np.eye(d) - p.B)):
            expected = P * mass
            error = frobenius_norm(re_part(build_h(p.A, p.B, j, z)) - expected)
            assert np.all(error <= 1e-13 * frobenius_norm(expected)), np.max(error / frobenius_norm(expected))

    @pytest.mark.parametrize("d", [1, 4])
    def test_paper_route_through_g(self, d):
        # the paper: F = B + iA, g = F + zF*, h_1 = g/(1 - z) = phi B + iA, h_2 = phi I - h_1, as build_h writes
        # them.  Each route rounds a few eps per term, and g/(1 - z) scales g by 2/(1 - z) = 1 + phi; the error
        # measured at d = 1, 2, 4, 8 (20 seeds each) stays below 0.6 eps (1 + |phi|)(||A||_F + ||B||_F + sqrt(d))
        p = random_params(np.random.default_rng(90 + d), d)
        h1, h2 = h_split(g_transform(constant_function(p.B + 1j * p.A)))
        z = default_grid().points()
        eps = np.finfo(float).eps
        bound = 4 * eps * (1 + np.abs(mobius_phi(z))) * (frobenius_norm(p.A) + frobenius_norm(p.B) + np.sqrt(d))
        for j, h in ((1, h1), (2, h2)):
            assert np.all(frobenius_norm(h(z) - build_h(p.A, p.B, j, z)) <= bound)
            assert np.all(frobenius_norm(h(z) - build_h(-p.A, p.B, j, z)) > bound)  # the sign of A matters

    @pytest.mark.parametrize("d, z", CASES, ids=IDS)
    def test_atom_model_is_h1(self, d, z):
        p = random_params(np.random.default_rng(60 + d), d)
        assert np.array_equal(atom_model(p.A, p.B)(z), build_h(p.A, p.B, 1, z))

    def test_validation(self):
        p = scalar_params(0.0, 0.5)
        with pytest.raises(ValueError, match="j must be 1 or 2"):
            build_h(p.A, p.B, 3, 0.5)
        for z in (1.0, 1j, np.array([0.5, -1.0])):
            with pytest.raises(DomainError):
                build_h(p.A, p.B, 2, z)


class TestPairFromParams:
    def test_full_mass_scalar(self):
        # scalar identity cayley(phi(z)) = z
        pair = pair_from_params(scalar_params(0.0, 1.0))
        for z in (0.0, 0.5, 0.2 + 0.3j):
            assert pair.psi1(z)[0, 0] == pytest.approx(z, abs=1e-14)
            assert pair.psi2(z)[0, 0] == pytest.approx(-1.0)

    def test_zero_mass_scalar(self):
        pair = pair_from_params(scalar_params(0.0, 0.0))
        for z in (0.0, 0.5, 0.2 + 0.3j):
            assert pair.psi1(z)[0, 0] == pytest.approx(-1.0)
            assert pair.psi2(z)[0, 0] == pytest.approx(z, abs=1e-14)

    def test_symmetric_split(self):
        pair = pair_from_params(scalar_params(0.0, 0.5))
        for z in (0.1, 0.5j, -0.7):
            np.testing.assert_allclose(pair.psi1(z), pair.psi2(z), atol=1e-14)

    def test_contraction_valued(self):
        rng = np.random.default_rng(1)
        pair = pair_from_params(random_params(rng, 4))
        for z in FAST_GRID.points()[::7]:
            assert operator_norm(pair.psi1(z)) <= 1 + 1e-10
            assert operator_norm(pair.psi2(z)) <= 1 + 1e-10


class TestPhiJt:
    def test_scalar_reduction(self):
        eye = np.eye(3)
        p = FactorParams(A=0 * eye, B=eye)
        for t, z in [(0.5, 0.2), (1.0, 0.3 - 0.4j)]:
            np.testing.assert_allclose(phi_jt(p, 1, t, z), varphi_t(t, z) * eye, atol=1e-12)
            np.testing.assert_allclose(phi_jt(p, 2, t, z), eye)

    def test_half_mass_at_zero(self):
        p = scalar_params(0.0, 0.5)
        assert phi_jt(p, 1, 1.0, 0)[0, 0] == pytest.approx(np.exp(-0.5))

    def test_bad_j(self):
        with pytest.raises(ValueError):
            phi_jt(scalar_params(0.0, 0.5), 3, 1.0, 0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_bad_t(self, d):
        # the sweep would return NaN for t = inf or NaN; only a finite t >= 0 is a factor symbol
        p = random_params(np.random.default_rng(d), d)
        for t in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite t >= 0"):
                phi_jt(p, 1, t, 0.5)

    def test_array_of_z_equals_pointwise(self):
        rng = np.random.default_rng(8)
        zs = FAST_GRID.points()
        for d in (1, 3):
            p = random_params(rng, d)
            for j in (1, 2):
                np.testing.assert_array_equal(build_h(p.A, p.B, j, zs), np.stack([build_h(p.A, p.B, j, z) for z in zs]))
            for j in (1, 2):
                stacked = phi_jt(p, j, 0.75, zs)
                assert np.array_equal(stacked, np.stack([phi_jt(p, j, 0.75, z) for z in zs]))

    def test_array_domain(self):
        with pytest.raises(DomainError):
            phi_jt(scalar_params(0.0, 0.5), 1, 1.0, np.array([0.5, 1.0]))


def exp_slices(monkeypatch):
    """A list that gets, per exp_sweep call of verify_factorization, its number of nonzero (t, z) multipliers."""
    slices, sweep = [], factorization.exp_sweep

    def spy(H, t):
        slices.append(int(np.count_nonzero(t)))
        return sweep(H, t)

    monkeypatch.setattr(factorization, "exp_sweep", spy)
    return slices


def budget_points(params, grid, t_list):
    """(factor points, semigroup points) from the definition, point by point.

    The factor points are the (t, z) with t inside the exponent-norm budget,
    the semigroup points the (t, s, z), s following t in sorted t_list, with
    t, s and t + s inside it.
    """
    a_norm = operator_norm(params.A)
    t_list = sorted(t_list)
    factor = semigroup = 0
    for z in grid.points():
        factor += sum(inside_budget(t, a_norm, z) for t in t_list)
        semigroup += sum(inside_budget(t, a_norm, z) and inside_budget(s, a_norm, z)
                         and inside_budget(t + s, a_norm, z) for t, s in zip(t_list, t_list[1:]))
    return factor, semigroup


class TestVerifyFactorization:
    def test_scalar_full_mass(self):
        rep = verify_factorization(scalar_params(0.0, 1.0), t_list=(0.5, 1.0), grid=FAST_GRID)
        assert max(axiom_residuals(rep)) <= 1e-12

    def test_commuting_diagonal(self):
        # oracle: [iA - phi B, -iA - phi(I-B)] = 0 by direct expansion
        p = FactorParams(A=np.diag([1.0, -1.0]), B=np.diag([1.0, 0.0]))
        rep = verify_factorization(p, t_list=(0.5, 1.0), grid=FAST_GRID)
        assert max(axiom_residuals(rep)) <= 1e-9

    def test_random(self, monkeypatch):
        p = random_params(np.random.default_rng(2), 3)
        slices = exp_slices(monkeypatch)
        rep = verify_factorization(p, grid=FAST_GRID)
        assert max(axiom_residuals(rep)) <= 1e-8
        # the budget may skip the far corner (t=2 near z=0.95) for large ||A||:
        # at most 20 of the 4 * 64 (t, z) points
        factor, semigroup = budget_points(p, FAST_GRID, DEFAULT_T_LIST)
        assert factor >= 236 and semigroup > 0
        assert sum(slices) == 2 * (factor + semigroup)

    def test_degenerate_edges(self):
        for b in (0.0, 1.0):
            rep = verify_factorization(scalar_params(0.7, b), t_list=(0.5, 1.0), grid=FAST_GRID)
            assert max(axiom_residuals(rep)) <= 1e-12

    def test_budget_skipping(self, monkeypatch):
        # t + s = 100 is inside the budget only where |phi| <= 1, on the left half of the disc
        slices = exp_slices(monkeypatch)
        verify_factorization(scalar_params(0.0, 1.0), t_list=(50.0, 50.0), grid=FAST_GRID)
        assert 0 < sum(slices) < 2 * 3 * len(FAST_GRID.points())

    def test_budget_counts(self, monkeypatch):
        # oracle: two factors at each factor point and two at each semigroup point, from the definition
        p = random_params(np.random.default_rng(10), 2)
        t_list = (0.5, 1.0, 1.0, 2.0, 2.5)
        factor, semigroup = budget_points(p, FAST_GRID, t_list)
        n = len(FAST_GRID.points())
        assert 0 < factor < len(t_list) * n and 0 < semigroup < (len(t_list) - 1) * n
        slices = exp_slices(monkeypatch)
        rep = verify_factorization(p, t_list=t_list, grid=FAST_GRID)
        assert sum(slices) == 2 * (factor + semigroup)
        assert max(axiom_residuals(rep)) <= 1e-8

    def test_nothing_checked_does_not_pass(self, monkeypatch):
        slices = exp_slices(monkeypatch)
        with pytest.raises(ValueError, match="EXP_NORM_BUDGET"):
            verify_factorization(scalar_params(0.0, 0.5), t_list=(5000.0, 6000.0), grid=FAST_GRID)
        assert slices == []

    def test_semigroup_points_counted(self, monkeypatch):
        # a point inside the budget at t + s is inside it at t and at s, so the semigroup law is compared
        # wherever t + s is inside it; t_lists across the budget's edge, unsorted, with repeats
        rng = np.random.default_rng(11)
        slices = exp_slices(monkeypatch)
        for d in (1, 2, 3):
            p = random_params(rng, d)
            a_norm = operator_norm(p.A)
            for t_list in [rng.uniform(0.5, 30.0, size=4) for _ in range(3)] + [(20.0, 2.0, 20.0)]:
                t_list = tuple(float(t) for t in t_list)
                factor, semigroup = budget_points(p, FAST_GRID, t_list)
                ts = sorted(t_list)
                assert semigroup == sum(inside_budget(t + s, a_norm, z)
                                        for z in FAST_GRID.points() for t, s in zip(ts, ts[1:]))
                del slices[:]
                verify_factorization(p, t_list=t_list, grid=FAST_GRID)
                assert 0 < semigroup and sum(slices) == 2 * (factor + semigroup)

    def test_two_smallest_t_over_the_budget_do_not_pass(self, monkeypatch):
        # |phi| is least at z = -0.95, 0.05 / 1.95: t = 2500 is inside the budget there, and 5000 nowhere
        p = scalar_params(0.0, 0.5)
        factor, semigroup = budget_points(p, FAST_GRID, (2500.0, 2500.0))
        assert factor > 0 and semigroup == 0
        slices = exp_slices(monkeypatch)
        with pytest.raises(ValueError, match="EXP_NORM_BUDGET"):
            verify_factorization(p, t_list=(2500.0, 2500.0), grid=FAST_GRID)
        assert slices == []

    @pytest.mark.parametrize("d", [1, 2])
    def test_raises_exactly_where_no_semigroup_point(self, d, monkeypatch):
        # t_lists whose two smallest values sum to x, for x across the budget's edge at the point of least
        # ||A|| + |phi|: ulp by ulp, and in steps of 1e-3
        p = random_params(np.random.default_rng(12 + d), d)
        a_norm = operator_norm(p.A)
        edge = EXP_NORM_BUDGET / min(a_norm + abs(complex(mobius_phi(z))) for z in FAST_GRID.points())
        xs = [edge * (1 + k * 1e-3) for k in range(-3, 4)]
        x = edge
        for _ in range(8):
            x = np.nextafter(x, 0)
        for _ in range(16):
            xs.append(float(x))
            x = np.nextafter(x, np.inf)
        slices = exp_slices(monkeypatch)
        outcomes = set()
        for x in xs:
            for t_list in ((x / 2, x / 2), (3 * x / 4, x / 4, x)):
                _, semigroup = budget_points(p, FAST_GRID, t_list)
                del slices[:]
                if semigroup:
                    verify_factorization(p, t_list=t_list, grid=FAST_GRID)
                    assert sum(slices) > 0
                else:
                    with pytest.raises(ValueError, match="EXP_NORM_BUDGET"):
                        verify_factorization(p, t_list=t_list, grid=FAST_GRID)
                    assert slices == []
                outcomes.add(semigroup > 0)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("t_list", [(0.0, 1.0), (-1.0, 1.0), (float("nan"),), (1.0, float("inf"))])
    def test_t_must_be_positive_and_finite(self, t_list):
        # at t = 0 both factors are I and every check compares nothing
        with pytest.raises(ValueError, match="t_list"):
            verify_factorization(scalar_params(0.0, 0.5), t_list=t_list, grid=FAST_GRID)

    def test_no_semigroup_point_does_not_pass(self, monkeypatch):
        # one t gives no (t, s) pair: the semigroup law would be compared nowhere
        slices = exp_slices(monkeypatch)
        with pytest.raises(ValueError, match="EXP_NORM_BUDGET"):
            verify_factorization(scalar_params(0.0, 0.5), t_list=(1.0,), grid=FAST_GRID)
        assert slices == []

    def test_exponent_commutation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_params(rng, 3)
            z = 0.9 * np.exp(2j * np.pi * rng.uniform())
            phi = mobius_phi(z)
            E1 = 1j * p.A - phi * p.B
            E2 = -1j * p.A - phi * (np.eye(3) - p.B)
            scale = operator_norm(E1) * operator_norm(E2)
            assert operator_norm(E1 @ E2 - E2 @ E1) <= 1e-12 * max(scale, 1)

    def test_contractivity_and_abscissa(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_params(rng, rng.integers(1, 4))
            t = rng.uniform(0, 2)
            z = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
            j = rng.integers(1, 3)
            phi = mobius_phi(z)
            Bj = p.B if j == 1 else np.eye(p.dim) - p.B
            Aj = p.A if j == 1 else -p.A
            assert numerical_abscissa(t * (1j * Aj - phi * Bj)) <= 1e-12
            assert operator_norm(phi_jt(p, int(j), t, z)) <= 1 + 1e-10

    def test_monotone_norm_in_t(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 3)
        z = 0.4 + 0.2j
        for j in (1, 2):
            norms = [operator_norm(phi_jt(p, j, t, z)) for t in (0.0, 0.5, 1.0, 2.0)]
            assert all(n2 <= n1 + 1e-10 for n1, n2 in zip(norms, norms[1:]))


class TestVerifyMaster:
    def test_pair_from_params(self):
        rng = np.random.default_rng(6)
        residual = master_residuals(pair_from_params(random_params(rng, 3)), grid=FAST_GRID).max()
        assert residual <= 1e-10

    def test_scalar_ancestor(self):
        # psi1(z) = z, psi2 = -1: the scalar continued-fraction identity
        pair = FactorPair(
            psi1=OperatorFunction(1, lambda z: z * np.ones((1, 1)), "z"),
            psi2=OperatorFunction(1, lambda z: np.array([[-1.0]]), "-1"),
        )
        assert master_residuals(pair, grid=FAST_GRID).max() <= 1e-12

    def test_per_point_residuals(self):
        rng = np.random.default_rng(9)
        pair = pair_from_params(random_params(rng, 2))
        residuals = master_residuals(pair, grid=FAST_GRID)
        eye = np.eye(2)
        expected = []
        for z in FAST_GRID.points():
            P1, P2 = pair.psi1(z), pair.psi2(z)
            product = lambda X, Y: np.einsum("ij,jk->ik", X, Y, optimize=False)  # no BLAS, as master_residuals
            expected.append(frobenius_norm(2 * (eye - product(P1, P2)) - mobius_phi(z) * product(eye - P1, eye - P2)))
        assert np.array_equal(residuals, expected)

    def test_bounds_the_inverse_cayley_form(self):
        # ||ic(psi1) + ic(psi2) - phi I|| <= ||(I + ic(psi1))/2|| ||(I + ic(psi2))/2|| * residual, for any pair
        rng = np.random.default_rng(10)
        for d in (1, 3):
            X = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
            X = 0.4 * X / operator_norm(X)[:, None, None]
            # psi_k(z) = X_k + z X_{k+2}: contractions, but not a factorizing pair
            psi = [OperatorFunction(d, lambda z, k=k: X[k] + z * X[k + 2], f"psi{k + 1}") for k in (0, 1)]
            for z, residual in zip(FAST_GRID.points(), master_residuals(FactorPair(*psi), grid=FAST_GRID)):
                h1, h2 = inverse_cayley(psi[0](z)), inverse_cayley(psi[1](z))
                old = operator_norm(h1 + h2 - mobius_phi(z) * np.eye(d))
                factor = operator_norm((np.eye(d) + h1) / 2) * operator_norm((np.eye(d) + h2) / 2)
                assert residual > 0.1 and old <= factor * residual * NORM_SLACK

    def test_non_factorizing_pair(self):
        zero = OperatorFunction(1, lambda z: np.array([[0.0]]), "0")
        pair = FactorPair(psi1=zero, psi2=zero)
        residual = master_residuals(pair, grid=DiscGrid((0.5,), 8)).max()
        assert residual >= 1 - 1e-12  # |2 - phi(0.5)| = 1 at z = 0.5


class TestNearTheCircle:
    """Exact parameters pass the master and recovery checks at their default tolerances up to |z| = 0.99999."""

    GRID = DiscGrid(radii=(0.3, 0.9, 0.999, 0.99995, 0.99999), n_angles=16)

    @pytest.mark.parametrize("d", [1, 4])
    def test_exact_params_pass(self, d):
        params = scalar_params(0.0, 0.5) if d == 1 else random_params(np.random.default_rng(4), 4)
        pair = pair_from_params(params)
        assert master_residuals(pair, grid=self.GRID).max() <= 1e-10
        A, B, residual = recover_params(pair, grid=self.GRID)
        assert residual <= 1e-9
        assert np.max(np.abs(A - params.A)) <= 1e-10 and np.max(np.abs(B - params.B)) <= 1e-10


class TestRecoverParams:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 4):
            p = random_params(rng, dim)
            A, B, residual = recover_params(pair_from_params(p), grid=FAST_GRID)
            assert np.max(np.abs(A - p.A)) <= 1e-10
            assert np.max(np.abs(B - p.B)) <= 1e-10
            assert residual <= 1e-9

    def test_shift_pair(self):
        pair = pair_from_params(FactorParams(A=np.zeros((2, 2)), B=np.eye(2)))
        A, B, _ = recover_params(pair, grid=FAST_GRID)
        np.testing.assert_allclose(A, 0, atol=1e-12)
        np.testing.assert_allclose(B, np.eye(2), atol=1e-12)

    def test_constant_minus_identity_pair(self):
        pair = pair_from_params(FactorParams(A=np.zeros((2, 2)), B=np.zeros((2, 2))))
        A, B, _ = recover_params(pair, grid=FAST_GRID)
        np.testing.assert_allclose(A, 0, atol=1e-12)
        np.testing.assert_allclose(B, 0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_rotated_atom_is_caught(self, d):
        # the exponential-form residual carries the hypothesis that the atom of h_1 sits at 1: oracles.rotated_atom
        # moves it to e^{i alpha}.  On the default grid the residual measured 1.8e-15 (d = 1) and 4.7e-15 (d = 3)
        # at alpha = 0, 3.6e-2 and 5.9e-2 at |alpha| = 1e-3, 0.36 and 0.60 at 1e-2; recover-params' tolerance is
        # 1e-9, so the grid resolves alpha = 1e-3
        p = random_params(np.random.default_rng(1), d)

        def residual(alpha):
            h1, h2 = rotated_atom(p.A, p.B, alpha)
            pair = FactorPair(*(OperatorFunction(d, lambda z, h=h: cayley(h(z)), f"psi[{h.name}]") for h in (h1, h2)))
            return recover_params(pair, default_grid())[2]

        assert residual(0.0) <= 1e-9
        for alpha, least in ((1e-3, 1e-2), (1e-2, 0.1)):
            assert residual(alpha) >= least and residual(-alpha) >= least


# round-off allowance for comparing two computed norms of one matrix
NORM_SLACK = 1 + 8 * np.finfo(float).eps


def residuals(params, grid=FAST_GRID):
    """The five Frobenius-bounded residuals of params, and the report they come from."""
    pair = pair_from_params(params)
    rep = verify_factorization(params, grid=grid)
    *_, recover = recover_params(pair, grid=grid)
    master = master_residuals(pair, grid=grid).max()
    return (rep.product_residual, rep.commutation_residual, rep.semigroup_residual, master, recover), rep


class TestFrobeniusResiduals:
    """The residuals in the Frobenius norm, against the same residuals in the exact operator norm."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_between_operator_norm_and_sqrt_d_times_it(self, d, monkeypatch):
        params = random_params(np.random.default_rng(30 + d), d)
        fro, rep = residuals(params)
        monkeypatch.setattr(factorization, "frobenius_norm", operator_norm)
        exact, exact_rep = residuals(params)
        for f, e in zip(fro, exact):
            assert e <= f * NORM_SLACK and f <= np.sqrt(d) * e * NORM_SLACK
        assert exact_rep.contractivity_excess == rep.contractivity_excess


PLANT = 1e-6


def plant_in_factors(monkeypatch, E):
    """Every factor exp_sweep returns to verify_factorization gets PLANT * E added."""
    sweep = factorization.exp_sweep
    monkeypatch.setattr(factorization, "exp_sweep", lambda H, t: sweep(H, t) + PLANT * E)


class TestPlantedErrorsAreCaught:
    """A 1e-6 error planted in a factor or in psi gives a residual >= 1e-6.

    A = 0, B = diag(1, 0) makes the factors diagonal, phi_{1,t} = diag(q, 1)
    and phi_{2,t} = diag(1, q) with q = exp(-t phi(z)), so each residual
    with the plant p = PLANT has a closed form.
    """

    DIAGONAL = FactorParams(A=np.zeros((2, 2)), B=np.diag([1.0, 0.0]))

    def test_product(self, monkeypatch):
        # (Q1 + pI)(Q2 + pI) - qI = (p(1 + q) + p^2) I, and Re q > 0 at z = 0.3
        plant_in_factors(monkeypatch, np.eye(2))
        assert verify_factorization(self.DIAGONAL, grid=FAST_GRID).product_residual >= PLANT

    def test_commutation(self, monkeypatch):
        # [Q1 + pN, Q2 + pN] = 2p (q - 1) N for N = e_1 e_2*, and q ~ 0 at z = 0.95
        plant_in_factors(monkeypatch, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert verify_factorization(self.DIAGONAL, grid=FAST_GRID).commutation_residual >= PLANT

    def test_semigroup(self, monkeypatch):
        # the (2, 2) entry for phi_{1,t}: (1 + p) - (1 + p)^2 = -p - p^2
        plant_in_factors(monkeypatch, np.eye(2))
        assert verify_factorization(self.DIAGONAL, grid=FAST_GRID).semigroup_residual >= PLANT

    def test_master(self):
        # psi_2 of (A + pI, B): ic(psi_1) + ic(psi_2) - phi I = i p I
        params = random_params(np.random.default_rng(31), 3)
        shifted = FactorParams(A=params.A + PLANT * np.eye(3), B=params.B)
        pair = FactorPair(psi1=pair_from_params(params).psi1, psi2=pair_from_params(shifted).psi2)
        assert master_residuals(pair, grid=FAST_GRID).max() >= PLANT

    def test_recover(self):
        # h_1(z) + p z I agrees with the recovered h1 at z = 0 only; |z| = 0.95 on the outer circle
        params = random_params(np.random.default_rng(32), 3)
        psi1 = OperatorFunction(3, lambda z: cayley(build_h(params.A, params.B, 1, z.ravel()) + PLANT * z * np.eye(3)), "psi1")
        *_, residual = recover_params(FactorPair(psi1=psi1, psi2=pair_from_params(params).psi2), grid=FAST_GRID)
        assert residual >= PLANT


class TestContractivityCertificate:
    """operators.largest_norm, at the floor 1 of contractivity and at the reference norm, skips the SVD of
    certified slices, and the excess keeps its bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_equals_svd_excess(self, d, norm_check):
        rng = np.random.default_rng(50 + d)
        zs = FAST_GRID.points()
        eye = np.eye(d)
        # random factors, and B = 0 or I, where one factor is unitary and sits at norm 1
        for params in [random_params(rng, d) for _ in range(3)] + [
            FactorParams(A=random_params(rng, d).A, B=b * eye) for b in (0.0, 1.0)
        ]:
            for t in DEFAULT_T_LIST:
                for j in (1, 2):
                    Q = phi_jt(params, j, t, zs)
                    for stack in (Q, Q * (1 + PLANT)):  # the plant makes the norm-1 slices non-contractions
                        for floor in FLOORS:
                            norm_check(stack, floor)

    def test_planted_non_contraction(self, norm_check):
        Q = np.stack([np.linalg.qr(np.random.default_rng(k).standard_normal((3, 3)))[0] for k in range(8)])
        Q[:4] *= 0.5
        Q[5] *= 1 + PLANT
        for floor in FLOORS:
            assert norm_check(Q, floor) - 1 >= 0.99 * PLANT

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_report_equals_svd_excess(self, d, monkeypatch):
        params = [random_params(np.random.default_rng(55 + d), d),
                  FactorParams(A=random_params(np.random.default_rng(56), d).A, B=np.zeros((d, d)))]
        certified = [verify_factorization(p, grid=FAST_GRID).contractivity_excess for p in params]
        monkeypatch.setattr(factorization, "largest_norm", svd_largest_norm)
        assert certified == [verify_factorization(p, grid=FAST_GRID).contractivity_excess for p in params]


def with_norm(rng, n, d, norm):
    """n random d x d slices U diag(s) V* with s_1 = norm and the other singular values uniform in [0, norm].

    Slice 0 is norm times a unitary, every singular value at the norm.
    """
    U, V = (np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))[0] for _ in range(2))
    s = norm * rng.uniform(0.0, 1.0, size=(n, d))
    s[:, 0], s[0] = norm, norm
    return (U * s[:, None, :]) @ V.conj().swapaxes(-1, -2)


def at_floor(rng, Q, floor):
    """Q at the floor 1, and for floor None Q behind a unitary reference slice, whose norm 1 is then the floor."""
    if floor is not None:
        return Q
    return np.concatenate([np.linalg.qr(rng.standard_normal((1, *Q.shape[1:])) + 0j)[0], Q])


class TestCholeskyCertificate:
    """largest_norm's Cholesky certificate is tight: it decides every slice 10^-9 away from its edge, ||Q||_2 =
    (1 - margin) times the floor, at the floor 1 and at a reference norm 1; 1 x 1 slices take np.hypot."""

    EDGE = 1 - operators.CERTIFICATE_MARGIN

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_decides_at_the_edge(self, d, norm_check, verdicts):
        rng = np.random.default_rng(70 + d)
        for floor in FLOORS:
            for side, certified in ((-1, True), (1, False)):
                Q = at_floor(rng, with_norm(rng, 32, d, self.EDGE * (1 + side * 1e-9)), floor)
                norm_check(Q, floor)
                if d == 1:
                    assert verdicts == []
                else:  # the reference slice is at the floor: open
                    assert np.all(verdicts.pop()[floor is None:] == certified)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_certifies_every_slice_below_the_edge(self, d, norm_check, verdicts):
        # random, far from normal: the row sums of |Q*Q| exceed ||Q||_2^2 at d >= 2
        rng = np.random.default_rng(80 + d)
        Q = rng.standard_normal((256, d, d)) + 1j * rng.standard_normal((256, d, d))
        Q *= (self.EDGE * (1 - 1e-6) * rng.uniform(0.5, 1.0, size=256) / operator_norm(Q))[:, None, None]
        assert np.all(operator_norm(Q) <= self.EDGE * (1 - 1e-6))
        assert largest_norm(Q, 1.0) == 1.0
        for floor in FLOORS:
            norm_check(at_floor(rng, Q, floor), floor)
            assert d == 1 or np.all(verdicts.pop()[floor is None:])

    def test_non_finite_certifies_nothing(self, lapack, verdicts):
        # a NaN or inf entry reaches operator_norm, which refuses it, before any Cholesky or LAPACK call
        Q = with_norm(np.random.default_rng(90), 4, 3, 0.5)
        Q[1, 2, 0], Q[2, 0, 1], Q[3, 1, 1] = np.nan, np.inf, 1e200
        for floor in FLOORS:
            with pytest.raises(ValueError, match="finite"):
                largest_norm(Q, floor)
        assert verdicts == [] and lapack == []


class TestContractivityOffTheStrip:
    """A B with an eigenvalue outside [0, 1] breaks the paper's hypothesis, and only contractivity sees it.

    FactorParams refuses such a B, so the pair goes in as a namespace holding A, B and dim.  Re h_j is then
    not >= 0 near the point 1, exp(-t h_j) grows there, and every other axiom still holds: h_1 and h_2
    commute whatever B is.
    """

    @pytest.mark.parametrize("index, eigenvalue", [(-1, 1 + 1e-3), (0, -1e-3)])
    def test_excess_outside_the_strip(self, index, eigenvalue):
        params = random_params(np.random.default_rng(1), 3)
        eigs, U = np.linalg.eigh(params.B)
        eigs[index] = eigenvalue
        B = (U * eigs) @ U.conj().T
        off = verify_factorization(SimpleNamespace(A=params.A, B=(B + B.conj().T) / 2, dim=3), grid=default_grid())
        assert off.contractivity_excess > 1e-2
        assert verify_factorization(params, grid=default_grid()).contractivity_excess == 0.0
        assert max(off.product_residual, off.commutation_residual, off.semigroup_residual) < 1e-13


class TestSweepPath:
    """verify_factorization exponentiates each chunk of grid points once per factor, and solves nothing."""

    @pytest.mark.parametrize("t_list", [DEFAULT_T_LIST, (0.5, 1.0), tuple(0.25 * k for k in range(1, 9))])
    def test_two_sweeps_per_chunk_and_no_solve(self, t_list, monkeypatch):
        solve, sweep = np.linalg.solve, factorization.exp_sweep
        solves, multipliers = [], []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
        monkeypatch.setattr(factorization, "exp_sweep", lambda H, t: multipliers.append(t.shape) or sweep(H, t))
        verify_factorization(random_params(np.random.default_rng(3), 3), grid=default_grid(), t_list=t_list)
        T, n = 2 * len(t_list) - 1, len(default_grid().points())
        chunk = 448 // T
        assert solves == []
        assert len(multipliers) == 2 * -(-n // chunk)
        assert all(shape[0] == T and shape[1] <= chunk for shape in multipliers)


class TestSvdOffResidualPath:
    """No residual reaches an SVD: only the uncertified slices and ||A|| do."""

    def test_svd_slices_at_most_uncertified(self, monkeypatch):
        svd, kernel = np.linalg.svd, operators._cholesky_certifies
        calls, uncertified = [], []

        def counting_svd(a, *args, **kwargs):
            frames, f = [], sys._getframe(1)
            while f is not None:
                frames.append(f.f_code.co_name)
                f = f.f_back
            calls.append((int(np.prod(np.shape(a)[:-2])), frames))
            return svd(a, *args, **kwargs)

        def counted(M):
            mask = kernel(M)
            uncertified.append(int(np.count_nonzero(~mask)))
            return mask

        params = random_params(np.random.default_rng(4), 4)
        pair = pair_from_params(params)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # the one Cholesky kernel, as contractivity (largest_norm) and nonsingularity (_require_nonsingular) call it
        monkeypatch.setattr(operators, "_cholesky_certifies", counted)
        verify_factorization(params, grid=default_grid())
        master_residuals(pair, grid=default_grid())
        recover_params(pair, grid=default_grid())

        a_norm = [frames for n, frames in calls if frames[:2] == ["operator_norm", "verify_factorization"]]
        assert len(a_norm) == 1  # ||A||, which sets the exponent-norm budget
        for n, frames in calls:
            assert "_require_nonsingular" in frames or "largest_norm" in frames or frames in a_norm, frames
        assert sum(n for n, _ in calls) <= sum(uncertified) + 1

    def test_no_contractivity_svd_and_one_pass_per_stack(self, monkeypatch):
        svd, certify = np.linalg.svd, operators._cholesky_certifies
        contractivity_svds, certified, psi_stacks = [], [], {}

        def counting_svd(a, *args, **kwargs):
            f = sys._getframe(1)
            while f is not None and f.f_code.co_name != "largest_norm":
                f = f.f_back
            if f is not None:
                contractivity_svds.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        def recorded(psi):
            return OperatorFunction(psi.dim, lambda z: psi_stacks[psi.name].append(z.size) or psi(z.ravel()), psi.name)

        params, grid = random_params(np.random.default_rng(4), 4), default_grid()
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(operators, "_cholesky_certifies", lambda M: certified.append(len(M)) or certify(M))
        verify_factorization(params, grid=grid)
        n, slices = len(grid.points()), 448 // (2 * len(DEFAULT_T_LIST) - 1)
        # one certificate per factor and chunk, on its len(t_list) x chunk slices
        assert contractivity_svds == []
        assert len(certified) == 2 * -(-n // slices) and max(certified) <= len(DEFAULT_T_LIST) * slices
        # psi on contiguous stacks of at most 448 points: 2 per factor on the default grid
        pair = pair_from_params(params)
        pair = FactorPair(psi1=recorded(pair.psi1), psi2=recorded(pair.psi2))
        psi_stacks.update(psi1=[], psi2=[])
        master_residuals(pair, grid=grid)
        assert psi_stacks == {"psi1": [448, n - 448], "psi2": [448, n - 448]}
        psi_stacks.update(psi1=[], psi2=[])
        recover_params(pair, grid=grid)
        assert psi_stacks == {"psi1": [1, 448, n - 448], "psi2": []}  # psi1(0) first, which fixes h_1(0)
