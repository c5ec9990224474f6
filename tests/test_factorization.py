import numpy as np
import pytest

from holo_lab.disc import DiscGrid, DomainError, default_grid, mobius_phi, varphi_t
from holo_lab.factorization import (
    EXP_NORM_BUDGET,
    FactorPair,
    FactorParams,
    build_h1,
    master_residuals,
    pair_from_params,
    phi_jt,
    random_params,
    recover_params,
    verify_factorization,
)
from holo_lab.operators import inverse_cayley, numerical_abscissa, operator_norm
from holo_lab.rigidity import OperatorFunction

# expm-heavy sweeps use a thinned grid; identities are z-pointwise so
# coverage in z, not density, is what matters
FAST_GRID = DiscGrid(radii=(0.3, 0.6, 0.9, 0.95), n_angles=16, stencil_h=1e-4)


def scalar_params(a, b):
    return FactorParams(A=np.array([[a]], dtype=complex), B=np.array([[b]], dtype=complex))


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

    def test_boundary_B_allowed(self):
        scalar_params(1.0, 0.0)
        scalar_params(1.0, 1.0)
        FactorParams(A=np.zeros((2, 2)), B=np.diag([0.0, 1.0]))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 3)
        q = FactorParams.from_jsonable(p.to_jsonable())
        np.testing.assert_array_equal(p.A, q.A)
        np.testing.assert_array_equal(p.B, q.B)

    def test_json_rejects_extra_fields(self):
        data = scalar_params(0.0, 0.5).to_jsonable()
        data["extra"] = 1
        with pytest.raises(ValueError, match="exactly the fields"):
            FactorParams.from_jsonable(data)


class TestBuildH1:
    def test_examples(self):
        eye = np.eye(2)
        p = FactorParams(A=0 * eye, B=eye)
        np.testing.assert_allclose(build_h1(p, 0.5), 3 * eye)

        p2 = FactorParams(A=1.5 * eye, B=0 * eye)
        for z in (0.0, 0.3j, -0.5):
            np.testing.assert_allclose(build_h1(p2, z), -1.5j * eye)

        p3 = FactorParams(A=np.diag([1.0, -1.0]), B=0.5 * eye)
        np.testing.assert_allclose(build_h1(p3, 0), 0.5 * eye - 1j * np.diag([1.0, -1.0]))

    def test_domain(self):
        with pytest.raises(DomainError):
            build_h1(scalar_params(0.0, 0.5), 1.0)


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

    def test_array_of_z_equals_pointwise(self):
        rng = np.random.default_rng(8)
        zs = FAST_GRID.points()
        for d in (1, 3):
            p = random_params(rng, d)
            np.testing.assert_array_equal(build_h1(p, zs), np.stack([build_h1(p, z) for z in zs]))
            for j in (1, 2):
                stacked = phi_jt(p, j, 0.75, zs)
                assert np.array_equal(stacked, np.stack([phi_jt(p, j, 0.75, z) for z in zs]))

    def test_array_domain(self):
        with pytest.raises(DomainError):
            phi_jt(scalar_params(0.0, 0.5), 1, 1.0, np.array([0.5, 1.0]))


class TestVerifyFactorization:
    def test_scalar_full_mass(self):
        rep = verify_factorization(scalar_params(0.0, 1.0), t_list=(0.5, 1.0), grid=FAST_GRID)
        assert rep.worst() <= 1e-12

    def test_commuting_diagonal(self):
        # oracle: [iA - phi B, -iA - phi(I-B)] = 0 by direct expansion
        p = FactorParams(A=np.diag([1.0, -1.0]), B=np.diag([1.0, 0.0]))
        rep = verify_factorization(p, t_list=(1.0,), grid=FAST_GRID)
        assert rep.worst() <= 1e-9

    def test_random(self):
        rng = np.random.default_rng(2)
        rep = verify_factorization(random_params(rng, 3), grid=FAST_GRID)
        assert rep.passed(1e-8)
        # the budget may skip the far corner (t=2 near z=0.95) for large ||A||:
        # at most 20 of the 4 * 64 (t, z) points
        assert rep.n_checked >= 236

    def test_degenerate_edges(self):
        for b in (0.0, 1.0):
            rep = verify_factorization(scalar_params(0.7, b), t_list=(0.5, 1.0), grid=FAST_GRID)
            assert rep.worst() <= 1e-12

    def test_budget_skipping(self):
        rep = verify_factorization(scalar_params(0.0, 1.0), t_list=(50.0,), grid=FAST_GRID)
        assert rep.n_skipped > 0

    def test_budget_counts(self):
        # oracle: the counts straight from the definition, point by point
        rng = np.random.default_rng(10)
        p = random_params(rng, 2)
        t_list = (0.5, 1.0, 1.0, 2.0, 2.5)
        a_norm = operator_norm(p.A)

        def ok(t, z):
            return t * (a_norm + abs(mobius_phi(z))) <= EXP_NORM_BUDGET

        checked = skipped = 0
        for z in FAST_GRID.points():
            checked += sum(ok(t, z) for t in t_list)
            skipped += sum(not ok(t, z) for t in t_list)
            skipped += sum(
                not (ok(t, z) and ok(s, z) and ok(t + s, z)) for t, s in zip(t_list, t_list[1:])
            )
        rep = verify_factorization(p, t_list=t_list, grid=FAST_GRID)
        assert 0 < rep.n_skipped and 0 < rep.n_checked < len(t_list) * len(FAST_GRID.points())
        assert (rep.n_checked, rep.n_skipped) == (checked, skipped)
        assert rep.passed(1e-8)

    def test_nothing_checked_does_not_pass(self):
        rep = verify_factorization(scalar_params(0.0, 0.5), t_list=(5000.0,), grid=FAST_GRID)
        assert rep.n_checked == 0
        assert rep.worst() == 0.0
        assert not rep.passed(1e-8)

    def test_semigroup_points_counted(self):
        # oracle: the (t, s, z) points with t, s and t + s inside the budget, from the definition
        rng = np.random.default_rng(10)
        p = random_params(rng, 2)
        t_list = (0.5, 1.0, 1.0, 2.0, 2.5)
        a_norm = operator_norm(p.A)

        def ok(t, z):
            return t * (a_norm + abs(mobius_phi(z))) <= EXP_NORM_BUDGET

        expected = sum(
            ok(t, z) and ok(s, z) and ok(t + s, z)
            for z in FAST_GRID.points()
            for t, s in zip(t_list, t_list[1:])
        )
        rep = verify_factorization(p, t_list=t_list, grid=FAST_GRID)
        assert 0 < expected < (len(t_list) - 1) * len(FAST_GRID.points())
        assert rep.n_semigroup == expected

    @pytest.mark.parametrize("t_list", [(0.0, 1.0), (-1.0, 1.0), (float("nan"),), (1.0, float("inf"))])
    def test_t_must_be_positive_and_finite(self, t_list):
        # at t = 0 both factors are I and every check compares nothing
        with pytest.raises(ValueError, match="t_list"):
            verify_factorization(scalar_params(0.0, 0.5), t_list=t_list, grid=FAST_GRID)

    def test_no_semigroup_point_does_not_pass(self):
        # one t gives no (t, s) pair: the other three axioms are checked, the semigroup law is not
        rep = verify_factorization(scalar_params(0.0, 0.5), t_list=(1.0,), grid=FAST_GRID)
        assert rep.n_checked > 0 and rep.n_semigroup == 0
        assert rep.worst() <= 1e-12
        assert not rep.passed(1e-8)

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
        expected = [
            operator_norm(inverse_cayley(pair.psi1(z)) + inverse_cayley(pair.psi2(z)) - mobius_phi(z) * eye)
            for z in FAST_GRID.points()
        ]
        assert np.array_equal(residuals, expected)

    def test_non_factorizing_pair(self):
        zero = OperatorFunction(1, lambda z: np.array([[0.0]]), "0")
        pair = FactorPair(psi1=zero, psi2=zero)
        residual = master_residuals(pair, grid=DiscGrid((0.5,), 8, 1e-4)).max()
        assert residual >= 1 - 1e-12  # |2 - phi(0.5)| = 1 at z = 0.5


class TestRecoverParams:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 4):
            p = random_params(rng, dim)
            rec, residual = recover_params(pair_from_params(p), grid=FAST_GRID)
            assert np.max(np.abs(rec.A - p.A)) <= 1e-10
            assert np.max(np.abs(rec.B - p.B)) <= 1e-10
            assert residual <= 1e-9

    def test_shift_pair(self):
        pair = pair_from_params(FactorParams(A=np.zeros((2, 2)), B=np.eye(2)))
        rec, _ = recover_params(pair, grid=FAST_GRID)
        np.testing.assert_allclose(rec.A, 0, atol=1e-12)
        np.testing.assert_allclose(rec.B, np.eye(2), atol=1e-12)

    def test_constant_minus_identity_pair(self):
        pair = pair_from_params(FactorParams(A=np.zeros((2, 2)), B=np.zeros((2, 2))))
        rec, _ = recover_params(pair, grid=FAST_GRID)
        np.testing.assert_allclose(rec.A, 0, atol=1e-12)
        np.testing.assert_allclose(rec.B, 0, atol=1e-12)
