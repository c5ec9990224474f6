import numpy as np
import pytest

from holo_lab.cli import _herglotz_function
from holo_lab.disc import DiscGrid, DomainError, default_grid, mobius_phi
from holo_lab.factorization import pair_from_params, random_params
from holo_lab.herglotz import sample_boundary
from holo_lab.operators import matrix_to_jsonable
from holo_lab.rigidity import (
    BUILTIN_FUNCTIONS,
    CONSTANT_CONFIRMED,
    DEGENERATE,
    HYPOTHESIS_VIOLATED,
    INCONCLUSIVE,
    NONCONSTANT_FAMILY,
    L_transform,
    OperatorFunction,
    constant_function,
    convexity_diagnostic,
    g_transform,
    h_split,
    re_h1_identity_check,
    recover_F,
    resolve_function,
    rigidity_verdict,
)

GRID = default_grid()


def random_poly_function(rng, dim, degree):
    coeffs = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2
        for _ in range(degree + 1)
    ]

    def ev(z, coeffs=coeffs):
        return sum(C * z**k for k, C in enumerate(coeffs))

    return OperatorFunction(dim, ev, f"poly{degree}")


class TestLTransform:
    def test_values(self):
        assert L_transform(lambda z: 1.0)(0.5) == pytest.approx(1.5)
        assert L_transform(lambda z: 1j)(0.3) == pytest.approx(0.7j)
        # direct arithmetic oracle: z + z*conj(z) at z = 0.2i
        assert L_transform(lambda z: z)(0.2j) == pytest.approx(0.04 + 0.2j)

    def test_real_linear(self):
        rng = np.random.default_rng(0)
        f = lambda z: np.sin(z.real) + 1j * abs(z)
        g = lambda z: z**2 + np.conj(z)
        for _ in range(10):
            a, b = rng.standard_normal(2)
            z = 0.7 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
            combo = L_transform(lambda w: a * f(w) + b * g(w))(z)
            assert combo == pytest.approx(a * L_transform(f)(z) + b * L_transform(g)(z))

    def test_agrees_with_g_transform_scalar(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = lambda z, c=c: c[0] + c[1] * z + c[2] * np.conj(z)
            F = OperatorFunction(1, lambda z, f=f: f(z) * np.ones((1, 1)))
            z = 0.8 * (rng.standard_normal() + 1j * rng.standard_normal()) / 2
            assert abs(g_transform(F)(z)[0, 0] - L_transform(f)(z)) <= 1e-15


class TestGTransformAndRecovery:
    def test_constant_gives_C_plus_zCstar(self):
        C = np.array([[0.3, 1.0 + 1j], [0.0, -0.2j]])
        g = g_transform(constant_function(C))
        for z in (0.0, 0.5, 0.3 - 0.4j):
            np.testing.assert_allclose(g(z), C + z * C.conj().T)

    def test_trivial_constants(self):
        np.testing.assert_allclose(g_transform(constant_function(np.zeros((2, 2))))(0.7), 0)
        np.testing.assert_allclose(g_transform(constant_function(np.eye(2)))(0.5), 1.5 * np.eye(2))

    def test_recover_examples(self):
        C = np.array([[1 + 2j]])
        g = g_transform(constant_function(C))
        np.testing.assert_allclose(recover_F(g, 0.5), C)
        C2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        g2 = g_transform(constant_function(C2))
        np.testing.assert_allclose(recover_F(g2, 0.3 + 0.3j), C2, atol=1e-12)

    def test_recover_domain(self):
        g = g_transform(constant_function(np.eye(1)))
        with pytest.raises(DomainError):
            recover_F(g, 1.0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        zs = GRID.points()[::97]
        for _ in range(10):
            F = random_poly_function(rng, rng.integers(1, 5), rng.integers(0, 4))
            np.testing.assert_allclose(recover_F(g_transform(F), zs), F(zs), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_stack_equals_pointwise(self, d):
        # psi1 evaluates a stack bit for bit as point by point (TestEvaluationContract)
        g = g_transform(LIBRARY_FUNCTIONS[f"psi1-d{d}"])
        zs = GRID.points()
        stack = recover_F(g, zs)
        assert stack.shape == (len(zs), d, d)
        assert np.array_equal(stack, np.stack([recover_F(g, z) for z in zs]))

    def test_one_evaluation_per_stack(self):
        ev = CountingEvaluator()
        recover_F(g_transform(OperatorFunction(1, ev, "counted")), GRID.points())
        assert ev.calls == 1

    def test_stack_domain(self):
        g = g_transform(constant_function(np.eye(2)))
        with pytest.raises(DomainError):
            recover_F(g, np.array([0.5, 0.3j, -1.0]))


class TestHSplit:
    def test_examples(self):
        eye = np.eye(2)
        h1, h2 = h_split(g_transform(constant_function(eye)))
        np.testing.assert_allclose(h1(0.4), mobius_phi(0.4) * eye)
        np.testing.assert_allclose(h2(0.4), 0 * eye, atol=1e-14)

        h1z, h2z = h_split(g_transform(constant_function(0 * eye)))
        np.testing.assert_allclose(h1z(0.4), 0 * eye)
        np.testing.assert_allclose(h2z(0.4), mobius_phi(0.4) * eye)

        h1h, h2h = h_split(g_transform(constant_function(0.5 * eye)))
        np.testing.assert_allclose(h1h(0.3j), h2h(0.3j), atol=1e-14)

    def test_sum_is_phi(self):
        rng = np.random.default_rng(5)
        F = random_poly_function(rng, 3, 2)
        h1, h2 = h_split(g_transform(F))
        for z in GRID.points()[::53]:
            dev = h1(z) + h2(z) - mobius_phi(z) * np.eye(3)
            assert np.max(np.abs(dev)) <= 1e-12


class TestReH1Identity:
    def test_diagonal_constant(self):
        F = constant_function(np.diag([0.3, 0.9]))
        assert re_h1_identity_check(F, GRID) <= 1e-12

    def test_zero_and_identity(self):
        assert re_h1_identity_check(constant_function(np.zeros((2, 2))), GRID) == 0
        assert re_h1_identity_check(constant_function(np.eye(2)), GRID) <= 1e-12

    def test_nonconstant(self):
        # the identity is algebraic, so it holds for non-constant F too
        rng = np.random.default_rng(8)
        assert re_h1_identity_check(random_poly_function(rng, 2, 2), GRID) <= 1e-11


class TestConvexityDiagnostic:
    def test_half(self):
        res = convexity_diagnostic(resolve_function("const:0.5,0"), GRID)
        assert res.status == "OK" and res.deviation <= 1e-10

    def test_boundary_degenerate(self):
        assert convexity_diagnostic(resolve_function("const:1,0"), GRID).status == DEGENERATE
        assert convexity_diagnostic(resolve_function("const:0,0"), GRID).status == DEGENERATE

    def test_off_center_constant(self):
        # symbolic oracle: h1 = 0.25 phi + 0.1i, so f1 = phi exactly
        res = convexity_diagnostic(resolve_function("const:0.25,0.1"), GRID)
        assert res.status == "OK" and res.deviation <= 1e-10

    def test_imaginary_shift_invariance(self):
        base = convexity_diagnostic(resolve_function("const:0.3,0.2"), GRID)
        for c in (-0.7, 0.4, 1.3):
            shifted = convexity_diagnostic(resolve_function(f"const:0.3,{0.2 + c}"), GRID)
            assert abs(shifted.deviation - base.deviation) <= 1e-10

    def test_scalar_only(self):
        with pytest.raises(ValueError, match="scalar"):
            convexity_diagnostic(constant_function(np.eye(2) / 2), GRID)


class TestRigidityVerdict:
    def test_constant_confirmed(self):
        report = rigidity_verdict(resolve_function("const:0.3,0.7"), GRID)
        assert report.verdict == CONSTANT_CONFIRMED
        assert report.constancy_deviation == 0
        np.testing.assert_allclose(report.recovered_constant, [[0.3 + 0.7j]])

    def test_re_plus_half_violated(self):
        # Wirtinger oracle: dbar(LF)(z) = (1 + z)/2
        report = rigidity_verdict(resolve_function("re-plus-half"), GRID)
        assert report.verdict == HYPOTHESIS_VIOLATED
        expected = max(abs(1 + z) / 2 for z in GRID.points())
        assert report.holo_residual == pytest.approx(expected, abs=1e-6)

    def test_boundary_contraction_accepted(self):
        report = rigidity_verdict(constant_function(np.diag([0.0, 1.0])), GRID)
        assert report.strip_ok
        assert report.verdict == CONSTANT_CONFIRMED

    def test_nonconstant_family_all_violated(self):
        for name in NONCONSTANT_FAMILY:
            report = rigidity_verdict(BUILTIN_FUNCTIONS[name], GRID)
            assert report.verdict == HYPOTHESIS_VIOLATED, name
            assert report.verdict != INCONCLUSIVE

    def test_strip_violation(self):
        report = rigidity_verdict(resolve_function("const:1.5,0"), GRID)
        assert not report.strip_ok
        assert report.verdict == HYPOTHESIS_VIOLATED


class TestRegistry:
    def test_const_parsing(self):
        F = resolve_function("const:0.25,-0.5")
        assert F(0.3)[0, 0] == 0.25 - 0.5j

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown function"):
            resolve_function("nope")
        with pytest.raises(ValueError):
            resolve_function("const:1")


def library_functions():
    """Every OperatorFunction the library builds, by name."""
    rng = np.random.default_rng(12)
    fns = dict(BUILTIN_FUNCTIONS)
    fns["const"] = constant_function(np.array([[0.3 + 0.1j, 1.0], [0.0, 0.7]]))
    F = random_poly_function(rng, 2, 2)
    fns["g"] = g_transform(F)
    fns["h1"], fns["h2"] = h_split(g_transform(F))
    for d in (1, 3, 8):
        pair = pair_from_params(random_params(rng, d))
        fns[f"psi1-d{d}"], fns[f"psi2-d{d}"] = pair.psi1, pair.psi2
    p = random_params(rng, 3)
    fns["atom-model"] = _herglotz_function(
        {"params": {"A": matrix_to_jsonable(p.A), "B": matrix_to_jsonable(p.B)}}
    )
    return fns


LIBRARY_FUNCTIONS = library_functions()


class CountingEvaluator:
    """F(z) = 0.5 + 0.1 z, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return 0.5 + 0.1 * z


class TestEvaluationContract:
    ZS = default_grid(radii=(0.1, 0.5, 0.95), n_angles=16).points()

    @pytest.mark.parametrize("name", sorted(LIBRARY_FUNCTIONS))
    def test_stack_equals_pointwise(self, name):
        F = LIBRARY_FUNCTIONS[name]
        stack = F(self.ZS)
        assert stack.shape == (len(self.ZS), F.dim, F.dim)
        assert np.array_equal(stack, np.stack([F(z) for z in self.ZS]))
        assert np.array_equal(F(self.ZS[:, None, None]), stack)

    def test_user_polynomial_broadcasts(self):
        rng = np.random.default_rng(13)
        coeffs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        F = OperatorFunction(3, lambda z: coeffs[0] + z * coeffs[1] + z**2 * coeffs[2], "poly")
        expected = np.stack([sum(C * complex(z) ** k for k, C in enumerate(coeffs)) for z in self.ZS])
        np.testing.assert_allclose(F(self.ZS), expected, rtol=1e-14, atol=1e-14)
        assert F(0.5).shape == (3, 3)

    def test_output_validated(self):
        with pytest.raises(ValueError, match="returned shape"):
            OperatorFunction(2, lambda z: z)(self.ZS)  # a scalar per point for d = 2
        with pytest.raises(ValueError, match="returned shape"):
            OperatorFunction(1, lambda z: np.zeros((3, 1, 1)))(self.ZS)
        with pytest.raises(ValueError, match="finite"):
            OperatorFunction(1, lambda z: np.where(z == self.ZS[5], np.inf, 0.5))(self.ZS)

    @pytest.mark.parametrize(
        "check",
        [
            lambda F, grid, N: rigidity_verdict(F, grid),
            lambda F, grid, N: re_h1_identity_check(F, grid),
            lambda F, grid, N: convexity_diagnostic(F, grid),
            lambda F, grid, N: sample_boundary(F, 0.9, N),
        ],
        ids=["rigidity_verdict", "re_h1_identity_check", "convexity_diagnostic", "sample_boundary"],
    )
    def test_calls_independent_of_grid_size(self, check):
        # a per-point evaluation loop would make the count grow with the grid or N
        counts = []
        for grid, N in ((default_grid(radii=(0.5,), n_angles=8), 16), (GRID, 1024)):
            ev = CountingEvaluator()
            check(OperatorFunction(1, ev, "counted"), grid, N)
            counts.append(ev.calls)
        assert counts[0] == counts[1] <= 3
