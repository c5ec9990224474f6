import importlib.util
from pathlib import Path

import numpy as np
import pytest

from holo_lab import rigidity
from holo_lab.disc import DiscGrid, DomainError, default_grid, mobius_phi
from holo_lab.factorization import pair_from_params, random_params
from holo_lab.herglotz import atom_model, sample_boundary
from holo_lab.operators import largest_norm, operator_norm, re_part, spectrum_ends
from holo_lab.rigidity import (
    BUILTIN_FUNCTIONS,
    CONSTANT_CONFIRMED,
    HYPOTHESIS_VIOLATED,
    INCONCLUSIVE,
    OperatorFunction,
    constant_function,
    resolve_function,
    rigidity_verdict,
)
from oracles import (
    DEGENERATE,
    FLOORS,
    NONCONSTANT_FAMILY,
    L_transform,
    convexity_diagnostic,
    eigvalsh_within,
    g_transform,
    h_split,
    re_h1_identity_check,
    recover_F,
    svd_largest_norm,
)

GRID = default_grid()

# perfbench/jobs.py, which generates the benchmark's job lists
_spec = importlib.util.spec_from_file_location("bench_jobs", Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py")
bench_jobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_jobs)


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
        np.testing.assert_allclose(resolve_function("const:0.3,0.7")(0), [[0.3 + 0.7j]])

    def test_re_plus_half_violated(self):
        # g = 1/2 + |z|^2/2 + conj(z)/2 + z + z^2/2, and the outer circle R predicts 1/2 + R^2/2 + z + z^2/2
        report = rigidity_verdict(resolve_function("re-plus-half"), GRID)
        assert report.verdict == HYPOTHESIS_VIOLATED
        R = GRID.radii[-1]
        expected = max(abs((abs(z) ** 2 - R**2) / 2 + z.conjugate() / 2) for z in [*GRID.points(), 0j])
        assert report.holo_residual == pytest.approx(expected, abs=1e-12)

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



class TestHolomorphyWitnesses:
    """The holomorphy test of rigidity_verdict fails on what is not holomorphic, whatever the grid."""

    GRIDS = {"default": GRID, "one-circle": DiscGrid((0.9,), 64), "eight-angles": DiscGrid((0.9,), 8)}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS))
    def test_builtin_negatives_violated(self, name, grid):
        assert rigidity_verdict(BUILTIN_FUNCTIONS[name], self.GRIDS[grid]).verdict == HYPOTHESIS_VIOLATED

    def test_negative_frequency_defect_caught(self):
        # F = 1/2 + eps conj(z): g = 1/2 + z/2 + eps z^2 + eps conj(z), whose defect is largest on the outer circle
        eps = 1e-5
        report = rigidity_verdict(OperatorFunction(1, lambda z: 0.5 + eps * np.conj(z), "conj-defect"), GRID)
        assert report.strip_ok and report.verdict == HYPOTHESIS_VIOLATED
        assert report.holo_residual >= eps * GRID.radii[-1] * (1 - 1e-9)

    def test_radial_defect_caught_on_one_circle(self):
        # F = 1/2 + eps |z|^2: g = (1/2 + eps |z|^2)(1 + z) looks holomorphic on the one circle; z = 0 shows it
        eps, grid = 1e-5, DiscGrid((0.9,), 64)
        report = rigidity_verdict(OperatorFunction(1, lambda z: 0.5 + eps * (z * np.conj(z)).real, "radial"), grid)
        assert report.strip_ok and report.verdict == HYPOTHESIS_VIOLATED
        assert report.holo_residual >= eps * 0.81 * (1 - 1e-9)
        assert report.holo_residual == report.holo_residuals[-1]

    def test_inconclusive_is_reachable(self):
        # F = 1/2 + 1e-7 z: its g has the radial term 1e-7 |z|^2, below eps_holo, and F moves by 9.5e-8 > eps_const
        report = rigidity_verdict(OperatorFunction(1, lambda z: 0.5 + 1e-7 * z, "small-slope"), GRID)
        assert report.strip_ok and report.holo_residual <= 1e-6 and report.constancy_deviation > 1e-8
        assert report.verdict == INCONCLUSIVE

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
    """Every OperatorFunction the library builds, by name, and the test oracles' h_1 and h_2."""
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
    fns["atom-model"] = atom_model(p.A, p.B)
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
    ZS = DiscGrid((0.1, 0.5, 0.95), 16).points()

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
        "check, most",
        [
            (lambda F, grid, N: rigidity_verdict(F, grid), 1),
            (lambda F, grid, N: re_h1_identity_check(F, grid), 3),
            (lambda F, grid, N: convexity_diagnostic(F, grid), 3),
            (lambda F, grid, N: sample_boundary(F, 0.9, N), 3),
        ],
        ids=["rigidity_verdict", "re_h1_identity_check", "convexity_diagnostic", "sample_boundary"],
    )
    def test_calls_independent_of_grid_size(self, check, most):
        # a per-point evaluation loop would make the count grow with the grid or N
        counts = []
        for grid, N in ((DiscGrid((0.5,), 8), 16), (GRID, 1024)):
            ev = CountingEvaluator()
            check(OperatorFunction(1, ev, "counted"), grid, N)
            counts.append(ev.calls)
        assert counts[0] == counts[1] <= most


STRIP_TOL = rigidity.STRIP_TOL


def slices(calls, name):
    return [n for kernel, n in calls if kernel == name]


def unitaries(rng, n, d):
    return np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))[0]


def with_spectra(U, eigs):
    """The Hermitian stack U diag(eigs) U*, made exactly Hermitian by re_part."""
    return re_part((U * eigs[:, None, :]) @ U.conj().swapaxes(-1, -2))


class TestStripAndConstancyCertificates:
    """operators.spectrum_within decides the strip and operators.largest_norm the constancy maximum, at both of its
    floors, as eigvalsh and the SVD of every slice do."""

    DIMS = [1, 2, 3, 4, 8, 16]

    @pytest.mark.parametrize("d", DIMS)
    def test_random_stacks(self, d, strip_check, norm_check):
        rng = np.random.default_rng(100 + d)
        outcomes = set()
        for spread in (0.05, 0.2, 0.5, 1.0):
            V = 0.5 * np.eye(d) + spread * (rng.standard_normal((64, d, d)) + 1j * rng.standard_normal((64, d, d))) / d
            outcomes.add(strip_check(re_part(V)))
            for floor in FLOORS:
                norm_check(V - V[-1], floor)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_strip_decided_at_its_edges(self, d, edge, strip_check, lapack, verdicts):
        rng = np.random.default_rng(120 + d)
        U = unitaries(rng, 32, d)
        for side in (-1, 1):  # 10^-9 inside the strip, then 10^-9 outside it
            eigs = rng.uniform(0.3, 0.7, size=(32, d))
            if edge == "lower":
                eigs[:, 0] = -STRIP_TOL - side * 1e-9
            else:
                eigs[:, -1] = 1 + STRIP_TOL + side * 1e-9
            assert strip_check(with_spectra(U, eigs)) == (side == -1)
            if side == -1:  # the certificate is tight: every slice is inside, none reaches eigvalsh
                assert lapack == [] and verdicts[0].all() and verdicts[1].all()
            elif d > 1:  # the diagonal does not show it, and no slice is inside
                assert not (verdicts[0] & verdicts[1]).any()
            # a diagonal slice shows an outside eigenvalue on its diagonal: decided without a Cholesky
            strip_check(with_spectra(np.broadcast_to(np.eye(d), U.shape), eigs))
            assert side == -1 or verdicts == []

    @pytest.mark.parametrize("d", [1, 4])
    def test_strip_on_its_edge_is_eigvalsh(self, d, strip_check, lapack):
        for value in (-STRIP_TOL, 1 + STRIP_TOL):  # exactly on the edge: neither certificate decides
            R = np.broadcast_to(value * np.eye(d), (8, d, d)).astype(complex)
            assert strip_check(R)
            assert slices(lapack, "eigvalsh") == [8]

    @pytest.mark.parametrize("d", DIMS)
    def test_constancy_near_ties(self, d, norm_check):
        rng = np.random.default_rng(140 + d)
        U, V = unitaries(rng, 48, d), unitaries(rng, 48, d)
        s = rng.uniform(0.0, 1.0, size=(48, d))
        s[:, 0] = 1.0
        s[1:, 0] -= np.concatenate([[0.0], 10.0 ** -np.arange(1, 17), rng.uniform(0, 1e-9, 30)])  # ties, near-ties
        D = (U * s[:, None, :]) @ V.conj().swapaxes(-1, -2)
        D[-1] = 0
        for floor in FLOORS:  # the floor 1 is a tie too
            assert abs(norm_check(D, floor) - 1.0) < 1e-14

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_extreme_entries(self, d, scale, strip_check, norm_check, verdicts):
        # D*D underflows at 1e-170 and overflows at 1e200; the certificate scales D by a power of 2 first
        rng = np.random.default_rng(160 + d)
        V = scale * (rng.standard_normal((64, d, d)) + 1j * rng.standard_normal((64, d, d)))
        strip_check(re_part(V))
        for floor in FLOORS:
            norm_check(V - V[-1], floor)
            if d > 1 and floor is None:
                assert np.count_nonzero(~verdicts[0]) < 16  # it still certifies
            elif d > 1:  # the floor 1 puts the bound past the float range at 1e-170, certifying every slice, and
                # below the smallest subnormal at 1e200, certifying none
                assert verdicts[0].all() if scale < 1 else not verdicts[0].any()

    @pytest.mark.parametrize("d", [1, 3])
    def test_overflowed_deviation_is_refused(self, d, lapack, verdicts):
        # F(z) - F(0) past the float range, or NaN: operator_norm's ValueError, as from an SVD of every slice,
        # with no RuntimeWarning (the suite's warnings are errors), no Cholesky and no LAPACK call before it
        D = np.zeros((8, d, d), dtype=complex)
        D[3, -1, 0] = 1e308
        for entry in (np.inf, -np.inf, complex(0.0, np.inf), np.nan, complex(np.nan, 1.0)):
            D[2, 0, 0] = entry
            for floor in FLOORS:
                for norm in (svd_largest_norm, largest_norm):
                    with pytest.raises(ValueError, match="finite"):
                        norm(D, floor)
        assert lapack == [] and verdicts == []

    def test_exactly_constant(self, lapack, verdicts):
        params = random_params(np.random.default_rng(170), 4)
        F = constant_function(params.B + 1j * params.A)
        values = F(np.append(GRID.points(), 0))
        expected = (eigvalsh_within(re_part(values), -STRIP_TOL, 1 + STRIP_TOL), svd_largest_norm(values - values[-1], None))
        lapack.clear()
        report = rigidity_verdict(F, GRID)
        assert (report.strip_ok, report.constancy_deviation) == expected == (True, 0.0)
        assert report.verdict == CONSTANT_CONFIRMED
        assert lapack == []
        assert len(verdicts) == 2 and all(v.all() for v in verdicts)  # the strip's two certificates, nothing else

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_lapack_keeps_slice_bits_in_a_sub_stack(self, d):
        # so the open slices get the bits that an SVD or eigvalsh of every slice gives them
        rng = np.random.default_rng(180 + d)
        D = rng.standard_normal((64, d, d)) + 1j * rng.standard_normal((64, d, d))
        picked = rng.random(64) < 0.3
        norms, ends = operator_norm(D), spectrum_ends(re_part(D))
        assert np.array_equal(operator_norm(D[picked]), norms[picked])
        assert all(operator_norm(D[k]) == norms[k] for k in range(0, 64, 7))
        for whole, part in zip(ends, spectrum_ends(re_part(D[picked]))):
            assert np.array_equal(part, whole[picked])


class TestLapackOffRigidity:
    """A rigidity verdict calls no eigvalsh, and an SVD only on the reference and the open constancy slices."""

    def test_constant_and_scalar_functions(self, lapack):
        params = random_params(np.random.default_rng(190), 4)
        functions = [constant_function(params.B + 1j * params.A), constant_function(np.diag([0.0, 1.0, 0.5, 1.0])),
                     *BUILTIN_FUNCTIONS.values(),
                     *(resolve_function(f"const:{c}") for c in
                       ("0.3,0.7", "0,0", "1,-2", "1.5,0", "-0.5,0.25", "1e-300,1e300", "1e300,-1e300"))]
        for F in functions:
            lapack.clear()
            rigidity_verdict(F, GRID)
            assert slices(lapack, "eigvalsh") == [], F.name
            assert slices(lapack, "svd") == [], F.name  # D = 0 at d = 4, and np.hypot at d = 1

    @pytest.mark.parametrize("seed", [0, 7, 77])
    def test_benchmark_polynomials(self, seed, lapack):
        # the library rigidity_verdict jobs of the benchmark: F(z) = C0 + z C1 + z^2 C2 at d = 1, 2, 3, 4
        n = len(GRID.points()) + 1
        for job in bench_jobs.generate("rigidity_herglotz", seed):
            if job["kind"] != "rigidity_verdict":
                continue
            coeffs = [bench_jobs._matrix(re) + 1j * bench_jobs._matrix(im) for re, im in job["coeffs"]]
            F = OperatorFunction(len(coeffs[0]), lambda z: sum(C * z**k for k, C in enumerate(coeffs)), "poly")
            lapack.clear()
            assert rigidity_verdict(F, GRID).verdict == job["expect_verdict"]
            assert slices(lapack, "eigvalsh") == []
            if len(coeffs) == 1:  # a constant: D = 0
                assert lapack == []
            assert sum(slices(lapack, "svd")) <= 0.1 * n
