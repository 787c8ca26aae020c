import numpy as np
import pytest

from frozenplanet import detline
from frozenplanet.errors import DomainError, KernelTrackingError


class TestCutoff:
    def test_identity_below_a(self):
        rho = detline.CutoffRho(0.5, 1.0)
        for lam in (-3.0, -0.1, 0.2, 0.5):
            assert rho(lam) == lam

    def test_one_above_b(self):
        rho = detline.CutoffRho(0.5, 1.0)
        for lam in (1.0, 2.0, 100.0):
            assert rho(lam) == 1.0

    def test_monotone_and_bounded(self):
        rho = detline.CutoffRho(0.5, 1.0)
        lam = np.linspace(-2.0, 3.0, 500)
        vals = rho(lam)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals <= 1.0 + 1e-15)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            detline.CutoffRho(1.0, 0.5)


class TestMu:
    def test_all_large(self):
        assert detline.mu([2.0, 3.0, 5.0], detline.CutoffRho(0.5, 1.0)) == 1.0

    def test_mixed_product(self):
        val = detline.mu([-0.1, 0.2, 5.0], detline.CutoffRho(0.5, 1.0))
        assert abs(val - (-0.02)) < 1e-15

    def test_zero_excluded(self):
        rho = detline.CutoffRho(1.0, 2.0)
        assert abs(detline.mu([0.0, 1.5], rho) - rho(1.5)) < 1e-15

    def test_multiplicity(self):
        rho = detline.CutoffRho(0.5, 1.0)
        assert abs(detline.mu([0.2, 0.2, 3.0], rho) - 0.04) < 1e-15

    def test_hand_computed_products(self):
        rng = np.random.default_rng(9)
        rho = detline.CutoffRho(0.5, 1.0)
        for _ in range(20):
            spec = rng.uniform(-2.0, 3.0, size=rng.integers(2, 9))
            want = np.prod([lam if lam < 0.5 else rho(lam) for lam in spec])
            assert abs(detline.mu(spec, rho) - want) < 1e-12 * max(1, abs(want))

    def test_continuity_away_from_zero(self):
        rho = detline.CutoffRho(0.5, 1.0)
        eps = np.linspace(0.05, 0.3, 400)
        vals = [detline.mu([e, 1.0, 2.0], rho) for e in eps]
        assert np.max(np.abs(np.diff(vals))) < 2e-3


class TestKernelRule:
    def test_relative_to_the_largest_magnitude(self):
        values = np.array([0.5e-12, -2e-12, 1.0, -3.0])
        assert list(detline.in_kernel(values)) == [True, True, False, False]
        assert list(detline.in_kernel(1e-30 * values)) == [True, True, False, False]

    def test_zero_spectrum_is_all_kernel(self):
        assert list(detline.in_kernel(np.zeros(3))) == [True] * 3
        assert detline.mu(np.zeros(3)) == 1.0

    def test_mu_excludes_the_kernel(self):
        rho = detline.CutoffRho(0.5, 1.0)
        assert detline.mu([1e-13, 0.2, 5.0], rho) == detline.mu([0.2, 5.0], rho)
        assert detline.mu([1e-11, 0.2, 5.0], rho) == 1e-11 * 0.2


class TestSections:
    def test_identity_matrix(self):
        out = detline.sections(np.eye(5))
        assert out["s_sign"] == 1 and out["i"] == 0 and out["relation_ok"]

    def test_one_negative(self):
        out = detline.sections(np.diag([-1.0, 2.0, 3.0]))
        assert out["i"] == 1 and out["s_sign"] == -1 and out["relation_ok"]

    def test_sign_relation_on_random_matrices(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            t = 0.5 * (a + a.T) + np.diag(rng.uniform(0.2, 1.0, 6))
            out = detline.sections(t)
            if out["invertible"]:
                assert out["relation_ok"]

    def test_singular_returns_kernel(self):
        out = detline.sections(np.diag([0.0, 1.0, 2.0]))
        assert not out["invertible"]
        assert out["kernel"].shape[1] == 1

    def test_different_cutoffs_same_sign(self):
        rng = np.random.default_rng(12)
        r1 = detline.CutoffRho(0.5, 1.0)
        r2 = detline.CutoffRho(0.2, 2.5)
        for _ in range(25):
            a = rng.normal(size=(5, 5))
            t = 0.5 * (a + a.T) + 0.3 * np.eye(5)
            m1, m2 = detline.mu(np.linalg.eigvalsh(t), r1), detline.mu(
                np.linalg.eigvalsh(t), r2
            )
            assert m1 * m2 > 0

    def test_section_continuous_through_crossing(self):
        eps = np.arange(-0.01, 0.0101, 1e-4)
        mats = [np.diag([e, 1.0, 1.0, 1.0]) for e in eps]
        phi = np.array([1.0, 0.0, 0.0, 0.0])
        svals = detline.section_through_crossing(mats, phi)
        jumps = np.linalg.norm(np.diff(svals, axis=0), axis=1)
        assert float(np.max(jumps)) < 1e-3

    def test_kernel_plane_is_refused(self):
        # [T | e_1] with T = diag(0, 1, 1) has the kernel plane of e_0 and
        # e_1 - e_zeta: its least singular value is 0, the one above it 1
        with pytest.raises(KernelTrackingError):
            detline.section_through_crossing([np.diag([0.0, 1.0, 1.0])], [0.0, 1.0, 0.0])


class TestRotationPath:
    def test_endpoint_identity(self):
        u = detline.bernd_unitary(2.0, 8)
        assert np.max(np.abs(u - np.eye(17))) < 1e-14

    def test_shift_on_interior_modes(self):
        n = 8
        u = detline.bernd_unitary(1.0, n)
        for mode in range(-n + 1, n + 1):
            col = u[:, detline._mode_index(mode, n)]
            want = np.zeros(2 * n + 1)
            want[detline._mode_index(mode - 1, n)] = 1.0
            assert np.max(np.abs(col - want)) < 1e-14

    @pytest.mark.parametrize("tau", [1.1, 1.3, 1.5, 1.7, 1.9])
    def test_orthogonality(self, tau):
        u = detline.bernd_unitary(tau, 8)
        assert np.max(np.abs(u.T @ u - np.eye(17))) < 1e-12

    @pytest.mark.parametrize("tau", [1.1, 1.25, 1.5, 1.75, 1.9])
    def test_preimage_of_e0_nonnegative_span(self, tau):
        # the preimage stays in the nonnegative span of e_0, e_1 (with the
        # e_0 coefficient vanishing on the first stage), which keeps the
        # stabilizer transverse throughout
        n = 8
        u = detline.bernd_unitary(tau, n)
        pre = u.T @ np.eye(17)[:, detline._mode_index(0, n)]
        c0 = pre[detline._mode_index(0, n)]
        c1 = pre[detline._mode_index(1, n)]
        rest = np.linalg.norm(pre) ** 2 - c0**2 - c1**2
        assert abs(rest) < 1e-13
        assert c0 >= -1e-13 and c1 >= -1e-13
        assert c0 + c1 > 0.5  # transversality against G = a e_0 + b e_1

    def test_strict_positivity_on_second_stage(self):
        u = detline.bernd_unitary(1.75, 8)
        pre = u.T @ np.eye(17)[:, detline._mode_index(0, 8)]
        assert pre[detline._mode_index(0, 8)] > 0.1
        assert pre[detline._mode_index(1, 8)] > 0.1


class TestCounterexampleLoop:
    def test_eigenvalue_formula_first_half(self):
        fam = detline.OperatorFamily(n_modes=8)
        for tau in (0.0, 0.3, 0.75, 1.0):
            evals = np.sort(np.linalg.eigvalsh(fam.matrix(tau)))
            want = np.sort(np.pi * (np.arange(-8, 9) - tau))
            assert np.max(np.abs(evals - want)) < 1e-10

    def test_matrices_symmetric(self):
        fam = detline.OperatorFamily(n_modes=8)
        for tau in (0.4, 1.2, 1.8):
            t = fam.matrix(tau)
            assert np.max(np.abs(t - t.T)) < 1e-12

    def test_holonomy_sign(self):
        fam = detline.OperatorFamily(n_modes=8)
        out = detline.holonomy(fam, n_steps=400)
        assert out["sign"] == -1
        assert out["min_alignment"] > 0.999

    @pytest.mark.parametrize("steps", [200, 400, 800])
    def test_holonomy_stable_in_steps(self, steps):
        fam = detline.OperatorFamily(n_modes=8)
        assert detline.holonomy(fam, n_steps=steps)["sign"] == -1

    def test_coarse_track_refines(self):
        # 8 steps lose the kernel line; doubled three times they follow it
        out = detline.holonomy(detline.OperatorFamily(n_modes=8), n_steps=8)
        assert len(out["taus"]) == 65
        assert out["sign"] == -1
        assert out["min_alignment"] > 0.999

    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_fewer_than_two_steps_rejected(self, steps):
        # one step ends on the start line, so the track cannot fail and
        # would report sign +1
        with pytest.raises(DomainError) as err:
            detline.holonomy(detline.OperatorFamily(n_modes=8), n_steps=steps)
        assert err.value.tag == "detline.steps"

    @pytest.mark.parametrize(
        "a,b", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, np.nan), (0.0, 0.0)]
    )
    def test_bad_stabilizer_rejected(self, a, b):
        with pytest.raises(DomainError) as err:
            detline.OperatorFamily(n_modes=8, a=a, b=b)
        assert err.value.tag == "detline.stabilizer"

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 0.5)])
    def test_one_zero_weight_admitted(self, a, b):
        fam = detline.OperatorFamily(n_modes=4, a=a, b=b)
        assert np.count_nonzero(fam.stabilizer()) == np.count_nonzero([a, b])

    def test_closed_form_section_midpoint(self):
        fam = detline.OperatorFamily(n_modes=8, a=1.0, b=1.0)
        f, zeta = detline.closed_form_section(0.5, fam)
        assert abs(f[detline._mode_index(0, 8)] + 0.5) < 1e-14
        assert abs(f[detline._mode_index(1, 8)] - 0.5) < 1e-14
        assert abs(zeta + 0.25 * np.pi) < 1e-14

    def test_unequal_stabilizer_weights(self):
        fam = detline.OperatorFamily(n_modes=8, a=0.7, b=1.4)
        out = detline.holonomy(fam, n_steps=400)
        assert out["sign"] == -1
        assert out["min_alignment"] > 0.999
