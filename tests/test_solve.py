import numpy as np
import pytest

from frozenplanet import helium, loops, solve
from frozenplanet.errors import (
    ContinuationStuckError,
    DegeneratePointError,
    DomainError,
    SingularHessianError,
)


class TestFreeFallSeed:
    def test_shape_ratio(self, seed64):
        assert abs(seed64.v - 0.5) < 1e-12

    def test_gradient_residual(self, seed64):
        assert seed64.grad_res < 1e-12

    def test_symmetric_space_morse_data(self, seed64):
        rep = solve.spectrum(seed64)
        assert rep.morse_index == 0
        assert rep.nullity == 0

    def test_full_space_kernel_along_shift(self, seed64):
        rep = solve.spectrum(seed64, space="full")
        assert rep.nullity == 1
        assert rep.kernel_alignment > 0.999
        assert rep.morse_index == 1


class TestNewton:
    def test_converges_from_perturbed_seed(self, seed64):
        obj = solve.FrozenObjective(0.0, 64)
        x0 = obj.pack(seed64.z)
        rng = np.random.default_rng(1)
        xp = x0 + 1e-2 * rng.normal(size=64) / np.sqrt(np.arange(1, 65))
        rep = solve.newton(obj, xp)
        assert rep.iterations <= 6
        assert float(np.linalg.norm(rep.x - x0)) < 1e-9

    def test_direct_solve_at_rho(self):
        obj = solve.FrozenObjective(helium.RHO, 64)
        x0 = obj.pack(solve.free_fall_seed(64).z)
        rep = solve.newton(obj, x0)
        assert rep.residuals[-1] < 1e-10

    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, r):
        with pytest.raises(DomainError) as exc:
            solve.FrozenObjective(r, 8)
        assert exc.value.tag == "frozen.r"
        with pytest.raises(DomainError) as exc:
            solve.solve_frozen(r, n_modes=8)
        assert exc.value.tag == "solve.range"

    def test_zero_seed_rejected(self):
        obj = solve.FrozenObjective(0.0, 8)
        with pytest.raises(DomainError):
            solve.newton(obj, np.zeros(8))

    def test_quadratic_convergence_ratios(self, seed64):
        obj = solve.FrozenObjective(1.0, 32)
        x0 = obj.pack(loops.from_coeffs(loops.ODD_SINE, seed64.z.coeffs[:32]))
        rep = solve.newton(obj, x0)
        tail = [r for r in rep.quadratic_ratios[-3:] if np.isfinite(r)]
        assert tail and max(tail) < 1e4


class QuadraticObjective:
    """g(x) = A x - 1, with ``hessian`` returning H (A unless given)."""

    def __init__(self, a, h=None):
        self.a = np.asarray(a, dtype=float)
        self.h = self.a if h is None else np.asarray(h, dtype=float)
        self.hessian_calls = 0

    def admissible(self, x):
        return True

    def gradient(self, x):
        return self.a @ x - 1.0

    def hessian(self, x):
        self.hessian_calls += 1
        return self.h


class TestSingularHessian:
    @pytest.mark.parametrize(
        "h",
        [
            np.diag([1.0, 0.0]),
            np.zeros((2, 2)),
            np.diag([1.0, 1e-13]),
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            np.diag([np.inf, 1.0]),
        ],
        ids=["singular", "zero", "cond-1e13", "rank-one", "nan", "inf"],
    )
    @pytest.mark.parametrize("jacobian", ["every", "frozen"])
    def test_raises(self, h, jacobian):
        obj = QuadraticObjective(np.eye(2), h)
        with pytest.raises(SingularHessianError) as exc:
            solve.newton(obj, np.zeros(2), jacobian=jacobian)
        assert exc.value.tag == "solve.singular-hessian"

    def test_threshold_kept(self):
        rep = solve.newton(QuadraticObjective(np.diag([1.0, 1e-11])), np.zeros(2))
        assert rep.residuals[-1] < solve.NEWTON_TOL

    @pytest.mark.parametrize("jacobian", ["every", "frozen"])
    def test_checked_once_per_hessian(self, monkeypatch, jacobian):
        # Newton on the Hessian 1.5 A shrinks the residual threefold a step
        checks = []
        check = solve._check_conditioned
        monkeypatch.setattr(solve, "_check_conditioned", lambda h: checks.append(check(h)))
        obj = QuadraticObjective(np.eye(3), 1.5 * np.eye(3))
        rep = solve.newton(obj, np.zeros(3), jacobian=jacobian)
        assert rep.iterations > 5
        assert len(checks) == obj.hessian_calls
        assert obj.hessian_calls == (1 if jacobian == "frozen" else rep.iterations)


class TestContinuation:
    def test_path_reaches_endpoint(self, frozen_path):
        assert abs(frozen_path.steps[-1].parameter - 5.0) < 1e-12
        assert not frozen_path.failures

    def test_rho_waypoint_present(self, frozen_path):
        assert any(
            abs(s.parameter - helium.RHO) < 1e-12 for s in frozen_path.steps
        )

    def test_identity_residuals_along_path(self, frozen_path):
        for step in frozen_path.steps:
            res1, res2 = step.cert.identity_res
            assert res1 < 1e-7 and res2 < 1e-7

    def test_collision_ode_along_path(self, frozen_path):
        for step in frozen_path.steps:
            assert step.diagnostics["ode_res"] < 1e-5
            assert step.diagnostics["beta_mu_res"] < 1e-5

    def test_morse_data_stable(self, frozen_path):
        for step in frozen_path.steps:
            assert step.diagnostics["morse_index"] == 0
            assert step.diagnostics["nullity"] == 0
            assert step.diagnostics["min_abs_eig"] > 1e-4

    def test_sup_bound_along_path(self, frozen_path):
        assert all(s.diagnostics["sup_upper_ok"] for s in frozen_path.steps)

    def test_consecutive_certs_stay_close(self, frozen_path):
        g = None
        for prev, cur in zip(frozen_path.steps[:-1], frozen_path.steps[1:]):
            n = min(prev.cert.z.n, cur.cert.z.n)
            if g is None:
                g = loops.gram_diag(loops.ODD_SINE, n)
            dist = np.sqrt(
                np.sum(g * (cur.cert.z.coeffs[:n] - prev.cert.z.coeffs[:n]) ** 2)
            )
            dp = cur.parameter - prev.parameter
            assert dist < 1.0 * max(dp, 1e-3)  # step-proportional drift bound

    def test_every_cert_meets_tolerance(self, frozen_path):
        assert all(s.cert.grad_res < 1e-9 for s in frozen_path.steps)

    def test_step_underflow_raises(self):
        class Impossible(solve.FrozenObjective):
            def gradient(self, x):
                raise DomainError("forced failure", tag="test")

        seed = solve.free_fall_seed(8)
        obj0 = solve.FrozenObjective(0.0, 8)
        with pytest.raises(ContinuationStuckError):
            solve.continuation(
                lambda p: Impossible(p, 8) if p > 0 else solve.FrozenObjective(p, 8),
                0.0,
                1.0,
                obj0.pack(seed.z),
                min_step=1e-3,
            )


class TestFullSpaceNondegeneracy:
    def test_rho_point_also_nondegenerate_as_periodic_orbit(self, cert_rho):
        # in the unrestricted period-2 space the kernel is exactly the
        # time-shift direction, at every parameter along the family
        rep = solve.spectrum(cert_rho, space="full")
        assert rep.nullity == 1
        assert rep.kernel_alignment > 0.999


class TestMeshConvergence:
    def test_vw_stable_under_mode_doubling(self, cert_rho):
        obj = solve.FrozenObjective(helium.RHO, 128)
        x0 = obj.pack(loops.from_coeffs(loops.ODD_SINE, np.concatenate(
            [cert_rho.z.coeffs, np.zeros(128 - cert_rho.z.n)])))
        rep = solve.newton(obj, x0)
        cert2 = obj.certify(rep.x)
        assert abs(cert2.v - cert_rho.v) < 1e-8
        assert abs(cert2.w - cert_rho.w) < 1e-8


class TestSpectrumReport:
    def test_mu_nonzero_when_nondegenerate(self, cert_rho):
        rep = solve.spectrum(cert_rho)
        assert rep.nullity == 0
        assert rep.mu != 0.0

    def test_counts_partition_dimension(self, cert_rho):
        rep = solve.spectrum(cert_rho)
        n = rep.eigenvalues.size
        positives = int(np.sum(rep.eigenvalues > rep.null_tol))
        assert rep.morse_index + rep.nullity + positives == n


class TestEulerCount:
    def _rep(self, index, nullity=0):
        evals = np.concatenate([-np.ones(index), np.ones(5 - index)])
        return solve.SpectrumReport(
            eigenvalues=evals,
            morse_index=index,
            nullity=nullity,
            mu=1.0,
            min_abs=1.0,
            null_tol=1e-6,
        )

    def test_single_index_zero_orbit(self):
        assert solve.euler_count([self._rep(0)]) == 1

    def test_empty_list(self):
        assert solve.euler_count([]) == 0

    def test_cancelling_pair(self):
        assert solve.euler_count([self._rep(0), self._rep(1)]) == 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePointError):
            solve.euler_count([self._rep(0, nullity=1)])

    def test_homotopy_invariance_along_frozen_path(self, frozen_path):
        counts = {
            (-1) ** s.diagnostics["morse_index"] for s in frozen_path.steps
        }
        assert len(counts) == 1

    def test_homotopy_invariance_along_pair_path(self, homotopy_path):
        # the signed count never changes while the interaction deforms from
        # mean to instantaneous (the finite homotopy axiom)
        counts = {
            (-1) ** s.diagnostics["morse_index"] for s in homotopy_path.steps
        }
        assert len(counts) == 1
