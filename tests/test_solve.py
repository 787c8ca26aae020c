import gc
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import frozenplanet
from frozenplanet import detline, frozen, helium, loops, solve
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
        x0 = obj.pack(solve.free_fall_seed(64))
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
        res = rep.residuals
        ratios = [res[k + 1] / res[k] ** 2 for k in range(len(res) - 1) if res[k] > 1e-13]
        assert ratios and max(ratios[-3:]) < 1e4


def frozen_case():
    """FrozenObjective(r, 8) at an odd-sine point, with the frozen calls
    that see its loop and how many of them one x makes."""
    x = np.zeros(8)
    x[0], x[-1] = 1.0, 0.05
    return {
        "make": lambda r: solve.FrozenObjective(r, 8), "p": 1.0, "dp": 0.5, "x": x,
        "module": frozen, "calls": ("gradient", "hessian_analytic", "certify"),
        # certify reaches frozen.gradient once more, through grad_res
        "seen": 4,
    }


def pair_case():
    """PairObjective(s, 3, 5), n1 != n2, at the bridge pair of an odd-sine
    loop, admissible for every s, with the helium calls that see its pair."""
    z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.0, 0.0, 0.0, 0.05])
    x = helium.PairObjective(0.0, 3, 5).pack(helium.bridge_pair(z, n1=3))
    return {
        "make": lambda s: helium.PairObjective(s, 3, 5), "p": 0.5, "dp": 0.5, "x": x,
        "module": helium, "calls": ("b_interp", "pair_hessian"),
        # certify reads the b_interp evaluation that gradient kept
        "seen": 2,
    }


class TestObjectiveCache:
    """Both objectives keep the point of the last few x, and the Hessian and
    the certificate there (``loops.Packed``)."""

    @pytest.fixture(params=[frozen_case, pair_case], ids=["FrozenObjective", "PairObjective"])
    def case(self, request):
        case = request.param()
        case["objective"] = case["make"](case["p"])
        return case

    def test_methods_share_one_loop(self, case, monkeypatch):
        objective, module, x = case["objective"], case["module"], case["x"]
        seen = []
        for name in case["calls"]:
            fn = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda z, p, _fn=fn: seen.append(z) or _fn(z, p)
            )
        objective.gradient(x)
        objective.hessian(x.copy())
        objective.certify(x)
        assert len(seen) == case["seen"]
        assert all(z is seen[0] for z in seen)
        assert objective.unpack(x) is seen[0]

    def test_one_ulp_is_a_new_loop(self, case):
        objective, x = case["objective"], case["x"]
        z = objective.unpack(x)
        y = x.copy()
        y[-1] = np.nextafter(y[-1], np.inf)
        assert objective.unpack(y) is not z
        assert objective.unpack(y) is objective.unpack(y.copy())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, case, bad):
        objective, x = case["objective"], case["x"]
        objective.unpack(x)
        y = x.copy()
        y[0] = bad
        for method in ("unpack", "value", "gradient", "hessian", "certify"):
            with pytest.raises(DomainError) as exc:
                getattr(objective, method)(y)
            assert exc.value.tag == "loops.coeffs"
            # the failed build leaves no entry for y, and keeps x's
            assert list(objective._last.values) == [x.tobytes()]
        assert not objective.admissible(y)

    def test_hessian_kept_read_only(self, case, monkeypatch):
        objective, x = case["objective"], case["x"]
        h = objective.hessian(x)
        for name in case["calls"]:
            monkeypatch.setattr(case["module"], name, None)
        assert objective.hessian(x.copy()) is h
        assert not h.flags.writeable

    def test_certificate_kept(self, case, monkeypatch):
        objective, x = case["objective"], case["x"]
        cert = objective.certify(x)
        for name in case["calls"]:
            monkeypatch.setattr(case["module"], name, None)
        assert objective.certify(x.copy()) is cert

    def test_parameter_gradient_is_the_central_difference(self, case):
        # both functionals are affine in their parameter, so a wide
        # difference is exact but for rounding, which a narrow one would
        # blow up by |g| / dp
        make, p, dp, x = case["make"], case["p"], case["dp"], case["x"]
        want = (make(p + dp).gradient(x) - make(p - dp).gradient(x)) / (2.0 * dp)
        got = case["objective"].parameter_gradient(x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestPackedBlocks:
    """The two-block layout of the pair: z1's block first, each block
    truncated or zero-padded on its own."""

    def test_pack_truncates_and_pads_each_block(self):
        obj = helium.PairObjective(0.0, n1=4, n2=6)
        rng = np.random.default_rng(5)
        c1, c2 = rng.normal(size=7), rng.normal(size=3)
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, c1), loops.from_coeffs(loops.ODD_SINE, c2)
        )
        x = obj.pack(pair)
        assert x.shape == (obj.n,) == (10,)
        sg1 = np.sqrt(loops.gram_diag(loops.EVEN_COSINE, 4))
        sg2 = np.sqrt(loops.gram_diag(loops.ODD_SINE, 6))
        assert np.array_equal(x[:4], sg1 * c1[:4])
        assert np.array_equal(x[4:], sg2 * np.concatenate([c2, np.zeros(3)]))
        back = obj.unpack(x)
        for got, want in ((back.z1.coeffs, c1[:4]), (back.z2.coeffs[:3], c2)):
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.array_equal(back.z2.coeffs[3:], np.zeros(3))


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


def _eigen_decision(h):
    """The condition test on eigenvalues alone: the oracle of
    ``solve._check_conditioned``.  True when h passes."""
    if not np.all(np.isfinite(h)):
        return False
    mags = np.abs(np.linalg.eigvalsh(h))
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(mags.max() / mags.min() <= 1e12)


def _symmetric(rng, evals, spread):
    """A symmetric matrix with eigenvalues ``evals``: diag(evals) rotated by
    the orthogonal factor of I + spread * K, K a random skew matrix, so
    small spreads keep it diagonally dominant (the discs decide) and large
    ones mix it fully (the eigensolver decides)."""
    n = evals.size
    k = rng.normal(size=(n, n))
    q = np.linalg.qr(np.eye(n) + spread * (k - k.T))[0]
    h = (q * evals) @ q.T
    return 0.5 * (h + h.T)


class TestConditionCheck:
    """``_check_conditioned`` decides as the eigenvalue test does, on seeded
    random symmetric matrices on both sides of the 1e12 bound."""

    families = {
        "spd-cond-1e3": lambda rng, n: np.geomspace(1.0, 1e3, n),
        "spd-cond-0.9e12": lambda rng, n: np.geomspace(1.0, 0.9e12, n),
        "spd-cond-1.1e12": lambda rng, n: np.geomspace(1.0, 1.1e12, n),
        "spd-cond-1e14": lambda rng, n: np.geomspace(1.0, 1e14, n),
        "negative-definite": lambda rng, n: -np.geomspace(2.0, 5e4, n),
        "negative-cond-1e13": lambda rng, n: -np.geomspace(1.0, 1e13, n),
        "indefinite": lambda rng, n: np.concatenate([[-1.0], np.geomspace(1.0, 1e3, n - 1)]),
        "singular": lambda rng, n: np.concatenate([[0.0], np.geomspace(1.0, 1e3, n - 1)]),
        "random-spectrum": lambda rng, n: rng.normal(size=n),
        "zero": lambda rng, n: np.zeros(n),
    }

    @staticmethod
    def _passes(h):
        try:
            solve._check_conditioned(h)
        except SingularHessianError as exc:
            assert exc.tag == "solve.singular-hessian"
            return False
        return True

    @pytest.mark.parametrize("spread", [0.0, 1e-5, 1e-2, 1.0])
    @pytest.mark.parametrize("family", sorted(families))
    @pytest.mark.parametrize("seed", range(4))
    def test_decides_like_the_eigenvalues(self, family, spread, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        h = _symmetric(rng, self.families[family](rng, n), spread)
        assert self._passes(h) == _eigen_decision(h)

    @pytest.mark.parametrize("spread", [0.0, 1e-5, 1e-2, 1.0])
    @pytest.mark.parametrize("family", sorted(families))
    @pytest.mark.parametrize("seed", range(4))
    def test_one_rule_decides_singular(self, family, spread, seed):
        # Newton's check, the spectral report and the section data agree
        # on which matrices are singular
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        h = _symmetric(rng, self.families[family](rng, n), spread)
        passes = self._passes(h)
        assert (solve.spectrum_report(h).nullity == 0) == passes
        assert detline.sections(h)["invertible"] == passes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, bad):
        h = np.eye(4)
        h[1, 2] = h[2, 1] = bad
        with pytest.raises(SingularHessianError, match="non-finite"):
            solve._check_conditioned(h)

    def test_definite_hessians_skip_the_eigensolver(self, monkeypatch, seed64):
        # the discs decide a diagonally dominant definite matrix of either
        # sign, and the free-fall Hessian; an indefinite one needs eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
        rng = np.random.default_rng(0)
        dominant = _symmetric(rng, np.geomspace(1.0, 1e3, 32), 1e-5)
        for h in (dominant, -dominant, frozen.hessian_analytic(seed64.z, 0.0)):
            solve._check_conditioned(h)
        assert calls == []
        solve._check_conditioned(_symmetric(rng, np.linspace(-1.0, 2.0, 32), 1e-4))
        assert calls == [1]


class PowerPath:
    """g(x) = x - p^k a, |a| = 1, so the critical point p^k a is linear in
    p for k = 1; a point farther than ``reach`` from it is inadmissible."""

    def __init__(self, p, k, reach=np.inf):
        self.p, self.k, self.reach = p, k, reach

    def admissible(self, x):
        return float(np.linalg.norm(self.gradient(x))) <= self.reach

    def gradient(self, x):
        return x - self.p**self.k * np.array([0.6, -0.8])

    def parameter_gradient(self, x):
        return -self.k * self.p ** (self.k - 1) * np.array([0.6, -0.8])

    def hessian(self, x):
        return np.eye(2)

    def certify(self, x):
        return x


def parameters(path):
    """The parameters of a path's accepted steps."""
    return [s.parameter for s in path.steps]


def _newton_evaluations(path):
    return sum(len(s.diagnostics["newton_residuals"]) for s in path.steps)


class TestContinuation:
    def test_tangent_seed_exact_on_polynomial_paths(self):
        # the Euler step from p = 0 is exact for k = 1 and misses p^k a by
        # (1/16)^k for k > 1; the cubic Hermite through two points and their
        # tangents is exact for k <= 3, so every later seed is converged,
        # and every converged seed or one-step solve doubles the step
        for k in (1, 2, 3):
            path = solve.continuation(lambda p: PowerPath(p, k), 0.0, 1.0, np.zeros(2))
            residuals = [s.diagnostics["newton_residuals"] for s in path.steps]
            assert len(residuals[1]) == (1 if k == 1 else 2)
            assert all(len(r) == 1 for r in residuals[2:])
            assert not path.failures
            assert parameters(path) == [0.0, 1 / 16, 3 / 16, 7 / 16, 11 / 16, 15 / 16, 1.0]
            assert path.step_history == [1 / 16, 1 / 8] + [1 / 4] * 4

    def test_failed_prediction_halves_and_repredicts(self):
        # on x = p^5 a the Hermite seed through (a, b) misses at p by
        # (p - a)^2 (p - b)^2 (2a + 2b + p), the fifth divided difference
        # of p^5: at 15/16 through (7/16, 11/16) by 51/1024, beyond reach;
        # the halved step to 13/16 misses by 7056/16^5, the last one to 1
        # through (11/16, 13/16) by 900/16^4, and both are solved
        path = solve.continuation(
            lambda p: PowerPath(p, 5, reach=0.04), 0.0, 1.0, np.zeros(2)
        )
        assert path.failures == [(15 / 16, "DomainError")]
        assert parameters(path) == [0.0, 1 / 16, 3 / 16, 7 / 16, 11 / 16, 13 / 16, 1.0]
        assert path.step_history == [1 / 16, 1 / 8, 1 / 4, 1 / 4, 1 / 8, 1 / 4]
        seeds = [s.diagnostics["newton_residuals"][0] for s in path.steps]
        assert np.allclose(seeds[-2:], [7056 / 16**5, 900 / 16**4], rtol=1e-12)

    def test_degenerate_accepted_point_raises(self):
        # a singular Hessian at the accepted start stops the tangent, as a
        # tagged SingularHessianError rather than numpy's LinAlgError
        class Flat(PowerPath):
            def hessian(self, x):
                return np.diag([1.0, 0.0])

        with pytest.raises(SingularHessianError) as exc:
            solve.continuation(lambda p: Flat(p, 1), 0.0, 1.0, np.array([0.0, 0.0]))
        assert exc.value.tag == "solve.singular-hessian"

    def test_slow_contraction_keeps_the_step(self):
        class Slow(PowerPath):
            def hessian(self, x):
                return 4.0 * np.eye(2)  # contracts the residual by 3/4 a step

        path = solve.continuation(lambda p: Slow(p, 2), 0.0, 1.0, np.zeros(2), tol=1e-4)
        assert set(path.step_history) == {1 / 16}

    def test_newton_evaluations_along_frozen_path(self, frozen_path):
        # 21 with the tangent predictor, 25 with a secant, 38 without either
        assert _newton_evaluations(frozen_path) <= 22

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
                obj0.pack(seed),
            )

    def test_doomed_path_reports_only_its_tagged_error(self):
        # seeds far out along the huge steps overflow; each failed attempt
        # is a tagged failure, and no numpy warning reaches the caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContinuationStuckError) as exc:
                solve.solve_frozen(1e300, 4)
        assert exc.value.tag == "solve.continuation-stuck"


def direct_continuation(r, n):
    """The whole continuation from the free fall at N modes: the oracle of
    ``solve_frozen``, which continues on fewer modes."""
    x0 = solve.FrozenObjective(0.0, n).pack(solve.free_fall_seed(n))
    through = (helium.RHO,) if r > helium.RHO else ()
    return solve.continuation(lambda p: solve.FrozenObjective(p, n), 0.0, r, x0, through=through)


class TestTwoGridSolve:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("r", [helium.RHO, 5.0, 20.0, 100.0, 1000.0])
    def test_matches_direct_continuation(self, r, n):
        path, oracle = solve.solve_frozen(r, n_modes=n), direct_continuation(r, n)
        assert parameters(path) == parameters(oracle)
        assert all(s.cert.z.n == solve.WORK_MODES for s in path.steps[:-1])
        cert, ref = path.last().cert, oracle.last().cert
        assert cert.z.n == n
        assert np.max(np.abs(cert.z.coeffs - ref.z.coeffs)) <= 1e-13
        assert cert.grad_res <= max(3.0 * ref.grad_res, 1e-13)
        assert path.last().diagnostics["newton_residuals"][-1] < solve.NEWTON_TOL
        rep, ref_rep = solve.spectrum(cert), solve.spectrum(ref)
        assert rep.morse_index == 0 and rep.nullity == 0
        assert abs(rep.min_abs - ref_rep.min_abs) <= 1e-10 * ref_rep.min_abs

    def test_reaches_what_continue_reaches(self):
        # at r = 1e7 Newton at 32 modes fails from the padded 16-mode
        # endpoint, so the path is continued again from the free fall at 32
        r, n = 1e7, 128
        path, oracle = solve.solve_frozen(r, n_modes=n), direct_continuation(r, n)
        assert parameters(path) == parameters(oracle)
        assert {s.x.size for s in path.steps[:-1]} == {32}
        cert, ref = path.last().cert, oracle.last().cert
        assert cert.grad_res <= 3.0 * ref.grad_res
        rep, ref_rep = solve.spectrum(cert), solve.spectrum(ref)
        assert rep.morse_index == 0 and rep.nullity == 0
        assert np.max(np.abs(cert.z.coeffs - ref.z.coeffs)) <= 1e-10
        assert abs(rep.min_abs - ref_rep.min_abs) <= 1e-9 * ref_rep.min_abs

    def test_free_fall_is_the_analytic_seed(self):
        path = solve.solve_frozen(0.0, n_modes=128)
        assert parameters(path) == [0.0]
        cert = path.last().cert
        assert cert.z.n == 128
        assert np.array_equal(cert.z.coeffs, solve.free_fall_seed(128).coeffs)

    def test_small_sizes_continue_at_the_requested_size(self):
        path, oracle = solve.solve_frozen(1.0, n_modes=8), direct_continuation(1.0, 8)
        assert {s.cert.z.n for s in path.steps} == {8}
        assert parameters(path) == parameters(oracle)
        # the oracle stops just under the tolerance; solve_frozen takes one
        # forced Newton step at N, so the oracle's endpoint takes one as well
        obj = solve.FrozenObjective(1.0, 8)
        x = obj.pack(oracle.last().cert.z)
        cert, ref = path.last().cert, obj.certify(x + np.linalg.solve(obj.hessian(x), -obj.gradient(x)))
        assert np.max(np.abs(cert.z.coeffs - ref.z.coeffs)) <= 1e-13
        assert cert.grad_res <= 3.0 * ref.grad_res


class TestLazyCertificates:
    @staticmethod
    def counted_path(monkeypatch, diagnostics=None):
        """A 0 -> 1 path at N = 8, the frozen.certify calls (their r) and
        weak references to every objective made for it."""
        made, calls = [], []
        certify = frozen.certify
        monkeypatch.setattr(frozen, "certify", lambda z, r: calls.append(r) or certify(z, r))

        def make(p):
            made.append(solve.FrozenObjective(p, 8))
            return made[-1]

        x0 = solve.FrozenObjective(0.0, 8).pack(solve.free_fall_seed(8))
        path = solve.continuation(make, 0.0, 1.0, x0, diagnostics=diagnostics)
        refs = [weakref.ref(obj) for obj in made]
        del made[:]
        gc.collect()
        return path, calls, refs

    def test_step_certifies_on_first_read(self, monkeypatch):
        # an unread step holds its point and a new objective, none of the
        # Newton objectives; a read certifies once, is kept, and lets go
        path, calls, refs = self.counted_path(monkeypatch)
        assert calls == []
        assert sum(ref() is not None for ref in refs) == len(path.steps)
        step = path.steps[-1]
        cert = step.cert
        assert calls == [1.0] and step.cert is cert
        for s in path.steps:
            s.cert
        gc.collect()
        assert all(ref() is None for ref in refs)
        eager = frozen.certify(solve.FrozenObjective(1.0, 8).unpack(step.x), 1.0)
        assert np.array_equal(cert.z.coeffs, eager.z.coeffs)
        assert (cert.v, cert.w, cert.grad_res, cert.identity_res, cert.energy_dev) == (
            eager.v, eager.w, eager.grad_res, eager.identity_res, eager.energy_dev
        )

    def test_step_reads_the_diagnostics_certificate(self, monkeypatch):
        # the step diagnostics certify each point once; the steps keep those
        # certificates and no objective
        path, calls, refs = self.counted_path(monkeypatch, solve.frozen_step_diagnostics)
        assert len(calls) == len(path.steps)
        assert all(ref() is None for ref in refs)
        assert [s.cert.r for s in path.steps] == parameters(path)
        assert len(calls) == len(path.steps)


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
        positives = int(np.sum((rep.eigenvalues > 0.0) & ~detline.in_kernel(rep.eigenvalues)))
        assert rep.morse_index + rep.nullity + positives == n

    def test_overflowing_mu_is_signed_inf(self):
        # the product of the 59 eigenvalues outside the kernel, all below
        # -10, is beyond the float range; its sign is that of (-1)^59
        evals = -np.logspace(0, 13, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detline.mu(evals) == -np.inf
            assert solve.spectrum_report(np.diag(evals)).mu == -np.inf
        assert np.sum(~detline.in_kernel(evals)) == 59


class TestEulerCount:
    def test_single_index_zero_orbit(self):
        assert solve.euler_count([(0, 0)]) == 1

    def test_empty_list(self):
        assert solve.euler_count([]) == 0

    def test_cancelling_pair(self):
        assert solve.euler_count([(0, 0), (1, 0)]) == 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePointError):
            solve.euler_count([(0, 1)])

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


def test_solves_leave_numpy_ma_unimported():
    # numpy.ma costs about 1 MB of peak memory, and numpy imports it on
    # demand (np.unique on an int array does): a one-loop solve_frozen and
    # a pair Newton solve, in a fresh interpreter, must not pull it in
    src = os.path.dirname(os.path.dirname(frozenplanet.__file__))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from frozenplanet import helium, solve\n"
        "cert = solve.solve_frozen(helium.RHO, n_modes=16).last().cert\n"
        "obj = helium.PairObjective(0.0, n1=8, n2=16)\n"
        "x0 = obj.pack(helium.bridge_pair(cert.z, n1=8))\n"
        "kick = 1e-4 * np.random.default_rng(0).normal(size=x0.size)\n"
        "rep = solve.newton(obj, x0 + kick)\n"
        "print(rep.iterations, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    iterations, imported = out.stdout.split()
    assert int(iterations) > 0
    assert imported == "False"
