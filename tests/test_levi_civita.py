import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozenplanet

from frozenplanet import levi_civita as lc
from frozenplanet import loops
from frozenplanet.errors import (
    DegenerateLoopError,
    DomainError,
    NonRegularizableError,
)


@pytest.fixture(scope="module")
def sine_loop():
    return loops.from_coeffs(loops.ODD_SINE, [1.0])


@pytest.fixture(scope="module")
def sine_orbit(sine_loop):
    return lc.forward(sine_loop)


def time_map(z, taus):
    """t(tau) = I(tau)/I(1) through the exact primitive of z^2."""
    primitive, i_one = lc.square_primitive(z)
    return primitive(np.asarray(taus, dtype=float)) / i_one


class TestTimeMap:
    def test_closed_form(self, sine_loop):
        # primitive of sin^2(pi tau) is tau/2 - sin(2 pi tau)/(4 pi), norm 1/2
        want = 0.25 - 1.0 / (2.0 * np.pi)
        assert abs(time_map(sine_loop, [0.25])[0] - want) < 1e-10

    def test_symmetry_midpoint(self, sine_loop):
        assert abs(time_map(sine_loop, [0.5])[0] - 0.5) < 1e-12

    def test_endpoints_fixed(self, sine_loop):
        t = time_map(sine_loop, [0.0, 1.0])
        assert t[0] == 0.0 and t[1] == 1.0

    def test_node_derivative_invariant(self, sine_loop):
        # dt/dtau = z^2 / ||z||^2 at the nodes, by central differences
        taus = np.linspace(0.0, 1.0, 2049)
        h = 1e-6
        slope = (time_map(sine_loop, taus + h) - time_map(sine_loop, taus - h)) / (2 * h)
        want = sine_loop(taus) ** 2 / 0.5
        assert np.max(np.abs(slope - want)) < 1e-8

    def test_degenerate_loop_rejected(self):
        z = loops.from_coeffs(loops.ODD_SINE, [0.0])
        with pytest.raises(DegenerateLoopError):
            lc.square_primitive(z)
        with pytest.raises(DegenerateLoopError):
            lc.tau_of_t(z, [0.5])


class TestInvert:
    def test_midpoint(self, sine_loop):
        assert abs(lc.tau_of_t(sine_loop, np.array([0.5]))[0] - 0.5) < 1e-10

    def test_roundtrip_thousand_samples(self, sine_loop):
        probe = np.linspace(0.0, 1.0, 1000)
        back = lc.tau_of_t(sine_loop, time_map(sine_loop, probe))
        assert np.max(np.abs(back - probe)) < 1e-9


class TestSquarePrimitive:
    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_gauss_legendre(self, klass, n):
        z = loops.from_coeffs(klass, np.random.default_rng(n).normal(size=n))
        primitive, i_one = lc.square_primitive(z)
        x, w = np.polynomial.legendre.leggauss(64)
        taus = np.linspace(0.0, 2.0, 23)
        quad = [0.5 * tau * np.sum(w * z(0.5 * tau * (x + 1.0)) ** 2) for tau in taus]
        scale = max(1.0, float(np.sum(z.coeffs**2)))
        assert np.max(np.abs(primitive(taus) - quad)) < 1e-13 * scale
        assert abs(i_one - quad[11]) < 1e-13 * scale


class TestTauOfT:
    def test_endpoints_are_exact(self, sine_loop):
        # the derivative vanishes at the collision, so only an exact root
        # that is kept as it is gives 0 and 1 back
        assert lc.tau_of_t(sine_loop, 0.0) == 0.0
        assert lc.tau_of_t(sine_loop, 1.0) == 1.0

    def test_t_clamped_to_unit_interval(self):
        # I(tau)/I(1) rounds just outside [0, 1] at the ends
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03])
        taus = lc.tau_of_t(z, [-1.3e-16, 1.0 + 2.2e-16, -0.5, 1.5])
        assert np.array_equal(taus, [0.0, 1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected(self, sine_loop, bad):
        with pytest.raises(DomainError) as exc:
            lc.tau_of_t(sine_loop, [0.25, bad])
        assert exc.value.tag == "levi_civita.t"

    def test_rounding_level_stop_keeps_the_root(self):
        # against Newton run until its bracket holds no inner float: where z
        # is bounded away from 0 the early stop costs no accuracy
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03])
        primitive, i_one = lc.square_primitive(z)
        t = np.arange(1, 4096) / 4096
        got = lc.tau_of_t(z, t)

        def residual(x, idx):
            return primitive(x) / i_one - t[idx], z(x) ** 2 / i_one

        ref = loops._newton(residual, np.zeros(t.size), np.ones(t.size), got, tol=0.0, max_iter=200)
        away = np.abs(z(ref)) > 0.1
        assert np.max(np.abs(got - ref)[away]) < 1e-13

    def test_forward_starts_at_zero(self, sine_orbit):
        assert sine_orbit.taus[0] == 0.0


def _close_pair_loop(tau0=1228.5 / 4096):
    """(1 - 1e-8) - cos(pi (tau - tau0)), a full loop with two zeros
    4.5e-5 either side of tau0."""
    shift = np.pi * (tau0 - 1.0)
    return loops.from_coeffs(loops.FULL, [1.0 - 1e-8, np.cos(shift), np.sin(shift)])


class TestLoopZeros:
    def test_triple_cover(self):
        z = loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03]), 3)
        zs = loops.loop_zeros(z)
        assert np.max(np.abs(zs - [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])) < 1e-14

    def test_interior_zeros_of_a_full_loop(self):
        # z = cos(pi tau) - 1/2 + 0.1 sin(3 pi tau)
        z = loops.from_coeffs(loops.FULL, [-0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.1])
        zs = loops.loop_zeros(z)
        assert zs.size == 1 and 0.0 < zs[0] < 1.0
        assert abs(z([zs[0]])[0]) < 1e-15

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_high_order_zero_has_no_noise_zeros(self, p):
        # next to a zero of order p the scan sees sign changes of rounding
        # noise only; before the noise floor, p = 7 gave
        # [0, 0.00131, 0.99868, 1]
        z = loops.analyze(np.sin(np.pi * loops.grid_points(256)) ** p, loops.ODD_SINE)
        assert np.array_equal(loops.loop_zeros(z), [0.0, 1.0])

    def test_zero_pair_inside_one_cell(self):
        # (1 - 1e-8) - cos(pi (tau - tau0)) dips to -1e-8 between two zeros
        # 4.5e-5 either side of tau0, inside one cell of the quad grid
        z = _close_pair_loop()
        tau0 = 1228.5 / 4096
        zs = loops.loop_zeros(z)
        assert zs.size == 2 and zs[0] < tau0 < zs[1] and zs[1] - zs[0] < 1e-4
        assert np.max(np.abs(z(zs))) < 1e-14

    def test_zero_pair_between_two_equal_samples(self):
        # centred in a cell of the 64-point grid, the pair leaves two
        # samples that are often exactly equal, both minima of |z|
        equal = 0
        for k in range(32):
            z = _close_pair_loop((k + 0.5) / 32)
            equal += z.quad_samples()[k] == z.quad_samples()[k + 1]
            zs = loops.loop_zeros(z)
            assert zs.size == 2 and zs[0] < (k + 0.5) / 32 < zs[1]
        assert equal > 0

    def test_zero_beside_a_zero_sample(self):
        # z' < 0 at tau = 0, so z dips below zero before its zero at 0.0299,
        # inside the first cell (h = 1/32) of the grid
        z = loops.from_coeffs(loops.ODD_SINE, [0.3106864722497917, 0.0666133877055699, -0.1053231672869862])
        zs = loops.loop_zeros(z)
        assert zs.size == 4 and zs[0] == 0.0 and zs[3] == 1.0
        assert 0.0 < zs[1] < 1.0 / 32 and abs(zs[1] + zs[2] - 1.0) < 1e-14
        assert np.max(np.abs(z(zs[1:3]))) < 1e-15

    def test_three_zeros_in_one_cell(self):
        # a pair at 0.14131, 0.14199 shares the cell [14/104, 15/104] of the
        # grid with the sign change at 0.13487, and likewise its mirror image
        z = loops.from_coeffs(
            loops.EVEN_COSINE,
            [0.5522050349873713, -1.0713971393564337, 0.33611043027152676, -0.18862928986490934,
             -0.037390285403784036, 0.17942101602687444, 0.16154789922645257, 0.044178212329812366,
             -0.04464071673971744, 0.13875162435389474, 0.08567603801825853, -0.006606914389899963,
             -0.05392974482844721],
        )
        assert z.quad_samples().size == 208
        zs = loops.loop_zeros(z)
        cell = zs[(zs > 14 / 104) & (zs < 15 / 104)]
        assert cell.size == 3 and np.max(np.abs(z(cell))) < 1e-15
        assert np.max(np.abs(cell[::-1] + zs[(zs > 89 / 104) & (zs < 90 / 104)] - 1.0)) < 1e-14

    def test_zero_pair_beside_a_stationary_sample(self):
        # z' = 0 at the sample tau = 0 of an even-cosine loop, a maximum of
        # z between two minima just below zero at +-0.00685
        z = loops.from_coeffs(
            loops.EVEN_COSINE,
            [0.04231208911437323, 0.25838168785401655, -0.3732455188368251, -0.01118541527040896,
             0.08373926265668909],
        )
        h = 2.0 / z.quad_samples().size
        zs = loops.loop_zeros(z)
        assert zs.size == 6 and 0.0 < zs[0] < zs[1] < h
        assert np.max(np.abs(z(zs))) < 1e-15
        # z' is about 1e-4 at the pair, so rounding moves its zeros ~1e-12
        assert np.max(np.abs(zs[:2] + zs[:-3:-1] - 1.0)) < 1e-10

    @pytest.mark.parametrize("p, m", [(7, 256), (9, 128), (9, 256)])
    def test_high_order_interior_zero(self, p, m):
        # every sample within the sign change of cos^p at tau = 1/4 (and 3/4)
        # is rounding noise, yet the run of them is one zero
        z = loops.analyze(np.cos(2.0 * np.pi * loops.grid_points(m)) ** p, loops.EVEN_COSINE)
        assert np.max(np.abs(loops.loop_zeros(z) - [0.25, 0.75])) < 0.01

    @pytest.mark.parametrize("p, m", [(2, 64), (4, 512)])
    def test_noise_beside_a_sample_above_the_floor(self, p, m):
        # the samples at the double (quadruple) zero tau = 0 are rounding
        # noise of either sign; a sign change from one of them to a sample
        # above the floor gave spurious zeros such as 3.9e-5 and 0.99996
        g = loops.grid_points(m)
        z = loops.analyze(np.sin(np.pi * g) ** p * (1.0 + 0.1 * np.cos(np.pi * g) ** 2), loops.EVEN_COSINE)
        assert np.array_equal(loops.loop_zeros(z), [0.0, 1.0])

    def test_zeros_on_the_samples(self):
        # cos 2 pi tau is exactly zero at the samples tau = 1/4 and 3/4
        z = loops.from_coeffs(loops.EVEN_COSINE, [0.0, 1.0])
        size = z.quad_samples().size
        assert np.all(z.quad_samples()[[size // 8, 3 * size // 8]] == 0.0)
        assert np.array_equal(loops.loop_zeros(z), [0.25, 0.75])

    def test_noise_minima_are_no_zero_pair(self):
        # near the zero of order 11 at tau = 1, minima of |z| among samples
        # of rounding noise refine to spurious pairs such as 0.9930, 0.9961
        z = loops.analyze(np.sin(np.pi * loops.grid_points(128)) ** 11, loops.ODD_SINE)
        assert np.array_equal(loops.loop_zeros(z), [0.0, 1.0])

    def test_zero_loop_rejected(self):
        with pytest.raises(DegenerateLoopError, match="identically zero"):
            loops.loop_zeros(loops.from_coeffs(loops.ODD_SINE, [0.0, 0.0]))

    def test_flat_stretch_rejected(self):
        # sin^17 stays below 1e-13 of its peak on 58 of the 513 quad samples
        # on [0, 1]
        g = loops.grid_points(256)
        with pytest.raises(DegenerateLoopError, match="vanishes on an interval"):
            loops.loop_zeros(loops.analyze(np.sin(np.pi * g) ** 17, loops.ODD_SINE))


class TestForward:
    def test_zero_pair_is_a_collision(self):
        # both zeros of the pair map to one t
        assert lc.forward(_close_pair_loop(), n_t=1024).zeros.size == 1

    def test_midpoint_value(self, sine_orbit):
        assert abs(sine_orbit.q[sine_orbit.n // 2] - 1.0) < 1e-10

    def test_constant_loop(self):
        orbit = lc.forward(loops.from_coeffs(loops.EVEN_COSINE, [1.3]), n_t=1024)
        assert np.max(np.abs(orbit.q - 1.69)) < 1e-12
        assert orbit.zeros.size == 0

    def test_mean_identity(self, sine_orbit):
        assert abs(sine_orbit.qbar - 0.75) < 1e-12
        assert abs(lc.qbar_from_samples(sine_orbit) - 0.75) < 1e-6

    def test_reciprocal_identity(self, sine_orbit):
        # int dt/q = 1/||z||^2 = 2
        assert abs(lc.reciprocal_integral(sine_orbit) - 2.0) < 1e-6

    def test_qdot_norm_identity(self, sine_orbit):
        # ||qdot||^2 = 4 ||z||^2 ||z'||^2 = pi^2
        assert abs(lc.qdot_l2_sq(sine_orbit) - np.pi**2) < 1e-6

    def test_zero_markers(self, sine_orbit):
        assert sine_orbit.zeros.size == 1
        assert abs(sine_orbit.zeros[0]) < 1e-12


class TestChainRule:
    def test_fd_matches_spectral_in_the_interior(self, sine_orbit):
        # the five-point qdd of q_residual against the chain rule of the
        # transform at the orbit's own tau, pointwise where q >= max q / 2
        z, taus, q = sine_orbit.source, sine_orbit.taus, sine_orbit.q
        mask = q >= 0.5 * np.max(q)
        l2sq = loops.norm_data(z)[0]
        zv, zp, zpp = loops.jets(z, taus[mask], (0, 1, 2))
        qdot = 2.0 * l2sq * zp / zv
        qdd = (2.0 * l2sq**2 * zpp / zv - 0.5 * qdot**2) / zv**2
        assert np.max(np.abs(lc._qdd_fd(q)[mask] - qdd)) < 1e-4


RECIPROCAL_LOOPS = {
    "sine": loops.from_coeffs(loops.ODD_SINE, [1.0]),
    "rich": loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03]),
    "triple": loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0]), 3),
}


@pytest.fixture(scope="module", params=sorted(RECIPROCAL_LOOPS))
def solved(request):
    """An orbit's ReciprocalIntegral, 1001 targets F in [0, total] and solve(F)."""
    rec = lc.ReciprocalIntegral(lc.forward(RECIPROCAL_LOOPS[request.param]))
    targets = np.linspace(0.0, rec.total, 1001)
    return rec, targets, rec.solve(targets)


def covers_every_window_side(rec, t):
    """Whether the points t fall on both sides of every collision window."""
    for z0 in rec.zeros:
        delta = (t - z0 + 0.5) % 1.0 - 0.5
        inside = np.abs(delta) < rec.window
        if not (np.any(inside & (delta > 0.0)) and np.any(inside & (delta < 0.0))):
            return False
    return True


class TestReciprocalIntegral:
    def test_solve_inverts_cumulative(self, solved):
        rec, targets, t = solved
        assert covers_every_window_side(rec, t)
        assert np.max(np.abs(rec.cumulative(t) - targets)) < 1e-11

    def test_points_do_not_interact(self, solved):
        rec, targets, t = solved
        picked = np.arange(0, targets.size, 16)
        assert covers_every_window_side(rec, t[picked])
        for j in picked:
            assert rec.solve(targets[j : j + 1])[0] == t[j]

    @pytest.mark.parametrize("name", sorted(RECIPROCAL_LOOPS))
    def test_inverse_interpolates_in_batches(self, name, monkeypatch):
        # one interpolation per Newton sweep over all targets, not one per
        # target and step (about 9 000 to 11 000 calls before the batching)
        orbit = lc.forward(RECIPROCAL_LOOPS[name])
        calls = []
        lagrange = lc._lagrange_vec

        def counting(*args, **kwargs):
            calls.append(1)
            return lagrange(*args, **kwargs)

        monkeypatch.setattr(lc, "_lagrange_vec", counting)
        lc.inverse(orbit, m_out=512)
        assert len(calls) <= 300


def newton_step_rule(fn, lo, hi, x0, tol, max_iter, min_slope=0.0):
    """``loops._newton`` as it stood before the closed-bracket stop: a point
    stops only on a step below ``tol`` or after ``max_iter`` evaluations.
    The oracle that the stop changes ``ReciprocalIntegral.solve`` by at most
    rounding."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.asarray(x0, dtype=float)
    out = x.copy()
    idx = np.arange(x.size)
    for _ in range(max_iter):
        if not idx.size:
            break
        fx, dfx = fn(x, idx)
        lo = np.where(fx <= 0.0, np.maximum(lo, x), lo)
        hi = np.where(fx > 0.0, np.minimum(hi, x), hi)
        mid = 0.5 * (lo + hi)
        ok = dfx > min_slope
        x_new = np.where(ok, x - fx / np.where(ok, dfx, 1.0), mid)
        x_new = np.where((x_new >= lo) & (x_new <= hi), x_new, mid)
        x_new = np.where(fx == 0.0, x, x_new)
        out[idx] = x_new
        moving = np.abs(x_new - x) >= tol
        idx, x, lo, hi = idx[moving], x_new[moving], lo[moving], hi[moving]
    return out


class TestSolveStops:
    """``ReciprocalIntegral.solve`` on 256 targets of ``[1, 0.2, -0.03]``
    at n_t = 4096, where the step rule alone let 19 t-path and 3 sigma-path
    targets alternate between two floats until ``max_iter``."""

    @pytest.fixture(scope="class")
    def rec(self):
        orbit = lc.forward(loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03]), n_t=4096)
        return lc.ReciprocalIntegral(orbit)

    def test_no_point_runs_to_max_iter(self, rec, monkeypatch):
        newton = loops._newton
        runs = []

        def counting(fn, lo, hi, x0, tol, max_iter, **kwargs):
            evals = np.zeros(np.size(x0), dtype=int)

            def counted(x, idx):
                evals[idx] += 1
                return fn(x, idx)

            runs.append((evals, max_iter))
            return newton(counted, lo, hi, x0, tol=tol, max_iter=max_iter, **kwargs)

        monkeypatch.setattr(loops, "_newton", counting)
        rec.solve(np.linspace(0.0, rec.total, 256))
        assert len(runs) == 3  # both sides of the collision, then the t-path
        assert all(np.max(evals) < max_iter for evals, max_iter in runs)

    def test_agrees_with_the_step_rule(self, rec, monkeypatch):
        targets = np.linspace(0.0, rec.total, 256)
        t = rec.solve(targets)
        monkeypatch.setattr(loops, "_newton", newton_step_rule)
        # one ulp of t at its scale, 1; the step rule stops t on 1e-16
        assert np.max(np.abs(t - rec.solve(targets))) <= np.spacing(1.0)


class TestInverse:
    def test_roundtrip_fundamental(self, sine_orbit):
        z = lc.inverse(sine_orbit)
        assert z.klass == loops.ODD_SINE
        taus = np.linspace(0, 2, 1501)
        assert np.max(np.abs(z(taus) - np.sin(np.pi * taus))) < 1e-7

    def test_forward_of_inverse_reproduces_orbit(self, sine_orbit):
        z = lc.inverse(sine_orbit)
        orbit2 = lc.forward(z, n_t=sine_orbit.n)
        assert np.max(np.abs(orbit2.q - sine_orbit.q)) < 1e-7

    def test_roundtrip_rich_loop(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03])
        orbit = lc.forward(z)
        z2 = lc.inverse(orbit)
        assert z2.klass == loops.ODD_SINE
        taus = np.linspace(0, 2, 801)
        assert np.max(np.abs(z2(taus) - z(taus))) < 1e-7

    def test_analysis_fault_is_not_masked(self, sine_orbit, monkeypatch):
        # only a symmetry mismatch falls back to the full class; any other
        # failure of the analysis must reach the caller
        analyze = loops.analyze

        def broken(samples, klass, tol=loops.SYMMETRY_TOL):
            if klass != loops.FULL:
                raise FloatingPointError("fault in analysis")
            return analyze(samples, klass, tol)

        monkeypatch.setattr(loops, "analyze", broken)
        with pytest.raises(FloatingPointError):
            lc.inverse(sine_orbit)

    def test_roundtrip_three_collisions(self):
        # triple cover: sign-switching zeros at 0, 1/3, 2/3 off the sample grid
        z3 = loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0]), 3)
        orbit = lc.forward(z3)
        assert orbit.zeros.size == 3
        l2_sq = 3.0 ** (-2.0 / 3.0) / 2.0
        assert abs(lc.reciprocal_integral(orbit) - 1.0 / l2_sq) < 1e-6
        z_rec = lc.inverse(orbit)
        taus = np.linspace(0, 2, 901)
        assert np.max(np.abs(z_rec(taus) - z3(taus))) < 1e-7

    def test_constant_orbit(self):
        orbit = lc.forward(loops.from_coeffs(loops.EVEN_COSINE, [1.0]), n_t=2048)
        z = lc.inverse(orbit)
        assert z.klass == loops.EVEN_COSINE
        assert abs(z.coeffs[0] - 1.0) < 1e-9
        assert np.max(np.abs(z.coeffs[1:])) < 1e-9

    def test_double_zero_rejected(self):
        # q ~ t^2 near its zero: reciprocal integral diverges
        t = np.arange(4096) / 4096
        q = np.sin(np.pi * t) ** 2 + 1e-30
        orbit = lc.Orbit(t, q, np.array([0.0]), qbar=0.5)
        with pytest.raises(NonRegularizableError):
            lc.inverse(orbit)


class TestQResidual:
    def test_certified_point_satisfies_ode(self, cert_rho):
        res = lc.loop_residual(cert_rho.z, cert_rho.r)
        assert res["ode_res"] < 1e-5
        assert res["beta_mu_res"] < 1e-5

    def test_free_fall_beta(self, seed64):
        res = lc.loop_residual(seed64.z, 0.0)
        assert res["beta_mu_res"] < 1e-5

    def test_unit_orbit_residual_is_two(self):
        orbit = lc.forward(loops.from_coeffs(loops.EVEN_COSINE, [1.0]), n_t=1024)
        res = lc.q_residual(orbit, 0.0, method="fd")
        assert abs(res["ode_res"] - 2.0) < 1e-10

    def test_negative_r_rejected(self, sine_orbit):
        with pytest.raises(DomainError):
            lc.q_residual(sine_orbit, -1.0)

    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_non_finite_r_rejected(self, sine_orbit, r):
        with pytest.raises(DomainError):
            lc.q_residual(sine_orbit, r)

    def test_only_the_stencil_is_a_method(self, sine_orbit):
        assert lc.q_residual(sine_orbit, 0.0, method="fd") == lc.q_residual(sine_orbit, 0.0)
        with pytest.raises(DomainError) as info:
            lc.q_residual(sine_orbit, 0.0, method="spectral")
        assert info.value.tag == "levi_civita.method"


@pytest.fixture(scope="module")
def cert_five(frozen_path):
    """The certified point at the r = 5 end of the shared path."""
    assert frozen_path.steps[-1].parameter == 5.0
    return frozen_path.steps[-1].cert


class TestLoopResidual:
    @pytest.mark.parametrize("which", ["cert_rho", "cert_five"])
    def test_fft_jets_match_dense_rows(self, request, which):
        # the slow dense rows stay only as the oracle of the FFT path
        z = request.getfixturevalue(which).z
        m = 4096
        fast = lc._uniform_jets(z, m)
        dense = loops.jets(z, np.arange(m) / m, (0, 1, 2))
        for got, want in zip(fast, dense):
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_unit_orbit_residual_is_two(self):
        # q = 1, qdd = 0: ode_res = 2/q^2 = 2, and beta q^3 + 2 = 2 too
        res = lc.loop_residual(loops.from_coeffs(loops.EVEN_COSINE, [1.0]), 0.0)
        assert abs(res["ode_res"] - 2.0) < 1e-12
        assert abs(res["beta_mu_res"] - 2.0) < 1e-12

    def test_sine_orbit_closed_form(self, sine_loop):
        # z = sin(pi tau), ||z||^2 = 1/2: qdd = -pi^2 / (2 q^2), so the ODE
        # residual is (2 - pi^2/2) / q^2 and beta q^3 + 2 = 2 - pi^2/2
        m = 1024
        q = np.sin(np.pi * np.arange(m) / m) ** 2
        q = q[q >= lc.SAFE_FRACTION * np.max(q)]
        res = lc.loop_residual(sine_loop, 0.0, samples=m)
        c = np.pi**2 / 2.0 - 2.0
        assert abs(res["ode_res"] - c / np.min(q) ** 2) < 1e-11 * res["ode_res"]
        assert abs(res["beta_mu_res"] - c) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.one_of(
            st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=True),
            st.sampled_from([np.nan, np.inf]),
        )
    )
    def test_bad_r_rejected(self, sine_loop, r):
        with pytest.raises(DomainError) as info:
            lc.loop_residual(sine_loop, r)
        assert info.value.tag == "frozen.r"

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8), klass=st.sampled_from(loops.CLASSES))
    def test_zero_loop_rejected(self, n, klass):
        with pytest.raises(DomainError) as info:
            lc.loop_residual(loops.from_coeffs(klass, np.zeros(n)), 1.0)
        assert info.value.tag == "levi_civita.degenerate-loop"

    @settings(max_examples=40, deadline=None)
    @given(samples=st.integers(max_value=0))
    def test_non_positive_samples_rejected(self, sine_loop, samples):
        with pytest.raises(DomainError) as info:
            lc.loop_residual(sine_loop, 1.0, samples=samples)
        assert info.value.tag == "levi_civita.samples"


def test_package_import_adds_only_numpy():
    # against the interpreter's own start-up modules, which site hooks may
    # extend (certifi, _distutils_hack) before any import of ours
    src = os.path.dirname(os.path.dirname(frozenplanet.__file__))
    code = (
        "import sys\n"
        "def top(): return {m.split('.')[0] for m in sys.modules}\n"
        "bare = top()\n"
        "import frozenplanet\n"
        "print(sorted(top() - bare - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "['frozenplanet', 'numpy']"
