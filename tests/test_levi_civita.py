import os
import subprocess
import sys

import numpy as np
import pytest

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

    def test_forward_starts_at_zero(self, sine_orbit):
        assert sine_orbit.taus[0] == 0.0


class TestLoopZeros:
    def test_triple_cover(self):
        z = loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03]), 3)
        zs = lc.loop_zeros(z)
        assert np.max(np.abs(zs - [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])) < 1e-14

    def test_interior_zeros_of_a_full_loop(self):
        # z = cos(pi tau) - 1/2 + 0.1 sin(3 pi tau)
        z = loops.from_coeffs(loops.FULL, [-0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.1])
        zs = lc.loop_zeros(z)
        assert zs.size == 1 and 0.0 < zs[0] < 1.0
        assert abs(z([zs[0]])[0]) < 1e-15

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_high_order_zero_has_no_noise_zeros(self, p):
        # next to a zero of order p the scan sees sign changes of rounding
        # noise only; before the noise floor, p = 7 gave
        # [0, 0.00131, 0.99868, 1]
        z = loops.analyze(np.sin(np.pi * loops.grid_points(256)) ** p, loops.ODD_SINE)
        assert np.array_equal(lc.loop_zeros(z), [0.0, 1.0])

    def test_zero_loop_rejected(self):
        with pytest.raises(DegenerateLoopError, match="identically zero"):
            lc.loop_zeros(loops.from_coeffs(loops.ODD_SINE, [0.0, 0.0]))

    def test_flat_stretch_rejected(self):
        # sin^17 stays below 1e-13 of its peak on about 450 of 4097 scan points
        g = loops.grid_points(256)
        with pytest.raises(DegenerateLoopError, match="vanishes on an interval"):
            lc.loop_zeros(loops.analyze(np.sin(np.pi * g) ** 17, loops.ODD_SINE))


class TestForward:
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
        res_fd = lc.q_residual(sine_orbit, 0.0, safe_fraction=0.5, method="fd")
        res_sp = lc.q_residual(sine_orbit, 0.0, safe_fraction=0.5, method="spectral")
        assert abs(res_fd["ode_res"] - res_sp["ode_res"]) < 1e-4
        assert abs(res_fd["beta_mu_res"] - res_sp["beta_mu_res"]) < 1e-4


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


class TestInverse:
    def test_roundtrip_fundamental(self, sine_orbit):
        z = lc.inverse(sine_orbit, parity="odd")
        assert z.klass == loops.ODD_SINE
        taus = np.linspace(0, 2, 1501)
        assert np.max(np.abs(z(taus) - np.sin(np.pi * taus))) < 1e-7

    def test_forward_of_inverse_reproduces_orbit(self, sine_orbit):
        z = lc.inverse(sine_orbit, parity="odd")
        orbit2 = lc.forward(z, n_t=sine_orbit.n)
        assert np.max(np.abs(orbit2.q - sine_orbit.q)) < 1e-7

    def test_roundtrip_rich_loop(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.03])
        orbit = lc.forward(z)
        z2 = lc.inverse(orbit, parity="odd")
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
            lc.inverse(sine_orbit, parity="odd")

    def test_roundtrip_three_collisions(self):
        # triple cover: sign-switching zeros at 0, 1/3, 2/3 off the sample grid
        z3 = loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0]), 3)
        orbit = lc.forward(z3)
        assert orbit.zeros.size == 3
        l2_sq = 3.0 ** (-2.0 / 3.0) / 2.0
        assert abs(lc.reciprocal_integral(orbit) - 1.0 / l2_sq) < 1e-6
        z_rec = lc.inverse(orbit, parity="odd")
        taus = np.linspace(0, 2, 901)
        assert np.max(np.abs(z_rec(taus) - z3(taus))) < 1e-7

    def test_constant_orbit(self):
        orbit = lc.forward(loops.from_coeffs(loops.EVEN_COSINE, [1.0]), n_t=2048)
        z = lc.inverse(orbit, parity="even")
        assert z.klass == loops.EVEN_COSINE
        assert abs(z.coeffs[0] - 1.0) < 1e-9
        assert np.max(np.abs(z.coeffs[1:])) < 1e-9

    def test_double_zero_rejected(self):
        # q ~ t^2 near its zero: reciprocal integral diverges
        t = np.arange(4096) / 4096
        q = np.sin(np.pi * t) ** 2 + 1e-30
        orbit = lc.Orbit(t, q, np.array([0.0]), qbar=0.5)
        with pytest.raises(NonRegularizableError):
            lc.inverse(orbit, parity="odd")

    def test_parity_mismatch_rejected(self, sine_orbit):
        with pytest.raises(DomainError):
            lc.inverse(sine_orbit, parity="even")


class TestQResidual:
    def test_certified_point_satisfies_ode(self, cert_rho):
        orbit = lc.forward(cert_rho.z, n_t=4096)
        res = lc.q_residual(orbit, cert_rho.r)
        assert res["ode_res"] < 1e-5
        assert res["beta_mu_res"] < 1e-5

    def test_free_fall_beta(self, seed64):
        orbit = lc.forward(seed64.z, n_t=4096)
        res = lc.q_residual(orbit, 0.0)
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


def test_package_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(frozenplanet.__file__))
    code = "import sys, frozenplanet; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
