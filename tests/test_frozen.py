import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozenplanet import frozen, loops, solve
from frozenplanet.errors import DomainError

RHO = (np.sqrt(2.0) - 1.0) ** 2
AMP = (2.0 / np.pi) ** (1.0 / 3.0)


def random_loop(rng, n=8, floor=0.4):
    coeffs = rng.normal(size=n) * np.exp(-0.6 * np.arange(n))
    coeffs[0] = np.sign(coeffs[0] or 1.0) * max(abs(coeffs[0]), floor)
    return loops.from_coeffs(loops.ODD_SINE, coeffs)


class TestValue:
    def test_fundamental_r0(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        assert abs(frozen.value(z, 0.0) - (np.pi**2 / 2 + 4.0)) < 1e-12

    def test_fundamental_r1(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        assert abs(frozen.value(z, 1.0) - (np.pi**2 / 2 + 4.0 + 4.0 / 3.0)) < 1e-12

    def test_scaling_homogeneity(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2])
        g = loops.gram_diag(z.klass, z.n)
        w = loops.frequencies(z.klass, z.n)
        l2_sq = np.sum(g * z.coeffs**2)
        d1_sq = np.sum(g * (w * z.coeffs) ** 2)
        for c in (0.5, 2.0):
            zc = loops.from_coeffs(loops.ODD_SINE, c * z.coeffs)
            want = c**4 * 2.0 * l2_sq * d1_sq + 2.0 / (c**2 * l2_sq)
            assert abs(frozen.value(zc, 0.0) - want) < 1e-11

    def test_zero_loop_rejected(self):
        with pytest.raises(DomainError) as exc:
            frozen.value(loops.from_coeffs(loops.ODD_SINE, [0.0]), 0.0)
        assert exc.value.tag == "frozen.zero-loop"

    @pytest.mark.parametrize("r", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_parameter_rejected(self, r):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        for fn in (frozen.value, frozen.coefficients):
            with pytest.raises(DomainError) as exc:
                fn(z, r)
            assert exc.value.tag == "frozen.r"


class TestGradient:
    def test_free_fall_residual(self):
        z = loops.from_coeffs(loops.ODD_SINE, [AMP, 0.0, 0.0, 0.0])
        gl = frozen.gradient(z, 0.0)
        taus = np.linspace(0, 2, 257)
        assert np.max(np.abs(gl(taus))) < 1e-10

    def test_linear_part_coefficient(self):
        # for the plain fundamental at r = 0 the gradient is -4||z||^2 (z'' + b z)
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        b = 8.0 - np.pi**2
        gl = frozen.gradient(z, 0.0)
        want = -4.0 * 0.5 * (-np.pi**2 + b)
        assert abs(gl.coeffs[0] - want) < 1e-12
        assert np.max(np.abs(gl.coeffs[1:])) < 1e-12

    @pytest.mark.parametrize("r", [0.0, 0.1, RHO, 1.0, 5.0])
    def test_matches_finite_differences(self, r):
        rng = np.random.default_rng(17)
        z = random_loop(rng)
        gl = frozen.gradient(z, r)
        g = loops.gram_diag(gl.klass, gl.n)
        h = 1e-6
        for _ in range(20):
            xi = rng.normal(size=z.n)
            zp = loops.from_coeffs(z.klass, z.coeffs + h * xi)
            zm = loops.from_coeffs(z.klass, z.coeffs - h * xi)
            fd = (frozen.value(zp, r) - frozen.value(zm, r)) / (2 * h)
            ip = float(np.sum(g[: z.n] * gl.coeffs[: z.n] * xi))
            assert abs(ip - fd) / max(1.0, abs(fd)) < 1e-6


class TestHessian:
    def test_free_fall_positive_definite(self, seed64):
        h = frozen.hessian_analytic(seed64.z, 0.0)
        evals = np.linalg.eigvalsh(h)
        assert np.all(evals > 0)

    def test_symmetry_at_certified_point(self, cert_rho):
        h = frozen.hessian_analytic(cert_rho.z, cert_rho.r)
        assert np.max(np.abs(h - h.T)) < 1e-8

    def test_analytic_matches_finite_differences(self, cert_rho, frozen_fd_hessian):
        z32 = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:24])
        h1 = frozen.hessian_analytic(z32, cert_rho.r)
        h2 = frozen_fd_hessian(z32, cert_rho.r, 1e-6)
        assert np.max(np.abs(h1 - h2)) < 1e-5

    def test_fd_mode_symmetry(self, frozen_fd_hessian):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.05, 0.01])
        h = frozen_fd_hessian(z, 0.7, 1e-6)
        assert np.max(np.abs(h - h.T)) < 1e-8

    def test_off_critical_precondition(self, frozen_fd_hessian):
        # the analytic Hessian assumes no criticality: it matches central
        # differences of the gradient at a point far from critical
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.3])
        assert frozen.grad_res(z, 1.0) > 1.0
        h = frozen.hessian_analytic(z, 1.0)
        h_fd = frozen_fd_hessian(z, 1.0)
        assert h.shape == (2, 2)
        assert np.max(np.abs(h - h_fd)) < 1e-8 * np.max(np.abs(h))


class TestNormChainRule:
    @pytest.mark.parametrize("klass", [loops.ODD_SINE, loops.FULL])
    def test_curvature_in_s_without_slope(self, klass):
        # F = c (s - s0)^2 has F_s = 0 at s = s0 but F_ss = 2c: the Hessian
        # still reads z^3, and matches central differences of the gradient
        z0 = loops.from_coeffs(klass, [0.3, 1.0, -0.2, 0.1, 0.05])
        sg = np.sqrt(loops.gram_diag(klass, z0.n))
        s0, c = loops.norm_data(z0)[2], 0.7

        def grad(x):
            z = loops.from_coeffs(klass, x / sg)
            s = loops.norm_data(z)[2]
            return sg * frozen.norm_gradient(z, (0.0, 0.0, 2.0 * c * (s - s0)))[: z.n]

        h = frozen.norm_hessian((z0,), np.zeros(3), np.diag([0.0, 0.0, 2.0 * c]))
        x0, step = sg * z0.coeffs, 1e-6
        fd = np.array([grad(x0 + step * e) - grad(x0 - step * e) for e in np.eye(z0.n)]) / (2 * step)
        assert np.max(np.abs(h)) > 1.0
        assert np.max(np.abs(h - fd)) < 1e-7 * np.max(np.abs(h))


def fft_gather(z):
    """M[z^2] gathered from one FFT of z^2 on the dealiased grid of P points:
    with e_j / sqrt(g_j) = a_j e^{i pi f_j tau} + c.c., a_j = (1/2, or -i/2
    for a sine) / sqrt(g_j), and W[m] the grid mean of z^2 e^{i pi m tau}
    (indexed mod P), M_jk = 2 Re(a_j a_k W[f_j + f_k] + a_j conj(a_k)
    W[f_j - f_k]); the oracle for the product-to-sum rule."""
    n = z.n
    p = loops.quad_size(z.n_active_modes())
    f, sine = loops._layout(z.klass, n)
    a = np.where(sine, -0.5j, 0.5) / np.sqrt(loops.gram_diag(z.klass, n))
    half = np.fft.rfft(z.quad_samples() ** 2) / p
    w = np.conj(np.concatenate([half, np.conj(half[-2:0:-1])]))
    fj, fk = f[:, None], f[None, :]
    mult = np.outer(a, a) * w[(fj + fk) % p] + np.outer(a, a.conj()) * w[(fj - fk) % p]
    return 2.0 * mult.real


def negative_loop(klass, n, seed):
    """A loop of decaying random coefficients, negative on part of its grid."""
    c = np.random.default_rng(seed).normal(size=n) * np.exp(-0.1 * np.arange(n))
    z = loops.from_coeffs(klass, c)
    assert np.any(z.quad_samples() < 0.0)
    return z


class TestCubicGalerkinOracle:
    """``_cubic_galerkin``'s product-to-sum M[z^2] against the dense table
    (B / sqrt(g)) diag(z^2) (B / sqrt(g))^T / P and (B / sqrt(g)) z^3 / P
    on the same dealiased grid, and against the FFT gather it replaced,
    for every class and both parities of a full loop's coefficient count."""

    @staticmethod
    def check(klass, n, seed):
        c = np.random.default_rng(seed).normal(size=n)
        z = loops.from_coeffs(klass, c)
        p = loops.quad_size(z.n_active_modes())
        taus = loops.grid_points(p)
        basis = loops.basis_matrix(klass, n, taus) / np.sqrt(loops.gram_diag(klass, n))[:, None]
        zs = z(taus)
        c3, mult = frozen._cubic_galerkin(z)
        scale = max(1.0, float(np.sum(np.abs(c))))
        assert np.max(np.abs(mult - basis @ (zs[:, None] ** 2 * basis.T) / p)) <= 1e-12 * scale**2
        assert np.max(np.abs(mult - fft_gather(z))) <= 1e-14 * scale**2
        assert np.max(np.abs(c3 - basis @ zs**3 / p)) <= 1e-12 * scale**3
        assert np.array_equal(mult, mult.T)

    @settings(max_examples=60, deadline=None)
    @given(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_matches_dense_build(self, klass, n, seed):
        self.check(klass, n, seed)

    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("n", [64, 128])
    def test_solver_sizes(self, klass, n):
        self.check(klass, n, n)

    @pytest.mark.parametrize("klass", loops.CLASSES)
    def test_hessian_transforms_nothing_once_square_is_cached(self, monkeypatch, klass):
        # with the cube and the square of z cached, M[z^2] is read off the
        # square's coefficients: hessian_analytic makes no FFT
        z = negative_loop(klass, 12, 3)
        loops.norm_data(z), loops.cube(z), loops.square(z)
        want = frozen.hessian_analytic(loops.from_coeffs(klass, z.coeffs), 5.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.fft called")

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        assert np.array_equal(frozen.hessian_analytic(z, 5.0), want)


class TestPowersByMultiplication:
    """norm_data, cube and energy_check multiply the samples; against the
    ``**`` forms on loops negative on part of their grid, to 1e-15 of the
    scale of the result."""

    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_pow(self, klass, seed):
        z = negative_loop(klass, 16, seed)
        p = loops.quad_size(z.n_active_modes())
        v = z.quad_samples()
        scale = float(np.max(np.abs(v)))
        assert abs(loops.norm_data(z)[2] - float(np.mean(v**4))) <= 1e-15 * scale**4
        klass3, n3 = loops._power_layout(klass, z.n, 3)
        want = loops.project(klass3, v**3, n3)
        assert np.max(np.abs(loops.cube(z).coeffs - want)) <= 1e-15 * scale**3
        a, b = frozen.coefficients(z, 5.0)
        d1 = loops.derivative(z)
        zp = loops._synthesize_uniform(d1.klass, d1.coeffs, p)
        e = 0.5 * zp**2 + 0.5 * b * v**2 + 0.5 * a * v**4
        got = frozen.energy_check(z, 5.0)
        c = 2.0 * float(np.mean(e))
        e_scale = float(np.max(np.abs(zp**2) + abs(b) * v**2 + abs(a) * v**4))
        assert abs(got["c"] - c) <= 1e-15 * e_scale
        assert abs(got["deviation"] - float(np.max(np.abs(2.0 * e - c)))) <= 1e-15 * e_scale


class TestEnergy:
    def test_free_fall_constant(self):
        z = loops.from_coeffs(loops.ODD_SINE, [AMP, 0.0, 0.0, 0.0])
        out = frozen.energy_check(z, 0.0)
        assert abs(out["c"] - np.pi**2 * AMP**2) < 1e-12
        assert out["deviation"] < 1e-8

    def test_certified_point(self, cert_rho):
        out = frozen.energy_check(cert_rho.z, cert_rho.r)
        assert out["deviation"] < 1e-7
        assert out["c"] > 0

    def test_noncritical_diagnostic(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.3])
        out = frozen.energy_check(z, 1.0)
        assert out["deviation"] > 0.1  # conservation only holds at critical points


class TestShapeIdentity:
    def test_free_fall_values(self, seed64):
        assert abs(seed64.v - 0.5) < 1e-10
        assert abs(seed64.w - 4.0 / 3.0) < 1e-9
        res1, res2 = frozen.vw_residuals(seed64.v, seed64.w, seed64.r)
        assert res1 < 1e-10 and res2 < 1e-10

    def test_certified_point(self, cert_rho):
        res1, res2 = frozen.vw_residuals(cert_rho.v, cert_rho.w, cert_rho.r)
        assert res1 < 1e-7 and res2 < 1e-7

    def test_both_b_forms_agree_at_critical(self, cert_rho):
        b_gen = frozen.coefficients(cert_rho.z, cert_rho.r)[1]
        b_crit = frozen.critical_b(cert_rho.z, cert_rho.r)
        assert abs(b_gen - b_crit) < 1e-8

    def test_b_forms_differ_off_critical(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.4])
        b_gen, b_crit = frozen.coefficients(z, 1.0)[1], frozen.critical_b(z, 1.0)
        assert abs(b_gen - b_crit) > 1e-3


class TestBounds:
    def test_upper_bound_gate(self, cert_rho):
        out = frozen.sup_bounds(cert_rho.z, cert_rho.r)
        assert out["upper_ok"]

    def test_lower_bound_is_diagnostic_only(self, seed64):
        # the explicit free-fall amplitude sits below 1 under this
        # normalization; the lower bound is reported, not gated
        out = frozen.sup_bounds(seed64.z, 0.0)
        assert not out["lower_ok"]
        assert abs(out["sup"] - AMP) < 1e-9


class TestNondegeneracy:
    def test_invertible_on_symmetric_space(self, cert_rho):
        rep = solve.spectrum(cert_rho)
        assert rep.nullity == 0
        assert rep.min_abs > 1e-4

    def test_mode_converged_at_rho(self, cert_rho):
        """Index 0, nullity 0 and the same min |eig| at N = 64, 128, 256."""
        certs = [cert_rho] + [
            solve.solve_frozen(cert_rho.r, n_modes=n).steps[-1].cert for n in (128, 256)
        ]
        reps = [solve.spectrum(c) for c in certs]
        assert [c.z.n for c in certs] == [64, 128, 256]
        assert all(rep.morse_index == 0 and rep.nullity == 0 for rep in reps)
        mins = np.array([rep.min_abs for rep in reps])
        assert np.max(np.abs(mins - mins[0])) < 1e-10 * mins[0]


@pytest.mark.parametrize("amp", [1e80, 1e100, 1e160])
def test_overflowing_norms_are_domain_errors(amp):
    # far out along a long continuation step a predicted seed can reach
    # norms whose functional overflows the float range
    z = loops.from_coeffs(loops.ODD_SINE, [amp, 0.5 * amp, 0.25 * amp])
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (frozen.value, frozen.gradient, frozen.hessian_analytic):
            with pytest.raises(DomainError) as exc:
                fn(z, 1.0)
            assert exc.value.tag == "frozen.overflow"
