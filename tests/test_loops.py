import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozenplanet import frozen, helium, loops
from frozenplanet.errors import ClassMismatchError, DomainError


def grid(m=64):
    return loops.grid_points(m)


class TestAnalyze:
    def test_sine_basis_element(self):
        z = loops.analyze(np.sin(np.pi * grid()), loops.ODD_SINE)
        assert abs(z.coeffs[0] - 1.0) < 1e-13
        assert np.max(np.abs(z.coeffs[1:])) < 1e-13

    def test_cosine_basis_element(self):
        z = loops.analyze(np.cos(2 * np.pi * grid()), loops.EVEN_COSINE)
        assert abs(z.coeffs[1] - 1.0) < 1e-13
        assert abs(z.coeffs[0]) < 1e-14

    def test_parity_violation_rejected(self):
        with pytest.raises(ClassMismatchError):
            loops.analyze(np.sin(np.pi * grid()), loops.EVEN_COSINE)

    def test_band_limited_reproduction(self):
        g = grid(128)
        samples = 0.7 * np.sin(np.pi * g) - 0.2 * np.sin(5 * np.pi * g)
        z = loops.analyze(samples, loops.ODD_SINE)
        assert np.max(np.abs(z(g) - samples)) < 1e-12

    def test_sample_count_multiple_of_four(self):
        with pytest.raises(DomainError):
            loops.analyze(np.zeros(30), loops.ODD_SINE)


class TestNorms:
    def test_fundamental_sine(self):
        n = loops.norms(loops.from_coeffs(loops.ODD_SINE, [1.0]))
        assert abs(n["l2"] ** 2 - 0.5) < 1e-13
        assert abs(n["l2_deriv"] ** 2 - np.pi**2 / 2) < 1e-11
        assert abs(n["l2_square"] ** 2 - 3.0 / 8.0) < 1e-13
        assert abs(n["sup"] - 1.0) < 1e-10

    def test_homogeneity(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, -0.3])
        zc = loops.from_coeffs(loops.ODD_SINE, 0.5 * z.coeffs)
        n, nc = loops.norms(z), loops.norms(zc)
        assert abs(nc["l2"] - 0.5 * n["l2"]) < 1e-13
        assert abs(nc["l2_deriv"] - 0.5 * n["l2_deriv"]) < 1e-12
        assert abs(nc["l2_square"] - 0.25 * n["l2_square"]) < 1e-13
        assert abs(nc["sup"] - 0.5 * n["sup"]) < 1e-10

    def test_cosine_l2(self):
        n = loops.norms(loops.from_coeffs(loops.EVEN_COSINE, [0.0, 1.0]))
        assert abs(n["l2"] ** 2 - 0.5) < 1e-13

    def test_norm_data_closed_form_and_cached(self):
        # z = 1/2 + cos(2 pi tau): mean of z^4 is 1/16 + 3/4 + 3/8
        z = loops.from_coeffs(loops.EVEN_COSINE, [0.5, 1.0])
        data = loops.norm_data(z)
        assert data == pytest.approx((0.75, 2.0 * np.pi**2, 1.1875), rel=1e-14)
        assert loops.norm_data(z) is data


class TestDerivative:
    def test_fundamental(self):
        d = loops.derivative(loops.from_coeffs(loops.ODD_SINE, [1.0]))
        taus = np.linspace(0, 2, 41)
        assert np.max(np.abs(d(taus) - np.pi * np.cos(np.pi * taus))) < 1e-12
        assert d.symmetry_note == "odd-cosine"

    def test_constant_maps_to_zero(self):
        d = loops.derivative(loops.from_coeffs(loops.EVEN_COSINE, [2.0]))
        assert np.max(np.abs(d(np.linspace(0, 2, 17)))) < 1e-14

    def test_third_harmonic(self):
        d = loops.derivative(loops.from_coeffs(loops.ODD_SINE, [0.0, 1.0]))
        taus = np.linspace(0, 2, 41)
        assert np.max(np.abs(d(taus) - 3 * np.pi * np.cos(3 * np.pi * taus))) < 1e-12

    def test_full_loop_with_trailing_cosine(self):
        # [c0, a1]: the top cosine has no sine partner in the input layout
        d = loops.derivative(loops.from_coeffs(loops.FULL, [0.3, 1.0]))
        taus = np.linspace(0, 2, 41)
        assert np.max(np.abs(d(taus) + np.pi * np.sin(np.pi * taus))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_match_loop_and_central_difference(self, klass, n, seed):
        z = loops.from_coeffs(klass, np.random.default_rng(seed).normal(size=n))
        taus = np.linspace(0.0, 2.0, 57)
        scale = np.pi * max(1, loops.mode_count(klass, n)) * max(1.0, np.sum(np.abs(z.coeffs)))
        values = loops.derivative_values(z, taus)
        assert np.max(np.abs(values - loops.derivative(z)(taus))) < 1e-12 * scale
        h = 1e-5
        central = (z(taus + h) - z(taus - h)) / (2 * h)
        assert np.max(np.abs(values - central)) < 1e-6 * scale


class TestSlotMap:
    """The class layouts placed through ``_slot``: embedding and covering."""

    cases = dict(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    taus = np.linspace(0.0, 2.0, 73)

    @settings(max_examples=30, deadline=None)
    @given(**cases)
    def test_embed_full_keeps_values(self, klass, n, seed):
        z = loops.from_coeffs(klass, np.random.default_rng(seed).normal(size=n))
        zf = loops.embed_full(z)
        assert zf.klass == loops.FULL
        scale = max(1.0, np.sum(np.abs(z.coeffs)))
        assert np.max(np.abs(zf(self.taus) - z(self.taus))) < 1e-13 * scale

    @settings(max_examples=30, deadline=None)
    @given(cover=st.integers(1, 5), **cases)
    def test_rescale_cover_substitutes(self, klass, n, seed, cover):
        if klass == loops.ODD_SINE and cover % 2 == 0:
            cover += 1
        z = loops.from_coeffs(klass, np.random.default_rng(seed).normal(size=n))
        zn = loops.rescale_cover(z, cover)
        assert zn.klass == klass
        want = cover ** (-1.0 / 3.0) * z(cover * self.taus)
        scale = max(1.0, np.sum(np.abs(z.coeffs)))
        assert np.max(np.abs(zn(self.taus) - want)) < 1e-12 * scale


    def test_full_cube_sized_by_top_frequency(self):
        # top frequency F = 2, so z^3 fills the 6F + 1 = 13 slots up to sin 6
        z = loops.from_coeffs(loops.FULL, [0.3, 1.0, -0.5, 0.2, 0.1])
        assert z.n_active_modes() == 2
        z3 = loops.cube(z)
        assert z3.n == 13
        assert abs(z3.coeffs[-1]) > 1e-3
        assert np.max(np.abs(z3(self.taus) - z(self.taus) ** 3)) < 1e-13


class TestSupNorm:
    @settings(max_examples=30, deadline=None)
    @given(klass=st.sampled_from(loops.CLASSES), n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_refines_the_scan(self, klass, n, seed):
        c = np.random.default_rng(seed).normal(size=n) / (1.0 + np.arange(n))
        z = loops.from_coeffs(klass, c)
        sup = loops.sup_norm(z)
        p = max(4 * loops.quad_size(z.n_active_modes()), 512)  # the scan sup_norm refines
        scan = np.max(np.abs(loops._synthesize_uniform(klass, c, p)))
        taus = np.linspace(0.0, 2.0, 100_001)
        dense = np.max(np.abs(z(taus)))
        # sampling at spacing h misses the maximum by at most h^2 max|z''| / 8
        miss = (taus[1] ** 2 / 8) * np.sum(np.abs(loops.second_derivative_coeffs(z)))
        assert sup >= scan
        assert dense - 1e-14 <= sup <= dense + miss + 1e-14


class TestNewton:
    """The shared bracketed Newton ``loops._newton`` behind every 1-D inversion."""

    def test_vanishing_slope_converges_by_midpoint(self):
        # f = x^3 - c; at c = 0 the slope vanishes at the root, where plain
        # Newton only contracts by 2/3 a step and never leaves x > 0
        c = np.array([0.0, 1e-30, 8.0, -27.0])
        seen = []

        def cube(x, idx):
            seen.append((x.copy(), idx.copy()))
            return x**3 - c[idx], 3.0 * x**2

        x = loops._newton(
            cube, np.full(4, -4.0), np.full(4, 5.0), np.full(4, 4.5),
            tol=1e-15, max_iter=200, min_slope=1e-14,
        )
        assert np.max(np.abs(x - np.cbrt(c))) < 1e-15
        # only a midpoint of the bracket reaches the negative side
        assert any(np.any(xs[idx == 0] < 0.0) for xs, idx in seen)

    def test_exact_root_is_kept(self):
        # the slope is 0 at x0 = 0, so without the exact-root rule the
        # bracket midpoint would replace it
        calls = []

        def cube(x, idx):
            calls.append(x.copy())
            return x**3, 3.0 * x**2

        x = loops._newton(cube, [-1.0], [2.0], [0.0], tol=1e-15, max_iter=50, min_slope=1e-14)
        assert x[0] == 0.0
        assert len(calls) == 1

    def test_overshooting_steps_stay_in_bracket(self):
        # Newton on arctan(x - r) diverges from |x - r| > 1.39: the first
        # step from r + 5 lands near r - 31, far outside [r - 10, r + 10]
        r = np.array([-0.3, 0.0, 0.7, 2.0])
        lo, hi = r - 10.0, r + 10.0
        assert 5.0 - np.arctan(5.0) * 26.0 < -10.0
        seen = []

        def atan(x, idx):
            seen.append((x.copy(), idx.copy()))
            return np.arctan(x - r[idx]), 1.0 / (1.0 + (x - r[idx]) ** 2)

        x = loops._newton(atan, lo, hi, r + 5.0, tol=1e-15, max_iter=100)
        for xs, idx in seen:
            assert np.all((lo[idx] <= xs) & (xs <= hi[idx]))
        assert np.max(np.abs(x - r)) < 1e-15


class TestRescaleCover:
    def test_substitution(self):
        z3 = loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0]), 3)
        taus = np.linspace(0, 2, 37)
        want = 3.0 ** (-1 / 3) * np.sin(3 * np.pi * taus)
        assert np.max(np.abs(z3(taus) - want)) < 1e-13

    def test_identity_cover(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2])
        assert loops.rescale_cover(z, 1) is z

    def test_even_cover_leaves_class(self):
        with pytest.raises(ClassMismatchError):
            loops.rescale_cover(loops.from_coeffs(loops.ODD_SINE, [1.0]), 2)

    def test_critical_point_covariance(self, cert_rho):
        z3 = loops.rescale_cover(cert_rho.z, 3)
        a3 = cert_rho.coeffs.a * 3.0 ** (8.0 / 3.0)
        b3 = cert_rho.coeffs.b * 9.0
        assert frozen.ode_residual(z3, a3, b3) < 1e-8


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
    def test_parseval(self, coeffs):
        z = loops.from_coeffs(loops.ODD_SINE, coeffs)
        quad_l2 = np.sqrt(np.mean(z.quad_samples() ** 2))
        coeff_l2 = np.sqrt(np.sum(loops.gram_diag(z.klass, z.n) * z.coeffs**2))
        assert abs(quad_l2 - coeff_l2) < 1e-12 * max(1.0, coeff_l2)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
    def test_analyze_synthesize_roundtrip(self, coeffs):
        z = loops.from_coeffs(loops.ODD_SINE, coeffs)
        z2 = loops.analyze(loops._synthesize_uniform(z.klass, z.coeffs, 64), loops.ODD_SINE)
        n = min(z.n, z2.n)
        assert np.max(np.abs(z2.coeffs[:n] - z.coeffs[:n])) < 1e-13
        assert np.max(np.abs(z2.coeffs[n:])) < 1e-13

    def test_cube_stays_in_class(self):
        rng = np.random.default_rng(5)
        z = loops.from_coeffs(loops.ODD_SINE, rng.normal(size=5))
        z3 = loops.cube(z)
        assert z3.klass == loops.ODD_SINE
        taus = np.linspace(0.05, 1.95, 31)
        assert np.max(np.abs(z3(taus) - z(taus) ** 3)) < 1e-11

    def test_product_with_even_cosine_keeps_class(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.3])
        c = loops.from_coeffs(loops.EVEN_COSINE, [0.5, 0.25])
        taus = loops.grid_points(loops.quad_size(8))
        prod = z(taus) * c(taus)
        back = loops.analyze(prod, loops.ODD_SINE)
        assert np.max(np.abs(back(taus) - prod)) < 1e-12

    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_rejected(self, klass, bad):
        with pytest.raises(DomainError) as exc:
            loops.from_coeffs(klass, [bad, 0.1, 0.2])
        assert exc.value.tag == "loops.coeffs"

    def test_caller_array_stays_writable(self):
        c = np.zeros(3)
        z = loops.from_coeffs(loops.ODD_SINE, c)
        c[1] = 0.5
        assert np.array_equal(z.coeffs, [0.0, 0.0, 0.0])
        assert not z.coeffs.flags.writeable
        with pytest.raises(ValueError):
            z.coeffs[0] = 1.0

    def test_no_grid_synthesis_on_construction(self, monkeypatch):
        # a Loop is its coefficients; building or analyzing one synthesizes
        # no samples
        samples = loops.synthesize(loops.ODD_SINE, [1.0, 0.2], loops.grid_points(64))

        def forbidden(*args):
            raise AssertionError("uniform synthesis on construction")

        monkeypatch.setattr(loops, "_synthesize_uniform", forbidden)
        for klass in loops.CLASSES:
            loops.from_coeffs(klass, [1.0, 0.2, -0.1])
        loops.analyze(samples, loops.ODD_SINE)


def direct_trig(f, sine, taus):
    """The rows cos or sin(pi f tau) entry by entry: the oracle for ``_trig``."""
    arg = np.pi * np.outer(f, np.ravel(taus))
    return np.where(np.asarray(sine)[:, None], np.sin(arg), np.cos(arg))


class TestTrig:
    """``_trig``'s angle-addition rows against direct cos and sin.

    Row k carries k complex multiplies and the rounding of pi f_k tau, so
    its error is bounded by 1e-15 (1 + k + pi f_k |tau|).
    """

    @staticmethod
    def tables(klass, n):
        f, sine = loops._layout(klass, n)
        yield f, sine
        yield f, ~sine
        if klass != loops.FULL:
            q = helium._product_to_sum(klass, n)[0]
            yield q, np.ones(q.size, dtype=bool)
            yield q, np.zeros(q.size, dtype=bool)

    @staticmethod
    def check(f, sine, taus):
        rows = loops._trig(f, sine, taus)
        assert rows.shape == (len(f), np.size(taus))
        k = np.arange(len(f))[:, None]
        bound = 1e-15 * (1.0 + k + np.pi * np.outer(f, np.abs(np.ravel(taus))))
        assert np.all(np.abs(rows - direct_trig(f, sine, taus)) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 80),
        m=st.integers(1, 2049),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_direct(self, klass, n, m, seed):
        rng = np.random.default_rng(seed)
        taus = rng.uniform(-2.0, 4.0, m)
        # tiny |tau| down to subnormal, and both signs of zero
        tiny = rng.random(m) < 0.1
        taus[tiny] = rng.choice([-1.0, 1.0], tiny.sum()) * 10.0 ** rng.uniform(-310, -1, tiny.sum())
        taus[: min(m, 2)] = [0.0, -0.0][: min(m, 2)]
        for f, sine in self.tables(klass, n):
            self.check(f, sine, taus)

    @pytest.mark.parametrize("klass", loops.CLASSES)
    def test_scalar_and_single_point(self, klass):
        for f, sine in self.tables(klass, 9):
            self.check(f, sine, np.float64(0.37))
            self.check(f, sine, [3.99])
            assert loops._trig(f, sine, 0.25).shape == (len(f), 1)

    @pytest.mark.parametrize("klass", loops.CLASSES)
    def test_empty_layout(self, klass):
        f, sine = loops._layout(klass, 0)
        assert loops._trig(f, sine, np.linspace(0.0, 2.0, 5)).shape == (0, 5)
        assert loops._trig(f, sine, []).shape == (0, 0)
        f, sine = loops._layout(klass, 4)
        assert loops._trig(f, sine, []).shape == (4, 0)


class TestFFTOracle:
    """The uniform-grid FFT paths against the dense ``basis_matrix`` table.

    M ranges below twice the top frequency, so several coefficients fold
    into one DFT bin.
    """

    cases = dict(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 40),
        m=st.integers(1, 64).map(lambda q: 4 * q),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=60, deadline=None)
    @given(**cases)
    def test_uniform_synthesis(self, klass, n, m, seed):
        c = np.random.default_rng(seed).normal(size=n)
        dense = loops.synthesize(klass, c, loops.grid_points(m))
        fft = loops._synthesize_uniform(klass, c, m)
        assert np.max(np.abs(fft - dense)) <= 1e-12 * np.sum(np.abs(c))

    @settings(max_examples=60, deadline=None)
    @given(**cases)
    def test_projection(self, klass, n, m, seed):
        vals = np.random.default_rng(seed).normal(size=m)
        B = loops.basis_matrix(klass, n, loops.grid_points(m))
        dense = (B @ vals) / (m * loops.gram_diag(klass, n))
        assert np.max(np.abs(loops.project(klass, vals, n, p=m) - dense)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(klass=cases["klass"], n=st.integers(1, 12), seed=cases["seed"])
    def test_cube_and_analyze_roundtrip(self, klass, n, seed):
        z = loops.from_coeffs(klass, np.random.default_rng(seed).normal(size=n))
        taus = np.linspace(0.0, 2.0, 101)
        scale = max(1.0, float(np.max(np.abs(z(taus)))))
        assert np.max(np.abs(loops.cube(z)(taus) - z(taus) ** 3)) < 1e-12 * scale**3
        m = 8 * max(z.n_active_modes(), 4)
        back = loops.analyze(loops._synthesize_uniform(klass, z.coeffs, m), klass)
        assert np.max(np.abs(back.coeffs[: z.n] - z.coeffs)) < 1e-13 * scale
        assert np.max(np.abs(back.coeffs[z.n :]), initial=0.0) < 1e-13 * scale

    def test_projection_rejects_wrong_sample_count(self):
        with pytest.raises(DomainError):
            loops.project(loops.ODD_SINE, np.zeros(30), 4, p=32)


class TestSerialization:
    def test_json_roundtrip(self):
        z = loops.from_coeffs(loops.ODD_SINE, [0.9, -0.1, 0.02])
        z2 = loops.loop_from_json(loops.loop_to_json(z))
        assert z2.klass == z.klass
        assert np.array_equal(z2.coeffs, z.coeffs)
        taus = np.linspace(0, 2, 11)
        assert np.max(np.abs(z2(taus) - z(taus))) < 1e-15
