import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frozenplanet import frozen, loops
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


def norms(z):
    """||z||, ||z'||, ||z^2|| (the square roots of ``norm_data``) and the
    sup norm."""
    return (*np.sqrt(loops.norm_data(z)), loops.sup_norm(z))


class TestNorms:
    def test_fundamental_sine(self):
        l2, l2_deriv, l2_square, sup = norms(loops.from_coeffs(loops.ODD_SINE, [1.0]))
        assert abs(l2**2 - 0.5) < 1e-13
        assert abs(l2_deriv**2 - np.pi**2 / 2) < 1e-11
        assert abs(l2_square**2 - 3.0 / 8.0) < 1e-13
        assert abs(sup - 1.0) < 1e-10

    def test_homogeneity(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, -0.3])
        zc = loops.from_coeffs(loops.ODD_SINE, 0.5 * z.coeffs)
        (l2, l2_deriv, l2_square, sup), nc = norms(z), norms(zc)
        assert abs(nc[0] - 0.5 * l2) < 1e-13
        assert abs(nc[1] - 0.5 * l2_deriv) < 1e-12
        assert abs(nc[2] - 0.25 * l2_square) < 1e-13
        assert abs(nc[3] - 0.5 * sup) < 1e-10

    def test_cosine_l2(self):
        l2 = norms(loops.from_coeffs(loops.EVEN_COSINE, [0.0, 1.0]))[0]
        assert abs(l2**2 - 0.5) < 1e-13

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
        values = loops.jets(z, taus, (1,))[0]
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
    # the scan's largest sample (tau = 1.5) is not beside the maximum (0.18)
    @example(klass=loops.ODD_SINE, n=15, seed=1451465)
    # the finer scan's largest sample rounds one ulp above the refined maximum
    @example(klass=loops.EVEN_COSINE, n=5, seed=369)
    def test_refines_the_scan(self, klass, n, seed):
        c = np.random.default_rng(seed).normal(size=n) / (1.0 + np.arange(n))
        z = loops.from_coeffs(klass, c)
        sup = loops.sup_norm(z)
        p = max(4 * loops.quad_size(z.n_active_modes()), 512)  # 4x finer than sup_norm's scan
        scan = np.max(np.abs(loops._synthesize_uniform(klass, c, p)))
        taus = np.linspace(0.0, 2.0, 100_001)
        dense = np.max(np.abs(z(taus)))
        # sampling at spacing h misses the maximum by at most h^2 max|z''| / 8
        miss = (taus[1] ** 2 / 8) * np.sum(np.abs(loops.second_derivative_coeffs(z)))
        assert sup >= scan - 1e-14
        assert dense - 1e-14 <= sup <= dense + miss + 1e-14

    #: per class, the b of ``double_maximum`` for close and for far maxima
    DOUBLE_B = {
        loops.ODD_SINE: (0.112, 0.15),
        loops.EVEN_COSINE: (-0.255, -0.35),
        loops.FULL: (0.115, 0.15),
    }

    @staticmethod
    def double_maximum(klass, b):
        """A loop whose |z| has two close maxima, at tau = 1/2 +- d (odd
        sine), +-d (even cosine), or unequal ones near 1/2 (full)."""
        if klass == loops.ODD_SINE:
            # z''(1/2) = pi^2 (9b - 1): a dip between two equal maxima for b > 1/9
            return loops.from_coeffs(klass, [1.0, b])
        if klass == loops.EVEN_COSINE:
            # z''(0) = -4 pi^2 (1 + 4b): a dip at 0 for b < -1/4
            return loops.from_coeffs(klass, [1.0, 1.0, b])
        # the odd-sine loop, tilted by 1e-4 cos(pi t) and shifted by 1/256;
        # at b = 0.115 the scan's largest sample lies beside the lower maximum
        t = loops.grid_points(16) - 1.0 / 256.0
        vals = np.sin(np.pi * t) + b * np.sin(3 * np.pi * t) + 1e-4 * np.cos(np.pi * t)
        return loops.analyze(vals, klass)

    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("case", ["seed-0", "seed-1", "seed-2", "double-near", "double-far"])
    def test_matches_a_dense_scan(self, klass, case):
        # the maximum from the quad samples and Newton, against 2^16 samples
        if case.startswith("seed"):
            rng = np.random.default_rng(int(case[-1]))
            n = (3, 9, 16)[int(case[-1])]
            z = loops.from_coeffs(klass, rng.normal(size=n) / (1.0 + np.arange(n)))
        else:
            z = self.double_maximum(klass, self.DOUBLE_B[klass][case == "double-far"])
        taus = loops.grid_points(2**16)
        dense = np.max(np.abs(z(taus)))
        miss = (taus[1] ** 2 / 8) * np.sum(np.abs(loops.second_derivative_coeffs(z)))
        sup = loops.sup_norm(z)
        assert dense - 1e-14 <= sup <= dense + miss + 1e-14


class TestLoopCache:
    def test_cube_cached_read_only(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2, -0.1])
        z3 = loops.cube(z)
        assert loops.cube(z) is z3
        assert loops.square(z) is loops.square(z)
        assert not z3.coeffs.flags.writeable
        with pytest.raises(ValueError):
            z3.coeffs[0] = 0.0

    def test_sup_norm_scans_once(self, monkeypatch):
        z = loops.from_coeffs(loops.FULL, [0.1, 1.0, -0.3, 0.2])
        sup = loops.sup_norm(z)
        loops.norm_data(z)  # synthesizes the quad samples, cached as well

        def no_scan(*args):
            raise AssertionError("sup_norm rescanned a loop")

        monkeypatch.setattr(loops, "_synthesize_uniform", no_scan)
        assert loops.sup_norm(z) == sup

    @pytest.mark.parametrize("klass", loops.CLASSES)
    def test_sup_norm_transforms_nothing_once_sampled(self, monkeypatch, klass):
        # the scan reads the cached quad samples: no FFT of its own
        c = np.random.default_rng(5).normal(size=9)
        want = loops.sup_norm(loops.from_coeffs(klass, c))
        z = loops.from_coeffs(klass, c)
        z.quad_samples()

        def forbidden(*args, **kwargs):
            raise AssertionError("np.fft called")

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        assert loops.sup_norm(z) == want

    def test_last_build_keeps_three_values(self):
        last = loops.LastBuild()
        built = []
        build = lambda x: built.append(x) or loops.from_coeffs(loops.ODD_SINE, x)
        x, h = np.array([1.0, 0.2]), np.array([0.0, 1e-5])
        z = last(x, build)
        assert last(x.copy(), build) is z and len(built) == 1
        # a probe at x + h and x - h, then x again: three builds
        for y in (x + h, x - h, x):
            last(y, build)
        assert len(built) == 3 and last(x, build) is z
        # a new x pushes out the oldest, x + h, and a failed build adds none
        last(np.array([1.0, 0.3]), build)
        with pytest.raises(DomainError):
            last(np.array([1.0, np.nan]), build)
        assert list(last.values) == [(x - h).tobytes(), x.tobytes(), np.array([1.0, 0.3]).tobytes()]
        # x + h is built again, after the new x and the failed attempt
        assert last(x + h, build) is not z and len(built) == 6


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

    def test_cycling_steps_end_in_a_closed_bracket(self):
        # with the slope reported at half its value, Newton from b lands on
        # a and from a on b, the floats either side of the root m, for ever;
        # a step to the end of the bracket is replaced by its midpoint, m
        m = 0.3
        a, b = np.nextafter(m, 0.0), np.nextafter(m, 1.0)
        seen = []

        def off_slope(x, idx):
            seen.append(x[0])
            return 2.0 * (x - m), np.ones_like(x)

        x = loops._newton(off_slope, [0.0], [1.0], [b], tol=1e-20, max_iter=80)
        assert x[0] == m
        assert seen == [b, a, m]

    def test_bracket_without_inner_float_stops(self):
        # the root lies between the adjacent floats a and b, where f keeps
        # its sign change at every step
        a = 0.7
        b = np.nextafter(a, 1.0)
        calls = []

        def gap(x, idx):
            calls.append(x[0])
            return np.where(x <= a, -1.0, 1.0), np.full_like(x, 1e-30)

        x = loops._newton(gap, [0.0], [1.0], [0.5], tol=0.0, max_iter=200)
        assert x[0] in (a, b)
        assert len(calls) < 60


    def test_residual_at_ftol_stops_after_its_step(self):
        # f = x - r with a slope of 1e-10: every Newton step lands on the
        # root, yet the step 1e-3 stays far above tol; |f| <= ftol stops
        # the point after the step it has taken
        r = 0.25
        calls = []

        def flat(x, idx):
            calls.append(x[0])
            return 1e-10 * (x - r), np.full_like(x, 1e-10)

        x = loops._newton(flat, [0.0], [1.0], [r + 1e-3], tol=1e-14, max_iter=80, ftol=1e-12)
        assert x[0] == r
        assert calls == [r + 1e-3]


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
        # the L2 norm of z'' + b z + 2 a z^3 at the prescribed (a, b)
        residual = loops.from_coeffs(z3.klass, frozen.norm_gradient(z3, (0.5 * b3, -0.5, 0.5 * a3)))
        assert loops.l2_norm(residual) < 1e-8


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
        samples = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.2])(loops.grid_points(64))

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
        # the square's frequencies, as the primitive rows of products read them
        q = loops._layout(*loops._power_layout(klass, n, 2))[0]
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
    def test_direct_and_angle_addition_sides(self, klass):
        # up to DIRECT_POINTS points the rows are direct, beyond by angle addition
        for m in (loops.DIRECT_POINTS, loops.DIRECT_POINTS + 1):
            for f, sine in self.tables(klass, 40):
                self.check(f, sine, np.linspace(-2.0, 4.0, m))

    @pytest.mark.parametrize("klass", loops.CLASSES)
    def test_empty_layout(self, klass):
        f, sine = loops._layout(klass, 0)
        assert loops._trig(f, sine, np.linspace(0.0, 2.0, 5)).shape == (0, 5)
        assert loops._trig(f, sine, []).shape == (0, 0)
        f, sine = loops._layout(klass, 4)
        assert loops._trig(f, sine, []).shape == (4, 0)


def composite_gauss(fn, tau, panels=32, nodes=32):
    """int_0^tau fn(s) ds by Gauss-Legendre on equal panels; fn maps the
    points s (flat) to rows of values."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    h = tau / panels
    s = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * h
    return 0.5 * h * (fn(s.ravel()) @ np.tile(w, panels))


class TestCalculusRule:
    """``basis_matrix(order)`` and ``jets`` against independent oracles:
    Gauss-Legendre quadrature of the next order and direct sums."""

    cases = dict(
        klass=st.sampled_from(loops.CLASSES),
        n=st.integers(1, 40),
        tau=st.floats(0.0, 2.0),
    )

    @settings(max_examples=60, deadline=None)
    @given(order=st.integers(-1, 1), **cases)
    def test_next_order_integrates_to_differences(self, klass, n, tau, order):
        # e^(j)(tau) - e^(j)(0) = int_0^tau e^(j+1); at j = -1 this is the
        # primitive against quadrature of the basis functions themselves
        quad = composite_gauss(lambda s: loops.basis_matrix(klass, n, s, order + 1), tau)
        ends = loops.basis_matrix(klass, n, [0.0, tau], order)
        scale = (1.0 + np.pi * loops.mode_count(klass, n)) ** (order + 1)
        assert np.max(np.abs(quad - (ends[:, 1] - ends[:, 0]))) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(klass=cases["klass"], n=cases["n"])
    def test_primitive_starts_at_zero(self, klass, n):
        assert not np.any(loops.basis_matrix(klass, n, [0.0], -1))

    @settings(max_examples=60, deadline=None)
    @given(
        orders=st.lists(st.integers(-1, 2), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2**32 - 1),
        klass=cases["klass"],
        n=cases["n"],
    )
    def test_jets_are_basis_matrix_sums(self, klass, n, orders, seed):
        c = np.random.default_rng(seed).normal(size=n)
        z = loops.from_coeffs(klass, c)
        taus = np.linspace(-0.3, 2.3, 41)
        got = loops.jets(z, taus, orders)
        assert got.shape == (len(orders), taus.size)
        for row, order in zip(got, orders):
            want = c @ loops.basis_matrix(klass, n, taus, order)
            scale = np.sum(np.abs(c)) * (1.0 + np.pi * loops.mode_count(klass, n)) ** max(order, 0)
            assert np.max(np.abs(row - want)) <= 1e-13 * scale

    def test_scalar_point(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        zv, zp, zpp, prim = loops.jets(z, 0.25, (0, 1, 2, -1))
        s = np.sqrt(0.5)
        assert zv == pytest.approx([s], rel=1e-15)
        assert zp == pytest.approx([np.pi * s], rel=1e-15)
        assert zpp == pytest.approx([-np.pi**2 * s], rel=1e-15)
        assert prim == pytest.approx([(1.0 - s) / np.pi], rel=1e-15)

    @pytest.mark.parametrize("order", [-2, 3, 0.5])
    def test_unknown_order_rejected(self, order):
        z = loops.from_coeffs(loops.FULL, [1.0, 0.5])
        with pytest.raises(DomainError) as exc:
            loops.basis_matrix(loops.FULL, 2, [0.1], order)
        assert exc.value.tag == "loops.order"
        with pytest.raises(DomainError):
            loops.jets(z, [0.1], (0, order))

    @pytest.mark.parametrize("klass", [loops.ODD_SINE, loops.EVEN_COSINE])
    def test_product_frequencies_are_the_even_cosine_layout(self, klass):
        # the products' frequencies |f_j - f_k| and f_j + f_k are the
        # even-cosine layout 0, 2, ..., read at half their value
        for n in range(1, 41):
            sq_klass, size = loops._power_layout(klass, n, 2)
            assert sq_klass == loops.EVEN_COSINE
            f = loops._layout(klass, n)[0]
            q = loops._layout(loops.EVEN_COSINE, size)[0]
            di, pi, sd, sp = loops._product_to_sum(klass, n)
            assert np.array_equal(q, 2 * np.arange(size))
            assert np.array_equal(q[di], np.abs(f[:, None] - f[None, :]))
            assert np.array_equal(q[pi], f[:, None] + f[None, :])
            assert np.all(sd == 1.0) and np.all(sp == (-1.0 if klass == loops.ODD_SINE else 1.0))

    @pytest.mark.parametrize("klass", loops.CLASSES)
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_product_to_sum_rule_pointwise(self, klass, n):
        # e_j e_k = (sd u_di + sp u_pi) / 2 over the square's basis u, entry
        # by entry at points off any grid; a full loop's cos sin give sines
        taus = np.random.default_rng(n).uniform(0.0, 2.0, 13)
        e = direct_trig(*loops._layout(klass, n), taus)
        u = direct_trig(*loops._layout(*loops._power_layout(klass, n, 2)), taus)
        di, pi, sd, sp = loops._product_to_sum(klass, n)
        want = e[:, None, :] * e[None, :, :]
        got = 0.5 * (sd[..., None] * u[di] + sp[..., None] * u[pi])
        # cos and sin of pi q tau round to about eps pi q tau, q <= 2F, tau < 2
        bound = 1e-15 * (1.0 + 4.0 * np.pi * loops.mode_count(klass, n))
        assert np.max(np.abs(got - want)) < bound
        for arr in (di, pi, sd, sp):
            assert not arr.flags.writeable


def complex_synthesis(klass, c, m):
    """The loop's values on ``grid_points(m)`` from the full complex
    spectrum: cos(2 pi f i/m) = Re e^{2 pi i f i/m} and sin = Re(-1j e^...),
    with add.at summing the coefficients that alias into one bin."""
    f, sine = loops._layout(klass, c.size)
    spec = np.zeros(m, dtype=complex)
    np.add.at(spec, f % m, np.where(sine, -1j, 1.0) * c)
    return m * np.fft.ifft(spec).real


def complex_projection(klass, vals, n):
    """The discrete inner products of m samples with n basis functions from
    the full complex FFT: Re F[f] for a cosine, -Im F[f] for a sine."""
    m = vals.size
    f, sine = loops._layout(klass, n)
    spec = np.fft.fft(vals)[f % m]
    return np.where(sine, -spec.imag, spec.real) / (m * loops.gram_diag(klass, n))


class TestFFTOracle:
    """The uniform-grid FFT paths against the dense ``basis_matrix`` table,
    and the real half-spectrum transforms against the complex-FFT formula.

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
        dense = c @ loops.basis_matrix(klass, n, loops.grid_points(m))
        fft = loops._synthesize_uniform(klass, c, m)
        assert np.max(np.abs(fft - dense)) <= 1e-12 * np.sum(np.abs(c))

    @settings(max_examples=60, deadline=None)
    @given(**cases)
    def test_projection(self, klass, n, m, seed):
        vals = np.random.default_rng(seed).normal(size=m)
        B = loops.basis_matrix(klass, n, loops.grid_points(m))
        dense = (B @ vals) / (m * loops.gram_diag(klass, n))
        assert np.max(np.abs(loops.project(klass, vals, n) - dense)) < 1e-12

    # any grid size, odd ones too, and down to one point, so that folding
    # above m/2 and the unpaired Nyquist bin of even m are both covered
    half_spectrum_cases = dict(cases, m=st.integers(1, 160))

    @settings(max_examples=150, deadline=None)
    @given(**half_spectrum_cases)
    @example(klass=loops.FULL, n=9, m=5, seed=0)
    @example(klass=loops.ODD_SINE, n=40, m=7, seed=1)
    @example(klass=loops.EVEN_COSINE, n=40, m=8, seed=2)
    def test_real_synthesis_matches_complex_spectrum(self, klass, n, m, seed):
        c = np.random.default_rng(seed).normal(size=n)
        ref = complex_synthesis(klass, c, m)
        assert np.max(np.abs(loops._synthesize_uniform(klass, c, m) - ref)) <= 1e-14 * np.sum(np.abs(c))

    @settings(max_examples=150, deadline=None)
    @given(**half_spectrum_cases)
    @example(klass=loops.FULL, n=9, m=5, seed=0)
    @example(klass=loops.ODD_SINE, n=40, m=7, seed=1)
    @example(klass=loops.EVEN_COSINE, n=40, m=8, seed=2)
    def test_real_projection_matches_complex_spectrum(self, klass, n, m, seed):
        vals = np.random.default_rng(seed).normal(size=m)
        ref = complex_projection(klass, vals, n)
        assert np.max(np.abs(loops.project(klass, vals, n) - ref)) <= 1e-14 * np.max(np.abs(vals))

    def test_half_spectrum_tables_are_read_only(self):
        for arr in (*loops._half_spectrum(loops.FULL, 9, 12), loops.gram_diag(loops.FULL, 9)):
            assert not arr.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(klass=cases["klass"], n=st.integers(1, 12), seed=cases["seed"])
    def test_cube_and_analyze_roundtrip(self, klass, n, seed):
        z = loops.from_coeffs(klass, np.random.default_rng(seed).normal(size=n))
        taus = np.linspace(0.0, 2.0, 101)
        scale = max(1.0, float(np.max(np.abs(z(taus)))))
        assert np.max(np.abs(loops.cube(z)(taus) - z(taus) ** 3)) < 1e-12 * scale**3
        assert np.max(np.abs(loops.square(z)(taus) - z(taus) ** 2)) < 1e-12 * scale**2
        m = 8 * max(z.n_active_modes(), 4)
        back = loops.analyze(loops._synthesize_uniform(klass, z.coeffs, m), klass)
        assert np.max(np.abs(back.coeffs[: z.n] - z.coeffs)) < 1e-13 * scale
        assert np.max(np.abs(back.coeffs[z.n :]), initial=0.0) < 1e-13 * scale


class TestSerialization:
    def test_json_roundtrip(self):
        z = loops.from_coeffs(loops.ODD_SINE, [0.9, -0.1, 0.02])
        z2 = loops.loop_from_json(loops.loop_to_json(z))
        assert z2.klass == z.klass
        assert np.array_equal(z2.coeffs, z.coeffs)
        taus = np.linspace(0, 2, 11)
        assert np.max(np.abs(z2(taus) - z(taus))) < 1e-15
