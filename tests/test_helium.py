import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frozenplanet import cli, frozen, helium, levi_civita, loops, serialize, solve
from frozenplanet.errors import AdmissibilityError, DomainError


def random_admissible(rng, n=6):
    coeffs = rng.normal(size=n) * np.exp(-0.8 * np.arange(n))
    coeffs[0] = max(abs(coeffs[0]), 0.5)
    return loops.from_coeffs(loops.ODD_SINE, coeffs)


def unsettled(pair):
    """Whether the floor of the pair's repulsion on its default nodes leaves
    admissibility to the halving of its open cells (``_Repulsion.refine``)."""
    return not helium._Repulsion(pair, helium._node_count(pair)).settled


def dense_gap(pair, size=100001):
    """The least gap Q1(t) - z2^2 over a uniform tau2-grid of the circle."""
    tau = np.linspace(0.0, 1.0, size)
    primitive, i2 = levi_civita.square_primitive(pair.z2)
    tau1 = levi_civita.tau_of_t(pair.z1, primitive(tau) / i2)
    return float(np.min(pair.z1(tau1) ** 2 - pair.z2(tau) ** 2))


def raced_gap(pair, size=20001):
    """The least gap z1^2 - Q2(t) over a uniform tau1-grid of the circle: it
    resolves the narrow window in t where z1's time map races past a dip
    of z1 below z2, which the tau2-grid of ``dense_gap`` can step over."""
    tau = np.linspace(0.0, 1.0, size)
    primitive, i1 = levi_civita.square_primitive(pair.z1)
    tau2 = levi_civita.tau_of_t(pair.z2, primitive(tau) / i1)
    return float(np.min(pair.z1(tau) ** 2 - pair.z2(tau2) ** 2))


def _coefficients(draw, n, lead):
    """lead, then n - 1 harmonics of at most 0.3 in size, decaying as k^-2."""
    tail = [draw(st.floats(-0.3, 0.3)) / k**2 for k in range(1, n)]
    return np.array([lead, *tail])


@st.composite
def floor_pairs(draw):
    """Even-cosine/odd-sine pairs with n1 >> n2 and n1 << n2, an outer loop
    near zero (its mean as small as 0.02), and inner loops scaled to within
    -10% .. +2% of closing the gap (max z2^2 against min z1^2 on the grids)."""
    n1, n2 = draw(st.sampled_from([(1, 1), (2, 12), (1, 16), (12, 2), (16, 1), (6, 6)]))
    z1 = loops.from_coeffs(
        loops.EVEN_COSINE, _coefficients(draw, n1, draw(st.floats(0.02, 2.0)))
    )
    c2 = _coefficients(draw, n2, draw(st.floats(0.1, 1.0)))
    low = np.min(np.abs(z1.quad_samples()))
    # scaled by a zero sample of z1, z2 would be the zero loop, no pair
    if low > 0.0 and draw(st.booleans()):
        top = np.max(np.abs(loops.from_coeffs(loops.ODD_SINE, c2).quad_samples()))
        c2 *= low / top * draw(st.floats(0.9, 1.02))
    return helium.PairLoop(z1, loops.from_coeffs(loops.ODD_SINE, c2))


@st.composite
def tangent_dips(draw):
    """Pairs whose gap dips below zero beside a near zero of z1: z1 =
    delta + (c - c*)^2 (a + b c), c = cos 2 pi tau, least delta in
    [1e-9, 1e-3] at its tau1*, and z2 with z2^2 > delta^2 at that instant."""
    delta = 10.0 ** draw(st.floats(-9.0, -3.0))
    cs, a = draw(st.floats(-0.9, 0.9)), draw(st.floats(0.2, 2.0))
    b = a * draw(st.floats(-0.9, 0.9))
    z1 = loops.from_coeffs(
        loops.EVEN_COSINE,
        [delta + a * cs * cs + 0.5 * a - b * cs, b * cs * cs - 2.0 * a * cs + 0.75 * b,
         0.5 * a - b * cs, 0.25 * b],
    )
    z2 = loops.from_coeffs(
        loops.ODD_SINE, _coefficients(draw, draw(st.integers(1, 4)), draw(st.floats(0.05, 1.0)))
    )
    primitive, i1 = levi_civita.square_primitive(z1)
    t = primitive(np.arccos(cs) / (2.0 * np.pi))[0] / i1
    assume(z2(levi_civita.tau_of_t(z2, t)) ** 2 > delta**2)
    return helium.PairLoop(z1, z2)


class TestBridgeConstants:
    def test_consistency(self):
        rho, alpha = helium.RHO, helium.ALPHA
        assert 0.0 < alpha < 1.0
        assert abs(rho - 2.0 * alpha**2) < 1e-15
        assert abs(rho / alpha - (2.0 - np.sqrt(2.0))) < 1e-14
        assert abs(rho - 0.17157287525381) < 1e-12


class TestCOf:
    def test_fundamental_closed_form(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        want = helium.ALPHA ** (-0.5) * np.sqrt(3.0 / 8.0) / np.sqrt(0.5)
        assert abs(helium.c_of(z) - want) < 1e-13

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        z = random_admissible(rng)
        for lam in (0.5, 2.0):
            zl = loops.from_coeffs(loops.ODD_SINE, lam * z.coeffs)
            assert abs(helium.c_of(zl) - lam * helium.c_of(z)) < 1e-11

    def test_zero_loop_rejected(self):
        z = loops.from_coeffs(loops.ODD_SINE, [0.0])
        with pytest.raises(DomainError) as exc:
            helium.c_of(z)
        assert exc.value.tag == "helium.zero-loop"
        pair = helium.PairLoop(loops.from_coeffs(loops.EVEN_COSINE, [1.0]), z)
        with pytest.raises(DomainError) as exc:
            helium.mean_gap(pair)
        assert exc.value.tag == "helium.zero-loop"

    def test_reduced_equation_constants(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        out = helium.bridge_graph_constants(z)
        assert out["w_res"] < 1e-10
        assert out["a1_res"] < 1e-9
        assert out["b1_res"] < 1e-9

    def test_bridge_pair_is_mean_admissible(self):
        rng = np.random.default_rng(1)
        pair = helium.bridge_pair(random_admissible(rng))
        assert helium.mean_gap(pair) > 0


class TestBAv:
    def test_gradient_vanishes_on_bridged_critical_pair(self, cert_rho):
        pair = helium.bridge_pair(cert_rho.z)
        g1, g2 = helium.b_av(pair)["gradient"]
        taus = np.linspace(0, 2, 257)
        assert np.max(np.abs(g1(taus))) < 1e-8
        assert np.max(np.abs(g2(taus))) < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [1.6, 0.1, -0.04]),
            loops.from_coeffs(loops.ODD_SINE, [1.0, 0.12, -0.03]),
        )
        obj = helium.PairObjective(0.0, n1=3, n2=3)
        x = obj.pack(pair)
        g = obj.gradient(x)
        h = 1e-6
        for _ in range(10):
            xi = rng.normal(size=6)
            xi /= np.linalg.norm(xi)
            fd = (obj.value(x + h * xi) - obj.value(x - h * xi)) / (2 * h)
            assert abs(fd - float(g @ xi)) / max(1.0, abs(fd)) < 1e-6

    def test_inadmissible_pair_rejected(self):
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [0.5]),
            loops.from_coeffs(loops.ODD_SINE, [1.0]),
        )
        with pytest.raises(AdmissibilityError):
            helium.b_av(pair)


class TestBridge:
    @pytest.mark.parametrize(
        "coeffs", [[1.0], [1.0, 0.2], [0.8, -0.1, 0.05]]
    )
    def test_identity_exact(self, coeffs):
        z = loops.from_coeffs(loops.ODD_SINE, coeffs)
        assert helium.bridge_check(z) < 1e-12

    def test_hundred_random_loops(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            z = random_admissible(rng)
            worst = max(worst, helium.bridge_check(z))
        assert worst < 1e-11

    def test_gradient_relation_to_frozen(self, cert_rho):
        # V2(c(z), z) is the frozen gradient up to the dropped -4||z||^2
        rng = np.random.default_rng(4)
        z = random_admissible(rng)
        pair = helium.bridge_pair(z)
        _, g2 = helium.b_av(pair)["gradient"]
        gf = frozen.gradient(z, helium.RHO)
        n = min(g2.n, gf.n)
        num = np.linalg.norm(g2.coeffs[:n] - gf.coeffs[:n])
        den = np.linalg.norm(gf.coeffs[:n])
        assert num / den < 1e-10


class TestD1W:
    def test_recovers_universal_constant(self):
        z = loops.from_coeffs(loops.ODD_SINE, [1.0])
        out = helium.d1w_check(z)
        assert abs(out["K_numeric"] + 2.0 * helium.ALPHA) < 1e-6 * 2 * helium.ALPHA
        assert out["X_sign_ok"]

    def test_scale_invariance(self):
        z = loops.from_coeffs(loops.ODD_SINE, [0.7])
        out = helium.d1w_check(z)
        assert abs(out["K_numeric"] + 2.0 * helium.ALPHA) < 1e-6

    def test_sign_over_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            out = helium.d1w_check(random_admissible(rng))
            assert out["X_sign_ok"]


class TestBIn:
    def test_constant_outer_matches_orbit_quadrature(self):
        # with z1 = gamma the repulsion is int_0^1 z2^2 / (I2 (gamma^2 - z2^2)) dtau,
        # analytic in tau: 200-point Gauss-Legendre is exact to rounding
        gamma = 1.5
        z2 = loops.from_coeffs(loops.ODD_SINE, [0.9, 0.05])
        pair = helium.PairLoop(loops.from_coeffs(loops.EVEN_COSINE, [gamma]), z2)
        out = helium.b_in(pair)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        q2 = z2(0.5 * (nodes + 1.0)) ** 2
        g = loops.gram_diag(z2.klass, z2.n)
        l2 = float(np.sum(g * z2.coeffs**2))
        want = 0.5 * float(weights @ (q2 / (l2 * (gamma**2 - q2))))
        d1 = float(
            np.sum(g * (loops.frequencies(z2.klass, z2.n) * z2.coeffs) ** 2)
        )
        smooth = 2 * (gamma**2 * 0.0 + 1.0 / gamma**2) + 2 * (l2 * d1 + 1.0 / l2)
        assert abs(out["value"] - (smooth - want)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [1.5, 0.08]),
            loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1]),
        )
        obj = helium.PairObjective(1.0, n1=2, n2=2)
        x = obj.pack(pair)
        g = obj.gradient(x)
        h = 1e-6
        for _ in range(10):
            xi = rng.normal(size=4)
            xi /= np.linalg.norm(xi)
            fd = (obj.value(x + h * xi) - obj.value(x - h * xi)) / (2 * h)
            assert abs(fd - float(g @ xi)) / max(1.0, abs(fd)) < 1e-6

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_first_variation_matches_central_differences(self, n):
        # dq_k is the derivative of Q(t) = z(tau_z(t))^2 at fixed t along
        # the orthonormal direction e_k / sqrt(g_k)
        rng = np.random.default_rng(n)
        coeffs = rng.normal(size=n) * np.exp(-0.8 * np.arange(n))
        coeffs[0] = 2.0
        z = loops.from_coeffs(loops.EVEN_COSINE, coeffs)
        t = (np.arange(64) + 0.5) / 64
        var = helium._TimeMapVariation(z, levi_civita.tau_of_t(z, t), t)
        sg = np.sqrt(loops.gram_diag(z.klass, n))
        h = 1e-5

        def q(c):
            zc = loops.from_coeffs(z.klass, c)
            return zc(levi_civita.tau_of_t(zc, t)) ** 2

        for k in range(n):
            step = np.zeros(n)
            step[k] = h / sg[k]
            fd = (q(coeffs + step) - q(coeffs - step)) / (2.0 * h)
            assert np.max(np.abs(var.dq[k] - fd)) < 1e-9 * np.max(np.abs(var.dq))

    def test_pointwise_gap_violation_rejected(self):
        # mean-admissible (0.95^2 > 3/4) yet the pointwise gap closes at
        # the top of the inner orbit, where q2 reaches 1 > 0.95^2
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [0.95]),
            loops.from_coeffs(loops.ODD_SINE, [1.0]),
        )
        assert helium.mean_gap(pair) > 0
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)

    @staticmethod
    def _constant_outer(gamma):
        return helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [gamma]),
            loops.from_coeffs(loops.ODD_SINE, [1.0]),
        )

    @pytest.mark.parametrize("m", [64, 96, 1000])
    def test_gap_closing_between_nodes_rejected(self, m):
        # the gap 0.99975^2 - sin^2(pi tau) is -5e-4 at tau = 1/2, a point
        # between the nodes: at the 64 default nodes it is still >= 1e-4
        pair = self._constant_outer(0.99975)
        assert helium.mean_gap(pair) > 0
        assert unsettled(pair)
        assert np.min(helium._Repulsion(pair, 64).gap) > 9e-5
        with pytest.raises(AdmissibilityError, match="violated"):
            helium._Repulsion(pair, m).refine()
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_interp_value(pair, 0.5)
        obj = helium.PairObjective(1.0, n1=1, n2=1)
        assert not obj.admissible(obj.pack(pair))

    @pytest.mark.parametrize("outer", [[0.3, 1.0], [0.0, 2.0, 0.5]])
    def test_outer_loop_with_a_zero_rejected(self, outer):
        # z1 changes sign twice; at its zeros the gap is -q2 < 0, yet the
        # time map crosses them between two nodes, where Q1 has a cusp
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, outer),
            loops.from_coeffs(loops.ODD_SINE, [0.1]),
        )
        assert helium.mean_gap(pair) > 0
        assert np.min(helium._Repulsion(pair, 64).gap) > 0.1
        assert unsettled(pair)
        for m in (8, 16, 64, 96, 256, 1000):
            with pytest.raises(AdmissibilityError, match="violated"):
                helium._Repulsion(pair, m).refine()
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_interp_value(pair, 0.5)
        obj = helium.PairObjective(1.0, n1=len(outer), n2=1)
        assert not obj.admissible(obj.pack(pair))

    def test_outer_loop_with_a_high_order_zero_rejected(self):
        # z1 = cos^7 2 pi tau: the samples around its zeros are rounding
        # noise of either sign, yet each run of them is a zero
        z1 = loops.analyze(np.cos(2.0 * np.pi * loops.grid_points(256)) ** 7, loops.EVEN_COSINE)
        pair = helium.PairLoop(z1, loops.from_coeffs(loops.ODD_SINE, [0.1]))
        assert helium.mean_gap(pair) > 0
        for m in (8, 16, 64, 96, 256, 1000):
            with pytest.raises(AdmissibilityError, match="violated"):
                helium._Repulsion(pair, m).refine()
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_interp_value(pair, 0.5)
        obj = helium.PairObjective(1.0, n1=z1.n, n2=1)
        assert not obj.admissible(obj.pack(pair))

    def test_outer_loop_with_a_near_double_zero_rejected(self):
        # z1 dips to -1e-6 near tau = 0.22 over a span narrower than one
        # cell of its grid, so no two grid samples differ in sign
        z1 = loops.from_coeffs(
            loops.EVEN_COSINE,
            [0.4442275716781513, -0.136, 0.318, 0.0426, -0.0336, -0.0789, 0.0280],
        )
        pair = helium.PairLoop(z1, loops.from_coeffs(loops.ODD_SINE, [0.104, -0.0211, 0.0573]))
        assert np.all(z1.quad_samples() > 0.0)
        assert np.min(z1(np.linspace(0.2, 0.24, 40001))) < -9e-7
        assert unsettled(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_interp_value(pair, 0.5)
        obj = helium.PairObjective(1.0, n1=z1.n, n2=3)
        assert not obj.admissible(obj.pack(pair))

    def test_positive_outer_loop_near_zero_has_no_grid_zero(self):
        # the same z1 raised by 2e-6 has no zero; its minimum is refined
        # by Newton and found positive
        z1 = loops.from_coeffs(
            loops.EVEN_COSINE,
            [0.4442295716781513, -0.136, 0.318, 0.0426, -0.0336, -0.0789, 0.0280],
        )
        assert np.min(z1(np.linspace(0.2, 0.24, 40001))) > 9e-7
        assert loops.loop_zeros(z1).size == 0

    def test_gap_below_zero_beside_a_near_zero_rejected(self):
        # the positive z1 above dips to 1e-6; the time map races past the
        # dip between two nodes, where the gap falls to -1.3e-2 at t ~ 0.159
        pair = helium.PairLoop(
            loops.from_coeffs(
                loops.EVEN_COSINE,
                [0.4442295716781513, -0.136, 0.318, 0.0426, -0.0336, -0.0789, 0.0280],
            ),
            loops.from_coeffs(loops.ODD_SINE, [0.104, -0.0211, 0.0573]),
        )
        assert np.min(helium._Repulsion(pair, 64).gap) > 0.0
        with pytest.raises(AdmissibilityError, match="violated"):
            helium.b_in(pair)
        with pytest.raises(AdmissibilityError):
            helium.b_interp_value(pair, 0.5)
        obj = helium.PairObjective(1.0, n1=7, n2=3)
        assert not obj.admissible(obj.pack(pair))

    def test_positive_gap_beside_a_small_outer_loop_accepted(self):
        # min |z1| is 0.02 and the least gap +4.9e-5, far above the closing
        # share of the largest: accepted without a warning, and the floor of
        # the halved cells bounds the gap on the whole circle
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [
                0.0801075336277143, 0.0382442845026188, 0.032702038563675956,
                -0.017936986386767557, -0.01750935251059146, -0.011949484961191416,
                0.0034475894744903013, -0.005972446884522857, -0.001065196409324635,
                0.0022107106466889657, -0.002684539356225661, 0.0010251206289248669,
            ]),
            loops.from_coeffs(loops.ODD_SINE, [0.017009299420998422, -0.002309213849180787]),
        )
        assert loops.loop_zeros(pair.z1).size == 0
        assert unsettled(pair)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            helium.b_in(pair)
        obj = helium.PairObjective(1.0, n1=12, n2=2)
        assert obj.admissible(obj.pack(pair))
        rep = helium._admissible_gap(pair)
        assert not rep.closing
        assert 0.0 < rep.floor <= dense_gap(pair)

    @settings(max_examples=25, deadline=None)
    @given(tangent_dips())
    def test_gap_below_zero_at_a_tangent_dip_rejected(self, pair):
        # however narrow the dip of the time map, no node count accepts it
        for m in (8, 16, 64, 256):
            rep = helium._Repulsion(pair, m)
            assert not rep.settled
            with pytest.raises(AdmissibilityError):
                rep.refine()
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)

    def test_collision_of_both_loops_at_one_instant_rejected(self):
        # z1 = 1e-7 + sin^2 pi tau and z2 = 0.1 sin^3 pi tau both pass the
        # nucleus at t = 0, where t is too coarse in floating point to
        # resolve the race of z1's time map: positivity is not shown
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, [0.5 + 1e-7, -0.5]),
            loops.from_coeffs(loops.ODD_SINE, [0.075, -0.025]),
        )
        for m in (8, 16, 64, 256):
            with pytest.raises(AdmissibilityError, match="could not be shown"):
                helium._Repulsion(pair, m).refine()
        with pytest.raises(AdmissibilityError):
            helium.b_in(pair)

    def test_nearly_closing_gap_warns(self):
        # least gap 2e-7 of a largest ~1: ill conditioned, though no node sees it
        pair = self._constant_outer(1.0000001)
        assert np.min(helium._Repulsion(pair, 64).gap) > 1e-4
        assert unsettled(pair)
        with pytest.warns(RuntimeWarning, match="nearly closes"):
            helium.b_in(pair)

    @settings(max_examples=60, deadline=None)
    @given(floor_pairs())
    def test_floor_is_below_the_dense_scan(self, pair):
        # the floor bounds the gap on the whole circle, between the nodes
        # too, at every node count; where z1 may vanish it is -inf.  Where
        # z1 has no zero, beside which a negative window can be too narrow
        # for any scan, the verdict is the sign of the scans in both times,
        # and an accepted pair's floor, halved cells and all, is positive
        dense = dense_gap(pair)
        for m in (8, 16, 64):
            assert helium._Repulsion(pair, m).floor <= dense + 1e-12
        if loops.loop_zeros(pair.z1).size == 0:
            least = min(dense, raced_gap(pair))
            try:
                rep = helium._admissible_gap(pair)
            except AdmissibilityError:
                assert least <= 0.0
            else:
                assert 0.0 < rep.floor <= least + 1e-12

    def test_floor_settles_the_homotopy_pairs(self, cert_rho, homotopy, monkeypatch):
        # every build of one 8x16 homotopy clears its floor, which lies
        # within 0.05% of the least gap of a dense scan
        reps = []
        init = helium._Repulsion.__init__
        monkeypatch.setattr(
            helium._Repulsion, "__init__", lambda rep, *a: reps.append(rep) or init(rep, *a)
        )
        homotopy(cert_rho, 8, 16)
        assert reps and all(rep.settled for rep in reps)
        for rep in reps:
            dense = dense_gap(helium.PairLoop(rep.z1, rep.inner))
            assert 0.9995 * dense < rep.floor <= dense


@pytest.fixture(scope="module")
def interp_pair():
    return helium.PairLoop(
        loops.from_coeffs(loops.EVEN_COSINE, [1.6, 0.05]),
        loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1]),
    )


class TestInterp:
    @pytest.fixture()
    def pair(self, interp_pair):
        return interp_pair

    def test_mean_endpoint(self, pair):
        assert (
            abs(helium.b_interp(pair, 0.0)["value"] - helium.b_av(pair)["value"])
            < 1e-14
        )

    def test_instantaneous_endpoint(self, pair):
        assert (
            abs(helium.b_interp(pair, 1.0)["value"] - helium.b_in(pair)["value"])
            < 1e-14
        )

    def test_linearity_at_half(self, pair):
        mid = helium.b_interp(pair, 0.5)["value"]
        want = 0.5 * (helium.b_av(pair)["value"] + helium.b_in(pair)["value"])
        assert abs(mid - want) < 1e-13

    def test_parameter_domain(self, pair):
        with pytest.raises(DomainError):
            helium.b_interp(pair, 1.5)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, pair, s):
        with pytest.raises(DomainError) as err:
            helium.b_interp(pair, s)
        assert err.value.tag == "helium.s"
        with pytest.raises(DomainError) as err:
            helium.PairObjective(s)
        assert err.value.tag == "helium.s"


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
class TestInterpLinearity:
    """b_interp and the pair Hessian at interior s against the endpoint
    functionals, which share no evaluation with them."""

    def test_gradient_is_the_convex_combination(self, interp_pair, s):
        got = helium.b_interp(interp_pair, s)["gradient"]
        av = helium.b_av(interp_pair)["gradient"]
        inn = helium.b_in(interp_pair)["gradient"]
        for g, a, b in zip(got, av, inn):
            want = (1.0 - s) * a.coeffs + s * b.coeffs
            assert g.coeffs.shape == want.shape
            assert np.max(np.abs(g.coeffs - want)) < 1e-12 * np.max(np.abs(want))

    def test_parameter_gradient_is_the_central_difference(self, interp_pair, s):
        # b_interp is affine in s, so a wide difference is exact but for rounding
        x, ds = helium.PairObjective(s, 2, 2).pack(interp_pair), min(s, 1.0 - s)
        fd = [helium.PairObjective(s + d, 2, 2).gradient(x) for d in (ds, -ds)]
        want = (fd[0] - fd[1]) / (2.0 * ds)
        got = helium.PairObjective(s, 2, 2).parameter_gradient(x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_hessian_is_the_convex_combination(self, interp_pair, s):
        obj = helium.PairObjective(s, n1=2, n2=2)
        h = obj.hessian(obj.pack(interp_pair))
        want = (1.0 - s) * helium.pair_hessian(interp_pair, 0.0) + s * helium.pair_hessian(
            interp_pair, 1.0
        )
        assert _rel_max(h, want) < 1e-12


def _zero_component_pairs():
    z1 = loops.from_coeffs(loops.EVEN_COSINE, [1.6, 0.05])
    z2 = loops.from_coeffs(loops.ODD_SINE, [1.0, 0.1])
    return [
        helium.PairLoop(loops.from_coeffs(loops.EVEN_COSINE, [0.0, 0.0]), z2),
        helium.PairLoop(z1, loops.from_coeffs(loops.ODD_SINE, [0.0, 0.0])),
    ]


def _pair_grad_res(pair, s):
    """The L2 norm of the gradient of b_interp at s over both loops: the
    ``full_res`` of the pair's certificate."""
    obj = helium.PairObjective(s, n1=pair.z1.n, n2=pair.z2.n)
    return obj.certify(obj.pack(pair)).full_res


PAIR_ENTRY_POINTS = {
    "mean_gap": helium.mean_gap,
    "b_av": helium.b_av,
    "b_in": helium.b_in,
    "b_interp": lambda pair: helium.b_interp(pair, 0.5),
    "b_interp_value": lambda pair: helium.b_interp_value(pair, 0.5),
    "pair_grad_res": lambda pair: _pair_grad_res(pair, 0.5),
    "pair_hessian_mean": lambda pair: helium.pair_hessian(pair, 0.0),
    "pair_hessian_inst": lambda pair: helium.pair_hessian(pair, 1.0),
    "pair_hessian": lambda pair: helium.pair_hessian(pair, 0.5),
}


class TestZeroComponent:
    @pytest.mark.parametrize("name", sorted(PAIR_ENTRY_POINTS))
    @pytest.mark.parametrize("which", [0, 1])
    def test_entry_points_raise_zero_loop(self, name, which):
        with pytest.raises(DomainError) as err:
            PAIR_ENTRY_POINTS[name](_zero_component_pairs()[which])
        assert err.value.tag == "helium.zero-loop"

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("which", [0, 1])
    def test_objective_rejects_zero_component(self, s, which):
        obj = helium.PairObjective(s, n1=2, n2=2)
        x = obj.pack(_zero_component_pairs()[which])
        assert not obj.admissible(x)
        for method in (obj.value, obj.gradient, obj.hessian, obj.certify):
            with pytest.raises(DomainError) as err:
                method(x)
            assert err.value.tag == "helium.zero-loop"


def forbidden(*args, **kwargs):
    raise AssertionError("a term of weight 0 was evaluated")


class TestWeightZeroTermsSkipped:
    def test_free_fall_forms_no_cube(self, monkeypatch, interp_pair):
        # where every s-partial is zero, the chain rule forms neither z^3
        # nor M[z^2]: the pair at s = 1 and the one-loop family at r = 0
        monkeypatch.setattr(loops, "cube", forbidden)
        monkeypatch.setattr(frozen, "_cubic_galerkin", forbidden)
        helium.b_in(interp_pair)
        helium.pair_hessian(interp_pair, 1.0)
        z = interp_pair.z2
        frozen.gradient(z, 0.0)
        frozen.hessian_analytic(z, 0.0)
        with pytest.raises(AssertionError):
            helium.b_interp(interp_pair, 0.5)

    def test_instantaneous_end_skips_the_mean_term(self, monkeypatch, interp_pair):
        monkeypatch.setattr(helium, "require_mean_admissible", forbidden)
        helium.b_in(interp_pair)
        helium.pair_hessian(interp_pair, 1.0)
        with pytest.raises(AssertionError):
            helium.b_interp(interp_pair, 0.5)

    def test_mean_end_inverts_no_time_map(self, monkeypatch, interp_pair):
        monkeypatch.setattr(levi_civita, "tau_of_t", forbidden)
        # fresh loops, with no time map cached on them
        pair = helium.PairLoop(
            loops.from_coeffs(loops.EVEN_COSINE, interp_pair.z1.coeffs),
            loops.from_coeffs(loops.ODD_SINE, interp_pair.z2.coeffs),
        )
        helium.b_av(pair)
        helium.pair_hessian(pair, 0.0)
        with pytest.raises(AssertionError):
            helium.b_interp(pair, 0.5)


class TestValueOnly:
    @pytest.mark.parametrize("s", [0.0, 0.25, 1.0])
    def test_bit_identical_without_gradient(self, monkeypatch, interp_pair, s):
        fresh = helium.PairObjective(s, n1=2, n2=2)
        x = fresh.pack(interp_pair)
        want = helium.b_interp(interp_pair, s)["value"]
        want_obj = helium.b_interp(fresh.unpack(x), s)["value"]
        monkeypatch.setattr(frozen, "norm_gradient", forbidden)
        monkeypatch.setattr(helium, "_phi_table", forbidden)
        assert helium.b_interp_value(interp_pair, s) == want
        assert helium.PairObjective(s, n1=2, n2=2).value(x) == want_obj

    def test_bridge_check_reads_the_value(self, monkeypatch):
        z = random_admissible(np.random.default_rng(5))
        want = abs(frozen.value(z, helium.RHO) - helium.b_av(helium.bridge_pair(z))["value"])
        monkeypatch.setattr(frozen, "norm_gradient", forbidden)
        assert helium.bridge_check(z) == want


class TestMeanCriticalPair:
    def test_resolved_pair_residual(self, mean_pair):
        obj, x = mean_pair
        assert obj.certify(x).full_res < 1e-8

    def test_z1_constant(self, mean_pair):
        obj, x = mean_pair
        cert = obj.certify(x)
        assert cert.z1_constancy() < 1e-9

    def test_nullity_zero_and_gap(self, mean_pair):
        obj, x = mean_pair
        rep = solve.spectrum_report(obj.hessian(x))
        assert rep.nullity == 0
        assert rep.min_abs > 1e-4

    def test_constant_direction_curvature_closed_form(self, mean_pair):
        # the one negative direction: d^2/dgamma^2 = (16 - 16 sqrt 2)/c^4
        obj, x = mean_pair
        h = obj.hessian(x)
        pair = obj.unpack(x)
        gamma = float(np.mean(pair.z1(loops.grid_points(64))))
        e0 = np.zeros(obj.n)
        e0[0] = 1.0
        want = (16.0 - 16.0 * np.sqrt(2.0)) / gamma**4
        assert abs(float(e0 @ h @ e0) - want) < 1e-4

    @pytest.mark.parametrize("n1", [4, 8, 16])
    def test_negative_direction_is_truncation_stable(self, cert_rho, n1):
        # exactly one negative eigenvalue at every outer-mode resolution,
        # converged to the constant-direction curvature
        z = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:24])
        pair = helium.bridge_pair(z, n1=n1)
        obj = helium.PairObjective(0.0, n1=n1, n2=24)
        evals = np.linalg.eigvalsh(obj.hessian(obj.pack(pair)))
        gamma = helium.c_of(z)
        want = (16.0 - 16.0 * np.sqrt(2.0)) / gamma**4
        assert int(np.sum(evals < 0)) == 1
        assert abs(evals[0] - want) < 0.2  # eigenvector 99.9% constant

    def test_spectral_lower_bound(self, mean_pair):
        obj, x = mean_pair
        pair = obj.unpack(x)
        out = helium.hessian_bound(obj.hessian(x), pair, obj.n1, obj.n2)
        assert out["ok"]
        (l1, _, _), (l2, _, _) = helium._pair_norms(pair)
        assert abs(out["delta"] - 4.0 * min(l1, l2)) < 1e-12


def fd_hessian(obj, x, step=1e-5):
    """Central differences of the packed gradient: the oracle for
    ``PairObjective.hessian``."""
    h = np.empty((obj.n, obj.n))
    for k in range(obj.n):
        dx = np.zeros(obj.n)
        dx[k] = step
        h[:, k] = (obj.gradient(x + dx) - obj.gradient(x - dx)) / (2.0 * step)
    return 0.5 * (h + h.T)


ORACLE_SIZES = [(8, 16), (12, 32), (16, 32)]
ORACLE_S = [0.0, 0.5, 1.0]


@pytest.fixture(scope="module")
def hessian_oracle(cert_rho):
    """Exact and oracle Hessians on bridge pairs kicked by 1e-4, keyed
    by (n1, n2, s)."""
    rng = np.random.default_rng(7)
    out = {}
    for n1, n2 in ORACLE_SIZES:
        z = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:n2])
        x = helium.PairObjective(0.0, n1, n2).pack(helium.bridge_pair(z, n1=n1))
        x = x + 1e-4 * rng.normal(size=x.size)
        for s in ORACLE_S:
            obj = helium.PairObjective(s, n1, n2)
            out[n1, n2, s] = (obj.hessian(x), fd_hessian(obj, x))
    return out


def _rel_max(h, want):
    return float(np.max(np.abs(h - want)) / np.max(np.abs(want)))


class TestExactHessian:
    @pytest.mark.parametrize("s", ORACLE_S)
    @pytest.mark.parametrize("n1,n2", ORACLE_SIZES)
    def test_matches_central_differences(self, hessian_oracle, n1, n2, s):
        h, fd = hessian_oracle[n1, n2, s]
        assert _rel_max(h, fd) < 1e-8

    @pytest.mark.parametrize("n1,n2", ORACLE_SIZES)
    def test_interaction_part_matches(self, hessian_oracle, n1, n2):
        (h1, fd1), (h0, fd0) = hessian_oracle[n1, n2, 1.0], hessian_oracle[n1, n2, 0.0]
        assert _rel_max(h1 - h0, fd1 - fd0) < 1e-8

    def test_symmetric_as_built(self, hessian_oracle):
        for h, _ in hessian_oracle.values():
            assert np.max(np.abs(h - h.T)) < 1e-13 * np.max(np.abs(h))

    def test_makes_no_gradient_or_b_in_call(self, monkeypatch, cert_rho):
        z = loops.from_coeffs(loops.ODD_SINE, cert_rho.z.coeffs[:16])
        obj = helium.PairObjective(0.5, n1=8, n2=16)
        x = obj.pack(helium.bridge_pair(z, n1=8))

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact Hessian evaluated a gradient")

        for name in ("b_in", "b_av", "b_interp"):
            monkeypatch.setattr(helium, name, forbidden)
        monkeypatch.setattr(helium.PairObjective, "gradient", forbidden)
        h = obj.hessian(x)
        assert h.shape == (24, 24) and np.all(np.isfinite(h))


class TestProductPrimitive:
    @pytest.mark.parametrize("klass", [loops.ODD_SINE, loops.EVEN_COSINE])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_matches_gauss_legendre(self, klass, n):
        rng = np.random.default_rng(n)
        z = loops.from_coeffs(klass, rng.normal(size=n))
        taus = np.linspace(0.0, 1.0, 17)[1:]
        coef, prim = helium._phi_table(z, taus)
        phi = coef @ prim
        nodes, weights = np.polynomial.legendre.leggauss(64)
        for j, tau in enumerate(taus):
            s = 0.5 * tau * (nodes + 1.0)
            integrand = 2.0 * z(s) * loops.basis_matrix(klass, n, s)
            want = 0.5 * tau * integrand @ weights
            assert np.max(np.abs(phi[:, j] - want)) < 1e-13


    @pytest.mark.parametrize("klass", [loops.ODD_SINE, loops.EVEN_COSINE])
    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_coefficients_match_the_scatter(self, klass, n):
        # one bincount over the flat slots, against the two np.add.at scatters
        z = loops.from_coeffs(klass, np.random.default_rng(n).normal(size=n))
        di, pi, sd, sp = loops._product_to_sum(klass, n)
        want = np.zeros((n, loops._power_layout(klass, n, 2)[1]))
        rows = np.broadcast_to(np.arange(n)[:, None], (n, n))
        np.add.at(want, (rows, di), sd * z.coeffs[None, :])
        np.add.at(want, (rows, pi), sp * z.coeffs[None, :])
        assert np.array_equal(helium._phi_coef(z), want)


class TestSharedTimeMaps:
    def test_one_inversion_per_repulsion_on_the_homotopy(self, cert_rho, homotopy, monkeypatch):
        # the floor settles every pair of one 8x16 homotopy: no cell is
        # halved, and z1's time map is inverted at the nodes alone
        builds, inversions, refined = [], [], []
        init = helium._Repulsion.__init__
        tau_of_t = levi_civita.tau_of_t
        refine = helium._Repulsion.refine
        monkeypatch.setattr(
            helium._Repulsion, "__init__", lambda rep, *a: builds.append(1) or init(rep, *a)
        )
        monkeypatch.setattr(
            levi_civita, "tau_of_t", lambda z, t: inversions.append(1) or tau_of_t(z, t)
        )
        monkeypatch.setattr(
            helium._Repulsion, "refine", lambda rep: refined.append(1) or refine(rep)
        )
        homotopy(cert_rho, 8, 16)
        assert builds and len(inversions) == len(builds)
        assert refined == []

    def test_gradient_and_certify_share_one_evaluation(self, monkeypatch, interp_pair):
        calls = []
        b_interp = helium.b_interp
        monkeypatch.setattr(helium, "b_interp", lambda *a: calls.append(1) or b_interp(*a))
        obj = helium.PairObjective(0.5, n1=2, n2=2)
        x = obj.pack(interp_pair)
        g = obj.gradient(x)
        cert = obj.certify(x.copy())
        assert len(calls) == 1
        assert cert.grad_res == float(np.linalg.norm(g))

    def test_one_inversion_per_loop_at_one_x(self, monkeypatch, interp_pair):
        calls = []
        tau_of_t = levi_civita.tau_of_t

        def counted(z, t, *args, **kwargs):
            calls.append((z.klass, np.size(t)))
            return tau_of_t(z, t, *args, **kwargs)

        fresh = helium.PairObjective(0.5, n1=2, n2=2)
        x = fresh.pack(interp_pair)
        want = (fresh.gradient(x), helium.PairObjective(0.5, 2, 2).value(x))
        monkeypatch.setattr(levi_civita, "tau_of_t", counted)
        obj = helium.PairObjective(0.5, n1=2, n2=2)
        assert obj.admissible(x)
        g = obj.gradient(x.copy())
        v = obj.value(x)
        # the repulsion inverts the outer loop's time map alone: once per x
        # at its nodes, and at the points where the gap's minimum is refined
        nodes = helium._node_count(interp_pair)
        assert {klass for klass, _ in calls} == {loops.EVEN_COSINE}
        assert [size for _, size in calls].count(nodes) == 1
        assert np.array_equal(g, want[0]) and v == want[1]

    def test_one_phi_table_per_x(self, monkeypatch, interp_pair):
        # gradient, Hessian and certify at one x share the outer loop's
        # variation tables, built once
        builds = []
        phi_table = helium._phi_table

        def counted(z, taus):
            builds.append(z.klass)
            return phi_table(z, taus)

        monkeypatch.setattr(helium, "_phi_table", counted)
        obj = helium.PairObjective(0.5, n1=2, n2=2)
        x = obj.pack(interp_pair)
        obj.gradient(x)
        obj.hessian(x)
        obj.certify(x)
        assert builds == [loops.EVEN_COSINE]

    def test_certify_evaluates_once(self, monkeypatch, interp_pair):
        # one b_interp evaluation, and one ``_Repulsion``: the outer loop's
        # time map is inverted once at its nodes
        fresh = helium.PairObjective(0.5, n1=2, n2=2)
        x = fresh.pack(interp_pair)
        want = (
            float(np.linalg.norm(fresh.gradient(x))),
            loops.l2_norm(*helium.b_interp(fresh.unpack(x), 0.5)["gradient"]),
            fresh.value(x),
        )
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append((name, np.size(args[1])))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(helium, "b_interp", counted(helium, "b_interp"))
        monkeypatch.setattr(levi_civita, "tau_of_t", counted(levi_civita, "tau_of_t"))
        cert = helium.PairObjective(0.5, n1=2, n2=2).certify(x)
        nodes = helium._node_count(interp_pair)
        assert [name for name, _ in calls].count("b_interp") == 1
        assert calls.count(("tau_of_t", nodes)) == 1
        assert {name for name, _ in calls} == {"b_interp", "tau_of_t"}
        assert (cert.grad_res, cert.full_res, cert.value) == want


@pytest.fixture(scope="module")
def homotopy_points(cert_rho, homotopy, homotopy_path):
    """(n1, n2, s, pair) at the accepted step nearest s = 0.4375 and at
    s = 1 of the 8x16 homotopy and of the shared 16x32 one."""
    path8 = homotopy(cert_rho, 8, 16, diagnostics=None)
    out = []
    for (n1, n2), path in (((8, 16), path8), ((16, 32), homotopy_path)):
        inner = min(path.steps, key=lambda step: abs(step.parameter - 0.4375))
        out += [(n1, n2, step.parameter, step.cert.pair) for step in (inner, path.steps[-1])]
    return out


def _padded(pair, n1):
    """The pair with z1 padded to n1 modes by the algebraic tail
    c_k = c_last (k / last)^(-11/3) of the pair family's outer loop."""
    c = pair.z1.coeffs
    k = np.arange(c.size, n1)
    tail = c[-1] * (k / (c.size - 1)) ** (-11 / 3)
    return helium.PairLoop(loops.from_coeffs(loops.EVEN_COSINE, np.concatenate([c, tail])), pair.z2)


def _doubling_moves(pair, s):
    """|dR| / R and |d grad| when the default node count doubles."""
    m = helium._node_count(pair)
    reps = helium._Repulsion(pair, m), helium._Repulsion(pair, 2 * m)
    r = [float(np.mean(rep.w / rep.gap)) for rep in reps]
    g = [np.concatenate(rep.gradient(s)) for rep in reps]
    return abs(r[1] - r[0]) / r[0], float(np.linalg.norm(g[1] - g[0]))


class TestNodeRule:
    """The default repulsion node count, max(N_QUAD, 4 n2, 8 n1), is
    converged: doubling it moves neither R nor the gradient."""

    @pytest.mark.parametrize("k", range(4))
    def test_doubling_the_nodes_moves_nothing(self, homotopy_points, k):
        _, n2, s, pair = homotopy_points[k]
        # 8 n1 never exceeds 4 n2 on the homotopy paths, so they keep their nodes
        assert helium._node_count(pair) == max(helium.N_QUAD, 4 * n2)
        dr, dg = _doubling_moves(pair, s)
        assert dr < 1e-14 and dg < 1e-12

    @pytest.mark.parametrize("n1", [32, 64])
    def test_outer_modes_set_the_count(self, homotopy_path, n1):
        # the s = 1 pair of the 16x32 homotopy, z1 padded from 16 modes; on
        # 4 n2 = 128 nodes, doubling moved the gradient by 2.9e-9 at
        # n1 = 32 and by 1.09 at n1 = 64
        padded = _padded(homotopy_path.steps[-1].cert.pair, n1)
        assert helium._node_count(padded) == 8 * n1
        dr, dg = _doubling_moves(padded, 1.0)
        assert dr < 1e-14 and dg < 1e-12

    def test_pair_file_gets_the_resolved_functional(
        self, homotopy_path, tmp_path, capsys, monkeypatch
    ):
        # `helium --input` reads any pair: at n1 = 64 it must agree with
        # the functional on twice the nodes
        pair_file = tmp_path / "pair.json"
        padded = _padded(homotopy_path.steps[-1].cert.pair, 64)
        pair_file.write_text(serialize.dumps(serialize.pair_to_dict(padded)))
        cli.main(["helium", "--mode", "in", "--input", str(pair_file)])
        got = json.loads(capsys.readouterr().out)
        node_count = helium._node_count
        monkeypatch.setattr(helium, "_node_count", lambda pair: 2 * node_count(pair))
        want = helium.b_in(serialize.pair_from_dict(json.loads(pair_file.read_text())))
        assert abs(got["value"] - want["value"]) < 1e-14 * abs(want["value"])
        assert abs(got["grad_res"] - loops.l2_norm(*want["gradient"])) < 1e-12


class TestHomotopy:
    def test_reaches_instantaneous_endpoint(self, homotopy_path):
        assert abs(homotopy_path.steps[-1].parameter - 1.0) < 1e-12
        assert len(homotopy_path.steps) <= 100

    def test_newton_evaluations(self, homotopy_path):
        total = sum(len(s.diagnostics["newton_residuals"]) for s in homotopy_path.steps)
        # 14 with the tangent predictor, 25 with a secant, 54 without either
        assert total <= 16

    def test_repulsion_builds(self, cert_rho, homotopy, monkeypatch):
        # one 8x16 run with the per-step diagnostics: 42 builds with a
        # secant seed and a one-entry pair cache, 26 now
        builds = []
        init = helium._Repulsion.__init__
        monkeypatch.setattr(
            helium._Repulsion, "__init__", lambda rep, *a: builds.append(1) or init(rep, *a)
        )
        homotopy(cert_rho, 8, 16)
        assert len(builds) <= 26

    def test_bound_holds_along_path(self, homotopy_path):
        assert all(s.diagnostics["bound_ok"] for s in homotopy_path.steps)

    def test_gradient_fd_validated_at_every_step(self, homotopy_path):
        for step in homotopy_path.steps:
            assert step.diagnostics["grad_fd_rel"] < 1e-6

    def test_nondegenerate_throughout(self, homotopy_path):
        for step in homotopy_path.steps:
            assert step.diagnostics["nullity"] == 0
            assert step.diagnostics["min_abs_eig"] > 1e-4
