import numpy as np
import pytest

from frozenplanet import elliptic
from frozenplanet.errors import DomainError

RHO = (np.sqrt(2.0) - 1.0) ** 2


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,want",
        [(0, np.pi / 2), (1, np.pi / 4), (2, 3 * np.pi / 16)],
    )
    def test_values_at_origin(self, n, want):
        assert abs(elliptic.In(n, 0.0) - want) < 1e-11

    @pytest.mark.parametrize("n", range(7))
    def test_double_factorial_formula(self, n):
        assert abs(elliptic.In(n, 0.0) - elliptic.In_zero(n)) < 1e-11

    def test_ke_at_origin(self):
        k, e = elliptic.KE(0.0)
        assert abs(k - np.pi / 2) < 1e-14
        assert abs(e - np.pi / 2) < 1e-14


class TestTwoPaths:
    """AGM fast path against the quadrature oracle."""

    @pytest.mark.parametrize("m", [-2.0, -0.5, 0.5])
    def test_first_kind_matches_quadrature(self, m):
        assert abs(elliptic.KE(m)[0] - elliptic.In(0, m)) < 1e-10

    def test_second_kind_matches_quadrature(self):
        m = -1.0
        want = elliptic._adaptive(
            lambda th: np.sqrt(1.0 - m * np.sin(th) ** 2), 0.0, np.pi / 2, 1e-13
        )
        assert abs(elliptic.KE(m)[1] - want) < 1e-10

    @pytest.mark.parametrize("m", [-3.0, -0.7, 0.3, 0.8])
    def test_ratio_identity(self, m):
        k, e = elliptic.KE(m)
        assert abs(elliptic.ratio_I1_I0(m) - (1.0 - e / k) / m) < 1e-10


class TestAgainstMpmath:
    """K, E and I_1/I_0 = (K - E)/(m K) against 30-digit mpmath values."""

    @pytest.mark.parametrize(
        "m", [1e-9, -1e-9, 1e-7, -1e-7, -5e-7, 1e-6, -1e-6, 1e-3, -1e-3, -0.2, -5.0, 0.5, 0.9]
    )
    def test_agm_values(self, m):
        mpmath = pytest.importorskip("mpmath")
        got = (*elliptic.KE(m), elliptic.ratio_I1_I0(m))
        with mpmath.workdps(30):
            k, e = mpmath.ellipk(m), mpmath.ellipe(m)
            for value, want in zip(got, (k, e, (k - e) / (m * k))):
                assert abs((value - want) / want) < 1e-15

    @pytest.mark.parametrize("m", [5e-324, -1e-300, 1e-200])
    def test_ratio_near_the_origin(self, m):
        assert elliptic.ratio_I1_I0(m) == 0.5


class TestIdentities:
    def test_recursion_residual(self):
        assert elliptic.identities_report(-0.5)["rec_res"] < 1e-9

    def test_derivative_residual(self):
        assert elliptic.identities_report(0.5)["der_res"] < 1e-6

    def test_i2_closed_form_at_half_bridge(self):
        assert elliptic.identities_report(-RHO / 2)["i2_res"] < 1e-10

    def test_origin_limit_form(self):
        rep = elliptic.identities_report(0.0)
        assert rep["rec_res"] is None and rep["der_res"] is None
        assert rep["i2_res"] < 1e-11

    @pytest.mark.parametrize("m", [-5e-7, 5e-7])
    def test_near_origin_uses_the_expansion(self, m):
        # the recursion would divide rounding by m; I_2 is checked against
        # I_2(0) + (m/2) I_3(0)
        rep = elliptic.identities_report(m)
        assert rep["rec_res"] is None and rep["der_res"] is None
        assert rep["i2_res"] < 1e-12

    def test_recursion_sweep(self):
        for m in np.linspace(-10.0, 0.9, 23):
            if abs(m) < 1e-6:
                continue
            assert elliptic.identities_report(m)["rec_res"] < 1e-9, m


class TestRiccati:
    @pytest.mark.parametrize("m", [-1.0, 0.3, -RHO])
    def test_residual(self, m):
        assert elliptic.riccati_residual(m) < 1e-6

    def test_origin_notice(self):
        with pytest.raises(DomainError):
            elliptic.riccati_residual(0.0)

    def test_fifty_grid_points(self):
        grid = np.concatenate([np.linspace(-5.0, -0.05, 30), np.linspace(0.05, 0.85, 20)])
        for m in grid:
            assert elliptic.riccati_residual(m) < 1e-6, m


class TestMonotoneBound:
    def test_boundary_value(self):
        # F(m) = (2 - m) I_1/I_0 at m = 0, through the removable singularity
        assert abs(2.0 * elliptic.ratio_I1_I0(0.0) - 1.0) < 1e-10

    def test_all_greater_than_one(self):
        rep = elliptic.F_mono([-0.1, -1.0, -5.0, -20.0])
        assert rep["all_gt_one"]

    def test_strictly_decreasing(self):
        rep = elliptic.F_mono(np.linspace(-8.0, -0.01, 50))
        assert rep["monotone_ok"] and rep["all_gt_one"]

    def test_rejects_nonnegative_grid(self):
        with pytest.raises(DomainError):
            elliptic.F_mono([-1.0, 0.5])


class TestDomain:
    @pytest.mark.parametrize("m", [1.0, 1.5, np.inf])
    def test_parameter_at_least_one_rejected(self, m):
        with pytest.raises(DomainError):
            elliptic.KE(m)
        with pytest.raises(DomainError):
            elliptic.In(0, m)

    def test_all_values_positive(self):
        for m in (-4.0, -0.3, 0.6):
            for n in range(5):
                assert elliptic.In(n, m) > 0.0
