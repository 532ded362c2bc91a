import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from conftest import poisson_profile, poisson_profile_derivative
from hardyheat.errors import DomainError, ProfileError
from hardyheat.exponents import pv_normalization
from hardyheat.constructions import check_scaling_ode
from hardyheat.kernel import (KernelProfile, _bessel_pair, _decay_rho_edges,
                              _profile_point, _rgamma, ball_mass,
                              build_profile, check_envelope, h_value,
                              load_profile, profile_csv, profile_moment,
                              profile_origin_value, save_profile,
                              sphere_area, tail_series_coefficients)


class TestOriginValue:
    def test_poisson_one_dim(self):
        assert profile_origin_value(1, 0.5) == pytest.approx(
            1 / math.pi, rel=1e-14)

    def test_poisson_three_dim(self):
        assert profile_origin_value(3, 0.5) == pytest.approx(
            1 / math.pi ** 2, rel=1e-14)


class TestBuildProfile:
    def test_matches_poisson(self, prof_1_05, prof_2_05, prof_3_05):
        for prof in (prof_1_05, prof_2_05, prof_3_05):
            keep = prof.sigma_grid <= 20.0
            exact = poisson_profile(prof.N, prof.sigma_grid[keep])
            rel = np.abs(prof.H_values[keep] - exact) / exact
            assert rel.max() < 1e-6

    def test_derivative_matches_poisson(self, prof_1_05):
        sg = prof_1_05.sigma_grid
        keep = (sg > 0) & (sg <= 20.0)
        exact = poisson_profile_derivative(1, sg[keep])
        rel = np.abs(prof_1_05.Hprime_values[keep] - exact) / np.abs(exact)
        assert rel.max() < 1e-6

    def test_mass_normalization(self, prof_1_05, prof_3_05, prof_2_025,
                                prof_2_075, prof_3_025):
        for prof in (prof_1_05, prof_3_05, prof_2_025, prof_2_075,
                     prof_3_025):
            assert abs(prof.mass - 1.0) < 1e-6

    def test_strictly_decreasing_and_derivative_sign(self, prof_3_05):
        assert np.all(np.diff(prof_3_05.H_values) < 0.0)
        assert np.all(prof_3_05.Hprime_values <= 0.0)

    def test_derivative_envelope_bounded(self, prof_3_05):
        sg = prof_3_05.sigma_grid
        env = np.abs(prof_3_05.Hprime_values) * (1 + sg ** 2) ** (
            (prof_3_05.N + 2 * prof_3_05.s + 1) / 2.0)
        assert np.all(np.isfinite(env))
        assert env.max() < 10.0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            build_profile(3, 1.2, 10.0, 32)
        for N, s in ((0, 0.5), (2.5, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                     (3, math.nan)):
            with pytest.raises(DomainError):
                build_profile(N, s, 10.0, 32)
        with pytest.raises(DomainError):
            build_profile(3, 0.5, -1.0, 32)
        with pytest.raises(DomainError):
            build_profile(3, 0.5, 10.0, 8)


# H(sigma) to 20 digits, computed with mpmath at 30 digits from the 1-D
# forms of the radial Fourier integral (x = 2 pi rho):
#   N = 1:  H = (1/pi) int_0^inf e^{-x^{2s}} cos(sigma x) dx,
#   N = 3:  H = 1/(2 pi^2 sigma) int_0^inf x e^{-x^{2s}} sin(sigma x) dx.
# Route 1 substitutes x = t^{1/(2s)}, which removes the kink of x^{2s} at
# the origin, and sums panels between the zeros of the oscillation up to
# t = 90.  Route 2 rotates the contour to x = y e^{i pi/4}, which turns the
# oscillation into exponential decay.  The two routes agree to 1e-21.
KERNEL_ORACLE = {
    (1, 0.25): {0.5: 0.17076240172520622381, 1.0: 0.086107146912604118325,
                2.5: 0.02985147829710786429, 10.0: 0.004872255383721116158},
    (1, 0.75): {0.5: 0.26229684035409003579, 1.0: 0.20203815960784013039,
                2.5: 0.051148894530671766313,
                10.0: 0.0010477760249294404612},
    (3, 0.25): {0.5: 0.097564511661917749931, 1.0: 0.014665727830223272877,
                2.5: 0.00093536409686099492526,
                10.0: 1.0610821826442626108e-05},
    (3, 0.75): {0.5: 0.030110888779505640427, 1.0: 0.021583066054200037349,
                2.5: 0.0032514480795439352707,
                10.0: 4.4255787560092263011e-06},
}


class TestProfilePointOracle:
    @pytest.mark.parametrize("N,s", sorted(KERNEL_ORACLE))
    def test_matches_high_precision_away_from_half(self, N, s):
        # worst seen 8.5e-13, at N = 3, s = 0.25, sigma = 10
        rho_decay = _decay_rho_edges(s)
        for sigma, exact in KERNEL_ORACLE[N, s].items():
            assert _profile_point(N, s, sigma, rho_decay)[0] == pytest.approx(
                exact, rel=1e-10)


# every Hankel band start, the series edges and both neighbours of each
_BESSEL_EDGES = np.array([2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 19.0, 50.0,
                          300.0, 2000.0])
BESSEL_GRID = np.unique(np.concatenate([
    np.geomspace(1e-12, 2e5, 30_000), np.linspace(1.0, 60.0, 10_000),
    _BESSEL_EDGES, np.nextafter(_BESSEL_EDGES, 0.0),
    np.nextafter(_BESSEL_EDGES, np.inf)]))
# 1.5 times the largest |J - jv| / max(1, |jv|) on BESSEL_GRID: 6.4e-16 at
# integer orders, 6.7e-15 at half-integer ones, where the difference is
# scipy's own error in jv (the closed forms agree with 40-digit values)
BESSEL_BOUND = {0.0: 9.6e-16, 0.5: 1.0e-14}
ORDERS_N = [(N, s) for N in range(1, 9) for s in (0.1, 0.25, 0.5, 0.75, 0.9)]


class TestSpecialFunctionsAgainstScipy:
    @pytest.mark.parametrize("nu", np.arange(-0.5, 4.01, 0.5).tolist())
    def test_bessel_pair(self, nu):
        pair = _bessel_pair(nu, BESSEL_GRID)
        for row, order in zip(pair, (nu, nu + 1.0)):
            ref = special.jv(order, BESSEL_GRID)
            err = np.abs(row - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= BESSEL_BOUND[order % 1.0], order

    def test_rgamma_with_exact_zeros(self):
        x = np.concatenate([-0.25 * np.arange(1, 13), -0.5 * np.arange(1, 13),
                            np.linspace(-11.7, 11.7, 91)])
        ref = special.rgamma(x)
        got = np.array([_rgamma(v) for v in x])
        assert np.count_nonzero(ref == 0.0) == 9
        assert np.array_equal(got == 0.0, ref == 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("N,s", ORDERS_N)
    def test_closed_forms(self, N, s):
        area = 2.0 * np.pi ** (N / 2) / special.gamma(N / 2)
        assert sphere_area(N) == pytest.approx(area, rel=1e-14, abs=0.0)
        origin = (area * (2 * np.pi) ** -N * special.gamma(N / (2 * s))
                  / (2 * s))
        assert profile_origin_value(N, s) == pytest.approx(
            origin, rel=1e-14, abs=0.0)
        for mu in np.linspace(0.0, N, 7)[:-1]:
            moment = (2.0 ** -mu * special.gamma((N - mu) / 2)
                      * special.gamma(1 + mu / (2 * s))
                      / (special.gamma(N / 2) * special.gamma(1 + mu / 2)))
            assert profile_moment(N, s, mu) == pytest.approx(
                moment, rel=1e-14, abs=0.0)
        k = np.arange(1, 13)
        coeffs = ((-1.0) ** k * 2.0 ** (2 * k * s) * np.pi ** (-N / 2)
                  * special.gamma((N + 2 * k * s) / 2) / special.factorial(k)
                  * special.rgamma(-k * s))
        np.testing.assert_allclose(tail_series_coefficients(N, s), coeffs,
                                   rtol=1e-14, atol=0.0)


class TestInterpolant:
    @pytest.mark.parametrize("fixture", ["prof_1_05", "prof_3_05",
                                         "prof_2_025"])
    def test_bit_identical_to_scipy_hermite(self, fixture, request):
        from scipy.interpolate import CubicHermiteSpline
        prof = request.getfixturevalue(fixture)
        x = prof.sigma_grid
        oracle = CubicHermiteSpline(x, prof.H_values, prof.Hprime_values)
        # knots (sigma = 0 and sigma_max among them) and mid-panels
        for q in (x, 0.5 * (x[1:] + x[:-1]), np.array([0.0, prof.sigma_max]),
                  np.float64(prof.sigma_max)):
            assert (np.asarray(prof.h_of_sigma(q)).tobytes()
                    == oracle(q).tobytes())
            assert (np.asarray(prof.hprime_of_sigma(q)).tobytes()
                    == oracle.derivative()(q).tobytes())


class TestBallMass:
    def test_arctan_oracle(self):
        for R in (0.5, 5.0, 50.0):
            assert ball_mass(1, 0.5, R) == pytest.approx(
                (2 / math.pi) * math.atan(R), rel=1e-12)

    def test_three_dim_poisson_oracle(self):
        # int_{|x|<R} of the 3-d Poisson kernel, by dense radial quadrature
        R = 10.0
        r = np.linspace(0.0, R, 400001)
        oracle = np.trapezoid(4 * math.pi * r ** 2 * poisson_profile(3, r), r)
        assert ball_mass(3, 0.5, R) == pytest.approx(oracle, rel=1e-8)


class TestTailSeries:
    def test_leading_coefficient_is_normalization(self):
        for N, s in [(1, 0.25), (2, 0.25), (3, 0.5), (2, 0.75)]:
            c = tail_series_coefficients(N, s)
            assert c[0] == pytest.approx(pv_normalization(N, s), rel=1e-12)

    def test_poisson_expansion(self):
        # (1/pi^2)(1+x^2)^{-2} = (1/pi^2)(x^{-4} - 2x^{-6} + 3x^{-8} - ...)
        c = tail_series_coefficients(3, 0.5, 8)
        expected = [1, 0, -2, 0, 3, 0, -4, 0]
        for ck, ek in zip(c, expected):
            assert ck == pytest.approx(ek / math.pi ** 2, abs=1e-12)


class TestFarField:
    @pytest.mark.parametrize("fixture", ["prof_1_05", "prof_2_05",
                                         "prof_3_05"])
    def test_poisson_beyond_table(self, fixture, request):
        prof = request.getfixturevalue(fixture)
        sigma = np.array([50.5, 100.0, 1e3, 1e6])
        for got, exact in (
                (prof.h_of_sigma(sigma), poisson_profile(prof.N, sigma)),
                (prof.hprime_of_sigma(sigma),
                 poisson_profile_derivative(prof.N, sigma))):
            assert np.max(np.abs(got / exact - 1.0)) <= 1e-13

    @pytest.mark.parametrize("N,s", [(1, 0.25), (3, 0.25), (2, 0.75)])
    def test_series_matches_a_wider_table(self, N, s):
        # a sigma_max = 50 table continued over (50, 100], against the
        # quadrature that a sigma_max = 100 table holds at these knots; the
        # continuation depends on the table only through its edge
        prof = build_profile(N, s, 50.0, 16)
        rho_decay = _decay_rho_edges(s)
        for sigma in (50.5, 60.0, 75.0, 100.0):
            exact = _profile_point(N, s, sigma, rho_decay)[0]
            assert prof.h_of_sigma(sigma) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("column,factor", [("H_values", 1.0 + 1e-6),
                                               ("Hprime_values", 1.0 + 1e-5)],
                             ids=["H", "Hprime"])
    def test_edge_mismatch_refused(self, prof_1_05, column, factor):
        table = {"H_values": prof_1_05.H_values.copy(),
                 "Hprime_values": prof_1_05.Hprime_values.copy()}
        table[column][-1] *= factor
        bad = KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                            mass=prof_1_05.mass, **table)
        with pytest.raises(ProfileError, match="table edge"):
            bad.validate()


class TestHValue:
    def test_poisson_time_scaling(self, prof_1_05):
        assert h_value(prof_1_05, 0.0, 2.0) == pytest.approx(
            1 / (2 * math.pi), rel=1e-10)

    def test_self_similarity(self, prof_3_05):
        # h(x, t) = c^{N/(2s)} h(c^{1/(2s)} x, c t)
        for c in (0.25, 4.0):
            for (x, t) in [(0.5, 1.0), (2.0, 2.0), (1.0, 0.5)]:
                lhs = h_value(prof_3_05, x, t)
                rhs = c ** 3 * h_value(prof_3_05, c * x, c * t)
                assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_invalid_inputs(self, prof_1_05):
        with pytest.raises(DomainError):
            h_value(prof_1_05, 1.0, 0.0)
        with pytest.raises(DomainError):
            h_value(prof_1_05, -1.0, 1.0)


class TestEnvelope:
    def test_poisson_sharp_constants(self, prof_1_05, prof_3_05):
        # H (1+sigma^2)^{(N+2s)/2} is exactly constant for s = 1/2
        assert check_envelope(prof_1_05) == pytest.approx(math.pi, rel=1e-4)
        assert check_envelope(prof_3_05) == pytest.approx(
            math.pi ** 2, rel=1e-4)
        assert check_envelope(prof_1_05) <= 10.0
        assert check_envelope(prof_3_05) <= 10.0

    def test_finite_for_all_profiles(self, prof_2_025, prof_2_075,
                                     prof_3_025):
        for prof in (prof_2_025, prof_2_075, prof_3_025):
            assert math.isfinite(check_envelope(prof))

    def test_degenerate_single_point(self):
        prof = KernelProfile(N=1, s=0.5, sigma_grid=np.array([0.0]),
                             H_values=np.array([1 / math.pi]),
                             Hprime_values=np.array([0.0]),
                             mass=1.0)
        C = check_envelope(prof)
        assert C == pytest.approx(math.pi)

    def test_corruption(self, prof_1_05):
        bad = KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                            H_values=prof_1_05.H_values.copy(),
                            Hprime_values=prof_1_05.Hprime_values,
                            mass=1.0)
        bad.H_values[7] = 0.0
        with pytest.raises(ProfileError):
            check_envelope(bad)


class TestScalingIdentity:
    def test_poisson_oracle(self, prof_1_05):
        assert check_scaling_ode(prof_1_05) <= 1e-3

    def test_quarter_order_cross_validation(self, prof_3_025):
        assert check_scaling_ode(prof_3_025) <= 1e-2

    def test_quarter_order_with_far_field(self, prof_1_025):
        # radii whose integrals reach far past the table edge
        assert check_scaling_ode(prof_1_025, np.geomspace(0.2, 40, 12)) <= 1e-4

    # residuals at (N, 1/2) over the default radii, measured: the closed-form
    # Poisson profile, which leaves only the evaluator's error, and the
    # 321-point session table, which adds its interpolation error
    @pytest.mark.parametrize("N,closed_form,table", [
        (1, 7.1e-7, 1.6e-6), (2, 6.0e-7, 2.8e-6), (3, 2.5e-7, 5.2e-6)],
        ids=["N1", "N2", "N3"])
    def test_half_order_against_closed_form(self, request, N, closed_form,
                                            table):
        prof = request.getfixturevalue(f"prof_{N}_05")
        exact = SimpleNamespace(
            N=N, s=0.5, sigma_max=prof.sigma_max,
            h_of_sigma=lambda r: poisson_profile(N, r),
            hprime_of_sigma=lambda r: poisson_profile_derivative(N, r))
        assert check_scaling_ode(exact) <= 2.0 * closed_form
        assert check_scaling_ode(prof) <= 2.0 * table

    def test_constant_profile_fails(self):
        sg = np.linspace(0.0, 30.0, 200)
        # strictly-decreasing by a whisper so construction sanity passes,
        # but essentially constant: the identity must fail at O(1)
        H = 1.0 - 1e-9 * sg
        fake = KernelProfile(N=1, s=0.5, sigma_grid=sg, H_values=H,
                             Hprime_values=np.full_like(sg, -1e-9),
                             mass=1.0)
        res = check_scaling_ode(fake, radii=[1.0, 2.0])
        assert res > 0.5


class TestSerialization:
    def test_round_trip(self, tmp_path, prof_1_05):
        csv = tmp_path / "prof.csv"
        hdr = tmp_path / "prof.json"
        save_profile(prof_1_05, csv, hdr)
        back = load_profile(csv, hdr)
        assert back.N == 1 and back.s == 0.5
        np.testing.assert_allclose(back.sigma_grid, prof_1_05.sigma_grid)
        np.testing.assert_allclose(back.H_values, prof_1_05.H_values)
        assert back.mass == prof_1_05.mass

    def test_csv_header(self, prof_1_05):
        assert profile_csv(prof_1_05).splitlines()[0] == "sigma,H,Hprime"
