import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from conftest import poisson_profile, poisson_profile_derivative
from hardyheat import kernel
from hardyheat.errors import DomainError, ProfileError
from hardyheat.exponents import pv_normalization
from hardyheat.cli import load_profile, save_profile
from hardyheat.constructions import check_scaling_ode
from hardyheat.kernel import (_TAIL_TERMS, KernelProfile, _bessel_pair,
                              _decay_rho_edges, _profile_point, _rgamma,
                              _series_crossover, build_profile,
                              check_envelope, h_value, profile_moment,
                              profile_origin_value, sphere_area,
                              tail_series_coefficients)


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

    @pytest.mark.parametrize("N,s,n_points", [(2, 0.2, 161),
                                              (3, 0.15, 321)])
    def test_small_order_tables_build(self, N, s, n_points):
        # no quadrature runs past sigma_c, where the oscillatory panels of
        # sigma_max = 50 would pass their cap; measured |mass - 1|: 2.6e-12
        # and 2.4e-12
        prof = build_profile(N, s, 50.0, n_points)
        assert abs(prof.mass - 1.0) <= 1e-11

    def test_mass_depends_on_the_order_alone(self, prof_3_025):
        # the ball mass at sigma_c plus the series beyond it: neither the
        # table's edge nor its knots enter
        assert build_profile(3, 0.25, 20.0, 161).mass == prof_3_025.mass

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


    @pytest.mark.parametrize("N", [2, 4])
    def test_matches_small_sigma_series_at_even_dimension(self, N):
        # for s > 1/2 expanding the Bessel function of the Fourier integral
        # term by term gives a series convergent at every sigma,
        #   H = sum_m (-1)^m Gamma((N+2m)/(2s)) sigma^{2m}
        #       / (s 2^{N+2m} pi^{N/2} m! Gamma(m+N/2)),
        # which matches 40-digit values to 1.8e-14 at these points
        s = 0.75
        rho_decay = _decay_rho_edges(s)
        for sigma in (0.5, 1.0, 2.0):
            series, m, term = 0.0, 0, math.inf
            while abs(term) > 1e-18 * abs(series):
                term = ((-1) ** m * math.gamma((N + 2 * m) / (2 * s))
                        * sigma ** (2 * m)
                        / (s * 2.0 ** (N + 2 * m) * math.pi ** (N / 2)
                           * math.factorial(m) * math.gamma(m + N / 2)))
                series += term
                m += 1
            assert _profile_point(N, s, sigma, rho_decay)[0] == pytest.approx(
                series, rel=1e-12)


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
        k = np.arange(1, _TAIL_TERMS + 1)
        coeffs = ((-1.0) ** k * 2.0 ** (2 * k * s) * np.pi ** (-N / 2)
                  * special.gamma((N + 2 * k * s) / 2) / special.factorial(k)
                  * special.rgamma(-k * s))
        np.testing.assert_allclose(tail_series_coefficients(N, s), coeffs,
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mu", [-0.1, 3.0])
    def test_moment_outside_its_range_refused(self, mu):
        with pytest.raises(DomainError, match="need 0 <= mu < N"):
            profile_moment(3, 0.5, mu)


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
        rho_decay = _decay_rho_edges(0.5)
        for R in (0.5, 5.0, 50.0):
            assert _profile_point(1, 0.5, R, rho_decay)[2] == pytest.approx(
                (2 / math.pi) * math.atan(R), rel=1e-12)

    def test_three_dim_poisson_oracle(self):
        # int_{|x|<R} of the 3-d Poisson kernel, by dense radial quadrature
        R = 10.0
        r = np.linspace(0.0, R, 400001)
        oracle = np.trapezoid(4 * math.pi * r ** 2 * poisson_profile(3, r), r)
        mass = _profile_point(3, 0.5, R, _decay_rho_edges(0.5))[2]
        assert mass == pytest.approx(oracle, rel=1e-8)


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
        with pytest.raises(ProfileError, match="table edge"):
            KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                          mass=prof_1_05.mass, **table)

    @pytest.mark.parametrize("column, knot, value, match", [
        ("H_values", 7, math.nan, "non-finite"),
        ("Hprime_values", 7, math.inf, "non-finite"),
        ("H_values", 7, 1.0, "not strictly decreasing"),   # H(0) = 1/pi
        ("Hprime_values", 3, 1e-3, "positive entries"),
    ], ids=["H-nan", "Hprime-inf", "H-rising", "Hprime-positive"])
    def test_bad_table_refused(self, prof_1_05, column, knot, value, match):
        table = {"H_values": prof_1_05.H_values.copy(),
                 "Hprime_values": prof_1_05.Hprime_values.copy()}
        table[column][knot] = value
        with pytest.raises(ProfileError, match=match):
            KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                          mass=prof_1_05.mass, **table)

    def test_negative_sigma_refused(self, prof_1_05):
        with pytest.raises(DomainError, match="sigma must be nonnegative"):
            prof_1_05.h_of_sigma(-1.0)


class TestConstruction:
    @pytest.mark.parametrize("cut", [
        lambda sg, H, Hp: (sg[1:], H[1:], Hp[1:]),
        lambda sg, H, Hp: (np.zeros(2), H[-2:], Hp[-2:]),
        lambda sg, H, Hp: (-sg[::-1], H, Hp),
        lambda sg, H, Hp: (sg, H[:-1], Hp),
        lambda sg, H, Hp: (sg[None], H[None], Hp[None]),
    ], ids=["not-from-zero", "sigma-max-zero", "sigma-max-negative",
            "unequal-lengths", "two-dimensional"])
    def test_grid_not_rising_from_zero_refused(self, prof_1_05, cut):
        sg, H, Hp = cut(prof_1_05.sigma_grid, prof_1_05.H_values,
                        prof_1_05.Hprime_values)
        with pytest.raises(ProfileError, match="2 or more knots"):
            KernelProfile(N=1, s=0.5, sigma_grid=sg, H_values=H,
                          Hprime_values=Hp, mass=1.0)

    def test_dimension_and_order_refused(self, prof_1_05):
        with pytest.raises(DomainError, match="fractional order"):
            KernelProfile(N=1, s=1.5, sigma_grid=prof_1_05.sigma_grid,
                          H_values=prof_1_05.H_values,
                          Hprime_values=prof_1_05.Hprime_values, mass=1.0)

    def test_profile_is_read_only(self, prof_1_05):
        # the arrays are copies, so the caller's cannot reach the cubic
        # pieces, and neither the fields nor the arrays can be reassigned
        H = prof_1_05.H_values.copy()
        prof = KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                             H_values=H,
                             Hprime_values=prof_1_05.Hprime_values, mass=1.0)
        before = prof.h_of_sigma(1.0)
        H[:] = 1.0
        assert prof.h_of_sigma(1.0) == before
        for name in ("sigma_grid", "H_values", "Hprime_values"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(prof, name)[0] = 1.0
        with pytest.raises(AttributeError):
            prof.H_values = H

    def test_build_constructs_one_full_profile(self, monkeypatch):
        # build_profile fills every knot, quadrature and series, and then
        # constructs the one profile it returns
        built = []

        def constructed(**fields):
            built.append({k: np.copy(v) for k, v in fields.items()})
            return KernelProfile(**fields)

        monkeypatch.setattr(kernel, "KernelProfile", constructed)
        prof = build_profile(3, 0.5, 50.0, 33)
        assert len(built) == 1
        assert np.array_equal(built[0]["H_values"], prof.H_values)
        assert np.array_equal(built[0]["Hprime_values"], prof.Hprime_values)


# H' of the (3, 1/4) table at its knot 311, sigma = 51^{311/320} - 1, as
# -2 pi sigma H_5(sigma), to 20 digits.  H_5 by mpmath at 40 digits two
# ways: the 1-D form of the N = 5 Fourier integral,
#   H_5 = (sigma^{-3} int x e^{-x^{2s}} sin(sigma x) dx
#          - sigma^{-2} int x^2 e^{-x^{2s}} cos(sigma x) dx) / (4 pi^3),
# on the contour x = i y, where the oscillation turns into e^{-sigma y};
# and Bergstrom's series at N = 5, summed until it converges.  The two
# agree to 1e-40.
SLOPE_ORACLE_SIGMA = 44.66093127726423
SLOPE_ORACLE = -5.2031744037188841275e-09
# the largest relative gap between quadrature and series over the knots
# of the 161-point tables at sigma_max = 50 below is 5.8e-13 in H and
# 2.1e-12 in H', at the first series knot
JOIN_CASES = [(1, 0.25), (2, 0.25), (3, 0.25), (3, 0.5), (4, 0.5),
              (2, 0.75), (3, 0.75), (1, 0.9)]


class TestSeriesKnots:
    # the worst relative error over all 321 knots, measured: (H, H')
    # 7.0e-14, 9.8e-13 at N = 1; 9.4e-14, 9.1e-13 at N = 2; 1.0e-13,
    # 7.6e-13 at N = 3, each at the first series knot.  All-quadrature
    # tables miss by up to 2.2e-11 in H and 1.2e-9 in H', near sigma_max.
    @pytest.mark.parametrize("N,h_tol,hp_tol", [
        (1, 5e-13, 5e-12), (2, 5e-13, 5e-12), (3, 1e-12, 1e-12)],
        ids=["N1", "N2", "N3"])
    def test_half_order_table_at_every_knot(self, request, N, h_tol,
                                            hp_tol):
        prof = request.getfixturevalue(f"prof_{N}_05")
        sigma = prof.sigma_grid
        for got, exact, tol in (
                (prof.H_values, poisson_profile(N, sigma), h_tol),
                (prof.Hprime_values, poisson_profile_derivative(N, sigma),
                 hp_tol)):
            assert np.all(np.abs(got - exact) <= tol * np.abs(exact))

    def test_slope_against_high_precision(self, prof_3_025):
        # all-quadrature tables put H' 3.1e-7 off here
        assert prof_3_025.sigma_grid[311] == SLOPE_ORACLE_SIGMA
        assert prof_3_025.Hprime_values[311] == pytest.approx(
            SLOPE_ORACLE, rel=1e-13)

    @pytest.mark.parametrize("N,s", JOIN_CASES)
    def test_quadrature_then_series_from_the_crossover(self, N, s):
        prof = build_profile(N, s, 50.0, 161)
        sigma = prof.sigma_grid
        first = int(np.searchsorted(sigma, _series_crossover(N, s)))
        assert 0 < first < len(sigma) - 1
        rho_decay = _decay_rho_edges(s)
        below = _profile_point(N, s, float(sigma[first - 1]), rho_decay)[:2]
        assert below == (prof.H_values[first - 1],
                         prof.Hprime_values[first - 1])
        h, hp = _profile_point(N, s, float(sigma[first]), rho_decay)[:2]
        assert prof.H_values[first] == pytest.approx(h, rel=1e-12)
        assert prof.Hprime_values[first] == pytest.approx(hp, rel=1e-11)

    def test_join_mismatch_refused(self, perturbed_series):
        with pytest.raises(ProfileError, match="quadrature at sigma_c"):
            build_profile(3, 0.5, 50.0, 33)

    def test_all_quadrature_below_the_crossover(self):
        # sigma_c = 10.53 at (1, 0.9), past sigma_max: the table is the
        # quadrature, knot for knot and bit for bit
        assert _series_crossover(1, 0.9) > 10.25
        prof = build_profile(1, 0.9, 10.25, 33)
        rho_decay = _decay_rho_edges(0.9)
        for sigma, h, hp in zip(prof.sigma_grid, prof.H_values,
                                prof.Hprime_values):
            assert _profile_point(1, 0.9, float(sigma),
                                  rho_decay)[:2] == (h, hp)


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

    # unrefused, a nan gives nan and an infinite |x| or t gives 0.0
    @pytest.mark.parametrize("x, t, match", [
        (math.nan, 1.0, "radius"), (math.inf, 1.0, "radius"),
        (1.0, math.nan, "time"), (1.0, math.inf, "time")])
    def test_non_finite_input_refused(self, prof_1_05, x, t, match):
        with pytest.raises(DomainError, match=f"{match} must be .* finite"):
            h_value(prof_1_05, x, t)


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
        # a one-knot table has no cubic piece and no edge to join; it was
        # built, and refused only by a divide-by-zero warning in the checks
        with pytest.raises(ProfileError, match="2 or more knots"):
            KernelProfile(N=1, s=0.5, sigma_grid=np.array([0.0]),
                          H_values=np.array([1 / math.pi]),
                          Hprime_values=np.array([0.0]), mass=1.0)

    def test_corruption(self, prof_1_05):
        # a profile that check_envelope reads has positive, finite H: a
        # table with a zero is refused when it is built, and a built one
        # cannot be written into
        H = prof_1_05.H_values.copy()
        H[7] = 0.0
        with pytest.raises(ProfileError, match="non-positive H"):
            KernelProfile(N=1, s=0.5, sigma_grid=prof_1_05.sigma_grid,
                          H_values=H, Hprime_values=prof_1_05.Hprime_values,
                          mass=1.0)
        with pytest.raises(ValueError, match="read-only"):
            prof_1_05.H_values[7] = 0.0


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
        # strictly-decreasing by a whisper and meeting the series at its
        # edge, so construction sanity passes, but essentially constant:
        # the identity must fail at O(1)
        edge = poisson_profile(1, 30.0)
        H = edge * (1.0 + 1e-9 * (30.0 - sg))
        Hp = np.full_like(sg, -1e-9 * edge)
        Hp[-1] = poisson_profile_derivative(1, 30.0)
        fake = KernelProfile(N=1, s=0.5, sigma_grid=sg, H_values=H,
                             Hprime_values=Hp, mass=1.0)
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

    def test_csv_header(self, tmp_path, prof_1_05):
        csv = tmp_path / "prof.csv"
        save_profile(prof_1_05, csv, tmp_path / "prof.json")
        assert csv.read_text().splitlines()[0] == "sigma,H,Hprime"
