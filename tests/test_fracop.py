import math

import mpmath
import numpy as np
import pytest
from scipy.special import hyp1f1, loggamma

from conftest import poisson_profile
from hardyheat import fracop
from hardyheat.errors import DomainError, QuadratureError
from hardyheat.exponents import (exponent_profile, lambda_of_alpha,
                                 power_coupling, pv_normalization)
from hardyheat.fracop import (Field, UniformGrid, _core_complement,
                              _integral_edges, _radial_weight,
                              apply_ground_state_operator,
                              build_ground_state_matrix,
                              frac_laplacian_quadrature_radial,
                              frac_laplacian_spectral,
                              verify_power_solution)
from hardyheat.quadrature import head_panels, panel_nodes, tail_panels


def gaussian(r):
    return np.exp(-np.asarray(r, dtype=float) ** 2)


def per_row_matrix(r_grid, mu, N, s):
    """Reference collocation matrix laid out one row at a time in rho:
    every row its own panels, hat weights, head, tail and core stencil."""
    n, a = len(r_grid), pv_normalization(N, s)
    gaps = np.diff(r_grid)
    deltas = np.minimum(2.0 * np.minimum(np.r_[gaps[0], gaps],
                                         np.r_[gaps, gaps[-1]]),
                        0.25 * r_grid)
    A = np.zeros((n, n))
    for i, (r, delta) in enumerate(zip(r_grid, deltas)):
        def kern(rho):
            return r ** (-1.0 - 2 * s - mu) * _radial_weight(
                N, s, mu, rho / r, delta / r)

        pref = a * r ** -mu
        edges = np.unique(np.r_[r_grid, r * _integral_edges(delta / r)])
        edges = edges[(edges >= r_grid[0]) & (edges <= r_grid[-1])]
        nodes, wts = panel_nodes(edges, 8)
        kv = pref * wts * kern(nodes)
        j = np.searchsorted(r_grid, nodes)
        t = (nodes - r_grid[j - 1]) / (r_grid[j] - r_grid[j - 1])
        np.subtract.at(A[i], j - 1, kv * (1.0 - t))
        np.subtract.at(A[i], j, kv * t)
        scale = abs(kv.sum()) / pref
        below = pref * head_panels(kern, r_grid[0], 8, scale)
        A[i, i] += kv.sum() + below + pref * tail_panels(kern, r_grid[-1], 8,
                                                         scale)
        A[i, 0] -= below
        cols = np.arange(3) + min(max(i - 1, 0), n - 3)
        coeff = np.linalg.inv(np.vander(r_grid[cols] - r, 3, increasing=True))
        A[i, cols] += a * _core_complement(N, s, mu, r, delta, coeff[1],
                                           2.0 * coeff[2])
    return A


def closed_form_error(N, s, lam, n):
    """Max |A v - L v| over 0.05 < r < 3, relative to max |L v| there, for
    the matrix A on np.geomspace(1e-3, 1e3, n) and v = r^mu e^{-r^2}.

    With u = e^{-r^2}, (-Delta)^s u = 4^s Gamma(N/2+s)/Gamma(N/2)
    1F1(N/2+s; N/2; -r^2) and L v = r^{-mu} ((-Delta)^s u - lam u r^{-2s}).
    N >= 2 only: the matrix continues v below r_0 as v[0], i.e. u as
    |x|^{-mu}, not as this datum, and at N = 1 that costs an error which
    does not fall with n.
    """
    mu = exponent_profile(N, s, lam).mu
    r = np.geomspace(1e-3, 1e3, n)
    Av = build_ground_state_matrix(r, mu, N, s) @ (r ** mu * np.exp(-r * r))
    inside = (r > 0.05) & (r < 3.0)
    x = r[inside]
    lap = (4.0 ** s * math.gamma(N / 2 + s) / math.gamma(N / 2)
           * hyp1f1(N / 2 + s, N / 2, -x * x))
    Lv = x ** -mu * (lap - lam * np.exp(-x * x) * x ** (-2 * s))
    return float(np.max(np.abs(Av[inside] - Lv)) / np.max(np.abs(Lv)))


class TestGrids:
    def test_grid_invariants(self):
        g = UniformGrid(2, 10.0, 64)
        assert g.dx == pytest.approx(20.0 / 64)
        assert 0.0 in g.axis()
        with pytest.raises(DomainError):
            UniformGrid(2, 10.0, 60)
        with pytest.raises(DomainError):
            UniformGrid(4, 10.0, 64)

    def test_field_shape(self):
        g = UniformGrid(1, 10.0, 64)
        with pytest.raises(DomainError):
            Field(g, np.zeros(32))


class TestSpectral:
    def test_plane_wave_multiplier(self):
        g = UniformGrid(1, 10.0, 256)
        x = g.axis()
        k = 8 / (2 * g.half_width)           # resolvable mode
        u = np.cos(2 * math.pi * k * x)
        out = frac_laplacian_spectral(Field(g, u), 0.5).values
        np.testing.assert_allclose(out, (2 * math.pi * k) ** 1.0 * u,
                                   rtol=1e-12, atol=1e-12)

    def test_plane_wave_2d(self):
        g = UniformGrid(2, 5.0, 32)
        x = g.axis()
        kx, ky = 3 / 10.0, 5 / 10.0
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.cos(2 * math.pi * (kx * X + ky * Y))
        out = frac_laplacian_spectral(Field(g, u), 0.75).values
        mult = (2 * math.pi * math.hypot(kx, ky)) ** 1.5
        np.testing.assert_allclose(out, mult * u, rtol=1e-11, atol=1e-11)

    def test_constant_annihilated(self):
        g = UniformGrid(1, 10.0, 128)
        out = frac_laplacian_spectral(Field(g, np.ones(128)), 0.5).values
        assert np.max(np.abs(out)) == 0.0

    def test_linearity(self):
        g = UniformGrid(1, 20.0, 256)
        x = g.axis()
        u, v = np.exp(-x ** 2), np.exp(-(x - 1) ** 2 / 2)
        a = frac_laplacian_spectral(Field(g, 2 * u + 3 * v), 0.5).values
        b = (2 * frac_laplacian_spectral(Field(g, u), 0.5).values
             + 3 * frac_laplacian_spectral(Field(g, v), 0.5).values)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_symbol_refuses_order_outside_unit_interval(self, s):
        with pytest.raises(DomainError, match="fractional order"):
            fracop.spectral_symbol(UniformGrid(1, 8.0, 16), s)

    def test_cross_validation_with_quadrature(self):
        # large box so domain truncation sits below the tolerance; the
        # agreement must improve as the box grows; compared at the lattice
        # points nearest x = 0.5 and x = 1
        errors = {}
        for L, n in [(200.0, 32768), (400.0, 65536)]:
            g = UniformGrid(1, L, n)
            x = g.axis()
            out = frac_laplacian_spectral(Field(g, gaussian(x)), 0.5).values
            i = np.argmin(np.abs(x[:, None] - [0.5, 1.0]), axis=0)
            q = frac_laplacian_quadrature_radial(gaussian, 1, 0.5, x[i])
            errors[L] = float(np.max(np.abs(out[i] - q) / np.abs(q)))
        assert errors[400.0] < 1e-4
        assert errors[400.0] < errors[200.0]


class TestRadialQuadrature:
    def test_constant_annihilated(self):
        val = frac_laplacian_quadrature_radial(
            lambda r: np.ones_like(r), 3, 0.5, 1.0)
        assert val == 0.0

    def test_power_eigenfunction(self):
        # lambda(1/2) = 1/2 exactly for (N=3, s=1/2)
        for r in (0.5, 1.0, 2.0):
            got = frac_laplacian_quadrature_radial(
                lambda rho: rho ** -0.5, 3, 0.5, r)
            expect = 0.5 * r ** (-0.5 - 1.0)
            assert abs(got - expect) / abs(expect) < 1e-3

    def test_kernel_profile_scaling_identity(self, prof_1_05):
        # at r=1 the right side (N H + r H')/(2s) vanishes for the
        # 1-d Poisson profile, so the operator value must be ~0
        H = lambda rho: poisson_profile(1, rho)
        got = frac_laplacian_quadrature_radial(H, 1, 0.5, 1.0)
        scale = 1.0 * poisson_profile(1, 1.0) / (2 * 0.5)
        assert abs(got - 0.0) <= 1e-3 * scale
        # generic radius against the closed form
        got2 = frac_laplacian_quadrature_radial(H, 1, 0.5, 2.0)
        exact2 = (1 - 4.0) / (math.pi * (1 + 4.0) ** 2)
        assert got2 == pytest.approx(exact2, rel=1e-3)

    def test_linearity(self):
        f = gaussian
        g = lambda rho: 1.0 / (1.0 + np.asarray(rho) ** 2)
        combo = lambda rho: 2.0 * f(rho) + 3.0 * g(rho)
        r = 0.8
        lhs = frac_laplacian_quadrature_radial(combo, 3, 0.5, r)
        rhs = (2.0 * frac_laplacian_quadrature_radial(f, 3, 0.5, r)
               + 3.0 * frac_laplacian_quadrature_radial(g, 3, 0.5, r))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_scale_covariance(self):
        f = lambda rho: rho ** -0.5
        g1 = frac_laplacian_quadrature_radial(f, 3, 0.5, 1.0)
        g2 = frac_laplacian_quadrature_radial(f, 3, 0.5, 2.0)
        assert g2 / g1 == pytest.approx(2.0 ** -1.5, rel=1e-10)

    def test_two_dim(self):
        # cross-check the generic-N angular path against the 2-d Poisson
        # scaling identity 2s(-D)^s H = N H + r H'
        H = lambda rho: poisson_profile(2, rho)
        r = 1.3
        got = frac_laplacian_quadrature_radial(H, 2, 0.5, r)
        rhs = 2 * poisson_profile(2, r) + r * float(
            -3 * r * math.gamma(1.5) / math.pi ** 1.5
            * (1 + r ** 2) ** -2.5)
        assert got == pytest.approx(rhs, rel=1e-3)

    def test_singular_core_rejected(self):
        # blown-up field at the evaluation point: the local smoothness
        # estimate fails and the core correction must refuse
        with np.errstate(divide="ignore"):
            with pytest.raises(QuadratureError):
                frac_laplacian_quadrature_radial(
                    lambda r: 1.0 / np.abs(np.asarray(r) - 1.0), 3, 0.5, 1.0)

    def test_divergent_tail_rejected(self):
        # rho^1.5 and rho^1.2 grow faster than rho^{2s}: the integral
        # diverges.  rho^0.9 converges, but its tail dies out too slowly to
        # reach the panel tolerance, so it is refused as well.  The N = 3
        # kernel must not round to 0 far out (rho/r ~ 1e16) and end the tail
        # panels early with a finite value.
        for N in (1, 2, 3, 4):
            for e in (1.5, 1.2, 0.9):
                with pytest.raises(QuadratureError):
                    frac_laplacian_quadrature_radial(
                        lambda rho: rho ** e, N, 0.5, 1.0)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.95])
    def test_n3_cut_kernel_against_mpmath(self, s):
        # xi^{2-mu} 2 pi/(xi c) (max(|xi - 1|, d)^{-c} - (xi + 1)^{-c}),
        # c = 1 + 2s, at 40 digits: over xi in [1e-12, 1e12], inside the
        # cut band and on both sides of dmin/rsum = 1/2 (xi = 1/3 and 3)
        c = 1.0 + 2.0 * s
        split = np.array([1.0 / 3.0, 3.0])
        split = np.concatenate([split, np.nextafter(split, 0.0),
                                np.nextafter(split, 4.0), split * (1 - 1e-9),
                                split * (1 + 1e-9)])
        for d in (1e-3, 1.0 / 64.0, 0.25):
            band = 1.0 + d * np.linspace(-1.0, 1.0, 21)
            xi = np.concatenate([np.geomspace(1e-12, 1e12, 97), band,
                                 np.nextafter(band[[0, -1]], 1.0), split])
            for mu in (0.0, 0.8):
                got = _radial_weight(3, s, mu, xi, d)
                with mpmath.workdps(40):
                    cm, dm = mpmath.mpf(c), mpmath.mpf(d)
                    want = [x ** (2 - mpmath.mpf(mu)) * 2 * mpmath.pi
                            / (x * cm) * (max(abs(x - 1), dm) ** -cm
                                          - (x + 1) ** -cm)
                            for x in map(mpmath.mpf, xi)]
                    err = max(abs((g - w) / w) for g, w in zip(got, want))
                assert err < 2e-15, (d, mu, float(err))


def coupling(N, s, gamma):
    """power_coupling continued to complex gamma:
    (-Delta)^s |x|^{-gamma} = coupling |x|^{-gamma-2s}, 0 < Re gamma < N-2s."""
    return np.exp(2.0 * s * np.log(2.0) + loggamma((gamma + 2.0 * s) / 2.0)
                  + loggamma((N - gamma) / 2.0) - loggamma(gamma / 2.0)
                  - loggamma((N - 2.0 * s - gamma) / 2.0))


# (N, s) -> error bound at each frequency of FREQUENCIES: three times the
# error measured there
FREQUENCIES = (0.0, 1.0, 4.0, 10.0, 20.0)
FREQUENCY_BOUNDS = {
    (3, 0.5): (9e-12, 3.7e-7, 3.4e-5, 2.2e-5, 1.5e-4),
    (3, 0.25): (5.7e-9, 5.4e-8, 3.3e-6, 2.9e-6, 2.6e-5),
    (2, 0.3): (1.4e-7, 5.5e-7, 4.3e-6, 5.4e-6, 6.5e-5),
    (1, 0.25): (1.1e-7, 1.8e-7, 3.3e-6, 9.5e-6, 1.9e-4),
    (4, 0.75): (1.2e-6, 2.3e-6, 1.3e-4, 7.4e-5, 3.5e-4),
}


class TestFrequencyOracle:
    """(-Delta)^s [r^{-g0} cos(xi log r)] = Re(coupling(g0 + i xi)
    r^{-g0 - i xi - 2s}), g0 = (N-2s)/2: the real part of the power law at
    a complex exponent, an oracle that oscillates in log r at any
    frequency xi."""

    @pytest.mark.parametrize("N, s", list(FREQUENCY_BOUNDS))
    def test_oracle_is_the_power_coupling_at_zero_frequency(self, N, s):
        g0 = 0.5 * (N - 2.0 * s)
        exact = power_coupling(N, s, g0)
        assert abs(coupling(N, s, g0) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("k", range(len(FREQUENCIES)),
                             ids=[f"xi{xi:g}" for xi in FREQUENCIES])
    @pytest.mark.parametrize("N, s", list(FREQUENCY_BOUNDS))
    def test_radial_quadrature(self, N, s, k):
        xi = FREQUENCIES[k]
        g0 = 0.5 * (N - 2.0 * s)
        r = np.array([0.3, 1.0, 3.0])
        got = frac_laplacian_quadrature_radial(
            lambda rho: rho ** -g0 * np.cos(xi * np.log(rho)), N, s, r)
        gamma = g0 + 1j * xi
        exact = (coupling(N, s, gamma) * r ** (-gamma - 2.0 * s)).real
        err = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
        assert err <= FREQUENCY_BOUNDS[N, s][k], float(err)


class TestBatchContract:
    """An array of radii is one evaluator call: it must equal the scalar
    calls, and a family v_i (one member per radius) broadcasts along the
    leading axis of the arrays the callable receives."""

    RADII = np.geomspace(0.2, 5.0, 7)

    @staticmethod
    def assert_matches_scalar_calls(evaluate, radii):
        batch = evaluate(radii)
        assert batch.shape == radii.shape
        single = np.array([evaluate(float(r)) for r in radii])
        np.testing.assert_allclose(batch, single, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_ground_state_operator(self, mu):
        v = lambda rho: np.exp(-(rho - 1.0) ** 2 / 0.5)
        self.assert_matches_scalar_calls(
            lambda r: apply_ground_state_operator(v, mu, 3, 0.5, r),
            self.RADII)

    @pytest.mark.parametrize("N,s", [(1, 0.3), (2, 0.5), (3, 0.75)])
    def test_frac_laplacian(self, N, s):
        self.assert_matches_scalar_calls(
            lambda r: frac_laplacian_quadrature_radial(gaussian, N, s, r),
            self.RADII)

    @pytest.mark.parametrize("r", [0.0, np.array([0.0, 1.0]), -1.0,
                                   math.nan, np.array([1.0, math.inf])],
                             ids=["zero", "zero-in-array", "negative", "nan",
                                  "inf-in-array"])
    def test_radius_must_be_positive(self, r):
        with pytest.raises(DomainError, match="radius must be positive"):
            frac_laplacian_quadrature_radial(gaussian, 3, 0.5, r)
        with pytest.raises(DomainError, match="radius must be positive"):
            apply_ground_state_operator(gaussian, 0.5, 3, 0.5, r)

    def test_negative_weight_refused(self):
        with pytest.raises(DomainError, match="mu must be nonnegative"):
            apply_ground_state_operator(gaussian, -0.1, 3, 0.5, 1.0)

    def test_scalar_radius_returns_float(self):
        val = apply_ground_state_operator(gaussian, 0.5, 3, 0.5, 1.0)
        assert type(val) is float

    def test_row_family_matches_per_row_calls(self):
        # the cutoff family of the critical constants: row i is
        # v_i(y) = phi(tau_i^2 + |y|^{4s}) at |y| = (u_i - tau_i^2)^{1/(4s)}
        from hardyheat.constructions import _phi
        N, s, mu = 3, 0.5, 0.5
        u = np.array([1.1, 1.3, 1.5, 1.7, 1.9])
        tau = np.array([0.2, 0.9, 0.5, 1.1, 0.05])
        rho = (u - tau ** 2) ** (0.25 / s)
        family = apply_ground_state_operator(
            lambda rr: _phi(tau[:, None] ** 2 + rr ** (4.0 * s)),
            mu, N, s, rho)
        for i in range(len(u)):
            row = apply_ground_state_operator(
                lambda rr: _phi(tau[i] ** 2 + rr ** (4.0 * s)),
                mu, N, s, float(rho[i]))
            assert family[i] == pytest.approx(row, rel=1e-14)

    def test_non_finite_estimate_names_the_radius(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(QuadratureError, match="r=2.0"):
                frac_laplacian_quadrature_radial(
                    lambda rho: 1.0 / np.abs(rho - 2.0), 3, 0.5,
                    np.array([1.0, 2.0, 3.0]))


class TestPowerSolutions:
    def test_twenty_radii_in_one_call(self):
        # both power branches of (N, s, alpha) = (3, 1/2, 1/2) at 20 radii
        err = verify_power_solution(3, 0.5, 0.5, np.geomspace(0.05, 20.0, 20))
        assert err <= 1e-5

    def test_both_branches_in_one_call(self, monkeypatch):
        shapes = []
        evaluate = fracop.frac_laplacian_quadrature_radial

        def record(f, N, s, r):
            shapes.append(np.shape(r))
            return evaluate(f, N, s, r)

        monkeypatch.setattr(fracop, "frac_laplacian_quadrature_radial",
                            record)
        assert verify_power_solution(3, 0.5, 0.5, [0.5, 1.0, 2.0]) <= 1e-3
        assert shapes == [(2, 3)]

    @pytest.mark.parametrize("N,s,alpha", [
        (2, 0.25, 0.3), (2, 0.75, 0.2), (4, 0.5, 1.0), (4, 0.75, 0.4)])
    def test_generic_dimension_angular_path(self, N, s, alpha):
        # exercises the graded polar quadrature (no closed-form kernel)
        assert verify_power_solution(N, s, alpha, [0.5, 1.0, 2.0]) <= 1e-3

    def test_half_shift(self):
        err = verify_power_solution(3, 0.5, 0.5, [0.5, 1.0, 2.0])
        assert err <= 1e-3

    def test_zero_shift_hardy_constant(self):
        err = verify_power_solution(3, 0.5, 0.0, [1.0])
        assert err <= 1e-3

    def test_other_order(self):
        err = verify_power_solution(3, 0.25, 0.7, [0.5, 1.0])
        assert err <= 1e-3


class TestGroundState:
    def test_constant_annihilated(self):
        val = apply_ground_state_operator(
            lambda r: np.ones_like(r), 0.5, 3, 0.5, 1.0)
        assert val == 0.0

    def test_two_route_identity(self):
        # (-Delta)^s u - lam u/|x|^{2s} = |x|^{mu} L v for u = |x|^{-mu} v
        N, s, alpha = 3, 0.5, 0.5
        lam = lambda_of_alpha(N, s, alpha)
        mu = 0.5 * (N - 2 * s) - alpha
        v = lambda r: np.exp(-(np.asarray(r) - 1.0) ** 2 / 0.5)
        u = lambda r: np.asarray(r) ** -mu * v(r)
        for r in np.geomspace(0.4, 2.5, 10):
            lhs = (frac_laplacian_quadrature_radial(u, N, s, float(r))
                   - lam * r ** (-2 * s) * float(u(np.array([r]))[0]))
            rhs = r ** mu * apply_ground_state_operator(v, mu, N, s, float(r))
            assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1e-12)

    def test_zero_weight_reduces_to_plain(self):
        v = lambda r: np.exp(-(np.asarray(r) - 1.0) ** 2)
        a = apply_ground_state_operator(v, 0.0, 3, 0.5, 1.3)
        b = frac_laplacian_quadrature_radial(v, 3, 0.5, 1.3)
        assert a == b

    @pytest.mark.parametrize("N,s,mu", [(3, 0.5, 0.5), (2, 0.3, 0.3)])
    def test_matrix_consistent_with_pointwise(self, N, s, mu):
        vf = lambda rho: np.exp(-(np.asarray(rho) - 1.0) ** 2 / 0.5)
        errors = {}
        for n in (192, 384):
            r = np.geomspace(1e-3, 1e3, n)
            A = build_ground_state_matrix(r, mu, N, s)
            Av = A @ vf(r)
            worst = 0.0
            for rr in (0.5, 1.0, 2.0):
                i = int(np.argmin(np.abs(r - rr)))
                point = apply_ground_state_operator(vf, mu, N, s, float(r[i]))
                worst = max(worst, abs(Av[i] - point) / abs(point))
            errors[n] = worst
        assert errors[192] < 3e-2
        # hat interpolation against the singular kernel converges at
        # first order; refinement must improve the agreement
        assert errors[384] < 0.8 * errors[192]

    # closed_form_error at n = 128 as measured, and the margin a bound
    # allows above it
    CLOSED_FORM_ERRORS = {(3, 0.5, 0.5): 4.23e-3, (3, 0.5, 0.2): 8.99e-3,
                          (3, 0.25, 0.1): 1.35e-3, (4, 0.5, 0.3): 6.23e-3}
    CLOSED_FORM_MARGIN = 1.2

    @pytest.mark.parametrize("N,s,lam", list(CLOSED_FORM_ERRORS))
    def test_matrix_against_closed_form(self, N, s, lam):
        assert closed_form_error(N, s, lam, 128) <= (
            self.CLOSED_FORM_MARGIN * self.CLOSED_FORM_ERRORS[(N, s, lam)])

    @pytest.mark.parametrize("lam", [0.5, 0.2])
    def test_matrix_first_order_against_closed_form(self, lam):
        # hat interpolation next to a kernel of order 2s: O(h^{2-2s}),
        # first order at s = 1/2 (observed 1.04 and 0.93)
        order = math.log2(closed_form_error(3, 0.5, lam, 128)
                          / closed_form_error(3, 0.5, lam, 256))
        assert order >= 0.8

    def test_matrix_constant_residual_is_absorption(self):
        # on v == 1 only the (nonnegative) absorbing far-field closure
        # remains, scaled by the r^{-mu} row prefactor
        r = np.geomspace(1e-3, 1e3, 128)
        A = build_ground_state_matrix(r, 0.5, 3, 0.5)
        resid = A @ np.ones(len(r))
        assert np.all(resid >= -1e-10)
        mid = len(r) // 2
        assert abs(resid[mid]) < 1e-4

    @pytest.mark.parametrize("N,s,mu", [(1, 0.25, 0.1), (2, 0.3, 0.3),
                                        (3, 0.5, 0.5), (4, 0.5, 0.4)])
    def test_matrix_matches_per_row_layout(self, N, s, mu):
        # the shared xi layout only reorders the per-row sums; q = 1.10
        # gives row 0 a core ratio of its own
        r = np.geomspace(0.1, 10.0, 48)
        A = build_ground_state_matrix(r, mu, N, s)
        ref = per_row_matrix(r, mu, N, s)
        rows = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(A - ref) / rows) <= 1e-12

    def test_matrix_refuses_non_geometric_grid(self):
        with pytest.raises(DomainError, match="geometric"):
            build_ground_state_matrix(np.linspace(0.01, 10.0, 48), 0.5, 3,
                                      0.5)

    @pytest.mark.parametrize("N,s,mu",
                             [(3, 0.5, 0.5), (2, 0.3, 0.3), (1, 0.25, 0.1)])
    def test_matrix_homogeneous(self, N, s, mu):
        # the kernel |x|^{-mu} |y|^{-mu} |x-y|^{-(N+2s)} is homogeneous, so
        # on a dilated grid A(c r) = c^{-2s-2mu} A(r)
        r, c = np.geomspace(0.1, 10.0, 48), 7.3
        A = build_ground_state_matrix(r, mu, N, s)
        scaled = c ** (2 * s + 2 * mu) * build_ground_state_matrix(
            c * r, mu, N, s)
        rows = np.max(np.abs(A), axis=1, keepdims=True)
        assert np.max(np.abs(scaled - A) / rows) <= 1e-12

    @pytest.mark.xfail(strict=True,
                       reason="the first tail panel of the last rows "
                       "straddles the kink of the cut band at xi = 1 + d")
    def test_matrix_last_row_absorption(self):
        # (A 1)_{n-1} / (a r^{-2s-2mu}) is the tail weight above xi = 1:
        # int_1^inf xi^{N-1-mu} K_3^d(1, xi) dxi with the closed-form N = 3
        # cut kernel 2 pi / (c xi) (max(|xi-1|, d)^{-c} - (xi+1)^{-c})
        from scipy.integrate import quad
        N, s, mu = 3, 0.5, 0.5
        r = np.geomspace(1e-3, 1e3, 128)
        A = build_ground_state_matrix(r, mu, N, s)
        got = (A[-1] @ np.ones(len(r))
               / (pv_normalization(N, s) * r[-1] ** (-2 * s - 2 * mu)))
        d, c = 2.0 * (1.0 - r[-2] / r[-1]), 1.0 + 2.0 * s

        def weight(xi):
            dmin = max(abs(xi - 1.0), d)
            return (xi ** (N - 1 - mu) * 2.0 * math.pi / (c * xi)
                    * (dmin ** -c - (xi + 1.0) ** -c))

        band = quad(weight, 1.0, 1.0 + d, epsabs=0.0, epsrel=1e-13)[0]
        far = quad(weight, 1.0 + d, np.inf, epsabs=0.0, epsrel=1e-13,
                   limit=200)[0]
        assert abs(got - (band + far)) <= 1e-8 * (band + far)
