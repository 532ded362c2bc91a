import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from hardyheat.cli import main
from hardyheat.errors import DomainError, RegimeAmbiguityError
from hardyheat.exponents import (ProblemParams, Regime,
                                 alpha_of_lambda, classify_regime,
                                 exponent_profile, hardy_constant,
                                 lambda_of_alpha, phase_table,
                                 power_coupling, pv_normalization)

# valid (N, s) combinations with N > 2s used by sweep-style tests
NS_GRID = [(1, 0.25), (2, 0.25), (2, 0.5), (2, 0.75),
           (3, 0.25), (3, 0.5), (3, 0.75),
           (4, 0.25), (4, 0.5), (4, 0.75)]


def gamma_ratio_oracle(N, s):
    # independent evaluation through the stdlib Gamma function
    return 2.0 ** (2 * s) * math.gamma((N + 2 * s) / 4) ** 2 \
        / math.gamma((N - 2 * s) / 4) ** 2


class TestHardyConstant:
    def test_local_limit(self):
        # s -> 1 recovers the classical constant ((N-2)/2)^2
        assert abs(hardy_constant(3, 0.999) - 0.25) < 1e-2

    def test_local_limit_monotone(self):
        # the approach to the classical constant is monotone on the
        # sampled tail of the s-grid
        vals = [hardy_constant(3, s) for s in np.linspace(0.6, 0.999, 40)]
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] > 0.25

    def test_half_order_three_dim(self):
        assert hardy_constant(3, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_against_stdlib_gamma(self):
        for N, s in NS_GRID:
            assert hardy_constant(N, s) == pytest.approx(
                gamma_ratio_oracle(N, s), rel=1e-13)

    def test_two_dim_equals_alpha_zero_coupling(self):
        assert hardy_constant(2, 0.5) == pytest.approx(
            lambda_of_alpha(2, 0.5, 0.0), rel=1e-14)

    def test_next_to_the_pole(self):
        # N - 2s = 2^-53: both Gamma arguments of the denominator are
        # 2^-55, which (N - gamma) - 2s would round to 2^-54
        N, s = 1, 0.49999999999999994
        assert hardy_constant(N, s) == pytest.approx(
            gamma_ratio_oracle(N, s), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hardy_constant(1, 0.5)          # N = 2s
        with pytest.raises(DomainError):
            hardy_constant(3, 1.5)
        with pytest.raises(DomainError):
            hardy_constant(0, 0.5)


class TestCoupling:
    def test_alpha_zero_is_hardy_constant(self):
        assert lambda_of_alpha(3, 0.5, 0.0) == pytest.approx(
            hardy_constant(3, 0.5), rel=1e-15)

    def test_exact_half(self):
        # Gamma(5/4) = (1/4) Gamma(1/4) collapses the ratio to exactly 1/2
        assert lambda_of_alpha(3, 0.5, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_vanishes_at_edge(self):
        edge = 0.5 * (3 - 1.0)
        assert lambda_of_alpha(3, 0.5, edge - 1e-8) < 1e-7

    def test_factorization(self):
        # the half factor m(a) = 2^s Gamma((N+2s+2a)/4) / Gamma((N-2s-2a)/4)
        # through the stdlib; lambda(a) = m(a) m(-a)
        def m_alpha(N, s, a):
            return math.exp(s * math.log(2.0)
                            + math.lgamma((N + 2 * s + 2 * a) / 4)
                            - math.lgamma((N - 2 * s - 2 * a) / 4))

        for N, s in NS_GRID:
            edge = 0.5 * (N - 2 * s)
            for a in np.linspace(0.0, edge * 0.999, 25):
                lam = lambda_of_alpha(N, s, a)
                assert lam == pytest.approx(
                    m_alpha(N, s, a) * m_alpha(N, s, -a), rel=1e-12)

    def test_hardy_constant_is_the_alpha_zero_coupling_to_the_bit(self):
        # one Gamma ratio: Lambda, lambda(0) and the peak power coupling
        # are the same float on the whole (N, s) grid
        for N in range(1, 6):
            for s in np.arange(1, 100) / 100:
                if N > 2 * s:
                    lam = hardy_constant(N, s)
                    assert lambda_of_alpha(N, s, 0.0) == lam
                    assert power_coupling(N, s, 0.5 * (N - 2 * s)) == lam

    def test_strictly_decreasing(self):
        edge = 0.5 * (3 - 1.0)
        grid = np.linspace(0.0, edge - 1e-9, 1000)
        vals = [lambda_of_alpha(3, 0.5, a) for a in grid]
        assert np.all(np.diff(vals) < 0.0)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            lambda_of_alpha(3, 0.5, 1.0)
        with pytest.raises(DomainError):
            lambda_of_alpha(3, 0.5, -0.1)


class TestInversion:
    def test_at_hardy_constant(self):
        assert alpha_of_lambda(3, 0.5, hardy_constant(3, 0.5)) == 0.0

    def test_exact_inverse(self):
        assert alpha_of_lambda(3, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip(self):
        for N, s in [(3, 0.5), (2, 0.25), (4, 0.75)]:
            lam_max = hardy_constant(N, s)
            for lam in np.linspace(lam_max / 50, lam_max, 30):
                back = lambda_of_alpha(N, s, alpha_of_lambda(N, s, lam))
                assert abs(back - lam) <= 1e-12 * lam

    def test_bracket_when_n_minus_2s_is_below_the_edge_margin(self):
        N, s = 1, 0.49999999999999994
        alpha = alpha_of_lambda(N, s, 1e-6 * hardy_constant(N, s))
        assert 0.0 <= alpha < 0.5 * (N - 2 * s)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alpha_of_lambda(3, 0.5, 0.0)
        with pytest.raises(DomainError):
            alpha_of_lambda(3, 0.5, hardy_constant(3, 0.5) * 1.0001)


class TestNormalization:
    def test_one_dim_half(self):
        assert pv_normalization(1, 0.5) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_three_dim_half(self):
        assert pv_normalization(3, 0.5) == pytest.approx(
            1 / math.pi ** 2, rel=1e-14)

    def test_against_stdlib(self):
        for N, s in NS_GRID:
            oracle = (2.0 ** (2 * s) * math.gamma((N + 2 * s) / 2)
                      / (math.pi ** (N / 2) * abs(math.gamma(-s))))
            assert pv_normalization(N, s) == pytest.approx(oracle, rel=1e-13)


class TestProfile:
    def test_worked_instance(self):
        prof = exponent_profile(3, 0.5, 0.5)
        assert prof.alpha == pytest.approx(0.5, abs=1e-12)
        assert prof.mu == pytest.approx(0.5, abs=1e-12)
        assert prof.mu_bar == pytest.approx(1.5, abs=1e-12)
        assert prof.p_plus == pytest.approx(3.0, abs=1e-12)
        assert prof.p_minus == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert prof.fujita == pytest.approx(1.4, abs=1e-12)
        assert prof.sobolev_power == pytest.approx(2.0, abs=1e-14)

    def test_endpoint_merges(self):
        prof = exponent_profile(3, 0.5, hardy_constant(3, 0.5))
        assert prof.p_plus == pytest.approx(prof.sobolev_power, abs=1e-12)
        assert prof.p_minus == pytest.approx(prof.sobolev_power, abs=1e-12)

    def test_small_coupling_fujita_limit(self):
        prof = exponent_profile(3, 0.5, 1e-6)
        assert abs(prof.fujita - (1 + 1.0 / 3.0)) < 1e-3

    def test_zero_coupling_limits(self):
        prof = exponent_profile(3, 0.5, 0.0)
        assert prof.mu == 0.0
        assert prof.p_plus == math.inf
        assert prof.fujita == pytest.approx(1 + 1.0 / 3.0, rel=1e-14)

    def test_conjugate_sum(self):
        for N, s in NS_GRID:
            lam = 0.5 * hardy_constant(N, s)
            prof = exponent_profile(N, s, lam)
            assert prof.mu + prof.mu_bar == pytest.approx(N - 2 * s, rel=1e-13)
            assert 0.0 < prof.mu <= 0.5 * (N - 2 * s) <= prof.mu_bar < N - 2 * s

    def test_ordering_chain(self):
        for N, s in NS_GRID:
            lam_max = hardy_constant(N, s)
            for lam in np.linspace(lam_max / 20, lam_max, 12):
                prof = exponent_profile(N, s, lam)
                tol = 1e-12
                assert 1 + 2 * s / N <= prof.fujita + tol
                assert prof.fujita <= prof.p_minus + tol
                assert prof.p_minus <= prof.sobolev_power + tol
                assert prof.sobolev_power <= prof.p_plus + tol


class TestPowerCoupling:
    def test_recovers_coupling_at_mu(self):
        prof = exponent_profile(3, 0.5, 0.5)
        assert power_coupling(3, 0.5, prof.mu) == pytest.approx(0.5, rel=1e-12)
        assert power_coupling(3, 0.5, prof.mu_bar) == pytest.approx(0.5, rel=1e-12)

    def test_peak_at_midpoint(self):
        assert power_coupling(3, 0.5, 1.0) == pytest.approx(
            hardy_constant(3, 0.5), rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_exponent_outside_the_range_refused(self, gamma):
        with pytest.raises(DomainError, match=r"must lie in \(0, 2.0\)"):
            power_coupling(3, 0.5, gamma)


class TestAgainstScipy:
    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_gamma_ratios(self, N, s):
        gamma = special.gamma
        normalization = (2.0 ** (2 * s) * gamma((N + 2 * s) / 2)
                         / (math.pi ** (N / 2) * abs(gamma(-s))))
        assert pv_normalization(N, s) == pytest.approx(
            normalization, rel=1e-14, abs=0.0)
        if N <= 2 * s:
            return
        for g in np.linspace(0.0, N - 2 * s, 9)[1:-1]:
            coupling = (2.0 ** (2 * s) * gamma((g + 2 * s) / 2)
                        * gamma((N - g) / 2)
                        / (gamma(g / 2) * gamma((N - 2 * s - g) / 2)))
            assert power_coupling(N, s, g) == pytest.approx(
                coupling, rel=1e-14, abs=0.0)


class TestRegime:
    def params(self, p):
        return ProblemParams(3, 0.5, 0.5, p)

    def test_sub_fujita(self):
        assert classify_regime(self.params(1.2)) is Regime.SUB_FUJITA_BLOW_UP

    def test_critical(self):
        assert classify_regime(self.params(1.4)) is Regime.CRITICAL_FUJITA

    def test_conditional(self):
        assert classify_regime(self.params(2.0)) is Regime.CONDITIONAL_GLOBAL

    def test_non_existence(self):
        assert classify_regime(self.params(3.5)) is Regime.NON_EXISTENCE

    def test_ambiguous_at_p_plus(self):
        with pytest.raises(RegimeAmbiguityError):
            classify_regime(self.params(3.0))

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, -0.1, 2.0)
        with pytest.raises(DomainError):
            ProblemParams(1, 0.5, 0.1, 2.0)


    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_power_refused(self, p):
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, 0.5, p)


class TestPhaseTable:
    def test_endpoint_row(self):
        lam_max = hardy_constant(3, 0.5)
        rows, errors = phase_table(3, 0.5, [lam_max])
        assert not errors
        star = (3 + 1.0) / (3 - 1.0)
        assert rows[0].p_plus == pytest.approx(star, abs=1e-10)
        assert rows[0].p_minus == pytest.approx(star, abs=1e-10)

    def test_monotonicity(self):
        rows, _ = phase_table(3, 0.5, np.linspace(0.05, 0.6, 12))
        p_plus = [r.p_plus for r in rows]
        p_minus = [r.p_minus for r in rows]
        assert np.all(np.diff(p_plus) < 0.0)
        assert np.all(np.diff(p_minus) > 0.0)

    def test_empty_grid(self):
        rows, errors = phase_table(3, 0.5, [])
        assert rows == [] and errors == []

    def test_bad_rows_reported(self):
        rows, errors = phase_table(3, 0.5, [0.5, 10.0, -1.0, 0.0])
        assert len(rows) == 1 and len(errors) == 3

    def test_order_refused_before_any_row(self):
        # N <= 2s leaves no row to report: the table is refused outright
        with pytest.raises(DomainError, match="N > 2s"):
            phase_table(1, 0.5, [0.1, 0.2])

    def test_csv_format(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "phase-diagram", "--N", "3",
                     "--s", "0.5", "--lambda-grid", "0.5"]) == 0
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "lambda,alpha,mu,p_minus,p_plus,fujita"
        cells = lines[1].split(",")
        assert len(cells) == 6
        assert float(cells[0]) == 0.5


@st.composite
def couplings(draw):
    """(N, s, lambda) with N in 1..5, s in [0.05, 0.95], N > 2s and
    lambda / Lambda(N, s) in [1e-3, 1]."""
    N = draw(st.integers(1, 5))
    s = draw(st.floats(0.05, 0.95).filter(lambda v: N > 2.0 * v))
    frac = draw(st.floats(1e-3, 1.0))
    return N, s, frac * hardy_constant(N, s)


PROPERTY_SETTINGS = settings(derandomize=True, database=None,
                             max_examples=300, deadline=None)


class TestExponentProperties:
    @PROPERTY_SETTINGS
    @given(couplings())
    def test_fujita_below_p_minus_below_p_plus(self, point):
        # N - mu = mu_bar + 2s > mu_bar, so F < p_minus always
        prof = exponent_profile(*point)
        assert 1.0 < prof.fujita < prof.p_minus <= prof.p_plus

    @PROPERTY_SETTINGS
    @given(couplings())
    def test_conjugate_sum(self, point):
        N, s, lam = point
        prof = exponent_profile(N, s, lam)
        assert abs(prof.mu + prof.mu_bar - (N - 2 * s)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(couplings())
    def test_lambda_alpha_round_trip(self, point):
        N, s, lam = point
        back = lambda_of_alpha(N, s, alpha_of_lambda(N, s, lam))
        assert abs(back - lam) <= 1e-10 * lam
