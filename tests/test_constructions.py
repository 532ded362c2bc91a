import math
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from conftest import poisson_profile
from hardyheat import constructions
from hardyheat.errors import (DomainError, QuadratureError,
                              UnsupportedDatumError)
from hardyheat.exponents import ProblemParams, exponent_profile
from hardyheat.kernel import build_profile, profile_moment
from hardyheat.fracop import (Field, UniformGrid,
                              frac_laplacian_quadrature_radial)
from hardyheat.constructions import (SupersolutionParams, TestFunctionParams,
                                     _supersolution_terms,
                                     choose_supersolution,
                                     critical_case_constants,
                                     energy_blowup_criterion, energy_gap,
                                     psi_differential_inequality,
                                     psi_eta_mass, psi_eta_value,
                                     psi_mass_constant, smooth_bump,
                                     supersolution_residual,
                                     supersolution_value,
                                     y_ode_blowup_predictor)

PARAMS = ProblemParams(3, 0.5, 0.5, 2.0)
MU = 0.5
COUPLING = PARAMS.exponents                 # its mu is MU
TABLE = build_profile(3, 0.5, 50.0, 321)    # of PARAMS's (N, s)
TABLE_3_075 = build_profile(3, 0.75, 50.0, 321)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: TestFunctionParams(COUPLING, eta=0.0),
                 "eta must be positive", id="psi-eta-zero"),
    *[pytest.param(lambda v=v: TestFunctionParams(COUPLING, eta=v),
                   "eta must be positive and finite", id=f"psi-eta-{v}")
      for v in (math.nan, math.inf, -math.inf)],
    # a (3, 3/4) table gave psi_eta of a (3, 1/2) coupling; the slack read
    # +0.115 at eta = 0.05
    pytest.param(lambda: psi_eta_value(
        1.0, TestFunctionParams(COUPLING, 0.05), TABLE_3_075),
                 "kernel table of N=3, s=0.75 cannot evaluate",
                 id="psi-value-table-of-another-problem"),
    pytest.param(lambda: psi_eta_mass(
        TestFunctionParams(COUPLING, 0.05), TABLE_3_075),
                 "kernel table of N=3, s=0.75 cannot evaluate",
                 id="psi-mass-table-of-another-problem"),
    pytest.param(lambda: psi_differential_inequality(
        TestFunctionParams(COUPLING, 0.05), TABLE_3_075, [1.0]),
                 "kernel table of N=3, s=0.75 cannot evaluate",
                 id="psi-inequality-table-of-another-problem"),
    pytest.param(lambda: y_ode_blowup_predictor(-1.0, None, PARAMS, TABLE),
                 "Y0 must be nonnegative", id="predictor-mass-negative"),
    pytest.param(lambda: y_ode_blowup_predictor(math.nan, None, PARAMS, TABLE),
                 "Y0 must be nonnegative and finite", id="predictor-mass-nan"),
    pytest.param(lambda: y_ode_blowup_predictor(1.0, 0.0, PARAMS, TABLE),
                 "eta must be positive", id="predictor-eta-zero"),
    pytest.param(lambda: y_ode_blowup_predictor(1.0, math.nan, PARAMS, TABLE),
                 "eta must be positive and finite", id="predictor-eta-nan"),
    # C = C_psi^{1-p} of a (3, 3/4) table gave a horizon for (3, 1/2)
    pytest.param(lambda: y_ode_blowup_predictor(
        1.0, None, PARAMS, TABLE_3_075),
                 "kernel table of N=3, s=0.75 cannot evaluate",
                 id="predictor-table-of-another-problem"),
    pytest.param(lambda: SupersolutionParams(PARAMS, A=0.0),
                 "amplitude", id="supersolution-amplitude-zero"),
    pytest.param(lambda: SupersolutionParams(PARAMS, A=-1.0),
                 "amplitude must be positive and finite",
                 id="supersolution-amplitude-negative"),
    pytest.param(lambda: SupersolutionParams(PARAMS, A=math.nan),
                 "amplitude must be positive and finite",
                 id="supersolution-amplitude-nan"),
    pytest.param(lambda: SupersolutionParams(PARAMS, A=math.inf),
                 "amplitude must be positive and finite",
                 id="supersolution-amplitude-inf"),
    pytest.param(lambda: SupersolutionParams(ProblemParams(3, 0.5, 0.5, 3.5),
                                             A=1.0),
                 "fujita < p < p_plus.*non_existence",
                 id="supersolution-non-existence"),
    pytest.param(lambda: SupersolutionParams(ProblemParams(3, 0.5, 0.5, 1.2),
                                             A=1.0),
                 "fujita < p < p_plus.*sub_fujita_blow_up",
                 id="supersolution-sub-fujita"),
    pytest.param(lambda: constructions.compare_supersolution(
        SimpleNamespace(fields=None, r_grid=None), None, None),
                 "no stored fields", id="compare-without-fields"),
    # a 2-D bump of an N = 3 problem gave a gap of (0.419, 0.871)
    pytest.param(lambda: energy_gap(Field.from_radial(
        UniformGrid(2, 8.0, 32), smooth_bump(2.0)), PARAMS, 2.0),
                 "a grid of dimension 2 cannot run N=3",
                 id="energy-grid-of-another-dimension"),
])
def test_refused(call, match):
    with pytest.raises(DomainError, match=match):
        call()


class TestPsiEta:
    def test_mass_law_ratio(self, prof_3_05):
        # int psi_eta = C eta^{-mu/(2s)}: quadruple eta -> factor 4^{-mu/(2s)}
        m1 = psi_eta_mass(TestFunctionParams(COUPLING, 0.1), prof_3_05)
        m4 = psi_eta_mass(TestFunctionParams(COUPLING, 0.4), prof_3_05)
        assert m4 / m1 == pytest.approx(4.0 ** (-MU / 1.0), rel=1e-4)

    def test_degenerate_weight_is_kernel(self, prof_3_05):
        # lambda = 0 has mu = 0
        params = TestFunctionParams(exponent_profile(3, 0.5, 0.0), 1.0)
        x = 1.3
        assert psi_eta_value(x, params, prof_3_05) == pytest.approx(
            poisson_profile(3, x), rel=1e-6)
        assert psi_eta_mass(params, prof_3_05) == pytest.approx(1.0, abs=1e-6)

    def test_mass_law_slope_regression(self, prof_3_05):
        etas = np.geomspace(1e-2, 1.0, 9)
        masses = [psi_eta_mass(TestFunctionParams(COUPLING, float(e)),
                               prof_3_05)
                  for e in etas]
        slope = np.polyfit(np.log(etas), np.log(masses), 1)[0]
        assert slope == pytest.approx(-MU / 1.0, abs=1e-2)

    def test_mass_constant_poisson_oracle(self, prof_3_05):
        # C_psi = omega int sigma^{3/2} H = sqrt(2)/2 for the 3-d Poisson
        # kernel (Beta-function evaluation)
        assert psi_mass_constant(prof_3_05, MU) == pytest.approx(
            math.sqrt(2.0) / 2.0, rel=1e-6)
        assert profile_moment(3, 0.5, MU) == pytest.approx(
            math.sqrt(2.0) / 2.0, rel=1e-14)

    # (N, s, lambda) and the table to integrate, besides the Poisson case
    # above; worst seen 1.9e-7
    @pytest.mark.parametrize("N,s,lam,fixture", [
        (2, 0.5, 0.2, "prof_2_05"),
        (2, 0.3, 0.2, None), (1, 0.25, 0.05, "prof_1_025"),
        (3, 0.25, 0.3, "prof_3_025"), (4, 0.5, 0.4, None),
        (3, 0.75, 0.3, None)])
    def test_mass_constant_closed_form(self, N, s, lam, fixture, request):
        prof = (request.getfixturevalue(fixture) if fixture
                else build_profile(N, s, 50.0, 321))
        mu = exponent_profile(N, s, lam).mu
        assert psi_mass_constant(prof, mu) == pytest.approx(
            profile_moment(N, s, mu), rel=1e-6)

    def test_differential_inequality(self, prof_3_05):
        slack = psi_differential_inequality(
            TestFunctionParams(COUPLING, 0.05), prof_3_05,
            np.geomspace(0.05, 20.0, 20))
        assert slack >= 0.0

    @pytest.mark.parametrize("eta", [0.05, 0.7])
    def test_differential_inequality_matches_direct_evaluation(
            self, prof_3_05, eta):
        # the slack comes from (-Delta)^s g_mu at sigma = eta^{1/(2s)} r;
        # evaluate (-Delta)^s psi_eta in r instead
        params = TestFunctionParams(COUPLING, eta)

        def psi(rr):
            return psi_eta_value(rr, params, prof_3_05)

        for r in (0.1, 1.0, 6.0):
            lap = frac_laplacian_quadrature_radial(psi, 3, 0.5, r)
            val = float(psi(r))
            rest = 0.5 * val / r + 3.0 * eta * val
            assert psi_differential_inequality(
                params, prof_3_05, [r]) == pytest.approx(
                    (rest - lap) / (abs(lap) + rest), rel=1e-10)


class TestPredictor:
    def test_zero_mass_never_fires(self, prof_3_05):
        p = ProblemParams(3, 0.5, 0.5, 1.2)
        assert y_ode_blowup_predictor(0.0, None, p, prof_3_05) is None

    def test_below_fujita_every_mass_fires(self, prof_3_05):
        p = ProblemParams(3, 0.5, 0.5, 1.2)
        for y0 in (1e-6, 1e-3, 1.0, 1e3):
            T = y_ode_blowup_predictor(y0, None, p, prof_3_05)
            assert T is not None and 0.0 < T < math.inf

    def test_above_fujita_small_mass_never_fires(self, prof_3_05):
        p = ProblemParams(3, 0.5, 0.5, 2.0)
        assert y_ode_blowup_predictor(1e-6, None, p, prof_3_05) is None

    def test_fixed_eta_matches_closed_form(self, prof_3_05):
        p = ProblemParams(3, 0.5, 0.5, 1.2)
        C = psi_mass_constant(prof_3_05, MU) ** (1.0 - p.p)
        prof = exponent_profile(3, 0.5, 0.5)
        eta, Y0 = 0.05, 2.0
        cap = C * (2 * 0.5 / 3) * eta ** ((p.p - 1) * prof.mu / 1.0 - 1.0)
        ratio = Y0 ** (1 - p.p) / cap
        expected = -math.log1p(-ratio) / ((p.p - 1) * 3.0 * eta)
        assert y_ode_blowup_predictor(Y0, eta, p, prof_3_05) == pytest.approx(
            expected)

    def test_horizon_decreases_with_mass(self, prof_3_05):
        p = ProblemParams(3, 0.5, 0.5, 1.2)
        horizons = [y_ode_blowup_predictor(y0, None, p, prof_3_05)
                    for y0 in (0.01, 0.1, 1.0)]
        assert horizons[0] > horizons[1] > horizons[2]


class TestSupersolution:
    def test_choice_canonical_instance(self, prof_3_05):
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        assert sp.gamma == pytest.approx(0.75, abs=1e-12)
        assert sp.A > 0.0
        assert sp.theta * (PARAMS.p - 1.0) == pytest.approx(2 * PARAMS.s,
                                                            rel=1e-15)
        assert sp.beta * 2.0 * PARAMS.s == pytest.approx(1.0, rel=1e-15)

    def test_regime_errors(self, prof_3_05):
        with pytest.raises(DomainError):
            choose_supersolution(ProblemParams(3, 0.5, 0.5, 3.0), prof_3_05)
        with pytest.raises(DomainError):
            choose_supersolution(ProblemParams(3, 0.5, 0.5, 1.4), prof_3_05)

    def test_power_placed_by_classify_regime(self, prof_3_05):
        # within 1e-9 of F, p is critical, not conditional-global; the
        # family is refused before any quadrature
        fujita = exponent_profile(3, 0.5, 0.5).fujita
        with pytest.raises(DomainError, match="critical_fujita"):
            choose_supersolution(ProblemParams(3, 0.5, 0.5, fujita + 5e-10),
                                 prof_3_05)

    def test_family_is_its_problem_and_amplitude(self, prof_3_05):
        # theta, beta, gamma and T follow from the problem; only A is free
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        assert [f.name for f in fields(sp)] == ["problem", "A"]
        assert sp.problem == PARAMS
        prof = PARAMS.exponents
        assert (sp.theta, sp.beta, sp.T) == (1.0, 1.0, 1.0)
        assert sp.gamma == 0.5 * (prof.mu + min(1.0, prof.mu_bar))
        with pytest.raises(FrozenInstanceError):
            sp.A = 1.0

    @pytest.mark.parametrize("N,s", [(3, 0.75), (3, 0.25), (2, 0.5)])
    def test_table_of_another_problem_refused(self, prof_3_05, N, s):
        # a (3, 3/4) table "certified" A = 5.04 for the (3, 1/2) problem,
        # whose own table gives 2.25
        table = build_profile(N, s, 50.0, 321)
        match = f"kernel table of N={N}, s={s} cannot evaluate"
        with pytest.raises(DomainError, match=match):
            choose_supersolution(PARAMS, table)
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        with pytest.raises(DomainError, match=match):
            supersolution_residual(sp, table)
        with pytest.raises(DomainError, match=match):
            supersolution_value(sp, table, 1.0, 0.0)

    def test_residual_certifies(self, prof_3_05):
        sp, certified = choose_supersolution(PARAMS, prof_3_05)
        res = supersolution_residual(sp, prof_3_05)
        assert res >= -1e-6
        assert res == certified.min_normalized_residual

    def test_certificate_names_its_worst_point(self, prof_3_05):
        # the least point of the term table, and its largest term there
        sp, cert = choose_supersolution(PARAMS, prof_3_05)
        w1, w_t, lap, pot = sp.A * _supersolution_terms(
            replace(sp, A=1.0), prof_3_05,
            constructions.DEFAULT_CERT_RADII,
            constructions.DEFAULT_CERT_TIMES)
        reac = w1 ** PARAMS.p
        res = (w_t + lap - pot - reac) / (abs(w_t) + abs(lap) + pot + reac)
        k = int(np.argmin(res))
        assert cert.worst_t == constructions.DEFAULT_CERT_TIMES[k // 20] == 6.0
        assert cert.worst_r == constructions.DEFAULT_CERT_RADII[k % 20]
        assert cert.worst_r == pytest.approx(0.3164, abs=1e-4)
        assert cert.worst_sigma == pytest.approx(cert.worst_r / 7.0,
                                                 rel=1e-15)
        assert cert.worst_term == "laplacian"
        assert lap[k] > pot[k] > reac[k] > abs(w_t[k])

    def test_term_table_matches_direct_evaluation(self, prof_3_05):
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        radii, times = [0.1, 1.0, 3.0], [0.0, 5.0]
        w1, w_t, lap, pot = _supersolution_terms(
            replace(sp, A=1.0), prof_3_05, radii, times)
        h = 1e-4
        k = 0
        for t in times:
            for r in radii:
                def w_of(rr, t=t):
                    return supersolution_value(sp, prof_3_05, rr, t)

                w = float(w_of(r))
                direct = frac_laplacian_quadrature_radial(w_of, 3, 0.5, r)
                dwdt = (float(supersolution_value(sp, prof_3_05, r, t + h))
                        - float(supersolution_value(sp, prof_3_05, r, t - h))
                        ) / (2 * h)
                assert sp.A * lap[k] == pytest.approx(direct, rel=1e-10)
                assert sp.A * w1[k] == pytest.approx(w, rel=1e-14)
                assert sp.A * pot[k] == pytest.approx(
                    PARAMS.lam * w / r, rel=1e-14)
                assert sp.A * w_t[k] == pytest.approx(dwdt, rel=1e-6)
                k += 1

    def test_one_evaluator_call_per_time(self, prof_3_05, monkeypatch):
        import hardyheat.constructions as constructions
        calls = []

        def counted(f, N, s, r):
            calls.append(np.shape(r))
            return frac_laplacian_quadrature_radial(f, N, s, r)

        monkeypatch.setattr(constructions, "frac_laplacian_quadrature_radial",
                            counted)
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        assert calls == [(20,)] * 10

    def test_inflated_amplitude_fails(self, prof_3_05):
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        radii = np.geomspace(0.05, 4.0, 8)
        times = [0.0, 4.0]
        failed = False
        A = sp.A
        for _ in range(5):
            A *= 2.0
            trial = replace(sp, A=A)
            if supersolution_residual(trial, prof_3_05,
                                      radii=radii, times=times) < -1e-6:
                failed = True
                break
        assert failed

    def test_self_similar_identity(self, prof_3_05):
        # w = A (T+t)^{-theta + gamma/(2s) + N/(2s)} |x|^{-gamma} h(x, t+T)
        from hardyheat.kernel import h_value
        sp, _ = choose_supersolution(PARAMS, prof_3_05)
        for (r, t) in [(0.5, 0.0), (1.5, 2.0), (3.0, 7.5)]:
            tau = sp.T + t
            direct = float(supersolution_value(sp, prof_3_05, r, t))
            alt = (sp.A * tau ** (-sp.theta + sp.gamma / 1.0 + 3.0 / 1.0)
                   * r ** (-sp.gamma) * h_value(prof_3_05, r, tau))
            assert direct == pytest.approx(alt, rel=1e-10)


class TestEnergyCriterion:
    def grid_and_bump(self):
        g = UniformGrid(3, 8.0, 32)
        return g, Field.from_radial(g, smooth_bump(2.0))

    def test_zero_datum_false(self):
        g, _ = self.grid_and_bump()
        zero = Field(g, np.zeros((32,) * 3))
        assert not energy_blowup_criterion(zero, PARAMS, 2.0)

    def test_amplitude_threshold_by_bisection(self):
        from hardyheat.quadrature import bisect_root
        g, base = self.grid_and_bump()
        lhs1, rhs1 = energy_gap(base, PARAMS, 2.0)
        a_star = (rhs1 / lhs1) ** (1.0 / (PARAMS.p - 1.0))

        def gap(a):
            return a ** (PARAMS.p + 1.0) * lhs1 - a ** 2 * rhs1

        root = bisect_root(gap, 1e-3 * a_star, 1e3 * a_star)
        assert root == pytest.approx(a_star, rel=1e-10)
        assert energy_blowup_criterion(
            Field(g, 1.5 * a_star * base.values), PARAMS, 2.0)
        assert not energy_blowup_criterion(
            Field(g, 0.5 * a_star * base.values), PARAMS, 2.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, 0.0])
    def test_support_radius_refused(self, R):
        _, base = self.grid_and_bump()
        with pytest.raises(DomainError):
            energy_gap(base, PARAMS, R)

    def test_unsupported_datum(self):
        g, base = self.grid_and_bump()
        with pytest.raises(UnsupportedDatumError):
            energy_gap(base, PARAMS, 0.5)
        with pytest.raises(UnsupportedDatumError):
            energy_gap(Field(g, -base.values), PARAMS, 2.0)


class TestBetaFactor:
    def test_against_scipy(self):
        # the closed-form tau-integral of C1
        for a in np.linspace(0.6, 3.0, 9):
            for b in np.linspace(0.1, 8.0, 12):
                assert constructions._beta(a, b) == pytest.approx(
                    special.beta(a, b), rel=1e-14, abs=0.0)


class TestCriticalConstants:
    PC = ProblemParams(3, 0.5, 0.5, 1.4)

    def test_finite_and_stable(self):
        c1, c3, _, _ = critical_case_constants(self.PC, m=3.4, kappa=0.05)
        assert math.isfinite(c1) and c1 > 0.0
        assert math.isfinite(c3) and c3 > 0.0

    def test_kappa_zero_reduces_to_unweighted(self):
        c1a, c3a, _, _ = critical_case_constants(self.PC, m=3.4, kappa=0.0)
        c1b, c3b, _, _ = critical_case_constants(self.PC, m=3.4, kappa=0.05)
        assert c1a == c1b                 # kappa only enters C3
        assert c3a < c3b                  # the weight is >= 1

    def test_m_at_p_prime_probe(self):
        # boundary probe: with the C^2 bump both integrals stay finite at
        # m = p' (the phi-exponent margin is not what controls finiteness)
        c1, c3, _, _ = critical_case_constants(self.PC, m=3.5, kappa=0.05)
        assert math.isfinite(c1) and math.isfinite(c3)

    def test_power_placed_by_classify_regime(self):
        # 1e-7 off F is outside the band in which classify_regime takes p
        # as critical
        fujita = exponent_profile(3, 0.5, 0.5).fujita
        with pytest.raises(DomainError):
            critical_case_constants(ProblemParams(3, 0.5, 0.5, fujita + 1e-7),
                                    m=3.4, kappa=0.05)

    def test_requires_critical_power(self):
        with pytest.raises(DomainError):
            critical_case_constants(ProblemParams(3, 0.5, 0.5, 1.5),
                                    m=3.4, kappa=0.05)
        with pytest.raises(DomainError):
            critical_case_constants(self.PC, m=0.9, kappa=0.05)

    @pytest.mark.parametrize("kappa", [-0.1, math.nan, math.inf])
    def test_kappa_nonnegative_and_finite(self, kappa):
        with pytest.raises(DomainError, match="kappa"):
            critical_case_constants(self.PC, m=3.4, kappa=kappa)

    @pytest.mark.parametrize("name,pair", [("C1", (math.nan, 1.0)),
                                           ("C3", (1.0, math.nan))],
                             ids=["C1", "C3"])
    def test_nan_refinement_delta_refused(self, monkeypatch, name, pair):
        # a NaN delta is no evidence of refinement stability
        monkeypatch.setattr(constructions, "_shell_constants",
                            lambda *args: pair)
        with pytest.raises(QuadratureError, match=name):
            critical_case_constants(self.PC, m=3.4, kappa=0.05)
