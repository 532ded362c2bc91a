import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hardyheat import solver
from hardyheat.cli import save_trajectory
from hardyheat.errors import BlowupFitError, DomainError, QuadratureError
from hardyheat.exponents import (ProblemParams, exponent_profile,
                                 hardy_constant)
from hardyheat.fracop import Field, UniformGrid
from hardyheat.kernel import sphere_area
from hardyheat.solver import (RadialGrid, SolverConfig, Verdict, blowup_fit,
                              ground_state_operator, monitor_norms, run)


def radial_bump(amplitude=1.0, width=1.0):
    def f(r):
        return amplitude * np.exp(-(np.asarray(r, dtype=float) / width) ** 2)
    return f


PARAMS_SUB = ProblemParams(3, 0.5, 0.5, 1.2)
RG = RadialGrid(1e-3, 1e3, 160)


class TestMonitors:
    def test_zero_field(self):
        g = UniformGrid(3, 4.0, 16)
        wm, crit, l2, energy = monitor_norms(
            Field(g, np.zeros((16,) * 3)), ProblemParams(3, 0.5, 0.5, 2.0))
        assert wm == 0.0 and crit == 0.0 and l2 == 0.0 and energy == 0.0

    def test_zero_weight_is_plain_mass(self):
        g = UniformGrid(3, 8.0, 32)
        u = Field.from_radial(g, radial_bump())
        # lambda = 0 has mu = 0
        wm, _, _, _ = monitor_norms(u, ProblemParams(3, 0.5, 0.0, 2.0))
        assert wm == pytest.approx(float(np.sum(u.values)) * g.cell_volume,
                                   rel=1e-14)

    def test_weighted_mass_against_high_order_quadrature(self):
        # u = |x|^{-mu} phi: weighted mass equals int |x|^{-2 mu} phi
        mu = 0.5
        r = np.geomspace(1e-4, 50.0, 800)
        phi = radial_bump()
        mass = solver._origin_weights(solver._spline_weights(r), r, 3,
                                      2.0 * mu)
        wm = float(mass @ phi(r))
        from scipy.integrate import quad
        oracle = 4 * math.pi * quad(
            lambda rr: rr ** (2 - 2 * mu) * phi(rr), 0.0, 40.0, limit=400,
            epsabs=1e-13, epsrel=1e-13)[0]
        assert wm == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_epsilon_refused_as_the_run_refuses_it(self, epsilon):
        params = ProblemParams(3, 0.5, 0.5, 2.0)
        g = UniformGrid(3, 4.0, 16)
        u = Field.from_radial(g, radial_bump())
        with pytest.raises(DomainError, match="positive and finite"):
            monitor_norms(u, params, epsilon=epsilon)
        cfg = SolverConfig(params=params, grid=g, potential_epsilon=epsilon)
        with pytest.raises(DomainError, match="positive and finite"):
            run(u, cfg)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_epsilon_unread_without_a_potential(self, epsilon):
        g = UniformGrid(3, 4.0, 16)
        u = Field.from_radial(g, radial_bump())
        free = ProblemParams(3, 0.5, 0.0, 2.0)
        assert (monitor_norms(u, free, epsilon=epsilon)
                == monitor_norms(u, free))

    def test_epsilon_defaults_to_one_grid_spacing(self):
        # lambda below Lambda(2, 1/2) = 0.2285
        params = ProblemParams(2, 0.5, 0.2, 2.0)
        g = UniformGrid(2, 4.0, 32)
        u = Field.from_radial(g, radial_bump())
        assert (monitor_norms(u, params)
                == monitor_norms(u, params, epsilon=g.dx))

    @pytest.mark.parametrize("N, s", [(1, 0.25), (2, 0.3), (3, 0.5)])
    def test_potential_peaks_at_the_origin(self, N, s):
        # the box run takes the potential's rate from max V
        g = UniformGrid(N, 4.0, 16)
        lam = 0.9 * hardy_constant(N, s)
        params = ProblemParams(N, s, lam, 2.0)
        for eps in (None, 0.3):
            V = solver.regularized_potential(g, params, eps)
            e = g.dx if eps is None else eps
            assert float(np.max(V)) == lam / e ** (2.0 * s)

    @pytest.mark.parametrize("mu", [0.3, 0.76])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_cell_weights_match_a_per_cell_loop(self, N, mu):
        # the weights of the cells near the origin, one cell at a time
        g = UniformGrid(N, 4.0, 16)
        rad, x, dx = g.radius(), g.axis(), g.dx
        sub = (np.arange(9) - 4.0) / 9.0 * dx
        offs = np.meshgrid(*([sub] * N), indexing="ij")
        W = np.where(rad > 0.0, rad, 1.0) ** -mu * g.cell_volume
        for ind in zip(*np.nonzero((rad > 0.0) & (rad < 3.5 * dx))):
            rr = np.sqrt(sum((x[k] + offs[d]) ** 2
                             for d, k in enumerate(ind)))
            W[ind] = float(np.mean(rr ** -mu)) * g.cell_volume
        r_c = dx * (N / sphere_area(N)) ** (1.0 / N)
        W[rad == 0.0] = sphere_area(N) * r_c ** (N - mu) / (N - mu)
        assert np.array_equal(solver._box_weight(g, mu), W)

    def test_direct_run_energy_matches_monitor_norms(self):
        params = ProblemParams(3, 0.5, 0.5, 1.5)
        g = UniformGrid(3, 8.0, 32)
        u0 = Field.from_radial(g, radial_bump())
        cfg = SolverConfig(params=params, grid=g,
                           t_max=0.01, dt_initial=0.01, n_monitor=1)
        rep = run(u0, cfg)
        _, _, _, energy = monitor_norms(u0, params)
        assert rep.energy_series[0] == pytest.approx(energy, rel=1e-12)

    def test_critical_norm_infinite_when_origin_closure_diverges(self):
        # N - mu (p+1) <= 0: |u|^p |x|^{-mu} ~ r^{-mu(p+1)} near the origin
        # is not integrable against r^{N-1}, and neither is the reaction
        mu = exponent_profile(3, 0.5, 0.63).mu
        assert 3 - mu * 4.0 <= 0.0
        grid = RadialGrid(1e-3, 20.0, 64)

        def first_row(p, datum):
            cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.63, p),
                               grid=grid, t_max=1e-3, dt_initial=1e-3,
                               n_monitor=1)
            rep = run(datum, cfg)
            return rep.critical_norm_series[0], rep.energy_series[0]

        bump = radial_bump()
        assert first_row(3.0, bump) == (math.inf, -math.inf)
        crit, energy = first_row(1.2, bump)
        assert 0.0 < crit < math.inf and math.isfinite(energy)
        # a datum vanishing at r[0] meets the closure as 0, not as nan
        assert first_row(3.0, np.zeros(64)) == (0.0, 0.0)


def _gaussian_energy(N, s, lam, p):
    """(E, (Q - P)/2) of u = exp(-|x|^2) in closed form: Q = <u, (-Delta)^s
    u> from the Fourier side, P = lam int u^2 |x|^{-2s}, and E = (Q - P)/2
    - int u^{p+1}/(p+1)."""
    omega = sphere_area(N)
    Q = (math.pi ** N * (2.0 * math.pi) ** (2.0 * s) * omega
         * math.gamma((N + 2.0 * s) / 2.0)
         / (2.0 * (2.0 * math.pi ** 2) ** ((N + 2.0 * s) / 2.0)))
    P = (lam * omega * math.gamma((N - 2.0 * s) / 2.0)
         / (2.0 * 2.0 ** ((N - 2.0 * s) / 2.0)))
    R = (math.pi / (p + 1.0)) ** (N / 2.0)
    return 0.5 * (Q - P) - R / (p + 1.0), 0.5 * (Q - P)


GAUSSIAN = radial_bump()
RG128 = RadialGrid(1e-3, 1e3, 128)


class TestGroundStateEnergy:
    @pytest.mark.parametrize("N,s,lam,p", [(3, 0.5, 0.5, 1.2),
                                           (3, 0.5, 0.2, 1.3),
                                           (2, 0.5, 0.2, 1.5),
                                           (4, 0.5, 0.3, 1.4)])
    def test_initial_energy_against_closed_form(self, N, s, lam, p):
        cfg = SolverConfig(params=ProblemParams(N, s, lam, p), grid=RG128,
                           t_max=1e-3, dt_initial=1e-3, n_monitor=1)
        energy = run(GAUSSIAN, cfg).energy_series[0]
        exact, quadratic = _gaussian_energy(N, s, lam, p)
        assert abs(energy - exact) <= 2e-2 * quadratic

    def test_energy_falls_through_blowup(self):
        cfg = SolverConfig(params=ProblemParams(2, 0.5, 0.2, 1.5), grid=RG128,
                           t_max=40.0, dt_initial=0.01,
                           blowup_threshold=1e4)
        rep = run(GAUSSIAN, cfg)
        assert rep.verdict.kind == "blew_up"
        assert len(rep.energy_series) >= 5
        assert np.all(np.diff(rep.energy_series) <= 0.0)


class TestBlowupExtrapolation:
    def test_exact_ode_recovery(self):
        # Y(t) = (Y0^{1-p} - (p-1) K t)^{-1/(p-1)} hits infinity at
        # T* = Y0^{1-p} / ((p-1) K)
        p, K, Y0 = 1.7, 0.3, 2.0
        t_star = Y0 ** (1 - p) / ((p - 1) * K)
        t = np.linspace(0.0, 0.9 * t_star, 40)
        Y = (Y0 ** (1 - p) - (p - 1) * K * t) ** (-1 / (p - 1))
        est = blowup_fit(t, Y, p)[0]
        assert est == pytest.approx(t_star, rel=1e-6)

    def test_constant_series_refused(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(BlowupFitError):
            blowup_fit(t, np.ones(20), 1.5)

    def test_decreasing_series_refused(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(BlowupFitError):
            blowup_fit(t, 2.0 - t, 1.5)

    def test_tail_of_few_distinct_times_refused(self):
        # a stalled clock appends one time over and over while Y grows
        t = np.array([0.0, 0.1, 0.2, 0.3] + [0.3] * 6)
        Y = np.arange(1.0, 11.0)
        with pytest.raises(BlowupFitError, match="distinct times"):
            blowup_fit(t, Y, 1.5)
        with pytest.raises(BlowupFitError, match="distinct times"):
            blowup_fit(np.full(10, 0.3), Y, 1.5)

    def test_linearity_residual_small_on_exact_data(self):
        p, K, Y0 = 1.2, 0.5, 1.0
        t_star = Y0 ** (1 - p) / ((p - 1) * K)
        t = np.linspace(0.0, 0.95 * t_star, 30)
        Y = (Y0 ** (1 - p) - (p - 1) * K * t) ** (-1 / (p - 1))
        assert blowup_fit(t, Y, p)[1] < 1e-10

    # the four blow-up cells of the benchmark sweep (the sweep's grid,
    # clock, threshold and checkpoints), and p = 1.9 to t_max = 5
    @pytest.mark.parametrize("lam, p, config", [
        pytest.param(lam, p, dict(grid=RG128, t_max=50.0, dt_initial=0.02,
                                  blowup_threshold=1e4, n_monitor=32),
                     id=f"sweep-{lam}-{p}")
        for lam, p in [(0.2, 1.3), (0.5, 1.3), (0.5, 1.9), (0.5, 2.5)]
    ] + [pytest.param(0.5, 1.9, dict(grid=RG, t_max=5.0), id="t-max-5")])
    def test_verdict_is_the_fit_of_the_record(self, lam, p, config):
        cfg = SolverConfig(params=ProblemParams(3, 0.5, lam, p), **config)
        rep = run(radial_bump(), cfg)
        assert rep.verdict.kind == "blew_up"
        assert rep.steps_accepted < 4000     # the report keeps every sample
        assert blowup_fit(rep.tail_times, rep.tail_weighted_mass, p) == (
            rep.verdict.t_star, rep.verdict.tail_linearity)


class TestRunBasics:
    def test_zero_datum_survives(self):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                           t_max=0.5,
                           dt_initial=0.05, n_monitor=4)
        rep = run(np.zeros(RG.n_points), cfg)
        assert rep.verdict.kind == "survived"
        assert np.all(rep.weighted_mass_series == 0.0)

    def test_report_keeps_every_accepted_step(self):
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.5, 2.5),
                           grid=RadialGrid(1e-3, 1e3, 64), t_max=41.0,
                           dt_initial=0.01, n_monitor=4)
        rep = run(radial_bump(0.1), cfg)
        assert rep.verdict.kind == "survived"
        assert rep.steps_accepted > 4000
        assert len(rep.tail_times) == rep.steps_accepted + 1
        assert len(rep.tail_weighted_mass) == rep.steps_accepted + 1

    @pytest.mark.parametrize("n_monitor", [0, -3])
    def test_no_checkpoint_refused(self, n_monitor):
        # with no checkpoint no step is clipped to t_max
        with pytest.raises(DomainError):
            SolverConfig(params=PARAMS_SUB, grid=RG, n_monitor=n_monitor)

    @pytest.mark.parametrize("field, value", [
        ("t_max", math.nan), ("t_max", math.inf), ("dt_initial", math.nan),
        ("dt_initial", math.inf), ("blowup_threshold", math.nan),
        ("blowup_threshold", math.inf)])
    def test_non_finite_setting_refused(self, field, value):
        with pytest.raises(DomainError):
            SolverConfig(params=PARAMS_SUB, grid=RG, **{field: value})

    def test_config_is_frozen(self):
        # an assignment would get past the checks of construction
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.t_max = -1.0

    def test_report_is_frozen(self):
        # a verdict assigned after the run would disagree with its record
        rep = run(radial_bump(), SolverConfig(params=PARAMS_SUB, grid=RG,
                                              t_max=0.05))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.verdict = Verdict("blew_up", t_star=1.0)

    def test_grid_of_unknown_type_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(params=PARAMS_SUB, grid=(1e-3, 1e3, 160))

    def test_box_of_another_dimension_rejected(self):
        with pytest.raises(DomainError):
            SolverConfig(params=PARAMS_SUB, grid=UniformGrid(2, 8.0, 16))

    def test_negative_datum_rejected(self):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                           t_max=0.5,
                           dt_initial=0.05)
        with pytest.raises(DomainError):
            run(-np.ones(RG.n_points), cfg)

    @pytest.mark.parametrize("datum_grid", [UniformGrid(3, 16.0, 32),
                                            UniformGrid(3, 16.0, 16)])
    def test_datum_on_another_grid_rejected(self, datum_grid):
        # the run would step the datum's grid while its record names the
        # config's
        cfg = SolverConfig(params=PARAMS_SUB, grid=UniformGrid(3, 8.0, 16),
                           t_max=0.1, dt_initial=0.05)
        with pytest.raises(DomainError):
            run(Field.from_radial(datum_grid, radial_bump()), cfg)

    def test_mass_conservation_pure_diffusion(self):
        g = UniformGrid(1, 200.0, 4096)
        params = ProblemParams(1, 0.25, 0.0, 2.0)
        cfg = SolverConfig(params=params, grid=g,
                           t_max=1.0, dt_initial=0.1, n_monitor=4,
                           reaction_enabled=False)
        rep = run(Field(g, np.exp(-g.axis() ** 2)), cfg)
        assert rep.verdict.kind == "survived"
        drift = abs(rep.weighted_mass_series[-1]
                    - rep.weighted_mass_series[0])
        assert drift <= 1e-6 * rep.weighted_mass_series[0]

    @pytest.mark.parametrize("lam, drift_128, drift_256",
                             [(0.5, 4.46e-2, 2.33e-2),
                              (0.2, 5.78e-2, 2.79e-2)],
                             ids=["lambda-0.5", "lambda-0.2"])
    def test_ground_state_linear_flow_mass(self, lam, drift_128, drift_256):
        # L 1 = 0 for the ground state |x|^{-mu}, so the linear flow
        # conserves int v |x|^{-2 mu} dx exactly.  The scheme's drift is
        # first order in n; the bounds are 1.2x the drifts measured at
        # n = 128 and 256, and a scheme that conserves to rounding passes
        drift = {}
        for n in (128, 256):
            cfg = SolverConfig(params=ProblemParams(3, 0.5, lam, 2.0),
                               grid=RadialGrid(1e-3, 1e3, n), t_max=10.0,
                               dt_initial=0.02, reaction_enabled=False)
            wm = run(GAUSSIAN, cfg).weighted_mass_series
            drift[n] = abs(wm[-1] / wm[0] - 1.0)
        assert drift[128] <= 1.2 * drift_128
        assert drift[256] <= 1.2 * drift_256
        assert drift[256] <= 1e-12 or math.log2(drift[128] / drift[256]) >= 0.8

    def test_step_budget_exhausted_inconclusive(self, monkeypatch):
        # with the default budget this run blows up (t* ~ 0.0206); a
        # budget of 50 steps ends it first
        monkeypatch.setattr(solver, "_MAX_STEPS", 50)
        params = ProblemParams(3, 0.5, 0.5, 2.0)
        cfg = SolverConfig(params=params, grid=RG,
                           t_max=1e7,
                           dt_initial=1e6, n_monitor=2)
        rep = run(radial_bump(amplitude=30.0), cfg)
        assert rep.verdict == Verdict("inconclusive",
                                      reason="step budget exhausted")

    def test_datum_over_threshold_takes_no_step(self):
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.5, 1.9), grid=RG,
                           t_max=1.0, blowup_threshold=1e4)
        rep = run(radial_bump(amplitude=1e6), cfg)
        mass = float(rep.tail_weighted_mass[0])
        assert mass > 1e4
        assert rep.verdict == Verdict(
            "inconclusive", reason=f"datum's weighted mass {mass:.6g} is "
                                   "already over the blow-up threshold 10000")
        assert rep.steps_accepted == 0 and list(rep.times) == [0.0]

    def test_blowup_exit_with_refused_fit_inconclusive(self):
        # a threshold just over the datum's weighted mass (5.74085) is
        # crossed by the first step: two samples cannot carry the fit
        params = ProblemParams(3, 0.5, 0.5, 1.3)
        cfg = SolverConfig(params=params, grid=RadialGrid(1e-3, 1e3, 64),
                           t_max=1.0, blowup_threshold=1.001 * 5.74085)
        rep = run(radial_bump(), cfg)
        assert rep.tail_weighted_mass[0] == pytest.approx(5.74085, rel=1e-6)
        assert rep.steps_accepted == 1
        assert rep.verdict == Verdict(
            "inconclusive", reason="weighted mass over threshold, but tail "
                                   "not strictly increasing over enough "
                                   "samples")

    def test_stalled_clock_ends_inconclusive(self):
        # p just below p_+ = 3 on a finer origin: the reaction rate at r_0
        # drives dt below the spacing of doubles at t long before the
        # weighted mass reaches the threshold
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.5, 2.9),
                           grid=RadialGrid(1e-4, 1e3, 149), t_max=50.0,
                           dt_initial=0.02, blowup_threshold=1e4)
        rep = run(radial_bump(), cfg)
        assert rep.verdict.kind == "inconclusive"
        t = rep.tail_times[-1]
        assert rep.verdict.reason.startswith(f"clock stalled at t={t} ")

    def test_step_counts_of_a_sweep_cell(self, tmp_path):
        # the benchmark sweep's (3, 1/2, .2, 1.9) cell survives to t = 50;
        # only the steps clipped to one of the 32 checkpoints are not full
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.2, 1.9),
                           grid=RG128, t_max=50.0, dt_initial=0.02,
                           blowup_threshold=1e4, n_monitor=32)
        rep = run(GAUSSIAN, cfg)
        assert rep.verdict.kind == "survived"
        assert (rep.steps_accepted, rep.steps_full, rep.steps_rejected) == (
            2528, 2496, {})
        # a checkpoint every 50/32 = 78 full steps + 0.0025; the increments
        # between accepted times carry the rounding of t
        assert rep.dt_min == pytest.approx(0.0025, rel=1e-9, abs=0.0)
        assert rep.dt_max == pytest.approx(0.02, rel=1e-9, abs=0.0)
        save_trajectory(rep, tmp_path / "c.csv", tmp_path / "c.json")
        import json
        record = json.loads((tmp_path / "c.json").read_text())
        assert record["steps"] == {"accepted": 2528, "full": 2496,
                                   "rejected": {}, "dt_min": rep.dt_min,
                                   "dt_max": rep.dt_max}
        assert record["tail_linearity"] is None

    def test_every_step_rejected_ends_at_dt_floor(self, monkeypatch):
        attempts = []

        def reject(u, rel_floor):
            attempts.append(rel_floor)
            raise solver._StepRejected("negativity")

        monkeypatch.setattr(solver, "_accept", reject)
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG, t_max=1.0,
                           dt_initial=0.5, n_monitor=1,
                           reaction_enabled=False)
        rep = run(radial_bump(), cfg)
        assert rep.verdict == Verdict(
            "inconclusive", reason="step rejected (negativity) at t=0.0")
        # dt = 0.5 halved until it reaches the floor 1e-14: 0.5 * 2^-46
        assert len(attempts) == 47
        assert rep.steps_rejected == {"negativity": 47}
        assert rep.steps_accepted == rep.steps_full == 0
        assert rep.dt_min is rep.dt_max is None
        assert list(rep.times) == [0.0]


T10 = np.linspace(0.0, 1.0, 10)
Y10 = np.arange(1.0, 11.0)
GRID_2D = UniformGrid(2, 4.0, 16)
FIELD_2D = Field.from_radial(GRID_2D, radial_bump())


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: RadialGrid(1.0, 1.0, 16), DomainError,
                 "r_min < r_max", id="grid-empty-span"),
    pytest.param(lambda: RadialGrid(1e-3, 1e3, 7), DomainError,
                 "at least 8 points", id="grid-few-points"),
    pytest.param(lambda: RadialGrid(1e-3, 1e3, 8.5), DomainError,
                 "n_points must be an integer", id="grid-fractional-count"),
    pytest.param(lambda: RadialGrid(1e-3, 1e3, 128.0), DomainError,
                 "n_points must be an integer", id="grid-float-count"),
    pytest.param(lambda: ground_state_operator(RadialGrid(1e-3, 1e3, 64), 3,
                                               0.5, math.nan),
                 DomainError, "mu must be nonnegative", id="operator-nan-mu"),
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=RG,
                                      dt_safety=0.0),
                 DomainError, "dt_safety", id="dt-safety-zero"),
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=RG,
                                      dt_safety=1.0),
                 DomainError, "dt_safety", id="dt-safety-one"),
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=RG,
                                      diffusion="crank-nicolson"),
                 DomainError, "unknown diffusion", id="diffusion-unknown"),
    # a ground-state run takes the exact potential by Crank-Nicolson
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=RG,
                                      potential_epsilon=0.3),
                 DomainError, "potential_epsilon and diffusion are box",
                 id="radial-potential-epsilon"),
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=RG,
                                      diffusion="implicit"),
                 DomainError, "potential_epsilon and diffusion are box",
                 id="radial-diffusion"),
    pytest.param(lambda: monitor_norms(np.zeros(16), PARAMS_SUB),
                 DomainError, "box Field", id="monitor-array"),
    # a 2-D field of an N = 3 problem
    pytest.param(lambda: monitor_norms(FIELD_2D, PARAMS_SUB), DomainError,
                 "a grid of dimension 2 cannot run N=3",
                 id="monitor-grid-of-another-dimension"),
    pytest.param(lambda: SolverConfig(params=PARAMS_SUB, grid=GRID_2D),
                 DomainError, "a grid of dimension 2 cannot run N=3",
                 id="config-grid-of-another-dimension"),
    pytest.param(lambda: blowup_fit(T10, Y10[:-1], 1.5)[0],
                 DomainError, "lengths differ", id="fit-lengths"),
    pytest.param(lambda: blowup_fit([], [], 1.5), BlowupFitError,
                 "not strictly increasing", id="fit-empty"),
    pytest.param(lambda: run(np.zeros(RG.n_points - 1),
                             SolverConfig(params=PARAMS_SUB, grid=RG)),
                 DomainError, "does not match the grid", id="datum-shape"),
    # below p = 1, Y^{1-p} grows with Y
    pytest.param(lambda: blowup_fit(T10, Y10, 0.5)[0],
                 BlowupFitError, "not decreasing toward zero",
                 id="fit-p-below-one"),
    # exponential growth never reaches infinity in finite time
    pytest.param(lambda: blowup_fit(
        np.linspace(0.0, 1.0, 12), np.exp(10.0 * np.linspace(0.0, 1.0, 12)),
        2.0)[0], BlowupFitError, "does not exceed data", id="fit-exponential"),
    pytest.param(lambda: blowup_fit(T10, Y10, 1.0)[1],
                 BlowupFitError, "too flat", id="linearity-p-one"),
    # a residual from a line that does not describe blow-up corroborates
    # nothing, so the fit gives no residual where it gives no blow-up time
    pytest.param(lambda: blowup_fit(T10, Y10, 0.5)[1],
                 BlowupFitError, "not decreasing toward zero",
                 id="linearity-p-below-one"),
    pytest.param(lambda: blowup_fit(
        np.linspace(0.0, 1.0, 12), np.exp(10.0 * np.linspace(0.0, 1.0, 12)),
        2.0)[1], BlowupFitError, "does not exceed data",
        id="linearity-exponential"),
])
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_radial_grid_takes_a_numpy_integer_count():
    assert RadialGrid(1e-3, 1e3, np.int64(16)).r.shape == (16,)


def test_box_config_takes_the_box_settings():
    cfg = SolverConfig(params=PARAMS_SUB, grid=UniformGrid(3, 8.0, 16),
                       potential_epsilon=0.3, diffusion="implicit")
    assert (cfg.potential_epsilon, cfg.diffusion) == (0.3, "implicit")


class TestSplineWeights:
    @pytest.mark.parametrize("n", [4, 8, 128, 512])
    @pytest.mark.parametrize("kind", ["geometric", "random"])
    def test_against_scipy_cubic_spline(self, n, kind):
        from scipy.interpolate import CubicSpline
        if kind == "geometric":
            r = np.geomspace(1e-3, 1e3, n)
        else:
            rng = np.random.default_rng(n)
            r = np.exp(np.sort(rng.uniform(-6.0, 6.0, n)))
        t = np.log(r)
        # weights in t of the not-a-knot spline: integrals of the
        # splines through the unit vectors
        oracle = CubicSpline(t, np.eye(n)).integrate(t[0], t[-1])
        w = solver._spline_weights(r) / r
        assert np.max(np.abs(w - oracle)) <= 1e-13 * np.max(np.abs(oracle))


# the sweep's two operators, and the worst-conditioned eigenbasis seen over
# (N, s, lambda, grid) (cond V = 3.4e4); whether numpy's eig returns a
# complex V (B has a conjugate pair) or a real one
EIG_CASES = [(3, 0.5, 0.2, RadialGrid(1e-3, 1e3, 128), True),
             (3, 0.5, 0.5, RadialGrid(1e-3, 1e3, 128), False),
             (4, 0.5, 0.328, RadialGrid(1e-3, 20.0, 192), True)]


class TestEigenbasis:
    @pytest.mark.parametrize("dt", [0.02, 1.7e-3, 1e-5])
    @pytest.mark.parametrize("case", EIG_CASES,
                             ids=lambda c: f"N{c[0]}-lam{c[2]}")
    def test_resolvent_matches_lu(self, case, dt):
        from scipy.linalg import lu_factor, lu_solve
        N, s, lam, grid, complex_basis = case
        op = ground_state_operator(grid, N, s, exponent_profile(N, s, lam).mu)
        assert np.iscomplexobj(op.V) == complex_basis
        a = 0.5 * dt
        b = radial_bump()(op.r)
        coef = 1.0 / (1.0 + a * op.lam)
        ref = lu_solve(lu_factor(np.eye(len(op.r)) + a * op.B), b)
        full = solver._resolvent_matrix(op, coef)
        # the eigenbasis of every dt, and the dense matrix of the full steps
        for x in (solver._apply_resolvent(op, coef, b), full @ b):
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        # a strided .real view of a complex product would slow every full
        # step's matvec, a strided V every other step's
        assert full.dtype == np.float64
        assert full.flags.c_contiguous and op.V.flags.c_contiguous

    @pytest.mark.parametrize("reaction", [True, False],
                             ids=["reaction", "linear"])
    @pytest.mark.parametrize("lam", [0.2, 0.5],
                             ids=["complex-pair", "real"])
    def test_two_steps_against_crank_nicolson_solves(self, lam, reaction):
        # one full step, then one clipped to the checkpoint at 1.5 dt:
        # both from a dense solve of (I + aB) x = (I - aB) v + dt rfac v^p,
        # a = dt/2, on v = r^mu u
        p, dt = 1.9, 0.05
        cfg = SolverConfig(params=ProblemParams(3, 0.5, lam, p), grid=RG128,
                           t_max=1.5 * dt, dt_initial=dt, n_monitor=1,
                           reaction_enabled=reaction, store_fields=True)
        rep = run(GAUSSIAN, cfg)
        assert (rep.steps_accepted, rep.steps_full, rep.steps_rejected) == (
            2, 1, {})
        mu = exponent_profile(3, 0.5, lam).mu
        op = ground_state_operator(RG128, 3, 0.5, mu)
        r, eye = op.r, np.eye(len(op.r))
        rfac = r ** (mu * (1.0 - p))
        v = r ** mu * GAUSSIAN(r)
        for h in (dt, 0.5 * dt):
            rhs = (eye - 0.5 * h * op.B) @ v
            if reaction:
                rhs += h * rfac * v ** p
            v = np.linalg.solve(eye + 0.5 * h * op.B, rhs)
            assert v.min() >= -1e-9 * v.max()
            v = np.maximum(v, 0.0)
        (t0, _), (t1, u1) = rep.fields
        assert (t0, t1) == (0.0, pytest.approx(1.5 * dt, rel=1e-15))
        ref = r ** (-mu) * v
        assert np.max(np.abs(u1 - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_defective_block_refused(self):
        with pytest.raises(QuadratureError, match="reproduces B only"):
            solver._eigenbasis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_nonpositive_eigenvalue_refused(self):
        with pytest.raises(QuadratureError, match="Re <= 0"):
            solver._eigenbasis(np.diag([1.0, -1.0]))

    def test_refusal_names_the_operator(self, monkeypatch):
        grid = RadialGrid(1e-3, 1e3, 17)
        monkeypatch.setattr(solver, "build_ground_state_matrix",
                            lambda r, *args: -np.eye(len(r)))
        solver.ground_state_operator.cache_clear()
        with pytest.raises(QuadratureError,
                           match=r"Re <= 0 .* \(N=3, s=0.5, mu=0.5\)"):
            ground_state_operator(grid, 3, 0.5, 0.5)

    def test_rotation_block(self):
        # eigenvalues 2 +- 3i: one conjugate pair, a complex V
        B = np.array([[2.0, 3.0], [-3.0, 2.0]])
        op = SimpleNamespace(**dict(zip(("V", "V_inv", "lam"),
                                        solver._eigenbasis(B))))
        w = np.array([1.0, -0.5])
        x = solver._apply_resolvent(op, 1.0 / (1.0 + 0.7 * op.lam), w)
        assert np.allclose(x, np.linalg.solve(np.eye(2) + 0.7 * B, w),
                           rtol=1e-14, atol=0.0)

    def test_dense_full_step_matches_the_eigenbasis(self, monkeypatch):
        # the full steps' dense matrix applied through the eigenbasis
        # instead: the run takes the same path and must end where it did
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG, t_max=50.0,
                           dt_initial=0.02, blowup_threshold=1e4,
                           n_monitor=32)
        dense = run(radial_bump(), cfg)
        built = []

        class Eigenbasis:
            def __init__(self, op, coef):
                built.append(coef)
                self.op, self.coef = op, coef

            def dot(self, w):
                return solver._apply_resolvent(self.op, self.coef, w)

        monkeypatch.setattr(solver, "_resolvent_matrix", Eigenbasis)
        eig = run(radial_bump(), cfg)
        assert len(built) == 1
        assert dense.verdict.kind == eig.verdict.kind == "blew_up"
        assert 0 < dense.steps_full < dense.steps_accepted
        assert (eig.steps_full, eig.steps_accepted) == (
            dense.steps_full, dense.steps_accepted)
        assert dense.verdict.t_star == pytest.approx(eig.verdict.t_star,
                                                     rel=1e-12, abs=0.0)
        for name in ("times", "weighted_mass_series", "critical_norm_series",
                     "l2_series", "energy_series", "tail_times",
                     "tail_weighted_mass"):
            np.testing.assert_allclose(getattr(dense, name),
                                       getattr(eig, name), rtol=1e-12,
                                       atol=0.0, err_msg=name)

    def test_run_never_factorizes(self, monkeypatch):
        # eig and inv run once, where the shared operator is built; a run
        # on it steps by matrix products alone
        grid = RadialGrid(1e-3, 1e3, 32)
        ground_state_operator(grid, PARAMS_SUB.N, PARAMS_SUB.s,
                              PARAMS_SUB.exponents.mu)

        def refuse(*args, **kwargs):
            raise AssertionError("a run factorized")

        for name in ("solve", "inv", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        cfg = SolverConfig(params=PARAMS_SUB, grid=grid, t_max=0.1,
                           n_monitor=2)
        assert run(radial_bump(), cfg).verdict.kind == "survived"

    def test_non_finite_basis_rejects_the_step(self, monkeypatch):
        build = solver.ground_state_operator

        def poisoned(*args):
            op = build(*args)
            return dataclasses.replace(op, V_inv=np.full_like(op.V_inv,
                                                              np.nan))

        monkeypatch.setattr(solver, "ground_state_operator", poisoned)
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG, t_max=1.0,
                           dt_initial=0.5, n_monitor=1)
        rep = run(radial_bump(), cfg)
        assert rep.verdict == Verdict(
            "inconclusive", reason="step rejected (non-finite state) at t=0.0")


class TestStepGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, bad):
        with pytest.raises(solver._StepRejected, match="non-finite state"):
            solver._accept(np.array([1.0, bad, 0.5]), 1e-6)

    def test_lobe_below_floor_rejected(self):
        with pytest.raises(solver._StepRejected, match="negativity"):
            solver._accept(np.array([2.0, -3e-6, 0.5]), 1e-6)

    def test_small_lobe_clipped_in_place(self):
        u = np.array([2.0, -1e-6, 0.5])
        assert solver._accept(u, 1e-6) == 2.0
        assert list(u) == [2.0, 0.0, 0.5]


class TestDynamics:
    def test_amplitude_cap_exit_stores_final_field(self, monkeypatch):
        monkeypatch.setattr(solver, "_U_CAP", 50.0)
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.2, 1.3),
                           grid=RadialGrid(1e-3, 1e3, 64),
                           t_max=40.0,
                           blowup_threshold=1e30,
                           store_fields=True)
        rep = run(radial_bump(), cfg)
        assert rep.verdict.kind == "blew_up"
        assert rep.verdict.reason == "amplitude over cap"
        assert rep.fields[-1][0] == rep.times[-1]
        assert np.max(rep.fields[-1][1]) > 50.0

    def test_sub_fujita_blowup(self):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                           t_max=300.0,
                           dt_initial=0.05, blowup_threshold=1e4,
                           n_monitor=32)
        rep = run(radial_bump(), cfg)
        assert rep.verdict.kind == "blew_up"
        assert rep.verdict.t_star > rep.times[-1]

    def test_comparison_monotonicity(self):
        reports = []
        for amp in (0.1, 0.15):
            cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                               t_max=2.0,
                               dt_initial=0.01, n_monitor=10)
            reports.append(run(radial_bump(amplitude=amp), cfg))
        small, big = reports
        slack = 1.0 + 1e-12
        assert np.all(small.weighted_mass_series
                      <= big.weighted_mass_series * slack)
        assert np.all(small.critical_norm_series
                      <= big.critical_norm_series * slack)
        assert np.all(small.l2_series <= big.l2_series * slack)

    def test_lifespan_falls_with_the_coupling(self):
        # V >= 0, so at a fixed datum and p the comparison principle orders
        # the runs in lambda: t* cannot rise with it, and no survivor
        # follows a blow-up (the README sweep's p = 1.5 row)
        verdicts = []
        for lam in np.linspace(0.1, 0.6, 6):
            cfg = SolverConfig(params=ProblemParams(3, 0.5, float(lam), 1.5),
                               grid=RG128, t_max=50.0, dt_initial=0.02,
                               blowup_threshold=1e4, n_monitor=32)
            verdicts.append(run(GAUSSIAN, cfg).verdict)
        kinds = [v.kind for v in verdicts]
        first = kinds.index("blew_up")
        assert first > 0
        assert kinds == (["survived"] * first
                         + ["blew_up"] * (len(kinds) - first))
        t_stars = [v.t_star for v in verdicts[first:]]
        assert len(t_stars) >= 2
        assert all(a > b for a, b in zip(t_stars, t_stars[1:]))

    @pytest.mark.parametrize("lam, p, kind", [(0.5, 1.9, "blew_up"),
                                              (0.2, 2.5, "survived")])
    def test_run_is_scale_covariant(self, lam, p, kind):
        # the potential is homogeneous of degree -2s, so
        # u_k(x, t) = k^{2s/(p-1)} u(kx, k^{2s} t) solves the same problem;
        # with k = q^j, q the ratio of the README grid, the grid [1e-3, 1e3]/k
        # is that grid shifted by j points, and a run with its clock scaled
        # by k^{-2s} and its weighted masses by k^{2s/(p-1)-N+mu} must
        # repeat the README cell
        N, s, n = 3, 0.5, 128
        params = ProblemParams(N, s, lam, p)
        q = 1e6 ** (1.0 / (n - 1))
        mass_power = 2.0 * s / (p - 1.0) - N + params.exponents.mu

        def cell(j):
            k = q ** j
            clock = k ** (-2.0 * s)
            cfg = SolverConfig(params=params,
                               grid=RadialGrid(1e-3 / k, 1e3 / k, n),
                               t_max=50.0 * clock, dt_initial=0.02 * clock,
                               blowup_threshold=1e4 * k ** mass_power,
                               n_monitor=32)
            rep = run(lambda r: k ** (2.0 * s / (p - 1.0))
                      * np.exp(-(k * r) ** 2), cfg)
            t_star = rep.verdict.t_star
            return (rep.verdict.kind, rep.steps_accepted,
                    None if t_star is None else t_star / clock,
                    rep.weighted_mass_series[-1] / k ** mass_power)

        base = cell(0)
        assert base[0] == kind
        for j in (7, -9):
            verdict, steps, t_star, mass = cell(j)
            assert (verdict, steps) == base[:2]
            if kind == "blew_up":
                assert t_star == pytest.approx(base[2], rel=1e-9, abs=0.0)
            assert mass == pytest.approx(base[3], rel=1e-9, abs=0.0)

    def test_positivity_of_recorded_fields(self):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                           t_max=1.0,
                           dt_initial=0.02, n_monitor=8, store_fields=True)
        rep = run(radial_bump(), cfg)
        for _, u in rep.fields:
            assert np.all(u >= 0.0)

    def test_box_reaction_non_integer_p_sees_clipped_ringing(self):
        # the coarse box rings negative at once; u^1.2 of a negative lobe
        # is nan, so the reaction must act on the clipped state
        g = UniformGrid(3, 8.0, 16)
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.5, 1.2), grid=g,
                           t_max=0.2)
        rep = run(Field.from_radial(g, radial_bump()), cfg)
        assert rep.verdict.reason != ("step rejected (non-finite state) "
                                      "at t=0.0")
        assert rep.verdict.kind == "survived"
        assert rep.times[-1] == pytest.approx(0.2)

    def test_energy_non_increasing_convex_splitting(self):
        params = ProblemParams(3, 0.5, 0.5, 2.0)
        g = UniformGrid(3, 8.0, 32)
        u0 = Field.from_radial(g, radial_bump(amplitude=0.3, width=1.5))
        cfg = SolverConfig(params=params, grid=g,
                           potential_epsilon=1.0, diffusion="implicit",
                           t_max=1.0, dt_initial=0.002, n_monitor=40)
        rep = run(u0, cfg)
        E = rep.energy_series
        scale = max(abs(E[0]), 1e-12)
        assert np.all(np.diff(E) <= 1e-8 * scale)

    def test_epsilon_convergence_study(self):
        params = ProblemParams(3, 0.5, 0.5, 1.2)
        g = UniformGrid(3, 16.0, 64)
        u0 = Field.from_radial(g, radial_bump(amplitude=0.5, width=2.0))
        ends = []
        for mult in (4.0, 2.0, 1.0):
            cfg = SolverConfig(params=params, grid=g,
                               potential_epsilon=mult * g.dx, t_max=0.5,
                               dt_initial=0.01, n_monitor=4)
            ends.append(run(u0, cfg).weighted_mass_series[-1])
        d1 = abs(ends[1] - ends[0])
        d2 = abs(ends[2] - ends[1])
        assert d2 < d1


class TestOperatorReuse:
    def test_cached_operator_run_is_bit_identical(self, matrix_builds):
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.2, 1.3),
                           grid=RadialGrid(1e-3, 1e3, 64),
                           t_max=40.0,
                           blowup_threshold=1e3)
        fresh = run(radial_bump(), cfg)
        cached = run(radial_bump(), cfg)
        assert len(matrix_builds) == 1
        assert cached.verdict == fresh.verdict
        assert fresh.verdict.kind == "blew_up"
        for name in ("times", "weighted_mass_series", "critical_norm_series",
                     "l2_series", "energy_series", "tail_times",
                     "tail_weighted_mass", "r_grid"):
            assert np.array_equal(getattr(cached, name),
                                  getattr(fresh, name)), name

    def test_operator_arrays_read_only(self):
        op = ground_state_operator(RadialGrid(1e-3, 1e3, 32), 3, 0.5, 0.25)
        for f in dataclasses.fields(op):
            arr = getattr(op, f.name)
            assert isinstance(arr, np.ndarray), f.name
            assert not arr.flags.writeable, f.name
        with pytest.raises(ValueError):
            op.B[0, 0] = 1.0


class TestCompareSupersolution:
    PARAMS = ProblemParams(3, 0.5, 0.5, 2.0)
    R = np.geomspace(1e-3, 20.0, 64)

    def report_with(self, u, params=PARAMS):
        """A report of one stored field u on R, of a run of `params`."""
        from hardyheat.solver import TrajectoryReport
        cfg = SolverConfig(params=params, grid=RadialGrid(1e-3, 20.0, 64),
                           t_max=1.0)
        return TrajectoryReport(
            times=np.array([0.0]), weighted_mass_series=np.array([0.0]),
            critical_norm_series=np.array([0.0]),
            l2_series=np.array([0.0]), energy_series=np.array([0.0]),
            verdict=Verdict("survived"), config=cfg,
            tail_times=np.array([0.0]),
            tail_weighted_mass=np.array([0.0]), r_grid=self.R,
            fields=[(0.0, u)], steps_accepted=0, steps_rejected={},
            steps_full=0, dt_min=None, dt_max=None)

    def test_zero_field_dominated_and_doubled_not(self, prof_3_05):
        from hardyheat.constructions import (choose_supersolution,
                                             compare_supersolution,
                                             supersolution_value)
        sp, _ = choose_supersolution(self.PARAMS, prof_3_05)
        w0 = supersolution_value(sp, prof_3_05, self.R, 0.0)
        assert compare_supersolution(self.report_with(np.zeros_like(self.R)),
                                     sp, prof_3_05)
        assert not compare_supersolution(self.report_with(2.0 * w0),
                                         sp, prof_3_05)

    def test_run_of_another_problem_refused(self, prof_3_05):
        # a p = 2 family against a p = 1.8 run read as a valid comparison
        from hardyheat.constructions import (choose_supersolution,
                                             compare_supersolution)
        sp, _ = choose_supersolution(self.PARAMS, prof_3_05)
        other = ProblemParams(3, 0.5, 0.5, 1.8)
        with pytest.raises(DomainError, match="cannot be compared"):
            compare_supersolution(
                self.report_with(np.zeros_like(self.R), other), sp, prof_3_05)


class TestSerialization:
    def test_trajectory_files(self, tmp_path):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG, t_max=0.2,
                           dt_initial=0.05, n_monitor=4)
        rep = run(radial_bump(), cfg)
        csv = tmp_path / "traj.csv"
        jsn = tmp_path / "traj.json"
        save_trajectory(rep, csv, jsn)
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,weighted_mass,critical_norm,l2,energy"
        assert len(lines) == len(rep.times) + 1
        import json
        record = json.loads(jsn.read_text())
        assert record["verdict"] == "survived"
        assert record["params"]["p"] == 1.2
        assert record["grid"]["type"] == "radial"
        assert record["formulation"] == "ground_state"
        # checkpoints clip steps, so n_monitor moves t*
        assert record["n_monitor"] == 4
        assert record["reaction_enabled"] is True
        assert "store_fields" not in record

    def test_box_verdict_names_direct_formulation(self, tmp_path):
        grid = UniformGrid(3, 8.0, 16)
        cfg = SolverConfig(params=PARAMS_SUB, grid=grid, t_max=0.2,
                           dt_initial=0.05, n_monitor=4)
        rep = run(Field.from_radial(grid, radial_bump(width=2.0)), cfg)
        jsn = tmp_path / "box.json"
        save_trajectory(rep, tmp_path / "box.csv", jsn)
        import json
        record = json.loads(jsn.read_text())
        assert record["formulation"] == "direct"
        assert record["grid"]["type"] == "uniform"
