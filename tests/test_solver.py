import dataclasses
import math

import numpy as np
import pytest

from hardyheat import solver
from hardyheat.errors import BlowupFitError, DomainError
from hardyheat.exponents import ProblemParams, exponent_profile
from hardyheat.fracop import Field, UniformGrid
from hardyheat.solver import (RadialGrid, SolverConfig, Verdict,
                              estimate_blowup_time, ground_state_operator,
                              monitor_norms, run, save_trajectory,
                              tail_linearity_residual)


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
            Field(g, np.zeros((16,) * 3)), 0.5, 2.0, 0.5, 0.5)
        assert wm == 0.0 and crit == 0.0 and l2 == 0.0 and energy == 0.0

    def test_zero_weight_is_plain_mass(self):
        g = UniformGrid(3, 8.0, 32)
        u = Field.from_radial(g, radial_bump())
        wm, _, _, _ = monitor_norms(u, 0.0, 2.0, 0.0, 0.5)
        assert wm == pytest.approx(float(np.sum(u.values)) * g.cell_volume,
                                   rel=1e-14)

    def test_weighted_mass_against_high_order_quadrature(self):
        # u = |x|^{-mu} phi: weighted mass equals int |x|^{-2 mu} phi
        mu = 0.5
        r = np.geomspace(1e-4, 50.0, 800)
        phi = radial_bump()
        wm, _, _ = solver._radial_monitors(r, solver._spline_weights(r),
                                           r ** (-mu) * phi(r), 3, mu, 2.0)
        from scipy.integrate import quad
        oracle = 4 * math.pi * quad(
            lambda rr: rr ** (2 - 2 * mu) * phi(rr), 0.0, 40.0, limit=400,
            epsabs=1e-13, epsrel=1e-13)[0]
        assert wm == pytest.approx(oracle, rel=1e-6)

    def test_direct_run_energy_matches_monitor_norms(self):
        params = ProblemParams(3, 0.5, 0.5, 1.5)
        g = UniformGrid(3, 8.0, 32)
        u0 = Field.from_radial(g, radial_bump())
        cfg = SolverConfig(params=params, grid=g,
                           t_max=0.01, dt_initial=0.01, n_monitor=1)
        rep = run(u0, cfg)
        mu = exponent_profile(3, 0.5, 0.5).mu
        _, _, _, energy = monitor_norms(u0, mu, 1.5, 0.5, 0.5)
        assert rep.energy_series[0] == pytest.approx(energy, rel=1e-12)

    def test_critical_norm_infinite_when_origin_closure_diverges(self):
        # N - mu (p+1) <= 0: |u|^p |x|^{-mu} ~ r^{-mu(p+1)} near the origin
        # is not integrable against r^{N-1}
        mu = exponent_profile(3, 0.5, 0.63).mu
        assert 3 - mu * 4.0 <= 0.0
        r = np.geomspace(1e-3, 20.0, 64)
        w = solver._spline_weights(r)
        u = r ** (-mu) * radial_bump()(r)
        _, crit, _ = solver._radial_monitors(r, w, u, 3, mu, 3.0)
        assert crit == math.inf
        _, crit, _ = solver._radial_monitors(r, w, u, 3, mu, 1.2)
        assert 0.0 < crit < math.inf


class TestBlowupExtrapolation:
    def test_exact_ode_recovery(self):
        # Y(t) = (Y0^{1-p} - (p-1) K t)^{-1/(p-1)} hits infinity at
        # T* = Y0^{1-p} / ((p-1) K)
        p, K, Y0 = 1.7, 0.3, 2.0
        t_star = Y0 ** (1 - p) / ((p - 1) * K)
        t = np.linspace(0.0, 0.9 * t_star, 40)
        Y = (Y0 ** (1 - p) - (p - 1) * K * t) ** (-1 / (p - 1))
        est = estimate_blowup_time(t, Y, p)
        assert est == pytest.approx(t_star, rel=1e-6)

    def test_constant_series_refused(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(BlowupFitError):
            estimate_blowup_time(t, np.ones(20), 1.5)

    def test_decreasing_series_refused(self):
        t = np.linspace(0, 1, 20)
        with pytest.raises(BlowupFitError):
            estimate_blowup_time(t, 2.0 - t, 1.5)

    def test_linearity_residual_small_on_exact_data(self):
        p, K, Y0 = 1.2, 0.5, 1.0
        t_star = Y0 ** (1 - p) / ((p - 1) * K)
        t = np.linspace(0.0, 0.95 * t_star, 30)
        Y = (Y0 ** (1 - p) - (p - 1) * K * t) ** (-1 / (p - 1))
        assert tail_linearity_residual(t, Y, p) < 1e-10


class TestRunBasics:
    def test_zero_datum_survives(self):
        cfg = SolverConfig(params=PARAMS_SUB, grid=RG,
                           t_max=0.5,
                           dt_initial=0.05, n_monitor=4)
        rep = run(np.zeros(RG.n_points), cfg)
        assert rep.verdict.kind == "survived"
        assert np.all(rep.weighted_mass_series == 0.0)

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
        assert list(rep.times) == [0.0]


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


class TestLapack:
    @pytest.mark.parametrize("dt", [0.02, 1.7e-3])
    def test_bit_identical_to_scipy(self, dt):
        from scipy.linalg import lu_factor, lu_solve
        # the operator of the sweep's lambda = 0.5 row
        mu = exponent_profile(3, 0.5, 0.5).mu
        op = ground_state_operator(RadialGrid(1e-3, 1e3, 128), 3, 0.5, mu)
        a = op.eye + dt * solver._THETA * op.B
        b = radial_bump()(op.r)
        lu, piv = solver.lu_factor(a)
        lu_ref, piv_ref = lu_factor(a, check_finite=False)
        assert lu.tobytes() == lu_ref.tobytes()
        assert np.array_equal(piv, piv_ref)
        x = solver.lu_solve((lu, piv), b)
        x_ref = lu_solve((lu_ref, piv_ref), b, check_finite=False)
        assert x.tobytes() == x_ref.tobytes()

    def test_zero_pivot_rejects_the_step(self, monkeypatch):
        factor = solver.lu_factor

        def singular(a):
            a = a.copy()
            a[:, 0] = 0.0
            return factor(a)

        monkeypatch.setattr(solver, "lu_factor", singular)
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
    def test_zero_field_dominated_and_doubled_not(self, prof_3_05):
        from hardyheat.constructions import (choose_supersolution,
                                             compare_supersolution,
                                             supersolution_value)
        from hardyheat.solver import TrajectoryReport, Verdict
        params = ProblemParams(3, 0.5, 0.5, 2.0)
        sp, _ = choose_supersolution(params, prof_3_05)
        r = np.geomspace(1e-3, 20.0, 64)
        w0 = supersolution_value(sp, prof_3_05, r, 0.0)

        def report_with(u):
            cfg = SolverConfig(params=params, grid=RadialGrid(1e-3, 20.0, 64),
                               t_max=1.0)
            return TrajectoryReport(
                times=np.array([0.0]), weighted_mass_series=np.array([0.0]),
                critical_norm_series=np.array([0.0]),
                l2_series=np.array([0.0]), energy_series=np.array([0.0]),
                verdict=Verdict("survived"), config=cfg,
                tail_times=np.array([0.0]),
                tail_weighted_mass=np.array([0.0]), r_grid=r,
                fields=[(0.0, u)])

        assert compare_supersolution(report_with(np.zeros_like(r)),
                                     sp, prof_3_05)
        assert not compare_supersolution(report_with(2.0 * w0),
                                         sp, prof_3_05)


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
