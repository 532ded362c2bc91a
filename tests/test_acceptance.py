"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them on success).  Tolerances are pinned here and nowhere else.
"""
import math
import sys
from dataclasses import replace

import numpy as np

from conftest import poisson_profile
from hardyheat.exponents import (ProblemParams, alpha_of_lambda,
                                 exponent_profile, hardy_constant,
                                 lambda_of_alpha)
from hardyheat.fracop import (Field, UniformGrid,
                              apply_ground_state_operator,
                              frac_laplacian_quadrature_radial,
                              verify_power_solution)
from hardyheat.kernel import check_envelope, profile_moment
from hardyheat.solver import (RadialGrid, SolverConfig, blowup_fit,
                              monitor_norms, run)
from hardyheat.constructions import (TestFunctionParams, check_scaling_ode,
                                     choose_supersolution,
                                     compare_supersolution,
                                     critical_case_constants,
                                     energy_blowup_criterion, energy_gap,
                                     psi_differential_inequality,
                                     psi_mass_constant,
                                     smooth_bump, supersolution_residual,
                                     supersolution_value,
                                     y_ode_blowup_predictor)


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


NS_GRID = [(1, 0.25), (2, 0.25), (2, 0.5), (2, 0.75),
           (3, 0.25), (3, 0.5), (3, 0.75),
           (4, 0.25), (4, 0.5), (4, 0.75)]


def test_criterion_1_exponent_algebra():
    worst_round = 0.0
    worst_hardy = 0.0
    chain_ok = True
    for N, s in NS_GRID:
        lam_max = hardy_constant(N, s)
        grid = np.linspace(lam_max / 100.0, lam_max, 100)
        for lam in grid:
            alpha = alpha_of_lambda(N, s, float(lam))
            back = lambda_of_alpha(N, s, alpha)
            worst_round = max(worst_round, abs(back - lam) / lam)
            prof = exponent_profile(N, s, float(lam))
            tol = 1e-12
            chain_ok &= (1 + 2 * s / N <= prof.fujita + tol
                         and prof.fujita <= prof.p_minus + tol
                         and prof.p_minus <= prof.sobolev_power + tol
                         and prof.sobolev_power <= prof.p_plus + tol)
        worst_hardy = max(worst_hardy, abs(
            lambda_of_alpha(N, s, 0.0) - lam_max) / lam_max)
    prof = exponent_profile(3, 0.5, 0.5)
    worked = max(abs(prof.alpha - 0.5), abs(prof.mu - 0.5),
                 abs(prof.p_plus - 3.0), abs(prof.p_minus - 5.0 / 3.0),
                 abs(prof.fujita - 1.4))
    ok = (worst_round <= 1e-12 and worst_hardy <= 1e-12 and chain_ok
          and worked <= 1e-12)
    report("criterion-1 exponent-algebra", ok,
           f"round-trip {worst_round:.2e}, lambda(0) {worst_hardy:.2e}, "
           f"ordering chain {'ok' if chain_ok else 'violated'}, "
           f"worked instance {worked:.2e}")


def test_criterion_2_kernel_fidelity(prof_1_05, prof_3_05, prof_2_025,
                                     prof_2_075):
    worst_poisson = 0.0
    for prof in (prof_1_05, prof_3_05):
        keep = prof.sigma_grid <= 20.0
        exact = poisson_profile(prof.N, prof.sigma_grid[keep])
        worst_poisson = max(worst_poisson, float(np.max(
            np.abs(prof.H_values[keep] - exact) / exact)))
    masses = [abs(p.mass - 1.0) for p in
              (prof_1_05, prof_3_05, prof_2_025, prof_2_075)]
    env_1 = check_envelope(prof_1_05)
    env_3 = check_envelope(prof_3_05)
    decreasing = all(bool(np.all(np.diff(p.H_values) < 0.0)) for p in
                     (prof_1_05, prof_3_05, prof_2_025, prof_2_075))
    ok = (worst_poisson <= 1e-6 and max(masses) <= 1e-6
          and env_1 <= 10.0 and env_3 <= 10.0 and decreasing)
    report("criterion-2 kernel-fidelity", ok,
           f"poisson {worst_poisson:.2e}, mass defect {max(masses):.2e}, "
           f"envelope (pi={env_1:.4f}, pi^2={env_3:.4f}), "
           f"strictly decreasing {decreasing}")


def test_criterion_3_operator_identities(prof_1_05, prof_3_025):
    err_half = verify_power_solution(3, 0.5, 0.5, [0.5, 1.0, 2.0])
    err_zero = verify_power_solution(3, 0.5, 0.0, [0.5, 1.0, 2.0])
    res_oracle = check_scaling_ode(prof_1_05)
    res_cross = check_scaling_ode(prof_3_025)
    # ground-state two-route agreement
    lam = lambda_of_alpha(3, 0.5, 0.5)
    mu = 0.5
    v = lambda r: np.exp(-(np.asarray(r) - 1.0) ** 2 / 0.5)
    u = lambda r: np.asarray(r) ** -mu * v(r)
    two_route = 0.0
    for r in np.geomspace(0.4, 2.5, 10):
        lhs = (frac_laplacian_quadrature_radial(u, 3, 0.5, float(r))
               - lam * r ** -1.0 * float(u(np.array([r]))[0]))
        rhs = r ** mu * apply_ground_state_operator(v, mu, 3, 0.5, float(r))
        two_route = max(two_route,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    ok = (err_half <= 1e-3 and err_zero <= 1e-3 and res_oracle <= 1e-3
          and res_cross <= 1e-2 and two_route <= 1e-3)
    report("criterion-3 operator-identities", ok,
           f"power eigen {max(err_half, err_zero):.2e}, "
           f"scaling-ODE oracle {res_oracle:.2e} / cross {res_cross:.2e}, "
           f"two-route {two_route:.2e}")


def test_criterion_4_psi_eta_machinery(prof_3_05):
    mu = 0.5
    mass_err = abs(psi_mass_constant(prof_3_05, mu)
                   / profile_moment(3, 0.5, mu) - 1.0)
    slack = psi_differential_inequality(
        TestFunctionParams(0.05, mu), prof_3_05, 0.5,
        np.geomspace(0.05, 20.0, 20))
    p_sub = ProblemParams(3, 0.5, 0.5, 1.2)
    p_sup = ProblemParams(3, 0.5, 0.5, 2.0)
    fires = all(y_ode_blowup_predictor(y0, None, p_sub, prof_3_05) is not None
                for y0 in (1e-6, 1e-3, 1.0, 1e3))
    silent = y_ode_blowup_predictor(1e-6, None, p_sup, prof_3_05) is None
    ok = mass_err <= 1e-6 and slack >= -1e-9 and fires and silent
    report("criterion-4 psi-eta", ok,
           f"mass constant error {mass_err:.2e}, inequality slack "
           f"{slack:.3e} at 20 radii, predictor fires below fujita {fires}, "
           f"silent above {silent}")


def test_criterion_5_supersolution(prof_3_05):
    params = ProblemParams(3, 0.5, 0.5, 2.0)
    sp, _ = choose_supersolution(params, prof_3_05)
    gamma_ok = abs(sp.gamma - 0.75) <= 1e-12
    res = supersolution_residual(sp, prof_3_05)   # 20 x 10 sample
    # negative control: inflate A past the margin
    failed = False
    A = sp.A
    for _ in range(5):
        A *= 2.0
        trial = replace(sp, A=A)
        if supersolution_residual(trial, prof_3_05,
                                  radii=np.geomspace(0.05, 4.0, 8),
                                  times=[0.0, 4.0]) < -1e-6:
            failed = True
            break
    ok = gamma_ok and sp.A > 0.0 and res >= -1e-6 and failed
    report("criterion-5 supersolution", ok,
           f"gamma=0.75 {gamma_ok}, A={sp.A:.4f}, min residual {res:.3e}, "
           f"inflated amplitude fails {failed}")


def test_criterion_6a_diffusion_oracle(prof_1_025):
    grid = UniformGrid(1, 1600.0, 32768)
    x = grid.axis()
    params = ProblemParams(1, 0.25, 0.0, 2.0)
    cfg = SolverConfig(params=params, grid=grid,
                       t_max=1.0, dt_initial=0.05, n_monitor=4,
                       reaction_enabled=False, store_fields=True)
    rep = run(Field(grid, np.exp(-x ** 2)), cfg)
    drift = abs(rep.weighted_mass_series[-1] - rep.weighted_mass_series[0]) \
        / rep.weighted_mass_series[0]
    _, u_end = rep.fields[-1]
    yq = np.linspace(-40.0, 40.0, 16001)
    u0q = np.exp(-yq ** 2)

    def conv_at(xx):
        H = prof_1_025.h_of_sigma(np.abs(xx - yq))
        return float(np.trapezoid(H * u0q, yq))

    peak = conv_at(0.0)
    worst = 0.0
    for xx in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
        i = int(np.argmin(np.abs(x - xx)))
        worst = max(worst, abs(u_end[i] - conv_at(float(x[i]))) / peak)
    ok = worst <= 1e-4 and drift <= 1e-6
    report("criterion-6a diffusion-oracle", ok,
           f"convolution mismatch {worst:.2e}, mass drift {drift:.2e}")


def test_criterion_6b_sub_fujita_blowup():
    params = ProblemParams(3, 0.5, 0.5, 1.2)
    rg = RadialGrid(1e-3, 1e3, 192)
    details = []
    ok = True
    for amp in (1e-3, 1.0):
        cfg = SolverConfig(params=params, grid=rg,
                           t_max=2000.0,
                           dt_initial=0.05, blowup_threshold=1e4,
                           n_monitor=64)
        rep = run(lambda r, a=amp: a * np.exp(-r ** 2), cfg)
        blew = rep.verdict.kind == "blew_up"
        lin = (blowup_fit(rep.tail_times[-60:],
                          rep.tail_weighted_mass[-60:], 1.2)[1]
               if blew else math.inf)
        finite = blew and math.isfinite(rep.verdict.t_star)
        ok &= blew and finite and lin <= 0.05
        details.append(f"amp={amp:g}: {rep.verdict.kind} "
                       f"T*={rep.verdict.t_star and rep.verdict.t_star:.4g} "
                       f"tail-linearity {lin:.3f}")
    report("criterion-6b sub-fujita-blowup", ok, "; ".join(details))


def test_criterion_6c_conditional_global(prof_3_05):
    params = ProblemParams(3, 0.5, 0.5, 2.0)
    sp, _ = choose_supersolution(params, prof_3_05)
    rg = RadialGrid(1e-3, 20.0, 192)
    u0 = 0.5 * supersolution_value(sp, prof_3_05, rg.r, 0.0)
    cfg = SolverConfig(params=params, grid=rg,
                       t_max=10.0, dt_initial=0.02, n_monitor=40,
                       store_fields=True)
    rep = run(u0, cfg)
    survived = rep.verdict.kind == "survived"
    dominated = compare_supersolution(rep, sp, prof_3_05)
    ok = survived and dominated
    report("criterion-6c conditional-global", ok,
           f"survived to t=10 {survived}, u <= w at all recorded times "
           f"{dominated}")


def test_criterion_6d_comparison_monotonicity():
    params = ProblemParams(3, 0.5, 0.5, 1.2)
    rg = RadialGrid(1e-3, 1e3, 160)
    reports = []
    for amp in (0.2, 0.3):
        cfg = SolverConfig(params=params, grid=rg,
                           t_max=2.0,
                           dt_initial=0.01, n_monitor=16)
        reports.append(run(lambda r, a=amp: a * np.exp(-r ** 2), cfg))
    small, big = reports
    slack = 1.0 + 1e-12
    ok = (bool(np.all(small.weighted_mass_series
                      <= big.weighted_mass_series * slack))
          and bool(np.all(small.critical_norm_series
                          <= big.critical_norm_series * slack))
          and bool(np.all(small.l2_series <= big.l2_series * slack)))
    report("criterion-6d comparison-monotonicity", ok,
           "ordered data give ordered monitors at matching times")


def test_criterion_6e_formulation_consistency():
    params = ProblemParams(3, 0.5, 0.5, 1.2)
    u0f = lambda r: 0.5 * np.exp(-(r / 2.0) ** 2)
    t_max = 0.25
    rg = RadialGrid(1e-3, 1e3, 256)
    rep_g = run(u0f, SolverConfig(params=params, grid=rg,
                                  t_max=t_max,
                                  dt_initial=0.005, n_monitor=8))
    rels = {}
    for n in (64, 128):
        grid = UniformGrid(3, 16.0, n)
        cfg = SolverConfig(params=params, grid=grid,
                           t_max=t_max, dt_initial=0.01, n_monitor=8)
        rep_d = run(Field.from_radial(grid, u0f), cfg)
        rel = np.abs(rep_d.weighted_mass_series
                     - rep_g.weighted_mass_series) \
            / rep_g.weighted_mass_series
        rels[n] = float(rel.max())
    ok = rels[64] <= 0.05 and rels[128] < rels[64]
    report("criterion-6e formulation-consistency", ok,
           f"direct-vs-ground-state weighted mass: {rels[64]:.4f} at 64^3, "
           f"{rels[128]:.4f} at 128^3 (improving)")


def test_criterion_7_critical_case():
    params = ProblemParams(3, 0.5, 0.5, 1.4)
    p_prime = 1.4 / 0.4
    c1, c3, _, _ = critical_case_constants(params, m=p_prime - 0.1,
                                           kappa=0.05)
    finite = math.isfinite(c1) and math.isfinite(c3)
    # refinement stability within 1% is enforced inside the call; a
    # QuadratureError here would fail the test
    rg = RadialGrid(1e-3, 1e3, 192)
    cfg = SolverConfig(params=params, grid=rg,
                       t_max=20.0, dt_initial=0.02, blowup_threshold=1e4,
                       n_monitor=64)
    rep = run(lambda r: np.exp(-r ** 2), cfg)
    blew = rep.verdict.kind == "blew_up"
    crit = rep.critical_norm_series
    monotone = bool(np.all(np.diff(crit) > 0.0)) and len(crit) >= 10
    ok = finite and blew and monotone
    report("criterion-7 critical-case", ok,
           f"C1={c1:.6g}, C3={c3:.6g} (refinement-stable within 1%), "
           f"critical norm monotone over {len(crit)} checkpoints before "
           f"the {rep.verdict.kind} verdict")


def test_criterion_8_energy_criterion():
    from hardyheat.quadrature import bisect_root
    params = ProblemParams(3, 0.5, 0.5, 2.0)
    R = 2.0
    grid = UniformGrid(3, 8.0, 64)
    base = Field.from_radial(grid, smooth_bump(R))
    lhs1, rhs1 = energy_gap(base, params, R)
    a_star = bisect_root(
        lambda a: a ** 3 * lhs1 - a ** 2 * rhs1,
        1e-3 * (rhs1 / lhs1), 1e3 * (rhs1 / lhs1))
    exact = rhs1 / lhs1
    thresh_ok = abs(a_star - exact) <= 1e-9 * exact
    h0 = Field(grid, 2.0 * a_star * base.values)
    assert energy_blowup_criterion(h0, params, R)
    wm0 = monitor_norms(h0, 0.5, 2.0, 0.5, 0.5, epsilon=1.0)[0]
    cfg = SolverConfig(params=params, grid=grid,
                       potential_epsilon=1.0, diffusion="implicit",
                       t_max=0.5, dt_initial=0.002, n_monitor=50,
                       blowup_threshold=300.0 * wm0)
    rep = run(h0, cfg)
    blew = rep.verdict.kind == "blew_up"
    I = rep.l2_series ** 2
    dI = np.gradient(I, rep.times)
    C_fit = float(np.min(dI[1:-1] / I[1:-1] ** 1.5))
    ok = thresh_ok and blew and C_fit > 0.0
    report("criterion-8 energy-criterion", ok,
           f"threshold a*={a_star:.4f} by bisection, criterion-true datum "
           f"-> {rep.verdict.kind} (T*={rep.verdict.t_star:.4g}), fitted "
           f"growth constant C={C_fit:.4g} > 0")
