"""Explicit analytic objects: weighted test functions, the blow-up ODE
predictor, the self-similar supersolution family (a problem and an
amplitude; its exponents follow from the problem), the negative-energy
blow-up criterion, and the critical-case quadrature constants.

Everything is built from the kernel profile table and the singular-
integral evaluators; each certification routine reports what it actually
verified (sampled windows, normalized residuals) rather than a bare
boolean where that would overstate the check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, QuadratureError, UnsupportedDatumError
from .exponents import ProblemParams, Regime, classify_regime
from .fracop import (Field, apply_ground_state_operator,
                     frac_laplacian_quadrature_radial, frac_laplacian_spectral)
from .kernel import KernelProfile, sphere_area, tail_mass_beyond
from .quadrature import (gauss_rule, head_panels, integrate_panels,
                         tanh_sinh_rule)
from .solver import TrajectoryReport, box_energy_terms, regularized_potential

__all__ = [
    "check_scaling_ode", "TestFunctionParams", "SupersolutionParams",
    "psi_eta_value", "psi_eta_mass", "psi_mass_constant",
    "psi_differential_inequality", "y_ode_blowup_predictor",
    "SupersolutionCertificate", "choose_supersolution", "supersolution_value",
    "supersolution_residual",
    "compare_supersolution", "energy_gap", "energy_blowup_criterion",
    "critical_case_constants", "smooth_bump",
]


# ---------------------------------------------------------------------------
# kernel scaling identity


def check_scaling_ode(profile: KernelProfile, radii=None) -> float:
    """Max relative residual of 2s (-Delta)^s H = N H + r H'.

    Cross-validates the kernel table against the singular-integral
    evaluator of fracop.
    """
    N, s = profile.N, profile.s
    if radii is None:
        radii = np.geomspace(0.2, max(profile.sigma_max / 10.0, 0.4), 10)
    r = np.asarray(radii, dtype=float)
    lap = frac_laplacian_quadrature_radial(profile.h_of_sigma, N, s, r)
    H = profile.h_of_sigma(r)
    rhs = N * H + r * profile.hprime_of_sigma(r)
    return float(np.max(np.abs(2.0 * s * lap - rhs) / (N * H)))


# ---------------------------------------------------------------------------
# weighted test function psi_eta


@dataclass(frozen=True)
class TestFunctionParams:
    """Scale eta and weight exponent mu of the test function
    psi_eta(x) = eta^{N/(2s) - mu/s} |x|^{-mu} H(eta^{1/(2s)} |x|)."""

    __test__ = False   # despite the name, not a pytest class

    eta: float
    mu: float

    def __post_init__(self) -> None:
        # written so that nan fails both range tests
        if not 0.0 < self.eta < math.inf:
            raise DomainError("eta must be positive and finite")
        if not 0.0 <= self.mu < math.inf:
            raise DomainError("mu must be nonnegative and finite")


def _weighted_profile(profile: KernelProfile, b: float):
    """g_b(sigma) = sigma^{-b} H(sigma), the unit-scale profile that psi_eta
    and the supersolution rescale (+inf at sigma = 0 for b > 0)."""
    def g(sigma):
        sigma = np.asarray(sigma, dtype=float)
        with np.errstate(divide="ignore"):
            return sigma ** (-b) * profile.h_of_sigma(sigma)
    return g


def psi_eta_value(x_norm, params: TestFunctionParams, profile: KernelProfile):
    """Pointwise value of the rescaled weighted test function,
    eta^{(N-mu)/(2s)} g_mu(eta^{1/(2s)} |x|)."""
    N, s, mu = profile.N, profile.s, params.mu
    sigma = params.eta ** (0.5 / s) * np.asarray(x_norm, dtype=float)
    return (params.eta ** (0.5 * (N - mu) / s)
            * _weighted_profile(profile, mu)(sigma))


def psi_eta_mass(params: TestFunctionParams, profile: KernelProfile) -> float:
    """int psi_eta dx = C_psi eta^{-mu/(2s)}: psi_eta is a rescaling of
    g_mu, so its mass is the unit-scale mass times that power."""
    return (params.eta ** (-0.5 * params.mu / profile.s)
            * psi_mass_constant(profile, params.mu))


def psi_mass_constant(profile: KernelProfile, mu: float) -> float:
    """C_psi = omega_{N-1} int sigma^{N-1-mu} H(sigma) dsigma, the constant
    in the mass law int psi_eta = C_psi eta^{-mu/(2s)}, by radial
    quadrature over the table plus the analytic far-field series."""
    N, s = profile.N, profile.s

    def integrand(r):
        return r ** (N - 1 - mu) * profile.h_of_sigma(r)

    edges = profile.sigma_grid[1:]
    body = integrate_panels(integrand, edges, order=10)
    body += head_panels(integrand, float(edges[0]), scale=abs(body))
    tail = tail_mass_beyond(N, s, profile.sigma_max, mu=mu)
    return sphere_area(N) * body + tail


def psi_differential_inequality(params: TestFunctionParams,
                                profile: KernelProfile, lam: float,
                                radii) -> float:
    """Min over radii of the normalized slack in

        -(-Delta)^s psi + lam psi/|x|^{2s} + (N/(2s)) eta psi >= 0.

    Nonnegative values certify the inequality at the sampled radii."""
    N, s, eta = profile.N, profile.s, params.eta
    r = np.asarray(radii, dtype=float)
    sigma = eta ** (0.5 / s) * r
    g = _weighted_profile(profile, params.mu)
    amp = eta ** (0.5 * (N - params.mu) / s)     # psi_eta = amp g_mu(sigma)
    val = amp * g(sigma)
    lap = amp * eta * frac_laplacian_quadrature_radial(g, N, s, sigma)
    pot = lam * r ** (-2.0 * s) * val
    growth = (0.5 * N / s) * eta * val
    return float(np.min((-lap + pot + growth) / (np.abs(lap) + pot + growth)))


# ---------------------------------------------------------------------------
# integrated blow-up predictor


def _check_table(problem: ProblemParams, profile: KernelProfile) -> None:
    """Refuse (DomainError) a kernel table of another (N, s) than the
    problem."""
    N, s = problem.N, problem.s
    if (profile.N, profile.s) != (N, s):
        raise DomainError(
            f"kernel table of N={profile.N}, s={profile.s} cannot evaluate "
            f"the problem of N={N}, s={s}")


# eta values searched by the scale-free predictor: 40 per decade
_PREDICTOR_ETAS = np.geomspace(1e-6, 1.0, 241)


def y_ode_blowup_predictor(Y0: float, eta: float | None,
                           params: ProblemParams,
                           profile: KernelProfile) -> float | None:
    """Least horizon T forced by the integrated differential inequality

        1/Y0^{p-1} <= C (2s/N) eta^{(p-1) mu/(2s) - 1}
                      (1 - e^{-(p-1)(N/(2s)) eta T}),

    C = C_psi^{1-p}, with C_psi = psi_mass_constant of the kernel table,
    which must be of the problem's (N, s).

    With eta given, Y0 is the weighted test-function mass of the datum at
    that scale.  With eta=None, Y0 is treated as the scale-free weighted
    mass (the bounded-profile approximation) and the eta grid
    _PREDICTOR_ETAS is searched; below the Fujita exponent a finite
    horizon exists for every positive Y0, above it small data admit none.
    """
    _check_table(params, profile)
    if not 0.0 <= Y0 < math.inf:
        raise DomainError("Y0 must be nonnegative and finite")
    if eta is not None and not 0.0 < eta < math.inf:
        raise DomainError("eta must be positive and finite")
    if Y0 == 0.0:
        return None
    N, s, p = params.N, params.s, params.p
    mu = params.exponents.mu
    if eta is None:
        etas = _PREDICTOR_ETAS
        y0 = etas ** (0.5 * N / s - mu / s) * Y0
    else:
        etas, y0 = np.array([float(eta)]), np.array([Y0])
    C = psi_mass_constant(profile, mu) ** (1.0 - p)
    cap = C * (2.0 * s / N) * etas ** ((p - 1.0) * mu / (2.0 * s) - 1.0)
    with np.errstate(over="ignore", divide="ignore"):
        ratio = y0 ** (1.0 - p) / cap
    fires = ratio < 1.0
    if not np.any(fires):
        return None
    return float(np.min(-np.log1p(-ratio[fires])
                        / ((p - 1.0) * (0.5 * N / s) * etas[fires])))


# ---------------------------------------------------------------------------
# supersolution family


DEFAULT_CERT_RADII = tuple(np.geomspace(0.05, 4.0, 20))
DEFAULT_CERT_TIMES = tuple(np.linspace(0.0, 9.0, 10))

# time shift T of every family, and the fraction by which the chosen
# amplitude stays below the largest admissible one
_CERT_T = 1.0
_CERT_MARGIN = 0.1


@dataclass(frozen=True)
class SupersolutionParams:
    """w(x,t) = A (T+t)^{-theta} sigma^{-gamma} H(sigma) with
    sigma = |x| (T+t)^{-beta}, for one problem (N, s, lambda, p) and one
    amplitude A.

    Everything else follows from the problem: theta = 2s/(p-1),
    beta = 1/(2s), gamma the midpoint of (mu, min(2s/(p-1), mu_bar)) (the
    cap at mu_bar keeps the power coupling above lambda, without which the
    potential term would change sign near the origin), and T = _CERT_T.
    Refuses (DomainError) a problem outside the conditional-global regime
    F < p < p_plus, as classify_regime places p, and an amplitude that is
    not positive and finite.
    """

    problem: ProblemParams
    A: float

    def __post_init__(self) -> None:
        regime = classify_regime(self.problem)
        if regime is not Regime.CONDITIONAL_GLOBAL:
            prof = self.problem.exponents
            raise DomainError(
                f"supersolution family needs fujita < p < p_plus, got "
                f"p={self.problem.p} ({regime.value}) against "
                f"({prof.fujita}, {prof.p_plus})")
        if not 0.0 < self.A < math.inf:
            raise DomainError(
                f"amplitude must be positive and finite, got {self.A}")

    @property
    def theta(self) -> float:
        return 2.0 * self.problem.s / (self.problem.p - 1.0)

    @property
    def beta(self) -> float:
        return 0.5 / self.problem.s

    @property
    def gamma(self) -> float:
        prof, s, p = self.problem.exponents, self.problem.s, self.problem.p
        return 0.5 * (prof.mu + min(2.0 * s / (p - 1.0), prof.mu_bar))

    @property
    def T(self) -> float:
        return _CERT_T


@dataclass(frozen=True)
class SupersolutionCertificate:
    """The least normalized residual over the sample and the point where it
    lies: its (r, t), its sigma = r (T+t)^{-beta}, and the name of the
    largest of the terms w_t, laplacian, potential and reaction there."""

    min_normalized_residual: float
    worst_r: float
    worst_t: float
    worst_sigma: float
    worst_term: str


def choose_supersolution(params: ProblemParams, profile: KernelProfile
                         ) -> tuple[SupersolutionParams,
                                    SupersolutionCertificate]:
    """Pick the amplitude A so the family of `params` dominates its own
    nonlinearity on the default window (DEFAULT_CERT_RADII x
    DEFAULT_CERT_TIMES); returns the family with its certificate (the
    supersolution_residual of the pick and its worst point, from the same
    quadratures).

    The residual is A * ell - A^p w1^p per sample point, so the largest
    admissible amplitude is min (ell / w1^p)^{1/(p-1)}; A is that bound
    shrunk by _CERT_MARGIN.  SupersolutionParams refuses a problem outside
    the conditional-global regime; the window must have ell > 0 (the mixed
    nonlocal term is negative and wins far out in self-similar radius).
    """
    p = params.p
    unit = SupersolutionParams(params, A=1.0)
    terms = _supersolution_terms(unit, profile, DEFAULT_CERT_RADII,
                                 DEFAULT_CERT_TIMES)
    w1, w_t, lap, pot = terms
    ell = w_t + lap - pot
    if np.any(ell <= 0.0):
        raise DomainError(
            "linear residual terms change sign on the certification window "
            f"r in [{DEFAULT_CERT_RADII[0]:g}, {DEFAULT_CERT_RADII[-1]:g}], "
            f"t in [{DEFAULT_CERT_TIMES[0]:g}, {DEFAULT_CERT_TIMES[-1]:g}]; "
            f"the family certifies no amplitude for p={p} there")
    bound = float(np.min(ell / w1 ** p))
    A = ((1.0 - _CERT_MARGIN) * bound) ** (1.0 / (p - 1.0))
    sp = replace(unit, A=A)
    return sp, _certificate(sp, terms, DEFAULT_CERT_RADII, DEFAULT_CERT_TIMES)


def supersolution_value(sp: SupersolutionParams, profile: KernelProfile,
                        r, t: float):
    """w(r, t) = A tau^{-theta} g_gamma(r tau^{-beta}), tau = T + t; +inf at
    r = 0 (the profile weight is singular there).  The table must be of
    the problem's (N, s)."""
    _check_table(sp.problem, profile)
    tau = sp.T + t
    sigma = np.asarray(r, dtype=float) * tau ** (-sp.beta)
    return sp.A * tau ** (-sp.theta) * _weighted_profile(profile, sp.gamma)(sigma)


def _supersolution_terms(unit: SupersolutionParams, profile: KernelProfile,
                         radii, times) -> np.ndarray:
    """Rows (w, w_t, (-Delta)^s w, lam w/r^{2s}) of the unit-amplitude
    family, one column per sample point (times outer, radii inner).

    Every term but the reaction w^p is linear in the amplitude, so these
    four rows give the residual at any amplitude.  Each term is a power of
    tau times a function of sigma; the Laplacian is one evaluator call on
    g_gamma per time.  The table must be of the problem's (N, s).
    """
    _check_table(unit.problem, profile)
    N, s = unit.problem.N, unit.problem.s
    r = np.asarray(radii, dtype=float)
    tau = unit.T + np.asarray(times, dtype=float)[:, None]
    sigma = r * tau ** (-unit.beta)
    g = _weighted_profile(profile, unit.gamma)
    amp = unit.A * tau ** (-unit.theta)
    g_sigma = g(sigma)
    w = amp * g_sigma
    # sigma g_gamma' = -gamma g_gamma + sigma^{1-gamma} H'
    w_t = amp / tau * ((unit.beta * unit.gamma - unit.theta) * g_sigma
                       - unit.beta * sigma ** (1.0 - unit.gamma)
                       * profile.hprime_of_sigma(sigma))
    lap = amp * tau ** (-2.0 * s * unit.beta) * np.array(
        [frac_laplacian_quadrature_radial(g, N, s, row) for row in sigma])
    pot = unit.problem.lam * w * r ** (-2.0 * s)
    return np.stack((w, w_t, lap, pot)).reshape(4, -1)


def _certificate(sp: SupersolutionParams, terms, radii,
                 times) -> SupersolutionCertificate:
    """The residual at amplitude sp.A of the terms of _supersolution_terms,
    normalized per point by its term magnitudes, at its least point."""
    w, w_t, lap, pot = sp.A * terms
    reac = w ** sp.problem.p
    res = w_t + lap - pot - reac
    scale = np.abs(w_t) + np.abs(lap) + pot + reac
    k = int(np.argmin(res / scale))
    i, j = divmod(k, len(radii))
    r, t = float(radii[j]), float(times[i])
    parts = np.abs([w_t[k], lap[k], pot[k], reac[k]])
    return SupersolutionCertificate(
        float(res[k] / scale[k]), r, t, r * (sp.T + t) ** (-sp.beta),
        ("w_t", "laplacian", "potential", "reaction")[int(np.argmax(parts))])


def supersolution_residual(sp: SupersolutionParams, profile: KernelProfile,
                           radii=DEFAULT_CERT_RADII,
                           times=DEFAULT_CERT_TIMES) -> float:
    """Min over the sample of (w_t + (-Delta)^s w - lam w/r^{2s} - w^p),
    normalized per point by the sum of term magnitudes.

    The time derivative is analytic in the profile; the fractional
    Laplacian is evaluated by the radial quadrature.  Certification means
    the return is >= -1e-6.  The family fails far outside the sampled
    window (the mixed nonlocal term is negative and eventually dominates),
    so the window is part of the certificate.
    """
    terms = _supersolution_terms(replace(sp, A=1.0), profile, radii, times)
    return _certificate(sp, terms, radii, times).min_normalized_residual


def compare_supersolution(report: TrajectoryReport, sp: SupersolutionParams,
                          profile: KernelProfile) -> bool:
    """True iff every stored field satisfies u <= w (1 + 1e-6) pointwise.

    Requires a ground_state report with store_fields=True of the family's
    own problem; w is the self-similar supersolution evaluated through the
    kernel profile."""
    if report.fields is None or report.r_grid is None:
        raise DomainError("report carries no stored fields")
    if report.config.params != sp.problem:
        raise DomainError(f"a run of {report.config.params} cannot be "
                          f"compared with the supersolution of {sp.problem}")
    for t, u in report.fields:
        w = supersolution_value(sp, profile, report.r_grid, t)
        if np.any(u > w * (1.0 + 1e-6)):
            return False
    return True


# ---------------------------------------------------------------------------
# negative-energy blow-up criterion


def smooth_bump(radius: float):
    """C^2 compactly supported radial bump (1 - (r/R)^2)_+^3."""
    def bump(r):
        r = np.asarray(r, dtype=float)
        return np.clip(1.0 - (r / radius) ** 2, 0.0, None) ** 3
    return bump


# regularization length eps of the potential in the negative-energy test
_ENERGY_EPSILON = 1.0


def energy_gap(h0: Field, params: ProblemParams,
               R: float) -> tuple[float, float]:
    """(reaction side, dissipation side) of the negative-energy test:

        1/(p+1) int h^{p+1}   vs   (1/2) <h, (-Delta)^s h>
                                   - (lam/2) int h^2/(|x|^{2s}+eps^{2s}),

    with eps = _ENERGY_EPSILON.

    The quadratic form equals (a/4) times the Gagliardo double integral.
    The datum must be nonnegative and supported in the ball of radius R.
    """
    if not 0.0 < R < math.inf:
        raise DomainError(f"support radius must be positive and finite, "
                          f"got {R}")
    grid = h0.grid
    vals = h0.values
    if np.any(vals < 0.0):
        raise UnsupportedDatumError("datum must be nonnegative")
    rad = grid.radius()
    outside = rad > R
    if np.any(np.abs(vals[outside]) > 1e-12 * max(vals.max(), 1e-300)):
        raise UnsupportedDatumError(
            f"datum not supported in the ball of radius {R}")
    s = params.s
    quad, pot, react = box_energy_terms(
        vals, frac_laplacian_spectral(h0, s).values,
        regularized_potential(grid, s, params.lam, _ENERGY_EPSILON),
        params.p, grid.cell_volume)
    return react, quad - pot


def energy_blowup_criterion(h0: Field, params: ProblemParams,
                            R: float) -> bool:
    """True when the reaction energy strictly exceeds the dissipation
    energy, which forces the local L2 norm to diverge in finite time."""
    lhs, rhs = energy_gap(h0, params, R)
    return lhs > rhs


# ---------------------------------------------------------------------------
# critical-case constants


def _smoothstep(v):
    return v ** 3 * (10.0 - 15.0 * v + 6.0 * v ** 2)


def _phi(u):
    """The cutoff phi(u): 1 for u <= 1, quintic smoothstep down to 0 at
    u = 2 (value and first two derivatives vanish at the outer edge).

    phi and its complement are both computed in factored form (the
    smoothstep satisfies S(w) + S(1-w) = 1), so neither underflows to an
    exact 0/1 through cancellation near the edges where the integrands
    carry negative powers of them.
    """
    u = np.asarray(u, dtype=float)
    return _smoothstep(np.clip(2.0 - u, 0.0, 1.0))


def _dphi(u):
    u = np.asarray(u, dtype=float)
    w = np.clip(u - 1.0, 0.0, 1.0)
    return -30.0 * w ** 2 * (1.0 - w) ** 2


def _one_minus_phi(u):
    u = np.asarray(u, dtype=float)
    return _smoothstep(np.clip(u - 1.0, 0.0, 1.0))


# (tanh-sinh half-width in u, Gauss order in tau) of the shell integrals:
# a coarse mesh, then the refined one whose values are returned
_MESHES = ((48, 24), (72, 36))


def critical_case_constants(params: ProblemParams, m: float, kappa: float
                            ) -> tuple[float, float, float, float]:
    """Rescaled cutoff integrals of the critical-case argument:
    (C1, C3, C1 refinement delta, C3 refinement delta).

    Both integrals run over the shell {1 < tau^2 + |y|^{4s} < 2, tau > 0},
    where the kappa-weight (1-theta)^{-kappa(p'-1)} is finite; theta is
    the composite cutoff phi(tau^2 + |y|^{4s}).  C1 has a closed-form
    inner tau-integral; C3 applies the ground-state operator in y, one
    call per u node.  Each constant is computed on a coarse and a refined
    mesh; the refined value is returned with its relative change
    |refined - coarse| / |coarse|, and a QuadratureError flags a change
    above 1%.  p must be the Fujita exponent, as classify_regime places it.
    """
    prof = params.exponents
    N, s, p, mu = params.N, params.s, params.p, prof.mu
    if classify_regime(params) is not Regime.CRITICAL_FUJITA:
        raise DomainError(
            f"critical constants require p = fujita = {prof.fujita}, "
            f"got p={p}")
    p_prime = p / (p - 1.0)
    if not 1.0 < m <= p_prime:
        raise DomainError(f"need 1 < m <= p' = {p_prime}, got m={m}")
    if not 0.0 <= kappa < math.inf:
        raise DomainError(f"kappa must be nonnegative and finite, got {kappa}")
    # theta ~ 10 (2-u)^3 at the outer edge and 1 - theta ~ 10 (u-1)^3 at
    # the inner one, while L theta stays nonzero at both: C3 is finite iff
    # 3 (p' - m) < 1 and 3 kappa (p' - 1) < 1
    if not 3.0 * (p_prime - m) < 1.0:
        raise DomainError(
            f"C3 diverges at the shell's outer edge (theta -> 0) unless "
            f"m > p' - 1/3 = {p_prime - 1.0 / 3.0}, got m={m}")
    if not 3.0 * kappa * (p_prime - 1.0) < 1.0:
        raise DomainError(
            f"C3 diverges at the shell's inner edge (theta -> 1) unless "
            f"kappa < 1/(3 (p' - 1)) = {1.0 / (3.0 * (p_prime - 1.0))}, "
            f"got kappa={kappa}")

    coarse, fine = (_shell_constants(N, s, mu, p, m, kappa, *mesh)
                    for mesh in _MESHES)
    deltas = [abs(f - c) / abs(c) for c, f in zip(coarse, fine)]
    for name, delta in zip(("C1", "C3"), deltas):
        if not delta <= 0.01:
            raise QuadratureError(f"{name} not refinement-stable within 1%")
    return (*fine, *deltas)


def _beta(a: float, b: float) -> float:
    """Beta function Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _shell_constants(N, s, mu, p, m, kappa, n_half, n_tau
                     ) -> tuple[float, float]:
    """(C1, C3) on one mesh: one tanh-sinh rule in u over 1 < u < 2
    (integrable edge singularities) and one cutoff weight theta^{m-p'}.

    C1 = 2^{p'} omega/(4s) B-closed-form * int_1^2 |phi'|^{p'} phi^{m-p'}
    u^{(p'-1)/2 + q} du with q = (N-mu)/(4s); the inner tau-integral
    int_0^{sqrt u} tau^{p'} (u - tau^2)^{q-1} dtau is a Beta function times
    u^{(p'-1)/2 + q}.  C3 is the shell integral of |y|^{mu(p+1)/(p-1)}
    |L theta|^{p'} theta^{m-p'} (1-theta)^{-kappa(p'-1)}, tau by the
    substitution tau = sqrt(u) sin(pi zeta/2) and a Gauss rule in zeta.
    """
    p_prime = p / (p - 1.0)
    area = sphere_area(N) / (4.0 * s)
    u, u_w = tanh_sinh_rule(1.0, 2.0, n_half)
    theta_w = _phi(u) ** (m - p_prime)

    q = (N - mu) / (4.0 * s)
    tau_factor = 0.5 * _beta(0.5 * (p_prime + 1.0), q)
    vals = (np.abs(_dphi(u)) ** p_prime * theta_w
            * u ** (0.5 * (p_prime - 1.0) + q))
    c1 = 2.0 ** p_prime * area * tau_factor * np.dot(u_w, vals)

    q3 = (mu * (p + 1.0) / (p - 1.0) + N) / (4.0 * s)
    zeta, zw = gauss_rule(n_tau)
    zeta = 0.5 * (zeta + 1.0)
    zw = 0.5 * zw
    # one row per u node: tau, dtau/dzeta and |y|^{4s} = u - tau^2
    sqrt_u = np.sqrt(u)[:, None]
    tau = sqrt_u * np.sin(0.5 * math.pi * zeta)
    dtau = sqrt_u * 0.5 * math.pi * np.cos(0.5 * math.pi * zeta)
    rad4s = u[:, None] - tau ** 2
    tau_w = zw * dtau * rad4s ** (q3 - 1.0)
    # the u-weight theta^{m-p'} (1-theta)^{-kappa(p'-1)} times the u-rule
    u_w = u_w * (theta_w * np.maximum(_one_minus_phi(u), 1e-300)
                 ** (-kappa * (p_prime - 1.0)))
    total = 0.0
    for t, r4s, tw, wu in zip(tau, rad4s, tau_w, u_w):

        # one member of the theta-family per tau node, one radius each
        def v_theta(rr, t=t):
            return _phi(t[:, None] ** 2 + rr ** (4.0 * s))

        L = apply_ground_state_operator(v_theta, mu, N, s,
                                        r4s ** (0.25 / s))
        total += wu * np.dot(tw, np.abs(L) ** p_prime)
    return float(c1), float(area * total)
