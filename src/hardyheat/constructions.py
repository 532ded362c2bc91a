"""Explicit analytic objects: weighted test functions, the blow-up ODE
predictor, the self-similar supersolution family, the negative-energy
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
from .exponents import (ProblemParams, Regime, classify_regime,
                        exponent_profile)
from .fracop import (Field, apply_ground_state_operator, bilinear_remainder,
                     frac_laplacian_quadrature_radial, frac_laplacian_spectral)
from .kernel import KernelProfile, sphere_area, tail_mass_beyond
from .quadrature import (gauss_rule, head_panels, integrate_panels,
                         tanh_sinh_rule)
from .solver import TrajectoryReport, box_energy_terms, regularized_potential

__all__ = [
    "check_scaling_ode", "TestFunctionParams", "SupersolutionParams",
    "psi_eta_value", "psi_eta_mass", "psi_mass_constant",
    "psi_differential_inequality", "y_ode_blowup_predictor",
    "choose_supersolution", "supersolution_value", "supersolution_residual",
    "supersolution_mixed_remainder", "compare_supersolution", "energy_gap", "energy_blowup_criterion",
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
        if self.eta <= 0.0:
            raise DomainError("eta must be positive")
        if self.mu < 0.0:
            raise DomainError("mu must be nonnegative")


def _psi_prefactor(params: TestFunctionParams, N: int, s: float) -> float:
    return params.eta ** (0.5 * N / s - params.mu / s)


def psi_eta_value(x_norm, params: TestFunctionParams, profile: KernelProfile):
    """Pointwise value of the rescaled weighted test function."""
    N, s = profile.N, profile.s
    c = params.eta ** (0.5 / s)
    x = np.asarray(x_norm, dtype=float)
    return (_psi_prefactor(params, N, s) * x ** (-params.mu)
            * profile.h_of_sigma(c * x))


def psi_eta_mass(params: TestFunctionParams, profile: KernelProfile) -> float:
    """int psi_eta dx, by radial quadrature over the table plus the
    analytic far-field series; scales exactly as eta^{-mu/(2s)}."""
    N, s, mu = profile.N, profile.s, params.mu
    c = params.eta ** (0.5 / s)

    def integrand(r):
        return r ** (N - 1 - mu) * profile.h_of_sigma(c * r)

    r_edges = profile.sigma_grid[1:] / c
    body = integrate_panels(integrand, r_edges, order=10)
    body += head_panels(integrand, float(r_edges[0]), scale=abs(body))
    tail = c ** (mu - N) * tail_mass_beyond(N, s, profile.sigma_max, mu=mu)
    return _psi_prefactor(params, N, s) * (sphere_area(N) * body + tail)


def psi_mass_constant(profile: KernelProfile, mu: float) -> float:
    """C_psi = omega_{N-1} int sigma^{N-1-mu} H(sigma) dsigma, the constant
    in the mass law int psi_eta = C_psi eta^{-mu/(2s)}."""
    return psi_eta_mass(TestFunctionParams(eta=1.0, mu=mu), profile)


def psi_differential_inequality(params: TestFunctionParams,
                                profile: KernelProfile, lam: float,
                                radii) -> float:
    """Min over radii of the normalized slack in

        -(-Delta)^s psi + lam psi/|x|^{2s} + (N/(2s)) eta psi >= 0.

    Nonnegative values certify the inequality at the sampled radii."""
    N, s = profile.N, profile.s

    def psi(r):
        return psi_eta_value(r, params, profile)

    r = np.asarray(radii, dtype=float)
    lap = frac_laplacian_quadrature_radial(psi, N, s, r)
    val = psi(r)
    slack = -lap + lam * r ** (-2.0 * s) * val + (0.5 * N / s) * params.eta * val
    scale = np.abs(lap) + lam * r ** (-2.0 * s) * val + (0.5 * N / s) * params.eta * val
    return float(np.min(slack / scale))


# ---------------------------------------------------------------------------
# integrated blow-up predictor


# eta values searched by the scale-free predictor: 40 per decade
_PREDICTOR_ETAS = np.geomspace(1e-6, 1.0, 241)


def y_ode_blowup_predictor(Y0: float, eta: float | None,
                           params: ProblemParams, C: float) -> float | None:
    """Least horizon T forced by the integrated differential inequality

        1/Y0^{p-1} <= C (2s/N) eta^{(p-1) mu/(2s) - 1}
                      (1 - e^{-(p-1)(N/(2s)) eta T}).

    With eta given, Y0 is the weighted test-function mass of the datum at
    that scale.  With eta=None, Y0 is treated as the scale-free weighted
    mass (the bounded-profile approximation) and the eta grid
    _PREDICTOR_ETAS is searched; below the Fujita exponent a finite
    horizon exists for every positive Y0, above it small data admit none.
    """
    if Y0 < 0.0:
        raise DomainError("Y0 must be nonnegative")
    if Y0 == 0.0:
        return None
    prof = exponent_profile(params.N, params.s, params.lam)
    N, s, p, mu = params.N, params.s, params.p, prof.mu

    def horizon(y0: float, e: float) -> float | None:
        decay_rate = (p - 1.0) * (0.5 * N / s) * e
        cap = C * (2.0 * s / N) * e ** ((p - 1.0) * mu / (2.0 * s) - 1.0)
        ratio = y0 ** (1.0 - p) / cap
        if ratio >= 1.0:
            return None
        return -math.log1p(-ratio) / decay_rate

    if eta is not None:
        if eta <= 0.0:
            raise DomainError("eta must be positive")
        return horizon(Y0, eta)
    best = None
    for e in _PREDICTOR_ETAS:
        y0 = float(e) ** (0.5 * N / s - mu / s) * Y0
        T = horizon(y0, float(e))
        if T is not None and (best is None or T < best):
            best = T
    return best


# ---------------------------------------------------------------------------
# supersolution family


@dataclass(frozen=True)
class SupersolutionParams:
    """w(x,t) = A (T+t)^{-theta} sigma^{-gamma} H(sigma) with
    sigma = |x| (T+t)^{-beta}, theta = 2s/(p-1), beta = 1/(2s)."""

    A: float
    gamma: float
    T: float
    theta: float
    beta: float

    def __post_init__(self) -> None:
        if self.A <= 0.0 or self.T <= 0.0:
            raise DomainError("amplitude and time shift must be positive")


DEFAULT_CERT_RADII = tuple(np.geomspace(0.05, 4.0, 20))
DEFAULT_CERT_TIMES = tuple(np.linspace(0.0, 9.0, 10))

# time shift T of the chosen family, and the fraction by which its
# amplitude stays below the largest admissible one
_CERT_T = 1.0
_CERT_MARGIN = 0.1


def choose_supersolution(params: ProblemParams, profile: KernelProfile
                         ) -> tuple[SupersolutionParams, float]:
    """Pick (gamma, A) so the family dominates its own nonlinearity on the
    default window (DEFAULT_CERT_RADII x DEFAULT_CERT_TIMES); returns the
    parameters with their certified residual (the supersolution_residual
    of the pick, from the same quadratures).

    gamma is the midpoint of (mu, min(2s/(p-1), mu_bar)); the upper cap at
    mu_bar keeps the power coupling above lambda, without which the
    potential term would change sign near the origin.  The residual is
    A * ell - A^p w1^p per sample point, so the largest admissible
    amplitude is min (ell / w1^p)^{1/(p-1)}; A is that bound shrunk by
    _CERT_MARGIN.  Only meaningful in the conditional-global regime
    F < p < p_plus (as classify_regime places p), and only over windows
    where ell > 0 (the mixed nonlocal term is negative and wins far out in
    self-similar radius).
    """
    prof = exponent_profile(params.N, params.s, params.lam)
    s, p = params.s, params.p
    regime = classify_regime(params)
    if regime is not Regime.CONDITIONAL_GLOBAL:
        raise DomainError(
            f"supersolution family needs fujita < p < p_plus, got p={p} "
            f"({regime.value}) against ({prof.fujita}, {prof.p_plus})")
    theta = 2.0 * s / (p - 1.0)
    beta = 0.5 / s
    gamma = 0.5 * (prof.mu + min(2.0 * s / (p - 1.0), prof.mu_bar))
    unit = SupersolutionParams(A=1.0, gamma=gamma, T=_CERT_T, theta=theta,
                               beta=beta)
    terms = _supersolution_terms(unit, params, profile, DEFAULT_CERT_RADII,
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
    return replace(unit, A=A), _min_normalized_residual(A, p, *terms)


def supersolution_value(sp: SupersolutionParams, profile: KernelProfile,
                        r, t: float):
    """w(r, t); +inf at r = 0 (the profile weight is singular there)."""
    tau = sp.T + t
    r = np.asarray(r, dtype=float)
    sig = r * tau ** (-sp.beta)
    H = profile.h_of_sigma(sig)
    with np.errstate(divide="ignore"):
        out = sp.A * tau ** (-sp.theta) * sig ** (-sp.gamma) * H
    return out


def _supersolution_terms(unit: SupersolutionParams, params: ProblemParams,
                         profile: KernelProfile, radii, times) -> np.ndarray:
    """Rows (w, w_t, (-Delta)^s w, lam w/r^{2s}) of the unit-amplitude
    family, one column per sample point (times outer, radii inner).

    Every term but the reaction w^p is linear in the amplitude, so these
    four rows give the residual at any amplitude.
    """
    N, s, lam = params.N, params.s, params.lam
    r = np.asarray(radii, dtype=float)
    cols = []
    for t in np.asarray(times, dtype=float):
        tau = unit.T + t

        def w_of(rr, t=t):
            return supersolution_value(unit, profile, rr, t)

        sig = r * tau ** (-unit.beta)
        H = profile.h_of_sigma(sig)
        Hp = profile.hprime_of_sigma(sig)
        w = unit.A * tau ** (-unit.theta) * sig ** (-unit.gamma) * H
        w_t = (tau ** (-unit.theta - 1.0) * sig ** (-unit.gamma)
               * ((unit.beta * unit.gamma - unit.theta) * H
                  - unit.beta * sig * Hp))
        lap = frac_laplacian_quadrature_radial(w_of, N, s, r)
        cols.append((w, w_t, lap, lam * w * r ** (-2.0 * s)))
    return np.concatenate(cols, axis=1)


def _min_normalized_residual(A: float, p: float, w1, w_t, lap, pot) -> float:
    """Min over the sample of the residual at amplitude A of the terms of
    _supersolution_terms, normalized per point by its term magnitudes."""
    w, w_t, lap, pot = A * w1, A * w_t, A * lap, A * pot
    reac = w ** p
    res = w_t + lap - pot - reac
    scale = np.abs(w_t) + np.abs(lap) + pot + reac
    return float(np.min(res / scale))


def supersolution_residual(sp: SupersolutionParams, params: ProblemParams,
                           profile: KernelProfile,
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
    terms = _supersolution_terms(replace(sp, A=1.0), params, profile,
                                 radii, times)
    return _min_normalized_residual(sp.A, params.p, *terms)


def supersolution_mixed_remainder(sp: SupersolutionParams,
                                  profile: KernelProfile, radii) -> float:
    """Min over radii of the bilinear remainder between the power weight
    and the kernel profile at t = 0 (both decreasing, so the product of
    differences is pointwise nonnegative and the remainder must be >= 0)."""
    tau = sp.T

    def weight(rr):
        return np.asarray(rr, dtype=float) ** (-sp.gamma)

    def prof_part(rr):
        sig = np.asarray(rr, dtype=float) * tau ** (-sp.beta)
        return profile.h_of_sigma(sig)

    return float(np.min(bilinear_remainder(
        weight, prof_part, profile.N, profile.s,
        np.asarray(radii, dtype=float))))


def compare_supersolution(report: TrajectoryReport, sp: SupersolutionParams,
                          profile: KernelProfile) -> bool:
    """True iff every stored field satisfies u <= w (1 + 1e-6) pointwise.

    Requires a ground_state report with store_fields=True; w is the
    self-similar supersolution evaluated through the kernel profile."""
    if report.fields is None or report.r_grid is None:
        raise DomainError("report carries no stored fields")
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


# half-width of the tanh-sinh rule in u and the Gauss order in tau of the
# shell integrals; the refined pass takes 2x and 1.5x of them
_N_HALF = 48
_N_TAU = 24


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
    prof = exponent_profile(params.N, params.s, params.lam)
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

    c1 = _c1_integral(N, s, mu, p_prime, m, _N_HALF)
    c3 = _c3_integral(N, s, mu, p, p_prime, m, kappa, _N_HALF, _N_TAU)
    c1_f = _c1_integral(N, s, mu, p_prime, m, 2 * _N_HALF)
    c3_f = _c3_integral(N, s, mu, p, p_prime, m, kappa,
                        int(1.5 * _N_HALF), int(1.5 * _N_TAU))
    d1 = abs(c1_f - c1) / abs(c1)
    d3 = abs(c3_f - c3) / abs(c3)
    if not d1 <= 0.01:
        raise QuadratureError("C1 not refinement-stable within 1%")
    if not d3 <= 0.01:
        raise QuadratureError("C3 not refinement-stable within 1%")
    return c1_f, c3_f, d1, d3


def _beta(a: float, b: float) -> float:
    """Beta function Gamma(a) Gamma(b) / Gamma(a+b) for a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _c1_integral(N, s, mu, p_prime, m, n_half) -> float:
    """C1 = 2^{p'} omega/(4s) B-closed-form * int_1^2 |phi'|^{p'}
    phi^{m-p'} u^{(p'-1)/2 + q} du with q = (N-mu)/(4s); the inner
    tau-integral int_0^{sqrt u} tau^{p'} (u - tau^2)^{q-1} dtau is a Beta
    function times u^{(p'-1)/2 + q}."""
    q = (N - mu) / (4.0 * s)
    tau_factor = 0.5 * _beta(0.5 * (p_prime + 1.0), q)
    u, w = tanh_sinh_rule(1.0, 2.0, n_half)
    vals = (np.abs(_dphi(u)) ** p_prime * _phi(u) ** (m - p_prime)
            * u ** (0.5 * (p_prime - 1.0) + q))
    return float(2.0 ** p_prime * sphere_area(N) / (4.0 * s)
                 * tau_factor * np.dot(w, vals))


def _c3_integral(N, s, mu, p, p_prime, m, kappa, n_half, n_tau) -> float:
    """Shell integral of |y|^{mu(p+1)/(p-1)} |L theta|^{p'}
    theta^{m-p'} (1-theta)^{-kappa(p'-1)}; u by tanh-sinh (integrable edge
    singularities), tau by a trigonometric substitution."""
    e3 = mu * (p + 1.0) / (p - 1.0)
    q3 = (e3 + N) / (4.0 * s)
    u_nodes, u_w = tanh_sinh_rule(1.0, 2.0, n_half)
    zeta, zw = gauss_rule(n_tau)
    zeta = 0.5 * (zeta + 1.0)
    zw = 0.5 * zw
    # the u-weight theta^{m-p'} (1-theta)^{-kappa(p'-1)} times the u-rule
    u_w = u_w * (_phi(u_nodes) ** (m - p_prime)
                 * np.maximum(_one_minus_phi(u_nodes), 1e-300)
                 ** (-kappa * (p_prime - 1.0)))
    total = 0.0
    for u, wu in zip(u_nodes, u_w):
        sqrt_u = math.sqrt(u)
        tau = sqrt_u * np.sin(0.5 * math.pi * zeta)
        dtau = sqrt_u * 0.5 * math.pi * np.cos(0.5 * math.pi * zeta)
        rad4s = u - tau ** 2

        # one member of the theta-family per tau node, one radius each
        def v_theta(rr, tau=tau):
            return _phi(tau[:, None] ** 2 + rr ** (4.0 * s))

        L = apply_ground_state_operator(v_theta, mu, N, s,
                                        rad4s ** (0.25 / s))
        total += wu * np.dot(zw * dtau * rad4s ** (q3 - 1.0),
                             np.abs(L) ** p_prime)
    return float(sphere_area(N) / (4.0 * s) * total)
