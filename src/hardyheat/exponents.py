"""Critical constants and exponents of the fractional Hardy reaction-diffusion problem.

For dimension N > 2s and fractional order s in (0,1), the singular potential
lambda/|x|^{2s} is admissible up to the fractional Hardy constant
Lambda(N,s).  Each admissible coupling lambda corresponds to a power shift
alpha in [0, (N-2s)/2) through a ratio of Gamma functions; from alpha the
whole exponent landscape follows:

    mu      = (N-2s)/2 - alpha        (ground-state decay rate)
    mu_bar  = (N-2s)/2 + alpha        (conjugate rate, mu + mu_bar = N-2s)
    p_plus  = 1 + 2s/mu               (existence threshold)
    p_minus = 1 + 2s/mu_bar
    fujita  = 1 + 2s/(N - mu)         (weighted-L1 blow-up threshold)

All Gamma evaluation goes through log-Gamma so large arguments never
overflow.  Every function here is pure; there is no shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .errors import DomainError, RegimeAmbiguityError
from .quadrature import bisect_root

__all__ = [
    "ProblemParams", "ExponentProfile", "Regime",
    "hardy_constant", "lambda_of_alpha", "alpha_of_lambda", "power_coupling",
    "pv_normalization", "exponent_profile", "classify_regime",
    "phase_table",
]

# Right endpoint of the alpha bracket is pulled in by this margin, or by
# half the bracket when N - 2s is tinier still; the denominator Gamma has a
# pole exactly at alpha = (N-2s)/2.
_ALPHA_EDGE_MARGIN = 1e-13


def _check_dimension_and_order(N: int, s: float) -> None:
    # written so that nan and inf fail before int() could raise
    if not (1 <= N < math.inf and int(N) == N):
        raise DomainError(f"dimension must be a positive integer, got {N}")
    if not 0.0 < s < 1.0:
        raise DomainError(f"fractional order must lie in (0,1), got {s}")


def _check_order(N: int, s: float) -> None:
    _check_dimension_and_order(N, s)
    if N <= 2.0 * s:
        raise DomainError(f"need N > 2s, got N={N}, s={s}")


def power_coupling(N: int, s: float, gamma: float) -> float:
    """Eigen-coefficient of (-Delta)^s |x|^{-gamma} = c |x|^{-gamma-2s}.

    c = 2^{2s} Gamma((gamma+2s)/2) Gamma((N-gamma)/2)
        / (Gamma(gamma/2) Gamma((N-gamma-2s)/2)), for 0 < gamma < N-2s.
    Symmetric about gamma = (N-2s)/2 where it peaks at the Hardy constant;
    power_coupling(mu(lambda)) recovers lambda.  The only Gamma ratio of
    the couplings: hardy_constant and lambda_of_alpha evaluate it.
    """
    _check_order(N, s)
    if not 0.0 < gamma < N - 2.0 * s:
        raise DomainError(
            f"power exponent must lie in (0, {N - 2.0 * s}), got {gamma}")
    # the last argument as (N-2s) - gamma, which stays exact next to the
    # pole at N = 2s, where (N - gamma) - 2s would round gamma away
    return math.exp(
        2.0 * s * math.log(2.0)
        + math.lgamma((gamma + 2.0 * s) / 2.0) + math.lgamma((N - gamma) / 2.0)
        - math.lgamma(gamma / 2.0) - math.lgamma((N - 2.0 * s - gamma) / 2.0)
    )


def hardy_constant(N: int, s: float) -> float:
    """Optimal constant of the fractional Hardy inequality.

    Lambda(N,s) = 2^{2s} Gamma^2((N+2s)/4) / Gamma^2((N-2s)/4), the peak
    power_coupling at gamma = (N-2s)/2; tends to ((N-2)/2)^2 as s -> 1.
    """
    return power_coupling(N, s, 0.5 * (N - 2.0 * s))


def lambda_of_alpha(N: int, s: float, alpha: float) -> float:
    """Coupling lambda for which |x|^{-(N-2s)/2 +- alpha} solve the
    homogeneous Hardy equation: power_coupling at gamma = (N-2s)/2 - alpha.

    Strictly decreasing on [0, (N-2s)/2), equal to hardy_constant at
    alpha = 0 and tending to 0 at the right endpoint.
    """
    _check_order(N, s)
    edge = 0.5 * (N - 2.0 * s)
    if not 0.0 <= alpha < edge:
        raise DomainError(
            f"alpha must lie in [0, {edge}) for N={N}, s={s}; got {alpha}")
    return power_coupling(N, s, edge - alpha)


def alpha_of_lambda(N: int, s: float, lam: float) -> float:
    """Invert lambda_of_alpha on [0, (N-2s)/2) by bisection.

    The map is strictly monotone, so plain bisection is safe and exact to
    floating-point resolution.
    """
    _check_order(N, s)
    lam_max = hardy_constant(N, s)
    if not 0.0 < lam <= lam_max:
        raise DomainError(
            f"coupling must lie in (0, {lam_max}] for N={N}, s={s}; got {lam}")
    if lam == lam_max:
        return 0.0
    half = 0.5 * (N - 2.0 * s)
    hi = half - min(_ALPHA_EDGE_MARGIN, 0.5 * half)

    def gap(alpha: float) -> float:
        return lambda_of_alpha(N, s, alpha) - lam

    g_hi = gap(hi)
    if g_hi > 0.0:
        # coupling smaller than anything the clipped bracket reaches
        return hi
    return bisect_root(gap, 0.0, hi, fa=lam_max - lam, fb=g_hi)


def pv_normalization(N: int, s: float) -> float:
    """Normalization constant of the principal-value singular integral.

    a(N,s) = 2^{2s} Gamma((N+2s)/2) / (pi^{N/2} |Gamma(-s)|), the unique
    constant for which the P.V. difference integral has Fourier symbol
    |2 pi xi|^{2s}.  Uses |Gamma(-s)| = Gamma(1-s)/s.  Defined for any
    N >= 1 (no N > 2s restriction: the operator exists regardless).
    """
    _check_dimension_and_order(N, s)
    return math.exp(
        2.0 * s * math.log(2.0)
        + math.log(s)
        + math.lgamma((N + 2.0 * s) / 2.0)
        - math.lgamma(1.0 - s)
        - 0.5 * N * math.log(math.pi)
    )


@dataclass(frozen=True)
class ProblemParams:
    """One Cauchy-problem instance (N, s, lambda, p).

    lam = 0 is admitted as the potential-free boundary case (the solver
    exercises it as an oracle); the exponent machinery treats it by its
    explicit limits.
    """

    N: int
    s: float
    lam: float
    p: float

    def __post_init__(self) -> None:
        _check_order(self.N, self.s)
        lam_max = hardy_constant(self.N, self.s)
        if not 0.0 <= self.lam <= lam_max:
            raise DomainError(
                f"coupling must lie in [0, {lam_max}], got {self.lam}")
        if not 1.0 < self.p < math.inf:
            raise DomainError(
                f"nonlinearity power must be finite and exceed 1, got {self.p}")


@dataclass(frozen=True)
class ExponentProfile:
    """Every derived exponent for one (N, s, lambda)."""

    N: int
    s: float
    lam: float
    hardy_constant: float
    alpha: float
    mu: float
    mu_bar: float
    p_minus: float
    p_plus: float
    fujita: float
    sobolev_power: float
    a_ns: float

    def as_dict(self) -> dict:
        """The fields by name, with lam under "lambda"."""
        return {("lambda" if k == "lam" else k): v
                for k, v in asdict(self).items()}


def exponent_profile(N: int, s: float, lam: float) -> ExponentProfile:
    """Compute the full exponent landscape for one coupling.

    lam = 0 is handled by its limits: alpha = (N-2s)/2, mu = 0, so
    p_plus = inf and fujita = 1 + 2s/N (the potential-free threshold).
    """
    half = 0.5 * (N - 2.0 * s)
    alpha = half if lam == 0.0 else alpha_of_lambda(N, s, lam)
    mu = half - alpha
    mu_bar = half + alpha
    return ExponentProfile(
        N=N, s=s, lam=lam,
        hardy_constant=hardy_constant(N, s),
        alpha=alpha,
        mu=mu,
        mu_bar=mu_bar,
        p_minus=1.0 + 2.0 * s / mu_bar,
        p_plus=math.inf if mu == 0.0 else 1.0 + 2.0 * s / mu,
        fujita=1.0 + 2.0 * s / (N - mu),
        sobolev_power=(N + 2.0 * s) / (N - 2.0 * s),
        a_ns=pv_normalization(N, s),
    )


class Regime(Enum):
    SUB_FUJITA_BLOW_UP = "sub_fujita_blow_up"
    CRITICAL_FUJITA = "critical_fujita"
    CONDITIONAL_GLOBAL = "conditional_global"
    NON_EXISTENCE = "non_existence"


# half-width of the band of p taken as equal to the Fujita exponent or to
# p_plus
_REGIME_TOL = 1e-9


def classify_regime(params: ProblemParams) -> Regime:
    """Place p relative to the Fujita and existence thresholds.

    Behavior exactly at p_plus is not settled by the theory this package
    follows, so a _REGIME_TOL band around p_plus raises
    RegimeAmbiguityError instead of guessing.
    """
    prof = exponent_profile(params.N, params.s, params.lam)
    p = params.p
    if abs(p - prof.fujita) <= _REGIME_TOL:
        return Regime.CRITICAL_FUJITA
    if p < prof.fujita:
        return Regime.SUB_FUJITA_BLOW_UP
    if abs(p - prof.p_plus) <= _REGIME_TOL:
        raise RegimeAmbiguityError(
            f"p={p} lies within {_REGIME_TOL} of p_plus={prof.p_plus}; "
            "the classification at p_plus is left open")
    if p < prof.p_plus:
        return Regime.CONDITIONAL_GLOBAL
    return Regime.NON_EXISTENCE


def phase_table(N: int, s: float, lambda_grid) -> tuple[list[ExponentProfile], list[tuple[float, str]]]:
    """One exponent profile per coupling in (0, Lambda]; bad rows are
    reported and skipped.  An (N, s) with N <= 2s has no rows and is
    refused (DomainError)."""
    _check_order(N, s)
    rows: list[ExponentProfile] = []
    errors: list[tuple[float, str]] = []
    for lam in lambda_grid:
        try:
            if float(lam) <= 0.0:
                raise DomainError("phase rows need a strictly positive coupling")
            prof = exponent_profile(N, s, float(lam))
        except DomainError as exc:
            errors.append((float(lam), str(exc)))
            continue
        rows.append(prof)
    return rows, errors
