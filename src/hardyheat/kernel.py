"""Self-similar profile of the fractional heat kernel.

The kernel of u_t + (-Delta)^s u = 0 with unit Dirac datum is self-similar,
h(x,t) = t^{-N/(2s)} H(|x| t^{-1/(2s)}), and H is the N-dimensional inverse
Fourier transform of exp(-(2 pi |xi|)^{2s}) restricted to a radius.  No
closed form exists except s = 1/2 (Poisson kernel) and s = 1 (Gaussian), so
H is tabulated here by reducing the Fourier integral to a one-dimensional
Bessel-type oscillatory integral:

    H(sigma)  =  2 pi sigma^{-nu} int_0^inf e^{-(2 pi rho)^{2s}}
                 J_nu(2 pi sigma rho) rho^{nu+1} drho,     nu = N/2 - 1,

and H' by the identically differentiated integrand (order nu+1).  Panels are
aligned with the Bessel oscillation and graded against the stretched-
exponential decay, so the same machinery covers s near 0 (slow decay, many
oscillations) and s near 1.

Past the table the profile is the series H(sigma) = sum_k c_k
sigma^{-(N+2ks)} with explicitly known coefficients (Bergstrom's series for
stable densities); the leading one equals the principal-value
normalization constant of (-Delta)^s.  Values, slopes and the mass beyond
the table all use that series, and every table checks that its H and H'
meet the series at its edge.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ProfileError, QuadratureError
from .exponents import _check_dimension_and_order
from .quadrature import panel_nodes

__all__ = [
    "KernelProfile", "build_profile", "h_value", "check_envelope",
    "sphere_area", "ball_mass", "profile_origin_value", "profile_moment",
    "tail_series_coefficients", "tail_mass_beyond", "save_profile",
    "load_profile", "profile_csv",
]

_U_MAX = 46.0          # e^{-46} ~ 1e-20: decay-factor truncation
_TWO_PI = 2.0 * math.pi
_ORDER = 10            # Gauss order of the oscillatory panels
_MAX_OSC_PANELS = 200_000
_TAIL_TERMS = 12       # terms of the far-field series
_EDGE_TOL = 1e-8       # relative mismatch of table and series at sigma_max
_SLOPE_EDGE_TOL = 1e-6  # the same for H'


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (2 for N=1)."""
    return 2.0 * math.pi ** (0.5 * N) / math.gamma(0.5 * N)


# Bessel functions.  The orders are nu = N/2 - 1 and nu + 1, so integer or
# half-integer.  J_0 and J_1 come from the trapezoid rule on Bessel's
# integral below the first Hankel band: 28 panels on [0, pi] alias
# J_{55}(z) < 1e-20 into them for z < 19.  From each band's start on they
# come from Hankel's expansion (Abramowitz-Stegun 9.2.5-9.2.10) cut after
# n_terms terms a_k z^{-k}, the first omitted one below 1e-17 there.
_TRAPEZOID_PANELS = 28
# Hankel's expansion runs on at most this many nodes at a time.  On all of
# a table point's nodes (up to 3.4e5 at N = 2, s = 1/4) every temporary is
# a fresh zero-filled allocation, and that table took 1.35 times as long.
_HANKEL_PIECE = 8192
_HANKEL_BANDS = ((19.0, 31), (50.0, 13), (300.0, 7), (2000.0, 5))


def _hankel_coefficients(n_terms: int) -> np.ndarray:
    """Hankel's expansion

        J_nu(z) = sqrt(2/(pi z)) (P cos chi - Q sin chi),
        chi = z - (nu/2 + 1/4) pi,
        P = sum_m (-1)^m a_{2m} z^{-2m},  Q = sum_m (-1)^m a_{2m+1} z^{-2m-1},
        a_k(nu) = prod_{j=1}^{k} (4 nu^2 - (2j-1)^2) / (k! 8^k),

    cut after n_terms terms a_k: the rows P_0 + Q_0, P_0 - Q_0, P_1 + Q_1
    and Q_1 - P_1 as polynomials in 1/z, lowest power first, divided by
    sqrt(pi)."""
    a = np.ones((2, n_terms))
    for nu in (0, 1):
        for k in range(1, n_terms):
            a[nu, k] = (a[nu, k - 1] * (4 * nu * nu - (2 * k - 1) ** 2)
                        / (8 * k))
    a[:, 2::4] *= -1.0
    a[:, 3::4] *= -1.0
    alternate = (-1.0) ** np.arange(n_terms)
    return (np.stack((a[0], alternate * a[0], a[1], -alternate * a[1]))
            / math.sqrt(math.pi))


_HANKEL_STARTS = np.array([start for start, _ in _HANKEL_BANDS])
_HANKEL = [_hankel_coefficients(n_terms) for _, n_terms in _HANKEL_BANDS]
# nodes on [0, pi/2] of the trapezoid rule on [0, pi] folded at pi/2
_TRAPEZOID_SIN = np.sin(np.linspace(0.0, 0.5 * math.pi,
                                    _TRAPEZOID_PANELS // 2 + 1))
_TRAPEZOID_J0 = np.full(len(_TRAPEZOID_SIN), 2.0 / _TRAPEZOID_PANELS)
_TRAPEZOID_J0[[0, -1]] *= 0.5
_TRAPEZOID_J1 = _TRAPEZOID_J0 * _TRAPEZOID_SIN


def _polynomials(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every row of coef, a polynomial lowest power first, at x: the powers
    of x, then one matrix product."""
    powers = np.empty((coef.shape[1], x.size))
    powers[0] = 1.0
    powers[1] = x
    for k in range(2, len(powers)):
        np.multiply(powers[k - 1], x, out=powers[k])
    return coef @ powers


def _j0_j1(z: np.ndarray) -> np.ndarray:
    """Rows J_0(z) and J_1(z) at ascending z >= 2.  Below the first Hankel
    band by the trapezoid rule on

        J_0 = (2/pi) int_0^{pi/2} cos(z sin t) dt,
        J_1 = (2/pi) int_0^{pi/2} sin t sin(z sin t) dt;

    from there by Hankel's expansion with each band's terms, both orders
    from one amplitude and one phase."""
    out = np.empty((2, z.size))
    bounds = np.searchsorted(z, _HANKEL_STARTS).tolist()
    arg = np.multiply.outer(z[:bounds[0]], _TRAPEZOID_SIN)
    out[0, :bounds[0]] = np.cos(arg) @ _TRAPEZOID_J0
    out[1, :bounds[0]] = np.sin(arg) @ _TRAPEZOID_J1
    for lo, hi, coef in zip(bounds, [*bounds[1:], z.size], _HANKEL):
        for first in range(lo, hi, _HANKEL_PIECE):
            piece = slice(first, min(first + _HANKEL_PIECE, hi))
            t = 1.0 / z[piece]
            p0_plus_q0, p0_minus_q0, p1_plus_q1, q1_minus_p1 = _polynomials(
                coef, t)
            # chi_0 = z - pi/4 and chi_1 = chi_0 - pi/2 turn the expansion
            # into sqrt(pi z) J_0 = (P_0 + Q_0) cos z + (P_0 - Q_0) sin z and
            # sqrt(pi z) J_1 = (P_1 + Q_1) sin z + (Q_1 - P_1) cos z
            cos, sin = np.cos(z[piece]), np.sin(z[piece])
            amp = np.sqrt(t)
            out[0, piece] = amp * (cos * p0_plus_q0 + sin * p0_minus_q0)
            out[1, piece] = amp * (sin * p1_plus_q1 + cos * q1_minus_p1)
    return out


def _series_edge(nu: float) -> float:
    """Below this z, J_nu and J_{nu+1} come from their power series; above
    it upward recurrence to order nu + 1 is stable."""
    return 0.0 if nu < 0.0 else max(nu + 1.0, 2.0)


@functools.lru_cache
def _series_coefficients(nu: float) -> np.ndarray:
    """Rows 1/(k! Gamma(mu+k+1)), k = 0, 1, ..., for mu = nu and nu + 1,
    until the terms (z^2/4)^k of the series at _series_edge(nu) fall below
    1e-17 of the first."""
    edge = _series_edge(nu)
    coef = [[1.0 / math.gamma(nu + 1.0), 1.0 / math.gamma(nu + 2.0)]]
    k, term = 0, 1.0
    while term > 1e-17:
        k += 1
        term *= 0.25 * edge * edge / (k * (k + nu))
        coef.append([coef[-1][0] / (k * (k + nu)),
                     coef[-1][1] / (k * (k + nu + 1.0))])
    coef = np.array(coef).T
    coef.flags.writeable = False   # one array for every caller
    return coef


def _series_pair(nu: float, z: np.ndarray) -> np.ndarray:
    """Rows J_nu(z) and J_{nu+1}(z) by the power series
    J_mu(z) = (z/2)^mu sum_k (-z^2/4)^k / (k! Gamma(mu+k+1))."""
    half = 0.5 * z
    pair = _polynomials(_series_coefficients(nu), -half * half)
    pair[0] *= half ** nu
    pair[1] *= half ** (nu + 1.0)
    return pair


def _bessel_pair(nu: float, z: np.ndarray) -> np.ndarray:
    """Rows J_nu(z) and J_{nu+1}(z) for an integer or half-integer order
    nu >= -1/2, at positive z in ascending order (each method takes one
    contiguous slice).

    Below _series_edge(nu) both rows are power series.  Above it the lowest
    pair of the order's family, (J_{-1/2}, J_{1/2}) = sqrt(2/(pi z))
    (cos z, sin z) or (J_0, J_1) from _j0_j1, recurs upward by
    J_{k+1} = (2k/z) J_k - J_{k-1}."""
    pair = np.empty((2, z.size))
    cut = int(np.searchsorted(z, _series_edge(nu)))
    pair[:, :cut] = _series_pair(nu, z[:cut])
    z = z[cut:]
    half_integer = nu % 1.0 == 0.5
    if half_integer:
        lo, hi, order = np.cos(z), np.sin(z), -0.5
    else:
        (lo, hi), order = _j0_j1(z), 0.0
    while order < nu:
        order += 1.0
        lo, hi = hi, (2.0 * order) * hi / z - lo
    if half_integer:
        pref = np.sqrt(2.0 / (np.pi * z))
        lo, hi = pref * lo, pref * hi
    pair[0, cut:] = lo
    pair[1, cut:] = hi
    return pair


def profile_origin_value(N: int, s: float) -> float:
    """H(0) in closed form: omega_{N-1} (2 pi)^{-N} Gamma(N/(2s)) / (2s)."""
    return (sphere_area(N) * _TWO_PI ** (-N) * math.gamma(0.5 * N / s)
            / (2.0 * s))


def profile_moment(N: int, s: float, mu: float) -> float:
    """omega_{N-1} int_0^inf sigma^{N-1-mu} H(sigma) dsigma in closed form:
    E|X|^{-mu} of the stable law with density H, 0 <= mu < N,

        2^{-mu} Gamma((N-mu)/2) Gamma(1+mu/(2s)) / (Gamma(N/2) Gamma(1+mu/2)).
    """
    if not 0.0 <= mu < N:
        raise DomainError(f"need 0 <= mu < N, got mu={mu}")
    return (2.0 ** -mu * math.gamma(0.5 * (N - mu))
            * math.gamma(1.0 + 0.5 * mu / s)
            / (math.gamma(0.5 * N) * math.gamma(1.0 + 0.5 * mu)))


def _decay_rho_edges(s: float) -> np.ndarray:
    """Breakpoints resolving exp(-(2 pi rho)^{2s}): graded near 0 (the
    integrand has a rho^{2s}-type kink there), unit steps in u after."""
    u = np.concatenate([
        np.geomspace(1e-8, 1.0, 57),
        np.arange(2.0, _U_MAX + 1.0),
    ])
    return u ** (0.5 / s) / _TWO_PI


def _oscillatory_nodes(rho_decay: np.ndarray, nu: float, sigma: float):
    """Shared panel set for int e^{-(2 pi rho)^{2s}} J_nu(2 pi sigma rho)
    rho^{power} drho: panels between consecutive Bessel zeros (McMahon
    approximations suffice for alignment) unioned with the decay grading
    rho_decay = _decay_rho_edges(s).  Raises QuadratureError past
    _MAX_OSC_PANELS Bessel panels."""
    rho_max = rho_decay[-1]
    z_max = _TWO_PI * sigma * rho_max
    k_max = int(z_max / math.pi - 0.5 * nu + 0.25) + 1
    if k_max > _MAX_OSC_PANELS:
        raise QuadratureError(
            f"oscillatory panel count {k_max} exceeds cap at sigma={sigma}")
    edges = [np.array([0.0]), rho_decay]
    if k_max >= 1:
        zeros = (np.arange(1, k_max + 1) + 0.5 * nu - 0.25) * math.pi
        zeros = zeros[zeros > 0.0] / (_TWO_PI * sigma)
        edges.append(zeros[zeros < rho_max])
    grid = np.unique(np.concatenate(edges))
    return panel_nodes(grid, _ORDER)


def _profile_point(N: int, s: float, sigma: float,
                   rho_decay: np.ndarray) -> tuple[float, float]:
    """(H(sigma), H'(sigma)) by panel quadrature of the radial Fourier
    integral and its differentiated counterpart (order nu+1), on the decay
    grading rho_decay = _decay_rho_edges(s)."""
    nu = 0.5 * N - 1.0
    if sigma == 0.0:
        return profile_origin_value(N, s), 0.0
    nodes, w = _oscillatory_nodes(rho_decay, nu, sigma)
    decay = np.exp(-(_TWO_PI * nodes) ** (2.0 * s))
    j_nu, j_next = _bessel_pair(nu, _TWO_PI * sigma * nodes)
    base = w * decay
    h_val = _TWO_PI * sigma ** (-nu) * float(
        np.dot(base, j_nu * nodes ** (nu + 1.0)))
    hp_val = -(_TWO_PI ** 2) * sigma ** (-nu) * float(
        np.dot(base, j_next * nodes ** (nu + 2.0)))
    return h_val, hp_val


def ball_mass(N: int, s: float, radius: float) -> float:
    """Exact Fourier-side mass of the kernel inside |x| <= radius:

    int_{|x|<=R} h(x,1) dx = omega_{N-1} R^{nu+1}
        int_0^inf e^{-(2 pi rho)^{2s}} rho^{nu} J_{nu+1}(2 pi R rho) drho,

    from integrating the Bessel representation term by term
    (d/dz[z^{nu+1} J_{nu+1}] = z^{nu+1} J_nu).  For (N=1, s=1/2) this is
    (2/pi) arctan(R).
    """
    nu = 0.5 * N - 1.0
    nodes, w = _oscillatory_nodes(_decay_rho_edges(s), nu + 1.0, radius)
    decay = np.exp(-(_TWO_PI * nodes) ** (2.0 * s))
    j_next = _bessel_pair(nu, _TWO_PI * radius * nodes)[1]
    return float(sphere_area(N) * radius ** (nu + 1.0)
                 * np.dot(w * decay, j_next * nodes ** nu))


def _rgamma(x: float) -> float:
    """1/Gamma(x), exactly 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def tail_series_coefficients(N: int, s: float,
                             k_max: int = _TAIL_TERMS) -> np.ndarray:
    """Coefficients of the far-field expansion H ~ sum c_k sigma^{-(N+2ks)}.

    c_k = (-1)^k 2^{2ks} pi^{-N/2} Gamma((N+2ks)/2) / (k! Gamma(-ks)); the
    1/Gamma factor vanishes at integer ks, matching the closed forms.
    """
    return np.array([(-1.0) ** k * 4.0 ** (k * s) * math.pi ** (-0.5 * N)
                     * math.gamma(0.5 * N + k * s) / math.factorial(k)
                     * _rgamma(-k * s) for k in range(1, k_max + 1)])


def tail_mass_beyond(N: int, s: float, sigma0: float,
                     mu: float = 0.0) -> float:
    """omega_{N-1} int_{sigma0}^inf sigma^{N-1-mu} H(sigma) dsigma via the
    first _TAIL_TERMS terms of the far-field series (term-k integral
    sigma0^{-mu-2ks}/(mu+2ks))."""
    coeffs = tail_series_coefficients(N, s)
    ks = np.arange(1, _TAIL_TERMS + 1)
    terms = coeffs * sigma0 ** (-mu - 2.0 * ks * s) / (mu + 2.0 * ks * s)
    total = float(sphere_area(N) * terms.sum())
    tail_err = float(sphere_area(N) * np.abs(terms[-2:]).max())
    if tail_err > 1e-7 * max(abs(total), 1e-30):
        raise QuadratureError(
            f"far-field mass series not converged at sigma0={sigma0}")
    return total


@dataclass
class KernelProfile:
    """Self-similar kernel profile H and H' for one (N, s): tabulated on
    [0, sigma_max], the far-field series beyond."""

    N: int
    s: float
    sigma_grid: np.ndarray
    H_values: np.ndarray
    Hprime_values: np.ndarray
    mass: float
    # rows c_3, c_2, c_1, c_0 of the table's cubic Hermite pieces
    _cubic: np.ndarray | None = field(default=None, repr=False)
    # rows c_k and -(N+2ks) c_k of the far-field series of H and H'
    _tail: np.ndarray | None = field(default=None, repr=False)

    @property
    def sigma_max(self) -> float:
        return float(self.sigma_grid[-1])

    def _table(self, sigma: np.ndarray, order: int) -> np.ndarray:
        """H (order 0) or H' (order 1) at 0 <= sigma <= sigma_max by the C^1
        cubic through every knot's value and slope.  The coefficients are
        scipy's CubicHermiteSpline's and the powers are summed from the
        constant term up, as in scipy's PPoly, so the values are scipy's
        to the bit."""
        x = self.sigma_grid
        if self._cubic is None:
            y, dydx = self.H_values, self.Hprime_values
            dx = np.diff(x)
            slope = np.diff(y) / dx
            t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
            self._cubic = np.stack((t / dx, (slope - dydx[:-1]) / dx - t,
                                    dydx[:-1], y[:-1]))
        # interval of each point; searching the inner knots puts sigma_max
        # in the last one
        i = np.searchsorted(x[1:-1], sigma, side="right")
        d = sigma - x.take(i)
        c3, c2, c1, c0 = self._cubic
        if order:
            return (c1.take(i) + 2.0 * c2.take(i) * d
                    + 3.0 * c3.take(i) * (d * d))
        return (c0.take(i) + c1.take(i) * d + c2.take(i) * (d * d)
                + c3.take(i) * (d * d * d))

    def _far_field(self, sigma: np.ndarray, order: int) -> np.ndarray:
        """H (order 0) or H' (order 1) by the far-field series, summed by
        Horner's rule in t = sigma^{-2s}."""
        if self._tail is None:
            c = tail_series_coefficients(self.N, self.s)
            ks = np.arange(1, len(c) + 1)
            self._tail = np.stack((c, -(self.N + 2.0 * ks * self.s) * c))
        t = sigma ** (-2.0 * self.s)
        total = np.full_like(t, self._tail[order, -1])
        for c in self._tail[order, -2::-1]:
            total *= t
            total += c
        total *= sigma ** (-self.N - order - 2.0 * self.s)
        return total

    def _evaluate(self, sigma, order: int):
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma < 0.0):
            raise DomainError("sigma must be nonnegative")
        beyond = sigma > self.sigma_max
        if np.any(beyond):
            out = np.empty_like(sigma)
            out[~beyond] = self._table(sigma[~beyond], order)
            out[beyond] = self._far_field(sigma[beyond], order)
        else:
            out = self._table(sigma, order)
        return out if out.ndim else float(out)

    def h_of_sigma(self, sigma):
        """H at sigma >= 0: cubic Hermite up to sigma_max, series beyond."""
        return self._evaluate(sigma, 0)

    def hprime_of_sigma(self, sigma):
        """H' at sigma >= 0: cubic Hermite up to sigma_max, series beyond."""
        return self._evaluate(sigma, 1)

    def validate(self) -> None:
        H, Hp = self.H_values, self.Hprime_values
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(Hp))):
            raise ProfileError("profile has non-finite entries")
        if np.any(H <= 0.0):
            raise ProfileError("profile has non-positive H entries")
        if np.any(np.diff(H) >= 0.0) and len(H) > 1:
            raise ProfileError("H is not strictly decreasing")
        if np.any(Hp > 1e-12 * H[0]):
            raise ProfileError("H' has positive entries")
        for name, order, table, tol in (("H", 0, H, _EDGE_TOL),
                                        ("H'", 1, Hp, _SLOPE_EDGE_TOL)):
            edge = float(abs(self._far_field(self.sigma_grid[-1], order)
                             / table[-1] - 1))
            if not edge <= tol:
                raise ProfileError(
                    f"far-field {name} misses the table edge sigma_max="
                    f"{self.sigma_max} by {edge:.2e} relative")


def build_profile(N: int, s: float, sigma_max: float,
                  n_points: int) -> KernelProfile:
    """Tabulate H and H' on a grid geometric in 1+sigma.

    Raises QuadratureError when a point's oscillatory quadrature cannot be
    trusted (reported with the offending sigma).
    """
    _check_dimension_and_order(N, s)
    if not 0.0 < sigma_max < math.inf:
        raise DomainError("sigma_max must be positive and finite")
    if n_points < 16:
        raise DomainError("need at least 16 table points")

    sigma = (1.0 + sigma_max) ** np.linspace(0.0, 1.0, n_points) - 1.0
    sigma[0] = 0.0
    sigma[-1] = sigma_max
    H = np.empty(n_points)
    Hp = np.empty(n_points)
    rho_decay = _decay_rho_edges(s)
    for i, sg in enumerate(sigma):
        try:
            H[i], Hp[i] = _profile_point(N, s, float(sg), rho_decay)
        except QuadratureError as exc:
            raise QuadratureError(f"sigma={sg}: {exc}") from exc
    if np.any(~np.isfinite(H)) or np.any(H <= 0.0):
        bad = sigma[np.where(~np.isfinite(H) | (H <= 0.0))[0][0]]
        raise QuadratureError(f"quadrature produced invalid H at sigma={bad}")

    mass = ball_mass(N, s, sigma_max) + tail_mass_beyond(N, s, sigma_max)
    prof = KernelProfile(N=N, s=s, sigma_grid=sigma, H_values=H,
                         Hprime_values=Hp, mass=mass)
    prof.validate()
    return prof


def h_value(profile: KernelProfile, x_norm: float, t: float) -> float:
    """Kernel value h(x,t) = t^{-N/(2s)} H(|x| t^{-1/(2s)})."""
    if t <= 0.0:
        raise DomainError("time must be positive")
    if x_norm < 0.0:
        raise DomainError("radius must be nonnegative")
    scale = t ** (-1.0 / (2.0 * profile.s))
    sigma = x_norm * scale
    return float(t ** (-profile.N / (2.0 * profile.s))
                 * profile.h_of_sigma(sigma))


def check_envelope(profile: KernelProfile) -> float:
    """Smallest certified two-sided envelope constant on the grid.

    C = max over grid of max(E, 1/E) with E = H (1 + sigma^2)^{(N+2s)/2},
    the form in which the profile envelope is stated (for the Poisson
    cases E is exactly constant, C = pi for N=1 and pi^2 for N=3).
    """
    H = profile.H_values
    if np.any(~np.isfinite(H)) or np.any(H <= 0.0):
        raise ProfileError("profile corrupt: non-finite or non-positive H")
    E = H * (1.0 + profile.sigma_grid ** 2) ** (0.5 * (profile.N + 2.0 * profile.s))
    C = float(max(E.max(), (1.0 / E).max()))
    if not math.isfinite(C):
        raise ProfileError("envelope constant not finite")
    return C


def profile_csv(profile: KernelProfile) -> str:
    lines = ["sigma,H,Hprime"]
    for sg, h, hp in zip(profile.sigma_grid, profile.H_values,
                         profile.Hprime_values):
        lines.append(",".join(format(v, ".17g") for v in (sg, h, hp)))
    return "\n".join(lines) + "\n"


def save_profile(profile: KernelProfile, csv_path, json_path) -> None:
    with open(csv_path, "w") as fh:
        fh.write(profile_csv(profile))
    header = {
        "N": profile.N, "s": profile.s,
        "sigma_max": profile.sigma_max,
        "n_points": int(len(profile.sigma_grid)),
        "mass": profile.mass,
        "envelope_constant": check_envelope(profile),
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_profile(csv_path, json_path) -> KernelProfile:
    """The table save_profile wrote.  Refuses (ProfileError) a missing file,
    a header without N, s and mass, or a table that is not three columns
    of numbers."""
    try:
        with open(json_path) as fh:
            header = json.load(fh)
        N, s = int(header["N"]), float(header["s"])
        mass = float(header["mass"])
        sigma, H, Hp = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                                  usecols=(0, 1, 2), ndmin=2, unpack=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ProfileError(f"unreadable kernel table: {exc}") from None
    return KernelProfile(N=N, s=s, sigma_grid=sigma, H_values=H,
                         Hprime_values=Hp, mass=mass)
