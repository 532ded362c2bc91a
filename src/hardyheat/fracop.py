"""Discrete fractional-Laplacian evaluators.

Two independent discretizations:

* a spectral operator on origin-centered periodic boxes (exact on every
  resolvable Fourier mode, multiplier |2 pi xi|^{2s});
* a principal-value singular-integral quadrature for radial functions,
  with the angular integral reduced analytically (N = 1, 3) or by graded
  polar quadrature (other N), the diagonal handled by excluding the ball
  |y - x| < delta and adding its second-order Taylor complement, and
  power-law closures for both the origin and the far tail.

On top of the quadrature sit the bilinear product-rule remainder and the
ground-state-transformed operator with kernel
|x|^{-mu} |y|^{-mu} |x-y|^{-(N+2s)}.  All evaluators are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError, QuadratureError
from .exponents import lambda_of_alpha, pv_normalization
from .kernel import sphere_area
from .quadrature import (graded_edges, head_panels, integrate_panels,
                         panel_nodes, tail_panels)

__all__ = [
    "UniformGrid", "Field", "RadialField",
    "frac_laplacian_spectral", "spectral_symbol",
    "frac_laplacian_quadrature_radial", "bilinear_remainder",
    "apply_ground_state_operator", "verify_power_solution",
    "build_ground_state_matrix",
]


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class UniformGrid:
    """Origin-centered periodic lattice on [-L, L)^N."""

    N: int
    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        n = self.points_per_axis
        if self.N not in (1, 2, 3):
            raise DomainError("uniform grids support N in {1, 2, 3}")
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError("points_per_axis must be a power of two")
        if self.half_width <= 0.0:
            raise DomainError("half_width must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.dx

    def radius(self) -> np.ndarray:
        x = self.axis()
        coords = np.meshgrid(*([x] * self.N), indexing="ij")
        return np.sqrt(sum(c ** 2 for c in coords))

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.N


@dataclass
class Field:
    """Values on a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.points_per_axis,) * self.grid.N
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != shape:
            raise DomainError(
                f"field shape {self.values.shape} does not match grid {shape}")

    @classmethod
    def from_radial(cls, grid: UniformGrid, f) -> "Field":
        return cls(grid, f(grid.radius()))


@dataclass
class RadialField:
    """Radial samples on a strictly increasing positive grid.

    Evaluation uses a cubic spline in log-radius; outside the grid the
    field continues as a power law (decay_exponent above, a fit to the
    first two samples below).
    """

    r_grid: np.ndarray
    values: np.ndarray
    decay_exponent: float
    _spline: CubicSpline | None = field(default=None, repr=False)
    _head_exp: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r_grid.ndim != 1 or len(self.r_grid) < 4:
            raise DomainError("radial grid needs at least 4 points")
        if self.r_grid[0] <= 0.0 or np.any(np.diff(self.r_grid) <= 0.0):
            raise DomainError("radial grid must be positive and increasing")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("radial field values must be finite")

    def _ensure_spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(np.log(self.r_grid), self.values)
            v0, v1 = self.values[0], self.values[1]
            if v0 > 0.0 and v1 > 0.0:
                self._head_exp = float(
                    math.log(v1 / v0) / math.log(self.r_grid[1] / self.r_grid[0]))
            else:
                self._head_exp = 0.0
        return self._spline

    def __call__(self, r):
        sp = self._ensure_spline()
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        lo = r < self.r_grid[0]
        hi = r > self.r_grid[-1]
        mid = ~(lo | hi)
        out[mid] = sp(np.log(r[mid]))
        if np.any(lo):
            out[lo] = self.values[0] * (r[lo] / self.r_grid[0]) ** self._head_exp
        if np.any(hi):
            out[hi] = self.values[-1] * (
                r[hi] / self.r_grid[-1]) ** self.decay_exponent
        return float(out[0]) if scalar else out

    def derivatives(self, r: float) -> tuple[float, float, float]:
        """(f, f', f'') at one interior radius, from the log-space spline."""
        sp = self._ensure_spline()
        t = math.log(r)
        g = float(sp(t))
        g1 = float(sp.derivative(1)(t))
        g2 = float(sp.derivative(2)(t))
        return g, g1 / r, (g2 - g1) / r ** 2


# ---------------------------------------------------------------------------
# spectral operator


def spectral_symbol(grid: UniformGrid, s: float) -> np.ndarray:
    """Multiplier (2 pi |xi|)^{2s} on the rfftn frequency lattice."""
    if not 0.0 < s < 1.0:
        raise DomainError("fractional order must lie in (0,1)")
    n, dx = grid.points_per_axis, grid.dx
    full = np.fft.fftfreq(n, d=dx)
    half = np.fft.rfftfreq(n, d=dx)
    axes = [full] * (grid.N - 1) + [half]
    mesh = np.meshgrid(*axes, indexing="ij")
    k2 = sum(m ** 2 for m in mesh)
    return (2.0 * math.pi) ** (2.0 * s) * k2 ** s


def frac_laplacian_spectral(fld: Field, s: float) -> Field:
    """Apply (-Delta)^s through the discrete Fourier multiplier.

    Exact on resolvable plane waves; annihilates constants.
    """
    symbol = spectral_symbol(fld.grid, s)
    shape = fld.values.shape
    out = np.fft.irfftn(symbol * np.fft.rfftn(fld.values), s=shape,
                        axes=tuple(range(fld.grid.N)))
    return Field(fld.grid, out)


# ---------------------------------------------------------------------------
# radial singular-integral machinery

# Polar-angle panels (in units of the uncut span) of the general-N kernel,
# and their Gauss order.
_THETA_ZETA_EDGES = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 29)])
_THETA_ORDER = 8

# Core-ball radius of callables as a fraction of r, and the Gauss order of
# the pointwise evaluators and of the collocation matrix.
_DELTA_FRAC = 1.0 / 64.0
_ORDER = 10
_MATRIX_ORDER = 8


def _angular_cut(N: int, s: float, r: float, rho: np.ndarray,
                 dmin: np.ndarray) -> np.ndarray:
    """Polar-angle kernel integral for general N with the ball cut.

    omega_{N-2} int_{theta*}^{pi} sin^{N-2}(t) (d^2 + 4 r rho sin^2(t/2))^{-beta/2} dt
    with sin^2(theta*/2) = (dmin^2 - d^2)/(4 r rho).
    """
    beta = N + 2.0 * s
    d2 = (rho - r) ** 2
    s2 = np.clip((dmin ** 2 - d2) / (4.0 * r * rho), 0.0, 1.0)
    theta_star = 2.0 * np.arcsin(np.sqrt(s2))
    zeta, wz = panel_nodes(_THETA_ZETA_EDGES, _THETA_ORDER)
    span = (np.pi - theta_star)[:, None]
    theta = theta_star[:, None] + span * zeta[None, :]
    val = (np.sin(theta) ** (N - 2)
           * (d2[:, None] + 4.0 * r * rho[:, None] * np.sin(0.5 * theta) ** 2)
           ** (-0.5 * beta))
    return sphere_area(N - 1) * span[:, 0] * (val @ wz)


def _power_diff(dmin: np.ndarray, rsum: np.ndarray, c: float) -> np.ndarray:
    """dmin^{-c} - rsum^{-c} without cancellation when dmin ~ rsum."""
    ratio = dmin / rsum
    out = np.empty_like(dmin)
    close = ratio > 0.5
    if np.any(close):
        # dmin^{-c} (1 - (dmin/rsum)^c) with expm1 for the small exponent
        out[close] = dmin[close] ** (-c) * (
            -np.expm1(c * np.log(ratio[close])))
    far = ~close
    out[far] = dmin[far] ** (-c) - rsum[far] ** (-c)
    return out


def _cut_kernel(N: int, s: float, r: float, rho: np.ndarray,
                delta: float) -> np.ndarray:
    """Angular-average kernel K_N^delta(r, rho): the surface integral of
    |x - y|^{-(N+2s)} over the rho-sphere with the ball |y-x| < delta
    removed.  Equals the full kernel when |rho - r| >= delta."""
    rho = np.asarray(rho, dtype=float)
    gap = np.abs(rho - r)
    dmin = np.maximum(gap, delta)
    if N == 1:
        beta = 1.0 + 2.0 * s
        out = (rho + r) ** (-beta)
        keep = gap >= delta
        out[keep] += gap[keep] ** (-beta)
        return out
    if N == 3:
        c = 1.0 + 2.0 * s
        return (2.0 * math.pi / (r * rho * c)) * _power_diff(
            dmin, rho + r, c)
    return _angular_cut(N, s, r, rho, dmin)


def _core_moment(N: int, s: float, delta: float) -> float:
    """int_{B_delta} |z|^{2-N-2s} dz = omega_{N-1} delta^{2-2s}/(2-2s)."""
    return sphere_area(N) * delta ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)


def _fd_derivatives(f, r: float, h: float) -> tuple[float, float, float]:
    """5-point central first/second derivatives of a vectorized callable."""
    pts = np.array([r - 2 * h, r - h, r, r + h, r + 2 * h])
    v = f(pts)
    d1 = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12.0 * h)
    d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12.0 * h ** 2)
    return float(v[2]), float(d1), float(d2)


def _local_derivatives(f, r: float, h: float) -> tuple[float, float, float]:
    out = f.derivatives(r) if isinstance(f, RadialField) \
        else _fd_derivatives(f, r, h)
    if not all(math.isfinite(v) for v in out):
        raise QuadratureError(
            f"singular-core estimate failed: field not smooth near r={r}")
    return out


def _integral_edges(r: float, delta: float,
                    knots: np.ndarray | None) -> np.ndarray:
    """Panel edges on [r/2, 2r]: graded into the cut region from both
    sides, with any interpolation knots inside the window inserted."""
    left = r - graded_edges(delta, 0.5 * r, delta)[::-1]
    right = r + graded_edges(delta, r, delta)
    cut = np.linspace(r - delta, r + delta, 5)
    pieces = [left, cut, right]
    if knots is not None:
        inside = knots[(knots > 0.5 * r) & (knots < 2.0 * r)]
        pieces.append(inside)
    edges = np.unique(np.concatenate(pieces))
    return edges[edges > 0.0]


def _nonlocal_radial_integral(G, N: int, s: float, r: float, delta: float,
                              knots: np.ndarray | None) -> float:
    """int_0^inf G(rho) rho^{N-1} K_N^delta(r, rho) drho.

    G must be vectorized; the head (rho -> 0) and tail (rho -> inf) are
    extended by adaptive geometric panels and must die out, otherwise a
    QuadratureError is raised.
    """
    def integrand(rho):
        return G(rho) * rho ** (N - 1) * _cut_kernel(N, s, r, rho, delta)

    mid = integrate_panels(integrand, _integral_edges(r, delta, knots), _ORDER)
    scale = abs(mid)
    head = head_panels(integrand, 0.5 * r, order=_ORDER, scale=scale)
    tail = tail_panels(integrand, 2.0 * r, order=_ORDER, scale=scale)
    return mid + head + tail


def _resolve_delta(f, r: float) -> float:
    """Core radius: two local grid spacings for tabulated fields, a fixed
    fraction of r for callables (keeps the quadrature scale-covariant)."""
    if isinstance(f, RadialField):
        grid = f.r_grid
        i = int(np.clip(np.searchsorted(grid, r), 1, len(grid) - 1))
        local = grid[i] - grid[i - 1]
        return min(2.0 * local, 0.25 * r)
    return _DELTA_FRAC * r


def _check_field_tail(f, s: float) -> None:
    if isinstance(f, RadialField) and f.decay_exponent >= 2.0 * s:
        raise QuadratureError(
            f"far-field growth exponent {f.decay_exponent} >= 2s makes the "
            "singular integral diverge")


def frac_laplacian_quadrature_radial(f, N: int, s: float, r: float) -> float:
    """(-Delta)^s of a radial function at radius r by P.V. quadrature.

    For r > 0 this is the ground-state operator at mu = 0: the ball
    |y - x| < delta is excluded and replaced by its second-order Taylor
    complement -Delta f(r)/(2N) * core moment, and the remaining shell
    integral uses the exact cut kernels.  Includes the P.V. normalization
    constant.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("fractional order must lie in (0,1)")
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    if r == 0.0:
        _check_field_tail(f, s)
        return pv_normalization(N, s) * _quadrature_at_origin(f, N, s)
    return apply_ground_state_operator(f, 0.0, N, s, r)


def _quadrature_at_origin(f, N: int, s: float) -> float:
    """At r = 0 every direction is equivalent: the kernel is exactly
    omega_{N-1} rho^{-(N+2s)} outside the core ball."""
    if isinstance(f, RadialField):
        raise DomainError("origin evaluation requires a callable field")
    h = 1e-3
    v = f(np.array([h, 2 * h]))
    f0 = float(f(np.array([0.0]))[0])
    # symmetric 5-point second derivative using evenness at the origin
    f2 = (2.0 * (16.0 * v[0] - v[1]) - 30.0 * f0) / (12.0 * h ** 2)
    delta = 1e-2
    core = -f2 / 2.0 * _core_moment(N, s, delta)
    omega = sphere_area(N)

    def integrand(rho):
        return (f0 - f(rho)) * omega * rho ** (-1.0 - 2.0 * s)

    body = integrate_panels(integrand, np.geomspace(delta, 8.0, 64), _ORDER)
    tail = tail_panels(integrand, 8.0, order=_ORDER, scale=abs(body))
    return core + body + tail


def _knots_of(f) -> np.ndarray | None:
    return f.r_grid if isinstance(f, RadialField) else None


def bilinear_remainder(w, v, N: int, s: float, r: float) -> float:
    """int (w(x)-w(y)) (v(x)-v(y)) |x-y|^{-(N+2s)} dy for radial w, v.

    No normalization constant; the integrand is only |x-y|^{2-N-2s}
    singular so the core ball contributes w'(r) v'(r) |z|^2/N moments.
    """
    _check_field_tail(w, s)
    _check_field_tail(v, s)
    delta = min(_resolve_delta(w, r), _resolve_delta(v, r))
    w0, w1, _ = _local_derivatives(w, r, delta / 3.0)
    v0, v1, _ = _local_derivatives(v, r, delta / 3.0)
    core = w1 * v1 / N * _core_moment(N, s, delta)

    def G(rho):
        return (w0 - w(rho)) * (v0 - v(rho))

    knots = _knots_of(w)
    if knots is None:
        knots = _knots_of(v)
    far = _nonlocal_radial_integral(G, N, s, r, delta, knots)
    return core + far


def apply_ground_state_operator(v, mu: float, N: int, s: float,
                                r: float) -> float:
    """Ground-state operator L v(r) with kernel
    |x|^{-mu} |y|^{-mu} |x-y|^{-(N+2s)} (P.V., with normalization).

    Satisfies (-Delta)^s u - lambda u/|x|^{2s} = |x|^{mu} L v for
    u = |x|^{-mu} v, where lambda is the coupling whose ground-state decay
    rate is mu.  mu = 0 reduces to the plain radial quadrature.
    """
    if mu < 0.0:
        raise DomainError("mu must be nonnegative")
    if r <= 0.0:
        raise DomainError("ground-state operator needs r > 0")
    _check_field_tail(v, s)
    a = pv_normalization(N, s)
    delta = _resolve_delta(v, r)
    v0, v1, v2 = _local_derivatives(v, r, delta / 3.0)
    lap_r = v2 + (N - 1) * v1 / r
    core = (r ** (-2.0 * mu) * _core_moment(N, s, delta)
            * (-lap_r / (2.0 * N) + mu * v1 / (N * r)))

    def G(rho):
        return (v0 - v(rho)) * rho ** (-mu)

    far = _nonlocal_radial_integral(G, N, s, r, delta, _knots_of(v))
    return a * (r ** (-mu) * far + core)


def verify_power_solution(N: int, s: float, alpha: float, radii) -> float:
    """Worst relative error of the eigen-identity for both power branches.

    (-Delta)^s |x|^{-(N-2s)/2 +- alpha} must equal
    lambda(alpha) r^{-2s} |x|^{-(N-2s)/2 +- alpha}.
    """
    lam = lambda_of_alpha(N, s, alpha)
    half = 0.5 * (N - 2.0 * s)
    worst = 0.0
    exponents = {half - alpha, half + alpha}
    for m in exponents:
        def f(rho, m=m):
            return rho ** (-m)

        for r in np.asarray(radii, dtype=float):
            got = frac_laplacian_quadrature_radial(f, N, s, float(r))
            expect = lam * r ** (-2.0 * s - m)
            worst = max(worst, abs(got - expect) / abs(expect))
    return worst


# ---------------------------------------------------------------------------
# collocation matrix of the ground-state operator (for the radial solver)


def build_ground_state_matrix(r_grid: np.ndarray, mu: float, N: int,
                              s: float) -> np.ndarray:
    """Dense collocation matrix A with (A v)_i ~ L v(r_i).

    Piecewise-linear interpolation of v inside the grid, constant
    continuation below it, zero continuation above it (absorbing far
    field).  Row structure: positive diagonal, nonpositive off-diagonal,
    row sums >= 0 up to the diagonal core stencil.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    n = len(r_grid)
    a = pv_normalization(N, s)
    A = np.zeros((n, n))
    r_lo, r_hi = r_grid[0], r_grid[-1]
    for i in range(n):
        r = float(r_grid[i])
        if i == 0:
            local = r_grid[1] - r_grid[0]
        elif i == n - 1:
            local = r_grid[-1] - r_grid[-2]
        else:
            local = min(r_grid[i] - r_grid[i - 1], r_grid[i + 1] - r_grid[i])
        delta = min(2.0 * local, 0.25 * r)
        pref = a * r ** (-mu)

        def kern(rho):
            return rho ** (N - 1 - mu) * _cut_kernel(N, s, r, rho, delta)

        # inside the grid: graded panels near r plus every knot
        edges = np.unique(np.concatenate(
            [r_grid, _integral_edges(r, delta, None)]))
        edges = edges[(edges >= r_lo) & (edges <= r_hi)]
        nodes, wts = panel_nodes(edges, _MATRIX_ORDER)
        kv = wts * kern(nodes)
        A[i, i] += pref * kv.sum()
        j = np.clip(np.searchsorted(r_grid, nodes), 1, n - 1)
        t = (nodes - r_grid[j - 1]) / (r_grid[j] - r_grid[j - 1])
        np.subtract.at(A[i], j - 1, pref * kv * (1.0 - t))
        np.subtract.at(A[i], j, pref * kv * t)
        scale = abs(kv.sum())

        # below the grid v continues as v[0], above as 0
        m_below = head_panels(kern, r_lo, order=_MATRIX_ORDER, scale=scale)
        A[i, i] += pref * m_below
        A[i, 0] -= pref * m_below
        m_above = tail_panels(kern, r_hi, order=_MATRIX_ORDER, scale=scale)
        A[i, i] += pref * m_above

        # Taylor-2 core complement on a quadratic 3-point stencil
        if i == 0:
            il, im, ih = 0, 1, 2
        elif i == n - 1:
            il, im, ih = n - 3, n - 2, n - 1
        else:
            il, im, ih = i - 1, i, i + 1
        h1 = r_grid[im] - r_grid[il]
        h2 = r_grid[ih] - r_grid[im]
        x = r - r_grid[im]
        vander = np.array([
            [1.0, -h1, h1 ** 2],
            [1.0, 0.0, 0.0],
            [1.0, h2, h2 ** 2],
        ])
        coeff = np.linalg.inv(vander)  # values -> quadratic coefficients
        d1_row = coeff[1] + 2.0 * x * coeff[2]
        d2_row = 2.0 * coeff[2]
        lap_row = d2_row + (N - 1) / r * d1_row
        c_core = a * r ** (-2.0 * mu) * _core_moment(N, s, delta)
        stencil = c_core * (-lap_row / (2.0 * N) + mu * d1_row / (N * r))
        for k, idx in enumerate((il, im, ih)):
            A[i, idx] += stencil[k]
    return A
