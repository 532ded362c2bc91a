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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .exponents import lambda_of_alpha, pv_normalization
from .kernel import sphere_area
from .quadrature import (graded_edges, head_panels, integrate_panels,
                         panel_nodes, tail_panels)

__all__ = [
    "UniformGrid", "Field",
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
#
# The pointwise evaluators take a vectorized callable and a radius r, a
# scalar or an array of radii, and return a value of the shape of r.  The
# callable is evaluated on arrays of shape r.shape + (k,), whose leading
# axes run over the radii, so a family v_i, one member per radius, may
# broadcast along them.

# Polar-angle panels (in units of the uncut span) of the general-N kernel,
# their Gauss order, and how many (r, rho) pairs one block evaluates: the
# matrix hands every row at once, and cache-sized blocks keep the pairs x
# angles temporaries from slowing the N=2 matrix by half.
_THETA_ZETA_EDGES = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 29)])
_THETA_ORDER = 8
_THETA_CHUNK = 128

# Core-ball radius of callables as a fraction of r, and the Gauss order of
# the pointwise evaluators and of the collocation matrix.
_DELTA_FRAC = 1.0 / 64.0
_ORDER = 10
_MATRIX_ORDER = 8

# offsets of the 5-point difference stencil, in steps
_FD_STEPS = np.arange(-2.0, 3.0)


def _angular_cut(N: int, s: float, xi, dmin) -> np.ndarray:
    """Polar-angle kernel integral for general N with the ball cut, at r = 1.

    omega_{N-2} int_{theta*}^{pi} sin^{N-2}(t) (d^2 + 4 xi sin^2(t/2))^{-beta/2} dt
    with d = xi - 1 and sin^2(theta*/2) = (dmin^2 - d^2)/(4 xi); xi and
    dmin broadcast together.
    """
    beta = N + 2.0 * s
    shape = np.broadcast_shapes(np.shape(xi), np.shape(dmin))
    xi, dmin = (a.ravel() for a in np.broadcast_arrays(xi, dmin))
    zeta, wz = panel_nodes(_THETA_ZETA_EDGES, _THETA_ORDER)
    out = np.empty(len(xi))
    for lo in range(0, len(xi), _THETA_CHUNK):
        cut = slice(lo, lo + _THETA_CHUNK)
        r4 = 4.0 * xi[cut]
        d2 = (xi[cut] - 1.0) ** 2
        s2 = np.clip((dmin[cut] ** 2 - d2) / r4, 0.0, 1.0)
        theta_star = 2.0 * np.arcsin(np.sqrt(s2))
        span = (np.pi - theta_star)[:, None]
        theta = theta_star[:, None] + span * zeta[None, :]
        val = (np.sin(theta) ** (N - 2)
               * (d2[:, None] + r4[:, None] * np.sin(0.5 * theta) ** 2)
               ** (-0.5 * beta))
        out[cut] = sphere_area(N - 1) * span[:, 0] * (val @ wz)
    return out.reshape(shape)


def _power_diff(dmin: np.ndarray, rsum: np.ndarray, excess: np.ndarray,
                c: float) -> np.ndarray:
    """dmin^{-c} - rsum^{-c} without cancellation when dmin ~ rsum, given
    excess = dmin - rsum computed without cancellation."""
    ratio = dmin / rsum
    out = np.empty_like(ratio)
    close = ratio > 0.5
    if np.any(close):
        # dmin^{-c} (1 - (dmin/rsum)^c) with expm1 for the small exponent
        out[close] = dmin[close] ** (-c) * (
            -np.expm1(c * np.log1p(excess[close] / rsum[close])))
    far = ~close
    out[far] = dmin[far] ** (-c) - rsum[far] ** (-c)
    return out


def _radial_weight(N: int, s: float, mu: float, xi, d) -> np.ndarray:
    """Radial weight xi^{N-1-mu} K_N^d(1, xi) in xi = rho / r, where the
    cut kernel K_N^d(1, xi) is the surface integral of |x - y|^{-(N+2s)}
    over the xi-sphere, |x| = 1, with the ball |y - x| < d removed (the
    full kernel when |xi - 1| >= d).  xi and d broadcast together."""
    xi, d = np.broadcast_arrays(np.asarray(xi, dtype=float), d)
    gap = np.abs(xi - 1.0)
    dmin = np.maximum(gap, d)
    keep = gap >= d
    rsum = xi + 1.0
    if N == 1:
        beta = 1.0 + 2.0 * s
        kern = rsum ** (-beta)
        kern[keep] += gap[keep] ** (-beta)
    elif N == 3:
        c = 1.0 + 2.0 * s
        # dmin - rsum: -2 min(xi, 1) outside the cut, d - xi - 1 inside
        excess = np.where(keep, -2.0 * np.minimum(xi, 1.0), d - rsum)
        kern = 2.0 * math.pi / (xi * c) * _power_diff(dmin, rsum, excess, c)
    else:
        kern = _angular_cut(N, s, xi, dmin)
    return xi ** (N - 1 - mu) * kern


def _core_moment(N: int, s: float, delta):
    """int_{B_delta} |z|^{2-N-2s} dz = omega_{N-1} delta^{2-2s}/(2-2s)."""
    return sphere_area(N) * delta ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)


def _core_complement(N: int, s: float, mu: float, r, delta, d1, d2):
    """Second-order Taylor complement of the core ball |y - x| < delta in
    the ground-state operator (without normalization), from v'(r) = d1 and
    v''(r) = d2; every argument broadcasts."""
    lap_r = d2 + (N - 1) * d1 / r
    return (r ** (-2.0 * mu) * _core_moment(N, s, delta)
            * (-lap_r / (2.0 * N) + mu * d1 / (N * r)))


def _local_derivatives(f, r: np.ndarray, h: np.ndarray):
    """(f, f', f'') at every radius of r by 5-point central differences of
    step h; QuadratureError names the first radius with a non-finite
    estimate."""
    v = f(r[..., None] + h[..., None] * _FD_STEPS)
    d1 = (v[..., 0] - 8 * v[..., 1] + 8 * v[..., 3] - v[..., 4]) / (12.0 * h)
    d2 = (-v[..., 0] + 16 * v[..., 1] - 30 * v[..., 2] + 16 * v[..., 3]
          - v[..., 4]) / (12.0 * h ** 2)
    v0 = v[..., 2]
    bad = ~(np.isfinite(v0) & np.isfinite(d1) & np.isfinite(d2))
    if np.any(bad):
        raise QuadratureError(
            "singular-core estimate failed: field not smooth near "
            f"r={r[bad][0]}")
    return v0, d1, d2


def _integral_edges(d: float) -> np.ndarray:
    """Panel edges in xi on [1/2, 2], graded into the cut band
    |xi - 1| < d from both sides."""
    left = 1.0 - graded_edges(d, 0.5, d)[::-1]
    right = 1.0 + graded_edges(d, 1.0, d)
    cut = np.linspace(1.0 - d, 1.0 + d, 5)
    return np.unique(np.concatenate([left, cut, right]))


# the edges of every callable evaluation, in xi = rho / r
_XI_EDGES = _integral_edges(_DELTA_FRAC)


def _nonlocal_radial_integral(G, N: int, s: float, r: np.ndarray,
                              mu: float):
    """int_0^inf G(rho) rho^{N-1-mu} K_N^delta(r, rho) drho with
    delta = _DELTA_FRAC r, at every radius of r.

    The cut kernel is homogeneous of degree -(N+2s), so in xi = rho/r the
    integral is r^{-2s-mu} int G(r xi) _radial_weight(xi) dxi: one panel
    layout serves every radius (fixed edges on [1/2, 2], geometric head and
    tail panels beyond).  G is called on r[..., None] * xi.  The head and
    tail of each radius must die out, otherwise a QuadratureError is raised.
    """
    def integrand(xi):
        return G(r[..., None] * xi) * _radial_weight(N, s, mu, xi,
                                                     _DELTA_FRAC)

    mid = integrate_panels(integrand, _XI_EDGES, _ORDER)
    scale = np.abs(mid)
    head = head_panels(integrand, 0.5, order=_ORDER, scale=scale)
    tail = tail_panels(integrand, 2.0, order=_ORDER, scale=scale)
    return r ** (-2.0 * s - mu) * (mid + head + tail)


def frac_laplacian_quadrature_radial(f, N: int, s: float, r):
    """(-Delta)^s of a radial function at radius r by P.V. quadrature.

    For r > 0 this is the ground-state operator at mu = 0: the ball
    |y - x| < delta is excluded and replaced by its second-order Taylor
    complement -Delta f(r)/(2N) * core moment, and the remaining shell
    integral uses the exact cut kernels.  Includes the P.V. normalization
    constant.  A scalar r = 0 takes the origin rule.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("fractional order must lie in (0,1)")
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 and r == 0.0:
        return pv_normalization(N, s) * _quadrature_at_origin(f, N, s)
    if np.any(r <= 0.0):
        raise DomainError("radius must be positive; r = 0 takes the origin "
                          "rule only as a scalar radius")
    return apply_ground_state_operator(f, 0.0, N, s, r)


def _quadrature_at_origin(f, N: int, s: float) -> float:
    """At r = 0 every direction is equivalent: the kernel is exactly
    omega_{N-1} rho^{-(N+2s)} outside the core ball."""
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


def bilinear_remainder(w, v, N: int, s: float, r):
    """int (w(x)-w(y)) (v(x)-v(y)) |x-y|^{-(N+2s)} dy for radial w, v.

    No normalization constant; the integrand is only |x-y|^{2-N-2s}
    singular so the core ball contributes w'(r) v'(r) |z|^2/N moments.
    """
    r = np.asarray(r, dtype=float)
    delta = _DELTA_FRAC * r
    w0, w1, _ = _local_derivatives(w, r, delta / 3.0)
    v0, v1, _ = _local_derivatives(v, r, delta / 3.0)
    core = w1 * v1 / N * _core_moment(N, s, delta)

    def G(rho):
        return (w0[..., None] - w(rho)) * (v0[..., None] - v(rho))

    out = core + _nonlocal_radial_integral(G, N, s, r, 0.0)
    return float(out) if out.ndim == 0 else out


def apply_ground_state_operator(v, mu: float, N: int, s: float, r):
    """Ground-state operator L v(r) with kernel
    |x|^{-mu} |y|^{-mu} |x-y|^{-(N+2s)} (P.V., with normalization).

    Satisfies (-Delta)^s u - lambda u/|x|^{2s} = |x|^{mu} L v for
    u = |x|^{-mu} v, where lambda is the coupling whose ground-state decay
    rate is mu.  mu = 0 reduces to the plain radial quadrature.
    """
    if mu < 0.0:
        raise DomainError("mu must be nonnegative")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("ground-state operator needs r > 0")
    a = pv_normalization(N, s)
    delta = _DELTA_FRAC * r
    v0, v1, v2 = _local_derivatives(v, r, delta / 3.0)
    core = _core_complement(N, s, mu, r, delta, v1, v2)

    def G(rho):
        return v0[..., None] - v(rho)

    far = _nonlocal_radial_integral(G, N, s, r, mu)
    out = a * (r ** (-mu) * far + core)
    return float(out) if out.ndim == 0 else out


def verify_power_solution(N: int, s: float, alpha: float, radii) -> float:
    """Worst relative error of the eigen-identity for both power branches.

    (-Delta)^s |x|^{-(N-2s)/2 +- alpha} must equal
    lambda(alpha) r^{-2s} |x|^{-(N-2s)/2 +- alpha}.  The two branches are
    one family of two members, evaluated in one call.
    """
    lam = lambda_of_alpha(N, s, alpha)
    half = 0.5 * (N - 2.0 * s)
    radii = np.asarray(radii, dtype=float)
    m = np.array([[half - alpha], [half + alpha]])

    def f(rho):
        return rho ** -m[..., None]

    r = np.broadcast_to(radii, (2, len(radii)))
    got = frac_laplacian_quadrature_radial(f, N, s, r)
    expect = lam * r ** (-2.0 * s - m)
    return float(np.max(np.abs(got - expect) / np.abs(expect)))


# ---------------------------------------------------------------------------
# collocation matrix of the ground-state operator (for the radial solver)


def build_ground_state_matrix(r_grid: np.ndarray, mu: float, N: int,
                              s: float) -> np.ndarray:
    """Dense collocation matrix A with (A v)_i ~ L v(r_i).

    Piecewise-linear interpolation of v inside the grid, constant
    continuation below it, zero continuation above it (absorbing far
    field).  Row structure: positive diagonal, nonpositive off-diagonal,
    row sums >= 0 up to the diagonal core stencil.

    The grid must be geometric, r_j = r_0 q^j (DomainError otherwise).  In
    xi = rho / r_i row i sees the knots q^{j-i} and a core ball d r_i, with
    one ratio d for all rows but the first, so the in-grid part of a row is
    one weight vector in xi, shifted by i and scaled by r_i^{-2s-2mu}.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    n = len(r_grid)
    ok = n > 2 and r_grid[0] > 0.0
    q = (r_grid[-1] / r_grid[0]) ** (1.0 / (n - 1)) if ok else 0.0
    if not (q > 1.0 and np.allclose(r_grid[1:] / r_grid[:-1], q,
                                    rtol=1e-12, atol=0.0)):
        raise DomainError("collocation matrix needs a geometric grid "
                          "r_j = r_0 q^j of 3 or more points, q > 1")
    a = pv_normalization(N, s)
    rows = np.arange(n)
    # core radius / r_i: twice the smaller neighbouring spacing, at most
    # 1/4; row 0 has only its right neighbour
    d = np.minimum(2.0 * np.where(rows == 0, q - 1.0, 1.0 - 1.0 / q), 0.25)
    pref = a * r_grid ** (-2.0 * s - 2.0 * mu)
    knots = q ** np.arange(1.0 - n, n)
    lag = (n - 1) + rows[None, :] - rows[:, None]  # knot q^{j-i} of (i, j)

    # inside the grid: hat j of row i takes its rising half from the knot
    # interval below q^{j-i} (none for j = 0) and its falling half from the
    # one above (none for j = n-1)
    hats = np.empty((n, n))
    for ratio in np.unique(d):
        edges = np.unique(np.concatenate([knots, _integral_edges(ratio)]))
        edges = edges[(edges >= knots[0]) & (edges <= knots[-1])]
        xi, wts = panel_nodes(edges, _MATRIX_ORDER)
        kv = wts * _radial_weight(N, s, mu, xi, ratio)
        k = np.searchsorted(knots, xi)
        t = (xi - knots[k - 1]) / (knots[k] - knots[k - 1])
        at = lag[d == ratio]
        rising = np.bincount(k, kv * t, minlength=2 * n - 1)[at]
        falling = np.bincount(k - 1, kv * (1.0 - t), minlength=2 * n - 1)[at]
        rising[:, 0] = falling[:, -1] = 0.0
        hats[d == ratio] = rising + falling
    mass = hats.sum(axis=1)
    A = -pref[:, None] * hats

    # below the grid v continues as v[0], above as 0.  Row i integrates
    # over xi below c = r_0/r_i and above c = r_{n-1}/r_i; in units of c
    # every row shares the head panels below 1 and the tail panels above 1
    def beyond(c):
        return lambda eta: c * _radial_weight(N, s, mu, c * eta, d[:, None])

    below = pref * head_panels(beyond((r_grid[0] / r_grid)[:, None]), 1.0,
                               order=_MATRIX_ORDER, scale=mass)
    above = pref * tail_panels(beyond((r_grid[-1] / r_grid)[:, None]), 1.0,
                               order=_MATRIX_ORDER, scale=mass)
    A[rows, rows] += pref * mass + below + above
    A[:, 0] -= below

    # Taylor-2 core complement, derivatives at r_i from the quadratic
    # through 3 neighbouring knots
    cols = np.clip(rows - 1, 0, n - 3)[:, None] + np.arange(3)
    offsets = r_grid[cols] - r_grid[:, None]
    coeff = np.linalg.inv(offsets[..., None] ** np.arange(3))
    A[rows[:, None], cols] += a * _core_complement(
        N, s, mu, r_grid[:, None], (d * r_grid)[:, None], coeff[:, 1],
        2.0 * coeff[:, 2])
    return A
