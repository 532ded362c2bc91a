"""Time integration of the singular reaction-diffusion Cauchy problem.

Two formulations of u_t + (-Delta)^s u = lambda u/|x|^{2s} + u^p, chosen
by the type of the grid:

* direct, on a UniformGrid: periodic box, diffusion by the exact Fourier
  multiplier exponential (or an implicit resolvent step, which gives a
  convex splitting with a discrete energy decay law), potential
  regularized to lambda/(|x|^{2s} + eps^{2s}) because the grid cannot
  represent the singular line, reaction explicit;

* ground_state, on a RadialGrid: v = |x|^{mu} u, which is bounded at the
  origin.  The Hardy term is absorbed exactly into the weighted nonlocal
  operator L (collocation matrix from fracop), stepped by Crank-Nicolson
  with the reaction explicit and no factorization: a full step (dt_initial,
  neither bounded by the reaction rate nor clipped to a checkpoint; 92.5%
  of the benchmark sweep's steps) applies one dense propagator formed once
  per run, every other dt goes through the eigendecomposition
  V diag(lam) V^{-1} of B = r^{2 mu} A as numpy's eig returns it (complex
  when B has a conjugate pair of eigenvalues).

Both paths preserve nonnegativity (adaptive step halving on violation),
record weighted-norm monitors on a fixed checkpoint grid plus the weighted
mass of every accepted step for blow-up extrapolation, and classify the
outcome as blow-up (threshold crossing with an accelerating tail), survival
to t_max, or inconclusive.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupFitError, DomainError, QuadratureError
from .exponents import ProblemParams
from .fracop import (Field, UniformGrid, apply_multiplier,
                     build_ground_state_matrix, spectral_symbol)
from .kernel import sphere_area
from .quadrature import distinct_sorted

__all__ = [
    "RadialGrid", "SolverConfig", "Verdict", "TrajectoryReport",
    "GroundStateOperator", "ground_state_operator", "run", "monitor_norms",
    "blowup_fit",
]


# The run steps from the operator's eigenbasis and never factorizes.  These
# two stay only because perfbench/tracer.py binds solver.lu_factor and
# solver.lu_solve by name; they go when the benchmark drops them (ROADMAP
# item 1).
def lu_factor(a):
    """The square matrix a, copied: the factor that lu_solve takes."""
    return np.array(a, dtype=float)


def lu_solve(factor, b):
    """x with factor @ x = b, by a dense direct solve."""
    return np.linalg.solve(factor, b)


@dataclass(frozen=True)
class RadialGrid:
    """Geometric radial grid for the ground-state formulation."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise DomainError("need 0 < r_min < r_max < inf")
        if self.n_points < 8:
            raise DomainError("radial grid needs at least 8 points")

    @property
    def r(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.n_points)


def _check_box_dimension(grid: UniformGrid, params: ProblemParams) -> None:
    """Refuse (DomainError) a box grid of another dimension than the
    problem."""
    if grid.N != params.N:
        raise DomainError(f"a grid of dimension {grid.N} cannot run "
                          f"N={params.N}")


@dataclass(frozen=True)
class SolverConfig:
    params: ProblemParams
    grid: UniformGrid | RadialGrid
    potential_epsilon: float | None = None   # None: one grid spacing
    dt_initial: float = 1e-2
    dt_safety: float = 0.5
    t_max: float = 1.0
    blowup_threshold: float = 1e6
    diffusion: str = "exponential"           # box: "exponential" | "implicit"
    reaction_enabled: bool = True
    n_monitor: int = 64
    store_fields: bool = False

    def __post_init__(self) -> None:
        # written so that nan fails every range test
        if not (0.0 < self.t_max < math.inf
                and 0.0 < self.dt_initial < math.inf):
            raise DomainError("t_max and dt_initial must be positive and "
                              "finite")
        if not 0.0 < self.dt_safety < 1.0:
            raise DomainError("dt_safety must lie in (0,1)")
        if not 0.0 < self.blowup_threshold < math.inf:
            raise DomainError("blowup_threshold must be positive and finite")
        if self.n_monitor < 1:
            raise DomainError("n_monitor must be at least 1")
        if self.diffusion not in ("exponential", "implicit"):
            raise DomainError(f"unknown diffusion propagator {self.diffusion!r}")
        if not isinstance(self.grid, (UniformGrid, RadialGrid)):
            raise DomainError("grid must be a UniformGrid or a RadialGrid")
        if isinstance(self.grid, UniformGrid):
            _check_box_dimension(self.grid, self.params)


@dataclass(frozen=True)
class Verdict:
    kind: str                      # "blew_up" | "survived" | "inconclusive"
    t_star: float | None = None
    reason: str | None = None
    tail_linearity: float | None = None   # of the fit t_star came from


@dataclass(frozen=True)
class TrajectoryReport:
    times: np.ndarray
    weighted_mass_series: np.ndarray
    critical_norm_series: np.ndarray
    l2_series: np.ndarray
    energy_series: np.ndarray
    verdict: Verdict
    config: SolverConfig
    tail_times: np.ndarray
    tail_weighted_mass: np.ndarray
    r_grid: np.ndarray | None
    fields: list[tuple[float, np.ndarray]] | None
    steps_accepted: int
    steps_rejected: dict[str, int]   # by the reason _accept gives
    steps_full: int                  # accepted steps of the full dt_initial
    dt_min: float | None             # least and greatest increment between
    dt_max: float | None             # accepted times; None without a step


# ---------------------------------------------------------------------------
# monitors


def _box_weight(grid: UniformGrid, mu: float) -> np.ndarray:
    """Cell-integrated |x|^{-mu}: midpoint values away from the origin,
    the mean over 9^N subsampled points in the other cells within 3.5 dx
    of it, equal-volume-ball closed form at the origin."""
    vol = grid.cell_volume
    rad = grid.radius()
    if mu == 0.0:
        return np.full(rad.shape, vol)
    W = np.where(rad > 0.0, rad, 1.0) ** (-mu) * vol
    dx, N = grid.dx, grid.N
    near = np.nonzero((rad > 0.0) & (rad < 3.5 * dx))
    x = grid.axis()
    sub = (np.arange(9) - 4.0) / 9.0 * dx
    offs = np.meshgrid(*([sub] * N), indexing="ij")
    rr = np.sqrt(sum((x[near[d]][:, None] + offs[d].ravel()) ** 2
                     for d in range(N)))
    W[near] = np.mean(rr ** (-mu), axis=1) * vol
    r_c = dx * (N / sphere_area(N)) ** (1.0 / N)
    W[rad == 0.0] = sphere_area(N) * r_c ** (N - mu) / (N - mu)
    return W


def _spline_weights(r: np.ndarray) -> np.ndarray:
    """Weights w with w @ g = int g dr over the grid span, for the
    not-a-knot cubic spline through (log r, g r); every integrand on one
    grid shares them.

    With t = log r, steps h and second derivatives M of the spline,
    int S dt = sum_i h_i (y_i + y_{i+1})/2 - h_i^3 (M_i + M_{i+1})/24, and
    K M = R y is the spline's linear system; so the weights in t are the
    trapezoid weights minus R^T K^{-T} c / 24 with c_j the h^3 of the
    panels next to knot j.  Needs at least 4 points.
    """
    t = np.log(r)
    n = len(t)
    h = np.diff(t)
    K = np.zeros((n, n))
    R = np.zeros((n, n))
    i = np.arange(1, n - 1)
    K[i, i - 1] = h[:-1]
    K[i, i] = 2.0 * (h[:-1] + h[1:])
    K[i, i + 1] = h[1:]
    R[i, i - 1] = 6.0 / h[:-1]
    R[i, i] = -6.0 / h[:-1] - 6.0 / h[1:]
    R[i, i + 1] = 6.0 / h[1:]
    # not-a-knot: the third derivative is continuous at t_1 and t_{n-2}
    K[0, :3] = h[1], -(h[0] + h[1]), h[0]
    K[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    trap = np.zeros(n)
    trap[:-1] += 0.5 * h
    trap[1:] += 0.5 * h
    c = np.zeros(n)
    c[:-1] += h ** 3
    c[1:] += h ** 3
    w = trap - R.T @ np.linalg.solve(K.T, c) / 24.0
    return w * r


def _origin_weights(body: np.ndarray, r: np.ndarray, N: int,
                    e: float) -> np.ndarray:
    """Weights w with w @ g = int g |x|^{-e} dx for a radial g on r, from
    weights `body` of int dr over the grid span; below r[0], g is held at
    g[0], a closure that diverges (weight inf) unless e < N."""
    omega = sphere_area(N)
    w = omega * body * r ** (N - 1 - e)
    w[0] += omega * r[0] ** (N - e) / (N - e) if e < N else math.inf
    return w


def regularized_potential(grid: UniformGrid, params: ProblemParams,
                          epsilon: float | None) -> np.ndarray | float:
    """The box potential lam / (|x|^{2s} + epsilon^{2s}) of the problem on
    the lattice, epsilon None meaning one grid spacing; 0.0 at lam = 0,
    epsilon unread.  Refuses (DomainError) a grid of another dimension than
    the problem and an epsilon that is not positive and finite."""
    _check_box_dimension(grid, params)
    s, lam = params.s, params.lam
    if lam == 0.0:
        return 0.0
    eps = grid.dx if epsilon is None else epsilon
    if not 0.0 < eps < math.inf:
        raise DomainError("the direct grid cannot represent the exact "
                          "singular potential; potential_epsilon must be "
                          "positive and finite (defaults to one grid "
                          "spacing)")
    return lam / (grid.radius() ** (2.0 * s) + eps ** (2.0 * s))


def box_energy_terms(u: np.ndarray, lap: np.ndarray, V: np.ndarray | float,
                     p: float, vol: float) -> tuple[float, float, float]:
    """Quadratic-form, potential and reaction terms (Q, P, R) of the box
    energy E = Q - P - R:

        Q = (1/2) <u, (-Delta)^s u>,  P = (1/2) int V u^2,
        R = 1/(p+1) int |u|^{p+1},

    as lattice sums times the cell volume `vol`; `lap` is (-Delta)^s u and
    V the regularized potential (lam included).
    """
    quad = 0.5 * float(np.sum(u * lap)) * vol
    pot = 0.5 * float(np.sum(V * u ** 2)) * vol
    react = float(np.sum(np.abs(u) ** (p + 1.0))) * vol / (p + 1.0)
    return quad, pot, react


def _box_monitors(u: np.ndarray, W: np.ndarray, lap: np.ndarray,
                  V: np.ndarray | float, p: float,
                  vol: float) -> tuple[float, float, float, float]:
    """(weighted mass, critical norm, L2 norm, energy) of a box state u,
    from its cell weights W = _box_weight, lap = (-Delta)^s u and the
    potential V."""
    wm = float(np.sum(W * u))
    crit = float(np.sum(W * np.abs(u) ** p))
    l2 = math.sqrt(float(np.sum(u ** 2)) * vol)
    quad, pot, react = box_energy_terms(u, lap, V, p, vol)
    return wm, crit, l2, quad - pot - react


def monitor_norms(u: Field, params: ProblemParams,
                  epsilon: float | None = None):
    """Weighted mass, critical norm, L2 norm and energy of a box state of
    the problem.

    The energy uses the spectral quadratic form and the regularized
    potential, so the monitors refuse what regularized_potential refuses.
    Radial states are monitored inside a ground-state run, which holds the
    operator their energy needs.
    """
    if not isinstance(u, Field):
        raise DomainError("monitors take a box Field")
    grid = u.grid
    V = regularized_potential(grid, params, epsilon)
    return _box_monitors(
        u.values, _box_weight(grid, params.exponents.mu),
        apply_multiplier(spectral_symbol(grid, params.s), u.values),
        V, params.p, grid.cell_volume)


# ---------------------------------------------------------------------------
# blow-up time extrapolation


def blowup_fit(times, weighted_mass_series, p: float) -> tuple[float, float]:
    """(t*, linearity) of the blow-up law Y^{1-p} linear in t, from a
    weighted-mass record: the zero crossing of the least-squares line, and
    its max deviation from the data relative to their range.

    The line is fitted over the acceleration phase, the last samples within
    three decades of the final weighted mass (8 to 200 of them), cut to
    their strictly increasing tail; a caller narrows the window by passing
    fewer samples.  Refuses (BlowupFitError) a tail of under 5 samples or 5
    distinct times (a stalled clock repeats one), a flat tail, a line not
    decreasing toward zero, or a crossing in the data."""
    t = np.asarray(times, dtype=float)
    Y = np.asarray(weighted_mass_series, dtype=float)
    if len(t) != len(Y):
        raise DomainError("series lengths differ")
    if len(Y) < 5:
        raise BlowupFitError("tail not strictly increasing over enough samples")
    start = int(np.searchsorted(Y > Y[-1] * 1e-3, True))
    window = int(np.clip(len(Y) - start, 8, 200))
    t, Y = t[-window:], Y[-window:]
    i = len(Y) - 1
    while i > 0 and Y[i - 1] < Y[i]:
        i -= 1
    if len(Y) - i < 5:
        raise BlowupFitError("tail not strictly increasing over enough samples")
    tt, zz = t[i:], Y[i:] ** (1.0 - p)
    if len(distinct_sorted(tt)) < 5:
        raise BlowupFitError("tail spans fewer than 5 distinct times")
    if zz.max() == zz.min():
        raise BlowupFitError("tail too flat for a linearity residual")
    slope, intercept = np.polyfit(tt - tt[0], zz, 1)
    if slope >= 0.0:
        raise BlowupFitError("Y^{1-p} tail not decreasing toward zero")
    t_star = tt[0] - intercept / slope
    if t_star <= tt[-1]:
        raise BlowupFitError("extrapolated crossing does not exceed data")
    return float(t_star), float(
        np.max(np.abs(slope * (tt - tt[0]) + intercept - zz))
        / (zz.max() - zz.min()))


# ---------------------------------------------------------------------------
# the run loop


class _StepRejected(Exception):
    pass


# step budget of one run, and the amplitude past which a run counts as
# blown up whatever its weighted mass
_MAX_STEPS = 400_000
_U_CAP = 1e60


def _accept(u: np.ndarray, rel_floor: float) -> float:
    """max u, after clipping the small negative lobes of u to 0 in place.
    Rejects the step on a non-finite state (a nan or inf reaches the min or
    the max), or on a lobe below -rel_floor max u."""
    # the ufunc reductions, not the ndarray.min/max wrappers: this runs
    # once per step
    lo = float(np.minimum.reduce(u, axis=None))
    hi = float(np.maximum.reduce(u, axis=None))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _StepRejected("non-finite state")
    if lo < 0.0:
        if lo < -rel_floor * max(hi, 1e-300):
            raise _StepRejected("negativity")
        np.maximum(u, 0.0, out=u)
        hi = max(hi, 0.0)
    return hi


def run(u0, config: SolverConfig) -> TrajectoryReport:
    """Advance one Cauchy instance and report monitored norms.

    The grid of the config picks the formulation: a UniformGrid runs the
    direct box scheme on a Field u0 on that same grid; a RadialGrid runs
    the ground-state scheme on a callable or an array on the grid.  u0
    must be nonnegative.
    """
    direct = isinstance(config.grid, UniformGrid)
    if direct:
        if not isinstance(u0, Field) or u0.grid != config.grid:
            raise DomainError("direct formulation expects a Field datum on "
                              "the config grid")
        u_init = u0.values
    else:
        r = config.grid.r
        u_init = np.asarray(u0(r) if callable(u0) else u0, dtype=float)
        if u_init.shape != r.shape:
            raise DomainError("radial datum does not match the grid")
    if np.any(u_init < 0.0) or not np.all(np.isfinite(u_init)):
        raise DomainError("initial datum must be nonnegative and finite")
    return (_run_direct if direct else _run_ground_state)(u_init, config)


def _blowup_verdict(tail_t: list[float], tail_y: list[float], p: float,
                    reason: str) -> Verdict:
    try:
        t_star, linearity = blowup_fit(tail_t, tail_y, p)
    except BlowupFitError as exc:
        return Verdict("inconclusive", reason=f"{reason}, but {exc}")
    return Verdict("blew_up", t_star=t_star, reason=reason,
                   tail_linearity=linearity)


def _run_direct(u_init: np.ndarray, config: SolverConfig) -> TrajectoryReport:
    grid, params = config.grid, config.params
    s, lam, p = params.s, params.lam, params.p
    mu = params.exponents.mu
    V = regularized_potential(grid, params, config.potential_epsilon)
    # max V, the potential's share of the rate, is the same for every
    # state: lam / eps^{2s}, at the origin, which is a lattice point
    v_rate = float(np.max(V))
    symbol = spectral_symbol(grid, s)
    vol = grid.cell_volume
    W = _box_weight(grid, mu)

    def propagator(dt: float) -> np.ndarray:
        return (np.exp(-dt * symbol) if config.diffusion == "exponential"
                else 1.0 / (1.0 + dt * symbol))

    # as in the ground-state run: the full steps share one propagator, and
    # every other dt (a blow-up run hardly repeats one) forms its own
    full = propagator(config.dt_initial)

    def monitors(u: np.ndarray):
        return _box_monitors(u, W, apply_multiplier(symbol, u), V, p, vol)

    def weighted_mass(u: np.ndarray) -> float:
        return float(np.sum(W * u))

    def prepare(u: np.ndarray, peak: float) -> tuple[float, None]:
        # the rate needs only max u, which _accept has already taken
        react = p * peak ** (p - 1.0) if config.reaction_enabled else 0.0
        return react + v_rate, None

    def step(u: np.ndarray, _, dt: float) -> np.ndarray:
        prop = full if dt == config.dt_initial else propagator(dt)
        u_new = apply_multiplier(prop, u)
        if config.reaction_enabled or lam > 0.0:
            # band-limited representations of sharp states ring slightly
            # negative; the source V v + v^p sees the lobes clipped (v^p of
            # a negative lobe is nan), and the guard rejects deep ones
            v = np.maximum(u_new, 0.0)
            src = V * v
            if config.reaction_enabled:
                src += v ** p
            src *= dt
            u_new += src
        return u_new

    return _advance(u_init, config, prepare, step, monitors, weighted_mass,
                    store=lambda u: u.copy(), rel_floor=1e-6, r_grid=None)


@dataclass(frozen=True, eq=False)
class GroundStateOperator:
    """What a ground-state run derives from (grid, N, s, mu), never from p.

    B = r^{2 mu} A is the operator on v = r^mu u, A the collocation
    matrix of L; `tw` holds the trapezoid weights of the weighted mass
    int v |x|^{-2 mu} dx (the per-step blow-up exit), and `spline` the
    spline quadrature weights in dr of the checkpoint monitors.
    B = V diag(lam) V^{-1} as numpy's eig gives it: real arrays when every
    eigenvalue is real, complex ones when B has a conjugate pair.
    The arrays are read-only because the operator is shared between runs;
    what depends on dt belongs to the run: its dense full-step propagator
    and the O(n) resolvent coefficients of each clipped step.
    """

    r: np.ndarray
    B: np.ndarray
    tw: np.ndarray
    spline: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray
    lam: np.ndarray


# largest ||V diag(lam) V^{-1} - B||_F / ||B||_F an eigenbasis may leave
_EIG_RTOL = 1e-10


def _eigenbasis(B: np.ndarray):
    """(V, V^{-1}, lam) with B = V diag(lam) V^{-1}, see
    GroundStateOperator.  Refuses with QuadratureError an eigenvalue with
    Re <= 0, a singular V, or a V diag(lam) V^{-1} off B by more than
    _EIG_RTOL (a defective or ill-conditioned basis)."""
    # all-real results come back as strided .real views of complex arrays,
    # which would slow every matvec with V
    lam, V = (np.ascontiguousarray(a) for a in np.linalg.eig(B))
    if not np.all(lam.real > 0.0):
        raise QuadratureError(
            f"operator eigenvalue with Re <= 0 ({lam.real.min():.3g})")
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(
            f"operator eigenbasis singular ({exc})") from None
    err = np.linalg.norm((V * lam) @ V_inv - B) / np.linalg.norm(B)
    if not err <= _EIG_RTOL:
        raise QuadratureError(
            f"operator eigenbasis reproduces B only to {err:.3g} relative")
    return V, V_inv, lam


def _apply_resolvent(op: GroundStateOperator, c: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """V diag(c) V^{-1} w; with c = 1 / (1 + a op.lam) that is
    (I + a B)^{-1} w, real up to rounding since B is real."""
    return (op.V @ (c * (op.V_inv @ w))).real


def _resolvent_matrix(op: GroundStateOperator, c: np.ndarray) -> np.ndarray:
    """The dense matrix of _apply_resolvent(op, c, .), C-contiguous: a
    strided .real view would slow every matvec with it."""
    return np.ascontiguousarray(((op.V * c) @ op.V_inv).real)


@functools.lru_cache(maxsize=4)
def ground_state_operator(grid: RadialGrid, N: int, s: float,
                          mu: float) -> GroundStateOperator:
    """The operator of a ground-state run, built once per (grid, N, s, mu)
    and shared by every p.  Refuses with QuadratureError a non-finite
    collocation matrix or an eigenbasis that _eigenbasis refuses."""
    r = grid.r
    B = (r ** (2.0 * mu))[:, None] * build_ground_state_matrix(r, mu, N, s)
    # a finite B means a finite collocation matrix, since r^{2 mu} > 0
    if not np.all(np.isfinite(B)):
        raise QuadratureError(
            f"ground-state operator not finite (N={N}, s={s}, mu={mu})")
    try:
        basis = _eigenbasis(B)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc} (N={N}, s={s}, mu={mu})") from None
    dr = np.empty_like(r)
    dr[1:-1] = 0.5 * (r[2:] - r[:-2])
    dr[0] = 0.5 * (r[1] - r[0])
    dr[-1] = 0.5 * (r[-1] - r[-2])
    arrays = (r, B, _origin_weights(dr, r, N, 2.0 * mu), _spline_weights(r),
              *basis)
    for arr in arrays:
        arr.setflags(write=False)
    return GroundStateOperator(*arrays)


def _run_ground_state(u_init: np.ndarray, config: SolverConfig) -> TrajectoryReport:
    params = config.params
    N, s, p = params.N, params.s, params.p
    mu = params.exponents.mu
    op = ground_state_operator(config.grid, N, s, mu)
    r = op.r
    v = r ** mu * u_init
    rfac = r ** (mu * (1.0 - p))
    # against |x|^{-2mu}: v gives the weighted mass, v^2 the squared L2
    # norm, v Bv the quadratic form <u, Lu>; against |x|^{-mu(p+1)}: v^p
    # gives the critical norm, v^{p+1} (p+1) times the reaction
    mass = _origin_weights(op.spline, r, N, 2.0 * mu)
    power = _origin_weights(op.spline, r, N, mu * (p + 1.0))

    def resolvent(dt: float) -> np.ndarray:
        # 2 (I + (dt/2) B)^{-1} in the eigenbasis; O(n) to form, so clipped
        # steps, each of its own dt, form it afresh
        return 2.0 / (1.0 + (0.5 * dt) * op.lam)

    def monitors(vv: np.ndarray):
        # the state is >= 0; at v[0] = 0 an infinite closure weight adds
        # 0, so r[0] is skipped
        i = int(vv[0] == 0.0)
        vp = vv[i:] ** p
        reac = float(power[i:] @ (vp * vv[i:])) / (p + 1.0)
        return (float(mass @ vv), float(power[i:] @ vp),
                math.sqrt(mass @ (vv * vv)),
                0.5 * float(mass @ (vv * (op.B @ vv))) - reac)

    def weighted_mass(vv: np.ndarray) -> float:
        return float(op.tw @ vv)

    reaction = config.reaction_enabled
    # most steps are full ones; forming the matrix pays off only after some
    # 35 of them, so other dts keep the eigenbasis
    full = _resolvent_matrix(op, resolvent(config.dt_initial))

    def prepare(vv: np.ndarray, _) -> tuple[float, np.ndarray | None]:
        # g = rfac v^{p-1}, once per state: its max sets the rate and
        # g v is the reaction, so a rejected step reuses it
        if not reaction:
            return 0.0, None
        g = vv ** (p - 1.0)
        g *= rfac
        return p * float(np.maximum.reduce(g, axis=None)), g

    def step(vv: np.ndarray, g: np.ndarray | None, dt: float) -> np.ndarray:
        # Crank-Nicolson (I + a B) x = (I - a B) v + dt rfac v^p with
        # a = dt/2 is x = 2 (I + a B)^{-1} (v + a g v) - v
        rhs = vv
        if g is not None:
            rhs = g * vv
            rhs *= 0.5 * dt
            rhs += vv
        # a non-finite rhs comes out non-finite and is rejected
        if dt == config.dt_initial:
            x = full @ rhs
        else:
            x = _apply_resolvent(op, resolvent(dt), rhs)
        x -= vv
        return x

    return _advance(v, config, prepare, step, monitors, weighted_mass,
                    store=lambda vv: (r ** (-mu) * vv), rel_floor=1e-9,
                    r_grid=r)


def _advance(state, config, prepare, step, monitors, weighted_mass, store,
             rel_floor, r_grid) -> TrajectoryReport:
    """Step `state` until t_max, blow-up, a rejection at the dt floor, a
    stalled clock or the step budget; a datum already over the blow-up
    threshold takes no step.

    prepare(state, max state) gives (rate, aux) once per accepted state:
    the reaction rate that bounds dt and whatever else step needs of that
    state, which a rejected step reuses.  step(state, aux, dt) returns the
    raw new state, and _accept alone decides whether it stands."""
    p = config.params.p
    t_max, dt_initial = config.t_max, config.dt_initial
    dt_safety, n_monitor = config.dt_safety, config.n_monitor
    threshold = config.blowup_threshold
    rows = []          # (t, weighted mass, critical norm, l2, energy)
    fields = []

    def checkpoint(t, state):
        rows.append((t, *monitors(state)))
        if config.store_fields:
            fields.append((t, store(state)))

    t = 0.0
    checkpoints = np.linspace(0.0, t_max, n_monitor + 1).tolist()
    next_cp = 1
    checkpoint(0.0, state)
    tail_t = [0.0]
    tail_y = [weighted_mass(state)]
    t_end = t_max - 1e-15 * t_max
    dt_floor = 1e-14 * max(t_max, 1.0)
    budget = _MAX_STEPS
    verdict = Verdict("inconclusive", reason="step budget exhausted")
    if tail_y[0] > threshold:
        # no tail to extrapolate a blow-up time from
        budget = 0
        verdict = Verdict(
            "inconclusive",
            reason=f"datum's weighted mass {tail_y[0]:.6g} is already "
                   f"over the blow-up threshold {threshold:.6g}")
    else:
        rt, aux = prepare(state, float(np.maximum.reduce(state, axis=None)))
    dt_pending = None
    full = 0
    rejected: dict[str, int] = {}

    for _ in range(budget):
        if t >= t_end:
            verdict = Verdict("survived", t_star=None)
            break
        dt = dt_initial if dt_pending is None else dt_pending
        if rt > 0.0:
            dt = min(dt, dt_safety / rt)
        hit_cp = False
        if next_cp <= n_monitor and t + dt >= checkpoints[next_cp] - 1e-15:
            dt = max(checkpoints[next_cp] - t, 1e-18)
            hit_cp = True
        if t + dt == t:
            # dt is below the spacing of doubles at t: time stands still
            # while the state may still grow
            verdict = Verdict("inconclusive",
                              reason=f"clock stalled at t={t} (dt={dt:.3g})")
            break
        new = step(state, aux, dt)
        try:
            peak = _accept(new, rel_floor)
        except _StepRejected as exc:
            rejected[str(exc)] = rejected.get(str(exc), 0) + 1
            if dt <= dt_floor:
                verdict = Verdict("inconclusive",
                                  reason=f"step rejected ({exc}) at t={t}")
                break
            dt_pending = 0.5 * dt
            continue
        state = new
        dt_pending = None
        if dt == dt_initial:
            full += 1
        t += dt
        y = weighted_mass(state)
        tail_t.append(t)
        tail_y.append(y)
        if hit_cp:
            checkpoint(t, state)
            next_cp += 1
        if y > threshold:
            reason = "weighted mass over threshold"
        elif peak > _U_CAP:
            reason = "amplitude over cap"
        else:
            rt, aux = prepare(state, peak)
            continue
        if not hit_cp:
            checkpoint(t, state)
        verdict = _blowup_verdict(tail_t, tail_y, p, reason)
        break
    times, wm, crit, l2, energy = np.array(rows).T
    dts = np.diff(tail_t)
    return TrajectoryReport(
        times=times, weighted_mass_series=wm, critical_norm_series=crit,
        l2_series=l2, energy_series=energy, verdict=verdict, config=config,
        tail_times=np.array(tail_t), tail_weighted_mass=np.array(tail_y),
        r_grid=r_grid, fields=fields or None, steps_accepted=len(tail_t) - 1,
        steps_rejected=rejected, steps_full=full,
        dt_min=float(dts.min()) if dts.size else None,
        dt_max=float(dts.max()) if dts.size else None)
