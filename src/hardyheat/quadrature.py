"""Low-level quadrature and root-finding helpers.

Everything here is deliberately deterministic: fixed node counts, fixed
panel layouts, no randomized adaptivity, so repeated runs are bit-identical.
The geometric head and tail sums evaluate their panels in blocks: 8
panels, then as many as the geometric decay of the last two panel sums
predicts the slowest unstopped integrand needs, at most 64.  The blocks
set how many nodes are evaluated and in how many calls, never a result:
every integrand is summed panel by panel and stops on the same rule.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, QuadratureError


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    return leggauss(order)


def distinct_sorted(x) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's sort-and-mask
    without the numpy.ma import that np.unique makes on its first call."""
    x = np.sort(np.ravel(x))
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def panel_nodes(edges: np.ndarray, order: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for every panel [edges[i], edges[i+1]].

    Returns flat arrays of length (len(edges)-1)*order.
    """
    x, w = gauss_rule(order)
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    mid = a + half
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate_panels(f, edges: np.ndarray, order: int = 10):
    """Integrate a vectorized callable over a fixed panel decomposition.

    f maps the flat node array to values whose last axis runs over the
    nodes; any leading axes are a batch of integrands, and the result has
    their shape.
    """
    nodes, weights = panel_nodes(np.asarray(edges, dtype=float), order)
    return np.vecdot(f(nodes), weights)


# Geometric panels: widths grow (tail) or shrink (head) by _RATIO per
# panel, up to _MAX_PANELS of them; the sum stops after two consecutive
# panels below _REL_TOL * max(|total|, scale).  _MAX_BLOCK is the longest
# block that doubling from 8 panels reached on the benchmark's inputs, so
# no call of f gets more nodes, and no more memory, than it did there.
_RATIO = 1.6
_REL_TOL = 1e-14
_MAX_PANELS = 240
_FIRST_BLOCK = 8
_MAX_BLOCK = 64


def _next_block(seq, totals, floor, open_, block: int) -> int:
    """Panels to evaluate next: for each open integrand, the geometric
    rate q of its last two panel sums gives the count of panels until two
    consecutive sums fall below the stop bound, |last| q^j <= bound; an
    integrand whose rate cannot be read (zero, >= 1, not finite) asks for
    twice `block`.  The slowest open integrand sets the block, capped at
    _MAX_BLOCK."""
    last, prev = np.abs(seq[..., -1]), np.abs(seq[..., -2])
    bound = _REL_TOL * np.maximum(np.abs(totals[..., -1]), floor[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = last / prev
        first = np.log(bound / last) / np.log(q)
    readable = (q > 0.0) & (q < 1.0) & np.isfinite(first)
    need = np.where(readable, np.maximum(np.ceil(first), 0.0) + 1.0,
                    2 * block)
    return int(min(np.max(need[open_]), _MAX_BLOCK))


def _geometric_panels(f, edges: np.ndarray, order: int, scale):
    """Sum f over the panels between consecutive `edges`, taken in order.

    f is called once per block of panels: the first _FIRST_BLOCK panels,
    then as many as _next_block predicts the slowest unstopped integrand
    needs, so a sum evaluates few nodes past its stop in few calls.
    Leading axes of the values of f are a batch of integrands, with
    `scale` broadcast against them; each integrand stops on its own
    running total, summed in panel order, so the block sizes change no
    result.  Raises QuadratureError when some integrand does not die out
    by the last edge.
    """
    floor = np.maximum(scale, 1e-300)[..., None]
    parts = []
    lo, block = 0, _FIRST_BLOCK
    n = len(edges) - 1
    while lo < n:
        hi = min(lo + block, n)
        seg = edges[lo:hi + 1]
        flip = seg[0] > seg[-1]
        nodes, weights = panel_nodes(seg[::-1] if flip else seg, order)
        values = f(nodes)
        part = np.vecdot(values.reshape(values.shape[:-1] + (-1, order)),
                         weights.reshape(-1, order))
        parts.append(part[..., ::-1] if flip else part)
        seq = np.concatenate(parts, axis=-1)
        totals = np.cumsum(seq, axis=-1)
        tiny = np.abs(seq) <= _REL_TOL * np.maximum(np.abs(totals), floor)
        pair = tiny[..., 1:] & tiny[..., :-1]
        stopped = pair.any(axis=-1)
        if stopped.all():
            stop = np.argmax(pair, axis=-1)[..., None] + 1
            return np.take_along_axis(totals, stop, axis=-1)[..., 0][()]
        lo, block = hi, _next_block(seq, totals, floor, ~stopped, block)
    raise QuadratureError(
        f"geometric panels from {edges[0]:.3e} did not die out by "
        f"{edges[-1]:.3e}")


def _check_limit(name: str, x: float) -> None:
    if not 0.0 < x < np.inf:   # nan fails both
        raise DomainError(f"{name} must be positive and finite, got {x}")


def tail_panels(f, start: float, order: int = 10, scale=0.0):
    """Integrate f over (start, inf) with geometrically widening panels.

    The first panel is [start, 2 start]; each next one is _RATIO times
    wider.  Raises DomainError unless start is positive and finite, and
    QuadratureError when the panel sequence does not die out.
    """
    _check_limit("start", start)
    widths = np.multiply.accumulate(
        np.r_[start, np.full(_MAX_PANELS - 1, _RATIO)])
    return _geometric_panels(f, np.add.accumulate(np.r_[start, widths]),
                             order, scale)


def head_panels(f, stop: float, order: int = 10, scale=0.0):
    """Integrate f over (0, stop) with panels shrinking geometrically to 0.

    Panel k is [stop / _RATIO^(k+1), stop / _RATIO^k].  Raises
    DomainError unless stop is positive and finite, and QuadratureError
    when the panel sequence does not die out.
    """
    _check_limit("stop", stop)
    edges = np.divide.accumulate(np.r_[stop, np.full(_MAX_PANELS, _RATIO)])
    return _geometric_panels(f, edges, order, scale)


def bisect_root(f, a: float, b: float, fa: float | None = None,
                fb: float | None = None) -> float:
    """Plain bisection down to floating-point resolution.

    f(a) and f(b) must have opposite signs (one may be zero).  Stops after
    200 halvings at the latest.
    """
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisection bracket does not change sign")
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def tanh_sinh_rule(a: float, b: float,
                   n_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential (tanh-sinh) nodes/weights on (a, b), with step
    3.4/n_half over 2 n_half + 1 nodes.

    Robust for integrable endpoint singularities; nodes never touch the
    endpoints.
    """
    h = 3.4 / n_half
    k = np.arange(-n_half, n_half + 1)
    t = k * h
    sk = np.sinh(t)
    x = np.tanh(0.5 * np.pi * sk)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(0.5 * np.pi * sk) ** 2
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = half * w
    keep = (nodes > a) & (nodes < b) & (weights > 1e-300)
    return nodes[keep], weights[keep]
