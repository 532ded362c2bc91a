import numpy as np
import pytest

from hardyheat.errors import DomainError, QuadratureError
from hardyheat.fracop import _integral_edges
from hardyheat.quadrature import (_MAX_PANELS, _RATIO, bisect_root,
                                  distinct_sorted, head_panels, panel_nodes,
                                  tail_panels)


def test_tail_power_law_closed_form():
    # int_1^inf x^{-1-2s} dx = 1/(2s); at s = 1/4 the panels die out
    # slowly, so the sum runs over several blocks
    s = 0.25
    sizes = []

    def f(x):
        sizes.append(len(x))
        return x ** (-1.0 - 2.0 * s)

    assert tail_panels(f, 1.0) == pytest.approx(1.0 / (2.0 * s), rel=1e-12)
    assert len(sizes) > 1 and sum(sizes) > 100 * 10


def test_head_square_root_closed_form():
    assert head_panels(np.sqrt, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def _refused_at_the_cap(panels):
    # 1/x puts the same mass in every geometric panel: all of them are
    # evaluated, then the sum is refused
    sizes = []

    def f(x):
        sizes.append(len(x))
        return 1.0 / x

    with pytest.raises(QuadratureError, match="did not die out"):
        panels(f, 1.0)
    assert sum(sizes) == _MAX_PANELS * 10


def test_head_refuses_non_integrable_origin():
    _refused_at_the_cap(head_panels)


def test_tail_refuses_non_integrable_tail():
    _refused_at_the_cap(tail_panels)


@pytest.mark.parametrize("limit", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("panels", [head_panels, tail_panels])
def test_limit_must_be_positive_and_finite(panels, limit):
    # a zero start would put every tail panel at 0, a negative one would
    # integrate from the wrong side
    with pytest.raises(DomainError, match="positive and finite"):
        panels(lambda x: np.exp(-x), limit)


def _panel_by_panel(f, edges, scale=0.0, order=10):
    """Reference for the block rule: one panel per call of f, running
    totals added in panel order, each integrand stopped after two
    consecutive panels below 1e-14 max(|total|, scale).  Returns the
    totals and, per integrand, the number of panels that stop needed."""
    floor = np.maximum(scale, 1e-300)
    total = result = needed = prev_tiny = None
    for k in range(len(edges) - 1):
        nodes, weights = panel_nodes(np.sort(edges[k:k + 2]), order)
        part = np.vecdot(f(nodes), weights)
        total = part if total is None else total + part
        tiny = np.abs(part) <= 1e-14 * np.maximum(np.abs(total), floor)
        if prev_tiny is None:
            result, needed = np.zeros(tiny.shape), np.zeros(tiny.shape, int)
        else:
            new = tiny & prev_tiny & (needed == 0)
            result = np.where(new, total, result)
            needed = np.where(new, k + 1, needed)
            if needed.all():
                return result[()], needed
        prev_tiny = tiny
    raise AssertionError("reference did not stop")


def _doubling_calls(panels):
    """Calls that blocks of 8, 16, 32, ... panels take to cover `panels`."""
    calls, block, covered = 0, 8, 0
    while covered < panels:
        calls, covered, block = calls + 1, covered + block, 2 * block
    return calls


# one 2-D batch of exponents whose six rows stop at six different panels
_EXPONENTS = np.array([[0.25, 0.5, 0.75], [0.3, 0.9, 0.6]])


@pytest.mark.parametrize("end", ["tail", "head"])
def test_blocks_match_a_panel_at_a_time_sum(end):
    # bit for bit the panel-at-a-time reference, on a 2-D batch whose rows
    # stop at different panels, one of them on a large `scale`; evaluation
    # ends within 2 panels of the slowest row's stop, in no more calls
    # than blocks of 8, 16, 32, ... would take
    e = _EXPONENTS[..., None]
    if end == "tail":
        integrand, scale = (lambda x: x ** (-1.0 - 2.0 * e)), 0.0
        edges = np.add.accumulate(np.r_[1.0, np.multiply.accumulate(
            np.r_[1.0, np.full(_MAX_PANELS - 1, _RATIO)])])
    else:
        integrand = lambda x: x ** (e - 0.5)
        scale = np.array([[0.0, 0.0, 1e20], [0.0, 1.0, 0.0]])
        edges = np.divide.accumulate(np.r_[1.0, np.full(_MAX_PANELS, _RATIO)])
    sizes = []

    def counted(x):
        sizes.append(len(x) // 10)
        return integrand(x)

    got = (tail_panels if end == "tail" else head_panels)(
        counted, 1.0, scale=scale)
    want, needed = _panel_by_panel(integrand, edges, scale)
    assert got.shape == _EXPONENTS.shape
    assert got.tobytes() == want.tobytes()
    assert len(set(needed.ravel())) == needed.size
    assert 0 <= sum(sizes) - needed.max() <= 2
    assert len(sizes) <= _doubling_calls(needed.max())


def test_batch_rows_stop_on_their_own_panels():
    # rows die out at different panels; each equals its own scalar call,
    # and one row that does not die out fails the batch
    s = np.array([0.25, 0.5, 0.75])
    batch = tail_panels(lambda x: x ** (-1.0 - 2.0 * s[:, None]), 1.0)
    single = [tail_panels(lambda x: x ** (-1.0 - 2.0 * e), 1.0) for e in s]
    assert batch.tolist() == single
    # scale broadcasts per row: 1e20 stops the last row after two panels
    head = head_panels(lambda x: x ** (s[:, None] - 0.5), 1.0,
                       scale=np.array([0.0, 0.0, 1e20]))
    assert head[0] == pytest.approx(1.0 / 0.75, rel=1e-12)
    assert head[2] == pytest.approx((1.0 - 1.6 ** -2.5) / 1.25, rel=1e-12)
    with pytest.raises(QuadratureError):
        tail_panels(lambda x: x ** -np.array([[2.0], [1.0]]), 1.0)


def test_integral_edges_layout():
    # four equal panels across the cut band |xi - 1| < d; outside it the
    # distance from xi = 1 grows by at most 1.7 per panel, to 1/2 below
    # and to 1 above
    for d in (1e-3, 1.0 / 64.0, 0.25):
        edges = _integral_edges(d)
        assert edges[0] == 0.5 and edges[-1] == 2.0
        assert np.all(np.diff(edges) > 0.0)
        band = np.flatnonzero(np.abs(edges - 1.0) <= d * (1.0 + 1e-12))
        assert len(band) == 5
        assert np.allclose(np.diff(edges[band]), 0.5 * d, rtol=1e-9)
        below = 1.0 - edges[:band[0] + 1][::-1]
        above = edges[band[-1]:] - 1.0
        for dist in (below, above):
            assert dist[0] == pytest.approx(d, rel=1e-12)
            assert np.all(dist[1:] / dist[:-1] <= 1.7 * (1.0 + 1e-12))


@pytest.mark.parametrize("case", ["repeats", "panel-edges", "empty", "one"])
def test_distinct_sorted_is_np_unique_bit_for_bit(case):
    rng = np.random.default_rng(3)
    x = {"repeats": rng.choice(rng.uniform(-2.0, 2.0, 40), 300),
         # overlapping layouts, as the panel edges of fracop and kernel
         "panel-edges": np.concatenate([np.geomspace(0.5, 2.0, 33),
                                        1.0 + np.linspace(-0.1, 0.1, 5),
                                        _integral_edges(1.0 / 64.0)]),
         "empty": np.empty(0), "one": np.array([0.25])}[case]
    got, want = distinct_sorted(x), np.unique(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bisect_root_ends_and_bracket():
    # a zero at either end is returned as it is; a bracket of one sign is
    # refused
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    with pytest.raises(ValueError, match="does not change sign"):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)
