import numpy as np
import pytest

from hardyheat.errors import QuadratureError
from hardyheat.quadrature import (distinct_sorted, graded_edges, head_panels,
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


def test_head_refuses_non_integrable_origin():
    with pytest.raises(QuadratureError):
        head_panels(lambda x: 1.0 / x, 1.0)


def test_tail_refuses_non_integrable_tail():
    with pytest.raises(QuadratureError):
        tail_panels(lambda x: 1.0 / x, 1.0)


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


def test_graded_edges_refuses_cap():
    # 1e-300 growing by 1.7 per panel needs ~1300 panels to reach 1; the
    # old loop stopped at 400 edges and closed with one panel ~1 wide
    with pytest.raises(QuadratureError):
        graded_edges(1e-300, 1.0, 1e-300)


def test_graded_edges_layout():
    edges = graded_edges(0.0, 1.0, 0.1)
    widths = np.diff(edges)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.allclose(widths[1:-1] / widths[:-2], 1.7)
    assert widths[-1] <= 1.7 * widths[-2]


@pytest.mark.parametrize("case", ["repeats", "panel-edges", "empty", "one"])
def test_distinct_sorted_is_np_unique_bit_for_bit(case):
    rng = np.random.default_rng(3)
    x = {"repeats": rng.choice(rng.uniform(-2.0, 2.0, 40), 300),
         # overlapping layouts, as the panel edges of fracop and kernel
         "panel-edges": np.concatenate([np.geomspace(0.5, 2.0, 33),
                                        1.0 + np.linspace(-0.1, 0.1, 5),
                                        graded_edges(0.0, 1.0, 0.1)]),
         "empty": np.empty(0), "one": np.array([0.25])}[case]
    got, want = distinct_sorted(x), np.unique(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
