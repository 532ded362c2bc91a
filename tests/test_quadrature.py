import numpy as np
import pytest

from hardyheat.errors import QuadratureError
from hardyheat.quadrature import graded_edges, head_panels, tail_panels


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
