import numpy as np
import pytest

from lorenzlab.circle import Arc, ArcUnion, arc_contains, dist_ccw, linear_pieces, norm1


def test_dist_ccw_basic():
    assert dist_ccw(0.2, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert dist_ccw(0.7, 0.2) == pytest.approx(0.5, abs=1e-12)
    assert dist_ccw(0.3, 0.3) == 0.0


def test_dist_ccw_complement():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = rng.uniform(0, 1, 2)
        if abs(a - b) < 1e-9:
            continue
        assert dist_ccw(a, b) + dist_ccw(b, a) == pytest.approx(1.0, abs=1e-12)


def test_arc_contains():
    wrap = Arc(0.9, 0.2)
    assert arc_contains(wrap, 0.05)
    assert not arc_contains(wrap, 0.5)
    assert not arc_contains(Arc(0.3, 0.3), 0.3)
    assert arc_contains(Arc.full_circle(), 0.123)


def test_arc_union_gaps():
    u = ArcUnion()
    u.add(Arc(0.1, 0.4))
    u.add(Arc(0.6, 0.9))
    gaps = sorted(u.gaps(), key=lambda g: g.start)
    assert len(gaps) == 2
    assert gaps[0].start == pytest.approx(0.4)
    assert gaps[0].end == pytest.approx(0.6)
    # complement gap through the basepoint is reported as a single arc
    assert gaps[1].start == pytest.approx(0.9)
    assert gaps[1].end == pytest.approx(0.1)
    assert u.total_length == pytest.approx(0.6, abs=1e-12)


def test_arc_union_wrap_merge():
    u = ArcUnion()
    u.add(Arc(0.9, 0.1))
    assert u.total_length == pytest.approx(0.2, abs=1e-12)
    (g,) = u.gaps()
    assert g.start == pytest.approx(0.1)
    assert g.end == pytest.approx(0.9)


def test_norm1():
    assert norm1(1.0) == 0.0
    assert norm1(-0.25) == pytest.approx(0.75)
    assert 0.0 <= norm1(123.456) < 1.0


def test_linear_pieces_and_back():
    assert linear_pieces(Arc(0.2, 0.7)) == [(0.2, 0.7)]
    assert linear_pieces(Arc(0.9, 0.1)) == [(0.9, 1.0), (0.0, 0.1)]
    assert linear_pieces(Arc(0.9, 0.0)) == [(0.9, 1.0)]
    assert linear_pieces(Arc.full_circle()) == [(0.0, 1.0)]
    assert linear_pieces(Arc(0.3, 0.3)) == []
    assert Arc.from_linear(0.2, 0.7) == Arc(0.2, 0.7)
    assert Arc.from_linear(0.9, 1.0) == Arc(0.9, 0.0)
    assert Arc.from_linear(0.0, 1.0) == Arc(0.0, 0.0, full=True)
