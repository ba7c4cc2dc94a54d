"""Arithmetic on the circle R/Z and oriented-arc bookkeeping.

Points are plain floats normalized into [0, 1).  An ``Arc`` is the open
counterclockwise interval from ``start`` to ``end``; ``start == end`` denotes
the empty arc unless the ``full`` flag marks the whole circle.  Comparisons
use an absolute tolerance of 1e-12 so that sweeps are deterministic at double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-12


def norm1(x: float) -> float:
    """Normalize into [0, 1)."""
    x = x - math.floor(x)
    return 0.0 if x >= 1.0 else x


def dist_ccw(a: float, b: float) -> float:
    """Counterclockwise distance (b - a) mod 1, with dist_ccw(a, a) = 0.

    Differences within TOL of a full turn collapse to 0 so that float fuzz on
    equal points cannot read as an almost-full loop.
    """
    d = (b - a) % 1.0
    return 0.0 if d > 1.0 - TOL else d


def circle_dist(a: float, b: float) -> float:
    """Unoriented distance on the circle."""
    d = abs((b - a) % 1.0)
    return min(d, 1.0 - d)


def circle_dist_np(a, b):
    """Vectorized circle_dist; equal to it bit for bit on every element."""
    d = np.abs(np.mod(np.subtract(b, a), 1.0))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class Arc:
    """Open ccw arc from start to end; ``full`` marks the whole circle."""

    start: float
    end: float
    full: bool = False

    @staticmethod
    def full_circle() -> "Arc":
        return Arc(0.0, 0.0, full=True)

    @staticmethod
    def from_linear(lo: float, hi: float) -> "Arc":
        """The arc of the linear interval [lo, hi], with hi - lo <= 1."""
        return Arc(norm1(lo), norm1(hi), full=hi - lo >= 1.0)

    @property
    def length(self) -> float:
        if self.full:
            return 1.0
        return dist_ccw(self.start, self.end)

    @property
    def is_empty(self) -> bool:
        return not self.full and self.length <= 0.0

    def midpoint(self) -> float:
        return norm1(self.start + self.length / 2.0)


def arc_contains(arc: Arc, p: float) -> bool:
    """Strict interior membership; endpoints excluded, full circle holds all."""
    if arc.full:
        return True
    d = dist_ccw(arc.start, norm1(p))
    return TOL < d < arc.length - TOL


def linear_pieces(arc: Arc) -> list[tuple[float, float]]:
    """The arc as linear pieces (lo, hi) of [0, 1], split at 0 if it wraps."""
    if arc.full:
        return [(0.0, 1.0)]
    if arc.is_empty:
        return []
    s, e = norm1(arc.start), norm1(arc.end)
    if s < e:
        return [(s, e)]
    pieces = [(s, 1.0)]
    if e > 0.0:
        pieces.append((0.0, e))
    return pieces


class ArcUnion:
    """Union of arcs kept as sorted disjoint intervals in linear [0, 1] coords.

    Wrap-around arcs are stored split at 0, so the linear interval (a, 1]+(0, b)
    represents the circle arc through the basepoint.  ``gaps`` re-joins the two
    complement pieces flanking 0 into one circular gap.
    """

    def __init__(self):
        self._iv: list[tuple[float, float]] = []

    def add(self, arc: Arc) -> None:
        self.add_many(linear_pieces(arc))

    def add_many(self, pieces) -> None:
        """Merge linear pieces (lo, hi) with 0 <= lo, hi <= 1; empty ones drop."""
        new = self._iv + list(pieces)
        new.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in new:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self._iv = merged

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self._iv)

    def gaps(self) -> list[Arc]:
        """Complement components, as circle arcs (the pair flanking 0 joined)."""
        if not self._iv:
            return [Arc.full_circle()]
        out = []
        for (lo1, hi1), (lo2, _) in zip(self._iv, self._iv[1:]):
            if lo2 > hi1:
                out.append(Arc(hi1, lo2))
        first_lo = self._iv[0][0]
        last_hi = self._iv[-1][1]
        wrap = (1.0 - last_hi) + first_lo
        if wrap > 0.0:
            out.append(Arc(norm1(last_hi), first_lo))
        return out

    def intervals(self) -> list[tuple[float, float]]:
        return self._iv[:]
