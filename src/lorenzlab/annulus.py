"""Pinched skew-product model of the return map on the annulus S^1 x [-1, 1].

The fiber dynamics is an exact skew product over the circle map,

    P(x, y) = (f(x), eta_i + kappa * rho_i(t(x)) * y),     x in branch i,

with pinch profile rho_i(t) = sin(pi t / L_i) vanishing at both branch
endpoints, so each half-annulus maps to an essential annulus pinched at the
cusp (q_i, eta_i).  Vertical fibers map into vertical fibers, the stable
foliation is exactly vertical, and the quotient onto the circle map is a
construction rather than an estimate.

Numeric hyperbolicity checks read the derivative cocycle on a grid of x:
invariance and contraction of the horizontal cone (exact in y), horizontal
expansion, and the foliation smoothness product (fiber norm times
inverse-unstable norm times unstable norm, where the two unstable factors
cancel) staying below one.
"""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple

import numpy as np

from .circle import Arc, norm1
from .errors import ConeBoundViolated, OnDiscontinuity, PreconditionError, TrackingLost
from .maps import SNAP, MapModel, branch_lanes

TWO_PI = 2.0 * math.pi


class SkewModel(NamedTuple):
    base: MapModel
    kappa: float = 0.2
    eta1: float = 0.0
    eta2: float = 0.0

    def cone_bound(self) -> float:
        """Conservative analytic bound on the cone contraction factor."""
        min_L = min(self.base.profile1.length, self.base.profile2.length)
        return self.kappa * (math.pi / min_L + 1.0) / self.base.lambda_min


def build_skew(base: MapModel, kappa: float = 0.2, eta1: float = 0.0,
               eta2: float = 0.0) -> SkewModel:
    if kappa <= 0.0:
        raise PreconditionError(f"kappa={kappa} must be positive")
    skew = SkewModel(base=base, kappa=kappa, eta1=eta1, eta2=eta2)
    if skew.cone_bound() >= 1.0:
        raise ConeBoundViolated(
            f"kappa*(pi/min(L)+1)/lambda_min = {skew.cone_bound():.4f} >= 1")
    if kappa > 0.25:
        raise PreconditionError(f"kappa={kappa} outside (0, 0.25]")
    if abs(eta1) + kappa >= 1.0 or abs(eta2) + kappa >= 1.0:
        raise PreconditionError("spines plus fiber radius must stay inside (-1, 1)")
    return skew


def apply_skew(skew: SkewModel, p: tuple[float, float]) -> tuple[float, float]:
    x, y = norm1(p[0]), p[1]
    base = skew.base
    if base.on_discontinuity(x) is not None:
        raise OnDiscontinuity(f"x={x} is on a discontinuity")
    if x < base.c_minus:
        t, L, eta = x, base.profile1.length, skew.eta1
    else:
        t, L, eta = x - base.c_minus, base.profile2.length, skew.eta2
    return (base.f(x), eta + skew.kappa * math.sin(math.pi * t / L) * y)


def _cocycle(base: MapModel, x):
    """Per-sample base slope f'(x), pinch rho(t) = sin(pi t / L) and its
    slope rho'(t), from one gather of branch data."""
    _, start, profile = branch_lanes(base, x >= base.c_minus)
    t, L = x - start, profile.length
    return profile.dg_np(t), np.sin(np.pi * t / L), (np.pi / L) * np.cos(np.pi * t / L)


def apply_skew_np(skew: SkewModel, x, y):
    """Vectorized skew step; callers keep samples off the discontinuities.
    Each lane takes q, start, L, theta / 2 pi and eta from one two-column
    table and evaluates ``BranchProfile.g_np`` in its order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base, p1, p2 = skew.base, skew.base.profile1, skew.base.profile2
    table = np.array([[base.q1, base.q2], [0.0, base.c_minus], [p1.length, p2.length],
                      [p1.theta / TWO_PI, p2.theta / TWO_PI], [skew.eta1, skew.eta2]])
    q, start, L, k, eta = np.take(table, (x >= base.c_minus).astype(np.intp), axis=1)
    t = x - start
    rho = np.sin(np.pi * t / L)
    return (q + (t / L + k * np.sin(TWO_PI * t / L))) % 1.0, eta + skew.kappa * rho * y


class ConeReport(NamedTuple):
    worst_cone_factor: float
    min_expansion: float
    worst_product: float
    analytic_cone_bound: float
    cone_ok: bool
    expansion_ok: bool
    product_ok: bool
    analytic_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.cone_ok and self.expansion_ok and self.product_ok


def _cross_discontinuity(base: MapModel, x):
    """Step samples within SNAP of c+ or c- across it, as run_histogram does.

    Only a lane in a guard window, outside [2 SNAP, 1 - 2 SNAP] or within
    2 SNAP of c-, can be that close, so x comes back as it is when none is."""
    guard = (x < 2.0 * SNAP) | (x > 1.0 - 2.0 * SNAP) | (np.abs(x - base.c_minus) < 2.0 * SNAP)
    if not guard.any():
        return x
    bad = np.logical_or(*base.on_discontinuity_np(x))
    return np.where(bad, np.mod(x + 1e-9, 1.0), x)


def verify_cones(skew: SkewModel, grid_x: int = 1000) -> ConeReport:
    """Check the derivative cocycle on a grid of x.

    DP(x, y) = [[f', 0], [kappa rho' y, kappa rho]] with |y| <= 1.
    (a) the horizontal cone |v_y| <= |v_x| maps strictly inside itself; the
        image slope |kappa rho' y +- kappa rho| / f' of a boundary vector
        (1, +-1) is convex in y, so the cone factor, its worst at y = +-1, is
        exact in y and sampled in x;
    (b) horizontal expansion of cone vectors is at least f';
    (c) the foliation regularity product ||DP|fiber|| * ||DP^-1|E^u(image)||
        * ||DP|E^u|| stays below one.  The unstable bundle is a line, so its
        two factors cancel, leaving the fiber contraction kappa rho at the
        12th iterates of the grid (where E^u settles at rate kappa/lambda).
    The conservative analytic cone bound is reported alongside.  It exceeds
    one (flagged) only for a SkewModel built without ``build_skew``, which
    raises ConeBoundViolated on such a skew (``{"skew": {"kappa": 0.24}}``
    exits 3); every sample can still pass then.
    """
    base = skew.base
    eps = max(SNAP, 1e-6)
    x = np.linspace(eps, 1.0 - eps, grid_x)
    x = x[np.abs(x - base.c_minus) > eps]
    fprime, rho, drho = _cocycle(base, x)

    # (a) worst image slope of the cone boundary vectors at y = +-1
    k_drho, k_rho = skew.kappa * drho, skew.kappa * rho
    worst_cone = float((np.maximum(np.abs(k_drho + k_rho), np.abs(k_drho - k_rho)) / fprime).max())
    # (b) horizontal expansion of cone vectors
    min_expansion = float(fprime.min())
    # (c) fiber contraction at the 12th iterates
    for _ in range(12):
        x = base.f_np(_cross_discontinuity(base, x))
    worst_product = float(skew.kappa * _cocycle(base, x)[1].max())

    bound = skew.cone_bound()
    return ConeReport(
        worst_cone_factor=worst_cone,
        min_expansion=min_expansion,
        worst_product=worst_product,
        analytic_cone_bound=bound,
        cone_ok=worst_cone < 1.0,
        expansion_ok=min_expansion >= base.lambda_min - 1e-9,
        product_ok=worst_product < 1.0,
        analytic_bound_ok=bound < 1.0,
    )


class CloudResult(NamedTuple):
    points: np.ndarray          # (n, 2) array of (x, y) samples
    raster: np.ndarray          # (height, width) uint8 hit image


# lanes per in-place step of the cloud's state: a step's temporaries are this
# many lanes wide, whatever the cloud's size (8,192 was measured).  A slice
# steps to the bits of the whole array, as every operation of the step is
# elementwise and np.sin equals math.sin on the step's arguments, which a
# test checks
CLOUD_LANES = 8192


def cloud_blocks(skew: SkewModel, depth: int, samples: int, burn_in: int = 50,
                 seed: int = 7, seed_arc: Arc | None = None):
    """The kept points of an orbit cloud, as (x, y) blocks in row order.

    Seeds are iterated through the burn-in, then the next ``depth`` images of
    every seed are kept; fiber thickness at depth n shrinks like kappa^n.
    Rows run step by step, samples in order within a step.  The seeds are
    drawn here and the returned generator steps them in place, CLOUD_LANES
    at a time; each block it yields is a view of that state, overwritten a
    step later, so read it before asking for the next one.
    """
    if depth > 16:
        raise PreconditionError("depth must stay at or below 16 (2^n pieces)")
    # 2 x samples uniforms, the x draws then the y draws, from the stdlib
    # generator, whose random() sequence for an int seed Python keeps across
    # versions, straight into the state.  fromiter allocates it before it
    # reads the endless iterator, so a size that cannot be allocated fails
    # before any draw
    state = np.fromiter(iter(Random(seed).random, None), float, count=2 * samples)
    x, y = state[:samples], state[samples:]
    y *= 1.9
    y -= 0.95
    if seed_arc is not None:
        x *= seed_arc.length
        x += seed_arc.start
        np.mod(x, 1.0, out=x)

    def steps():
        for i in range(burn_in + max(depth, 1)):
            for lo in range(0, samples, CLOUD_LANES):
                bx, by = x[lo:lo + CLOUD_LANES], y[lo:lo + CLOUD_LANES]
                bx[:], by[:] = apply_skew_np(skew, _cross_discontinuity(skew.base, bx), by)
                if i >= burn_in:
                    yield bx, by

    return steps()


class CloudHits:
    """Hits of cloud points on a (height, width) raster, counted one block
    at a time into a 4-byte counter, which holds 2^31 - 1 hits; the CLI's
    cap on planned steps keeps a cloud below 10^7 points."""

    def __init__(self, width: int, height: int):
        self.width, self.height = width, height
        self.hits = np.zeros((height, width), dtype=np.int32)

    def add(self, x, y) -> None:
        cols = np.clip((x * self.width).astype(int), 0, self.width - 1)
        rows = np.clip(((1.0 - (y + 1.0) / 2.0) * self.height).astype(int),
                       0, self.height - 1)
        np.add.at(self.hits.ravel(), rows * self.width + cols, 1)

    def shade(self) -> np.ndarray:
        """The uint8 shade of a pixel with k hits, 255.0 * k / peak, for
        k = 0..peak: the image is this table indexed by ``hits``, so no
        float image is held.  The table is built in place, so it costs 9
        bytes per entry at its peak."""
        peak = max(int(self.hits.max()), 1)
        table = np.arange(peak + 1, dtype=float)
        table *= 255.0
        table /= peak
        return table.astype(np.uint8)

    def raster(self) -> np.ndarray:
        """The (height, width) uint8 image, ``shade()`` at every pixel."""
        return self.shade()[self.hits]


def attractor_cloud(skew: SkewModel, depth: int, samples: int,
                    burn_in: int = 50, seed: int = 7,
                    seed_arc: Arc | None = None,
                    width: int = 512, height: int = 256) -> CloudResult:
    """Orbit-cloud approximation of the attractor: every kept point of
    ``cloud_blocks`` in one (n, 2) array, with its ``CloudHits`` raster."""
    blocks = cloud_blocks(skew, depth, samples, burn_in, seed, seed_arc)
    # the points are a transposed view of this buffer, not a copy
    orbit = np.empty((2, max(depth, 1) * samples))
    hits = CloudHits(width, height)
    at = 0
    for x, y in blocks:
        orbit[0, at:at + len(x)], orbit[1, at:at + len(x)] = x, y
        hits.add(x, y)
        at += len(x)
    return CloudResult(points=orbit.T, raster=hits.raster())


# buckets of width 1/LEAF_BUCKETS for leaf_span_2d's x extremes, and the
# points whose x it buckets per pass
LEAF_BUCKETS = 1024
LEAF_BLOCK = 8192


class LeafBuckets:
    """The least and greatest x, rounded to 12 digits, of each bucket
    [k, k + 1) / 1024 met by the blocks of x added so far; ``span`` reads
    ``leaf_span_2d``'s arc from them."""

    def __init__(self):
        self.lo = np.full(LEAF_BUCKETS + 1, np.inf)     # x rounded to 1.0 is bucket 1024
        self.hi = np.full(LEAF_BUCKETS + 1, -np.inf)

    def add(self, x) -> None:
        xs = np.round(x, 12)
        bucket = (xs * LEAF_BUCKETS).astype(np.intp)
        np.minimum.at(self.lo, bucket, xs)
        np.maximum.at(self.hi, bucket, xs)

    def span(self) -> Arc:
        met = self.lo <= self.hi
        lo, hi = self.lo[met], self.hi[met]
        if lo.size == 0 or hi[-1] == lo[0]:             # fewer than two values
            return Arc.full_circle()
        gaps = lo[1:] - hi[:-1]
        wrap = (1.0 - hi[-1]) + lo[0]
        if gaps.size == 0 or wrap >= gaps.max():
            gap_lo, gap_hi, gap_len = hi[-1], lo[0], wrap
        else:
            i = int(np.argmax(gaps))
            gap_lo, gap_hi, gap_len = hi[i], lo[i + 1], gaps[i]
        if gap_len < 1e-3:
            return Arc.full_circle()
        return Arc(norm1(gap_hi), norm1(gap_lo))


def leaf_span_2d(points: np.ndarray) -> Arc:
    """Arc of x-fibers met by an attractor approximation.

    Takes the (n, 2) ``points`` of an ``attractor_cloud``, x in [0, 1), and
    returns the complement of the largest circular gap between their
    x-coordinates rounded to 12 digits; a full circle is reported when no
    gap reaches the resolution 1e-3.

    Only the least and greatest x of each bucket [k, k + 1) / 1024 are kept
    (``LeafBuckets``).  A bucket is narrower than 1e-3 and x * 1024 is
    exact, so every gap of 1e-3 or more lies between consecutive met
    buckets, between the same two values that a sort of all x would put side
    by side.
    """
    leaf = LeafBuckets()
    for start in range(0, len(points), LEAF_BLOCK):
        leaf.add(points[start:start + LEAF_BLOCK, 0])
    return leaf.span()


# --- essential-family degree ----------------------------------------------

class DegreeMatrix(NamedTuple):
    entries: tuple[tuple[int, int], tuple[int, int]]

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    @property
    def essential(self) -> bool:
        return self.determinant == 1


def family_degree(family, step: float = 1e-3) -> DegreeMatrix:
    """Winding matrix of the cusp-position map of a torus family.

    ``family`` maps (mu1, mu2) on the parameter torus to the cusp pair
    (q1, q2) of its model there; the two cusps are tracked continuously along
    the generator loops mu1 = s and mu2 = s (s in [0, 1], the other parameter
    0), and their net signed windings past the upper discontinuity fill a 2x2
    integer matrix.  The family is essential exactly when the determinant is
    one.
    """
    n = max(2, int(round(1.0 / step)))
    entries = [[0, 0], [0, 0]]
    for j in range(2):
        winds = [0.0, 0.0]
        prev = None
        for i in range(n + 1):
            s = i / n
            qs = family(s, 0.0) if j == 0 else family(0.0, s)
            if prev is not None:
                for k in range(2):
                    d = (qs[k] - prev[k] + 0.5) % 1.0 - 0.5
                    if abs(d) > 0.25:
                        raise TrackingLost(
                            f"cusp {k + 1} jumped {d:.3f} along loop {j + 1}")
                    winds[k] += d
            prev = qs
        for k in range(2):
            total = winds[k]
            if abs(total - round(total)) > 1e-2:
                raise TrackingLost(
                    f"non-integer winding {total:.4f} for cusp {k + 1}")
            entries[k][j] = int(round(total))
    return DegreeMatrix(entries=(tuple(entries[0]), tuple(entries[1])))
