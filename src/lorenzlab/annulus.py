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
from dataclasses import dataclass

import numpy as np

from .circle import Arc, norm1
from .errors import ConeBoundViolated, OnDiscontinuity, PreconditionError, TrackingLost
from .maps import SNAP, MapModel, branch_lanes

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SkewModel:
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
    """Vectorized skew step; callers keep samples off the discontinuities."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    two = x >= skew.base.c_minus
    q, start, profile = branch_lanes(skew.base, two)
    t = x - start
    rho = np.sin(np.pi * t / profile.length)
    eta = np.where(two, skew.eta2, skew.eta1)
    return (q + profile.g_np(t)) % 1.0, eta + skew.kappa * rho * y


@dataclass
class ConeReport:
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
    """Step samples within SNAP of c+ or c- across it, as run_histogram does."""
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


@dataclass
class CloudResult:
    points: np.ndarray          # (n, 2) array of (x, y) samples
    raster: np.ndarray          # (height, width) uint8 hit image


def attractor_cloud(skew: SkewModel, depth: int, samples: int,
                    burn_in: int = 50, seed: int = 7,
                    seed_arc: Arc | None = None,
                    width: int = 512, height: int = 256) -> CloudResult:
    """Orbit-cloud approximation of the attractor.

    Seeds are iterated through the burn-in, then the next ``depth`` images of
    every seed are collected; fiber thickness at depth n shrinks like kappa^n.
    """
    if depth > 16:
        raise PreconditionError("depth must stay at or below 16 (2^n pieces)")
    rng = np.random.default_rng(seed)
    if seed_arc is None:
        x = rng.uniform(0.0, 1.0, samples)
    else:
        x = np.mod(seed_arc.start + rng.uniform(0.0, seed_arc.length, samples), 1.0)
    y = rng.uniform(-0.95, 0.95, samples)
    # the burn-in steps all write row 0, which the first kept step overwrites;
    # the points are a transposed view of this buffer, not a copy
    orbit = np.empty((2, max(depth, 1), samples))
    px, py = orbit
    for i in range(burn_in + len(px)):
        x, y = apply_skew_np(skew, _cross_discontinuity(skew.base, x), y)
        px[max(i - burn_in, 0)], py[max(i - burn_in, 0)] = x, y
    px, py = px.ravel(), py.ravel()

    cols = np.clip((px * width).astype(int), 0, width - 1)
    rows = np.clip(((1.0 - (py + 1.0) / 2.0) * height).astype(int), 0, height - 1)
    hits = np.bincount(rows * width + cols, minlength=height * width)
    # a pixel with k hits shows 255.0 * k / peak, read from a table of those
    # values for k = 0..peak, so no float image is held
    peak = max(hits.max(), 1)
    shade = (255.0 * np.arange(peak + 1) / peak).astype(np.uint8)
    return CloudResult(points=orbit.reshape(2, -1).T,
                       raster=shade[hits].reshape(height, width))


def leaf_span_2d(points: np.ndarray) -> Arc:
    """Arc of x-fibers met by an attractor approximation.

    Takes the (n, 2) ``points`` of an ``attractor_cloud`` and returns the
    complement of the largest circular gap between their x-coordinates; a
    full circle is reported when no gap reaches the resolution 1e-3.
    """
    xs = np.unique(np.round(points[:, 0], 12))
    if xs.size < 2:
        return Arc.full_circle()
    gaps = np.diff(xs)
    wrap = (1.0 - xs[-1]) + xs[0]
    i = int(np.argmax(gaps))
    if wrap >= gaps[i]:
        gap_lo, gap_hi, gap_len = xs[-1], xs[0], wrap
    else:
        gap_lo, gap_hi, gap_len = xs[i], xs[i + 1], gaps[i]
    if gap_len < 1e-3:
        return Arc.full_circle()
    return Arc(norm1(gap_hi), norm1(gap_lo))


# --- essential-family degree ----------------------------------------------

@dataclass
class DegreeMatrix:
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

    ``family`` maps (mu1, mu2) on the parameter torus to a MapModel; the two
    cusps are tracked continuously along the generator loops mu1 = s and
    mu2 = s (s in [0, 1], the other parameter 0), and their net signed
    windings past the upper discontinuity fill a 2x2 integer matrix.  The
    family is essential exactly when the determinant is one.
    """
    n = max(2, int(round(1.0 / step)))
    entries = [[0, 0], [0, 0]]
    for j in range(2):
        winds = [0.0, 0.0]
        prev = None
        for i in range(n + 1):
            s = i / n
            model = family(s, 0.0) if j == 0 else family(0.0, s)
            qs = (model.q1, model.q2)
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
