"""The two-branch, degree-2, uniformly expanding circle map family.

The circle carries two marked points: c+ = 0 (image of the upper stable leaf)
and c- in (0, 1).  Branch 1 lives on the arc (0, c-), branch 2 on (c-, 1);
each branch wraps once around the circle, with one-sided limits pinching to a
single cusp value per branch: q1 = alpha for branch 1, q2 = beta for branch 2.
Branch profiles are a sinusoidal blend

    g_i(t) = t / L_i + (theta_i / 2 pi) sin(2 pi t / L_i),     t in [0, L_i],

so the slope is (1/L_i)(1 + theta_i cos(2 pi t / L_i)) >= (1 - theta_i)/L_i.
The default asymmetric choice theta1 = 0.15, theta2 = 0 keeps branch 2 affine
(closed-form fixed point p2 = 1 - beta when c- = 1/2) while preventing the
degenerate coincidence of the two heteroclinic loci that an all-affine family
exhibits.

Uniform expansion must exceed the golden ratio PHI; that bound powers every
segment-growth argument downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circle import circle_dist, dist_ccw, norm1
from .errors import DegenerateArc, ExpansionTooWeak, OnStratum

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Points within SNAP of a codimension-one locus are treated as sitting on it;
# keeps the classification and the signed-point automaton deterministic.
SNAP = 1e-9

# Bracket width at which the fixed-point and branch-inverse bisections stop;
# those roots (and a*, b*, which are branch inverses) carry at most this error.
ROOT_TOL = 1e-12
TWO_PI = 2.0 * math.pi

PLUS = 1
MINUS = -1


class ModelParams(NamedTuple):
    alpha: float
    beta: float
    c_minus: float = 0.5
    theta1: float = 0.15
    theta2: float = 0.0


class SignedPoint(NamedTuple):
    """A circle point with a one-sided marker (+1 right limit, -1 left)."""

    x: float
    side: int = PLUS


@dataclass(frozen=True)
class BranchProfile:
    """Monotone wrap profile g: [0, L] -> [0, 1] of one branch."""

    length: float
    theta: float

    def g(self, t: float) -> float:
        return t / self.length + (self.theta / TWO_PI) * math.sin(TWO_PI * t / self.length)

    def g_np(self, t):
        return t / self.length + (self.theta / TWO_PI) * np.sin(TWO_PI * t / self.length)

    def dg_np(self, t):
        return (1.0 + self.theta * np.cos(TWO_PI * t / self.length)) / self.length

    @property
    def min_slope(self) -> float:
        return (1.0 - self.theta) / self.length


@dataclass(frozen=True)
class MapModel:
    """Built model with cached cusps and slope bounds.

    a_star / b_star are the unique interior solutions of f = 0 on each branch
    (None when the cusp lies within SNAP of c+, on either side, in which case
    the corresponding itinerary region degenerates); they are solved on first
    access, since only the symbolic layer reads them.  Immutable.
    """

    params: ModelParams
    c_minus: float
    q1: float
    q2: float
    profile1: BranchProfile
    profile2: BranchProfile
    lambda_min: float

    @functools.cached_property
    def a_star(self) -> float | None:
        if circle_dist(self.q1, 0.0) <= SNAP:
            return None
        return _bisect_lift(self, 1, 1.0, 0.0, self.c_minus)

    @functools.cached_property
    def b_star(self) -> float | None:
        if circle_dist(self.q2, 0.0) <= SNAP:
            return None
        return _bisect_lift(self, 2, 1.0, self.c_minus, 1.0)

    # -- branch geometry ---------------------------------------------------

    def branch_of(self, x: float) -> int:
        return 1 if 0.0 <= x < self.c_minus else 2

    def lift(self, branch: int, x: float) -> float:
        """Lifted branch value: branch i maps onto [q_i, q_i + 1]."""
        if branch == 1:
            return self.q1 + self.profile1.g(x)
        return self.q2 + self.profile2.g(x - self.c_minus)

    def f(self, x: float) -> float:
        """``norm1(lift(branch_of(x), x))`` inlined: every scalar orbit runs it."""
        if 0.0 <= x < self.c_minus:
            y = self.q1 + self.profile1.g(x)
        else:
            y = self.q2 + self.profile2.g(x - self.c_minus)
        y -= math.floor(y)
        return 0.0 if y >= 1.0 else y

    def f_np(self, x):
        """Vectorized map; callers keep samples off the two discontinuities."""
        x = np.asarray(x, dtype=float)
        q, start, profile = branch_lanes(self, x >= self.c_minus)
        return (q + profile.g_np(x - start)) % 1.0

    def on_discontinuity(self, x: float) -> float | None:
        """Return the discontinuity (0 or c-) that x sits within SNAP of, if any:
        ``circle_dist(x, p) <= SNAP`` inlined, with d = (p - x) mod 1."""
        d = (0.0 - x) % 1.0
        if d <= SNAP or 1.0 - d <= SNAP:
            return 0.0
        d = (self.c_minus - x) % 1.0
        if d <= SNAP or 1.0 - d <= SNAP:
            return self.c_minus
        return None

    def on_discontinuity_np(self, x):
        """Lane-wise ``on_discontinuity``: the masks of the lanes within SNAP
        of c+ and of those within SNAP of c-."""
        d = (0.0 - x) % 1.0
        plus = (d <= SNAP) | (1.0 - d <= SNAP)
        d = (self.c_minus - x) % 1.0
        return plus, (d <= SNAP) | (1.0 - d <= SNAP)


def bisect_increasing(fn, target: float, lo: float, hi: float,
                      tol: float = 0.0) -> float:
    """Solve fn(x) = target for fn increasing, with fn(lo) < target <= fn(hi).

    Halves the bracket until it is at most tol wide or, with tol = 0, until
    its midpoint no longer splits it (float resolution).  A midpoint where fn
    hits target exactly is returned at once.  This is the package's only
    scalar root finder; ``bisect_increasing_np`` copies it lane by lane.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        value = fn(mid)
        if value == target:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_lift(model: MapModel, branch: int, target: float,
                 lo: float, hi: float) -> float:
    """Solve lift(branch, x) = target on [lo, hi], clamped to the ends."""
    if target <= model.lift(branch, lo):
        return lo
    if target >= model.lift(branch, hi):
        return hi
    return bisect_increasing(lambda x: model.lift(branch, x), target, lo, hi, ROOT_TOL)


def bisect_increasing_np(fn, target, lo, hi):
    """Lane-wise ``_bisect_lift``: solve fn(x) = target on [lo, hi] in each lane.

    fn maps an array holding one point per lane to the lanes' values and is
    increasing in each lane.  A lane whose target is at or below fn(lo)
    returns lo, one at or above fn(hi) returns hi; every other lane follows
    ``bisect_increasing`` at ROOT_TOL, so each lane equals the scalar result
    bit for bit when fn does: a lane clamped at an end or hit exactly
    collapses lo and hi onto that value, one at most ROOT_TOL wide or at
    float resolution stops moving, and every lane returns 0.5 * (lo + hi).
    """
    target = np.asarray(target, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    at_lo, at_hi = target <= fn(lo), target >= fn(hi)
    hi = np.where(at_lo, lo, hi)
    lo = np.where(at_hi, hi, lo)
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > ROOT_TOL) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        value = fn(mid)
        lo = np.where(active & (value <= target), mid, lo)
        hi = np.where(active & ~(value < target), mid, hi)


def branch_lanes(model: MapModel, two):
    """Per-lane branch data for lanes marked True in ``two`` on branch 2 and
    the rest on branch 1: the cusp value q, the branch start, and one
    ``BranchProfile`` whose length and theta are per-lane arrays, so a lane's
    branch is evaluated with one ``g_np`` or ``dg_np`` call over all lanes."""
    p1, p2 = model.profile1, model.profile2
    q = np.where(two, model.q2, model.q1)
    start = np.where(two, model.c_minus, 0.0)
    profile = BranchProfile(np.where(two, p2.length, p1.length),
                            np.where(two, p2.theta, p1.theta))
    return q, start, profile


def lift_np(model: MapModel, branch):
    """Vectorized ``model.lift`` for lanes on the given branches (1 or 2 each).

    Gathers each lane's branch data once and returns a function of one point
    per lane.  It equals ``model.lift`` bit for bit only while ``np.sin``
    equals ``math.sin`` on the profile arguments; a test checks that on the
    default model.
    """
    q, start, profile = branch_lanes(model, np.asarray(branch) == 2)
    return lambda x: q + profile.g_np(x - start)


def build_model(params: ModelParams) -> MapModel:
    """Validate parameters and cache cusp data; the minimal slope must
    exceed PHI, the floor of the golden-ratio lemma, or ExpansionTooWeak."""
    c = params.c_minus
    if not (0.0 < c < 1.0):
        raise DegenerateArc(f"c_minus={c} must lie strictly inside (0, 1)")
    L1, L2 = c, 1.0 - c
    prof1 = BranchProfile(L1, params.theta1)
    prof2 = BranchProfile(L2, params.theta2)
    lambda_min = min(prof1.min_slope, prof2.min_slope)
    if lambda_min <= PHI:
        raise ExpansionTooWeak(f"minimal slope {lambda_min:.6g} <= required {PHI:.6g}")
    q1, q2 = norm1(params.alpha), norm1(params.beta)
    return MapModel(
        params=params, c_minus=c, q1=q1, q2=q2,
        profile1=prof1, profile2=prof2,
        lambda_min=lambda_min)


def eval_signed(model: MapModel, sp: SignedPoint) -> SignedPoint:
    """One step of the map on signed points.

    Interior points map to (f(x), side).  On the discontinuities the one-sided
    limits follow the automaton

        (c+, +) -> (q1, +)   (c+, -) -> (q2, -)
        (c-, +) -> (q2, +)   (c-, -) -> (q1, -),

    and sides are preserved everywhere (both branches preserve orientation).
    """
    x = norm1(sp.x)
    disc = model.on_discontinuity(x)
    if disc is None:
        return SignedPoint(model.f(x), sp.side)
    if disc == 0.0:
        return SignedPoint(model.q1 if sp.side == PLUS else model.q2, sp.side)
    return SignedPoint(model.q2 if sp.side == PLUS else model.q1, sp.side)


def inverse_branch(model: MapModel, branch: int, y: float) -> float | None:
    """Unique preimage of y in the open branch arc; None at the cusp value.

    The cusp value q_i is the shared limit of both branch endpoints, so it has
    no interior preimage.
    """
    y = norm1(y)
    q = model.q1 if branch == 1 else model.q2
    if circle_dist(y, q) <= ROOT_TOL:
        return None
    target = q + dist_ccw(q, y)
    if branch == 1:
        return _bisect_lift(model, 1, target, 0.0, model.c_minus)
    return _bisect_lift(model, 2, target, model.c_minus, 1.0)


class FixedPoints(NamedTuple):
    p1: float | None
    p2: float | None


def branch_fixed_point(model: MapModel, branch: int) -> float | None:
    """Fixed point of one branch; it exists iff the cusp q_i lies in the other arc.

    On the lifted branches: lift_1(x) = x + 1 brackets a root on [0, c-] iff
    q1 > c-, and lift_2(x) = x brackets one on [c-, 1] iff q2 < c-.  p1 reads
    only q1 (alpha) and p2 only q2 (beta).
    """
    c = model.c_minus
    if branch == 1:
        if model.q1 <= c:
            return None
        return bisect_increasing(lambda x: model.lift(1, x) - x - 1.0, 0.0, 0.0, c, ROOT_TOL)
    if model.q2 >= c:
        return None
    return bisect_increasing(lambda x: model.lift(2, x) - x, 0.0, c, 1.0, ROOT_TOL)


def fixed_points(model: MapModel) -> FixedPoints:
    """Both branch fixed points; refuses a cusp on a homoclinic stratum."""
    c = model.c_minus
    for name, q in (("q1", model.q1), ("q2", model.q2)):
        if circle_dist(q, 0.0) <= SNAP or circle_dist(q, c) <= SNAP:
            raise OnStratum(f"{name}={q} sits on a homoclinic stratum")
    return FixedPoints(branch_fixed_point(model, 1), branch_fixed_point(model, 2))


class HypothesesReport(NamedTuple):
    wrap_ok: bool
    monotone_ok: bool
    expansion_ok: bool
    pinch_ok: bool
    lambda_min: float
    lambda_required: float
    failures: list

    @property
    def all_ok(self) -> bool:
        return self.wrap_ok and self.monotone_ok and self.expansion_ok and self.pinch_ok


def verify_hypotheses(model: MapModel) -> HypothesesReport:
    """Check the return-map hypotheses: single wrap per branch, strict
    monotonicity, expansion above PHI (reported as lambda_required) and the
    pinch identities at c+ and c-.  Monotonicity is exact: (1 - theta)/L,
    the minimum of dg on [0, L] (reached at t = L/2), must be positive."""
    failures = []

    wrap_ok = True
    for name, prof in (("branch1", model.profile1), ("branch2", model.profile2)):
        if abs(prof.g(0.0)) > 1e-10 or abs(prof.g(prof.length) - 1.0) > 1e-10:
            wrap_ok = False
            failures.append(f"{name} does not wrap exactly once")

    monotone_ok = min(model.profile1.min_slope, model.profile2.min_slope) > 0.0
    if not monotone_ok:
        failures.append("branch slope is not strictly positive")

    expansion_ok = model.lambda_min > PHI
    if not expansion_ok:
        failures.append(f"lambda_min={model.lambda_min:.6g} <= {PHI:.6g}")

    # one-sided limits at the endpoints of each branch arc pinch to the cusps
    pinch_pairs = [
        (model.lift(1, 0.0) % 1.0, model.q1),
        (model.lift(1, model.c_minus) % 1.0, model.q1),
        (model.lift(2, model.c_minus) % 1.0, model.q2),
        (model.lift(2, 1.0) % 1.0, model.q2),
    ]
    pinch_ok = all(circle_dist(a, b) <= 1e-10 for a, b in pinch_pairs)
    if not pinch_ok:
        failures.append("branch endpoint limits do not pinch to the cusp values")

    return HypothesesReport(
        wrap_ok=wrap_ok, monotone_ok=monotone_ok, expansion_ok=expansion_ok,
        pinch_ok=pinch_ok, lambda_min=model.lambda_min,
        lambda_required=PHI, failures=failures)


# --- singularity eigenvalue checks ---------------------------------------

class EigenvalueTriple(NamedTuple):
    lambda_ss: float
    lambda_s: float
    lambda_u: float


class SingularityReport(NamedTuple):
    lorenz_like: bool
    resonances: list

    @property
    def non_resonant(self) -> bool:
        return not self.resonances


def check_singularity_conditions(eigs: EigenvalueTriple, N: int,
                                 tol: float = 1e-9) -> SingularityReport:
    """Lorenz-like ordering and non-resonance of a singularity spectrum.

    Lorenz-like: lambda_ss < lambda_s < 0 < -lambda_s < lambda_u < -lambda_ss.
    Non-resonance: no nonnegative integers (m1, m2, m3) with 2 <= sum(m) < N
    satisfy |sum_j m_j lambda_j - lambda_i| <= tol for any i.
    """
    if N < 3:
        raise ValueError("N must be at least 3")
    ls, lm, lu = eigs.lambda_ss, eigs.lambda_s, eigs.lambda_u
    lorenz_like = ls < lm < 0.0 < -lm < lu < -ls

    lam = (ls, lm, lu)
    resonances = []
    for m in itertools.product(range(N), repeat=3):
        s = sum(m)
        if not 2 <= s < N:
            continue
        value = m[0] * ls + m[1] * lm + m[2] * lu
        for i, li in enumerate(lam):
            if abs(value - li) <= tol:
                resonances.append((m, i, value))
    return SingularityReport(lorenz_like=lorenz_like, resonances=resonances)
