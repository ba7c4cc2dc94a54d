"""Parameter-space atlas and certificate-producing analyses.

Classifies a model into the bifurcation strata cut out by the homoclinic loci
(a cusp on one of the discontinuities) and the heteroclinic loci (a cusp on a
branch fixed point), assigns the dynamical verdict of the corresponding
theorem, and produces machine-checkable evidence: coverage certificates from
the segment-iteration engine, forward-invariant trapping intervals, Markov
crossing certificates for the orientation-preserving (fake) horseshoe, and
attractor leaf spans.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circle import (
    Arc,
    ArcUnion,
    arc_contains,
    circle_dist,
    circle_dist_np,
    dist_ccw,
    linear_pieces,
    norm1,
)
from .errors import (
    ArcBudgetExceeded,
    LambdaBelowPhi,
    NotMarkov,
    NoTrappingInterval,
    PreconditionError,
)
from .maps import (
    PHI,
    SNAP,
    MapModel,
    ModelParams,
    branch_fixed_point,
    build_model,
    inverse_branch,
)

# stratum labels
O_MM = "O--"
O_PM = "O+-"
O_MP = "O-+"
O_PP_LPLUS = "O++_Lplus"
O_PP_LMINUS = "O++_Lminus"
O_PP_TILDE = "O++_tilde"
H1P, H1M, H2P, H2M = "H1+", "H1-", "H2+", "H2-"
H12P, H12M = "H12+", "H12-"
HE1, HE2, HE1_AND_HE2 = "HE1", "HE2", "HE1andHE2"
DEGENERATE = "Degenerate"

STRATA = (O_MM, O_PM, O_MP, O_PP_LPLUS, O_PP_LMINUS, O_PP_TILDE,
          H1P, H1M, H2P, H2M, H12P, H12M, HE1, HE2, HE1_AND_HE2, DEGENERATE)
HOMOCLINIC = (H1P, H1M, H2P, H2M, H12P, H12M)

# dynamics labels
TWO_SIDED = "TwoSided"
UP_LORENZ = "UpLorenzPlusFakeHorseshoe"
DOWN_LORENZ = "DownLorenzPlusFakeHorseshoe"
FAT_LORENZ = "FatLorenz"
COLLISION = "CollisionBoundary"
DOUBLE_FULL = "DoubleFullLorenz"

STRATUM_DYNAMICS = {
    O_MM: TWO_SIDED, O_PM: TWO_SIDED, O_MP: TWO_SIDED, O_PP_TILDE: TWO_SIDED,
    O_PP_LPLUS: UP_LORENZ, O_PP_LMINUS: DOWN_LORENZ,
    H1P: TWO_SIDED, H1M: TWO_SIDED, H2P: TWO_SIDED, H2M: TWO_SIDED,
    H12P: FAT_LORENZ, H12M: FAT_LORENZ,
    HE1: COLLISION, HE2: COLLISION, HE1_AND_HE2: DOUBLE_FULL,
    DEGENERATE: DOUBLE_FULL,
}


class RegionVerdict(NamedTuple):
    stratum: str
    margin: float
    dynamics: str
    p1: float | None = None
    p2: float | None = None
    sigma_plus: Arc | None = None
    sigma_minus: Arc | None = None


def classify_grid(params: ModelParams, alphas, betas):
    """Stratum label, margin to the nearest stratum and fixed points of the
    models at (alphas, betas), broadcast against each other.

    A row of alphas and a column of betas give a sweep grid; two vectors of
    equal length give a path.  Returns (stratum, margin, p1, p2), float64
    arrays of the broadcast shape except stratum, which holds indices into
    STRATA; a missing fixed point is NaN.  p1 reads only alpha and p2 only
    beta, so each is solved once per element of its input.

    The rule, first match wins: a cusp within SNAP of a discontinuity is
    homoclinic (H12 when both cusps sit on the same one, else H1 before H2).
    Otherwise the fixed points decide the quadrant, and in the doubly-fixed
    quadrant the heteroclinic loci HE1 {q1 = p2} and HE2 {q2 = p1} (a cusp
    within SNAP of the other branch's fixed point) come next.  These two
    collision curves cut the rest of the quadrant in three: L+ where both
    cusps lie in sigma+ = (p2, p1), that is q1 > p2 and q2 < p1, L- where
    neither does, and tilde otherwise.  The margin is the least
    cusp-to-discontinuity distance, and off the homoclinic loci in the
    doubly-fixed quadrant also the least heteroclinic distance.  SNAP is also
    the distance at which ``maps.fixed_points`` refuses a homoclinic cusp, so
    that refusal is never reached from here.
    """
    c = params.c_minus
    alphas, betas = np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float)
    cols = [build_model(params._replace(alpha=a)) for a in alphas.ravel().tolist()]
    rows = [build_model(params._replace(beta=b)) for b in betas.ravel().tolist()]
    # a missing fixed point (None) becomes NaN; only the ++ cases read p1, p2
    q1 = np.array([m.q1 for m in cols]).reshape(alphas.shape)
    p1 = np.array([branch_fixed_point(m, 1) for m in cols], dtype=float).reshape(alphas.shape)
    q2 = np.array([m.q2 for m in rows]).reshape(betas.shape)
    p2 = np.array([branch_fixed_point(m, 2) for m in rows], dtype=float).reshape(betas.shape)

    d1p, d1m = circle_dist_np(q1, 0.0), circle_dist_np(q1, c)
    d2p, d2m = circle_dist_np(q2, 0.0), circle_dist_np(q2, c)
    h1p, h1m, h2p, h2m = d1p <= SNAP, d1m <= SNAP, d2p <= SNAP, d2m <= SNAP
    plus1, plus2 = q1 > c, q2 < c
    he1_d = circle_dist_np(q1, p2)
    he2_d = circle_dist_np(q2, p1)
    he1, he2 = he1_d <= SNAP, he2_d <= SNAP
    # sigma+ = (p2, p1) runs through c+, as p1 < c- < p2 in the ++ quadrant,
    # so q1 > c- lies in it exactly when q1 > p2, and q2 < c- when q2 < p1
    in1, in2 = q1 > p2, q2 < p1
    symmetric = params.theta1 == params.theta2 and abs(c - 0.5) <= SNAP

    # a mixed double loop (each cusp on a different discontinuity) lies in H1
    # off the same-side codimension-2 loci, so H1's two-sided verdict applies
    cases = [
        (h1p & h2p, H12P), (h1m & h2m, H12M), (h1p, H1P), (h1m, H1M),
        (h2p, H2P), (h2m, H2M),
        (~plus1 & ~plus2, O_MM), (plus1 & ~plus2, O_PM), (~plus1 & plus2, O_MP),
        (he1 & he2, DEGENERATE if symmetric else HE1_AND_HE2),
        (he1, HE1), (he2, HE2),
        (in1 & in2, O_PP_LPLUS), (~in1 & ~in2, O_PP_LMINUS),
    ]
    stratum = np.select([cond for cond, _ in cases],
                        [STRATA.index(label) for _, label in cases],
                        STRATA.index(O_PP_TILDE))

    h_margin = np.minimum(np.minimum(d1p, d1m), np.minimum(d2p, d2m))
    pp_margin = np.minimum(h_margin, np.minimum(he1_d, he2_d))
    on_h = h1p | h1m | h2p | h2m
    margin = np.where(plus1 & plus2 & ~on_h, pp_margin, h_margin)
    return (stratum, margin, np.broadcast_to(p1, stratum.shape),
            np.broadcast_to(p2, stratum.shape))


def region_verdicts(grid) -> list[RegionVerdict]:
    """The RegionVerdict of every cell of a ``classify_grid`` result, in
    row-major order.  Homoclinic cells carry no fixed points, the other
    two-sided quadrants carry p1 and p2 (None where missing), and the ++
    cells also carry sigma+ = (p2, p1) and sigma- = (p1, p2)."""
    verdicts = []
    for k, margin, p1, p2 in zip(*(a.ravel().tolist() for a in grid)):
        label = STRATA[k]
        fixed = sigma = ()
        if label not in HOMOCLINIC:
            fixed = tuple(None if math.isnan(p) else p for p in (p1, p2))
            if label not in (O_MM, O_PM, O_MP):
                sigma = (Arc(p2, p1), Arc(p1, p2))
        verdicts.append(RegionVerdict(label, margin, STRATUM_DYNAMICS[label],
                                      *fixed, *sigma))
    return verdicts


def classify(model: MapModel) -> RegionVerdict:
    """Stratum label, dynamical verdict, margin to the nearest stratum and
    fixed points of one model: ``classify_grid`` on its one cell."""
    p = model.params
    return region_verdicts(classify_grid(p, p.alpha, p.beta))[0]


class GoldenBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def golden_bound(l_ab: float, l_bc: float, lam: float) -> GoldenBound:
    """max(lam*|ab|, lam^2*|bc|) >= (lam/phi)(|ab|+|bc|) whenever lam >= phi."""
    if lam < PHI - 1e-12:
        raise LambdaBelowPhi(f"lambda={lam} below the golden ratio")
    lhs = max(lam * l_ab, lam * lam * l_bc)
    rhs = (lam / PHI) * (l_ab + l_bc)
    return GoldenBound(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-12)


# --- segment-iteration engine ---------------------------------------------

ARC_BUDGET = 1_000_000


class CoverageCertificate(NamedTuple):
    seed: Arc
    iterations_used: int
    covered_fraction: float
    missed_points: list[float]
    terminal_arcs: list[Arc]
    gap_arcs: list[Arc]
    history: list[float]


def _branch_images(model: MapModel, lo: float, hi: float):
    """Images of the linear interval [lo, hi] of [0, 1], split at c-.

    Each piece takes the branch of its left end, as ``branch_of`` decides it,
    and yields (lift(lo) mod 1, lift(hi) - lift(lo)): the start of its image
    and the image length.  Ends evaluated through the branch lift give the
    one-sided cusp limits at a discontinuity.
    """
    c = model.c_minus
    cuts = (lo, c, hi) if lo < c < hi else (lo, hi)
    for a, b in zip(cuts, cuts[1:]):
        branch = model.branch_of(a)
        start = model.lift(branch, a)
        yield start % 1.0, model.lift(branch, b) - start


def iterate_segments(model: MapModel, seed: Arc, maxN: int, eps: float) -> CoverageCertificate:
    """Iterate a family of arcs branchwise and accumulate the covered union.

    Each step splits every arc at the two discontinuities, maps the pieces
    through the branch lifts, and merges the images into both the running
    family and the accumulated union.  Stops when the complement of the union
    has total length below eps, when the merged family repeats (no later step
    could then change the union, its gaps or the terminal arcs), or after
    maxN steps; ``history`` holds the covered length before the first step
    and after each step taken.  Complement components
    shorter than eps are reported as isolated missed points.  Nothing is
    clipped: ``attractor_span`` seeds inside a certified trapping interval,
    and the certificate's positive margin keeps every iterate there.
    """
    union = ArcUnion()
    union.add(seed)
    family = union.intervals()
    history = [union.total_length]
    for step in range(1, maxN + 1):
        pieces = []
        for lo, hi in family:
            for start, length in _branch_images(model, lo, hi):
                end = start + length
                if end <= 1.0:
                    pieces.append((start, end))
                else:
                    pieces += [(start, 1.0), (0.0, end - 1.0)]
        if len(pieces) > ARC_BUDGET:
            raise ArcBudgetExceeded(f"{len(pieces)} arcs at step {step}")
        merged = ArcUnion()
        merged.add_many(pieces)
        if merged.intervals() == family:
            # the map is deterministic, so every later family is this one
            break
        # a merged union is canonical and copies its endpoints, so adding the
        # merged family gives the union that adding the raw pieces would
        family = merged.intervals()
        union.add_many(family)
        history.append(union.total_length)
        if 1.0 - history[-1] < eps:
            break

    gaps = union.gaps()
    missed = [g.midpoint() for g in gaps if g.length < eps]
    # a discontinuity is a permanent puncture iff both cusps sit on it: it
    # then has no interior preimage and no image arc ever crosses it
    for d in (0.0, model.c_minus):
        if (circle_dist(model.q1, d) <= SNAP and circle_dist(model.q2, d) <= SNAP
                and all(circle_dist(m, d) > SNAP for m in missed)):
            missed.append(d)
    terminal = [Arc.from_linear(lo, hi) for lo, hi in family]
    return CoverageCertificate(
        seed=seed, iterations_used=len(history) - 1, covered_fraction=history[-1],
        missed_points=missed, terminal_arcs=terminal,
        gap_arcs=gaps, history=history)


# --- trapping and horseshoe certificates ----------------------------------

class TrappingCertificate(NamedTuple):
    l1: float
    l2: float
    R_L: Arc
    invariance_margin: float


def _clearance(model: MapModel, region: Arc) -> float:
    """Exact clearance of f(region minus its discontinuity) inside region.

    Both branches are increasing, so the pieces on either side of the
    discontinuity d that region contains map onto two arcs, from f(start) to
    the cusp of the first piece's branch and from the cusp of the second
    piece's branch to f(end).  The clearance is the least distance from those
    arcs to the ends of region, or -1 when one of them leaves region.
    """
    clear = []
    for lo, hi in linear_pieces(region):
        for start, length in _branch_images(model, lo, hi):
            u = dist_ccw(region.start, start)
            v = u + length
            if u <= 0.0 or v >= region.length:
                return -1.0
            clear += [u, region.length - v]
    return min(clear, default=-1.0)


def trapping_interval(model: MapModel,
                      verdict: RegionVerdict | None = None) -> TrappingCertificate:
    """Forward-invariant leaf interval isolating the up/down Lorenz attractor.

    Two separating leaves are chosen, one between each cusp and the fixed
    point on its side.  A leaf l beside the cusp q has clearance
    min(|f(l) - l|, |q - l|), which peaks where f(l) = q, so the leaves are
    l1 = f_1^-1(q2) and l2 = f_2^-1(q1); the invariance margin is the exact
    clearance of the image of the trapped region.
    """
    v = verdict if verdict is not None else classify(model)
    if v.stratum in (HE1_AND_HE2, DEGENERATE):
        return TrappingCertificate(l1=v.p1, l2=v.p2, R_L=v.sigma_plus,
                                   invariance_margin=0.0)
    if v.dynamics not in (UP_LORENZ, DOWN_LORENZ):
        raise NoTrappingInterval(f"classification {v.stratum} is not L+/L-")
    l1 = inverse_branch(model, 1, model.q2)
    l2 = inverse_branch(model, 2, model.q1)
    # up: R_L runs ccw from l2 through c+ to l1; down: from l1 through c- to l2
    region = Arc(l2, l1) if v.dynamics == UP_LORENZ else Arc(l1, l2)
    margin = _clearance(model, region)
    if margin <= 0.0:
        raise NoTrappingInterval("no positively invariant interval found")
    return TrappingCertificate(l1=l1, l2=l2, R_L=region, invariance_margin=margin)


class HorseshoeCertificate(NamedTuple):
    R_H: Arc
    I_A: Arc
    I_B: Arc
    crossing_margins: tuple[float, float]
    orientations: tuple[int, int]


def horseshoe_certificate(model: MapModel, R_H: Arc) -> HorseshoeCertificate:
    """Exact Markov crossing certificate for the complementary strip.

    R_H must contain exactly one discontinuity d.  The halves on either side
    of d map through ``_branch_images``, the rule of ``_clearance``, onto
    arcs that end at their branches' cusps, both preserving orientation (the
    fake-horseshoe signature).  A crossing margin is the least overhang of
    such an image past the ends of R_H; positive margins also put both
    cusps, the one-sided images of d, outside the closed strip.
    """
    has_minus = arc_contains(R_H, model.c_minus)
    if has_minus == arc_contains(R_H, 0.0):
        raise PreconditionError(
            "horseshoe strip must contain exactly one discontinuity")
    margins = []
    for lo, hi in linear_pieces(R_H):
        for start, length in _branch_images(model, lo, hi):
            u = dist_ccw(start, R_H.start)
            margins.append(min(u, length - u - R_H.length))
    # the half in branch 1 is I_A, and a strip split at c+ yields the other
    # first; an end within TOL past c+ or c- adds a sliver of negative margin
    pivot = model.c_minus if has_minus else 0.0
    halves = [Arc(R_H.start, pivot), Arc(pivot, R_H.end)]
    if not has_minus:
        margins.reverse()
        halves.reverse()
    if min(margins) <= 0.0:
        raise NotMarkov("crossing margins (%s) not positive"
                        % ", ".join(f"{m:.3g}" for m in margins))
    return HorseshoeCertificate(R_H, *halves, tuple(margins), orientations=(1, 1))


# --- attractor span --------------------------------------------------------

class SpanResult(NamedTuple):
    span: Arc
    certificate: CoverageCertificate
    trapping: TrappingCertificate | None


def attractor_span(model: MapModel, maxN: int = 60, eps: float = 1e-3,
                   verdict: RegionVerdict | None = None) -> SpanResult:
    """Smallest arc of stable leaves met by the attractor.

    Seeds a short arc at the cusp q1 and runs the segment engine.  For an up
    or down Lorenz verdict the seed lies inside the trapping interval R_L,
    whose certificate (returned as ``trapping``) keeps every iterate there;
    the span is the complement of the largest gap left in the accumulated
    union, and a full ``span`` means every gap has shrunk below the engine
    resolution.
    """
    v = verdict if verdict is not None else classify(model)
    trap = trapping_interval(model, v) if v.dynamics in (UP_LORENZ, DOWN_LORENZ) else None
    delta = 1e-3
    if trap is not None:
        # q1 is an end of the image of R_L, which the positive margin puts
        # strictly inside R_L, so the room up to R_L's end is positive
        delta = min(delta, dist_ccw(model.q1, trap.R_L.end) / 2)
    seed = Arc(model.q1, norm1(model.q1 + delta))

    cert = iterate_segments(model, seed, maxN=maxN, eps=eps)
    gap = max(cert.gap_arcs, key=lambda g: g.length, default=None)
    span = Arc.full_circle() if gap is None or gap.length < eps else Arc(gap.end, gap.start)
    return SpanResult(span=span, certificate=cert, trapping=trap)
