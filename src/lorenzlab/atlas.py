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

from dataclasses import dataclass, field, replace

import numpy as np

from .circle import (
    TOL,
    Arc,
    ArcUnion,
    arc_contains,
    circle_dist,
    circle_dist_np,
    dist_ccw,
    dist_ccw_np,
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
    fixed_points,
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


@dataclass
class RegionVerdict:
    stratum: str
    margin: float
    dynamics: str
    p1: float | None = None
    p2: float | None = None
    sigma_plus: Arc | None = None
    sigma_minus: Arc | None = None


def classify(model: MapModel) -> RegionVerdict:
    """Stratum label, dynamical verdict, and margin to the nearest stratum.

    Homoclinic strata are detected first (cusp within SNAP of a
    discontinuity), then the fixed points decide the quadrant; in the
    doubly-fixed quadrant the heteroclinic loci (cusp within SNAP of the
    other branch's fixed point) are checked and the cusps are located
    relative to the two components cut out by the fixed points.  SNAP is
    also the distance at which ``fixed_points`` refuses a homoclinic cusp,
    so that refusal is never reached from here.
    """
    c = model.c_minus
    d1p, d1m = circle_dist(model.q1, 0.0), circle_dist(model.q1, c)
    d2p, d2m = circle_dist(model.q2, 0.0), circle_dist(model.q2, c)
    h_dists = [d1p, d1m, d2p, d2m]
    on1 = min(d1p, d1m) <= SNAP
    on2 = min(d2p, d2m) <= SNAP

    if on1 or on2:
        margin = min(h_dists)
        if on1 and on2:
            if d1p <= SNAP and d2p <= SNAP:
                stratum = H12P
            elif d1m <= SNAP and d2m <= SNAP:
                stratum = H12M
            else:
                # mixed double loop: inside H1 off the same-side codim-2 loci,
                # so the single-loop two-sided verdict applies
                stratum = H1P if d1p <= SNAP else H1M
        elif on1:
            stratum = H1P if d1p <= SNAP else H1M
        else:
            stratum = H2P if d2p <= SNAP else H2M
        return RegionVerdict(stratum, margin, STRATUM_DYNAMICS[stratum])

    fp = fixed_points(model)
    omega1 = "+" if model.q1 > c else "-"
    omega2 = "+" if model.q2 < c else "-"

    if omega1 == "-" or omega2 == "-":
        stratum = {"--": O_MM, "+-": O_PM, "-+": O_MP}[omega1 + omega2]
        return RegionVerdict(stratum, min(h_dists), STRATUM_DYNAMICS[stratum],
                             p1=fp.p1, p2=fp.p2)

    he1_d = circle_dist(model.q1, fp.p2)
    he2_d = circle_dist(model.q2, fp.p1)
    margin = min(h_dists + [he1_d, he2_d])
    sp, sm = Arc(fp.p2, fp.p1), Arc(fp.p1, fp.p2)

    if he1_d <= SNAP and he2_d <= SNAP:
        symmetric = (model.params.theta1 == model.params.theta2
                     and abs(model.c_minus - 0.5) <= SNAP)
        stratum = DEGENERATE if symmetric else HE1_AND_HE2
    elif he1_d <= SNAP:
        stratum = HE1
    elif he2_d <= SNAP:
        stratum = HE2
    else:
        q1_plus = arc_contains(sp, model.q1)
        q2_plus = arc_contains(sp, model.q2)
        if q1_plus and q2_plus:
            stratum = O_PP_LPLUS
        elif not q1_plus and not q2_plus:
            stratum = O_PP_LMINUS
        else:
            stratum = O_PP_TILDE
    return RegionVerdict(stratum, margin, STRATUM_DYNAMICS[stratum],
                         p1=fp.p1, p2=fp.p2, sigma_plus=sp, sigma_minus=sm)


def classify_grid(params: ModelParams, alphas, betas):
    """Strata and margins of ``classify`` over the grid alphas x betas.

    Returns (stratum, margin), two ny x nx arrays: row j, column i is the
    model at (alphas[i], betas[j]); stratum holds indices into STRATA and
    margin is float64.  Both equal ``classify`` on every cell, bit for bit.
    p1 reads only alpha and p2 only beta, so the grid takes nx + ny
    fixed-point solves; the rest of ``classify`` runs elementwise.
    """
    c = params.c_minus
    cols = [build_model(replace(params, alpha=a)) for a in alphas]
    rows = [build_model(replace(params, beta=b)) for b in betas]
    # a missing fixed point (None) becomes NaN; only ++ cells read p1, p2
    q1 = np.array([m.q1 for m in cols])
    p1 = np.array([branch_fixed_point(m, 1) for m in cols], dtype=float)
    q2 = np.array([m.q2 for m in rows])[:, None]
    p2 = np.array([branch_fixed_point(m, 2) for m in rows], dtype=float)[:, None]

    d1p, d1m = circle_dist_np(q1, 0.0), circle_dist_np(q1, c)
    d2p, d2m = circle_dist_np(q2, 0.0), circle_dist_np(q2, c)
    h1p, h1m, h2p, h2m = d1p <= SNAP, d1m <= SNAP, d2p <= SNAP, d2m <= SNAP
    plus1, plus2 = q1 > c, q2 < c
    he1_d = circle_dist_np(q1, p2)
    he2_d = circle_dist_np(q2, p1)
    he1, he2 = he1_d <= SNAP, he2_d <= SNAP
    # cusp q in the open arc sigma+ = (p2, p1), as arc_contains decides it
    sp_len = dist_ccw_np(p2, p1)
    d = dist_ccw_np(p2, q1)
    in1 = (TOL < d) & (d < sp_len - TOL)
    d = dist_ccw_np(p2, q2)
    in2 = (TOL < d) & (d < sp_len - TOL)
    symmetric = params.theta1 == params.theta2 and abs(c - 0.5) <= SNAP

    # the branches of ``classify``, in its order: first match wins
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
    return stratum, margin


@dataclass(frozen=True)
class GoldenBound:
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


@dataclass
class CoverageCertificate:
    seed: Arc
    iterations_used: int
    covered_fraction: float
    missed_points: list[float]
    terminal_arcs: list[Arc]
    gap_arcs: list[Arc] = field(default_factory=list)
    history: list[float] = field(default_factory=list)


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


def iterate_segments(model: MapModel, seed: Arc, maxN: int, eps: float,
                     confine: Arc | None = None) -> CoverageCertificate:
    """Iterate a family of arcs branchwise and accumulate the covered union.

    Each step splits every arc at the two discontinuities, maps the pieces
    through the branch lifts, and merges the images into both the running
    family and the accumulated union.  Stops when the complement of the union
    has total length below eps, or after maxN steps.  Complement components
    shorter than eps are reported as isolated missed points.
    """
    union = ArcUnion()
    union.add(seed)
    family = union.intervals()
    confine_iv = None if confine is None else linear_pieces(confine)
    covered = union.total_length
    history = [covered]
    iterations = 0
    for step in range(1, maxN + 1):
        pieces = []
        for lo, hi in family:
            for start, length in _branch_images(model, lo, hi):
                end = start + length
                if end <= 1.0:
                    pieces.append((start, end))
                else:
                    pieces += [(start, 1.0), (0.0, end - 1.0)]
        if confine_iv is not None:
            pieces = [(max(lo, clo), min(hi, chi))
                      for lo, hi in pieces for clo, chi in confine_iv
                      if min(hi, chi) > max(lo, clo)]
        if len(pieces) > ARC_BUDGET:
            raise ArcBudgetExceeded(f"{len(pieces)} arcs at step {step}")
        merged = ArcUnion()
        merged.add_many(pieces)
        # a merged union is canonical and copies its endpoints, so adding the
        # merged family gives the union that adding the raw pieces would
        family = merged.intervals()
        union.add_many(family)
        covered = union.total_length
        history.append(covered)
        iterations = step
        if 1.0 - covered < eps:
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
        seed=seed, iterations_used=iterations, covered_fraction=covered,
        missed_points=missed, terminal_arcs=terminal,
        gap_arcs=gaps, history=history)


# --- trapping and horseshoe certificates ----------------------------------

@dataclass
class TrappingCertificate:
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


@dataclass
class HorseshoeCertificate:
    R_H: Arc
    I_A: Arc
    I_B: Arc
    crossing_margins: tuple[float, float]
    orientations: tuple[int, int]


def _arc_covers(outer: Arc, inner: Arc) -> float:
    """Smallest one-sided margin by which outer contains closure(inner), or a
    negative number when it fails."""
    left = dist_ccw(outer.start, inner.start)
    right = dist_ccw(inner.end, outer.end)
    if left + inner.length + right > outer.length + 1e-9:
        return -1.0
    return min(left, right)


def horseshoe_certificate(model: MapModel, R_H: Arc) -> HorseshoeCertificate:
    """Markov crossing certificate for the complementary strip.

    R_H must contain exactly one discontinuity; the two halves on either side
    of it must each map across the closed strip with positive margin, both
    preserving orientation (the fake-horseshoe signature), and the one-sided
    images of the contained discontinuity must escape the strip.
    """
    c = model.c_minus
    has_minus = arc_contains(R_H, c)
    has_plus = arc_contains(R_H, 0.0)
    if has_minus == has_plus:
        raise PreconditionError(
            "horseshoe strip must contain exactly one discontinuity")
    pivot = c if has_minus else 0.0

    # halves of R_H; the one inside branch 1 is I_A
    first = Arc(R_H.start, pivot)
    second = Arc(pivot, R_H.end)
    if has_minus:
        I_A, I_B = first, second
    else:
        I_B, I_A = first, second

    def image(piece: Arc, branch: int) -> Arc:
        # endpoints through the lift give the correct one-sided cusp limits
        s = piece.start
        e = piece.end if piece.end > s else 1.0
        return Arc(norm1(model.lift(branch, s)), norm1(model.lift(branch, e)))

    img_A = image(I_A, 1)
    img_B = image(I_B, 2)
    m_A = _arc_covers(img_A, R_H)
    m_B = _arc_covers(img_B, R_H)
    if m_A <= 0.0 or m_B <= 0.0:
        raise NotMarkov(f"crossing margins ({m_A:.3g}, {m_B:.3g}) not positive")

    # the pivot's one-sided images are the cusps; both must leave the strip
    closed = Arc(R_H.start, R_H.end)
    for q in (model.q1, model.q2):
        d = dist_ccw(closed.start, q)
        if -1e-12 <= d <= closed.length + 1e-12:
            raise NotMarkov("discontinuity image does not escape the strip")

    return HorseshoeCertificate(R_H=R_H, I_A=I_A, I_B=I_B,
                                crossing_margins=(m_A, m_B),
                                orientations=(1, 1))


# --- attractor span --------------------------------------------------------

@dataclass
class SpanResult:
    span: Arc
    certificate: CoverageCertificate
    verdict: RegionVerdict
    trapping: TrappingCertificate | None


def attractor_span(model: MapModel, maxN: int = 60, eps: float = 1e-3) -> SpanResult:
    """Smallest arc of stable leaves met by the attractor.

    Seeds a short arc at the cusp q1 and runs the segment engine, confined to
    the trapping interval when the classification provides one (an up or
    down Lorenz verdict; that certificate is returned as ``trapping``); the
    span is the complement of the largest gap left in the accumulated union,
    and a full ``span`` means every gap has shrunk below the engine resolution.
    """
    v = classify(model)
    trap = trapping_interval(model, v) if v.dynamics in (UP_LORENZ, DOWN_LORENZ) else None
    confine = None if trap is None else trap.R_L
    delta = 1e-3
    if confine is not None:
        # keep the seed inside the trapped region
        room = dist_ccw(model.q1, confine.end)
        delta = min(delta, room / 2) if room > 0 else delta
    seed = Arc(model.q1, norm1(model.q1 + delta))

    cert = iterate_segments(model, seed, maxN=maxN, eps=eps, confine=confine)
    gap = max(cert.gap_arcs, key=lambda g: g.length, default=None)
    span = Arc.full_circle() if gap is None or gap.length < eps else Arc(gap.end, gap.start)
    return SpanResult(span=span, certificate=cert, verdict=v, trapping=trap)
