"""Kneading theory for the two-branch family: words, itineraries, kneading
data of the two discontinuities, admissibility, cylinder realization, and the
construction of a leaf-space conjugacy between kneading-equivalent models.

The alphabet {A0 < A1 < B0 < B1} labels the four arcs cut out of the circle
by the two discontinuities and the interior preimages of c+:

    A0 = (c+, a*)   A1 = (a*, c-)   B0 = (c-, b*)   B1 = (b*, c+)

where f(a*) = f(b*) = c+ = 0.  When a cusp sits on c+ the corresponding
starred preimage disappears and the letter A1 (resp. B1) becomes unreachable.
One-sided itineraries are computed with the signed-point automaton, never
with epsilon offsets, so boundary itineraries are exact.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, replace

import numpy as np

from .circle import Arc, circle_dist, norm1
from .errors import EmptyCylinder, EmptyWord, KneadingMismatch, KneadingRecursionViolated
from .maps import (
    MINUS,
    PLUS,
    SNAP,
    BranchProfile,
    MapModel,
    SignedPoint,
    _bisect_lift,
    bisect_increasing,
    bisect_increasing_np,
    build_model,
    eval_signed,
    lift_np,
)


class Letter(enum.IntEnum):
    A0 = 0
    A1 = 1
    B0 = 2
    B1 = 3

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet, with explicit depth bookkeeping."""

    letters: tuple[Letter, ...]

    @property
    def depth(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __str__(self):
        return " ".join(l.name for l in self.letters)

    @staticmethod
    def from_string(text: str) -> "Word":
        return Word(tuple(Letter[tok] for tok in text.replace(",", " ").split()))

    @staticmethod
    def from_cycle(block, depth: int, prefix=()) -> "Word":
        """Materialize prefix + periodic block to the requested depth."""
        block = tuple(block)
        if not block:
            raise EmptyWord("periodic block must be nonempty")
        letters = list(prefix)
        while len(letters) < depth:
            letters.extend(block)
        return Word(tuple(letters[:depth]))


LESS, EQUAL, GREATER = -1, 0, 1


def lex_compare(u: Word, v: Word) -> tuple[int, int]:
    """Lexicographic comparison decided at the first mismatch.

    Returns (sign, index): sign in {-1, 0, +1} and the mismatch index, or the
    common compared depth when no mismatch occurs within available letters.
    """
    n = min(u.depth, v.depth)
    for i in range(n):
        if u.letters[i] != v.letters[i]:
            return (LESS if u.letters[i] < v.letters[i] else GREATER, i)
    return (EQUAL, n)


def shift(w: Word) -> Word:
    if w.depth == 0:
        raise EmptyWord("cannot shift the empty word")
    return Word(w.letters[1:])


def star(letter: Letter, w: Word) -> Word:
    return Word((letter,) + w.letters)


# --- itineraries ----------------------------------------------------------

def _region_cuts(model: MapModel):
    """Ascending region boundaries with the letter of the arc that follows."""
    cuts = [(0.0, Letter.A0)]
    if model.a_star is not None:
        cuts.append((model.a_star, Letter.A1))
    cuts.append((model.c_minus, Letter.B0))
    if model.b_star is not None:
        cuts.append((model.b_star, Letter.B1))
    return cuts


def _letter_of(cuts, sp: SignedPoint) -> Letter:
    """Region letter of a signed point, given the region cuts of its model.

    A point within SNAP of a cut sits on the nearest such cut, and its side
    picks the arc before or after it.
    """
    x = norm1(sp.x)
    dists = [circle_dist(x, c) for c, _ in cuts]
    i = min(range(len(cuts)), key=dists.__getitem__)
    if dists[i] <= SNAP:
        if sp.side == PLUS:
            return cuts[i][1]
        return cuts[i - 1][1] if i > 0 else cuts[-1][1]
    for i in range(len(cuts)):
        lo = cuts[i][0]
        hi = cuts[i + 1][0] if i + 1 < len(cuts) else 1.0
        if lo < x < hi:
            return cuts[i][1]
    # x in the wrap gap (b*, 1) handled above via hi = 1.0; only reachable
    # when x rounds to 1.0 exactly, which norm1 maps to 0.0
    return cuts[-1][1]


def itinerary(model: MapModel, sp: SignedPoint, depth: int) -> Word:
    """Depth-k one-sided itinerary via the signed-point automaton."""
    cuts = _region_cuts(model)
    letters = []
    cur = SignedPoint(norm1(sp.x), sp.side)
    for _ in range(depth):
        letters.append(_letter_of(cuts, cur))
        cur = eval_signed(model, cur)
    return Word(tuple(letters))


@dataclass(frozen=True)
class KneadingData:
    """The four boundary itineraries of the two discontinuities.

    w_pp = up itinerary of c+, w_pm = down itinerary of c+,
    w_mp = up itinerary of c-, w_mm = down itinerary of c-.
    """

    w_pp: Word
    w_pm: Word
    w_mp: Word
    w_mm: Word
    depth: int

    def words(self):
        return (("w_pp", self.w_pp), ("w_pm", self.w_pm),
                ("w_mp", self.w_mp), ("w_mm", self.w_mm))


def _recursion_forms(model: MapModel, depth: int) -> KneadingData:
    """The four kneading words rebuilt from the one-step recursion at the
    discontinuities (first letter by case analysis, tail from the cusp orbit)."""
    q1_on_plus = circle_dist(model.q1, 0.0) <= SNAP
    q2_on_plus = circle_dist(model.q2, 0.0) <= SNAP
    w_pp = star(Letter.A0, itinerary(model, SignedPoint(model.q1, PLUS), depth - 1))
    w_mp = star(Letter.B0, itinerary(model, SignedPoint(model.q2, PLUS), depth - 1))
    if q1_on_plus:
        w_mm = star(Letter.A0, itinerary(model, SignedPoint(model.q1, MINUS), depth - 1))
    else:
        w_mm = star(Letter.A1, itinerary(model, SignedPoint(model.q1, MINUS), depth - 1))
    if q2_on_plus:
        w_pm = Word.from_cycle((Letter.B0,), depth)
    else:
        w_pm = star(Letter.B1, itinerary(model, SignedPoint(model.q2, MINUS), depth - 1))
    return KneadingData(w_pp, w_pm, w_mp, w_mm, depth)


def kneading_data(model: MapModel, depth: int) -> KneadingData:
    """Four boundary itineraries, cross-checked against the one-step recursion."""
    kd = KneadingData(
        w_pp=itinerary(model, SignedPoint(0.0, PLUS), depth),
        w_pm=itinerary(model, SignedPoint(0.0, MINUS), depth),
        w_mp=itinerary(model, SignedPoint(model.c_minus, PLUS), depth),
        w_mm=itinerary(model, SignedPoint(model.c_minus, MINUS), depth),
        depth=depth,
    )
    rec = _recursion_forms(model, depth)
    for (name, w), (_, r) in zip(kd.words(), rec.words()):
        if w.letters != r.letters:
            raise KneadingRecursionViolated(name, w, r)
    return kd


# --- admissibility --------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible_to_depth: int
    rejection: tuple[int, str] | None = None

    @property
    def admissible(self) -> bool:
        return self.rejection is None


def is_admissible(w: Word, kd: KneadingData, depth: int | None = None) -> AdmissibilityVerdict:
    """Check the shift inequalities of a word against kneading data.

    Every shift of the word must stay between the up itinerary of c+ and the
    down itinerary of c+; shifts starting with an A letter are capped by the
    down itinerary of c-, shifts starting with a B letter are floored by the
    up itinerary of c-.  Only violations decidable within the available depth
    count; undecided comparisons pass.
    """
    k = min(depth if depth is not None else w.depth, w.depth)
    for i in range(k):
        tail = Word(w.letters[i:k])
        sign, _ = lex_compare(kd.w_pp, tail)
        if sign == GREATER:
            return AdmissibilityVerdict(i, (i, "bounds"))
        sign, _ = lex_compare(tail, kd.w_pm)
        if sign == GREATER:
            return AdmissibilityVerdict(i, (i, "bounds"))
        if w.letters[i] in (Letter.A0, Letter.A1):
            sign, _ = lex_compare(tail, kd.w_mm)
            if sign == GREATER:
                return AdmissibilityVerdict(i, (i, "A-cap"))
        else:
            sign, _ = lex_compare(kd.w_mp, tail)
            if sign == GREATER:
                return AdmissibilityVerdict(i, (i, "B-floor"))
    return AdmissibilityVerdict(k, None)


# --- realization ----------------------------------------------------------

@dataclass(frozen=True)
class Realization:
    interval: Arc
    midpoint: float


def _region_interval(model: MapModel, letter: Letter):
    """Closed region interval in linear [0, 1] coordinates, or None if empty."""
    a, b, c = model.a_star, model.b_star, model.c_minus
    if letter == Letter.A0:
        return (0.0, a if a is not None else c)
    if letter == Letter.A1:
        return None if a is None else (a, c)
    if letter == Letter.B0:
        return (c, b if b is not None else 1.0)
    return None if b is None else (b, 1.0)


def _image_interval(model: MapModel, letter: Letter):
    """Closure of f(region) in linear coordinates, and the lift offset that
    carries it back onto the region's branch.

    Each region maps monotonically onto one of the two half-circles cut at
    c+ = 0; the second half-circle [0, q_i] sits one turn up the lift.  A
    cusp within SNAP below c+ (a* or b* is then None) counts as sitting on
    it: its whole region maps onto [0, 1], one turn up.
    """
    q = model.q1 if letter in (Letter.A0, Letter.A1) else model.q2
    if letter in (Letter.A1, Letter.B1):
        return (0.0, q, 1.0)
    if q > 0.5 and circle_dist(q, 0.0) <= SNAP:
        return (0.0, 1.0, 1.0)
    return (q, 1.0, 0.0)


# The branch that each letter's region lies on.
_BRANCH = (1, 1, 2, 2)

# Slack of the empty-cylinder test in realize and realize_many: a cylinder
# that misses the next letter's image by at most this much is kept,
# collapsed onto one point.  It forgives a pulled-back end that overshoots a
# true single-point contact.  Those ends carry the bisection error, up to
# ROOT_TOL / 2, so a larger overshoot still reads as empty: on M(0.6, 0.3)
# the closed cylinder of "A1 B0 B0" is the point c-, yet it is refused for
# an overshoot of 1.1e-13.
EMPTY_SLACK = 1e-13


def _realization(lo: float, hi: float) -> Realization:
    return Realization(interval=Arc(norm1(lo), hi if hi < 1.0 else 0.0),
                       midpoint=norm1(0.5 * (lo + hi)))


def realize(model: MapModel, w: Word) -> Realization:
    """Nested-cylinder realization of a finite word by backward induction.

    J_k is the closed region of the last letter; each backward step intersects
    the image of the previous letter's region with the current cylinder and
    pulls the result back through the monotone branch piece.  Raises
    EmptyCylinder(d) when the word is not realizable at depth d.
    """
    k = w.depth
    if k == 0:
        raise EmptyWord("cannot realize the empty word")
    reg = _region_interval(model, w.letters[k - 1])
    if reg is None:
        raise EmptyCylinder(1)
    lo, hi = reg
    for j in range(k - 2, -1, -1):
        letter = w.letters[j]
        reg = _region_interval(model, letter)
        if reg is None:
            raise EmptyCylinder(k - j)
        ilo, ihi, off = _image_interval(model, letter)
        nlo, nhi = max(lo, ilo), min(hi, ihi)
        if nlo > nhi + EMPTY_SLACK:
            raise EmptyCylinder(k - j)
        nhi = max(nhi, nlo)
        lo = _bisect_lift(model, _BRANCH[letter], nlo + off, *reg)
        hi = _bisect_lift(model, _BRANCH[letter], nhi + off, *reg)
    return _realization(lo, hi)


def realize_many(model: MapModel, words) -> list[Realization]:
    """``realize`` of a batch of words of one depth, one numpy lane per word.

    Runs the backward induction of ``realize`` on all words at once and pulls
    both ends of every cylinder back with one ``bisect_increasing_np`` call
    per step, so each result equals ``realize`` of its word bit for bit.
    When some word is not realizable, raises the EmptyCylinder that
    ``realize`` raises for the first such word in the batch.
    """
    if not words:
        return []
    k = words[0].depth
    if k == 0:
        raise EmptyWord("cannot realize the empty word")
    letters = np.array([w.letters for w in words], dtype=np.intp)
    n = len(words)
    regions = [_region_interval(model, letter) for letter in Letter]
    empty = np.array([reg is None for reg in regions])
    rlo, rhi = np.array([reg or (0.0, 0.0) for reg in regions]).T
    ilo, ihi, offset = np.array([_image_interval(model, letter) for letter in Letter]).T
    branch = np.array(_BRANCH)
    # EmptyCylinder depth of each word, 0 while it is still realizable
    failed = np.where(empty[letters[:, -1]], 1, 0)
    lo, hi = rlo[letters[:, -1]], rhi[letters[:, -1]]
    for j in range(k - 2, -1, -1):
        cur = letters[:, j]
        nlo, nhi = np.maximum(lo, ilo[cur]), np.minimum(hi, ihi[cur])
        failed[(failed == 0) & (empty[cur] | (nlo > nhi + EMPTY_SLACK))] = k - j
        nhi = np.maximum(nhi, nlo)
        off = offset[cur]
        ends = bisect_increasing_np(
            lift_np(model, np.tile(branch[cur], 2)),
            np.concatenate((nlo + off, nhi + off)),
            np.tile(rlo[cur], 2), np.tile(rhi[cur], 2))
        lo, hi = ends[:n], ends[n:]
    if failed.any():
        raise EmptyCylinder(int(failed[np.flatnonzero(failed)[0]]))
    return [_realization(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


# --- conjugacy ------------------------------------------------------------

@dataclass
class ConjugacyResult:
    pairs: list[tuple[float, float]]
    defect: float
    interp_defect: float
    monotone: bool


def _interp_h(pairs, knots, x):
    """Piecewise-linear circle interpolation through monotone pairs; knots
    holds the pairs' abscissae."""
    i = bisect.bisect_right(knots, x) - 1
    x0, y0 = pairs[i]
    x1, y1 = pairs[(i + 1) % len(pairs)]
    dx = (x1 - x0) % 1.0 or 1.0
    dy = (y1 - y0) % 1.0
    t = ((x - x0) % 1.0) / dx
    return norm1(y0 + t * dy)


def build_conjugacy(mx: MapModel, my: MapModel, depth: int, grid: int) -> ConjugacyResult:
    """Leaf-space conjugacy between kneading-equivalent models.

    For grid points x the map h sends x to H(x), the midpoint of the
    my-cylinder of the mx-itinerary of x; the two discontinuities are fixed
    by construction and are added as exact anchor pairs.  The conjugacy
    defect is measured exactly through the same cylinder construction, as
    the largest distance between H(f x) and g(h x) (dominated by cylinder
    diameters), and once more through the interpolated h on a 10x finer
    probe grid as a diagnostic.  The cylinders of all grid points, and then
    of all their images, are realized in one batch each by ``realize_many``.
    """
    kx = kneading_data(mx, depth)
    ky = kneading_data(my, depth)
    for (name, wx), (_, wy) in zip(kx.words(), ky.words()):
        sign, idx = lex_compare(wx, wy)
        if sign != EQUAL:
            raise KneadingMismatch(name, idx)

    def H(zs):
        words = [itinerary(mx, SignedPoint(z, PLUS), depth) for z in zs]
        return [r.midpoint for r in realize_many(my, words)]

    xs = [x for x in ((i + 0.5) / grid for i in range(grid))
          if mx.on_discontinuity(x) is None]
    pairs = sorted([(0.0, 0.0), (mx.c_minus, my.c_minus)] + list(zip(xs, H(xs))))

    prev = None
    winding = 0.0
    monotone = True
    for _, y in pairs + [pairs[0]]:
        if prev is not None:
            step = (y - prev) % 1.0
            winding += step
            if step >= 1.0 - 1e-9:
                monotone = False
        prev = y
    if abs(winding - 1.0) > 1e-6:
        monotone = False

    fxs, gys = [], []
    for x, y in pairs:
        if mx.on_discontinuity(x) is not None:
            continue
        fx = mx.f(x)
        if mx.on_discontinuity(fx) is not None:
            continue
        fxs.append(fx)
        gys.append(my.f(y))
    defect = max((circle_dist(h, gy) for h, gy in zip(H(fxs), gys)), default=0.0)

    knots = [x for x, _ in pairs]
    interp_defect = 0.0
    probes = grid * 10
    for i in range(probes):
        x = (i + 0.5) / probes
        fx = mx.f(x) if mx.on_discontinuity(x) is None else None
        if fx is None or mx.on_discontinuity(fx) is not None:
            continue
        hx = _interp_h(pairs, knots, x)
        interp_defect = max(interp_defect,
                            circle_dist(_interp_h(pairs, knots, fx), my.f(hx)))

    return ConjugacyResult(pairs=pairs, defect=defect,
                           interp_defect=interp_defect, monotone=monotone)


def shoot_matched_model(mx: MapModel, theta1_new: float, match_depth: int,
                        window: float = 0.03) -> MapModel:
    """Find (alpha', beta') so the theta1-modified model matches mx's kneading.

    The default model has the cusp orbit of q1 landing exactly on c- after one
    step; matching the down itinerary of c- letter-for-letter forces the same
    exact landing, which pins beta' = (c- - g2(alpha' - c-)) mod 1 and leaves a
    one-parameter search: slide alpha' until the itinerary of the second cusp
    beta' reproduces mx's itinerary of q2 to the matching depth.  The itinerary
    is lexicographically monotone in the cusp position, so bisection between
    the window ends converges to the cylinder; the final parameter is refined
    to the cylinder midpoint.  Raises KneadingMismatch when the window ends do
    not bracket the target itinerary.
    """
    target = itinerary(mx, SignedPoint(mx.q2, PLUS), match_depth)
    prof2 = BranchProfile(1.0 - mx.c_minus, mx.params.theta2)

    def beta_for(alpha: float) -> float:
        # pins f(alpha') = c- exactly, reproducing mx's one-step cusp landing
        return norm1(mx.c_minus - prof2.g(alpha - mx.c_minus))

    def alpha_for(beta: float) -> float:
        want = norm1(mx.c_minus - beta)
        return mx.c_minus + bisect_increasing(prof2.g, want, 0.0, prof2.length)

    def make(alpha: float) -> MapModel:
        return build_model(replace(
            mx.params, alpha=alpha, beta=beta_for(alpha), theta1=theta1_new))

    def cmp_at(alpha: float) -> int:
        m = make(alpha)
        sign, _ = lex_compare(itinerary(m, SignedPoint(m.q2, PLUS), match_depth), target)
        return sign

    lo = mx.params.alpha - window
    hi = mx.params.alpha + window
    # the itinerary decreases in alpha: at or above the target at lo, at or below at hi
    if cmp_at(lo) < 0 or cmp_at(hi) > 0:
        raise KneadingMismatch("shooting", -1)
    alpha = bisect_increasing(lambda a: -cmp_at(a), 0, lo, hi)
    model = make(alpha)
    # refine to the cylinder midpoint of the target word in the found model
    for _ in range(8):
        cyl = realize(model, target).interval
        beta_new = cyl.midpoint()
        model = make(alpha_for(beta_new))
        if circle_dist(model.q2, beta_new) < 1e-13:
            break
    return model
