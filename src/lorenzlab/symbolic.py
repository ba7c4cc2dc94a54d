"""Kneading theory for the two-branch family: words, itineraries, kneading
data of the two discontinuities, admissibility, cylinder realization, and the
construction of a leaf-space conjugacy between kneading-equivalent models.

The alphabet {A0 < A1 < B0 < B1} labels the four arcs cut out of the circle
by the two discontinuities and the interior preimages of c+:

    A0 = (c+, a*)   A1 = (a*, c-)   B0 = (c-, b*)   B1 = (b*, c+)

where f(a*) = f(b*) = c+ = 0.  When a cusp lies within SNAP of c+, on either
side, it counts as sitting on c+: the corresponding starred preimage
disappears, the letter A1 (resp. B1) becomes unreachable and the whole branch
reads A0 (resp. B0).  One letter-region table per model (``_regions``) holds
this geometry for itineraries, realization and the kneading recursion.
One-sided itineraries are computed with the signed-point automaton, never
with epsilon offsets, so boundary itineraries are exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .circle import Arc, circle_dist, circle_dist_np, norm1
from .errors import EmptyCylinder, EmptyWord, KneadingMismatch, KneadingRecursionViolated
from .maps import (
    MINUS,
    PLUS,
    ROOT_TOL,
    SNAP,
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
    def from_cycle(block, depth: int) -> "Word":
        """Materialize a periodic block to the requested depth."""
        block = tuple(block)
        if not block:
            raise EmptyWord("periodic block must be nonempty")
        letters = []
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


# --- letter regions -------------------------------------------------------

class _Region(NamedTuple):
    """The closed region [lo, hi] of one letter in linear [0, 1] coordinates,
    the closure [ilo, ihi] of its image, the lift offset that carries the
    image back onto the region's branch, and that branch."""

    lo: float
    hi: float
    ilo: float
    ihi: float
    offset: float
    branch: int


def _regions(model: MapModel) -> list[_Region | None]:
    """The letter-region table of a model, indexed by Letter; None marks an
    empty region.

    Each region maps monotonically onto one of the two half-circles cut at
    c+ = 0; the second half-circle [0, q_i] sits one turn up the lift.  A
    cusp within SNAP of c+ on either side counts as sitting on it (a* or b*
    is then None): A1 (resp. B1) is empty and the whole branch maps onto
    [0, 1], one turn up when the cusp lies just below c+.
    """
    table = []
    for branch, start, end, q, cut in ((1, 0.0, model.c_minus, model.q1, model.a_star),
                                       (2, model.c_minus, 1.0, model.q2, model.b_star)):
        if cut is None:
            table += [_Region(start, end, 0.0, 1.0, float(q > 0.5), branch), None]
        else:
            table += [_Region(start, cut, q, 1.0, 0.0, branch),
                      _Region(cut, end, 0.0, q, 1.0, branch)]
    return table


def _empty_slack(model: MapModel) -> float:
    """Slack of the empty-cylinder test in realize and realize_many.

    A cylinder that misses the next letter's image by at most this much is
    kept, collapsed onto one point.  Image ends (0, q_i, 1) are exact, so the
    miss is the error of one pulled-back cylinder end.  Each pull-back (and
    a*, b*) stops within ROOT_TOL / 2 of its true value, and the branch
    inverse shrinks the error carried from deeper steps by 1/lambda_min, so
    the total is at most (ROOT_TOL / 2) * sum(lambda^-n) = (ROOT_TOL / 2) *
    lambda / (lambda - 1).
    """
    lam = model.lambda_min
    return 0.5 * ROOT_TOL * lam / (lam - 1.0)


# --- itineraries ----------------------------------------------------------

def _letter_of(cuts, sp: SignedPoint) -> Letter:
    """Region letter of a signed point, given its model's nonempty regions as
    (lo, hi, letter) in circle order.

    A point within SNAP of a region's lower end sits on the nearest such
    cut, and its side picks the region after or before it.
    """
    x = norm1(sp.x)
    dists = [circle_dist(x, lo) for lo, _, _ in cuts]
    i = min(range(len(cuts)), key=dists.__getitem__)
    if dists[i] <= SNAP:
        return cuts[i if sp.side == PLUS else i - 1][2]
    for lo, hi, letter in cuts:
        if lo < x < hi:
            return letter
    # not reached: a point outside every open region is on a cut, within SNAP
    return cuts[-1][2]


def itinerary(model: MapModel, sp: SignedPoint, depth: int) -> Word:
    """Depth-k one-sided itinerary via the signed-point automaton."""
    cuts = [(r.lo, r.hi, letter)
            for letter, r in zip(Letter, _regions(model)) if r is not None]
    letters = []
    cur = SignedPoint(norm1(sp.x), sp.side)
    for _ in range(depth):
        letters.append(_letter_of(cuts, cur))
        cur = eval_signed(model, cur)
    return Word(tuple(letters))


def itinerary_many(model: MapModel, xs, side: int, depth: int) -> list[Word]:
    """``itinerary`` of a batch of points on one side, one numpy lane per point.

    Steps every lane with ``f_np``, or with the ``eval_signed`` automaton
    where a lane sits within SNAP of a discontinuity.  Letters follow
    ``_letter_of``: a lane within SNAP of a region's lower end reads the
    region after the nearest such cut (side +) or before it (side -), and
    any other lane reads the region that holds it.  Each word equals
    ``itinerary`` of its signed point while ``f_np`` equals ``model.f``,
    that is, while ``np.sin`` equals ``math.sin`` on the profile arguments.
    """
    table = _regions(model)
    letters = [letter for letter, r in zip(Letter, table) if r is not None]
    lows = np.array([table[letter].lo for letter in letters])
    from_plus, from_minus = (model.q1, model.q2) if side == PLUS else (model.q2, model.q1)
    # a lane % 1.0 leaves at 1.0 (norm1 gives 0.0) reads and steps as c+
    x = np.asarray(xs, dtype=float) % 1.0
    out = np.empty((depth, x.size), dtype=np.intp)
    for k in range(depth):
        dists = circle_dist_np(x[:, None], lows)
        nearest = dists.argmin(axis=1)
        out[k] = np.where(dists.min(axis=1) <= SNAP,
                          nearest if side == PLUS else nearest - 1,
                          np.searchsorted(lows, x, "right") - 1)
        at_plus, at_minus = model.on_discontinuity_np(x)
        x = np.where(at_plus, from_plus, np.where(at_minus, from_minus, model.f_np(x)))
    return [Word(tuple(letters[i] for i in row)) for row in out.T.tolist()]


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
    table = _regions(model)
    w_pp = star(Letter.A0, itinerary(model, SignedPoint(model.q1, PLUS), depth - 1))
    w_mp = star(Letter.B0, itinerary(model, SignedPoint(model.q2, PLUS), depth - 1))
    # with a cusp on c+, region A1 (resp. B1) is empty and A0 (resp. B0) ends at c-
    w_mm = star(Letter.A0 if table[Letter.A1] is None else Letter.A1,
                itinerary(model, SignedPoint(model.q1, MINUS), depth - 1))
    if table[Letter.B1] is None:
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


def is_admissible(w: Word, kd: KneadingData) -> AdmissibilityVerdict:
    """Check the shift inequalities of a word against kneading data.

    Every shift of the word must stay between the up itinerary of c+ and the
    down itinerary of c+; shifts starting with an A letter are capped by the
    down itinerary of c-, shifts starting with a B letter are floored by the
    up itinerary of c-.  Only violations decidable within the available depth
    count; undecided comparisons pass.
    """
    for i in range(w.depth):
        tail = Word(w.letters[i:])
        side = ((tail, kd.w_mm, "A-cap") if w.letters[i] in (Letter.A0, Letter.A1)
                else (kd.w_mp, tail, "B-floor"))
        for lower, upper, reason in ((kd.w_pp, tail, "bounds"),
                                     (tail, kd.w_pm, "bounds"), side):
            if lex_compare(lower, upper)[0] == GREATER:
                return AdmissibilityVerdict(i, (i, reason))
    return AdmissibilityVerdict(w.depth, None)


# --- realization ----------------------------------------------------------

@dataclass(frozen=True)
class Realization:
    interval: Arc
    midpoint: float


def _realization(lo: float, hi: float) -> Realization:
    return Realization(interval=Arc.from_linear(lo, hi),
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
    table = _regions(model)
    slack = _empty_slack(model)
    reg = table[w.letters[k - 1]]
    if reg is None:
        raise EmptyCylinder(1)
    lo, hi = reg.lo, reg.hi
    for j in range(k - 2, -1, -1):
        reg = table[w.letters[j]]
        if reg is None:
            raise EmptyCylinder(k - j)
        nlo, nhi = max(lo, reg.ilo), min(hi, reg.ihi)
        if nlo > nhi + slack:
            raise EmptyCylinder(k - j)
        nhi = max(nhi, nlo)
        lo = _bisect_lift(model, reg.branch, nlo + reg.offset, reg.lo, reg.hi)
        hi = _bisect_lift(model, reg.branch, nhi + reg.offset, reg.lo, reg.hi)
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
    table = _regions(model)
    slack = _empty_slack(model)
    empty = np.array([reg is None for reg in table])
    # an empty region's lanes have failed; their placeholder values are never read
    rlo, rhi, ilo, ihi, offset, branch = np.array(
        [reg or _Region(0.0, 0.0, 0.0, 0.0, 0.0, 1) for reg in table]).T
    # EmptyCylinder depth of each word, 0 while it is still realizable
    failed = np.where(empty[letters[:, -1]], 1, 0)
    lo, hi = rlo[letters[:, -1]], rhi[letters[:, -1]]
    for j in range(k - 2, -1, -1):
        cur = letters[:, j]
        nlo, nhi = np.maximum(lo, ilo[cur]), np.minimum(hi, ihi[cur])
        failed[(failed == 0) & (empty[cur] | (nlo > nhi + slack))] = k - j
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


def _interpolation(pairs):
    """Piecewise-linear circle interpolation through pairs sorted by abscissa,
    as a lane-wise function, and its ccw steps dy.  A point x in [x0, x1)
    maps to y0 + t * dy with t = ((x - x0) mod 1) / dx, where dx and dy are the
    ccw steps to the next pair, the last to the first (dx = 1 for one pair)."""
    kx, ky = np.array(pairs).T
    dx = (np.roll(kx, -1) - kx) % 1.0
    dx[dx == 0.0] = 1.0
    dy = (np.roll(ky, -1) - ky) % 1.0

    def h(z):
        # the sum is never negative, so % 1.0 equals norm1 on it
        i = np.searchsorted(kx, z, "right") - 1
        return (ky[i] + ((z - kx[i]) % 1.0) / dx[i] * dy[i]) % 1.0
    return h, dy


def build_conjugacy(mx: MapModel, my: MapModel, depth: int, grid: int) -> ConjugacyResult:
    """Leaf-space conjugacy between kneading-equivalent models.

    For grid points x the map h sends x to H(x), the midpoint of the
    my-cylinder of the mx-itinerary of x; the two discontinuities are fixed
    by construction and are added as exact anchor pairs.  The conjugacy
    defect is measured exactly through the same cylinder construction, as
    the largest distance between H(f x) and g(h x) (dominated by cylinder
    diameters), and once more through the interpolated h on a 10x finer
    probe grid as a diagnostic.  The images f x depend only on the grid, so
    the grid points and their images share one batch: one ``itinerary_many``
    and one ``realize_many`` call, grid points first, so an EmptyCylinder
    names the first failing grid point before any image.
    """
    kx = kneading_data(mx, depth)
    ky = kneading_data(my, depth)
    for (name, wx), (_, wy) in zip(kx.words(), ky.words()):
        sign, idx = lex_compare(wx, wy)
        if sign != EQUAL:
            raise KneadingMismatch(name, idx)

    def off_discontinuity(z):
        return ~np.logical_or(*mx.on_discontinuity_np(z))

    xs = (np.arange(grid) + 0.5) / grid
    xs = xs[off_discontinuity(xs)]
    fxs = mx.f_np(xs)
    imaged = off_discontinuity(fxs)
    words = itinerary_many(mx, np.concatenate((xs, fxs[imaged])), PLUS, depth)
    hxs, hfxs = np.split(np.array([r.midpoint for r in realize_many(my, words)]), [xs.size])
    pairs = sorted([(0.0, 0.0), (mx.c_minus, my.c_minus)]
                   + list(zip(xs.tolist(), hxs.tolist())))

    # monotone: no ccw step is an almost full turn, and the steps wind once;
    # cumsum adds them in order, unlike np.sum's pairwise scheme
    h, steps = _interpolation(pairs)
    monotone = bool((steps < 1.0 - 1e-9).all() and abs(np.cumsum(steps)[-1] - 1.0) <= 1e-6)

    defect = circle_dist_np(hfxs, my.f_np(hxs[imaged])).max(initial=0.0)

    probes = (np.arange(grid * 10) + 0.5) / (grid * 10)
    fps = mx.f_np(probes)
    keep = off_discontinuity(probes) & off_discontinuity(fps)
    interp_defect = circle_dist_np(h(fps[keep]), my.f_np(h(probes[keep]))).max(initial=0.0)

    return ConjugacyResult(pairs=pairs, defect=float(defect),
                           interp_defect=float(interp_defect), monotone=monotone)


def shoot_matched_model(mx: MapModel, theta1_new: float, match_depth: int,
                        window: float = 0.03) -> MapModel:
    """Find (alpha', beta') so the theta1-modified model matches mx's kneading.

    The default model has the cusp orbit of q1 landing exactly on c- after one
    step; matching the down itinerary of c- letter-for-letter forces the same
    exact landing, which pins beta' = (c- - g2(alpha' - c-)) mod 1 and leaves a
    one-parameter search: slide alpha' until the itinerary of the second cusp
    beta' reproduces mx's itinerary of q2 to the matching depth.  The itinerary
    is lexicographically monotone in the cusp position, so bisection between
    the window ends converges to the cylinder, and one step moves the found
    parameter to the cylinder midpoint.  Raises KneadingMismatch when the
    window ends do not bracket the target itinerary.
    """
    target = itinerary(mx, SignedPoint(mx.q2, PLUS), match_depth)
    prof2 = mx.profile2

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
    # one step to the cylinder midpoint of the target word in the found model;
    # the cusp of the refined model is that midpoint up to the round trip
    # through alpha_for and beta_for
    return make(alpha_for(realize(make(alpha), target).interval.midpoint()))
