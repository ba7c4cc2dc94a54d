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
    build_model,
    eval_signed,
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


def letter_of(model: MapModel, sp: SignedPoint) -> Letter:
    """Region letter of a signed point; the side resolves boundary membership."""
    cuts = _region_cuts(model)
    x = norm1(sp.x)
    for i, (c, letter_after) in enumerate(cuts):
        if circle_dist(x, c) <= SNAP:
            if sp.side == PLUS:
                return letter_after
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
    letters = []
    cur = SignedPoint(norm1(sp.x), sp.side)
    for _ in range(depth):
        letters.append(letter_of(model, cur))
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
    """Closure of f(region) in linear coordinates; each region maps monotonically
    onto one of the two half-circles cut at c+ = 0."""
    if letter == Letter.A0:
        return (model.q1, 1.0)
    if letter == Letter.A1:
        return (0.0, model.q1)
    if letter == Letter.B0:
        return (model.q2, 1.0)
    return (0.0, model.q2)


def _pull_back(model: MapModel, letter: Letter, lo: float, hi: float):
    """Preimage of [lo, hi] (inside the region's image) under the region piece."""
    branch = 1 if letter in (Letter.A0, Letter.A1) else 2
    rlo, rhi = _region_interval(model, letter)
    # lift offset: the second half-circle [0, q_i] sits one turn up the lift
    off = 1.0 if letter in (Letter.A1, Letter.B1) else 0.0
    x_lo = _bisect_lift(model, branch, lo + off, rlo, rhi)
    x_hi = _bisect_lift(model, branch, hi + off, rlo, rhi)
    return x_lo, x_hi


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
        if _region_interval(model, letter) is None:
            raise EmptyCylinder(k - j)
        ilo, ihi = _image_interval(model, letter)
        nlo, nhi = max(lo, ilo), min(hi, ihi)
        if nlo > nhi + 1e-13:
            raise EmptyCylinder(k - j)
        nhi = max(nhi, nlo)
        lo, hi = _pull_back(model, letter, nlo, nhi)
    interval = Arc(norm1(lo), hi if hi < 1.0 else 0.0)
    return Realization(interval=interval, midpoint=norm1(0.5 * (lo + hi)))


# --- conjugacy ------------------------------------------------------------

@dataclass
class ConjugacyResult:
    pairs: list[tuple[float, float]]
    defect: float
    interp_defect: float
    monotone: bool


def _interp_h(pairs, x):
    """Piecewise-linear circle interpolation through monotone pairs."""
    xs = [p[0] for p in pairs]
    i = bisect.bisect_right(xs, x) - 1
    x0, y0 = pairs[i]
    x1, y1 = pairs[(i + 1) % len(pairs)]
    dx = (x1 - x0) % 1.0 or 1.0
    dy = (y1 - y0) % 1.0
    t = ((x - x0) % 1.0) / dx
    return norm1(y0 + t * dy)


def build_conjugacy(mx: MapModel, my: MapModel, depth: int, grid: int) -> ConjugacyResult:
    """Leaf-space conjugacy between kneading-equivalent models.

    For grid points x the map h sends x to the midpoint of the my-cylinder of
    the mx-itinerary of x; the two discontinuities are fixed by construction
    and are added as exact anchor pairs.  The conjugacy defect is measured
    exactly through the same cylinder construction (dominated by cylinder
    diameters), and once more through the interpolated h on a 10x finer probe
    grid as a diagnostic.
    """
    kx = kneading_data(mx, depth)
    ky = kneading_data(my, depth)
    for (name, wx), (_, wy) in zip(kx.words(), ky.words()):
        sign, idx = lex_compare(wx, wy)
        if sign != EQUAL:
            raise KneadingMismatch(name, idx)

    def H(z: float) -> float:
        return realize(my, itinerary(mx, SignedPoint(z, PLUS), depth)).midpoint

    pairs = [(0.0, 0.0), (mx.c_minus, my.c_minus)]
    for i in range(grid):
        x = (i + 0.5) / grid
        if mx.on_discontinuity(x) is not None:
            continue
        pairs.append((x, H(x)))
    pairs.sort()

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

    defect = 0.0
    for x, y in pairs:
        if mx.on_discontinuity(x) is not None:
            continue
        fx = mx.f(x)
        if mx.on_discontinuity(fx) is not None:
            continue
        defect = max(defect, circle_dist(H(fx), my.f(y)))

    interp_defect = 0.0
    probes = grid * 10
    for i in range(probes):
        x = (i + 0.5) / probes
        fx = mx.f(x) if mx.on_discontinuity(x) is None else None
        if fx is None or mx.on_discontinuity(fx) is not None:
            continue
        hx = _interp_h(pairs, x)
        interp_defect = max(interp_defect, circle_dist(_interp_h(pairs, fx), my.f(hx)))

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
