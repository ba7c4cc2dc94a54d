import bisect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorenzlab.circle import circle_dist, norm1
from lorenzlab.errors import EmptyCylinder, ExpansionTooWeak, KneadingMismatch
from lorenzlab.maps import (
    MINUS,
    PLUS,
    SNAP,
    TWO_PI,
    BranchProfile,
    MapModel,
    ModelParams,
    SignedPoint,
    bisect_increasing,
    build_model,
)
from lorenzlab.symbolic import (
    EQUAL,
    GREATER,
    LESS,
    Letter,
    Word,
    _interpolation,
    build_conjugacy,
    is_admissible,
    itinerary,
    itinerary_many,
    kneading_data,
    lex_compare,
    realize,
    realize_many,
    shift,
    shoot_matched_model,
    star,
)


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)


def W(text):
    return Word.from_string(text)


def test_letter_order():
    assert Letter.A0 < Letter.A1 < Letter.B0 < Letter.B1


def test_lex_compare():
    assert lex_compare(W("A0 B1"), W("A1 A0")) == (LESS, 0)
    assert lex_compare(W("B0 A0"), W("B0 B0")) == (LESS, 1)
    assert lex_compare(W("A0 B0"), W("A0 B0")) == (EQUAL, 2)
    assert lex_compare(W("B1"), W("B0"))[0] == GREATER


def test_shift_star():
    assert str(shift(W("A0 B0 B1"))) == "B0 B1"
    assert str(star(Letter.B1, W("A0 A0"))) == "B1 A0 A0"
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = Word(tuple(Letter(int(i)) for i in rng.integers(0, 4, 10)))
        assert shift(star(Letter.A1, w)).letters == w.letters


def test_itinerary_examples():
    assert str(itinerary(M0, SignedPoint(0.25, PLUS), 3)) == "A1 A0 B0"
    assert str(itinerary(M0, SignedPoint(0.5, PLUS), 3)) == "B0 A1 A0"


def test_shift_compatibility():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(1000):
        x = rng.uniform(0, 1)
        w = itinerary(M0, SignedPoint(x, PLUS), 41)
        fx = M0.f(x) if M0.on_discontinuity(x) is None else None
        if fx is None:
            continue
        w2 = itinerary(M0, SignedPoint(fx, PLUS), 40)
        assert shift(w).letters == w2.letters
        checked += 1
    assert checked > 990


def test_order_proposition():
    # omega_+(x1) < omega_-(x2) for ccw pairs avoiding c+, and
    # omega_-(x) <= omega_+(x) pointwise
    rng = np.random.default_rng(2)
    done = 0
    while done < 1000:
        x1, x2 = sorted(rng.uniform(1e-4, 1 - 1e-4, 2))
        if x2 - x1 < 1e-4:
            continue
        wp = itinerary(M0, SignedPoint(x1, PLUS), 40)
        wm = itinerary(M0, SignedPoint(x2, MINUS), 40)
        sign, _ = lex_compare(wp, wm)
        assert sign == LESS
        wmm = itinerary(M0, SignedPoint(x1, MINUS), 40)
        assert lex_compare(wmm, wp)[0] in (LESS, EQUAL)
        done += 1


def test_kneading_h12_minus():
    kd = kneading_data(M(0.5, 0.5), 50)
    assert kd.w_mm.letters == tuple([Letter.A1] * 50)
    assert kd.w_mp.letters == tuple([Letter.B0] * 50)


def test_kneading_h12_plus():
    kd = kneading_data(M(0.0, 0.0), 30)
    assert kd.w_pp.letters == tuple([Letter.A0] * 30)
    assert kd.w_pm.letters == tuple([Letter.B0] * 30)
    assert kd.w_mp.letters == (Letter.B0,) + tuple([Letter.A0] * 29)
    assert kd.w_mm.letters == (Letter.A0,) + tuple([Letter.B0] * 29)


def test_kneading_first_letters_generic():
    kd = kneading_data(M0, 1)
    firsts = tuple(w.letters[0] for _, w in kd.words())
    assert firsts == (Letter.A0, Letter.B1, Letter.B0, Letter.A1)


def test_kneading_recursion_grid():
    # the one-step recursion at the discontinuities holds on an off-strata grid
    from lorenzlab.symbolic import _recursion_forms

    for i in range(20):
        for j in range(20):
            a = 0.02 + 0.96 * i / 19
            b = 0.02 + 0.96 * j / 19
            if min(abs(a - 0.5), abs(b - 0.5)) < 0.02:
                continue
            m = M(a, b)
            kd = kneading_data(m, 50)
            rec = _recursion_forms(m, 50)
            for (_, w), (_, r) in zip(kd.words(), rec.words()):
                assert w.letters == r.letters


@pytest.mark.parametrize("theta1", [0.15, 0.0])
def test_kneading_cusp_just_off_c_plus(theta1):
    # alpha = 2e-9 lies just outside SNAP of c+, which puts a* within SNAP
    # below c-; (c-, +) snaps to the nearest cut, c-, and reads B0, so the
    # direct and recursive kneading words agree for every beta
    for j in range(80):
        m = M(2e-9, (j + 0.5) / 80, theta1=theta1)
        assert m.c_minus - SNAP < m.a_star < m.c_minus
        kd = kneading_data(m, 30)
        assert kd.w_mp.letters[0] == Letter.B0


def test_admissibility_at_origin_model():
    kd = kneading_data(M(0.0, 0.0), 30)
    assert is_admissible(Word.from_cycle([Letter.A0], 20), kd).admissible
    v = is_admissible(Word(tuple([Letter.B1] + [Letter.A0] * 19)), kd)
    assert v.rejection == (0, "bounds")
    assert is_admissible(Word(tuple([Letter.A0] + [Letter.B0] * 19)), kd).admissible


def test_itineraries_are_admissible():
    rng = np.random.default_rng(4)
    kd = kneading_data(M0, 45)
    for _ in range(1000):
        x = rng.uniform(0, 1)
        w = itinerary(M0, SignedPoint(x, PLUS), 40)
        assert is_admissible(w, kd).admissible


def test_realize_fixed_point_words():
    r = realize(M0, Word.from_cycle([Letter.B0], 20))
    assert circle_dist(r.midpoint, 0.7) < 2.0 ** -18
    assert r.interval.length <= 2.0 ** -19 * 2
    r = realize(M0, Word.from_cycle([Letter.A1], 20))
    assert circle_dist(r.midpoint, 0.42013510) < 1e-4


def test_realize_empty_cylinder():
    with pytest.raises(EmptyCylinder) as err:
        realize(M0, W("B1 B1"))
    assert err.value.depth == 2


def test_realize_single_point_cylinder():
    # the closed cylinder of "A1 B0 B0" on M0 is the point c-: the B0 B0
    # cylinder starts at c- = q1, the end of the image of A1; its computed
    # end overshoots q1 by the bisection error, which the slack absorbs
    w = W("A1 B0 B0")
    for r in (realize(M0, w), realize_many(M0, [w])[0]):
        assert (r.interval.start, r.interval.end, r.midpoint) == (0.5, 0.5, 0.5)


def test_realize_roundtrip():
    rng = np.random.default_rng(6)
    bound = 2.0 * M0.lambda_min ** -29
    for _ in range(500):
        x = rng.uniform(0, 1)
        w = itinerary(M0, SignedPoint(x, PLUS), 30)
        r = realize(M0, w)
        assert circle_dist(r.midpoint, x) <= bound
        assert r.interval.length <= M0.lambda_min ** -29


@st.composite
def random_models(draw):
    """Models over random c-, theta1, theta2, alpha, beta; a cusp may sit on
    c+ or within SNAP of it on either side (a* or b* is then None), or on c-."""
    c = draw(st.floats(0.38, 0.62))
    theta1, theta2 = draw(st.floats(0.0, 0.19)), draw(st.floats(0.0, 0.19))
    cusp = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.sampled_from([0.0, 5e-10, 1.0 - 5e-10, c]))
    try:
        return build_model(ModelParams(draw(cusp), draw(cusp), c_minus=c,
                                       theta1=theta1, theta2=theta2))
    except ExpansionTooWeak:
        assume(False)


points = st.floats(0.0, 1.0, exclude_max=True)


def _bits(r):
    return (r.interval.start.hex(), r.interval.end.hex(), r.interval.full,
            r.midpoint.hex())


def _assert_batch_matches_realize(model, words):
    """realize_many equals realize word by word, bit for bit, or raises the
    EmptyCylinder depth of the first word realize refuses."""
    expected = []
    for w in words:
        try:
            expected.append(_bits(realize(model, w)))
        except EmptyCylinder as exc:
            with pytest.raises(EmptyCylinder) as err:
                realize_many(model, words)
            assert err.value.depth == exc.depth
            return False
    assert [_bits(r) for r in realize_many(model, words)] == expected
    return True


@settings(max_examples=120, deadline=None, derandomize=True)
@given(model=random_models(), depth=st.integers(1, 30),
       items=st.lists(st.one_of(
           st.tuples(points, st.sampled_from([PLUS, MINUS])),
           st.tuples(st.sampled_from(["c+", "c-"]), st.sampled_from([PLUS, MINUS])),
           st.lists(st.sampled_from(list(Letter)), min_size=30, max_size=30)),
           min_size=1, max_size=12))
def test_realize_many_matches_realize(model, depth, items):
    # itineraries of random points and of both sides of both discontinuities,
    # mixed with random words that are mostly not realizable
    words = []
    for item in items:
        if isinstance(item, list):
            words.append(Word(tuple(item[:depth])))
            continue
        x, side = item
        x = {"c+": 0.0, "c-": model.c_minus}.get(x, x)
        words.append(itinerary(model, SignedPoint(x, side), depth))
    _assert_batch_matches_realize(model, words)


def test_realize_many_raises_first_failing_word():
    # "B1 B1" is not realizable: B1 maps onto [0, q2], which misses B1
    good = itinerary(M0, SignedPoint(0.3, PLUS), 6)
    deep = star(Letter.A0, star(Letter.B1, itinerary(M0, SignedPoint(0.9, PLUS), 4)))
    shallow = W("A0 A0 A0 A0 B1 B1")
    assert [_fail_depth(w) for w in (deep, shallow)] == [5, 2]
    for words, depth in (([good, deep, shallow], 5), ([shallow, good, deep], 2)):
        with pytest.raises(EmptyCylinder) as err:
            realize_many(M0, words)
        assert err.value.depth == depth
    assert _assert_batch_matches_realize(M0, [good, good])


def _fail_depth(w, model=M0):
    with pytest.raises(EmptyCylinder) as err:
        realize(model, w)
    return err.value.depth


def test_realize_many_empty_region():
    # q1 sits 5e-10 below c+, so a* is None and A1 is empty, although the
    # image of A1, [0, q1], meets every cylinder
    m = M(1.0 - 5e-10, 0.3)
    assert m.a_star is None
    tail = itinerary(m, SignedPoint(0.3, PLUS), 5)
    ends_in_a1 = Word(tail.letters[:-1] + (Letter.A1,))
    for words, depth in (([star(Letter.A1, tail)], 6), ([tail, ends_in_a1], 1)):
        assert _fail_depth(words[-1], m) == depth
        assert _assert_batch_matches_realize(m, words) is False


def test_realize_cusp_snapped_below_c_plus():
    # q1 lies 1.1e-16 below c+, so itineraries read it as c+ (a* is None);
    # region A0 then maps onto the whole circle, one turn up the lift
    m = M(1.0 - 2.0 ** -53, 0.0, theta1=0.0)
    assert m.a_star is None
    for x in (0.0, 0.1, 0.3):
        r = realize(m, itinerary(m, SignedPoint(x, PLUS), 30))
        assert circle_dist(r.midpoint, x) <= 2.0 ** -28


@pytest.mark.parametrize("alpha, beta, c_minus", [
    (1e-9, 0.3, 0.5), (5e-10, 0.3, 0.5), (0.6, 5e-10, 0.5), (0.0, 5e-10, 0.4375)])
def test_realize_cusp_snapped_above_c_plus(alpha, beta, c_minus):
    # a cusp lies within SNAP above c+, so itineraries read it as c+ (a* or
    # b* is None) and the whole branch reads A0 (B0); realization must then
    # map that region onto all of [0, 1], or the snapped orbits of c+ (for
    # q1) and of c- (for q2) have no cylinder
    m = M(alpha, beta, c_minus=c_minus)
    assert None in (m.a_star, m.b_star)
    bound = 2.0 * m.lambda_min ** -29 + SNAP
    for x in (0.0, c_minus):
        w = itinerary(m, SignedPoint(x, PLUS), 30)
        for r in (realize(m, w), realize_many(m, [w])[0]):
            assert circle_dist(r.midpoint, x) <= bound


def test_realize_many_edge_batches():
    assert realize_many(M0, []) == []
    with pytest.raises(ValueError):
        realize_many(M0, [W("A0 B0"), W("A0")])


def test_np_sin_matches_math_sin_on_batch_lift_arguments(monkeypatch):
    # realize_many equals realize, and itinerary_many equals itinerary, bit
    # for bit only while np.sin equals math.sin on every argument the batch
    # lift and the batch orbits evaluate, and while the lane-wise
    # discontinuity test equals on_discontinuity.  Record those over
    # conjugacy-sized batches on M0 and compare, so a platform that breaks
    # the premise fails here rather than through moved digests.
    args, lanes = [], []
    g_np = BranchProfile.g_np
    on_discontinuity_np = MapModel.on_discontinuity_np

    def recording(self, t):
        args.append(TWO_PI * t / self.length)
        return g_np(self, t)

    def recording_lanes(self, x):
        lanes.append(x)
        return on_discontinuity_np(self, x)

    monkeypatch.setattr(BranchProfile, "g_np", recording)
    monkeypatch.setattr(MapModel, "on_discontinuity_np", recording_lanes)
    words = [itinerary(M0, SignedPoint(i / 100, PLUS), 30) for i in range(100)]
    realize_many(M0, words)
    assert len(args) > 1000
    # the grid and image lanes of build_conjugacy(M0, M0, 30, 200)
    grid = [(i + 0.5) / 200 for i in range(200)]
    lifts = len(args)
    itinerary_many(M0, grid + [M0.f(x) for x in grid], PLUS, 30)
    assert len(args) == lifts + 30 and len(lanes) == 30
    for arg in args:
        assert np.sin(arg).tolist() == [math.sin(a) for a in arg.tolist()]
    c = M0.c_minus
    lanes.append(np.array([0.0, SNAP, -SNAP, 1.0 - SNAP, 2 * SNAP, c, c - SNAP,
                           c + SNAP, c + 2 * SNAP, math.nextafter(c + SNAP, 1.0)]))
    for x in lanes:
        at_plus, at_minus = on_discontinuity_np(M0, x)
        expected = [M0.on_discontinuity(v) for v in x.tolist()]
        assert at_plus.tolist() == [d == 0.0 for d in expected]
        assert at_minus.tolist() == [d == c for d in expected]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(model=random_models(), depth=st.integers(1, 30),
       xs=st.lists(points, max_size=8),
       offsets=st.lists(st.floats(-2 * SNAP, 2 * SNAP), max_size=3))
def test_itinerary_many_matches_itinerary(model, depth, xs, offsets):
    # every lane equals scalar itinerary letter for letter on both sides, at
    # every region cut, both cusps and random points, each also moved by
    # SNAP / 2, SNAP and its float neighbours, and 2 SNAP either way, and by
    # random offsets within 2 SNAP; the inputs outside [0, 1) test the
    # normalization
    cuts = [x for x in (0.0, model.a_star, model.c_minus, model.b_star, model.q1, model.q2)
            if x is not None]
    moves = [0.0, SNAP / 2, SNAP, math.nextafter(SNAP, 0.0), math.nextafter(SNAP, 1.0),
             2 * SNAP] + offsets
    pts = xs + [cut + s * d for cut in cuts for d in moves for s in (1, -1)]
    pts += [1.0 - 2.0 ** -53, -2.0 ** -60, 1.25]
    for side in (PLUS, MINUS):
        batch = itinerary_many(model, pts, side, depth)
        assert all(isinstance(l, Letter) for w in batch for l in w.letters)
        assert [w.letters for w in batch] == [
            itinerary(model, SignedPoint(x, side), depth).letters for x in pts]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=random_models(), xs=st.lists(points, min_size=1, max_size=20))
def test_realize_roundtrip_random_models(model, xs):
    # realize(itinerary(x)) returns a depth-30 cylinder around x, for random
    # points and both sides of c+ and c-, and every itinerary passes the
    # kneading-order admissibility check; a point snapped onto a cut within
    # SNAP may sit up to SNAP outside its cylinder.  The realize_many lanes
    # equal realize bit for bit.
    bound = 2.0 * model.lambda_min ** -29 + SNAP
    kd = kneading_data(model, 35)
    sps = [SignedPoint(x, PLUS) for x in xs] + [
        SignedPoint(x, side) for x in (0.0, model.c_minus) for side in (PLUS, MINUS)]
    words, found = [], []
    for sp in sps:
        w = itinerary(model, sp, 30)
        assert is_admissible(w, kd).admissible
        r = realize(model, w)
        assert circle_dist(r.midpoint, sp.x) <= bound
        assert r.interval.length <= model.lambda_min ** -29
        words.append(w)
        found.append(_bits(r))
    assert [_bits(r) for r in realize_many(model, words)] == found


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=random_models(),
       xs=st.lists(st.floats(1e-4, 1 - 1e-4), min_size=2, max_size=8))
def test_order_proposition_random_models(model, xs):
    # the order proposition of test_order_proposition on random models,
    # cusps on c+, within SNAP of it and on c- included: ccw neighbours at
    # least 1e-4 apart, and each point against itself
    xs = sorted(xs)
    for x1, x2 in zip(xs, xs[1:]):
        wp = itinerary(model, SignedPoint(x1, PLUS), 40)
        if x2 - x1 >= 1e-4:
            wm = itinerary(model, SignedPoint(x2, MINUS), 40)
            assert lex_compare(wp, wm)[0] == LESS
        wmm = itinerary(model, SignedPoint(x1, MINUS), 40)
        assert lex_compare(wmm, wp)[0] in (LESS, EQUAL)


def test_self_conjugacy():
    res = build_conjugacy(M0, M0, depth=30, grid=200)
    assert res.monotone
    assert res.defect < 1e-6
    bound = 2.0 * M0.lambda_min ** -29
    for x, y in res.pairs:
        assert circle_dist(x, y) <= bound


def _interp_reference(pairs, x):
    """Piecewise-linear circle interpolation through the pairs at one point."""
    i = bisect.bisect_right([x0 for x0, _ in pairs], x) - 1
    x0, y0 = pairs[i]
    x1, y1 = pairs[(i + 1) % len(pairs)]
    t = ((x - x0) % 1.0) / ((x1 - x0) % 1.0 or 1.0)
    return norm1(y0 + t * ((y1 - y0) % 1.0))


def _monotone_reference(pairs):
    """The ccw steps between consecutive ordinates, the last to the first,
    and their running sum, one pair at a time; h is monotone when no step is
    an almost full turn and the steps wind once."""
    steps = [(y1 - y0) % 1.0 for (_, y0), (_, y1) in zip(pairs, pairs[1:] + pairs[:1])]
    winding = 0.0
    for step in steps:
        winding += step
    return steps, winding, max(steps) < 1.0 - 1e-9 and abs(winding - 1.0) <= 1e-6


def _conjugacy_reference(mx, my, depth, grid):
    """build_conjugacy's pairs, defect, interp_defect and monotone verdict
    one point at a time, with scalar itinerary, realize and f."""
    def H(z):
        return realize(my, itinerary(mx, SignedPoint(z, PLUS), depth)).midpoint

    xs = [x for x in ((i + 0.5) / grid for i in range(grid)) if mx.on_discontinuity(x) is None]
    pairs = sorted([(0.0, 0.0), (mx.c_minus, my.c_minus)] + [(x, H(x)) for x in xs])
    defect = max((circle_dist(H(mx.f(x)), my.f(H(x))) for x in xs
                  if mx.on_discontinuity(mx.f(x)) is None), default=0.0)
    interp_defect = 0.0
    for i in range(grid * 10):
        x = (i + 0.5) / (grid * 10)
        if mx.on_discontinuity(x) is None and mx.on_discontinuity(mx.f(x)) is None:
            fx, hx = _interp_reference(pairs, mx.f(x)), _interp_reference(pairs, x)
            interp_defect = max(interp_defect, circle_dist(fx, my.f(hx)))
    return pairs, defect, interp_defect, _monotone_reference(pairs)[2]


@pytest.mark.parametrize("mx, my, depth, grid", [
    (M0, M0, 30, 20),
    (M0, shoot_matched_model(M0, 0.10, 30), 30, 50),
    (M(0.7, 0.2), M(0.7, 0.2), 20, 37),
    (M(0.6, 0.3, c_minus=0.45), M(0.6, 0.3, c_minus=0.45), 25, 31),
])
def test_conjugacy_matches_scalar_reference(mx, my, depth, grid):
    res = build_conjugacy(mx, my, depth, grid)
    assert (res.pairs, res.defect, res.interp_defect, res.monotone) == _conjugacy_reference(
        mx, my, depth, grid)


@pytest.mark.parametrize("pairs", [
    build_conjugacy(M0, M0, 30, 20).pairs,
    [(0.0, 0.0), (0.5, 0.5), (0.75, 0.9)],
    [(0.25, 0.75)],
])
def test_interpolation_matches_scalar_formula(pairs):
    # bit for bit at probes, at the knots and their float neighbours, and
    # where the last piece reaches a full turn
    knots = [x for x, _ in pairs]
    zs = [(i + 0.5) / 997 for i in range(997)] + knots + [0.0, 1.0 - 2.0 ** -53]
    zs += [math.nextafter(x, d) for x in knots for d in (0.0, 1.0)]
    zs = [z for z in zs if 0.0 <= z < 1.0]
    h, _ = _interpolation(pairs)
    assert h(np.array(zs)).tolist() == [
        _interp_reference(pairs, z) for z in zs]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.0, 1.0, exclude_max=True)),
                min_size=1, max_size=12, unique_by=lambda p: p[0]).map(sorted))
def test_interpolation_steps_match_pairwise_reference(pairs):
    # the steps build_conjugacy reads its monotone verdict from equal the
    # pairwise ccw steps bit for bit, and their cumsum is the running sum,
    # for monotone and non-monotone ordinates alike
    steps, winding, _ = _monotone_reference(pairs)
    _, dy = _interpolation(pairs)
    assert dy.tolist() == steps
    assert np.cumsum(dy)[-1] == winding


def test_conjugacy_kneading_guard():
    other = M(0.61, 0.3)
    with pytest.raises(KneadingMismatch):
        build_conjugacy(M0, other, depth=20, grid=16)


@pytest.mark.parametrize("my, grid, depth, expected", [
    (M(0.61, 0.3), 16, 20, 10),   # a grid word fails first, an image word at 11
    (M(0.6, 0.29), 16, 10, 8),    # every grid word is realized, an image word is not
])
def test_conjugacy_reports_first_empty_cylinder(my, grid, depth, expected, monkeypatch):
    # with the kneading guard bypassed, my cannot realize every M0 word: the
    # batch must raise the EmptyCylinder depth of the first failing word of
    # the scalar reference, grid points in order and then their images
    xs = [x for x in ((i + 0.5) / grid for i in range(grid)) if M0.on_discontinuity(x) is None]
    fxs = [M0.f(x) for x in xs if M0.on_discontinuity(M0.f(x)) is None]
    assert _first_fail_depth(M0, my, xs + fxs, depth) == expected
    kd = kneading_data(M0, depth)
    monkeypatch.setattr("lorenzlab.symbolic.kneading_data", lambda model, d: kd)
    with pytest.raises(EmptyCylinder) as err:
        build_conjugacy(M0, my, depth, grid)
    assert err.value.depth == expected


def _first_fail_depth(mx, my, zs, depth):
    for z in zs:
        try:
            realize(my, itinerary(mx, SignedPoint(z, PLUS), depth))
        except EmptyCylinder as exc:
            return exc.depth
    return None


def _shoot_with_scan(mx, theta1_new, match_depth, window=0.03, scan=3000):
    """Reference shooting: a 3,001-point sign scan, then 80 halvings."""
    target = itinerary(mx, SignedPoint(mx.q2, PLUS), match_depth)
    prof2 = BranchProfile(1.0 - mx.c_minus, mx.params.theta2)

    def make(alpha):
        beta = (mx.c_minus - prof2.g(alpha - mx.c_minus)) % 1.0
        return build_model(replace(mx.params, alpha=alpha, beta=beta, theta1=theta1_new))

    def alpha_for(beta):
        want = (mx.c_minus - beta) % 1.0
        lo, hi = 0.0, prof2.length
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if prof2.g(mid) < want:
                lo = mid
            else:
                hi = mid
        return mx.c_minus + 0.5 * (lo + hi)

    def cmp_at(alpha):
        m = make(alpha)
        return lex_compare(itinerary(m, SignedPoint(m.q2, PLUS), match_depth), target)[0]

    lo, hi = mx.params.alpha - window, mx.params.alpha + window
    alphas = [lo + (hi - lo) * i / scan for i in range(scan + 1)]
    signs = [cmp_at(a) for a in alphas]
    a, b = next((a, a if sa == 0 else b)
                for a, sa, b, sb in zip(alphas, signs, alphas[1:], signs[1:])
                if sa == 0 or sa > 0 >= sb)
    for _ in range(80):
        mid = 0.5 * (a + b)
        s = cmp_at(mid)
        if s == 0:
            a = b = mid
            break
        if s > 0:
            a = mid
        else:
            b = mid
    model = make(0.5 * (a + b))
    for _ in range(8):
        beta_new = realize(model, target).interval.midpoint()
        model = make(alpha_for(beta_new))
        if circle_dist(model.q2, beta_new) < 1e-13:
            break
    return model


@pytest.mark.parametrize("theta1_new", [0.10, 0.19])
def test_shooting_matches_scan_reference(theta1_new):
    shot = shoot_matched_model(M0, theta1_new, 30)
    ref = _shoot_with_scan(M0, theta1_new, 30)
    assert abs(shot.params.alpha - ref.params.alpha) <= 1e-9
    assert shot.params.theta1 == theta1_new


def shoot_matched_model_reference(mx, theta1_new, match_depth, window=0.03):
    """The former body: after the bisection, up to 8 refinement passes that
    stop once the new cusp is within 1e-13 of the midpoint it was built from."""
    target = itinerary(mx, SignedPoint(mx.q2, PLUS), match_depth)
    prof2 = mx.profile2

    def beta_for(alpha):
        return norm1(mx.c_minus - prof2.g(alpha - mx.c_minus))

    def alpha_for(beta):
        want = norm1(mx.c_minus - beta)
        return mx.c_minus + bisect_increasing(prof2.g, want, 0.0, prof2.length)

    def make(alpha):
        return build_model(replace(
            mx.params, alpha=alpha, beta=beta_for(alpha), theta1=theta1_new))

    def cmp_at(alpha):
        m = make(alpha)
        return lex_compare(itinerary(m, SignedPoint(m.q2, PLUS), match_depth), target)[0]

    lo = mx.params.alpha - window
    hi = mx.params.alpha + window
    if cmp_at(lo) < 0 or cmp_at(hi) > 0:
        raise KneadingMismatch("shooting", -1)
    alpha = bisect_increasing(lambda a: -cmp_at(a), 0, lo, hi)
    model = make(alpha)
    for _ in range(8):
        cyl = realize(model, target).interval
        beta_new = cyl.midpoint()
        model = make(alpha_for(beta_new))
        if circle_dist(model.q2, beta_new) < 1e-13:
            break
    return model


@pytest.mark.parametrize("theta1", [0.0, 0.1, 0.19])
@pytest.mark.parametrize("depth", [2, 10, 30, 60])
def test_shooting_matches_refinement_loop_reference(theta1, depth):
    # one refinement step gives the former loop's params bit for bit, and a
    # shoot the loop refused (no bracket, or a cylinder too thin to realize)
    # fails with the same error
    mx = M(0.6, 0.3, theta1=theta1)
    rng = np.random.default_rng(int(theta1 * 100) * 100 + depth)
    for theta1_new in rng.uniform(0.0, 0.19, 5).tolist():
        try:
            ref = shoot_matched_model_reference(mx, theta1_new, depth)
        except (KneadingMismatch, EmptyCylinder) as exc:
            with pytest.raises(type(exc)) as err:
                shoot_matched_model(mx, theta1_new, depth)
            assert err.value.args == exc.args
            continue
        assert shoot_matched_model(mx, theta1_new, depth).params == ref.params


def test_shooting_rejects_unbracketed_window():
    # a window too narrow to reach the matching cylinder
    with pytest.raises(KneadingMismatch):
        shoot_matched_model(M0, 0.19, 30, window=1e-6)
