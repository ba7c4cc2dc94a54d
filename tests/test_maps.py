import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorenzlab.atlas import golden_bound
from lorenzlab.circle import circle_dist, norm1
from lorenzlab.errors import DegenerateArc, ExpansionTooWeak, OnStratum
from lorenzlab.maps import (
    PHI,
    ROOT_TOL,
    SNAP,
    PLUS,
    MINUS,
    BranchProfile,
    EigenvalueTriple,
    ModelParams,
    SignedPoint,
    _bisect_lift,
    bisect_increasing,
    bisect_increasing_np,
    branch_lanes,
    build_model,
    check_singularity_conditions,
    eval_signed,
    fixed_points,
    inverse_branch,
    lift_np,
    verify_hypotheses,
)
from test_symbolic import random_models


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)


def test_build_default():
    assert M0.lambda_min == pytest.approx(1.7, abs=1e-12)
    assert M0.q1 == 0.6 and M0.q2 == 0.3
    assert M0.a_star == pytest.approx(0.19205637927, abs=1e-9)
    assert M0.b_star == pytest.approx(0.85, abs=1e-9)


def test_build_affine_doubling():
    m = M(0.0, 0.0, theta1=0.0, theta2=0.0)
    assert m.lambda_min == pytest.approx(2.0)
    assert m.q1 == 0.0 and m.q2 == 0.0
    assert m.a_star is None and m.b_star is None


def test_build_rejects_weak_expansion():
    with pytest.raises(ExpansionTooWeak):
        M(0.6, 0.3, theta1=0.25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c_minus=st.floats(0.05, 0.95), theta1=st.floats(0.0, 0.19),
       theta2=st.floats(0.0, 0.19), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
def test_build_model_keeps_the_golden_ratio_lemma(c_minus, theta1, theta2, a, b):
    # the lemma max(lam |ab|, lam^2 |bc|) >= (lam / phi)(|ab| + |bc|) holds
    # exactly when lam >= phi, so every model build_model returns satisfies it
    slope = min((1 - theta1) / c_minus, (1 - theta2) / (1 - c_minus))
    try:
        m = M(0.6, 0.3, c_minus=c_minus, theta1=theta1, theta2=theta2)
    except ExpansionTooWeak:
        assert slope <= PHI
        return
    assert m.lambda_min == slope and m.lambda_min > PHI
    assert golden_bound(a, b, m.lambda_min).holds


def test_build_rejects_degenerate_arc():
    with pytest.raises(DegenerateArc):
        M(0.6, 0.3, c_minus=0.0)


def test_eval_interior():
    out = eval_signed(M0, SignedPoint(0.25, PLUS))
    assert out.x == pytest.approx(0.1, abs=1e-12) and out.side == PLUS
    out = eval_signed(M0, SignedPoint(0.75, PLUS))
    assert out.x == pytest.approx(0.8, abs=1e-12)


def test_eval_automaton():
    assert eval_signed(M0, SignedPoint(0.0, PLUS)) == SignedPoint(0.6, PLUS)
    assert eval_signed(M0, SignedPoint(0.0, MINUS)) == SignedPoint(0.3, MINUS)
    assert eval_signed(M0, SignedPoint(0.5, PLUS)) == SignedPoint(0.3, PLUS)
    assert eval_signed(M0, SignedPoint(0.5, MINUS)) == SignedPoint(0.6, MINUS)


def test_derivative_values():
    # f'(x) is the slope of x's branch profile at its offset from the branch start
    assert M0.profile1.dg_np(0.25) == pytest.approx(1.7, abs=1e-12)
    assert M0.profile2.dg_np(0.75 - 0.5) == pytest.approx(2.0, abs=1e-12)
    assert M0.profile1.dg_np(0.125) == pytest.approx(2.0, abs=1e-12)


def test_derivative_above_phi():
    rng = np.random.default_rng(5)
    xs = rng.uniform(1e-6, 1 - 1e-6, 100_000)
    xs = xs[np.abs(xs - 0.5) > 1e-9]
    _, start, profile = branch_lanes(M0, xs >= M0.c_minus)
    assert float(profile.dg_np(xs - start).min()) > PHI


def test_inverse_branch():
    assert inverse_branch(M0, 2, 0.8) == pytest.approx(0.75, abs=1e-10)
    assert inverse_branch(M0, 1, 0.6) is None
    assert inverse_branch(M0, 1, 0.1) == pytest.approx(0.25, abs=1e-10)


def test_inverse_branch_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(10_000):
        x = rng.uniform(1e-6, 1 - 1e-6)
        if abs(x - 0.5) < 1e-6 or x < 1e-6:
            continue
        branch = 1 if x < 0.5 else 2
        y = M0.f(x)
        back = inverse_branch(M0, branch, y)
        assert back is not None
        assert circle_dist(back, x) < 1e-10


def _clamped_bisect(fn, target, lo, hi):
    """Scalar reference: the clamp of _bisect_lift, then bisect_increasing."""
    if target <= fn(lo):
        return lo
    if target >= fn(hi):
        return hi
    return bisect_increasing(fn, target, lo, hi, ROOT_TOL)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(c_minus=st.floats(0.38, 0.62), theta1=st.floats(0.0, 0.19),
       theta2=st.floats(0.0, 0.19), alpha=st.floats(-1.0, 2.0),
       beta=st.floats(-1.0, 2.0),
       lanes=st.lists(st.tuples(st.sampled_from([1, 2]), st.floats(-0.5, 1.5),
                                st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                      min_size=1, max_size=30))
def test_bisect_increasing_np_matches_scalar(c_minus, theta1, theta2, alpha, beta,
                                             lanes):
    # lane-wise lift bisection on mixed branches, random brackets inside each
    # branch arc, and targets inside, on and beyond the bracket's end values
    try:
        m = M(alpha, beta, c_minus=c_minus, theta1=theta1, theta2=theta2)
    except ExpansionTooWeak:
        assume(False)
    branch = np.array([b for b, _, _, _ in lanes])
    starts = np.where(branch == 1, 0.0, m.c_minus)
    ends = np.where(branch == 1, m.c_minus, 1.0)
    u = np.array([sorted((s, t)) for _, _, s, t in lanes])
    lo = starts + (ends - starts) * u[:, 0]
    hi = starts + (ends - starts) * u[:, 1]
    lift = lift_np(m, branch)
    f_lo, f_hi = lift(lo), lift(hi)
    targets = f_lo + (f_hi - f_lo) * np.array([s for _, s, _, _ in lanes])
    # every third lane aims at an end value exactly
    targets[::3] = np.where(np.arange(len(lanes))[::3] % 2, f_hi[::3], f_lo[::3])
    got = bisect_increasing_np(lift, targets, lo, hi)
    for i, b in enumerate(branch.tolist()):
        assert f_lo[i] == m.lift(b, lo[i])
        want = _bisect_lift(m, b, targets[i], lo[i], hi[i])
        assert float(got[i]).hex() == float(want).hex()


def test_bisect_increasing_np_exact_hits_and_clamps():
    # fn(x) = 3x + 1 is exact on dyadic x in [0, 1]: target 1.75 is hit at
    # the second midpoint, 1.5625 at the fourth; 0.5 and 4.5 clamp to the
    # bracket ends, 2.8 bisects down to ROOT_TOL.  The last lane sits where
    # one float step exceeds ROOT_TOL and stops once the midpoint no longer
    # splits its bracket.
    fn = lambda x: 3.0 * x + 1.0
    big = 2.0 ** 40
    targets = np.array([1.75, 1.5625, 0.5, 4.5, 1.0, 4.0, 2.8, fn(big) + 2.0 ** -11])
    lo = np.array([0.0] * 7 + [big])
    hi = np.array([1.0] * 7 + [big + 2.0 ** -8])
    got = bisect_increasing_np(fn, targets, lo, hi)
    want = [_clamped_bisect(fn, t, a, b)
            for t, a, b in zip(targets.tolist(), lo.tolist(), hi.tolist())]
    assert got.tolist() == want
    assert want[:6] == [0.25, 0.1875, 0.0, 1.0, 0.0, 1.0]
    assert abs(want[6] - 0.6) <= ROOT_TOL
    assert fn(want[7]) != targets[7] and hi[7] - lo[7] > ROOT_TOL
    assert bisect_increasing_np(fn, targets[:0], lo[:0], hi[:0]).shape == (0,)
    # lanes bracketed at float resolution on entry, (lo, nextafter(lo, 1)),
    # and lanes at most ROOT_TOL wide on entry, on fn(x) = x - lo, which is
    # exact on each bracket and leaves room for targets strictly between its
    # end values; each lane also gets targets at and beyond both end values.
    # From 2**13 up one float step is wider than ROOT_TOL, so those lanes
    # stop because their midpoint no longer splits them
    lo = [0.3, 0.7, 0.25, 2.0 ** 13, big, 0.3, 0.7, 0.25, 0.0]
    hi = [math.nextafter(a, math.inf) for a in lo[:5]] + [
        0.3 + ROOT_TOL, 0.7 + ROOT_TOL / 2, 0.25 + ROOT_TOL / 3, ROOT_TOL]
    lanes = [(a, b, (b - a) * s) for a, b in zip(lo, hi)
             for s in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0)]
    lo, hi, targets = map(np.array, zip(*lanes))
    got = bisect_increasing_np(lambda x: x - lo, targets, lo, hi)
    want = [_clamped_bisect(lambda x: x - a, t, a, b) for a, b, t in lanes]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert all(0.0 < t < b - a for a, b, t in lanes[2::7] + lanes[3::7] + lanes[4::7])
    assert all(b - a > ROOT_TOL for a, b, _ in lanes[21:35])


def test_pinch_property():
    lam_max = max((1 + p.theta) / p.length for p in (M0.profile1, M0.profile2))
    for eps in (1e-3, 1e-6):
        gap = circle_dist(M0.f(eps), M0.f(0.5 - eps))
        assert gap <= 3 * lam_max * eps


def test_fixed_points_default():
    fp = fixed_points(M0)
    assert fp.p2 == pytest.approx(0.7, abs=1e-10)
    assert fp.p1 == pytest.approx(0.42013510, abs=1e-7)


def test_fixed_points_none():
    fp = fixed_points(M(0.3, 0.7))
    assert fp.p1 is None and fp.p2 is None


def test_fixed_points_closed_form():
    fp = fixed_points(M(0.75, 0.25))
    assert fp.p1 == pytest.approx(0.25, abs=1e-10)
    assert fp.p2 == pytest.approx(0.75, abs=1e-10)


def test_fixed_points_on_stratum():
    with pytest.raises(OnStratum):
        fixed_points(M(0.5, 0.3))


def test_fixed_point_criterion_grid():
    # p1 exists iff alpha > c-, p2 exists iff beta < c-; zero exceptions
    for i in range(100):
        for j in range(100):
            a = (i + 0.5) / 100
            b = (j + 0.5) / 100
            fp = fixed_points(M(a, b))
            assert (fp.p1 is not None) == (a > 0.5)
            assert (fp.p2 is not None) == (b < 0.5)


def test_verify_hypotheses_pass():
    rep = verify_hypotheses(M0)
    assert rep.all_ok
    assert rep.lambda_min == pytest.approx(1.7)
    rep19 = verify_hypotheses(M(0.6, 0.3, theta1=0.19))
    assert rep19.all_ok
    assert rep19.lambda_min == pytest.approx(1.62)
    assert rep19.lambda_min - PHI == pytest.approx(0.002, abs=1e-3)


def test_verify_hypotheses_broken_wrap():
    @dataclasses.dataclass(frozen=True)
    class Broken(BranchProfile):
        def g(self, t):
            return 0.9 * super().g(t)

        def g_np(self, t):
            return 0.9 * super().g_np(t)

    bad = dataclasses.replace(M0, profile1=Broken(M0.profile1.length, M0.profile1.theta))
    rep = verify_hypotheses(bad)
    assert not rep.wrap_ok
    assert not rep.all_ok


def test_verify_hypotheses_weak_expansion_message():
    rep = verify_hypotheses(dataclasses.replace(M0, lambda_min=1.5))
    assert not rep.expansion_ok
    assert rep.failures == ["lambda_min=1.5 <= 1.61803"]


def test_lorenz_like_verdicts():
    # exhaustive enumeration is the oracle: at N=4 the sum (1,0,2) hits
    # lambda_s = -5 + 4 = -1; restricting to N=3 leaves no resonance
    rep = check_singularity_conditions(EigenvalueTriple(-5, -1, 2), N=4)
    assert rep.lorenz_like
    assert {(m, i) for m, i, _ in rep.resonances} == {((1, 0, 2), 1)}
    rep3 = check_singularity_conditions(EigenvalueTriple(-5, -1, 2), N=3)
    assert rep3.non_resonant
    rep = check_singularity_conditions(EigenvalueTriple(-2, -1, 3), N=4)
    assert not rep.lorenz_like


def test_resonances_enumerated():
    # exhaustive enumeration finds (1,0,1) -> lambda_s and (0,3,0) -> lambda_ss
    rep = check_singularity_conditions(EigenvalueTriple(-3, -1, 2), N=4)
    hits = {(m, i) for m, i, _ in rep.resonances}
    assert ((1, 0, 1), 1) in hits
    assert ((0, 3, 0), 0) in hits
    assert not rep.non_resonant


def test_sides_agree_off_boundaries():
    rng = np.random.default_rng(3)
    from lorenzlab.symbolic import itinerary

    count = 0
    for _ in range(200):
        x = rng.uniform(0, 1)
        wp = itinerary(M0, SignedPoint(x, PLUS), 20)
        wm = itinerary(M0, SignedPoint(x, MINUS), 20)
        if wp.letters == wm.letters:
            count += 1
    assert count >= 199  # boundary orbits have measure zero


@st.composite
def step_models(draw):
    """The random models of the realize round trip, with each cusp moved
    within SNAP of c- (either side) on some draws."""
    model = draw(random_models())
    c = model.c_minus
    cusp = st.sampled_from([None, c - 0.5 * SNAP, c + 0.5 * SNAP])
    alpha, beta = draw(cusp), draw(cusp)
    return build_model(model.params._replace(
        alpha=model.params.alpha if alpha is None else alpha,
        beta=model.params.beta if beta is None else beta))


def _reference_f(model, x):
    return norm1(model.lift(model.branch_of(x), x))


def _reference_on_discontinuity(model, x):
    for p in (0.0, model.c_minus):
        if circle_dist(x, p) <= SNAP:
            return p
    return None


def _edge_points(model):
    """0, c-, the largest float below 1, points SNAP from each discontinuity
    with their float neighbours, points within SNAP on both sides, and all of
    these nudged by 1e-9 (some land at or above 1).  -SNAP is the point whose
    circle distance to 0 is SNAP exactly, the tie that ``<=`` decides."""
    c = model.c_minus
    xs = [0.0, c, 1.0 - 2.0 ** -53, -SNAP]
    for x in (SNAP, 1.0 - SNAP, c - SNAP, c + SNAP):
        xs += [x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)]
    xs += [0.5 * SNAP, 1.0 - 0.5 * SNAP, c - 0.5 * SNAP, c + 0.5 * SNAP]
    return xs + [x + 1e-9 for x in xs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=step_models(), xs=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                        min_size=1, max_size=10))
def test_scalar_step_matches_lift_reference(model, xs):
    # MapModel.f and on_discontinuity inline lift/norm1 and circle_dist;
    # both must equal those references bit for bit, on the discontinuities,
    # within and exactly at SNAP of them, and on nudged points at or above 1
    for x in _edge_points(model) + xs:
        assert model.f(x).hex() == _reference_f(model, x).hex(), x
        assert model.on_discontinuity(x) == _reference_on_discontinuity(model, x), x
    # a 2,000-step nudged orbit, as the histogram runs it
    x = y = xs[0]
    for _ in range(2000):
        x = model.f(x if model.on_discontinuity(x) is None else x + 1e-9)
        if _reference_on_discontinuity(model, y) is not None:
            y += 1e-9
        y = _reference_f(model, y)
        assert x.hex() == y.hex()
