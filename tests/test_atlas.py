import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from lorenzlab import atlas
from lorenzlab.atlas import (
    _branch_images,
    _clearance,
    ARC_BUDGET,
    CoverageCertificate,
    STRATUM_DYNAMICS,
    attractor_span,
    RegionVerdict,
    classify,
    classify_cells,
    golden_bound,
    HorseshoeCertificate,
    horseshoe_certificate,
    iterate_segments,
    region_verdicts,
    solve_axis,
    trapping_interval,
)
from lorenzlab.circle import (
    TOL,
    Arc,
    ArcUnion,
    arc_contains,
    circle_dist,
    dist_ccw,
    linear_pieces,
    norm1,
)
from lorenzlab.errors import (
    ArcBudgetExceeded,
    ExpansionTooWeak,
    LambdaBelowPhi,
    NotMarkov,
    NoTrappingInterval,
    PreconditionError,
)
from lorenzlab.maps import (
    PHI,
    PLUS,
    SNAP,
    ModelParams,
    SignedPoint,
    branch_fixed_point,
    build_model,
    fixed_points,
)
from lorenzlab.symbolic import EQUAL, GREATER, LESS, Letter, Word, itinerary, lex_compare
from test_symbolic import random_models


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)


# --- classification --------------------------------------------------------

def classify_reference(model):
    """The stratum rule stated branch by branch on one model: the reference
    that ``region_verdicts`` (and so ``classify``) is checked against.

    Homoclinic strata are detected first (cusp within SNAP of a
    discontinuity), then the fixed points decide the quadrant; in the
    doubly-fixed quadrant the heteroclinic loci (cusp within SNAP of the
    other branch's fixed point) are checked and the cusps are located
    relative to the two components cut out by the fixed points.
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
                stratum = atlas.H12P
            elif d1m <= SNAP and d2m <= SNAP:
                stratum = atlas.H12M
            else:
                # mixed double loop: inside H1 off the same-side codim-2 loci,
                # so the single-loop two-sided verdict applies
                stratum = atlas.H1P if d1p <= SNAP else atlas.H1M
        elif on1:
            stratum = atlas.H1P if d1p <= SNAP else atlas.H1M
        else:
            stratum = atlas.H2P if d2p <= SNAP else atlas.H2M
        return RegionVerdict(stratum, margin, STRATUM_DYNAMICS[stratum])

    fp = fixed_points(model)
    omega1 = "+" if model.q1 > c else "-"
    omega2 = "+" if model.q2 < c else "-"

    if omega1 == "-" or omega2 == "-":
        stratum = {"--": atlas.O_MM, "+-": atlas.O_PM, "-+": atlas.O_MP}[omega1 + omega2]
        return RegionVerdict(stratum, min(h_dists), STRATUM_DYNAMICS[stratum],
                             p1=fp.p1, p2=fp.p2)

    he1_d = circle_dist(model.q1, fp.p2)
    he2_d = circle_dist(model.q2, fp.p1)
    margin = min(h_dists + [he1_d, he2_d])
    sp, sm = Arc(fp.p2, fp.p1), Arc(fp.p1, fp.p2)

    if he1_d <= SNAP and he2_d <= SNAP:
        symmetric = (model.params.theta1 == model.params.theta2
                     and abs(model.c_minus - 0.5) <= SNAP)
        stratum = atlas.DEGENERATE if symmetric else atlas.HE1_AND_HE2
    elif he1_d <= SNAP:
        stratum = atlas.HE1
    elif he2_d <= SNAP:
        stratum = atlas.HE2
    else:
        q1_plus = arc_contains(sp, model.q1)
        q2_plus = arc_contains(sp, model.q2)
        if q1_plus and q2_plus:
            stratum = atlas.O_PP_LPLUS
        elif not q1_plus and not q2_plus:
            stratum = atlas.O_PP_LMINUS
        else:
            stratum = atlas.O_PP_TILDE
    return RegionVerdict(stratum, margin, STRATUM_DYNAMICS[stratum],
                         p1=fp.p1, p2=fp.p2, sigma_plus=sp, sigma_minus=sm)


def _same_verdict(got, want):
    """Whole verdicts equal, and the margin bit for bit."""
    return got == want and got.margin.hex() == want.margin.hex()


CLASSIFY_CASES = [
    ((0.25, 0.75), atlas.O_MM, atlas.TWO_SIDED),
    ((0.25, 0.25), atlas.O_MP, atlas.TWO_SIDED),
    ((0.75, 0.75), atlas.O_PM, atlas.TWO_SIDED),
    ((0.6, 0.3), atlas.O_PP_TILDE, atlas.TWO_SIDED),
    ((0.707, 0.30), atlas.O_PP_LPLUS, atlas.UP_LORENZ),
    ((0.79, 0.20), atlas.O_PP_LMINUS, atlas.DOWN_LORENZ),
    ((0.75, 0.25), atlas.HE1_AND_HE2, atlas.DOUBLE_FULL),
    ((0.5, 0.5), atlas.H12M, atlas.FAT_LORENZ),
    ((0.0, 0.0), atlas.H12P, atlas.FAT_LORENZ),
    ((0.5, 0.3), atlas.H1M, atlas.TWO_SIDED),
    ((0.3, 0.5), atlas.H2M, atlas.TWO_SIDED),
    ((0.0, 0.3), atlas.H1P, atlas.TWO_SIDED),
]


@pytest.mark.parametrize("ab,stratum,dynamics", CLASSIFY_CASES)
def test_classify_cases(ab, stratum, dynamics):
    v = classify(M(*ab))
    assert v.stratum == stratum
    assert v.dynamics == dynamics


def test_classify_he1():
    # HE1 only: q1 = p2 with q2 off p1
    v = classify(M(0.78, 0.22))
    assert v.stratum == atlas.HE1
    assert v.dynamics == atlas.COLLISION


def test_classify_degenerate_symmetric():
    v = classify(M(0.6, 0.4, theta1=0.0, theta2=0.0))
    assert v.stratum == atlas.DEGENERATE


# --- grid classification ---------------------------------------------------

def _grid_matches_classify(params, alphas, betas):
    """Assert region_verdicts over the row alphas and the column betas equals
    the reference on every cell, whole verdicts and margins bit for bit, and
    classify_cells on the two solve_axis results holds the grid's shape;
    return the set of strata seen."""
    column = np.array(betas)[:, None]
    q1, p1 = solve_axis(params, alphas, 1)
    q2, p2 = solve_axis(params, column, 2)
    strata, margins = classify_cells(params, q1, p1, q2, p2)
    shape = (len(betas), len(alphas))
    assert strata.shape == margins.shape == np.broadcast_shapes(p1.shape, p2.shape) == shape
    assert margins.dtype == np.float64
    cells = iter(region_verdicts(params, alphas, column))
    for b in betas:
        for a in alphas:
            want = classify_reference(build_model(params._replace(alpha=a, beta=b)))
            assert _same_verdict(next(cells), want), (a, b)
    return {atlas.STRATA[k] for k in strata.ravel()}


def _sweep_axis(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(c_minus=st.floats(0.38, 0.62), theta1=st.floats(0.0, 0.19),
       theta2=st.floats(0.0, 0.19),
       a_range=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
       b_range=st.tuples(st.floats(-2.0, 3.0), st.floats(-2.0, 3.0)),
       nx=st.integers(2, 9), ny=st.integers(2, 9))
def test_classify_grid_matches_classify(c_minus, theta1, theta2, a_range,
                                        b_range, nx, ny):
    params = ModelParams(alpha=0.6, beta=0.3, c_minus=c_minus,
                         theta1=theta1, theta2=theta2)
    try:
        build_model(params)
    except ExpansionTooWeak:
        assume(False)
    _grid_matches_classify(params, _sweep_axis(*a_range, nx),
                           _sweep_axis(*b_range, ny))


# random_models puts cusps on and near the loci on purpose: those draws have
# no margin to test and are filtered out
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(random_models(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_classify_stable_within_margin(model, u, v):
    # moving a cusp by delta moves the other branch's fixed point by up to
    # delta / (lambda - 1), so a heteroclinic distance moves by up to
    # delta * lambda / (lambda - 1); a stratum begins SNAP from its locus
    verdict = classify(model)
    assume(verdict.margin > 1e-6)
    lam = model.lambda_min
    room = 0.999 * (verdict.margin - SNAP) * (lam - 1.0) / lam
    p = model.params
    moved = p._replace(alpha=p.alpha + u * room, beta=p.beta + v * room)
    assert classify(build_model(moved)).stratum == verdict.stratum
    # every cell of the 3x3 grid spanning +-room around the point
    cells = region_verdicts(p, [p.alpha + k * room for k in (-1, 0, 1)],
                            [[p.beta + k * room] for k in (-1, 0, 1)])
    assert len(cells) == 9 and {v.stratum for v in cells} == {verdict.stratum}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_models())
def test_classify_matches_reference(model):
    # p1, p2 and the sigma arcs too, which the stratum and margin do not show
    assert _same_verdict(classify(model), classify_reference(model))


# the README collision path at 401 steps, and a path through the double
# heteroclinic point that switches from L- to L+ across HE1andHE2
PATHS = {"collision": ((0.77, 0.22), (0.79, 0.22), 401),
         "switch": ((0.754, 0.2458), (0.746, 0.2542), 21)}


@pytest.mark.parametrize("theta1", [0.15, 0.19])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_classify_grid_on_path_matches_reference(path, theta1):
    (a0, b0), (a1, b1), steps = PATHS[path]
    ts = [k / (steps - 1) for k in range(steps)]
    alphas = [a0 + (a1 - a0) * t for t in ts]
    betas = [b0 + (b1 - b0) * t for t in ts]
    params = ModelParams(a0, b0, theta1=theta1)
    got = region_verdicts(params, alphas, betas)
    assert len(got) == steps
    for v, a, b in zip(got, alphas, betas):
        want = classify_reference(build_model(params._replace(alpha=a, beta=b)))
        assert _same_verdict(v, want), (a, b)
    if path == "switch":
        assert [v.stratum for v in got] == (
            [atlas.O_PP_LMINUS] * 10 + [atlas.HE1_AND_HE2] + [atlas.O_PP_LPLUS] * 10)


def test_classify_grid_solves_each_distinct_value_once(monkeypatch):
    # the README collision path holds beta fixed, so its 401 steps take 401
    # p1 solves and one p2 solve (test_classify_grid_on_path_matches_reference
    # checks its verdicts); repeated values in any order, and -0.0 beside
    # 0.0, still read their own cell's solve
    solves = []

    def counting(model, branch):
        solves.append(branch)
        return branch_fixed_point(model, branch)

    monkeypatch.setattr(atlas, "branch_fixed_point", counting)
    (a0, b0), (a1, b1), steps = PATHS["collision"]
    t = np.arange(steps, dtype=float) / (steps - 1)
    region_verdicts(ModelParams(a0, b0, theta1=0.19), a0 + (a1 - a0) * t, b0 + (b1 - b0) * t)
    assert solves.count(1) == steps and solves.count(2) == 1
    solves.clear()
    values = [0.77, 0.21, 0.77, -0.0, 0.9, 0.21, 0.0, 0.77]
    region_verdicts(ModelParams(0.6, 0.3), values, np.array(values)[:, None])
    assert solves.count(1) == solves.count(2) == len(set(values))
    _grid_matches_classify(ModelParams(0.6, 0.3), values, values)


@pytest.mark.parametrize("c", [0.5, 0.45])
def test_classify_grid_on_homoclinic_loci(c):
    # cusps on, and within or just outside SNAP of, the discontinuities 0, c-
    values = [0.0, 5e-10, -5e-10, 2e-9, 1.0, c, c + 5e-10, c - 5e-10,
              c + 2e-9, 1.0 + c, -c, 0.3 * c, c + 0.3 * (1 - c)]
    seen = _grid_matches_classify(ModelParams(0.6, 0.3, c_minus=c),
                                  values, values)
    assert {atlas.H12P, atlas.H12M, atlas.H1P, atlas.H1M,
            atlas.H2P, atlas.H2M} <= seen


def test_classify_grid_on_heteroclinic_loci():
    # beta set to a column's p1 puts that column's cell on HE2, alpha set to
    # a row's p2 puts that row's cell on HE1; (0.75, 0.25) is on both.  At
    # p +- 2 SNAP a cell lies just outside the HE band, where q1 > p2 and
    # q2 < p1 decide it right next to each curve
    params = ModelParams(0.6, 0.3)
    base_alphas = [0.6, 0.7, 0.75, 0.78, 0.9]
    base_betas = [0.1, 0.22, 0.25, 0.4]
    p1 = [branch_fixed_point(M(a, 0.3), 1) for a in base_alphas]
    p2 = [branch_fixed_point(M(0.6, b), 2) for b in base_betas]
    near = (0.0, -2 * SNAP, 2 * SNAP)
    seen = _grid_matches_classify(params, base_alphas + [p + d for p in p2 for d in near],
                                  base_betas + [p + d for p in p1 for d in near])
    assert {atlas.HE1, atlas.HE2, atlas.HE1_AND_HE2,
            atlas.O_PP_LPLUS, atlas.O_PP_LMINUS, atlas.O_PP_TILDE} <= seen


def test_classify_grid_degenerate():
    params = ModelParams(0.6, 0.4, theta1=0.1, theta2=0.1)
    alphas = _sweep_axis(0.3, 0.9, 13)
    seen = _grid_matches_classify(params, alphas, [1.0 - a for a in alphas])
    assert atlas.DEGENERATE in seen


def test_verdict_table_consistency():
    # every cell's dynamics agrees with the stratum table; off-strata cells
    # with visible margin land in one of the three open-region verdicts
    n = 200
    open_dyn = {atlas.TWO_SIDED, atlas.UP_LORENZ, atlas.DOWN_LORENZ}
    for i in range(n):
        for j in range(n):
            a = (i + 0.5) / n
            b = (j + 0.5) / n
            v = classify(M(a, b))
            assert v.dynamics == STRATUM_DYNAMICS[v.stratum]
            if v.margin > 1e-6:
                assert v.dynamics in open_dyn


def test_sigma_components():
    v = classify(M0)
    assert v.sigma_plus.start == pytest.approx(0.7, abs=1e-9)
    assert v.sigma_plus.end == pytest.approx(0.42013510, abs=1e-6)
    assert arc_contains(v.sigma_plus, 0.0) or v.sigma_plus.start == 0.0
    assert arc_contains(v.sigma_minus, 0.5)
    # without both fixed points there are no sigma components
    v = classify(M(0.3, 0.7))
    assert v.sigma_plus is None and v.sigma_minus is None


# --- kneading oracle --------------------------------------------------------

# In the ++ quadrant p1 has itinerary A1^oo (A0 maps into [q1, 1], above c-)
# and p2 has B0^oo (B1 maps into [0, q2], below c-).  Itineraries are monotone
# in x, so the two collision curves are kneading comparisons: q1 > p2 iff
# itinerary(q1, +) > B0^oo, and q2 < p1 iff itinerary(q2, +) < A1^oo
# (Milnor-Thurston 1988; Glendinning-Sparrow, Physica D 1993, for Lorenz maps).
KNEADING_DEPTH = 60
B0_FIXED = Word.from_cycle([Letter.B0], KNEADING_DEPTH)
A1_FIXED = Word.from_cycle([Letter.A1], KNEADING_DEPTH)


@st.composite
def pp_models(draw):
    """++ models near the anti-diagonal through (0.75, 0.25), the double
    heteroclinic point at c- = 1/2 for every theta.  Both collision curves
    run close to that line, so the thin L+ and L- wedges between them are
    drawn often, most of all when c- is drawn as 1/2."""
    s, e = draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.005, 0.005))
    try:
        return build_model(ModelParams(0.75 + s + e, 0.25 - s + e,
                                       c_minus=draw(st.just(0.5) | st.floats(0.45, 0.55)),
                                       theta1=draw(st.floats(0.0, 0.19)),
                                       theta2=draw(st.floats(0.0, 0.19))))
    except ExpansionTooWeak:
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pp_models())
@example(M(0.746, 0.2542))   # O++_Lplus
@example(M(0.79, 0.20))      # O++_Lminus
def test_collision_curves_match_kneading_order(model):
    v = classify(model)
    # on a heteroclinic locus the cusp's word is the fixed point's word
    assume(v.stratum in (atlas.O_PP_LPLUS, atlas.O_PP_LMINUS, atlas.O_PP_TILDE))
    signs = []
    for q, p, fixed_word in ((model.q1, v.p2, B0_FIXED), (model.q2, v.p1, A1_FIXED)):
        sign, depth = lex_compare(itinerary(model, SignedPoint(q, PLUS), KNEADING_DEPTH),
                                  fixed_word)
        assert sign != EQUAL
        # q and p share their first `depth` letters, so they still lie in one
        # region after depth - 1 steps of slope >= lambda_min; measured on
        # 5,000 models of this window, the bound held with 1.99 letters to spare
        assert depth <= math.log(1.0 / abs(q - p)) / math.log(model.lambda_min) + 1
        signs.append(sign)
    in1, in2 = signs[0] == GREATER, signs[1] == LESS
    assert (in1, in2) == (model.q1 > v.p2, model.q2 < v.p1)
    want = (atlas.O_PP_LPLUS if in1 and in2 else atlas.O_PP_LMINUS if not (in1 or in2)
            else atlas.O_PP_TILDE)
    assert v.stratum == want


def test_theorem_f_quadrants():
    # probes surrounding the double heteroclinic point (0.75, 0.25)
    assert classify(M(0.707, 0.30)).stratum == atlas.O_PP_LPLUS
    assert classify(M(0.79, 0.20)).stratum == atlas.O_PP_LMINUS
    assert classify(M(0.78, 0.24)).stratum == atlas.O_PP_TILDE
    assert classify(M(0.72, 0.26)).stratum == atlas.O_PP_TILDE


def test_double_loop_ray():
    # the paper's unfolding ray of the double loop at (0, 0): q1 enters the
    # second branch arc (alpha = -mu), q2 the first (beta = 0.9 mu); down
    # Lorenz for all small mu, and no up-Lorenz wedge near the origin
    for mu in (1e-2, 1e-3, 1e-4):
        v = classify(M((-mu) % 1.0, 0.9 * mu))
        assert v.stratum == atlas.O_PP_LMINUS
    for d1 in np.linspace(-1e-2, 1e-2, 21):
        for d2 in np.linspace(-1e-2, 1e-2, 21):
            v = classify(M(d1 % 1.0, d2 % 1.0))
            assert v.stratum != atlas.O_PP_LPLUS


# --- golden bound -----------------------------------------------------------

def test_golden_equality_case():
    g = golden_bound(1 / PHI, 1 / PHI ** 2, PHI)
    assert g.lhs == pytest.approx(1.0, abs=1e-9)
    assert g.rhs == pytest.approx(1.0, abs=1e-9)
    assert g.holds


def test_golden_examples():
    g = golden_bound(0.5, 0.5, 1.8)
    assert g.lhs == pytest.approx(1.62)
    assert g.rhs == pytest.approx(1.8 / PHI)
    assert g.holds
    g = golden_bound(1.0, 0.0, PHI)
    assert g.lhs == pytest.approx(PHI) and g.rhs == pytest.approx(1.0)
    with pytest.raises(LambdaBelowPhi):
        golden_bound(0.5, 0.5, 1.5)


def test_golden_random():
    rng = np.random.default_rng(12)
    l1 = rng.uniform(0, 1, 100_000)
    l2 = rng.uniform(0, 1, 100_000)
    lam = rng.uniform(PHI, 2.0, 100_000)
    lhs = np.maximum(lam * l1, lam ** 2 * l2)
    rhs = (lam / PHI) * (l1 + l2)
    assert np.all(lhs >= rhs - 1e-12)


# --- segment engine ----------------------------------------------------------

def test_engine_full_circle_seed():
    cert = iterate_segments(M0, Arc.full_circle(), maxN=5, eps=1e-9)
    assert cert.covered_fraction == pytest.approx(1.0, abs=1e-12)


def test_engine_straddle_split():
    cert = iterate_segments(M0, Arc(0.49, 0.51), maxN=1, eps=1e-12)
    arcs = sorted((a.start, a.end if a.end else 1.0) for a in cert.terminal_arcs)
    assert len(arcs) == 2
    # anchored at the two cusps q2 = 0.3 and q1 = 0.6
    assert arcs[0][0] == pytest.approx(0.3, abs=1e-12)
    assert arcs[1][1] == pytest.approx(0.6, abs=1e-12)


def test_engine_keeps_full_turn_image():
    # at H12+ the whole first branch maps onto the circle minus the cusp 0
    cert = iterate_segments(M(0.0, 0.0), Arc(0.0, 0.5), maxN=1, eps=1e-9)
    assert cert.covered_fraction == 1.0
    assert [a.length for a in cert.terminal_arcs] == [1.0]


def test_engine_coverage_example():
    cert = iterate_segments(M(0.25, 0.75), Arc(0.2, 0.201), maxN=60, eps=1e-3)
    assert cert.covered_fraction >= 1 - 1e-3
    assert cert.iterations_used <= 60


def test_engine_sliver_right_of_c_minus_takes_branch_2():
    # a piece [c-, c- + 5e-16] lies on branch 2, so its image starts at the
    # cusp q2 = 0.3, as a wider seed's does, and not near q1 = 0.6
    for width in (5e-16, 2e-15):
        cert = iterate_segments(M0, Arc(0.5, 0.5 + width), maxN=1, eps=1e-12)
        (arc,) = cert.terminal_arcs
        assert arc.start == M0.q2
        assert 0.0 < arc.end - M0.q2 < 1e-14


def test_engine_monotone_history():
    cert = iterate_segments(M0, Arc(0.1, 0.101), maxN=40, eps=1e-6)
    hist = cert.history
    assert all(a <= b + 1e-15 for a, b in zip(hist, hist[1:]))


# --- trapping / horseshoe ----------------------------------------------------

def test_trapping_up_lorenz():
    m = M(0.707, 0.30)
    cert = trapping_interval(m)
    assert 0.70 < cert.l2 < 0.707
    assert 0.30 < cert.l1 < 0.3092
    assert cert.invariance_margin > 0
    assert arc_contains(cert.R_L, 0.0)


def test_trapping_down_lorenz():
    cert = trapping_interval(M(0.79, 0.20))
    assert cert.invariance_margin > 0
    assert arc_contains(cert.R_L, 0.5)


def _sampled_clearance(model, region, samples=10_000):
    """Reference clearance: f sampled on the region, discontinuities skipped."""
    xs = np.mod(region.start + np.linspace(0.0, region.length, samples), 1.0)
    keep = (np.minimum(np.abs(xs), np.abs(xs - 1.0)) > 1e-12)
    keep &= np.abs(xs - model.c_minus) > 1e-12
    da = np.mod(model.f_np(xs[keep]) - region.start, 1.0)
    assert np.all((da > 0) & (da < region.length))
    return float(np.minimum(da, region.length - da).min())


def _random_lorenz_models(dynamics, count, seed):
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        m = M(rng.uniform(0.68, 0.82), rng.uniform(0.18, 0.32),
              theta1=rng.uniform(0.0, 0.19))
        if classify(m).dynamics == dynamics:
            models.append(m)
    return models


@pytest.mark.parametrize("dynamics", [atlas.UP_LORENZ, atlas.DOWN_LORENZ])
def test_exact_clearance_matches_sampling(dynamics):
    for m in _random_lorenz_models(dynamics, 25, seed=31):
        cert = trapping_interval(m)
        sampled = _sampled_clearance(m, cert.R_L)
        assert cert.invariance_margin == _clearance(m, cert.R_L)
        assert cert.invariance_margin <= sampled
        assert sampled - cert.invariance_margin <= 1e-9


def test_trapping_rejects_tilde():
    with pytest.raises(NoTrappingInterval):
        trapping_interval(M0)


def test_trapping_boundary_at_double_heteroclinic():
    cert = trapping_interval(M(0.75, 0.25))
    assert cert.invariance_margin == 0.0
    assert cert.R_L.start == pytest.approx(0.75, abs=1e-9)
    assert cert.R_L.end == pytest.approx(0.25, abs=1e-9)


def test_horseshoe_certificate():
    m = M(0.707, 0.30)
    t = trapping_interval(m)
    cert = horseshoe_certificate(m, Arc(t.l1, t.l2))
    assert cert.crossing_margins[0] > 0 and cert.crossing_margins[1] > 0
    assert cert.orientations == (1, 1)
    # c- escapes: neither cusp in the closed strip
    for q in (m.q1, m.q2):
        assert not arc_contains(Arc(t.l1, t.l2), q)


def test_horseshoe_mirror_down_case():
    m = M(0.79, 0.20)
    t = trapping_interval(m)
    cert = horseshoe_certificate(m, Arc(t.l2, t.l1))
    assert cert.crossing_margins[0] > 0 and cert.crossing_margins[1] > 0
    assert arc_contains(cert.R_H, 0.0)


def test_horseshoe_rejects_both_discontinuities():
    with pytest.raises(PreconditionError):
        horseshoe_certificate(M(0.707, 0.30), Arc(0.9, 0.6))


def horseshoe_reference(model, R_H):
    """The horseshoe certificate stated with its own image arcs: the
    reference that ``horseshoe_certificate`` is compared with.

    Each half's image is an Arc between the lifts of its ends, the strip must
    lie inside it (with a 1e-9 slack on the lengths), and both cusps must
    lie outside the strip widened by 1e-12 at either end.
    """
    def covers(outer, inner):
        left = dist_ccw(outer.start, inner.start)
        right = dist_ccw(inner.end, outer.end)
        if left + inner.length + right > outer.length + 1e-9:
            return -1.0
        return min(left, right)

    def image(piece, branch):
        s = piece.start
        e = piece.end if piece.end > s else 1.0
        return Arc(norm1(model.lift(branch, s)), norm1(model.lift(branch, e)))

    has_minus = arc_contains(R_H, model.c_minus)
    if has_minus == arc_contains(R_H, 0.0):
        raise PreconditionError("horseshoe strip must contain exactly one discontinuity")
    pivot = model.c_minus if has_minus else 0.0
    I_A, I_B = Arc(R_H.start, pivot), Arc(pivot, R_H.end)
    if not has_minus:
        I_A, I_B = I_B, I_A
    m_A, m_B = covers(image(I_A, 1), R_H), covers(image(I_B, 2), R_H)
    if m_A <= 0.0 or m_B <= 0.0:
        raise NotMarkov("crossing margins not positive")
    for q in (model.q1, model.q2):
        if -1e-12 <= dist_ccw(R_H.start, q) <= R_H.length + 1e-12:
            raise NotMarkov("discontinuity image does not escape the strip")
    return HorseshoeCertificate(R_H, I_A, I_B, (m_A, m_B), (1, 1))


def _c07_strip(model, dynamics):
    """The complementary strip of the trapping interval, as acceptance test
    C07 takes it, and the cusps just before its start and just after its end."""
    t = trapping_interval(model)
    if dynamics == atlas.UP_LORENZ:
        return Arc(t.l1, t.l2), model.q2, model.q1
    return Arc(t.l2, t.l1), model.q1, model.q2


@functools.cache
def _lorenz_strips():
    """(model, C07 strip, cusp before it, cusp after it) of 20 README-window
    L+ and 20 L- models."""
    return [(m, *_c07_strip(m, dyn)) for dyn in (atlas.UP_LORENZ, atlas.DOWN_LORENZ)
            for m in _random_lorenz_models(dyn, 20, seed=12)]


def _pushed_strips(count, seed):
    """(model, strip) draws over ``_lorenz_strips``: the C07 strip, with
    none, one or both of its ends moved onto the cusp beside it and pushed
    back into the strip by 0, by a log-uniform 1e-17..1e-9 or by a uniform
    0..1e-9."""
    rng = np.random.default_rng(seed)
    strips = _lorenz_strips()

    def push():
        kind = rng.integers(3)
        return 0.0 if kind == 0 else 10 ** rng.uniform(-17, -9) if kind == 1 else rng.uniform(0, 1e-9)

    for _ in range(count):
        m, strip, q_start, q_end = strips[rng.integers(len(strips))]
        ends = rng.integers(4)
        start = norm1(q_start + push()) if ends & 1 else strip.start
        end = norm1(q_end - push()) if ends & 2 else strip.end
        yield m, Arc(start, end)


def _outcome(certify, model, strip):
    try:
        return certify(model, strip)
    except (NotMarkov, PreconditionError) as exc:
        return type(exc)


def test_horseshoe_matches_reference_on_pushed_strips():
    # the verdicts agree except where the reference's 1e-12 escape slack
    # refuses a strip whose smallest margin is positive but at most that
    # slack; where both certify, the margins agree to rounding
    refused_by_slack = certified = 0
    for m, strip in _pushed_strips(4000, seed=12):
        got = _outcome(horseshoe_certificate, m, strip)
        want = _outcome(horseshoe_reference, m, strip)
        if not isinstance(got, HorseshoeCertificate):
            assert got is want
        elif not isinstance(want, HorseshoeCertificate):
            assert want is NotMarkov
            assert 0.0 < min(got.crossing_margins) <= 1e-12 + 1e-15
            refused_by_slack += 1
        else:
            assert (got.R_H, got.I_A, got.I_B, got.orientations) == (
                want.R_H, want.I_A, want.I_B, want.orientations)
            for a, b in zip(got.crossing_margins, want.crossing_margins):
                assert abs(a - b) <= 1e-15
            certified += 1
    assert refused_by_slack and certified


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(0, 39),
       pushes=st.tuples(*[st.one_of(st.none(), st.floats(0.0, 1e-9))] * 2))
def test_horseshoe_certificate_leaves_cusps_outside_closed_strip(k, pushes):
    # a certificate whose smallest margin exceeds TOL (so dist_ccw cannot
    # collapse a cusp just before the start onto it) puts both cusps, the
    # one-sided images of the contained discontinuity, outside the closed strip
    m, strip, q_start, q_end = _lorenz_strips()[k]
    start = strip.start if pushes[0] is None else norm1(q_start + pushes[0])
    end = strip.end if pushes[1] is None else norm1(q_end - pushes[1])
    cert = _outcome(horseshoe_certificate, m, Arc(start, end))
    if isinstance(cert, HorseshoeCertificate) and min(cert.crossing_margins) > TOL:
        for q in (m.q1, m.q2):
            assert dist_ccw(cert.R_H.start, q) > cert.R_H.length


@pytest.mark.parametrize("ab", [(0.707, 0.30), (0.79, 0.20)], ids=["up", "down"])
def test_horseshoe_strip_end_on_cusp(ab):
    # an end on a cusp leaves that cusp in the closed strip, so no certificate;
    # 1e-15 short of it the margin is positive and the strip certifies, where
    # the reference's 1e-12 escape slack refuses it
    m = M(*ab)
    strip, q_start, q_end = _c07_strip(m, classify(m).dynamics)
    for on_cusp in (Arc(q_start, strip.end), Arc(strip.start, q_end)):
        with pytest.raises(NotMarkov):
            horseshoe_certificate(m, on_cusp)
    for near in (Arc(q_start + 1e-15, strip.end), Arc(strip.start, q_end - 1e-15)):
        assert 0.0 < min(horseshoe_certificate(m, near).crossing_margins) < 1e-14
        with pytest.raises(NotMarkov):
            horseshoe_reference(m, near)


def test_horseshoe_sliver_past_other_discontinuity():
    # a strip around c+ whose start lies within TOL before c- passes the
    # one-discontinuity precondition and splits into three pieces, the first
    # a sliver of branch 1; it is refused, not read as two halves
    m = M(0.79, 0.20)
    strip, _, _ = _c07_strip(m, atlas.DOWN_LORENZ)
    with pytest.raises(NotMarkov):
        horseshoe_certificate(m, Arc(m.c_minus - 5e-13, strip.end))


# --- attractor span ----------------------------------------------------------

def iterate_segments_reference(model, seed, maxN, eps, confine=None):
    """The segment engine that clips every image piece to ``confine``: the
    reference that ``iterate_segments``, which never clips, is compared with."""
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
        family = merged.intervals()
        union.add_many(family)
        covered = union.total_length
        history.append(covered)
        iterations = step
        if 1.0 - covered < eps:
            break

    gaps = union.gaps()
    missed = [g.midpoint() for g in gaps if g.length < eps]
    for d in (0.0, model.c_minus):
        if (circle_dist(model.q1, d) <= SNAP and circle_dist(model.q2, d) <= SNAP
                and all(circle_dist(m, d) > SNAP for m in missed)):
            missed.append(d)
    terminal = [Arc.from_linear(lo, hi) for lo, hi in family]
    return CoverageCertificate(
        seed=seed, iterations_used=iterations, covered_fraction=covered,
        missed_points=missed, terminal_arcs=terminal,
        gap_arcs=gaps, history=history)


def _span_reference(model, maxN=60, eps=1e-3):
    """The coverage certificate of ``attractor_span`` as the clipping engine
    gave it: the seed sized from the room left in R_L, every step clipped to
    R_L."""
    R_L = trapping_interval(model).R_L
    room = dist_ccw(model.q1, R_L.end)
    delta = min(1e-3, room / 2) if room > 0 else 1e-3
    seed = Arc(model.q1, norm1(model.q1 + delta))
    return iterate_segments_reference(model, seed, maxN, eps, confine=R_L)


def _window_lorenz_models(count, seed):
    """README-window L+ and L- models with c- in [0.45, 0.55] and both
    thetas in [0, 0.19]; draws below the golden expansion bound are skipped."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        draw = dict(alpha=rng.uniform(0.68, 0.82), beta=rng.uniform(0.18, 0.32),
                    c_minus=rng.uniform(0.45, 0.55), theta1=rng.uniform(0.0, 0.19),
                    theta2=rng.uniform(0.0, 0.19))
        try:
            m = M(**draw)
        except ExpansionTooWeak:
            continue
        if classify(m).dynamics in (atlas.UP_LORENZ, atlas.DOWN_LORENZ):
            models.append(m)
    return models


def _edge_pushed_models(count, seed):
    """L+ and L- models bisected towards a model of other dynamics along the
    segment between them, so that they lie next to their stratum's edge."""
    rng = np.random.default_rng(seed)
    models = []
    for m in _window_lorenz_models(4 * count, seed):
        if len(models) == count:
            break
        p, dyn = m.params, classify(m).dynamics
        a, b = rng.uniform(0.68, 0.82), rng.uniform(0.18, 0.32)

        def at(t):
            return build_model(p._replace(alpha=p.alpha + t * (a - p.alpha),
                                          beta=p.beta + t * (b - p.beta)))

        if classify(at(1.0)).dynamics == dyn:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if classify(at(mid)).dynamics == dyn else (lo, mid)
        models.append(at(lo))
    assert len(models) == count
    return models


def _assert_same_certificate(got, want):
    """Every field equal, except that ``iterate_segments`` stops once its
    family repeats while the reference runs all its steps: ``history`` is a
    prefix of the reference's, whose later entries repeat its last value, and
    ``iterations_used`` counts the steps taken."""
    for name in CoverageCertificate._fields:
        if name not in ("history", "iterations_used"):
            assert getattr(got, name) == getattr(want, name), name
    taken = len(got.history)
    assert got.history == want.history[:taken]
    assert want.history[taken:] == [got.history[-1]] * (len(want.history) - taken)
    assert got.iterations_used == taken - 1


def test_span_matches_clipping_reference_on_window_models():
    # a positive invariance margin keeps every iterate of a seed inside R_L,
    # so clipping to R_L changes no piece and the certificates agree exactly
    for m in _window_lorenz_models(1000, seed=14):
        _assert_same_certificate(attractor_span(m).certificate, _span_reference(m))


def test_span_matches_clipping_reference_at_stratum_edges():
    margins = []
    for m in _edge_pushed_models(120, seed=14):
        res = attractor_span(m)
        margins.append(res.trapping.invariance_margin)
        _assert_same_certificate(res.certificate, _span_reference(m))
    # every bisection reached the edge: the margins are down at SNAP's scale
    assert 0.0 < min(margins) and max(margins) < 1e-8


def _inside_closed(inner, outer):
    return dist_ccw(outer.start, inner.start) + inner.length <= outer.length


def _covered_arcs(gaps):
    """The components of the circle minus the disjoint arcs ``gaps``."""
    gaps = sorted(gaps, key=lambda g: g.start)
    return [Arc(g.end, h.start) for g, h in zip(gaps, gaps[1:] + gaps[:1])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dynamics=st.sampled_from([atlas.UP_LORENZ, atlas.DOWN_LORENZ]),
       seed=st.integers(0, 2**32 - 1))
def test_span_iterates_stay_in_trapping_interval(dynamics, seed):
    (m,) = _random_lorenz_models(dynamics, 1, seed)
    res = attractor_span(m)
    R_L, cert = res.trapping.R_L, res.certificate
    assert cert.gap_arcs and not any(g.full for g in cert.gap_arcs)
    arcs = [cert.seed, *_covered_arcs(cert.gap_arcs), *cert.terminal_arcs]
    assert all(_inside_closed(a, R_L) for a in arcs)


def test_span_up_lorenz():
    s = attractor_span(M(0.707, 0.30))
    assert not s.span.full
    assert s.span.start == pytest.approx(0.707, abs=1e-6)
    assert s.span.end == pytest.approx(0.30, abs=1e-6)
    assert s.span.length == pytest.approx(0.593, abs=1e-3)


def test_span_two_sided():
    s = attractor_span(M(0.25, 0.75))
    assert s.span.full and s.span.length == 1.0


def _two_sided_models(stratum, count, seed):
    """Random models on one two-sided stratum, c- in [0.42, 0.58] and both
    thetas in [0, 0.15]; on H1+-, H2+- the cusp is drawn within SNAP of c+
    or c-.  Draws below the golden expansion bound are skipped."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        c = rng.uniform(0.42, 0.58)
        draw = dict(alpha=rng.random(), beta=rng.random(), c_minus=c,
                    theta1=rng.uniform(0.0, 0.15), theta2=rng.uniform(0.0, 0.15))
        if stratum in atlas.HOMOCLINIC:
            cusp = "alpha" if stratum.startswith("H1") else "beta"
            draw[cusp] = (0.0 if stratum.endswith("+") else c) + rng.uniform(-SNAP, SNAP)
        try:
            m = M(**draw)
        except ExpansionTooWeak:
            continue
        if classify(m).stratum == stratum:
            models.append(m)
    return models


def test_rule_span_covers_exactly_the_two_sided_strata():
    for label, dynamics in STRATUM_DYNAMICS.items():
        span = atlas.rule_span(RegionVerdict(label, 0.0, dynamics))
        assert span == (Arc.full_circle() if dynamics == atlas.TWO_SIDED else None)


@pytest.mark.parametrize("stratum", [atlas.O_MM, atlas.O_PM, atlas.O_MP, atlas.O_PP_TILDE,
                                     atlas.H1P, atlas.H1M, atlas.H2P, atlas.H2M])
def test_engine_reads_full_wherever_the_span_rule_does(stratum):
    # the evidence for rule_span: on every two-sided stratum the segment
    # engine, run by attractor_span at its default settings, leaves no gap
    # of eps = 1e-3 or more, so it reads the full circle as the rule does
    for m in _two_sided_models(stratum, 150, seed=5):
        res = attractor_span(m)
        assert res.span == atlas.rule_span(classify(m)) == Arc.full_circle()
        assert all(g.length < 1e-3 for g in res.certificate.gap_arcs)


def test_span_fat_lorenz():
    s = attractor_span(M(0.5, 0.5))
    assert s.span.full
    assert any(circle_dist(p, 0.5) < 1e-9 for p in s.certificate.missed_points)
