from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lorenzlab import atlas
from lorenzlab.atlas import (
    _clearance,
    STRATUM_DYNAMICS,
    attractor_span,
    classify,
    classify_grid,
    golden_bound,
    horseshoe_certificate,
    iterate_segments,
    trapping_interval,
)
from lorenzlab.circle import Arc, arc_contains, circle_dist
from lorenzlab.errors import (
    ExpansionTooWeak,
    LambdaBelowPhi,
    NoTrappingInterval,
    PreconditionError,
)
from lorenzlab.maps import PHI, SNAP, ModelParams, branch_fixed_point, build_model
from test_symbolic import random_models


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)


# --- classification --------------------------------------------------------

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
    """Assert classify_grid equals scalar classify on every cell, bit for bit;
    return the set of strata seen."""
    strata, margins = classify_grid(params, alphas, betas)
    assert strata.shape == margins.shape == (len(betas), len(alphas))
    assert margins.dtype == np.float64
    for j, b in enumerate(betas):
        for i, a in enumerate(alphas):
            v = classify(build_model(replace(params, alpha=a, beta=b)))
            got = (atlas.STRATA[strata[j, i]], float(margins[j, i]).hex())
            assert got == (v.stratum, v.margin.hex()), (a, b)
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
    moved = replace(p, alpha=p.alpha + u * room, beta=p.beta + v * room)
    assert classify(build_model(moved)).stratum == verdict.stratum
    # every cell of the 3x3 grid spanning +-room around the point
    strata, _ = classify_grid(p, [p.alpha + k * room for k in (-1, 0, 1)],
                              [p.beta + k * room for k in (-1, 0, 1)])
    assert {atlas.STRATA[k] for k in strata.ravel()} == {verdict.stratum}


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
    # a row's p2 puts that row's cell on HE1; (0.75, 0.25) is on both
    params = ModelParams(0.6, 0.3)
    base_alphas = [0.6, 0.7, 0.75, 0.78, 0.9]
    base_betas = [0.1, 0.22, 0.25, 0.4]
    p1 = [branch_fixed_point(M(a, 0.3), 1) for a in base_alphas]
    p2 = [branch_fixed_point(M(0.6, b), 2) for b in base_betas]
    seen = _grid_matches_classify(params, base_alphas + p2, base_betas + p1)
    assert {atlas.HE1, atlas.HE2, atlas.HE1_AND_HE2} <= seen


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


# --- attractor span ----------------------------------------------------------

def test_span_up_lorenz():
    s = attractor_span(M(0.707, 0.30))
    assert not s.span.full
    assert s.span.start == pytest.approx(0.707, abs=1e-6)
    assert s.span.end == pytest.approx(0.30, abs=1e-6)
    assert s.span.length == pytest.approx(0.593, abs=1e-3)


def test_span_two_sided():
    s = attractor_span(M(0.25, 0.75))
    assert s.span.full and s.span.length == 1.0


def test_span_fat_lorenz():
    s = attractor_span(M(0.5, 0.5))
    assert s.span.full
    assert any(circle_dist(p, 0.5) < 1e-9 for p in s.certificate.missed_points)
