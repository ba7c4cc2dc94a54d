"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the lines).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from lorenzlab import atlas, cli
from lorenzlab.annulus import apply_skew_np, build_skew, family_degree, verify_cones
from lorenzlab.atlas import (
    classify,
    golden_bound,
    horseshoe_certificate,
    iterate_segments,
    trapping_interval,
)
from lorenzlab.circle import Arc, arc_contains, circle_dist
from lorenzlab.maps import (
    MINUS,
    PHI,
    PLUS,
    ModelParams,
    SignedPoint,
    build_model,
    fixed_points,
)
from lorenzlab.symbolic import (
    EQUAL,
    LESS,
    Letter,
    build_conjugacy,
    itinerary,
    kneading_data,
    lex_compare,
    realize,
    shoot_matched_model,
)


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_c01_golden_ratio_lemma():
    rng = np.random.default_rng(101)
    l1 = rng.uniform(0.0, 1.0, 100_000)
    l2 = rng.uniform(0.0, 1.0, 100_000)
    lam = rng.uniform(PHI, 2.0, 100_000)
    lhs = np.maximum(lam * l1, lam ** 2 * l2)
    rhs = (lam / PHI) * (l1 + l2)
    violations = int(np.sum(lhs < rhs - 1e-12))
    assert violations == 0
    eq = golden_bound(PHI / PHI ** 2, 1.0 / PHI ** 2, PHI)
    assert eq.lhs == pytest.approx(1.0, abs=1e-9)
    assert eq.rhs == pytest.approx(1.0, abs=1e-9)
    assert eq.holds
    _report("C01 golden-ratio bound (1e5 triples, equality case)")


def test_c02_fixed_point_criterion():
    exceptions = 0
    for i in range(100):
        for j in range(100):
            a = (i + 0.5) / 100
            b = (j + 0.5) / 100
            if min(a, abs(a - 0.5), 1 - a, b, abs(b - 0.5), 1 - b) <= 1e-6:
                continue
            fp = fixed_points(M(a, b))
            if (fp.p1 is not None) != (a > 0.5):
                exceptions += 1
            if (fp.p2 is not None) != (b < 0.5):
                exceptions += 1
    assert exceptions == 0
    _report("C02 fixed-point criterion (100x100 grid, 0 exceptions)")


def test_c03_order_proposition():
    rng = np.random.default_rng(103)
    done = 0
    while done < 1000:
        x1, x2 = sorted(rng.uniform(1e-4, 1.0 - 1e-4, 2))
        if x2 - x1 < 1e-4:
            continue
        up1 = itinerary(M0, SignedPoint(x1, PLUS), 40)
        dn2 = itinerary(M0, SignedPoint(x2, MINUS), 40)
        assert lex_compare(up1, dn2)[0] == LESS
        dn1 = itinerary(M0, SignedPoint(x1, MINUS), 40)
        assert lex_compare(dn1, up1)[0] in (LESS, EQUAL)
        done += 1
    _report("C03 order proposition (1e3 ccw pairs, depth 40)")


def test_c04_kneading_at_double_lower_loop():
    kd = kneading_data(M(0.5, 0.5), 50)
    assert kd.w_mm.letters == tuple([Letter.A1] * 50)
    assert kd.w_mp.letters == tuple([Letter.B0] * 50)

    from lorenzlab.symbolic import _recursion_forms

    for i in range(20):
        for j in range(20):
            a = 0.02 + 0.96 * i / 19
            b = 0.02 + 0.96 * j / 19
            if min(abs(a - 0.5), abs(b - 0.5), a, b, 1 - a, 1 - b) < 0.015:
                continue
            m = M(a, b)
            kd = kneading_data(m, 50)
            rec = _recursion_forms(m, 50)
            for (_, w), (_, r) in zip(kd.words(), rec.words()):
                assert w.letters == r.letters
    _report("C04 kneading words at the double lower loop + recursion grid")


def test_c05_theorem_f_quadrants():
    assert classify(M(0.707, 0.30)).stratum == atlas.O_PP_LPLUS
    assert classify(M(0.79, 0.20)).stratum == atlas.O_PP_LMINUS
    assert classify(M(0.78, 0.24)).stratum == atlas.O_PP_TILDE
    assert classify(M(0.78, 0.24)).dynamics == atlas.TWO_SIDED
    assert classify(M(0.72, 0.26)).stratum == atlas.O_PP_TILDE
    assert classify(M(0.72, 0.26)).dynamics == atlas.TWO_SIDED
    assert classify(M(0.75, 0.25)).stratum == atlas.HE1_AND_HE2
    _report("C05 quadrant probes around the double heteroclinic point")


def test_c06_transitivity_coverage():
    rng = np.random.default_rng(106)
    for ab in [(0.25, 0.75), (0.25, 0.25), (0.6, 0.3)]:
        model = M(*ab)
        for _ in range(100):
            start = rng.uniform(0.0, 1.0)
            cert = iterate_segments(model, Arc(start, (start + 1e-3) % 1.0),
                                    maxN=60, eps=1e-3)
            assert cert.covered_fraction >= 0.999
            assert cert.iterations_used <= 60
    _report("C06 transitivity coverage (3 regions x 100 random seeds)")


def test_c07_up_lorenz_decomposition():
    model = M(0.707, 0.30)
    trap = trapping_interval(model)
    assert trap.invariance_margin > 0.0
    horse = horseshoe_certificate(model, Arc(trap.l1, trap.l2))
    assert horse.crossing_margins[0] > 0.0
    assert horse.crossing_margins[1] > 0.0
    assert horse.orientations == (1, 1)
    for q in (model.q1, model.q2):
        assert not arc_contains(Arc(trap.l1, trap.l2), q)
    _report("C07 up-Lorenz trapping + fake-horseshoe certificates")


def test_c08_realization_roundtrip():
    rng = np.random.default_rng(108)
    bound = 2.0 * M0.lambda_min ** (-29)
    for _ in range(500):
        x = rng.uniform(0.0, 1.0)
        word = itinerary(M0, SignedPoint(x, PLUS), 30)
        rec = realize(M0, word)
        assert circle_dist(rec.midpoint, x) <= bound
    _report("C08 realization round trip (500 points, depth 30)")


def test_c09_conjugacy():
    self_res = build_conjugacy(M0, M0, depth=30, grid=200)
    assert self_res.monotone
    assert self_res.defect < 1e-6

    other = shoot_matched_model(M0, 0.10, match_depth=30)
    # the shot pair matches kneading at (at least) depth 20
    kx = kneading_data(M0, 20)
    ky = kneading_data(other, 20)
    for (_, wx), (_, wy) in zip(kx.words(), ky.words()):
        assert wx.letters == wy.letters
    res = build_conjugacy(M0, other, depth=30, grid=200)
    assert res.monotone
    assert res.defect < 1e-5
    _report("C09 leaf conjugacy (self < 1e-6; shot pair < 1e-5, monotone)")


def test_c10_skew_hypotheses():
    skew = build_skew(M0, kappa=0.2)
    rep = verify_cones(skew, grid_x=1000)
    assert rep.all_ok
    assert rep.worst_cone_factor <= 0.9
    assert rep.worst_product <= 0.25
    rng = np.random.default_rng(110)
    x = rng.uniform(0.0, 1.0, 100_000)
    x = x[(x > 1e-9) & (np.abs(x - 0.5) > 1e-9)]
    y = rng.uniform(-1.0, 1.0, x.size)
    fx, _ = apply_skew_np(skew, x, y)
    assert float(np.max(np.abs(fx - M0.f_np(x)))) <= 1e-12
    _report("C10 skew hypotheses (cones, eq-product, exact quotient)")


def test_c11_essential_families():
    def rotation(m1, m2):
        m = M((0.6 + m1) % 1.0, (0.3 + m2) % 1.0)
        return m.q1, m.q2

    def constant(m1, m2):
        return M0.q1, M0.q2

    deg = family_degree(rotation)
    assert deg.entries == ((1, 0), (0, 1))
    assert deg.essential
    deg0 = family_degree(constant)
    assert deg0.determinant == 0
    assert not deg0.essential
    _report("C11 essential rotation family, inessential constant family")


def test_c12_collision_experiment():
    # theta1 = 0.19 realizes the single HE1 crossing on this path: the default
    # theta1 = 0.15 branch puts p1(0.77) = 0.2217 > 0.22, so the first two
    # steps would sit past the second heteroclinic locus (two-sided, full span)
    cfg = cli.load_config(
        '{"model": {"theta1": 0.19},'
        ' "path": {"start": [0.77, 0.22], "end": [0.79, 0.22], "steps": 21}}')
    rows, _, report = cli.run_path(cfg)
    for step, alpha, beta, stratum, length, full, trap in rows:
        if alpha < 0.78 - 1e-3:
            assert length < 0.75
        if alpha > 0.78 + 1e-3:
            assert full and length == 1.0
    assert report["jump_count"] == 1
    _report("C12 collision on the HE1 crossing (one jump, spans as stated)")


def test_c13_double_loop_ray():
    # the unfolding ray of the double upper loop: q1 enters the second branch
    # arc at distance mu from the upper leaf, q2 the first at 0.9 mu
    for mu in (1e-2, 1e-3, 1e-4):
        verdict = classify(M((-mu) % 1.0, 0.9 * mu))
        assert verdict.stratum == atlas.O_PP_LMINUS
    for d1 in np.linspace(-1e-2, 1e-2, 21):
        for d2 in np.linspace(-1e-2, 1e-2, 21):
            verdict = classify(M(d1 % 1.0, d2 % 1.0))
            assert verdict.stratum != atlas.O_PP_LPLUS
    _report("C13 double-loop ray is down-Lorenz; no up-Lorenz near origin")
