import numpy as np
import pytest

from lorenzlab.annulus import (
    SkewModel,
    apply_skew,
    apply_skew_np,
    attractor_cloud,
    build_skew,
    family_degree,
    leaf_span_2d,
    verify_cones,
)
from lorenzlab.atlas import attractor_span
from lorenzlab.circle import Arc, circle_dist
from lorenzlab.errors import ConeBoundViolated, OnDiscontinuity, PreconditionError, TrackingLost
from lorenzlab.maps import ModelParams, SignedPoint, build_model
from lorenzlab.symbolic import itinerary


def M(alpha, beta, **kw):
    return build_model(ModelParams(alpha=alpha, beta=beta, **kw))


M0 = M(0.6, 0.3)
SK = build_skew(M0, 0.2)


def test_build_and_bound():
    assert SK.cone_bound() == pytest.approx(0.2 * (np.pi / 0.5 + 1) / 1.7, abs=1e-12)
    with pytest.raises(ConeBoundViolated):
        build_skew(M0, 0.5)
    with pytest.raises(ConeBoundViolated):
        build_skew(M0, 0.24)


def test_apply_example():
    x, y = apply_skew(SK, (0.25, 0.5))
    assert x == pytest.approx(0.1, abs=1e-12)
    assert y == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(OnDiscontinuity):
        apply_skew(SK, (0.5, 0.0))


def test_fibers_to_fibers():
    for y1, y2 in [(-0.5, 0.7), (0.1, 0.9)]:
        x1, _ = apply_skew(SK, (0.33, y1))
        x2, _ = apply_skew(SK, (0.33, y2))
        assert x1 == x2


def test_fiber_contraction():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        x = rng.uniform(1e-3, 1 - 1e-3)
        if abs(x - 0.5) < 1e-3:
            continue
        y1, y2 = rng.uniform(-1, 1, 2)
        _, fy1 = apply_skew(SK, (x, y1))
        _, fy2 = apply_skew(SK, (x, y2))
        assert abs(fy1 - fy2) <= SK.kappa * abs(y1 - y2) + 1e-15


def _fiber_diameter(x):
    _, top = apply_skew(SK, (x, 1.0))
    _, bot = apply_skew(SK, (x, -1.0))
    return abs(top - bot)


def test_pinch_geometry():
    # y-diameter of the image fiber equals 2*kappa*sin(pi t / L) exactly,
    # with t the offset of x into its branch of length L
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.uniform(1e-3, 1 - 1e-3)
        if abs(x - 0.5) < 1e-3:
            continue
        if x < M0.c_minus:
            t, L = x, M0.profile1.length
        else:
            t, L = x - M0.c_minus, M0.profile2.length
        assert _fiber_diameter(x) == pytest.approx(
            2 * SK.kappa * np.sin(np.pi * t / L), abs=1e-12)


def test_pinch_limit():
    # the fiber pinches to a point at the branch start: sin(pi t / L) < pi t / L
    for eps in (1e-3, 1e-6):
        assert _fiber_diameter(eps) / (2 * SK.kappa) < np.pi * eps / 0.5 + 1e-12


def test_quotient_commutation():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 100_000)
    x = x[(x > 1e-9) & (np.abs(x - 0.5) > 1e-9)]
    y = rng.uniform(-1, 1, x.size)
    fx, _ = apply_skew_np(SK, x, y)
    assert float(np.max(np.abs(fx - M0.f_np(x)))) <= 1e-12


def test_itinerary_independent_of_y():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = rng.uniform(1e-3, 1 - 1e-3)
        if abs(x - 0.5) < 1e-3:
            continue
        y1, y2 = rng.uniform(-0.9, 0.9, 2)
        seq = []
        for y in (y1, y2):
            xx, yy, letters = x, y, []
            for _ in range(30):
                letters.append(str(itinerary(M0, SignedPoint(xx, 1), 1)))
                if M0.on_discontinuity(xx) is not None:
                    break
                xx, yy = apply_skew(SK, (xx, yy))
            seq.append(letters)
        assert seq[0] == seq[1]


def test_verify_cones_default():
    rep = verify_cones(SK, 1000, 100)
    assert rep.all_ok and rep.analytic_bound_ok
    assert rep.worst_cone_factor <= 0.9
    assert rep.min_expansion >= M0.lambda_min - 1e-9
    assert rep.worst_product <= 0.25


def test_verify_cones_kappa_24_flags_bound():
    # analytic bound exceeds one (flagged) while every sample still passes
    sk = SkewModel(base=M0, kappa=0.24)
    rep = verify_cones(sk, 400, 50)
    assert not rep.analytic_bound_ok
    assert rep.analytic_cone_bound > 1.0
    assert rep.cone_ok and rep.product_ok


def test_verify_cones_single_sample():
    rep = verify_cones(SK, 2, 1)
    assert rep.all_ok


def test_cloud_depth_guard():
    with pytest.raises(PreconditionError):
        attractor_cloud(SK, depth=17, samples=10)


@pytest.mark.parametrize("seed_arc,cusp", [
    (Arc(0.5 - 5e-10, 0.5 - 4e-10), 0.3),   # within SNAP left of c-: onto q2
    (Arc(1.0 - 5e-10, 1.0 - 4e-10), 0.6),   # within SNAP left of c+: onto q1
])
def test_cloud_nudge_crosses_discontinuity(seed_arc, cusp):
    # a sample within SNAP of a discontinuity steps across it, as the
    # histogram orbit does, and lands near the cusp of the far branch
    cloud = attractor_cloud(SK, depth=1, samples=1, burn_in=0, seed_arc=seed_arc)
    assert circle_dist(cloud.points[0, 0], cusp) < 1e-6


def test_cloud_two_sided_meets_both_fibers():
    sk = build_skew(M(0.25, 0.75), 0.2)
    cloud = attractor_cloud(sk, depth=12, samples=2000, seed=5)
    xs = cloud.points[:, 0]
    assert np.min(np.abs(xs - 0.5)) < 5e-3
    assert min(np.min(xs), float(np.min(1 - xs))) < 5e-3


def test_cloud_up_lorenz_avoids_lower_fiber():
    m = M(0.707, 0.30)
    sk = build_skew(m, 0.2)
    cloud = attractor_cloud(sk, depth=12, samples=2000, seed=5,
                            seed_arc=Arc(0.707, 0.72))
    xs = cloud.points[:, 0]
    assert np.min(np.abs(xs - 0.5)) > 0.15


def test_leaf_span_agrees_with_1d():
    m = M(0.707, 0.30)
    sk = build_skew(m, 0.2)
    # the cloud leaf_span_2d used to sample itself (burn-in 80, seed 11)
    cloud = attractor_cloud(sk, depth=16, samples=4000, burn_in=80, seed=11,
                            seed_arc=Arc(0.707, 0.72))
    span2 = leaf_span_2d(cloud.points)
    assert span2 == Arc(0.70700601689, 0.299992176627)
    span1 = attractor_span(m)
    assert circle_dist(span2.start, span1.span.start) < 1e-3
    assert circle_dist(span2.end, span1.span.end) < 1e-3
    sk2 = build_skew(M(0.25, 0.75), 0.2)
    cloud2 = attractor_cloud(sk2, depth=12, samples=2000, burn_in=80, seed=11)
    assert leaf_span_2d(cloud2.points) == Arc.full_circle()


def test_family_degree():
    def rot(m1, m2):
        return M((0.6 + m1) % 1.0, (0.3 + m2) % 1.0)

    def const(m1, m2):
        return M0

    def swap(m1, m2):
        return M((0.6 + m2) % 1.0, (0.3 + m1) % 1.0)

    d = family_degree(rot)
    assert d.entries == ((1, 0), (0, 1)) and d.essential
    d = family_degree(const)
    assert d.entries == ((0, 0), (0, 0)) and not d.essential
    d = family_degree(swap)
    assert d.entries == ((0, 1), (1, 0)) and d.determinant == -1 and not d.essential


def test_family_degree_tracking_lost():
    def jumpy(m1, m2):
        return M((0.6 + (0.5 if m1 > 0.5 else 0.0)) % 1.0, 0.3)

    with pytest.raises(TrackingLost):
        family_degree(jumpy, step=0.25)
