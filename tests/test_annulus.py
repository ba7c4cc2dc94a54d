import numpy as np
import pytest

from lorenzlab.annulus import (
    SkewModel,
    _cocycle,
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
from lorenzlab.maps import SNAP, ModelParams, SignedPoint, build_model
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
    rep = verify_cones(SK, 1000)
    assert rep.all_ok and rep.analytic_bound_ok
    assert rep.worst_cone_factor <= 0.9
    assert rep.min_expansion >= M0.lambda_min - 1e-9
    assert rep.worst_product <= 0.25


def test_verify_cones_kappa_24_flags_bound():
    # analytic bound exceeds one (flagged) while every sample still passes
    sk = SkewModel(base=M0, kappa=0.24)
    rep = verify_cones(sk, 400)
    assert not rep.analytic_bound_ok
    assert rep.analytic_cone_bound > 1.0
    assert rep.cone_ok and rep.product_ok


def test_verify_cones_single_sample():
    rep = verify_cones(SK, 2)
    assert rep.all_ok


def verify_cones_reference(skew, grid_x, grid_y):
    """The former 2-D body: an (x, y) grid and a 12-step unstable-slope field
    for the product, whose samples collapse to 0.25 c- near a discontinuity."""
    base = skew.base
    eps = max(SNAP, 1e-6)
    xs = np.linspace(eps, 1.0 - eps, grid_x)
    xs = xs[(np.abs(xs - base.c_minus) > eps)]
    ys = np.linspace(-1.0, 1.0, grid_y)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    x = X.ravel()
    y = Y.ravel()
    fprime, rho, drho = _cocycle(base, x)
    dy_dx = skew.kappa * drho * y
    dy_dy = skew.kappa * rho
    slope_pos = np.abs(dy_dx + dy_dy) / fprime
    slope_neg = np.abs(dy_dx - dy_dy) / fprime
    worst_cone = float(np.maximum(slope_pos, slope_neg).max())
    min_expansion = float(fprime.min())
    xo, yo = x.copy(), y.copy()
    s = np.zeros_like(xo)
    for _ in range(12):
        fpo, rho_o, drho_o = _cocycle(base, xo)
        s = (skew.kappa * drho_o * yo + skew.kappa * rho_o * s) / fpo
        xo, yo = apply_skew_np(skew, xo, yo)
        bad = (np.abs(xo) < eps) | (np.abs(xo - 1.0) < eps) | (np.abs(xo - base.c_minus) < eps)
        xo = np.where(bad, 0.25 * base.c_minus, xo)
    fpo, rho_o, drho_o = _cocycle(base, xo)
    fiber_norm = skew.kappa * rho_o
    u_norm = np.sqrt(1.0 + s * s)
    img = np.sqrt(fpo ** 2 + (skew.kappa * drho_o * yo + skew.kappa * rho_o * s) ** 2)
    du = img / u_norm
    dinv = u_norm / img
    worst_product = float((fiber_norm * dinv * du).max())
    bound = skew.cone_bound()
    return (worst_cone, min_expansion, worst_product, bound, worst_cone < 1.0,
            min_expansion >= base.lambda_min - 1e-9, worst_product < 1.0, bound < 1.0)


def test_verify_cones_matches_2d_reference():
    # SkewModel, not build_skew, so that flagged analytic bounds occur; the
    # expansion floor is lowered so that every drawn (c-, theta) is a model
    rng = np.random.default_rng(15)
    flagged = 0
    for _ in range(1000):
        c, t1, t2 = rng.uniform(0.42, 0.58), *rng.uniform(0.0, 0.19, 2)
        base = M(*rng.uniform(0.0, 1.0, 2), c_minus=c, theta1=t1, theta2=t2,
                 lambda_min_required=1.3)
        skew = SkewModel(base=base, kappa=rng.uniform(0.01, 0.25))
        gx, gy = int(rng.integers(1, 600)), int(rng.integers(1, 60))
        rep = verify_cones(skew, gx)
        ref = verify_cones_reference(skew, gx, gy)
        got = (rep.worst_cone_factor, rep.min_expansion, rep.worst_product,
               rep.analytic_cone_bound, rep.cone_ok, rep.expansion_ok, rep.product_ok,
               rep.analytic_bound_ok)
        assert got[:2] + got[3:] == ref[:2] + ref[3:]
        assert abs(got[2] - ref[2]) <= 2 * np.spacing(ref[2])
        flagged += not rep.analytic_bound_ok
    assert flagged > 0


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
