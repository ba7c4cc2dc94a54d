import math
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorenzlab import annulus
from lorenzlab.annulus import (
    CLOUD_LANES,
    SkewModel,
    _cocycle,
    _cross_discontinuity,
    apply_skew,
    apply_skew_np,
    attractor_cloud,
    build_skew,
    cloud_blocks,
    family_degree,
    leaf_span_2d,
    verify_cones,
)
from lorenzlab.atlas import attractor_span
from lorenzlab.circle import Arc, circle_dist, norm1
from lorenzlab.errors import ConeBoundViolated, OnDiscontinuity, PreconditionError, TrackingLost
from lorenzlab.maps import (
    SNAP,
    TWO_PI,
    BranchProfile,
    MapModel,
    ModelParams,
    SignedPoint,
    branch_lanes,
    build_model,
)
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


def unchecked_model(alpha, beta, c_minus, theta1, theta2):
    # build_model without its PHI floor
    params = ModelParams(alpha=alpha, beta=beta, c_minus=c_minus, theta1=theta1,
                         theta2=theta2)
    prof1, prof2 = BranchProfile(c_minus, theta1), BranchProfile(1.0 - c_minus, theta2)
    return MapModel(params=params, c_minus=c_minus, q1=norm1(alpha), q2=norm1(beta),
                    profile1=prof1, profile2=prof2,
                    lambda_min=min(prof1.min_slope, prof2.min_slope))


def test_verify_cones_matches_2d_reference():
    # SkewModel, not build_skew, so that flagged analytic bounds occur; the
    # bases skip build_model's PHI floor so that every drawn (c-, theta) is a
    # model, about a third of them with lambda_min <= PHI
    rng = np.random.default_rng(15)
    flagged = 0
    for _ in range(1000):
        c, t1, t2 = rng.uniform(0.42, 0.58), *rng.uniform(0.0, 0.19, 2)
        base = unchecked_model(*rng.uniform(0.0, 1.0, 2), c_minus=c, theta1=t1, theta2=t2)
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
    assert span2 == Arc(0.707023480403, 0.299990511479)
    span1 = attractor_span(m)
    assert circle_dist(span2.start, span1.span.start) < 1e-3
    assert circle_dist(span2.end, span1.span.end) < 1e-3
    sk2 = build_skew(M(0.25, 0.75), 0.2)
    cloud2 = attractor_cloud(sk2, depth=12, samples=2000, burn_in=80, seed=11)
    assert leaf_span_2d(cloud2.points) == Arc.full_circle()


def _leaf_span_unique(points):
    """leaf_span_2d as it was computed: the largest circular gap between
    consecutive values of one np.unique over every rounded x."""
    xs = np.unique(np.round(points[:, 0], 12))
    if xs.size < 2:
        return Arc.full_circle()
    gaps = np.diff(xs)
    wrap = (1.0 - xs[-1]) + xs[0]
    i = int(np.argmax(gaps))
    if wrap >= gaps[i]:
        gap_lo, gap_hi, gap_len = xs[-1], xs[0], wrap
    else:
        gap_lo, gap_hi, gap_len = xs[i], xs[i + 1], gaps[i]
    if gap_len < 1e-3:
        return Arc.full_circle()
    return Arc(norm1(gap_hi), norm1(gap_lo))


def _comb(n, step, start):
    """n evenly spaced values from start, wrapped into [0, 1): equal gaps,
    so ties, and gaps on either side of 1e-3 as step crosses it."""
    return [(start + k * step) % 1.0 for k in range(n)]


# values that round to 1.0, bucket edges k / 1024, and pairs 1e-3 apart
# give or take one rounding unit of the 12-digit grid
_EDGE_XS = [0.0, 1.0 - 1e-13, 1.0 - 4e-13, 2.0 ** -10, 1023 / 1024, 1e-3, 0.5,
            0.5 + 1e-3, 0.5 + 1e-3 - 1e-12, 0.5 + 1e-3 + 1e-12, 0.75, 0.25]

_leaf_xs = st.lists(st.one_of(
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
    st.lists(st.sampled_from(_EDGE_XS), max_size=8),
    st.builds(_comb, st.integers(1, 1100),
              st.floats(0.0009, 0.0011) | st.floats(0.0, 1.0) | st.just(1e-3),
              st.floats(0.0, 1.0, exclude_max=True)),
), max_size=4).map(lambda parts: [x for part in parts for x in part])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_leaf_xs)
@example([])                                    # no point
@example([0.3, 0.3, 0.3])                       # one distinct value
@example([0.3, 0.3 + 1e-4])                     # two values in one bucket
@example([0.0, 0.5])                            # a gap tied with the wrap
@example([0.1, 0.3, 0.5])                       # two tied gaps, the wrap larger
@example([0.0, 1.0 - 1e-13, 0.4])               # a value that rounds to 1.0
@example(_comb(1000, 1e-3, 0.0))                # gaps of 1e-3 up to rounding
@example(_comb(999, 1e-3, 0.0) + [0.9995])      # the largest gap just under 1e-3
def test_leaf_span_matches_unique_reference(xs):
    points = np.column_stack([np.array(xs, dtype=float), np.zeros(len(xs))])
    assert leaf_span_2d(points) == _leaf_span_unique(points)


def _raster_bincount(points, width, height):
    """attractor_cloud's raster as it was computed: one bincount over every
    point's pixel index, shaded through the 0..peak table."""
    cols = np.clip((points[:, 0] * width).astype(int), 0, width - 1)
    rows = np.clip(((1.0 - (points[:, 1] + 1.0) / 2.0) * height).astype(int), 0, height - 1)
    hits = np.bincount(rows * width + cols, minlength=height * width)
    peak = max(hits.max(), 1)
    shade = (255.0 * np.arange(peak + 1) / peak).astype(np.uint8)
    return shade[hits].reshape(height, width)


@pytest.mark.parametrize("kw", [
    {},
    {"width": 8, "height": 8, "samples": 3000},     # peaks far above 255 hits
    {"width": 37, "height": 11, "depth": 1, "burn_in": 0, "samples": 1},
    {"width": 512, "height": 256, "depth": 16, "samples": 500, "seed": 3},
])
def test_cloud_raster_matches_bincount_reference(kw):
    args = {"depth": 12, "samples": 2000, "burn_in": 60, "seed": 7,
            "width": 512, "height": 256, **kw}
    cloud = attractor_cloud(SK, **args)
    want = _raster_bincount(cloud.points, args["width"], args["height"])
    assert cloud.raster.dtype == np.uint8
    assert np.array_equal(cloud.raster, want)


def _whole_cloud(skew, depth, samples, burn_in=50, seed=7, seed_arc=None,
                 width=512, height=256):
    """attractor_cloud's (points, raster) as they were computed: every
    sample stepped at once, the kept points held in one (2, depth, samples)
    buffer, hits counted one kept row of samples at a time."""
    u = np.fromiter(iter(Random(seed).random, None), float, count=2 * samples)
    x, y = u[:samples], -0.95 + 1.9 * u[samples:]
    if seed_arc is not None:
        x = np.mod(seed_arc.start + seed_arc.length * x, 1.0)
    orbit = np.empty((2, max(depth, 1), samples))
    px, py = orbit
    for i in range(burn_in + len(px)):
        x, y = apply_skew_np(skew, _cross_discontinuity(skew.base, x), y)
        px[max(i - burn_in, 0)], py[max(i - burn_in, 0)] = x, y
    hits = np.zeros(height * width, dtype=np.int32)
    for row_x, row_y in zip(px, py):
        cols = np.clip((row_x * width).astype(int), 0, width - 1)
        rows = np.clip(((1.0 - (row_y + 1.0) / 2.0) * height).astype(int), 0, height - 1)
        np.add.at(hits, rows * width + cols, 1)
    peak = max(int(hits.max()), 1)
    shade = (255.0 * np.arange(peak + 1) / peak).astype(np.uint8)
    return orbit.reshape(2, -1).T, shade[hits].reshape(height, width)


# c- = 0.45 with theta2 = 0.08 and a raised spine on branch 1
SK_SKEWED = build_skew(M(0.6, 0.3, c_minus=0.45, theta2=0.08), 0.2, eta1=0.3)


# lane-block edges, one kept step without burn-in, seed arcs and a model
# whose branches differ in length, profile and spine
@pytest.mark.parametrize("skew,kw", [
    (SK, {"samples": CLOUD_LANES - 1}),
    (SK, {"samples": CLOUD_LANES + 1, "seed_arc": Arc(0.707, 0.72)}),
    (SK, {"samples": 3 * CLOUD_LANES - 5, "seed": 3}),
    (SK, {"samples": 3 * CLOUD_LANES - 5, "seed_arc": Arc(0.9, 0.2)}),
    (SK, {"samples": 5000, "depth": 1, "burn_in": 0}),
    (SK_SKEWED, {"samples": CLOUD_LANES + 1}),
    (SK_SKEWED, {"samples": 700, "seed_arc": Arc(0.4, 0.5), "width": 37, "height": 11}),
])
def test_attractor_cloud_matches_whole_cloud_reference(skew, kw):
    args = {"depth": 2, "burn_in": 3, **kw}
    cloud = attractor_cloud(skew, **args)
    points, raster = _whole_cloud(skew, **args)
    assert np.array_equal(cloud.points, points)
    assert np.array_equal(cloud.raster, raster)
    # the stream yields the same rows in the same order, one lane block of
    # one kept step at a time
    stream = {k: v for k, v in args.items() if k not in ("width", "height")}
    blocks = list(cloud_blocks(skew, **stream))
    assert [len(x) for x, _ in blocks] == [
        min(CLOUD_LANES, args["samples"] - lo)
        for _ in range(max(args["depth"], 1))
        for lo in range(0, args["samples"], CLOUD_LANES)]


def test_np_sin_matches_math_sin_on_cloud_step_arguments(monkeypatch):
    # cloud_blocks steps its state CLOUD_LANES lanes at a time.  That gives
    # the bits of a step of the whole array only while no lane's result
    # depends on its place in the array.  Every operation of the step is
    # elementwise and exact but np.sin, on the pinch argument pi t / L and the
    # profile argument 2 pi t / L, so record the steps' inputs on two models
    # and check that np.sin equals math.sin there, also on slices that start
    # at odd places, so a platform that breaks the premise fails here
    inputs = []

    def recording(skew, x, y):
        inputs.append((skew.base, x.copy()))
        return apply_skew_np(skew, x, y)

    monkeypatch.setattr(annulus, "apply_skew_np", recording)
    for skew in (SK, SK_SKEWED):
        for _ in cloud_blocks(skew, depth=12, samples=2000, burn_in=60):
            pass
    assert len(inputs) == 2 * 72
    for base, x in inputs:
        _, start, profile = branch_lanes(base, x >= base.c_minus)
        t = x - start
        for arg in (np.pi * t / profile.length, TWO_PI * t / profile.length):
            lanes = np.sin(arg)
            assert lanes.tolist() == [math.sin(a) for a in arg.tolist()]
            for lo in (1, 3, 7):
                assert np.array_equal(np.sin(arg[lo:]), lanes[lo:])


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
