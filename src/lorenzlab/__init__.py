"""Return-map laboratory for up/down/two-sided Lorenz attractors."""

from .circle import Arc, ArcUnion, arc_contains, circle_dist, dist_ccw, norm1
from .maps import (
    PHI,
    PLUS,
    MINUS,
    SNAP,
    EigenvalueTriple,
    MapModel,
    ModelParams,
    SignedPoint,
    build_model,
    check_singularity_conditions,
    eval_signed,
    fixed_points,
    inverse_branch,
    verify_hypotheses,
)
from .symbolic import (
    KneadingData,
    Letter,
    Word,
    build_conjugacy,
    is_admissible,
    itinerary,
    kneading_data,
    lex_compare,
    realize,
    shift,
    shoot_matched_model,
    star,
)
from .atlas import (
    RegionVerdict,
    attractor_span,
    classify,
    golden_bound,
    horseshoe_certificate,
    iterate_segments,
    trapping_interval,
)
from .annulus import (
    SkewModel,
    apply_skew,
    attractor_cloud,
    build_skew,
    family_degree,
    leaf_span_2d,
    verify_cones,
)

__version__ = "0.1.0"
