"""Return-map laboratory for up/down/two-sided Lorenz attractors."""

import os
import sys

# No module of this package calls a BLAS routine (tests/test_blas.py's
# test_package_calls_no_blas_routine checks the source), yet numpy's bundled
# OpenBLAS starts one busy-waiting worker per CPU when it loads.  Load it
# with one thread.  OpenBLAS reads the variable only then, so it is removed
# again: subprocesses see the caller's environment.  A pool size the caller
# set in any variable OpenBLAS reads, or a numpy imported before this
# package, is left alone.
_POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _POOL_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
