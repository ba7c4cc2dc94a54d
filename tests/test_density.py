"""Ulam's method as the histogram's oracle.

The return map is piecewise expanding, so it has an absolutely continuous
invariant density (Lasota-Yorke, Trans. AMS 1973), and the invariant vector
of Ulam's bin matrix converges to it in L1 (T.-Y. Li, J. Approx. Theory
1976).  The package's own primitives build that matrix exactly: the
preimages of the bin edges under each branch, with the bin edges and c-,
cut the circle into pieces that each lie in one bin and map into one bin.
So ``histogram`` gets a check that does not depend on its seed.
"""

import json
import math

import numpy as np
import pytest

from lorenzlab import atlas, cli
from lorenzlab.circle import Arc, linear_pieces
from lorenzlab.maps import bisect_increasing_np, lift_np

BINS = 1024


def ulam_density(model, bins):
    """Invariant probability vector of Ulam's bin matrix of the circle map,
    by power iteration from the uniform vector."""
    edges = np.arange(bins + 1) / bins
    cuts = [edges, [model.c_minus]]
    for branch, lo, hi, q in ((1, 0.0, model.c_minus, model.q1),
                              (2, model.c_minus, 1.0, model.q2)):
        # the branch lift runs from q to q + 1, crossing each edge, or the
        # edge one turn up, once
        targets = np.concatenate((edges, edges + 1.0))
        targets = targets[(targets > q) & (targets < q + 1.0)]
        n = targets.size
        cuts.append(bisect_increasing_np(lift_np(model, np.full(n, branch)), targets,
                                         np.full(n, lo), np.full(n, hi)))
    points = np.unique(np.concatenate(cuts))
    mids = 0.5 * (points[:-1] + points[1:])
    # each piece carries its share of its bin's mass to the bin of its image
    share = np.diff(points) * bins
    source = (mids * bins).astype(int)
    target = (model.f_np(mids) * bins).astype(int)
    p = np.full(bins, 1.0 / bins)
    for _ in range(10_000):
        step = np.bincount(target, weights=p[source] * share, minlength=bins)
        step /= step.sum()
        if np.abs(step - p).sum() < 1e-13:
            return step
        p = step
    raise AssertionError("power iteration did not converge")


def _bins_meeting(arc):
    inside = np.zeros(BINS, dtype=bool)
    for lo, hi in linear_pieces(arc):
        inside[math.floor(lo * BINS):math.ceil(hi * BINS)] = True
    return inside


@pytest.mark.parametrize("model_doc,stratum,core", [
    # two-sided: the attractor is the whole circle
    ({}, atlas.O_PP_TILDE, lambda m: Arc.full_circle()),
    # down-Lorenz: the attractor is the cusp arc from q2 through c- to q1
    ({"alpha": 0.79, "beta": 0.20}, atlas.O_PP_LMINUS, lambda m: Arc(m.q2, m.q1)),
], ids=["two-sided", "down-Lorenz"])
def test_histogram_matches_ulam_density(model_doc, stratum, core):
    config = cli.load_config(json.dumps({
        "model": model_doc,
        "histogram": {"orbit_length": 200_000, "bins": BINS, "seed": 1}}))
    model = cli._model(config)
    assert atlas.classify(model).stratum == stratum
    rows, _ = cli.run_histogram(config)
    counts = np.array([row[3] for row in rows], dtype=float)
    density = ulam_density(model, BINS)
    # 200,000 correlated orbit points over 1,024 bins leave an L1 sampling
    # error near 0.05: seeds 1-10 measure 0.052-0.061 on the two-sided model
    # and 0.042-0.049 on the down-Lorenz one, so the bound has 1.3x headroom
    # over the worst of them
    assert np.abs(counts / counts.sum() - density).sum() < 0.08
    # the power iteration leaves below 1.3e-14 on every bin off the attractor
    # and puts above 1.7e-4 on every bin that meets it
    support = density > 1e-9
    assert np.array_equal(support, counts > 0)
    assert np.array_equal(support, _bins_meeting(core(model)))
