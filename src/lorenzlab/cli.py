"""Configuration, experiment drivers, and report/raster emission.

One JSON config document drives every subcommand; unknown keys are rejected,
defaults are filled in and echoed back into each JSON report so a run is
reproducible from its outputs alone.  All CSV output is UTF-8 with LF line
endings and a header row; rasters are binary PPM (P6) for stratum maps and
binary PGM (P5) for attractor clouds.

Exit codes: 0 success, 2 config error (including an output directory that
cannot be created or written) or bad command line, 3 precondition error,
4 budget exceeded.
"""

from __future__ import annotations

import copy
import getopt
import json
import math
import sys
from itertools import islice
from pathlib import Path
from random import Random

import numpy as np

from . import atlas
from .annulus import (
    CloudHits,
    LeafBuckets,
    build_skew,
    cloud_blocks,
    family_degree,
    verify_cones,
)
from .atlas import attractor_span, classify, region_verdicts, rule_span
from .circle import Arc, norm1
from .errors import (
    BudgetError,
    ConfigError,
    EmptyCylinder,
    ParseError,
    PreconditionError,
    ValidationError,
    WorkBudgetExceeded,
)
from .maps import (
    PLUS,
    MINUS,
    SNAP,
    TWO_PI,
    EigenvalueTriple,
    MapModel,
    ModelParams,
    SignedPoint,
    build_model,
    check_singularity_conditions,
    verify_hypotheses,
)
from .symbolic import (
    Word,
    build_conjugacy,
    is_admissible,
    itinerary,
    kneading_data,
    realize,
    shoot_matched_model,
)

# ---------------------------------------------------------------------------
# config


def _is_number(v) -> bool:
    """A finite float or an int within the float range; JSON booleans are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _range01(lo_open=False, hi_open=False, lo=0.0, hi=1.0):
    def check(v, field):
        if not _is_number(v) or not (
                (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi)):
            raise ValidationError(field, f"must be in the range {lo}..{hi}")
    return check


# the largest integer that JSON carries interoperably (RFC 8259, section 6);
# every integer key and the cloud raster's cell count stay at or below it
MAX_INT = 2 ** 53 - 1


def _positive_int(minimum=1):
    def check(v, field):
        if not isinstance(v, int) or isinstance(v, bool) or not minimum <= v <= MAX_INT:
            raise ValidationError(field, f"must be an integer in {minimum}..{MAX_INT}")
    return check


def _number(field_ok=lambda v: True, message="must be a number"):
    def check(v, field):
        if not _is_number(v) or not field_ok(v):
            raise ValidationError(field, message)
    return check


def _pair(v, field):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(_is_number(x) for x in v)):
        raise ValidationError(field, "must be a pair of numbers")


def _choice(options):
    def check(v, field):
        if not isinstance(v, str) or v not in options:
            raise ValidationError(field, f"must be one of {sorted(options)}")
    return check


def _string(v, field):
    if not isinstance(v, str):
        raise ValidationError(field, "must be a string")


SCHEMA = {
    "model": {
        "c_minus": (0.5, _range01(lo_open=True, hi_open=True)),
        "alpha": (0.6, _number()),
        "beta": (0.3, _number()),
        "theta1": (0.15, _range01(hi=0.19)),
        "theta2": (0.0, _range01(hi=0.19)),
    },
    "skew": {
        "kappa": (0.2, _range01(lo_open=True, hi=0.25)),
        "eta1": (0.0, _number(lambda v: abs(v) < 1.0, "must lie in (-1, 1)")),
        "eta2": (0.0, _number(lambda v: abs(v) < 1.0, "must lie in (-1, 1)")),
    },
    "engine": {
        "max_iterations": (60, _positive_int()),
        "eps": (1e-3, _number(lambda v: 0 < v < 1, "must lie in (0, 1)")),
        "depth": (30, _positive_int()),
    },
    "sweep": {
        "grid_nx": (64, _positive_int(2)),
        "grid_ny": (64, _positive_int(2)),
        "alpha_range": ([0.0, 1.0], _pair),
        "beta_range": ([0.0, 1.0], _pair),
        "workers": (1, _positive_int()),
    },
    "path": {
        "start": ([0.77, 0.22], _pair),
        "end": ([0.79, 0.22], _pair),
        "steps": (21, _positive_int(2)),
    },
    "histogram": {
        "orbit_length": (100_000, _positive_int(2)),
        "burn_in": (1000, _positive_int(0)),
        "bins": (1024, _positive_int(2)),
        "seed": (1, _positive_int(0)),
    },
    "itinerary": {
        "x": (0.25, _range01()),
        "side": ("+", _choice({"+", "-"})),
    },
    "word": {
        "letters": ("B0 B0", _string),
    },
    "conjugacy": {
        "theta1_other": (0.10, _range01(hi=0.19)),
        "match_depth": (30, _positive_int(2)),
        "grid": (200, _positive_int(2)),
    },
    "cloud": {
        "depth": (12, _positive_int()),
        "samples": (2000, _positive_int()),
        "burn_in": (60, _positive_int(0)),
        "seed": (7, _positive_int(0)),
        "width": (512, _positive_int(8)),
        "height": (256, _positive_int(8)),
    },
    "degree": {
        "family": ("rotation", _choice({"rotation", "constant", "swapped"})),
    },
    "eigenvalues": {
        # default spectrum is Lorenz-like and non-resonant up to N = 5
        "lambda_ss": (-5.1, _number()),
        "lambda_s": (-1.0, _number()),
        "lambda_u": (2.3, _number()),
        "N": (5, _positive_int(3)),
        "tol": (1e-9, _number(lambda v: v > 0, "must be positive")),
    },
}


def load_config(text: str) -> dict:
    """Parse and validate a JSON config document; fill defaults.  Returns
    {section: {key: value}} with every SCHEMA key set."""
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    if not isinstance(raw, dict):
        raise ParseError(1, "top-level document must be an object")
    for section in raw:
        if section not in SCHEMA:
            raise ValidationError(section, "unknown section")
        if not isinstance(raw[section], dict):
            raise ValidationError(section, "section must be an object")
        for key in raw[section]:
            if key not in SCHEMA[section]:
                raise ValidationError(f"{section}.{key}", "unknown key")
    sections = {}
    for section, fields in SCHEMA.items():
        sections[section] = {}
        for key, (default, validator) in fields.items():
            value = raw.get(section, {}).get(key, copy.deepcopy(default))
            validator(value, f"{section}.{key}")
            sections[section][key] = value
    return sections


# the most loop steps a config may plan for one command, where a step maps
# one point once (a scalar or one numpy lane), classifies one grid cell,
# reads or compares one word letter, pulls back one cylinder or tests one
# resonance triple.  The largest shipped config, the benchmark's cloud of
# 4,000 x (60 + 12) = 288,000 steps, is 34 times below it
MAX_STEPS = 10_000_000


def _letter_count(config: dict) -> int:
    """The letters in word.letters, split as ``Word.from_string`` splits them."""
    return len(config["word"]["letters"].replace(",", " ").split())


# per command whose loops would otherwise run unbounded or allocate what they
# plan: the keys that size the loops and the steps they plan.  kneading_data
# reads 8 itineraries, at least as long as the word that admissible then
# copies and compares at each of its n shifts, and realize pulls back one
# cylinder per letter; the conjugacy's shooting search and two kneading
# checks read at most 80 itineraries and its batch 2 x grid more, each
# match_depth long; a path step runs the segment engine at most
# max_iterations times
PLANNED_STEPS = {
    "attractor2d": ("cloud.samples x (cloud.burn_in + cloud.depth)",
                    lambda c: c["cloud"]["samples"]
                    * (c["cloud"]["burn_in"] + c["cloud"]["depth"])),
    "itinerary": ("engine.depth", lambda c: c["engine"]["depth"]),
    "kneading": ("8 x engine.depth", lambda c: 8 * c["engine"]["depth"]),
    "admissible": ("8 x max(engine.depth, word.letters) + 2 x word.letters^2",
                   lambda c: 8 * max(c["engine"]["depth"], _letter_count(c))
                   + 2 * _letter_count(c) ** 2),
    "realize": ("word.letters", _letter_count),
    "conjugacy": ("conjugacy.match_depth x (80 + 2 x conjugacy.grid)",
                  lambda c: c["conjugacy"]["match_depth"]
                  * (80 + 2 * c["conjugacy"]["grid"])),
    "verify": ("eigenvalues.N^3", lambda c: c["eigenvalues"]["N"] ** 3),
    "histogram": ("histogram.burn_in + histogram.orbit_length",
                  lambda c: c["histogram"]["burn_in"] + c["histogram"]["orbit_length"]),
    "path": ("path.steps x engine.max_iterations",
             lambda c: c["path"]["steps"] * c["engine"]["max_iterations"]),
    "sweep": ("sweep.grid_nx x sweep.grid_ny",
              lambda c: c["sweep"]["grid_nx"] * c["sweep"]["grid_ny"]),
}


def _check_planned_steps(command: str, config: dict) -> None:
    """Raise WorkBudgetExceeded when the command's loops plan more than
    MAX_STEPS steps for this config; nothing is computed first."""
    if command in PLANNED_STEPS:
        keys, steps_of = PLANNED_STEPS[command]
        steps = steps_of(config)
        if steps > MAX_STEPS:
            raise WorkBudgetExceeded(
                f"{keys} = {steps:.4g} loop steps, above the cap of {MAX_STEPS:,}")


def _model(config: dict) -> MapModel:
    return build_model(ModelParams(**config["model"]))


# ---------------------------------------------------------------------------
# rasters and CSV helpers

PALETTE = {
    atlas.O_MM: (31, 119, 180),
    atlas.O_PM: (106, 162, 205),
    atlas.O_MP: (62, 141, 165),
    atlas.O_PP_TILDE: (44, 160, 44),
    atlas.O_PP_LPLUS: (255, 127, 14),
    atlas.O_PP_LMINUS: (148, 103, 189),
    atlas.H1P: (214, 39, 40),
    atlas.H1M: (227, 119, 121),
    atlas.H2P: (188, 33, 96),
    atlas.H2M: (219, 112, 147),
    atlas.H12P: (127, 0, 0),
    atlas.H12M: (80, 0, 40),
    atlas.HE1: (255, 215, 0),
    atlas.HE2: (255, 235, 120),
    atlas.HE1_AND_HE2: (0, 0, 0),
    atlas.DEGENERATE: (128, 128, 128),
}


# one RGB row per index into atlas.STRATA
_PALETTE_RGB = np.array([PALETTE[label] for label in atlas.STRATA], dtype=np.uint8)


def render_raster(strata: np.ndarray) -> bytes:
    """Binary PPM (P6), one pixel per cell of an array of indices into
    atlas.STRATA, rows emitted as given."""
    return b"".join(_raster_blocks("P6", _PALETTE_RGB, strata))


# pixels per block of a streamed raster: a block's looked-up pixels exist
# only until main has written them, so no image is ever held whole
RASTER_BLOCK_CELLS = 4096


def _raster_blocks(magic: str, table: np.ndarray, index: np.ndarray):
    """The binary PNM document (P5 or P6, by ``magic``) whose pixel (j, i) is
    ``table[index[j, i]]``: its header and then blocks of whole rows of about
    RASTER_BLOCK_CELLS pixels, each looked up when it is reached."""
    height, width = index.shape
    yield f"{magic}\n{width} {height}\n255\n".encode()
    rows = max(1, RASTER_BLOCK_CELLS // width)
    for lo in range(0, height, rows):
        yield table[index[lo:lo + rows]].tobytes()


def render_pgm(img: np.ndarray) -> bytes:
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode() + img.astype(np.uint8).tobytes()


# rows per block of CSV text: a block's cells, filled template and encoded
# text exist only until main has written it, so no table is ever held whole
CSV_BLOCK_ROWS = 1024


def _csv(header: list[str] | None, line: str, columns) -> bytes:
    """One encoded block of CSV rows, after the header line when one is given.

    Row k fills the template ``line`` from ``columns[i][k]`` in column order:
    floats as %.12g, bools and counts as %d, text as %s.  A column is a list,
    tuple or numpy array with one value per row.
    """
    rows, width = len(columns[0]), len(columns)
    cells = [None] * (width * rows)
    for i, column in enumerate(columns):
        cells[i::width] = column.tolist() if isinstance(column, np.ndarray) else column
    head = f"{','.join(header)}\n" if header else ""
    return (head + (line + "\n") * rows % tuple(cells)).encode()


def _csv_blocks(header: list[str] | None, line: str, columns):
    """The CSV document of ``_csv``'s arguments as encoded blocks of
    CSV_BLOCK_ROWS rows, the header in the first."""
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        yield _csv(header if lo == 0 else None, line,
                   [column[lo:lo + CSV_BLOCK_ROWS] for column in columns])


def _arc_json(arc):
    """``json.dumps`` hook: an Arc becomes its endpoints, fullness and length."""
    if not isinstance(arc, Arc):
        raise TypeError(f"{type(arc).__name__} is not JSON serializable")
    return {"start": arc.start, "end": arc.end, "full": arc.full,
            "length": arc.length}


def _json_report(payload: dict, config: dict) -> bytes:
    payload = {**payload, "config": config}
    return (json.dumps(payload, indent=2, sort_keys=True, default=_arc_json)
            + "\n").encode()


# ---------------------------------------------------------------------------
# drivers


# cells per classified block of sweep rows: a block's cell rule, margins and
# CSV columns exist only while its CSV blocks are formatted
SWEEP_BLOCK_CELLS = 4096


def run_sweep(config: dict):
    """Classify every grid cell; returns (strata, CSV blocks, PPM blocks).

    Each axis is solved once up front (``atlas.solve_axis``); the CSV blocks
    then classify the grid in blocks of whole rows of about
    SWEEP_BLOCK_CELLS cells (``atlas.classify_cells``) and format each as
    they reach it.  Only the strata are held for the whole grid: the (ny, nx)
    uint8 indices into atlas.STRATA, row j at the j-th beta, filled as the
    CSV blocks are consumed.  The PPM blocks read them, so they must be
    consumed after the CSV blocks.  CSV rows run in row-major order over
    (beta, alpha); the raster top row carries the maximal beta.  The grid is
    classified in one process; ``sweep.workers`` is accepted and ignored.
    """
    sw = config["sweep"]
    params = ModelParams(**config["model"])
    nx, ny = sw["grid_nx"], sw["grid_ny"]
    a_lo, a_hi = sw["alpha_range"]
    b_lo, b_hi = sw["beta_range"]
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing range gives inf or NaN values, a config error below
        alphas = a_lo + (a_hi - a_lo) * np.arange(nx, dtype=float) / (nx - 1)
        betas = b_lo + (b_hi - b_lo) * np.arange(ny, dtype=float) / (ny - 1)
    for field, values in (("sweep.alpha_range", alphas), ("sweep.beta_range", betas)):
        if not np.isfinite(values).all():
            raise ValidationError(field, "grid values overflow; narrow the range")
    lambda_min = build_model(params).lambda_min
    q1, p1 = atlas.solve_axis(params, alphas, 1)
    q2, p2 = atlas.solve_axis(params, betas[:, None], 2)
    strata = np.empty((ny, nx), dtype=np.uint8)
    block_rows = max(1, SWEEP_BLOCK_CELLS // nx)
    # lambda_min is formatted into the row template once, alpha once per grid
    # column, beta once per grid row, stratum,dynamics once per stratum, the
    # margin per cell; the text columns are object arrays of references to
    # those strings
    line = f"%s,%s,%s,%.12g,{lambda_min:.12g}"
    alpha_texts, beta_texts = (np.array([f"{v:.12g}" for v in axis.tolist()], dtype=object)
                               for axis in (alphas, betas))
    classes = np.array([f"{label},{atlas.STRATUM_DYNAMICS[label]}"
                        for label in atlas.STRATA], dtype=object)

    def csv_blocks():
        header = ["alpha", "beta", "stratum", "dynamics", "margin", "lambda_min"]
        for lo in range(0, ny, block_rows):
            hi = lo + block_rows
            block, margins = atlas.classify_cells(params, q1, p1, q2[lo:hi], p2[lo:hi])
            strata[lo:hi] = block
            yield from _csv_blocks(header if lo == 0 else None, line,
                                   [np.tile(alpha_texts, len(block)),
                                    np.repeat(beta_texts[lo:hi], nx),
                                    classes[block.ravel()], margins.ravel()])

    return strata, csv_blocks(), _raster_blocks("P6", _PALETTE_RGB, strata[::-1])


def run_path(config: dict):
    """Classify and measure the attractor span along a parameter segment.

    Every step is classified by one ``region_verdicts`` call; a two-sided
    step takes ``rule_span``'s full circle without a model, and every other
    one runs ``attractor_span``.  Emits one CSV row per step and reports
    every step where the span length jumps by more than 0.25 (the collision
    detector).
    """
    pt = config["path"]
    eng = config["engine"]
    params = ModelParams(**config["model"])
    steps = pt["steps"]
    (a0, b0), (a1, b1) = pt["start"], pt["end"]
    if not (math.isfinite(a1 - a0) and math.isfinite(b1 - b0)):
        raise ValidationError("path.end", "span from path.start overflows")
    t = np.arange(steps, dtype=float) / (steps - 1)
    alphas, betas = a0 + (a1 - a0) * t, b0 + (b1 - b0) * t
    verdicts = region_verdicts(params, alphas, betas)
    rows, traps, jumps = [], [], []
    prev_len = None
    for k, (alpha, beta, verdict) in enumerate(zip(alphas.tolist(), betas.tolist(),
                                                   verdicts)):
        span, trap = rule_span(verdict), ""
        if span is None:
            res = attractor_span(build_model(params._replace(alpha=alpha, beta=beta)),
                                 maxN=eng["max_iterations"], eps=eng["eps"], verdict=verdict)
            span, trap = res.span, "" if res.trapping is None else res.trapping.invariance_margin
        length = span.length
        rows.append([k, alpha, beta, verdict.stratum, length, span.full, trap])
        traps.append("" if trap == "" else f"{trap:.12g}")
        if prev_len is not None and abs(length - prev_len) > 0.25:
            jumps.append(k)
        prev_len = length
    csv_blocks = _csv_blocks(["step", "alpha", "beta", "stratum", "span_length",
                              "span_full", "trap_margin"], "%d,%.12g,%.12g,%s,%.12g,%d,%s",
                             list(zip(*rows))[:6] + [traps])
    report = {"jump_steps": jumps,
              "first_jump_step": jumps[0] if jumps else None,
              "jump_count": len(jumps)}
    return rows, csv_blocks, report


# orbit points per np.histogram call: the orbit is binned chunk by chunk and
# never held whole; a point's bin does not depend on its chunk, so the summed
# counts are those of one call on the whole orbit
HISTOGRAM_CHUNK = 8192


def _histogram_orbit(model: MapModel, x: float):
    """The orbit of x under ``model.f``, a point that ``model.on_discontinuity``
    finds nudged by 1e-9 before each step.  Both methods are inlined with the
    branch constants bound once, and every expression keeps their order, so
    each point is the same double."""
    c, q1, q2 = model.c_minus, model.q1, model.q2
    L1, L2 = model.profile1.length, model.profile2.length
    k1, k2 = model.profile1.theta / TWO_PI, model.profile2.theta / TWO_PI
    # the guard windows: off them, d and e below lie at least 2 SNAP, less a
    # few ulps, from 0 and from 1, so the SNAP test cannot pass there
    lo, hi, c_lo, c_hi = 2.0 * SNAP, 1.0 - 2.0 * SNAP, c - 2.0 * SNAP, c + 2.0 * SNAP
    sin = math.sin
    while True:
        if not lo <= x <= hi or c_lo < x < c_hi:
            d, e = (0.0 - x) % 1.0, (c - x) % 1.0
            if d <= SNAP or 1.0 - d <= SNAP or e <= SNAP or 1.0 - e <= SNAP:
                x = norm1(x + 1e-9)
        if 0.0 <= x < c:
            y = q1 + (x / L1 + k1 * sin(TWO_PI * x / L1))
        else:
            t = x - c
            y = q2 + (t / L2 + k2 * sin(TWO_PI * t / L2))
        # norm1(y), which is y - 1 on [1, 2), exactly by Sterbenz, and y on [0, 1)
        x = y - 1.0 if 1.0 <= y < 2.0 else y if 0.0 <= y < 1.0 else norm1(y)
        yield x


def run_histogram(config: dict):
    """Bin a single long orbit over the circle; deterministic for fixed seed.

    Returns the (bin, lo, hi, count) rows and the CSV blocks."""
    h = config["histogram"]
    if h["orbit_length"] < h["bins"]:
        raise ValidationError("histogram.orbit_length", "must be >= bins")
    points = _histogram_orbit(_model(config), Random(h["seed"]).random())
    for _ in islice(points, h["burn_in"]):      # stepped, never stored
        pass
    n, counts = h["orbit_length"], np.zeros(h["bins"], dtype=np.int64)
    for lo in range(0, n, HISTOGRAM_CHUNK):
        chunk = np.fromiter(points, float, count=min(HISTOGRAM_CHUNK, n - lo))
        chunk_counts, edges = np.histogram(chunk, bins=h["bins"], range=(0.0, 1.0))
        counts += chunk_counts
    rows = [[i, edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)]
    csv_blocks = _csv_blocks(["bin", "lo", "hi", "count"], "%d,%.12g,%.12g,%d",
                             list(zip(*rows)))
    return rows, csv_blocks


def _degree_family(config: dict):
    """The cusp pair (norm1(alpha), norm1(beta)) of the configured family at
    (mu1, mu2); no other check of ``build_model`` reads alpha or beta."""
    a, b = _model(config).params[:2]
    kind = config["degree"]["family"]
    if kind == "rotation":
        return lambda m1, m2: (norm1(a + m1), norm1(b + m2))
    if kind == "constant":
        return lambda m1, m2: (norm1(a), norm1(b))
    return lambda m1, m2: (norm1(a + m2), norm1(b + m1))


# ---------------------------------------------------------------------------
# subcommands: each is a generator of (file name, payload) in write order,
# where a payload is a dict, written as a JSON report, or an iterable of
# encoded blocks, written one at a time as they are made.  ``main`` writes
# each payload to its end before it resumes the command, so a later payload
# may read what an earlier one filled


def _word_from_config(config: dict) -> Word:
    try:
        return Word.from_string(config["word"]["letters"])
    except KeyError as exc:
        raise ValidationError("word.letters", f"unknown letter {exc}") from exc


def cmd_verify(config: dict):
    model = _model(config)
    rep = verify_hypotheses(model)
    cones = verify_cones(build_skew(model, **config["skew"]), grid_x=200)
    e = config["eigenvalues"]
    sing = check_singularity_conditions(
        EigenvalueTriple(e["lambda_ss"], e["lambda_s"], e["lambda_u"]),
        N=e["N"], tol=e["tol"])
    yield "verify.json", {
        "hypotheses": {**rep._asdict(), "all_ok": rep.all_ok},
        "cones": {"analytic_bound": cones.analytic_cone_bound,
                  "worst_cone_factor": cones.worst_cone_factor,
                  "min_expansion": cones.min_expansion,
                  "worst_product": cones.worst_product, "all_ok": cones.all_ok},
        "singularity": {"lorenz_like": sing.lorenz_like, "non_resonant": sing.non_resonant,
                        "resonances": [{"m": list(m), "lambda_index": i, "value": val}
                                       for m, i, val in sing.resonances]},
    }


def cmd_classify(config: dict):
    model = _model(config)
    yield "classify.json", {**classify(model)._asdict(), "lambda_min": model.lambda_min}


def cmd_kneading(config: dict):
    kd = kneading_data(_model(config), config["engine"]["depth"])
    yield "kneading.json", {"depth": kd.depth,
                            "words": {name: str(w) for name, w in kd.words()}}


def cmd_itinerary(config: dict):
    it = config["itinerary"]
    side = PLUS if it["side"] == "+" else MINUS
    word = itinerary(_model(config), SignedPoint(it["x"], side),
                     config["engine"]["depth"])
    yield "itinerary.json", {"x": it["x"], "side": it["side"], "word": str(word)}


def cmd_admissible(config: dict):
    model = _model(config)
    word = _word_from_config(config)
    kd = kneading_data(model, max(config["engine"]["depth"], word.depth))
    verdict = is_admissible(word, kd)
    yield "admissible.json", {
        "word": str(word),
        "admissible_to_depth": verdict.admissible_to_depth,
        "admissible": verdict.admissible,
        "rejection": (None if verdict.rejection is None else
                      {"index": verdict.rejection[0],
                       "condition": verdict.rejection[1]})}


def cmd_realize(config: dict):
    model = _model(config)
    word = _word_from_config(config)
    yield "realize.json", {"word": str(word), **realize(model, word)._asdict()}


def cmd_conjugacy(config: dict):
    model = _model(config)
    cj = config["conjugacy"]
    try:
        other = shoot_matched_model(model, cj["theta1_other"], cj["match_depth"])
    except EmptyCylinder as exc:
        raise PreconditionError(f"matched-model shoot: {exc}; conjugacy.match_depth "
                                f"{cj['match_depth']} is past realize's resolution") from exc
    result = build_conjugacy(model, other, cj["match_depth"], cj["grid"])
    yield "conjugacy.json", {
        "other_alpha": other.params.alpha, "other_beta": other.params.beta,
        "other_theta1": other.params.theta1,
        "defect": result.defect, "interp_defect": result.interp_defect,
        "monotone": result.monotone, "pairs": len(result.pairs)}
    yield "conjugacy_pairs.csv", _csv_blocks(["x", "h_x"], "%.12g,%.12g",
                                             list(zip(*result.pairs)))


def cmd_sweep(config: dict):
    _, csv_blocks, ppm_blocks = run_sweep(config)
    yield "sweep.csv", csv_blocks
    yield "sweep.ppm", ppm_blocks


def cmd_path(config: dict):
    _, csv_blocks, report = run_path(config)
    yield "path.csv", csv_blocks
    yield "path_report.json", report


def cmd_histogram(config: dict):
    _, csv_blocks = run_histogram(config)
    yield "histogram.csv", csv_blocks


def cmd_attractor2d(config: dict):
    cloud = config["cloud"]
    if cloud["width"] * cloud["height"] > MAX_INT:
        raise ValidationError("cloud.height", f"width x height must not exceed {MAX_INT}")
    skew = build_skew(_model(config), **config["skew"])
    blocks = cloud_blocks(skew, cloud["depth"], cloud["samples"], cloud["burn_in"],
                          cloud["seed"])
    hits, leaf = CloudHits(cloud["width"], cloud["height"]), LeafBuckets()

    def csv_blocks():
        # no cloud is held whole: each kept block is counted and bucketed as
        # its CSV rows are formatted, and the raster and the leaf span read
        # those counts once cloud.csv is written; the raster is streamed in
        # row blocks, each the shade table indexed by a block of the counter
        header = ["x", "y"]
        for x, y in blocks:
            hits.add(x, y)
            leaf.add(x)
            yield from _csv_blocks(header, "%.12g,%.12g", [x, y])
            header = None

    yield "cloud.csv", csv_blocks()
    yield "cloud.pgm", _raster_blocks("P5", hits.shade(), hits.hits)
    yield "attractor2d.json", {"leaf_span": leaf.span()}


def cmd_degree(config: dict):
    deg = family_degree(_degree_family(config))
    yield "degree.json", {"matrix": [list(r) for r in deg.entries],
                          "determinant": deg.determinant, "essential": deg.essential}


COMMANDS = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "kneading": cmd_kneading,
    "itinerary": cmd_itinerary,
    "admissible": cmd_admissible,
    "realize": cmd_realize,
    "conjugacy": cmd_conjugacy,
    "sweep": cmd_sweep,
    "path": cmd_path,
    "histogram": cmd_histogram,
    "attractor2d": cmd_attractor2d,
    "degree": cmd_degree,
}


def _read_config(path: Path | None) -> str:
    if path is None:
        return "{}"
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _usage() -> str:
    return (f"usage: lorenzlab {{{','.join(sorted(COMMANDS))}}} "
            "[--config PATH] [--out DIR]")


_LONG_OPTIONS = ["config=", "out=", "help"]


def _parse_args(argv: list[str]):
    """``(command, config path or None, output directory)`` of a command line
    ``COMMAND [--config PATH] [--out DIR]``, or None when it asks for help.

    The command may sit anywhere among the options; an option may be
    written ``--opt=value`` or as a unique prefix, and a repeated option's
    last value wins.  Raises getopt.GetoptError on a bad command line.
    """
    opts, words = getopt.gnu_getopt(argv, "h", _LONG_OPTIONS)
    if words[1:]:
        # gnu_getopt stops at the first word when POSIXLY_CORRECT is set;
        # the grammar has one word, so what follows it is parsed once more
        more, words[1:] = getopt.gnu_getopt(words[1:], "h", _LONG_OPTIONS)
        opts += more
    options = dict(opts)
    if "-h" in options or "--help" in options:
        return None
    if not words:
        raise getopt.GetoptError("a command is required")
    if words[0] not in COMMANDS:
        raise getopt.GetoptError(f"unknown command {words[0]!r}")
    if len(words) > 1:
        raise getopt.GetoptError(f"unexpected argument {words[1]!r}")
    config = options.get("--config")
    return (words[0], None if config is None else Path(config),
            Path(options.get("--out", "out")))


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:
        print(f"usage error: {exc.msg}; {_usage()}", file=sys.stderr)
        return 2
    if args is None:
        print(f"{_usage()}\n\nReturn-map laboratory for up/down/two-sided Lorenz "
              "attractors.\n  --config PATH  JSON config file (defaults apply when "
              "omitted)\n  --out DIR      output directory (default: out)")
        return 0
    command, config_path, out = args

    try:
        config = load_config(_read_config(config_path))
        _check_planned_steps(command, config)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in COMMANDS[command](config):
            if isinstance(payload, dict):
                payload = [_json_report(payload, config)]
            with open(out / name, "wb") as fh:
                fh.writelines(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # config is read into memory first, so this is the output directory
        print(f"config error: cannot write outputs to {out}: {exc}",
              file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except (BudgetError, MemoryError) as exc:
        # numpy raises MemoryError, with a message, for a size it cannot
        # allocate at once; one raised by Python itself may carry none
        reason = str(exc) or "cannot allocate the arrays this config asks for"
        print(f"budget exceeded: {reason}", file=sys.stderr)
        return 4
    print(f"{command}: wrote outputs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
