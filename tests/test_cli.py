import contextlib
import csv
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorenzlab import atlas, cli
from lorenzlab.annulus import CLOUD_LANES, CloudHits, attractor_cloud, build_skew
from lorenzlab.circle import norm1
from lorenzlab.errors import (
    KneadingRecursionViolated,
    NotMarkov,
    ParseError,
    TrackingLost,
    ValidationError,
)
from lorenzlab.maps import ModelParams, build_model
from test_annulus import guard_ladder


def load(doc=None, **sections):
    cfg = dict(doc or {})
    cfg.update(sections)
    return cli.load_config(json.dumps(cfg))


def test_defaults_filled():
    cfg = load()
    assert cfg["model"]["theta1"] == 0.15
    assert cfg["model"]["theta2"] == 0.0
    assert cfg["skew"]["kappa"] == 0.2
    # no expansion floor among the keys: it is PHI
    assert set(cfg["model"]) == {"c_minus", "alpha", "beta", "theta1", "theta2"}
    assert cfg["engine"]["depth"] == 30


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError):
        load(model={"alpha": 0.6, "bogus": 1})
    with pytest.raises(ValidationError):
        load(bogus_section={})


def test_theta_out_of_range():
    with pytest.raises(ValidationError) as err:
        load(model={"theta1": 0.5})
    assert "theta1" in str(err.value)


def test_parse_error():
    with pytest.raises(ParseError):
        cli.load_config("{not json")


def _sweep_rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _run_sweep(cfg):
    """cli.run_sweep with its CSV blocks and then its PPM blocks joined into
    one document each, in main's order; the margins are the CSV's, in the
    shape of the strata."""
    strata, csv_blocks, ppm_blocks = cli.run_sweep(cfg)
    csv_bytes = b"".join(csv_blocks)
    ppm = b"".join(ppm_blocks)
    margins = np.array([float(r["margin"]) for r in _sweep_rows(csv_bytes)])
    return strata, margins.reshape(strata.shape), csv_bytes, ppm


def test_sweep_corners():
    cfg = load(sweep={"grid_nx": 2, "grid_ny": 2,
                      "alpha_range": [0.25, 0.707], "beta_range": [0.3, 0.75]})
    strata, margins, csv_bytes, ppm = _run_sweep(cfg)
    rows = _sweep_rows(csv_bytes)
    by_ab = {(float(r["alpha"]), float(r["beta"])): (r["stratum"], r["dynamics"])
             for r in rows}
    assert by_ab[(0.25, 0.75)] == (atlas.O_MM, atlas.TWO_SIDED)
    assert by_ab[(0.25, 0.3)] == (atlas.O_MP, atlas.TWO_SIDED)
    assert by_ab[(0.707, 0.3)] == (atlas.O_PP_LPLUS, atlas.UP_LORENZ)
    # the returned arrays are the CSV's cells, row j at the j-th beta
    assert strata.shape == margins.shape == (2, 2)
    assert [atlas.STRATA[k] for k in strata.ravel()] == [r["stratum"] for r in rows]
    assert csv_bytes.decode().splitlines()[0] == "alpha,beta,stratum,dynamics,margin,lambda_min"
    assert ppm.startswith(b"P6\n2 2\n255\n")
    assert len(ppm) == len(b"P6\n2 2\n255\n") + 12


def test_sweep_deterministic_and_worker_independent():
    spec = {"grid_nx": 8, "grid_ny": 6, "alpha_range": [0.1, 0.9],
            "beta_range": [0.1, 0.9]}
    *_, csv1, ppm1 = _run_sweep(load(sweep=spec))
    *_, csv2, ppm2 = _run_sweep(load(sweep=spec))
    assert csv1 == csv2 and ppm1 == ppm2
    *_, csv3, ppm3 = _run_sweep(load(sweep={**spec, "workers": 2}))
    assert csv3 == csv1 and ppm3 == ppm1


def test_sweep_rows_obey_verdict_table():
    cfg = load(sweep={"grid_nx": 16, "grid_ny": 16})
    *_, csv_bytes, _ = _run_sweep(cfg)
    rows = _sweep_rows(csv_bytes)
    assert len(rows) == 256
    for r in rows:
        assert atlas.STRATUM_DYNAMICS[r["stratum"]] == r["dynamics"]


def test_sweep_degenerate_band():
    cfg = load(model={"theta1": 0.0, "theta2": 0.0},
               sweep={"grid_nx": 9, "grid_ny": 9,
                      "alpha_range": [0.3, 0.7], "beta_range": [0.3, 0.7]})
    *_, csv_bytes, _ = _run_sweep(cfg)
    # both fixed points exist on the diagonal only where alpha > 1/2
    on_diag = [r for r in _sweep_rows(csv_bytes)
               if abs(float(r["alpha"]) + float(r["beta"]) - 1.0) < 1e-9
               and float(r["alpha"]) > 0.5]
    assert on_diag and all(r["stratum"] == atlas.DEGENERATE for r in on_diag)


def _classify_grid(params, alphas, betas):
    """The (stratum, margin) arrays of the models at (alphas, betas),
    broadcast against each other, in one call on the whole grid."""
    q1, p1 = atlas.solve_axis(params, alphas, 1)
    q2, p2 = atlas.solve_axis(params, betas, 2)
    return atlas.classify_cells(params, q1, p1, q2, p2)


def _row_wise_sweep(config):
    """The sweep emitter as it was written row by row: every CSV field
    through one ``fmt`` call, every pixel through one palette lookup."""
    def fmt(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return f"{v:.12g}"
        return str(v)

    sw = config["sweep"]
    params = ModelParams(**config["model"])
    nx, ny = sw["grid_nx"], sw["grid_ny"]
    a_lo, a_hi = sw["alpha_range"]
    b_lo, b_hi = sw["beta_range"]
    alphas = [a_lo + (a_hi - a_lo) * i / (nx - 1) for i in range(nx)]
    betas = [b_lo + (b_hi - b_lo) * j / (ny - 1) for j in range(ny)]
    lambda_min = build_model(params).lambda_min
    strata, margins = _classify_grid(params, alphas, np.array(betas)[:, None])
    labels = [[atlas.STRATA[k] for k in row] for row in strata.tolist()]
    rows = [[a, b, label, atlas.STRATUM_DYNAMICS[label], m, lambda_min]
            for b, label_row, margin_row in zip(betas, labels, margins.tolist())
            for a, label, m in zip(alphas, label_row, margin_row)]
    lines = ["alpha,beta,stratum,dynamics,margin,lambda_min"]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    body = bytearray()
    for row in labels[::-1]:
        for label in row:
            body.extend(cli.PALETTE[label])
    ppm = f"P6\n{nx} {ny}\n255\n".encode() + bytes(body)
    return ("\n".join(lines) + "\n").encode(), ppm


@pytest.mark.parametrize("doc", [
    # wrapped ranges: alpha runs past both ends of the circle, beta downwards
    {"model": {"c_minus": 0.45},
     "sweep": {"grid_nx": 37, "grid_ny": 23,
               "alpha_range": [-1.3, 2.1], "beta_range": [1.9, -0.4]}},
    # theta1 = theta2 = 0: the degenerate band on the diagonal
    {"model": {"theta1": 0.0, "theta2": 0.0},
     "sweep": {"grid_nx": 9, "grid_ny": 9,
               "alpha_range": [0.3, 0.7], "beta_range": [0.3, 0.7]}},
    {"sweep": {"grid_nx": 2, "grid_ny": 2}},
    # 4,160 cells: the first CSV block ends one cell into grid row 63
    {"sweep": {"grid_nx": 65, "grid_ny": 64,
               "alpha_range": [0.68, 0.82], "beta_range": [0.18, 0.32]}},
], ids=["wrapped", "degenerate", "2x2", "block-edge"])
def test_sweep_emitters_match_row_wise_oracle(doc):
    cfg = load(doc)
    *_, csv_bytes, ppm = _run_sweep(cfg)
    want_csv, want_ppm = _row_wise_sweep(cfg)
    assert csv_bytes == want_csv
    assert ppm == want_ppm


def _whole_grid_sweep(config):
    """run_sweep's CSV and PPM documents as they were made before row
    blocks: one classify_cells call on the whole grid, int64 strata and
    float64 margins held for it, one palette lookup over every cell."""
    sw = config["sweep"]
    params = ModelParams(**config["model"])
    nx, ny = sw["grid_nx"], sw["grid_ny"]
    a_lo, a_hi = sw["alpha_range"]
    b_lo, b_hi = sw["beta_range"]
    alphas = a_lo + (a_hi - a_lo) * np.arange(nx, dtype=float) / (nx - 1)
    betas = b_lo + (b_hi - b_lo) * np.arange(ny, dtype=float) / (ny - 1)
    lambda_min = build_model(params).lambda_min
    strata, margins = _classify_grid(params, alphas, betas[:, None])
    line = f"%s,%s,%s,%.12g,{lambda_min:.12g}"
    alpha_texts = np.array([f"{a:.12g}" for a in alphas.tolist()], dtype=object)
    beta_texts = np.array([f"{b:.12g}" for b in betas.tolist()], dtype=object)
    classes = np.array([f"{label},{atlas.STRATUM_DYNAMICS[label]}"
                        for label in atlas.STRATA], dtype=object)
    csv_blocks = cli._csv_blocks(["alpha", "beta", "stratum", "dynamics", "margin",
                                  "lambda_min"],
                                 line, [np.tile(alpha_texts, ny), np.repeat(beta_texts, nx),
                                        classes[strata.ravel()], margins.ravel()])
    return strata, b"".join(csv_blocks), cli.render_raster(strata[::-1])


@pytest.mark.parametrize("doc", [
    {"sweep": {"grid_nx": 2, "grid_ny": 2}},
    # a CSV block ends inside a grid row, and one classify block holds the grid
    {"sweep": {"grid_nx": 300, "grid_ny": 7}},
    # one grid row is more than a classify block and spans five CSV blocks
    {"sweep": {"grid_nx": 5000, "grid_ny": 2}},
    # 42-row classify blocks and a 4-row last one
    {"model": {"c_minus": 0.45},
     "sweep": {"grid_nx": 97, "grid_ny": 130,
               "alpha_range": [-1.3, 2.1], "beta_range": [1.9, -0.4]}},
    {},
    {"model": {"theta1": 0.0, "theta2": 0.0}},
], ids=["2x2", "300x7", "5000x2", "97x130-wrapped", "default", "default-symmetric"])
def test_sweep_row_blocks_match_whole_grid_reference(doc):
    cfg = load(doc)
    strata, _, csv_bytes, ppm = _run_sweep(cfg)
    want_strata, want_csv, want_ppm = _whole_grid_sweep(cfg)
    assert csv_bytes == want_csv
    assert ppm == want_ppm
    assert strata.dtype == np.uint8 and np.array_equal(strata, want_strata)
    labels = {atlas.STRATA[k] for k in strata.ravel().tolist()}
    if not doc:
        # the default [0, 1]^2 grid crosses the homoclinic bands and HE1
        assert {atlas.H1P, atlas.H2P, atlas.H12P, atlas.HE1} <= labels
    elif doc.get("model", {}).get("theta1") == 0.0:
        # with theta1 = theta2 and c- = 1/2 the HE diagonal is degenerate
        assert {atlas.H1P, atlas.H2P, atlas.H12P, atlas.DEGENERATE} <= labels


def _csv_reference(header, lines, values):
    """The CSV emitter before row blocks: one %-fill of the whole table,
    from one template line per row and all cells in one flat sequence."""
    body = "\n".join(lines) % tuple(values)
    return f"{','.join(header)}\n{body}\n".encode()


def _emitter_inputs(kind, n, rng):
    """An n-row table shaped as one CLI output's: the header, then the
    (line, columns) that ``_csv`` takes and the (lines, values) that the
    callers gave ``_csv_reference``."""
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-30, 30, (n, 2))
    if kind == "sweep":
        # the reference formats each of 7 grid columns' alpha into its own
        # template line; the emitter takes alpha as a text column
        alphas = rng.uniform(size=7)
        row = [f"{a:.12g},%s,%s,%.12g,{math.pi:.12g}" for a in alphas]
        alpha_texts = np.array([f"{a:.12g}" for a in alphas], dtype=object)[np.arange(n) % 7]
        betas = np.array([f"{b:.12g}" for b in rng.uniform(size=n)], dtype=object)
        classes = np.array([f"{label},{atlas.STRATUM_DYNAMICS[label]}"
                            for label in atlas.STRATA], dtype=object)
        cells = classes[rng.integers(0, len(classes), n)]
        values = [v for k in range(n) for v in (betas[k], cells[k], x[k, 0])]
        return (["alpha", "beta", "stratum", "dynamics", "margin", "lambda_min"],
                f"%s,%s,%s,%.12g,{math.pi:.12g}", [alpha_texts, betas, cells, x[:, 0]],
                (row * n)[:n], values)
    if kind == "path":
        # the reference picks %s or %.12g per row for the trap margin; the
        # emitter takes it as a text column, "" or the margin as %.12g
        full = rng.integers(0, 2, n).astype(bool).tolist()
        rows = [[k, a, b, atlas.STRATA[k % len(atlas.STRATA)], length, f,
                 "" if f else m]
                for k, (a, b, length, m, f) in enumerate(zip(
                    *x.T.tolist(), *rng.uniform(size=(2, n)).tolist(), full))]
        lines = ["%d,%.12g,%.12g,%s,%.12g,%d," + ("%s" if f else "%.12g") for f in full]
        traps = ["" if row[6] == "" else f"{row[6]:.12g}" for row in rows]
        return (["step", "alpha", "beta", "stratum", "span_length", "span_full",
                 "trap_margin"], "%d,%.12g,%.12g,%s,%.12g,%d,%s",
                list(zip(*rows))[:6] + [traps], lines, [v for row in rows for v in row])
    if kind == "histogram":
        edges = np.sort(rng.uniform(size=n + 1))
        rows = [[i, edges[i], edges[i + 1], int(c)]
                for i, c in enumerate(rng.integers(0, 10**9, n))]
        return (["bin", "lo", "hi", "count"], "%d,%.12g,%.12g,%d",
                list(zip(*rows)), ["%d,%.12g,%.12g,%d"] * n,
                [v for row in rows for v in row])
    if kind == "conjugacy_pairs":
        pairs = [tuple(p) for p in x.tolist()]
        return (["x", "h_x"], "%.12g,%.12g", list(zip(*pairs)),
                ["%.12g,%.12g"] * n, [v for pair in pairs for v in pair])
    return (["x", "y"], "%.12g,%.12g", [x[:, 0], x[:, 1]],
            ["%.12g,%.12g"] * n, x.ravel().tolist())


_B = cli.CSV_BLOCK_ROWS
_C = cli.SWEEP_BLOCK_CELLS


# the edges of a CSV block and of a sweep's classify block of cells
@pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 3 * _B + 7,
                                  _C - 1, _C, _C + 1, 3 * _C + 7])
@pytest.mark.parametrize("kind", ["sweep", "path", "histogram", "conjugacy_pairs",
                                  "cloud"])
def test_csv_blocks_match_one_pass_reference(kind, rows):
    header, line, columns, ref_lines, ref_values = _emitter_inputs(
        kind, rows, np.random.default_rng(rows))
    want = _csv_reference(header, ref_lines, ref_values)
    assert cli._csv(header, line, columns) == want
    blocks = list(cli._csv_blocks(header, line, columns))
    assert b"".join(blocks) == want
    assert [block.count(b"\n") for block in blocks] == [
        min(_B, rows - lo) + (lo == 0) for lo in range(0, rows, _B)]


def _python_peak(fn):
    """fn's result and the peak of Python allocations while it runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - base


def _main_peak(command, doc, out):
    """The Python peak of cli.main running one command on a config, after
    one untimed run for first-call imports and caches."""
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert cli.main(argv) == 0
    code, peak = _python_peak(lambda: cli.main(argv))
    assert code == 0
    return peak


def test_csv_emission_holds_a_table_about_once(tmp_path):
    # main writes each CSV block as it is formatted, so a run peaks at its
    # arrays.  The 256^2 sweep peaks at the whole grid's solve_axis and
    # classify_cells peak (4.38 MB against 4.40 MB); holding the 4.16 MB
    # sweep.csv whole while it was formatted in row blocks peaked at 7.39 MB.
    # The bound allows a tenth of the CSV above that grid peak, which the
    # whole-table peak misses by 2.6 MB
    peak = _main_peak("sweep", {"sweep": {"grid_nx": 256, "grid_ny": 256}}, tmp_path)
    csv_length = (tmp_path / "sweep.csv").stat().st_size
    params = ModelParams(**load()["model"])
    grid = np.linspace(0.0, 1.0, 256)
    _, grid_peak = _python_peak(lambda: _classify_grid(params, grid, grid[:, None]))
    assert peak <= grid_peak + 0.1 * csv_length

    # the cloud's peak grows with its points, not with its CSV: from 4,000
    # to 16,000 samples it grows by 0.72x the CSV's growth (3.45 MB against
    # 4.81 MB), where a whole cloud.csv grew it by 2.25x; the bound leaves
    # 11% headroom
    peaks, lengths = [], []
    for samples in (4000, 16_000):
        peaks.append(_main_peak("attractor2d", {"cloud": {"samples": samples}}, tmp_path))
        lengths.append((tmp_path / "cloud.csv").stat().st_size)
        assert (tmp_path / "cloud.csv").read_bytes().count(b"\n") == 12 * samples + 1
    assert peaks[1] - peaks[0] <= 0.8 * (lengths[1] - lengths[0])


def test_sweep_holds_one_byte_per_cell(tmp_path):
    # the README 512^2 window: classifying in row blocks and holding only
    # uint8 strata peaks at 0.72-0.80 MB, where classifying the whole grid
    # with int64 strata and float64 margins peaked at 16.85 MB; the bound
    # leaves 1.56x headroom, and the strata alone are 0.26 MB
    doc = {"sweep": {"grid_nx": 512, "grid_ny": 512,
                     "alpha_range": [0.68, 0.82], "beta_range": [0.18, 0.32]}}
    peak = _main_peak("sweep", doc, tmp_path)
    assert (tmp_path / "sweep.csv").read_bytes().count(b"\n") == 512 * 512 + 1
    assert peak <= 1_250_000


def test_attractor_cloud_holds_no_float_image():
    # counting hits in an int64 raster and scaling it through a float64
    # image peaked at 3.78x the default cloud.csv, and bincount over three
    # 8-byte per-point index arrays at 2.59x.  Counting one kept row at a
    # time into an int32 counter measures 1.50x, so the bound leaves 17%
    # headroom; an 8-byte counter alone would reach 2.16x
    cfg = load()
    name, csv_blocks = next(cli.cmd_attractor2d(cfg))
    assert name == "cloud.csv"
    csv_length = len(b"".join(csv_blocks))
    skew = build_skew(cli._model(cfg), **cfg["skew"])
    _, peak = _python_peak(lambda: attractor_cloud(skew, **cfg["cloud"]))
    assert peak <= 1.75 * csv_length


def test_cloud_peak_grows_by_its_state(tmp_path):
    # the cloud's state is 16 bytes per sample, stepped in place CLOUD_LANES
    # lanes at a time, and each kept block is formatted, counted and bucketed
    # as it is made: from 4,000 to 40,000 samples the Python peak of main
    # grows by 27-30 bytes per added sample (the rest is the step's
    # temporaries, 4,000 and then 8,192 lanes wide).  Holding the whole
    # (2, depth, samples) orbit grew it by 295-310; the bound of 48 leaves
    # 1.6x headroom
    peaks = [_main_peak("attractor2d", {"cloud": {"samples": samples}}, tmp_path)
             for samples in (4000, 40_000)]
    assert (tmp_path / "cloud.csv").read_bytes().count(b"\n") == 12 * 40_000 + 1
    assert peaks[1] - peaks[0] <= 48 * (40_000 - 4000)


def test_histogram_holds_no_orbit():
    # the orbit is binned HISTOGRAM_CHUNK points at a time: 0.39 MB at a
    # million steps, where the whole orbit and one np.histogram call took
    # 10.3 MB; the bound leaves 2.6x headroom
    cfg = load(histogram={"orbit_length": 10**6})
    cli.run_histogram(load())
    _, peak = _python_peak(lambda: cli.run_histogram(cfg))
    assert peak < 1_000_000


def _histogram_reference(config):
    """run_histogram's counts as they were computed: the burn-in and the
    orbit stepped into one array, binned by one np.histogram call."""
    h = config["histogram"]
    model = cli._model(config)
    orbit = np.empty(h["burn_in"] + h["orbit_length"])
    x = cli.Random(h["seed"]).random()
    for i in range(orbit.size):
        x = model.f(x if model.on_discontinuity(x) is None else norm1(x + 1e-9))
        orbit[i] = x
    counts, edges = np.histogram(orbit[h["burn_in"]:], bins=h["bins"], range=(0.0, 1.0))
    return [[i, edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)]


def _orbit_reference(model, x):
    """The histogram orbit through the model's methods, ``on_discontinuity``
    and then ``f``, one call each."""
    while True:
        x = model.f(x if model.on_discontinuity(x) is None else norm1(x + 1e-9))
        yield x


def _histogram_generator_reference(config):
    """run_histogram's rows and CSV bytes with the orbit stepped through the
    model's methods (``_orbit_reference``)."""
    h = config["histogram"]
    points = _orbit_reference(cli._model(config), cli.Random(h["seed"]).random())
    for _ in islice(points, h["burn_in"]):
        pass
    n, counts = h["orbit_length"], np.zeros(h["bins"], dtype=np.int64)
    for lo in range(0, n, cli.HISTOGRAM_CHUNK):
        chunk = np.fromiter(points, float, count=min(cli.HISTOGRAM_CHUNK, n - lo))
        chunk_counts, edges = np.histogram(chunk, bins=h["bins"], range=(0.0, 1.0))
        counts += chunk_counts
    rows = [[i, edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)]
    return rows, _csv_reference(["bin", "lo", "hi", "count"],
                                ["%d,%.12g,%.12g,%d"] * h["bins"],
                                [v for row in rows for v in row])


class _FixedStart:
    """A stand-in for random.Random whose one draw is a given start."""

    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


@pytest.mark.parametrize("model,start", [
    ({}, None),
    # c- != 1/2 with a wavy second branch
    ({"c_minus": 0.45, "theta1": 0.1, "theta2": 0.08}, None),
    ({"c_minus": 0.45, "theta1": 0.1, "theta2": 0.08, "alpha": 0.77, "beta": 0.21}, None),
    # starts on c- and on c+, so the 1e-9 nudge runs
    ({"c_minus": 0.45, "theta2": 0.08}, 0.45),
    ({"c_minus": 0.45, "theta2": 0.08}, 0.0),
    ({}, 0.5),
], ids=["default", "c045", "c045-lminus", "start-c-minus", "start-c-plus", "start-half"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_histogram_step_matches_method_reference(model, start, seed, monkeypatch):
    cfg = load(model=model, histogram={"orbit_length": 20_000, "burn_in": 50,
                                       "bins": 512, "seed": seed})
    if start is not None:
        monkeypatch.setattr(cli, "Random", lambda seed: _FixedStart(start))
        assert cli._model(cfg).on_discontinuity(start) is not None
    want_rows, want_csv = _histogram_generator_reference(cfg)
    rows, csv_blocks = cli.run_histogram(cfg)
    assert rows == want_rows
    assert b"".join(csv_blocks) == want_csv


def _hex_orbit(points, n=40):
    return [x.hex() for x in islice(points, n)]


@pytest.mark.parametrize("c", [0.45, 0.5, 0.55])
def test_histogram_orbit_matches_method_reference_on_guard_ladders(c):
    # the SNAP test runs only inside the guard windows: starts on ladders at
    # 0, +-SNAP and +-2 SNAP around c+ = 0, c- and 1 step as the methods do,
    # inside the windows, on their edges and just outside them
    model = build_model(ModelParams(alpha=0.77, beta=0.21, c_minus=c,
                                    theta1=0.1, theta2=0.08))
    for anchor in (0.0, c, 1.0):
        for start in guard_ladder(anchor):
            assert (_hex_orbit(cli._histogram_orbit(model, start))
                    == _hex_orbit(_orbit_reference(model, start))), (anchor, start)


@pytest.mark.parametrize("q1,x,y", [
    (0.5, 0.25, 1.0),
    (0.5 - 2.0**-53, 0.25, math.nextafter(1.0, 0.0)),
    (1.5 - 2.0**-52, 0.25, math.nextafter(2.0, 0.0)),
    (1.5, 0.25, 2.0),
    (-0.75, 0.25, -0.25),
    (-(2.0**-19) - 2.0**-70, 2.0**-20, -(2.0**-70)),     # wraps to 1.0, then 0.0
], ids=["one", "below-one", "below-two", "two", "negative", "negative-tiny"])
def test_histogram_orbit_wraps_as_floor(q1, x, y):
    # a first step from x whose branch-1 value is exactly y (theta1 = 0, so
    # g1(x) = x / L1); the wrap takes y - 1 on [1, 2), y on [0, 1) and
    # y - floor(y) elsewhere, as f does
    model = dataclasses.replace(build_model(ModelParams(0.6, 0.3, theta1=0.0)), q1=q1)
    assert model.lift(1, x) == y
    assert (_hex_orbit(cli._histogram_orbit(model, x))
            == _hex_orbit(_orbit_reference(model, x)))


@pytest.mark.parametrize("bins", [1000, 1023])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_histogram_chunks_match_one_pass_reference(bins, extra):
    cfg = load(histogram={"orbit_length": cli.HISTOGRAM_CHUNK + extra, "burn_in": 37,
                          "bins": bins, "seed": 3 + extra})
    rows, csv_blocks = cli.run_histogram(cfg)
    want = _histogram_reference(cfg)
    assert rows == want
    assert sum(r[3] for r in rows) == cli.HISTOGRAM_CHUNK + extra
    assert b"".join(csv_blocks) == _csv_reference(
        ["bin", "lo", "hi", "count"], ["%d,%.12g,%.12g,%d"] * bins,
        [v for row in want for v in row])


def test_path_collision_detector_fires_once():
    cfg = load(model={"theta1": 0.19},
               path={"start": [0.77, 0.22], "end": [0.79, 0.22], "steps": 21})
    rows, csv_blocks, report = cli.run_path(cfg)
    assert report["jump_count"] == 1
    assert report["first_jump_step"] == 10
    header = next(csv_blocks).decode().splitlines()[0]
    assert header == "step,alpha,beta,stratum,span_length,span_full,trap_margin"
    # trapping margin defined exactly on the down-Lorenz steps
    for r in rows:
        if r[3] == atlas.O_PP_LMINUS:
            assert isinstance(r[6], float) and r[6] > 0
        else:
            assert r[6] == ""


def test_path_two_sided_steps_take_the_rule_span(monkeypatch):
    # the span rule's one behaviour change: a two-sided step builds no model
    # and runs no engine, so engine.max_iterations no longer reaches it.
    # Every step of this path is O++_tilde, and with one engine step
    # attractor_span's own certificate leaves a gap above eps on each
    cfg = load(model={"theta1": 0.19}, engine={"max_iterations": 1},
               path={"start": [0.781, 0.22], "end": [0.79, 0.22], "steps": 21})
    built = []
    monkeypatch.setattr(cli, "build_model", built.append)
    rows, csv_blocks, report = cli.run_path(cfg)
    assert not built
    lines = b"".join(csv_blocks).decode().splitlines()[1:]
    assert [line.split(",")[3:] for line in lines] == [["O++_tilde", "1", "1", ""]] * 21
    assert report["jump_count"] == 0
    monkeypatch.undo()
    params = ModelParams(**cfg["model"])
    for r in rows:
        cert = atlas.attractor_span(build_model(params._replace(alpha=r[1], beta=r[2])),
                                    maxN=1).certificate
        assert max(g.length for g in cert.gap_arcs) >= 1e-3


def test_path_steps_match_scalar_parametrization():
    # the step vectors keep the scalar expression order, so every step's
    # (alpha, beta) equals a0 + (a1 - a0) * (k / (steps - 1)) bit for bit;
    # a path that wraps the circle, where k * (1 / (steps - 1)) would differ
    (a0, b0), (a1, b1), steps = (-1.3, 0.3), (2.1, 0.7), 101
    cfg = load(path={"start": [a0, b0], "end": [a1, b1], "steps": steps})
    rows, _, _ = cli.run_path(cfg)
    for k, row in enumerate(rows):
        t = k / (steps - 1)
        assert (row[1].hex(), row[2].hex()) == ((a0 + (a1 - a0) * t).hex(),
                                                (b0 + (b1 - b0) * t).hex())


def test_path_no_jump_inside_open_region():
    cfg = load(path={"start": [0.55, 0.3], "end": [0.57, 0.3], "steps": 11})
    _, _, report = cli.run_path(cfg)
    assert report["jump_count"] == 0


def test_histogram_deterministic():
    cfg = load(histogram={"orbit_length": 10_000, "burn_in": 100,
                          "bins": 64, "seed": 9})
    _, csv1 = cli.run_histogram(cfg)
    _, csv2 = cli.run_histogram(cfg)
    assert b"".join(csv1) == b"".join(csv2)


def test_histogram_up_lorenz_support():
    cfg = load(model={"alpha": 0.707, "beta": 0.30},
               histogram={"orbit_length": 200_000, "burn_in": 2000,
                          "bins": 1024, "seed": 1})
    rows, _ = cli.run_histogram(cfg)
    # complement of the attractor span is (0.30, 0.707); with margin 0.04
    # every bin inside (0.35, 0.65) is empty
    for b, lo, hi, count in rows:
        if lo >= 0.35 and hi <= 0.65:
            assert count == 0


def test_histogram_two_sided_support():
    cfg = load(model={"alpha": 0.25, "beta": 0.75},
               histogram={"orbit_length": 300_000, "burn_in": 1000,
                          "bins": 1024, "seed": 2})
    rows, _ = cli.run_histogram(cfg)
    assert all(r[3] > 0 for r in rows)


def test_histogram_nudge_crosses_c_plus(monkeypatch):
    # an orbit point within SNAP left of c+ is nudged across c+ onto branch 1,
    # as one left of c- is nudged onto branch 2: its image is near q1, not q2
    class Start:
        def random(self):
            return 1.0 - 5e-10

    orbits = []
    histogram = np.histogram

    def recording_histogram(a, **kw):
        orbits.append(a.copy())
        return histogram(a, **kw)

    monkeypatch.setattr(cli, "Random", lambda seed: Start())
    monkeypatch.setattr(np, "histogram", recording_histogram)
    cfg = load(histogram={"orbit_length": 2, "burn_in": 0, "bins": 2})
    cli.run_histogram(cfg)
    model = build_model(ModelParams(**cfg["model"]))
    assert abs(orbits[0][0] - model.q1) < 1e-6


def test_histogram_orbit_shorter_than_bins():
    with pytest.raises(ValidationError):
        cli.run_histogram(load(histogram={"orbit_length": 100, "bins": 512}))


def test_render_raster():
    def rgb(*ks):
        return b"".join(bytes(cli.PALETTE[atlas.STRATA[k]]) for k in ks)

    one = cli.render_raster(np.array([[3]]))
    assert one == b"P6\n1 1\n255\n" + rgb(3)
    out = cli.render_raster(np.array([[0, 1, 2], [15, 4, 5]]))
    assert out == b"P6\n3 2\n255\n" + rgb(0, 1, 2, 15, 4, 5)


def test_palette_covers_all_strata():
    for label in atlas.STRATA:
        assert label in cli.PALETTE


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"model": {"theta1": 0.5}}))
    assert cli.main(["classify", "--config", str(invalid), "--out", str(tmp_path)]) == 2

    # a precondition failure (skew cone bound) exits 3
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"skew": {"kappa": 0.24}}))
    assert cli.main(["attractor2d", "--config", str(cone), "--out", str(tmp_path)]) == 3


_PAST_RESOLUTION = json.dumps({"model": {"theta1": 0.0},
                               "conjugacy": {"theta1_other": 0.01039696861402244,
                                             "match_depth": 60}})

BAD_INPUTS = [
    # (command, config text, exit code)
    ("realize", '{"word": {"letters": "A0 A0"}}', 3),          # EmptyCylinder
    ("classify", '{"model": {"alpha": NaN}}', 2),
    ("classify", '{"model": {"alpha": Infinity}}', 2),
    ("classify", '{"model": {"alpha": true}}', 2),
    # integers outside the float range are not numbers
    pytest.param("classify", '{"model": {"alpha": 1%s}}' % ("0" * 400), 2,
                 id="classify-alpha-10**400-2"),
    pytest.param("path", '{"path": {"start": [1%s, 0.22]}}' % ("0" * 400), 2,
                 id="path-start-10**400-2"),
    ("classify", '{"model": {"theta1": "0.1"}}', 2),
    ("classify", '{"degree": {"family": []}}', 2),             # unhashable choice
    ("sweep", '{"sweep": {"workers": true}}', 2),
    ("path", '{"path": {"start": [NaN, 0.22]}}', 2),
    # finite ends whose difference overflows
    ("path", '{"path": {"start": [1.7e308, 0.22], "end": [-1.7e308, 0.22]}}', 2),
    ("sweep", '{"sweep": {"alpha_range": [-1.7e308, 1.7e308]}}', 2),
    # a finite span whose grid steps overflow
    ("sweep", '{"sweep": {"beta_range": [0, 1.7e308], "grid_ny": 3}}', 2),
    ("degree", '{"degree": {"step": 1e-300}}', 2),             # unknown key: the step is fixed
    # unknown key: the expansion floor is PHI, so this model is not certified
    ("path", '{"model": {"lambda_min_required": 1.0, "c_minus": 0.3, "alpha": 0.6, '
             '"beta": 0.2}}', 2),
    ("path", '{"model": {"c_minus": 0.3, "alpha": 0.6, "beta": 0.2}}', 3),  # ExpansionTooWeak
    ("degree", '{"model": {"c_minus": 0.3}}', 3),                 # ExpansionTooWeak, once
    ("classify", None, 2),                                     # missing file
    ("classify", b"\xff\xfe{}", 2),                           # not UTF-8
    ("classify --out cfg.json/sub", "{}", 2),                  # --out under a file
    # loops that plan more than cli.MAX_STEPS steps, one case per key; each
    # ran until killed before the cap, or exited 4 only once an allocation
    # failed (test_planned_steps_cap_runs_no_loop)
    ("histogram", '{"histogram": {"orbit_length": 1000000000000000}}', 4),
    ("histogram", '{"histogram": {"burn_in": 1000000000000000}}', 4),
    ("sweep", '{"sweep": {"grid_nx": 1000000000000000}}', 4),
    ("path", '{"path": {"steps": 1000000000000000}}', 4),
    ("attractor2d", '{"cloud": {"samples": 1000000000000000}}', 4),
    ("attractor2d", '{"cloud": {"burn_in": 1000000000000000}}', 4),
    ("kneading", '{"engine": {"depth": 1000000000000000}}', 4),
    ("itinerary", '{"engine": {"depth": 1000000000000000}}', 4),
    ("admissible", '{"engine": {"depth": 1000000000000000}}', 4),
    ("conjugacy", '{"conjugacy": {"match_depth": 1000000000000000}}', 4),
    ("verify", '{"eigenvalues": {"N": 1000000}}', 4),
    ("verify", '{"eigenvalues": {"N": 9007199254740991}}', 4),
    # integers above 2**53 - 1, and a raster of more cells than that
    ("histogram", '{"histogram": {"orbit_length": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"samples": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"width": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"width": 1000000000000, "height": 1000000000000}}', 2),
    ("conjugacy", '{"conjugacy": {"grid": 100000000000000000000}}', 2),
    ("verify", '{"eigenvalues": {"N": 100000000000000000000}}', 2),
    ("sweep", '{"sweep": {"grid_nx": 100000000000000000000}}', 2),
    # a cusp word the shoot matches to depth 60 whose cylinder realize cannot
    # resolve past depth 36
    pytest.param("conjugacy", _PAST_RESOLUTION, 3, id="conjugacy-match_depth-60-3"),
    # bad command lines: an unknown command, an unknown option, an option
    # without its value and a second positional word
    ("bogus", "{}", 2),
    ("classify --bogus", "{}", 2),
    ("classify --out", "{}", 2),
    ("classify extra", "{}", 2),
]


# a warning would print a second stderr line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,text,code", BAD_INPUTS)
def test_main_bad_input_exits_cleanly(command, text, code, tmp_path, capsys,
                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    # extra arguments after the command (a later --out wins) ride in `command`
    command, *extra = command.split()
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), *extra]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    # the line names the error kind and then says what went wrong
    assert err.partition(": ")[2].strip()


def test_main_command_line_grammar(tmp_path, capsys, monkeypatch):
    # -h/--help prints a usage line naming every command and exits 0; it is
    # checked before the command, so it also works on its own or beside an
    # unknown command
    for argv in (["--help"], ["-h"], ["bogus", "--help"]):
        assert cli.main(argv) == 0
        usage = capsys.readouterr().out
        assert all(name in usage for name in cli.COMMANDS), usage
    # --opt=value, a unique prefix of an option, and the command after its
    # options; the report echoes the config file's value, so it was read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"itinerary": {"x": 0.3}}))
    for sub, argv in (("a", ["itinerary", f"--config={cfg}", f"--out={tmp_path / 'a'}"]),
                      ("b", ["itinerary", "--conf", str(cfg), "--out", str(tmp_path / "b")])):
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / sub / "itinerary.json").read_text())["x"] == 0.3
    assert cli.main(["--out", str(tmp_path / "c"), "verify"]) == 0
    assert (tmp_path / "c" / "verify.json").stat().st_size
    # POSIXLY_CORRECT stops gnu_getopt at the first word, which must not
    # change the grammar: options after the command still count, and a
    # word after the command is still an error
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert cli.main(["itinerary", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert json.loads((tmp_path / "d" / "itinerary.json").read_text())["x"] == 0.3
    assert cli.main(["itinerary", "extra", "--out", str(tmp_path / "e")]) == 2
    assert "'extra'" in capsys.readouterr().err


def test_main_conjugacy_past_resolution_names_match_depth(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_PAST_RESOLUTION)
    assert cli.main(["conjugacy", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "conjugacy.match_depth" in err and "shoot" in err


# per capped key: the command, a config past the cap, the key and the name in
# cli through which the command starts its first loop
_CAP_CASES = [
    ("attractor2d", {"cloud": {"burn_in": 10**15}}, "cloud.burn_in", "cloud_blocks"),
    ("kneading", {"engine": {"depth": 10**15}}, "engine.depth", "kneading_data"),
    ("itinerary", {"engine": {"depth": 10**15}}, "engine.depth", "itinerary"),
    ("admissible", {"engine": {"depth": 10**15}}, "engine.depth", "kneading_data"),
    ("conjugacy", {"conjugacy": {"match_depth": 10**15}}, "conjugacy.match_depth",
     "shoot_matched_model"),
    ("verify", {"eigenvalues": {"N": 10**6}}, "eigenvalues.N",
     "check_singularity_conditions"),
    ("histogram", {"histogram": {"burn_in": 10**15}}, "histogram.burn_in",
     "run_histogram"),
    ("histogram", {"histogram": {"orbit_length": 10**15}}, "histogram.orbit_length",
     "run_histogram"),
    ("path", {"path": {"steps": 10**15}}, "path.steps", "region_verdicts"),
    ("sweep", {"sweep": {"grid_nx": 10**15}}, "sweep.grid_nx", "run_sweep"),
    # is_admissible copies and compares each of the word's n shifts: 2 n^2
    # steps, 3.2 x 10^7 for this word, while engine.depth alone plans 240
    ("admissible", {"word": {"letters": " ".join(["B0"] * 4_000)}}, "word.letters",
     "kneading_data"),
]


@pytest.mark.parametrize("command,doc,key,loop", _CAP_CASES)
def test_planned_steps_cap_runs_no_loop(command, doc, key, loop, tmp_path, capsys,
                                        monkeypatch):
    # the cap reads the config alone: no model is built and no loop starts
    def unreachable(*args, **kwargs):
        raise AssertionError("computed past the cap")

    for name in ("build_model", loop):
        monkeypatch.setattr(cli, name, unreachable)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: ") and key in err and err.count("\n") == 1


# small configs, so that each command runs its loops under the cap
_SMALL = {"cloud": {"samples": 200}, "conjugacy": {"match_depth": 12, "grid": 20},
          "histogram": {"orbit_length": 2000, "bins": 64},
          "path": {"steps": 3}, "sweep": {"grid_nx": 4, "grid_ny": 3}}


@pytest.mark.parametrize("command,loop", sorted({(c, loop) for c, _, _, loop in _CAP_CASES}))
def test_planned_steps_cap_cases_patch_a_reached_name(command, loop, tmp_path, monkeypatch):
    # a case whose patched name the command no longer calls would pass
    # test_planned_steps_cap_runs_no_loop whether or not the cap holds
    calls = []
    reached = getattr(cli, loop)

    def recording(*args, **kwargs):
        calls.append(loop)
        return reached(*args, **kwargs)

    monkeypatch.setattr(cli, loop, recording)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SMALL))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls


def test_planned_steps_cap_counts_the_realized_word(tmp_path, capsys, monkeypatch):
    # realize pulls back one cylinder per letter, so its row is the word's
    # letter count, split as Word.from_string splits it: one letter past the
    # cap exits 4 before realize runs, and a word at the cap reaches it
    calls = []
    reached = cli.realize

    def recording(model, word):
        calls.append(word.depth)
        return reached(model, word)

    monkeypatch.setattr(cli, "MAX_STEPS", 1_000)
    monkeypatch.setattr(cli, "realize", recording)
    cfg = tmp_path / "cfg.json"
    for n, code in ((1_001, 4), (1_000, 0)):
        cfg.write_text(json.dumps({"word": {"letters": ", ".join(["B0"] * n)}}))
        assert cli.main(["realize", "--config", str(cfg), "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("word.letters" in err and err.count("\n") == 1) == (code == 4)
    assert calls == [1_000]


def test_planned_steps_cap_clears_every_shipped_config():
    # the golden configs (the defaults and the README examples among them)
    # and the benchmark parts plan at most the benchmark cloud's
    # 4,000 x (60 + 12) steps, which the cap clears 34 times over
    from test_golden import CONFIGS
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    docs = [*CONFIGS.values(),
            *(part["config"] for part in json.loads(workloads.read_text())["parts"].values())]
    planned = [steps(load(doc)) for doc in docs for _, steps in cli.PLANNED_STEPS.values()]
    assert max(planned) == 4_000 * (60 + 12)
    assert cli.MAX_STEPS >= 34 * max(planned)


@pytest.mark.parametrize("exc", [NotMarkov("strip not crossed"),
                                 TrackingLost("cusp 1 jumped 0.300"),
                                 KneadingRecursionViolated("w_mp", "A1", "B0")])
def test_main_certificate_failures_exit_3(exc, tmp_path, capsys, monkeypatch):
    # none of these errors is reachable from a config today; main still maps them
    def fail(config):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "classify", fail)
    assert cli.main(["classify", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("\n") == 1


def test_main_unwritable_report_exits_2(tmp_path, capsys):
    # the report's name is taken by a directory: the write fails, not the command
    (tmp_path / "classify.json").mkdir()
    assert cli.main(["classify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "classify.json" in err


def test_main_writes_each_payload_before_resuming_the_command(tmp_path, monkeypatch):
    # a command yields (file name, payload) in write order: a block payload is
    # written to its end, and its file closed, before the command resumes, and
    # a dict is written as a JSON report with the config echoed
    blocks = [b"a,b\n", b"1,2\n", b"3,4\n"]
    resumed = []

    def command(config):
        yield "first.csv", iter(blocks)
        assert (tmp_path / "first.csv").read_bytes() == b"".join(blocks)
        resumed.append(True)
        yield "second.json", {"rows": 2}

    monkeypatch.setitem(cli.COMMANDS, "classify", command)
    assert cli.main(["classify", "--out", str(tmp_path)]) == 0
    assert resumed
    report = (tmp_path / "second.json").read_bytes()
    assert report == cli._json_report({"rows": 2}, load())
    assert json.loads(report) == {"rows": 2, "config": load()}


def test_main_expansion_failure_message_is_short(tmp_path, capsys):
    # c- = 0.3 gives branch 2 the slope 1/0.7 < PHI; the message gives both
    # numbers to 6 significant digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"c_minus": 0.3}}')
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120
    assert "1.61803" in err


def test_main_kneading_cusp_just_off_c_plus(tmp_path):
    # alpha = 2e-9 puts a* 8.7e-10 below c-, inside SNAP of both; (c-, +)
    # snaps to the nearer cut c- and reads B0, as the recursion demands
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"alpha": 2e-9}}')
    assert cli.main(["kneading", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    kn = json.loads((tmp_path / "kneading.json").read_text())
    assert kn["words"]["w_mp"].startswith("B0")


def test_main_writes_reports(tmp_path):
    assert cli.main(["classify", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert payload["stratum"] == atlas.O_PP_TILDE
    assert payload["config"]["model"]["alpha"] == 0.6

    assert cli.main(["kneading", "--out", str(tmp_path)]) == 0
    kn = json.loads((tmp_path / "kneading.json").read_text())
    assert kn["words"]["w_pp"].startswith("A0")

    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    ver = json.loads((tmp_path / "verify.json").read_text())
    assert ver["hypotheses"]["all_ok"]
    assert ver["singularity"]["lorenz_like"]
    assert ver["singularity"]["non_resonant"]

    assert cli.main(["itinerary", "--out", str(tmp_path)]) == 0
    it = json.loads((tmp_path / "itinerary.json").read_text())
    assert it["word"] == "A1 A0 B0" + " A0" * 0 or it["word"].startswith("A1 A0 B0")

    assert cli.main(["realize", "--out", str(tmp_path)]) == 0
    re = json.loads((tmp_path / "realize.json").read_text())
    assert abs(re["midpoint"] - 0.7) < 0.1  # B0 B0 cylinder sits near p2

    assert cli.main(["admissible", "--out", str(tmp_path)]) == 0
    ad = json.loads((tmp_path / "admissible.json").read_text())
    assert ad["admissible"]


def test_cmd_conjugacy(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"conjugacy": {"theta1_other": 0.10,
                                                 "match_depth": 18,
                                                 "grid": 40}}))
    assert cli.main(["conjugacy", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "conjugacy.json").read_text())
    assert payload["monotone"]
    assert payload["defect"] < 1e-4
    pairs = (tmp_path / "conjugacy_pairs.csv").read_text().splitlines()
    assert pairs[0] == "x,h_x"
    assert len(pairs) == payload["pairs"] + 1


def test_cmd_attractor2d_outputs(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cloud": {"depth": 8, "samples": 500,
                                             "width": 64, "height": 32}}))
    assert cli.main(["attractor2d", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
    pgm = (tmp_path / "cloud.pgm").read_bytes()
    assert pgm.startswith(b"P5\n64 32\n255\n")
    assert len(pgm) == len(b"P5\n64 32\n255\n") + 64 * 32


def _one_pixel_blocks(skew, depth, samples, burn_in, seed):
    # every kept point on one spot: one pixel holds every hit, so the shade
    # table runs to depth x samples entries
    for _ in range(depth):
        yield np.full(samples, 0.3), np.full(samples, 0.1)


# the default raster (8 rows per block), a height that is no multiple of the
# block rows, the narrowest raster (512 rows per block, two blocks) and a
# cloud whose hits all fall in one pixel
@pytest.mark.parametrize("doc,one_pixel", [
    ({}, False),
    ({"cloud": {"height": 3 * (cli.RASTER_BLOCK_CELLS // 512) + 5}}, False),
    ({"cloud": {"width": 8, "height": 1000}}, False),
    ({"cloud": {"width": 8, "height": 8}}, True),
], ids=["default", "ragged-height", "width-8", "one-pixel"])
def test_cloud_pgm_streams_the_hit_raster(doc, one_pixel, tmp_path, monkeypatch):
    # cloud.pgm is written as its header and then row blocks, each the shade
    # table indexed by a block of the hit counter; its bytes equal
    # render_pgm of the whole raster
    if one_pixel:
        monkeypatch.setattr(cli, "cloud_blocks", _one_pixel_blocks)
    cfg = load(doc)
    c = cfg["cloud"]
    hits = CloudHits(c["width"], c["height"])
    for x, y in cli.cloud_blocks(build_skew(cli._model(cfg), **cfg["skew"]), c["depth"],
                                 c["samples"], c["burn_in"], c["seed"]):
        hits.add(x, y)
    want = cli.render_pgm(hits.raster())

    payloads = cli.cmd_attractor2d(cfg)
    for _ in next(payloads)[1]:                # cloud.csv, which counts the hits
        pass
    name, blocks = next(payloads)
    blocks = list(blocks)
    assert name == "cloud.pgm" and b"".join(blocks) == want
    rows = max(1, cli.RASTER_BLOCK_CELLS // c["width"])
    assert [len(block) for block in blocks[1:]] == [
        min(rows, c["height"] - lo) * c["width"] for lo in range(0, c["height"], rows)]
    if one_pixel:
        assert sorted(want[-64:]) == [0] * 63 + [255]

    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main(["attractor2d", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cloud.pgm").read_bytes() == want


def test_cloud_pgm_holds_only_the_hit_counter(tmp_path):
    # cloud.pgm is streamed in row blocks from the 4-byte hit counter: from a
    # 512^2 to a 1024^2 raster the Python peak of main grows by 4.0 bytes per
    # added cell.  Rendering the whole uint8 raster and then its astype copy,
    # its bytes and the header concatenation grew it by 7.0; the bound is 5
    peaks = [_main_peak("attractor2d", {"cloud": {"width": n, "height": n}}, tmp_path)
             for n in (512, 1024)]
    assert (tmp_path / "cloud.pgm").stat().st_size == len(b"P5\n1024 1024\n255\n") + 1024 ** 2
    assert peaks[1] - peaks[0] <= 5 * (1024 ** 2 - 512 ** 2)


@pytest.mark.parametrize("peak", [1, 2, 3, 255, 256, 1_000_003])
def test_cloud_shade_table_is_built_in_place(peak):
    # the table equals 255.0 * k / peak computed through an int64 arange and
    # float temporaries, but built in place its float64 values and uint8
    # copy peak at 9 bytes per entry, where the temporaries would take 16
    hits = CloudHits(8, 8)
    hits.hits[3, 5] = peak
    table, used = _python_peak(hits.shade)
    assert np.array_equal(table, (255.0 * np.arange(peak + 1) / peak).astype(np.uint8))
    assert table[-1] == 255 and used <= 10 * (peak + 1) + 4096


# seeds 1-3, lane-block edges, one kept step without burn-in, a model whose
# branches differ in length, profile and spine, and an up-Lorenz model whose
# leaf span is a proper arc
@pytest.mark.parametrize("doc", [
    {"cloud": {"seed": 1}},
    {"cloud": {"seed": 2}},
    {"cloud": {"seed": 3}},
    {"cloud": {"samples": CLOUD_LANES - 1, "depth": 2, "burn_in": 3}},
    {"cloud": {"samples": CLOUD_LANES + 1, "depth": 2, "burn_in": 3}},
    {"cloud": {"samples": 3 * CLOUD_LANES - 5, "depth": 2, "burn_in": 3}},
    {"cloud": {"samples": 5000, "depth": 1, "burn_in": 0}},
    {"model": {"c_minus": 0.45, "theta2": 0.08}, "skew": {"eta1": 0.3},
     "cloud": {"width": 64, "height": 48}},
    {"model": {"alpha": 0.707, "beta": 0.3}, "cloud": {"samples": 1000, "burn_in": 400}},
])
def test_attractor2d_matches_whole_cloud_reference(doc, tmp_path):
    # the outputs as they were made: the whole cloud from the body
    # attractor_cloud had, its CSV in one pass, the raster through
    # render_pgm and the leaf span from one np.unique over every x
    from test_annulus import _leaf_span_unique, _whole_cloud
    cfg = load(doc)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli.main(["attractor2d", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path)]) == 0
    points, raster = _whole_cloud(build_skew(cli._model(cfg), **cfg["skew"]),
                                  **cfg["cloud"])
    want = {
        "cloud.csv": _csv_reference(["x", "y"], ["%.12g,%.12g"] * len(points),
                                    points.ravel().tolist()),
        "cloud.pgm": cli.render_pgm(raster),
        "attractor2d.json": cli._json_report({"leaf_span": _leaf_span_unique(points)},
                                             cfg),
    }
    for name, data in want.items():
        assert (tmp_path / name).read_bytes() == data, name
    if doc.get("model", {}).get("alpha") == 0.707:
        assert not json.loads(want["attractor2d.json"])["leaf_span"]["full"]


def test_cmd_degree(tmp_path):
    for family, det in [("rotation", 1), ("constant", 0), ("swapped", -1)]:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"degree": {"family": family}}))
        assert cli.main(["degree", "--config", str(cfgfile),
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "degree.json").read_text())
        assert payload["determinant"] == det
        assert payload["essential"] == (det == 1)


_DEGREE_SHIFTS = {
    "rotation": lambda m1, m2: (m1, m2),
    "constant": lambda m1, m2: (0.0, 0.0),
    "swapped": lambda m1, m2: (m2, m1),
}


@pytest.mark.parametrize("family", sorted(_DEGREE_SHIFTS))
def test_degree_family_gives_the_cusps_of_built_models(family, monkeypatch):
    # the family yields (norm1(alpha), norm1(beta)), the cusps build_model
    # gives, and validates the model once
    cfg = load(model={"alpha": 0.77, "beta": -1.21, "c_minus": 0.45},
               degree={"family": family})
    params = ModelParams(**cfg["model"])
    built = []
    monkeypatch.setattr(cli, "build_model", lambda p: built.append(p) or build_model(p))
    cusps = cli._degree_family(cfg)
    assert built == [params]
    for s in np.linspace(0.0, 1.0, 101).tolist():
        for m1, m2 in ((s, 0.0), (0.0, s)):
            da, db = _DEGREE_SHIFTS[family](m1, m2)
            m = build_model(params._replace(alpha=params.alpha + da, beta=params.beta + db))
            assert cusps(m1, m2) == (m.q1, m.q2)


# JSON values the validators must sort out: bools, null, NaN and +-Infinity,
# small numbers, strings (some of them valid letters or sides), lists and
# objects.  Integers stay small so that no example asks for unbounded work.
_scalars = st.one_of(
    st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, 40), st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
    st.text(max_size=6), st.sampled_from(["A0 B0", "B1 A1 A0", "A0 A0", "+", "-"]))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
# a known key mostly gets a value of roughly the right kind, so that many
# documents pass validation and reach the command
_field_values = st.one_of(
    st.floats(0.01, 0.99), st.floats(0.0, 0.19), st.integers(1, 12), st.sampled_from("+-"),
    st.lists(st.sampled_from(["A0", "A1", "B0", "B1"]), min_size=1, max_size=6).map(" ".join),
    _values)


_FIELDS = [(section, key) for section in sorted(cli.SCHEMA) for key in cli.SCHEMA[section]]
# the fields these commands read
_READ_FIELDS = [(s, k) for s, k in _FIELDS if s in ("model", "engine", "itinerary", "word")]
_SECTIONS = st.sampled_from(sorted(cli.SCHEMA) + ["bogus"])


@st.composite
def _config_docs(draw):
    """An object setting up to three SCHEMA fields or unknown keys; one
    document in sixteen is any JSON value, and one in sixteen also replaces
    a whole section with one."""
    shape = draw(st.integers(0, 15))
    if shape == 0:
        return draw(_values)
    doc = {}
    fields = st.one_of(st.sampled_from(_READ_FIELDS), st.sampled_from(_FIELDS),
                       st.tuples(_SECTIONS, st.text(max_size=4)))
    for section, key in draw(st.lists(fields, max_size=3)):
        doc.setdefault(section, {})[key] = draw(_field_values)
    if shape == 1:
        doc[draw(_SECTIONS)] = draw(_values)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_config_docs())
@example(doc={"model": {"c_minus": 0.2}})                     # ExpansionTooWeak
@example(doc={"model": {"alpha": 1e-9}, "word": {"letters": "B1 B1 A0"}})
def test_main_fuzzed_config_exits_with_documented_code(doc):
    # every command that reads these sections exits 0, 2, 3 or 4 on every
    # document; a failure prints one stderr line and no traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for command in ("classify", "itinerary", "kneading", "admissible", "realize"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
            assert code in (0, 2, 3, 4)
            if code:
                assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
