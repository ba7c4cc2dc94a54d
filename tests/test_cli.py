import contextlib
import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorenzlab import atlas, cli
from lorenzlab.annulus import attractor_cloud, build_skew
from lorenzlab.errors import (
    KneadingRecursionViolated,
    NotMarkov,
    ParseError,
    TrackingLost,
    ValidationError,
)
from lorenzlab.maps import ModelParams, build_model


def load(doc=None, **sections):
    cfg = dict(doc or {})
    cfg.update(sections)
    return cli.load_config(json.dumps(cfg))


def test_defaults_filled():
    cfg = load()
    assert cfg["model"]["theta1"] == 0.15
    assert cfg["model"]["theta2"] == 0.0
    assert cfg["skew"]["kappa"] == 0.2
    assert cfg["model"]["lambda_min_required"] == pytest.approx(1.6180339887, abs=1e-9)
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


def test_sweep_corners():
    cfg = load(sweep={"grid_nx": 2, "grid_ny": 2,
                      "alpha_range": [0.25, 0.707], "beta_range": [0.3, 0.75]})
    strata, margins, csv_bytes, ppm = cli.run_sweep(cfg)
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
    *_, csv1, ppm1 = cli.run_sweep(load(sweep=spec))
    *_, csv2, ppm2 = cli.run_sweep(load(sweep=spec))
    assert csv1 == csv2 and ppm1 == ppm2
    *_, csv3, ppm3 = cli.run_sweep(load(sweep={**spec, "workers": 2}))
    assert csv3 == csv1 and ppm3 == ppm1


def test_sweep_rows_obey_verdict_table():
    cfg = load(sweep={"grid_nx": 16, "grid_ny": 16})
    *_, csv_bytes, _ = cli.run_sweep(cfg)
    rows = _sweep_rows(csv_bytes)
    assert len(rows) == 256
    for r in rows:
        assert atlas.STRATUM_DYNAMICS[r["stratum"]] == r["dynamics"]


def test_sweep_degenerate_band():
    cfg = load(model={"theta1": 0.0, "theta2": 0.0},
               sweep={"grid_nx": 9, "grid_ny": 9,
                      "alpha_range": [0.3, 0.7], "beta_range": [0.3, 0.7]})
    *_, csv_bytes, _ = cli.run_sweep(cfg)
    # both fixed points exist on the diagonal only where alpha > 1/2
    on_diag = [r for r in _sweep_rows(csv_bytes)
               if abs(float(r["alpha"]) + float(r["beta"]) - 1.0) < 1e-9
               and float(r["alpha"]) > 0.5]
    assert on_diag and all(r["stratum"] == atlas.DEGENERATE for r in on_diag)


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
    strata, margins, _, _ = atlas.classify_grid(params, alphas,
                                                np.array(betas)[:, None])
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
    *_, csv_bytes, ppm = cli.run_sweep(cfg)
    want_csv, want_ppm = _row_wise_sweep(cfg)
    assert csv_bytes == want_csv
    assert ppm == want_ppm


def _csv_reference(header, lines, values):
    """The CSV emitter before row blocks: one %-fill of the whole table,
    from one template line per row and all cells in one flat sequence."""
    body = "\n".join(lines) % tuple(values)
    return f"{','.join(header)}\n{body}\n".encode()


def _emitter_inputs(kind, n, rng):
    """An n-row table shaped as one CLI output's: the header, then the
    (lines, columns) that ``_csv`` takes and the (lines, values) that the
    callers gave ``_csv_reference``."""
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-30, 30, (n, 2))
    if kind == "sweep":
        row = [f"{a:.12g},%s,%s,%.12g,{math.pi:.12g}" for a in rng.uniform(size=7)]
        betas = np.array([f"{b:.12g}" for b in rng.uniform(size=n)], dtype=object)
        classes = np.array([f"{label},{atlas.STRATUM_DYNAMICS[label]}"
                            for label in atlas.STRATA], dtype=object)
        cells = classes[rng.integers(0, len(classes), n)]
        values = [v for k in range(n) for v in (betas[k], cells[k], x[k, 0])]
        return (["alpha", "beta", "stratum", "dynamics", "margin", "lambda_min"],
                row, [betas, cells, x[:, 0]], (row * n)[:n], values)
    if kind == "path":
        full = rng.integers(0, 2, n).astype(bool).tolist()
        rows = [[k, a, b, atlas.STRATA[k % len(atlas.STRATA)], length, f,
                 "" if f else m]
                for k, (a, b, length, m, f) in enumerate(zip(
                    *x.T.tolist(), *rng.uniform(size=(2, n)).tolist(), full))]
        lines = ["%d,%.12g,%.12g,%s,%.12g,%d," + ("%s" if f else "%.12g") for f in full]
        return (["step", "alpha", "beta", "stratum", "span_length", "span_full",
                 "trap_margin"], lines, list(zip(*rows)), lines,
                [v for row in rows for v in row])
    if kind == "histogram":
        edges = np.sort(rng.uniform(size=n + 1))
        rows = [[i, edges[i], edges[i + 1], int(c)]
                for i, c in enumerate(rng.integers(0, 10**9, n))]
        return (["bin", "lo", "hi", "count"], ["%d,%.12g,%.12g,%d"],
                list(zip(*rows)), ["%d,%.12g,%.12g,%d"] * n,
                [v for row in rows for v in row])
    if kind == "conjugacy_pairs":
        pairs = [tuple(p) for p in x.tolist()]
        return (["x", "h_x"], ["%.12g,%.12g"], list(zip(*pairs)),
                ["%.12g,%.12g"] * n, [v for pair in pairs for v in pair])
    return (["x", "y"], ["%.12g,%.12g"], [x[:, 0], x[:, 1]],
            ["%.12g,%.12g"] * n, x.ravel().tolist())


_B = cli.CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("kind", ["sweep", "path", "histogram", "conjugacy_pairs",
                                  "cloud"])
def test_csv_blocks_match_one_pass_reference(kind, rows):
    header, lines, columns, ref_lines, ref_values = _emitter_inputs(
        kind, rows, np.random.default_rng(rows))
    got = cli._csv(header, lines, columns)
    assert got == _csv_reference(header, ref_lines, ref_values)
    assert got.count(b"\n") == rows + 1


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


def test_csv_emission_holds_a_table_about_once():
    # whole-table formatting held every cell, their tuple, the text and its
    # bytes at once: 4.1x the CSV length on this sweep and 5.7x on the
    # 48,000-point cloud.  Row blocks measure 1.77x and 2.52x, so the bounds
    # leave 13% and 39% headroom; whole-table formatting fails both
    cfg = load(sweep={"grid_nx": 256, "grid_ny": 256})
    cli.run_sweep(cfg)              # first-call imports and caches are not the emitter's
    (*_, csv_bytes, _), peak = _python_peak(lambda: cli.run_sweep(cfg))
    assert peak <= 2.0 * len(csv_bytes)

    cfg = load(cloud={"samples": 4000})
    cli.cmd_attractor2d(cfg)
    outputs, peak = _python_peak(lambda: cli.cmd_attractor2d(cfg))
    assert outputs["cloud.csv"].count(b"\n") == 48_001
    assert peak <= 3.5 * len(outputs["cloud.csv"])


def test_attractor_cloud_holds_no_float_image():
    # counting hits in an int64 raster with np.add.at and scaling it through
    # a float64 image, with the points copied into a new (n, 2) array, peaked
    # at 3.78x the default cloud.csv; bincount, the shade table and the
    # points as a view of the orbit buffer measure 2.55x, so the bound leaves
    # 18% headroom
    cfg = load()
    csv_length = len(cli.cmd_attractor2d(cfg)["cloud.csv"])
    skew = build_skew(cli._model(cfg), **cfg["skew"])
    _, peak = _python_peak(lambda: attractor_cloud(skew, **cfg["cloud"]))
    assert peak <= 3.0 * csv_length


def test_path_collision_detector_fires_once():
    cfg = load(model={"theta1": 0.19},
               path={"start": [0.77, 0.22], "end": [0.79, 0.22], "steps": 21})
    rows, csv_bytes, report = cli.run_path(cfg)
    assert report["jump_count"] == 1
    assert report["first_jump_step"] == 10
    header = csv_bytes.decode().splitlines()[0]
    assert header == "step,alpha,beta,stratum,span_length,span_full,trap_margin"
    # trapping margin defined exactly on the down-Lorenz steps
    for r in rows:
        if r[3] == atlas.O_PP_LMINUS:
            assert isinstance(r[6], float) and r[6] > 0
        else:
            assert r[6] == ""


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
    assert csv1 == csv2


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
        def uniform(self, lo, hi):
            return 1.0 - 5e-10

    orbits = []
    histogram = np.histogram

    def recording_histogram(a, **kw):
        orbits.append(a.copy())
        return histogram(a, **kw)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Start())
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
    ("classify", None, 2),                                     # missing file
    ("classify", b"\xff\xfe{}", 2),                           # not UTF-8
    ("classify --out cfg.json/sub", "{}", 2),                  # --out under a file
    # sizes whose first array cannot be allocated
    ("histogram", '{"histogram": {"orbit_length": 1000000000000000}}', 4),
    ("histogram", '{"histogram": {"burn_in": 1000000000000000}}', 4),
    ("attractor2d", '{"cloud": {"samples": 1000000000000000}}', 4),
    # integers above 2**53 - 1, and a raster of more cells than that
    ("histogram", '{"histogram": {"orbit_length": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"samples": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"width": 100000000000000000000}}', 2),
    ("attractor2d", '{"cloud": {"width": 1000000000000, "height": 1000000000000}}', 2),
    ("conjugacy", '{"conjugacy": {"grid": 100000000000000000000}}', 2),
    ("verify", '{"eigenvalues": {"N": 100000000000000000000}}', 2),
    ("sweep", '{"sweep": {"grid_nx": 100000000000000000000}}', 2),
    # within the cap, but too large to allocate: one array up front, no loop
    ("verify", '{"eigenvalues": {"N": 9007199254740991}}', 4),   # bare MemoryError
    ("sweep", '{"sweep": {"grid_nx": 1000000000000000}}', 4),
    ("path", '{"path": {"steps": 1000000000000000}}', 4),
    # a cusp word the shoot matches to depth 60 whose cylinder realize cannot
    # resolve past depth 36
    pytest.param("conjugacy", _PAST_RESOLUTION, 3, id="conjugacy-match_depth-60-3"),
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


def test_main_conjugacy_past_resolution_names_match_depth(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_PAST_RESOLUTION)
    assert cli.main(["conjugacy", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "conjugacy.match_depth" in err and "shoot" in err


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


def test_main_expansion_failure_message_is_short(tmp_path, capsys):
    # a huge but valid lambda_min_required fails the expansion check; the
    # message gives it to 6 significant digits, not its 309 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"lambda_min_required": 1e308}}')
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120
    assert "1e+308" in err


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


def test_cmd_degree(tmp_path):
    for family, det in [("rotation", 1), ("constant", 0), ("swapped", -1)]:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"degree": {"family": family}}))
        assert cli.main(["degree", "--config", str(cfgfile),
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "degree.json").read_text())
        assert payload["determinant"] == det
        assert payload["essential"] == (det == 1)


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
