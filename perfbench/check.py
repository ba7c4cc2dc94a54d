"""Reference check of the files one part of a workload wrote.

``snapshot`` reduces a part's output directory to the facts the benchmark
pins; ``check`` compares those facts with the reference kept in
``perfbench/reference/<part>.json`` under one rule per fact:

- ``exact``: discrete results (strata, dynamics, the PPM digest, jump
  steps, pair counts, ``monotone``, the degree matrix, hypothesis flags);
- ``("abs", tol)``: floats, element by element for lists;
- ``sign``: ``trap_margin`` must be positive where the reference has one
  and empty where it has none, since exact certificates will change its
  value on purpose;
- ``("tv", tol)``: total-variation distance between two distributions.

Seeded outputs (the histogram and the attractor cloud) are reduced to facts
that do not depend on the seed, so one reference serves every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HIST_COARSE_BINS = 32

RULES = {
    "atlas": {
        "sweep.rows": "exact",
        "sweep.classes": "exact",
        "sweep.margin": ("abs", 1e-9),
        "sweep.lambda_min": ("abs", 1e-12),
        "sweep.grid_error": ("abs", 1e-12),
        "sweep.ppm_sha256": "exact",
    },
    "collision": {
        "path.rows": "exact",
        "path.strata": "exact",
        "path.span_full": "exact",
        "path.span_length": ("abs", 1e-6),
        "path.trap_margin": "sign",
        "path.grid_error": ("abs", 1e-12),
        "report.jump_steps": "exact",
        "report.first_jump_step": "exact",
        "report.jump_count": "exact",
    },
    "conjugacy": {
        "conjugacy.pairs": "exact",
        "conjugacy.monotone": "exact",
        "conjugacy.other_theta1": "exact",
        "conjugacy.other_alpha": ("abs", 1e-9),
        "conjugacy.other_beta": ("abs", 1e-9),
        "conjugacy.defect": ("abs", 1e-9),
        "conjugacy.interp_defect": ("abs", 1e-6),
        "pairs.rows": "exact",
        "pairs.x": ("abs", 1e-12),
        "pairs.h_x": ("abs", 1e-9),
    },
    "skew": {
        "verify.hypotheses": "exact",
        "verify.lambda": ("abs", 1e-12),
        "verify.cones_ok": "exact",
        "verify.cones": ("abs", 1e-9),
        "verify.singularity": "exact",
        "degree": "exact",
        "attractor2d.leaf_span_full": "exact",
        "cloud.pgm_header": "exact",
        "cloud.pgm_bytes": "exact",
        "cloud.pgm_max": "exact",
        "cloud.rows": "exact",
        "cloud.in_annulus": "exact",
        "histogram.rows": "exact",
        "histogram.total": "exact",
        "histogram.coarse": ("tv", 0.02),
    },
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _runs(values) -> list[list]:
    """Run-length encoding: [[value, count], ...]."""
    out: list[list] = []
    for v in values:
        if out and out[-1][0] == v:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return out


def _grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _atlas(out: Path, config: dict) -> dict:
    rows = _rows(out / "sweep.csv")
    sw = config["sweep"]
    alphas = _grid(*sw["alpha_range"], sw["grid_nx"])
    betas = _grid(*sw["beta_range"], sw["grid_ny"])
    expected = [(a, b) for b in betas for a in alphas]
    return {
        "sweep.rows": len(rows),
        "sweep.classes": _runs(f"{r['stratum']} {r['dynamics']}" for r in rows),
        "sweep.margin": [float(r["margin"]) for r in rows],
        "sweep.lambda_min": sorted({float(r["lambda_min"]) for r in rows}),
        "sweep.grid_error": max(
            max(abs(float(r["alpha"]) - a), abs(float(r["beta"]) - b))
            for r, (a, b) in zip(rows, expected)),
        "sweep.ppm_sha256": hashlib.sha256(
            (out / "sweep.ppm").read_bytes()).hexdigest(),
    }


def _collision(out: Path, config: dict) -> dict:
    rows = _rows(out / "path.csv")
    report = _json(out / "path_report.json")
    pt = config["path"]
    n = pt["steps"]
    (a0, b0), (a1, b1) = pt["start"], pt["end"]
    return {
        "path.rows": len(rows),
        "path.strata": _runs(r["stratum"] for r in rows),
        "path.span_full": _runs(r["span_full"] for r in rows),
        "path.span_length": [float(r["span_length"]) for r in rows],
        "path.trap_margin": [float(r["trap_margin"]) if r["trap_margin"] else None
                             for r in rows],
        "path.grid_error": max(
            max(abs(float(r["alpha"]) - (a0 + (a1 - a0) * k / (n - 1))),
                abs(float(r["beta"]) - (b0 + (b1 - b0) * k / (n - 1))))
            for k, r in enumerate(rows)),
        "report.jump_steps": report["jump_steps"],
        "report.first_jump_step": report["first_jump_step"],
        "report.jump_count": report["jump_count"],
    }


def _conjugacy(out: Path, config: dict) -> dict:
    rep = _json(out / "conjugacy.json")
    pairs = _rows(out / "conjugacy_pairs.csv")
    facts = {"conjugacy." + k: rep[k] for k in (
        "pairs", "monotone", "other_theta1", "other_alpha", "other_beta",
        "defect", "interp_defect")}
    facts["pairs.rows"] = len(pairs)
    facts["pairs.x"] = [float(r["x"]) for r in pairs]
    facts["pairs.h_x"] = [float(r["h_x"]) for r in pairs]
    return facts


def _skew(out: Path, config: dict) -> dict:
    ver = _json(out / "verify.json")
    hyp = ver["hypotheses"]
    cones = ver["cones"]
    deg = _json(out / "degree.json")
    span = _json(out / "attractor2d.json")["leaf_span"]
    pgm = (out / "cloud.pgm").read_bytes()
    header_end = 0
    for _ in range(3):
        header_end = pgm.index(b"\n", header_end) + 1
    cloud = _rows(out / "cloud.csv")
    hist = _rows(out / "histogram.csv")
    counts = [int(r["count"]) for r in hist]
    total = sum(counts)
    per = len(counts) // HIST_COARSE_BINS
    coarse = [sum(counts[i * per:(i + 1) * per]) / total
              for i in range(HIST_COARSE_BINS)] if total else []
    return {
        "verify.hypotheses": {k: hyp[k] for k in (
            "wrap_ok", "monotone_ok", "expansion_ok", "pinch_ok", "all_ok",
            "failures")},
        "verify.lambda": [hyp["lambda_min"], hyp["lambda_required"]],
        "verify.cones_ok": cones["all_ok"],
        "verify.cones": [cones[k] for k in (
            "analytic_bound", "worst_cone_factor", "min_expansion",
            "worst_product")],
        "verify.singularity": ver["singularity"],
        "degree": {k: deg[k] for k in ("matrix", "determinant", "essential")},
        "attractor2d.leaf_span_full": span["full"],
        "cloud.pgm_header": pgm[:header_end].decode("ascii"),
        "cloud.pgm_bytes": len(pgm),
        "cloud.pgm_max": max(pgm[header_end:]),
        "cloud.rows": len(cloud),
        "cloud.in_annulus": all(0.0 <= float(r["x"]) < 1.0 and abs(float(r["y"])) <= 1.0
                                for r in cloud),
        "histogram.rows": len(hist),
        "histogram.total": total,
        "histogram.coarse": coarse,
    }


SNAPSHOTS = {"atlas": _atlas, "collision": _collision,
             "conjugacy": _conjugacy, "skew": _skew}


def snapshot(part: str, out: Path, config: dict) -> dict:
    """The pinned facts of one part's outputs; raises when a file is missing."""
    return SNAPSHOTS[part](Path(out), config)


def _compare(key, rule, got, want) -> str | None:
    if rule == "exact":
        return None if got == want else f"{key}: expected {want!r}, got {got!r}"
    if rule == "sign":
        if len(got) != len(want):
            return f"{key}: expected {len(want)} values, got {len(got)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if (w is None) != (g is None) or (g is not None and g <= 0.0):
                return f"{key}[{i}]: expected {'empty' if w is None else 'positive'}, got {g!r}"
        return None
    kind, tol = rule
    if kind == "tv":
        if len(got) != len(want):
            return f"{key}: expected {len(want)} bins, got {len(got)}"
        tv = 0.5 * sum(abs(g - w) for g, w in zip(got, want))
        return None if tv <= tol else f"{key}: total variation {tv:.4g} > {tol}"
    if not isinstance(want, list):
        got, want = [got], [want]
    if len(got) != len(want):
        return f"{key}: expected {len(want)} values, got {len(got)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= tol:
            return f"{key}[{i}]: {g!r} differs from {w!r} by more than {tol}"
    return None


def check(part: str, out: Path, config: dict, reference: dict) -> list[str]:
    """Problems found in a part's outputs; an empty list means it passed."""
    try:
        facts = snapshot(part, out, config)
    except FileNotFoundError as exc:
        return [f"missing output {Path(exc.filename).name}"]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    problems = []
    for key, rule in RULES[part].items():
        if key not in reference:
            problems.append(f"{key}: no reference value")
            continue
        problem = _compare(key, rule, facts[key], reference[key])
        if problem:
            problems.append(problem)
    return problems
