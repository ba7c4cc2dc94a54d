"""lorenzlab benchmark: CLI workloads run the way a user runs them.

Run from the repository root:

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

A workload is a list of parts (``perfbench/workloads.json``); a part is one
or more CLI commands on one generated JSON config.  Each invocation is a
fresh interpreter running ``perfbench/child.py``, which imports
``lorenzlab.cli`` from ``src/`` and calls its ``main`` for every command of
every part in turn, writing the real output files under ``out/<part>``.  An
untimed warm-up invocation compiles the bytecode first.  Invocations repeat
while another one fits in ``--seconds`` (warm-up included); every one is
spawned and reaped with ``os.wait4`` by launch.py, so CPU time and peak
memory include pool workers and never accumulate across invocations, and
every part of every one has its outputs checked against
``perfbench/reference/<part>.json`` (see check.py).

``--trace 0`` prints the end-to-end metrics: wall_s (launch until the last
output is written) and cpu_s (user plus system, workers included), each the
mean over the run's invocations; setup_s (launch until the first config is
loaded) and peak_rss_mb (largest process), each the median over
invocations.  The compute times are means because a shared host's speed
changes in phases of seconds to minutes, between about 1.0x and 2x the
unloaded time: the median then jumps between phases as the slow share of a
run crosses one half, and the fastest invocation jumps when a run catches no
fast phase, while the mean moves only in proportion to the slow share.
Failed runs over attempted runs is the ``failed``/``attempted`` pair of the
result line.  ``--trace 1`` alternates traced and untraced invocations of
the same config and prints the per-layer metrics from tracer.py;
trace.overhead_s is the traced minus the untraced wall_s.  ``--workload
all`` prints a table of the end-to-end metrics and fail_ratio for every
workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import check  # noqa: E402
from tracer import summarize  # noqa: E402

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 60.0


def _load(section: str) -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)[section]


def load_workloads() -> dict:
    return _load("workloads")


def load_parts() -> dict:
    return _load("parts")


def load_reference(part: str) -> dict:
    with open(BENCH / "reference" / f"{part}.json") as fh:
        return json.load(fh)


def _merge(base: dict, extra: dict) -> None:
    for section, fields in extra.items():
        base.setdefault(section, {}).update(fields)


def make_config(spec: dict, seed: int, trace: bool) -> dict:
    """The config the program sees; the seed reaches only the seeded keys."""
    config = copy.deepcopy(spec["config"])
    if trace:
        _merge(config, spec["trace_config"])
    for section, key in spec["seed_keys"]:
        config.setdefault(section, {})[key] = seed
    return config


def make_job(name: str, seed: int, trace: bool) -> list[tuple[str, list[str], dict]]:
    """The (part, commands, config) triples one invocation of a workload runs."""
    parts = load_parts()
    return [(part, parts[part]["commands"], make_config(parts[part], seed, trace))
            for part in load_workloads()[name]["parts"]]


class Workspace:
    """Scratch directory for one benchmark process, removed by ``close``."""

    def __init__(self, root: Path):
        self.dir = root / ".perfbench_work" / str(os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.src = root / "src"

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass

    def invoke(self, job: list[tuple[str, list[str], dict]], trace: bool) -> dict:
        """Launch one child session running every part of ``job`` in order, each
        with its own config and writing under ``out/<part>``; reap it and return
        its measurements."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        commands = []
        for part, part_commands, config in job:
            cfg = self.dir / f"config-{part}.json"
            cfg.write_text(json.dumps(config))
            commands += [[c, "--config", str(cfg), "--out", str(out / part)]
                         for c in part_commands]
        marks = self.dir / "marks.json"
        trace_path = self.dir / "trace.json"
        for stale in (marks, trace_path):
            stale.unlink(missing_ok=True)
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps({
            "commands": commands,
            "marks": str(marks),
            "trace": str(trace_path) if trace else None,
        }))
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = self.dir / "child.log"
        report = self.dir / "launch.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, "-S", str(BENCH / "launch.py"), str(report), str(log),
                sys.executable, str(BENCH / "child.py"), str(job_path)]
        # the launcher, the child and its pool workers share one process group
        pid = os.posix_spawn(sys.executable, argv, env, setsid=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (pid,))
        timer.start()
        try:
            _, status, _ = os.wait4(pid, 0)
        finally:
            timer.cancel()
        code = os.waitstatus_to_exitcode(status)
        if code == 0:  # the launcher exits 0 only after writing its report
            launch = json.loads(report.read_text())
            code = launch["exit_code"]
        if code != 0:
            _kill_group(pid)  # pool workers a crashed child left behind
        result = {"out": out, "ok": code == 0 and marks.exists(), "problems": []}
        if not result["ok"]:
            tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
            result["problems"].append(f"exit code {code}: {tail.strip()}")
            return result
        m = json.loads(marks.read_text())
        result["wall_s"] = m["end"] - launch["launched"]
        result["setup_s"] = m["config_loaded"] - launch["launched"]
        result["cpu_s"] = launch["cpu_s"]
        result["peak_rss_mb"] = launch["peak_rss_kb"] / 1024.0
        if trace:
            result["trace"] = json.loads(trace_path.read_text())
        return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _run_checked(ws: Workspace, name: str, job: list, trace: bool) -> dict:
    r = ws.invoke(job, trace)
    if r["ok"]:
        r["problems"] = [f"{part}: {p}" for part, _, config in job
                         for p in check(part, r["out"] / part, config, load_reference(part))]
        r["ok"] = not r["problems"]
    for p in r["problems"]:
        print(f"{name}: FAILED: {p}", file=sys.stderr)
    if r["ok"]:
        print(f"{name}{' traced' if trace else ''}: wall {r['wall_s']:.3f} s, "
              f"setup {r['setup_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return r


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result-line object."""
    job = make_job(name, seed, trace)
    ws = Workspace(root)
    deadline = time.monotonic() + seconds
    try:
        warm = _run_checked(ws, name, job, trace=False)
        runs: list[tuple[bool, dict]] = []
        lasted = {False: 0.0, True: 0.0}  # longest invocation so far, by tracing
        while True:
            traced = trace and len(runs) % 2 == 0
            if len(runs) >= (2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS) \
                    and time.monotonic() + lasted[traced] > deadline:
                break
            started = time.monotonic()
            r = _run_checked(ws, name, job, trace=traced)
            lasted[traced] = max(lasted[traced], time.monotonic() - started)
            if traced and r["ok"]:
                r["layers"] = summarize(r.pop("trace"))
                r["layers"]["cli.write.bytes"] = sum(
                    f.stat().st_size for f in r["out"].rglob("*") if f.is_file())
            runs.append((traced, r))
    finally:
        ws.close()

    good = [r for _, r in runs if r["ok"]]
    result = {"correct": warm["ok"] and len(good) == len(runs),
              "attempted": len(runs), "failed": len(runs) - len(good), "metrics": {}}
    metrics = result["metrics"]
    if not trace:
        if good:
            for key in ("wall_s", "cpu_s"):
                metrics[key] = statistics.fmean(r[key] for r in good)
            for key in ("setup_s", "peak_rss_mb"):
                metrics[key] = statistics.median(r[key] for r in good)
        return result

    layered = [r["layers"] for t, r in runs if t and r["ok"]]
    traced_wall = [r["wall_s"] for t, r in runs if t and r["ok"]]
    plain_wall = [r["wall_s"] for t, r in runs if not t and r["ok"]]
    if not layered or not plain_wall:
        result["correct"] = False
        return result
    for key in layered[0]:
        values = [layer[key] for layer in layered]
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(values)
            continue
        metrics[key] = values[0]
        if any(v != values[0] for v in values):
            print(f"{name}: FAILED: {key} differs between traced runs: {values}",
                  file=sys.stderr)
            result["correct"] = False
    metrics["trace.overhead_s"] = statistics.fmean(traced_wall) - statistics.fmean(plain_wall)
    return result


def _units(bench: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lorenzlab" / "cli.py").is_file():
        print(f"no lorenzlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.seed < 0:
        print("--seed must be a nonnegative integer", file=sys.stderr)
        return 2
    workloads = load_workloads()

    if args.workload == "all":
        units = _units(bench, trace=False)
        print(f"{'workload':<10} {'metric':<12} {'value':>12}  unit")
        for name in workloads:
            res = measure(root, name, args.seed, seconds, trace=False)
            rows = [(k, res["metrics"].get(k, float("nan")), u) for k, u in units.items()]
            rows.append(("fail_ratio", res["failed"] / res["attempted"], "1"))
            for key, value, unit in rows:
                print(f"{name:<10} {key:<12} {value:>12.6g}  {unit}")
        return 0

    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    res = measure(root, args.workload, args.seed, seconds, trace)
    units = _units(bench, trace)
    missing = [k for k in units if k not in res["metrics"]]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        res["correct"] = False
    res["metrics"] = {k: {"value": res["metrics"][k], "unit": u}
                      for k, u in units.items() if k in res["metrics"]}
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
