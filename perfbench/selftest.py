"""Tests of the benchmark itself: the reference check, the tracer and the
agreement of BENCHMARK.json with workloads.json.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from run import BENCH, Workspace, load_parts, load_reference, load_workloads, make_config
from check import _compare, check
import tracer

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def _bench_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class ReferenceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = load_parts()["atlas"]
        cls.config = config = make_config(spec, seed=1, trace=False)
        cls.reference = load_reference("atlas")
        cls.ws = Workspace(ROOT)
        r = cls.ws.invoke([("atlas", spec["commands"], config)], trace=False)
        assert r["ok"], r["problems"]
        cls.clean = r["out"] / "atlas"

    @classmethod
    def tearDownClass(cls):
        cls.ws.close()

    def setUp(self):
        self.out = Path(tempfile.mkdtemp(dir=self.ws.dir))
        shutil.copytree(self.clean, self.out, dirs_exist_ok=True)

    def problems(self):
        return check("atlas", self.out, self.config, self.reference)

    def test_clean_outputs_pass(self):
        self.assertEqual(self.problems(), [])

    def test_flipped_stratum_fails(self):
        path = self.out / "sweep.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[2] = "O--" if fields[2] != "O--" else "O+-"
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        problems = self.problems()
        self.assertTrue(any(p.startswith("sweep.classes") for p in problems), problems)

    def test_missing_file_fails(self):
        (self.out / "sweep.ppm").unlink()
        self.assertEqual(self.problems(), ["missing output sweep.ppm"])

    def test_shifted_margin_fails(self):
        path = self.out / "sweep.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[4] = repr(float(fields[4]) + 1e-6)
        lines[5] = ",".join(fields)
        path.write_text("".join(lines))
        problems = self.problems()
        self.assertTrue(any(p.startswith("sweep.margin[4]") for p in problems), problems)


class Rules(unittest.TestCase):
    def test_trap_margin_sign(self):
        want = [5e-4, None]
        self.assertIsNone(_compare("m", "sign", [1e-6, None], want))
        self.assertIsNotNone(_compare("m", "sign", [-1.0, None], want))
        self.assertIsNotNone(_compare("m", "sign", [None, None], want))
        self.assertIsNotNone(_compare("m", "sign", [5e-4, 1e-3], want))

    def test_total_variation(self):
        self.assertIsNone(_compare("h", ("tv", 0.02), [0.5, 0.5], [0.51, 0.49]))
        self.assertIsNotNone(_compare("h", ("tv", 0.02), [0.5, 0.5], [0.6, 0.4]))

    def test_nan_is_never_within_tolerance(self):
        self.assertIsNotNone(_compare("x", ("abs", 1.0), float("nan"), 0.0))


class TracerTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        trace = {
            "names": ["symbolic.shoot_matched_model", "maps.build_model", "atlas.classify"],
            "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 3.0, 0], [2, 4.0, 8.0, 0],
                      [1, 5.0, 6.0, 2], [1, 11.0, 12.0, -1]],
            "counters": {},
        }
        out = tracer.summarize(trace)
        self.assertAlmostEqual(out["symbolic.shoot_matched_model.self_s"], 4.0)
        self.assertAlmostEqual(out["atlas.classify.self_s"], 3.0)
        self.assertAlmostEqual(out["maps.build_model.self_s"], 4.0)
        self.assertEqual(out["maps.build_model.calls"], 3)
        # two of the three builds ran inside the one shooting search
        self.assertEqual(out["symbolic.shoot_matched_model.builds_per_match"], 2.0)

    def test_install_wraps_every_binding(self):
        from lorenzlab import atlas, cli, maps, symbolic
        from lorenzlab.maps import ModelParams
        t = tracer.Tracer()
        t.install()
        self.assertIs(cli.classify, atlas.classify)
        self.assertIs(atlas.fixed_points, maps.fixed_points)
        self.assertIs(symbolic._bisect_lift, maps._bisect_lift)
        self.assertIs(symbolic.eval_signed, maps.eval_signed)
        config = cli.load_config(json.dumps({"sweep": {"grid_nx": 2, "grid_ny": 3}}))
        cli.run_sweep(config)
        maps.build_model(ModelParams(alpha=0.6, beta=0.3))
        out = tracer.summarize(json.loads(json.dumps(
            {"names": t.names, "spans": t.spans, "counters": t.counters})))
        self.assertEqual(out["maps.build_model.calls"], 7)
        self.assertEqual(out["atlas.classify.calls"], 6)
        self.assertEqual(out["cli.run_sweep.calls"], 1)


class Description(unittest.TestCase):
    def test_workloads_match(self):
        bench = _bench_json()
        workloads = load_workloads()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads))
        for w in bench["workloads"]:
            self.assertEqual(w["why"], workloads[w["name"]]["why"])
        parts = load_parts()
        for spec in workloads.values():
            for part in spec["parts"]:
                self.assertIn(part, parts)
                self.assertTrue((BENCH / "reference" / f"{part}.json").is_file(), part)

    def test_every_per_layer_metric_is_produced(self):
        names = [name for _, _, kind, name in tracer.TARGETS if kind == "span"]
        counts = [name + ".calls" for _, _, kind, name in tracer.TARGETS if kind == "count"]
        produced = set(tracer.summarize(
            {"names": names, "spans": [], "counters": tracer.Tracer().counters}))
        produced |= set(counts) | {"cli.write.bytes", "trace.overhead_s"}
        missing = [m["name"] for m in _bench_json()["per_layer"] if m["name"] not in produced]
        self.assertEqual(missing, [])


class EntryPoint(unittest.TestCase):
    def test_fails_without_the_program(self):
        work = Path(tempfile.mkdtemp(dir=ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", work)
            shutil.copytree(BENCH, work / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = _bench_json()["command"] + ["--workload", "atlas", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"]
            r = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout, "")
        finally:
            shutil.rmtree(work)


if __name__ == "__main__":
    unittest.main()
