"""Tests of the repository benchmark (perfbench/run.py).

    python3 -m unittest discover -s perfbench/tests -v

Short-mode runs (one cycle per pass) of every workload, untraced and
traced, must print every metric BENCHMARK.json names with its unit; the
exact fields must repeat for a seed and change with it; the stream must be
stationary; and a directory without the library must fail cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Fields that are pure functions of (workload, seed): modeled ticks and
# counts.  Everything timed is excluded.
EXACT_E2E = ["modeled_p50_us", "modeled_p95_us"]
EXACT_LAYER = ["gpma.moved_per_update", "gpma.resized_per_update",
               "gpma.update_ticks", "wbm.match_ticks", "wbm.warp_util",
               "wbm.steals_per_task", "wbm.coalesced_share", "wbm.global_tx",
               "wbm.matches", "gpusim.launches", "multi.tasks_per_launch",
               "csm.raw_per_net_match"]

_cache = {}


def run(workload, seed, trace, short=True, seconds=1):
    """Runs the benchmark once; returns (stdout lines, parsed JSON)."""
    key = (workload, seed, trace, short, seconds)
    if key not in _cache:
        cmd = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if short:
            cmd.append("--short")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        if out.returncode != 0:
            raise AssertionError(f"{cmd} exited {out.returncode}:\n"
                                 f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
        lines = out.stdout.strip().splitlines()
        _cache[key] = (lines, json.loads(lines[-1]))
    return _cache[key]


def line_field(lines, prefix, field):
    for line in lines:
        if line.startswith(prefix + " "):
            for tok in line.split():
                if tok.startswith(field + "="):
                    return tok.split("=", 1)[1]
    raise AssertionError(f"no {prefix} line with {field}")


class ShortRunsTest(unittest.TestCase):
    def check_metrics(self, lines, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            human = [l for l in lines
                     if l.startswith(f"metric {m['name']} ")]
            self.assertEqual(len(human), 1, m["name"])
            self.assertIn(f"unit={m['unit']} ", human[0])
            self.assertIn("samples=", human[0])

    def test_every_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                lines, result = run(w, 1, 0)
                self.check_metrics(lines, result, BENCH["end_to_end"])
                for field in ("git", "nproc", "hardware_concurrency",
                              "build"):
                    line_field(lines, "provenance", field)
                self.assertEqual(line_field(lines, "check",
                                            "mismatched_pairs"), "0")
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=w, trace=1):
                lines, result = run(w, 1, 1)
                self.check_metrics(lines, result, BENCH["per_layer"])
                self.assertEqual(line_field(lines, "replay",
                                            "fidelity_failures"), "0")
                spans = os.path.join(ROOT, ".bench_build",
                                     f"spans-{w}.tsv")
                with open(spans) as f:
                    header = f.readline()
                self.assertTrue(header.startswith("engine\tindex\tname"))


class DeterminismTest(unittest.TestCase):
    def test_exact_fields_repeat_for_a_seed_and_change_with_it(self):
        for w in ("match-heavy", "multi-query"):
            with self.subTest(workload=w):
                a_lines, a = run(w, 5, 0)
                b_lines, b = run(w, 5, 0, seconds=2)
                c_lines, c = run(w, 6, 0)
                for m in EXACT_E2E:
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)
                # Best-of-N timing uses the same N however long the run.
                self.assertEqual(line_field(a_lines, "check", "timed_passes"),
                                 line_field(b_lines, "check", "timed_passes"))
                totals = [line_field(x, "check", "raw_matches")
                          for x in (a_lines, b_lines, c_lines)]
                self.assertEqual(totals[0], totals[1])
                self.assertNotEqual(totals[0], totals[2])
                self.assertNotEqual(a["metrics"]["modeled_p50_us"],
                                    c["metrics"]["modeled_p50_us"])

                _, ta = run(w, 5, 1)
                _, tb = run(w, 5, 1, seconds=2)
                _, tc = run(w, 6, 1)
                for m in EXACT_LAYER:
                    self.assertEqual(ta["metrics"][m], tb["metrics"][m], m)
                self.assertNotEqual(ta["metrics"]["wbm.matches"],
                                    tc["metrics"]["wbm.matches"])


class StationarityTest(unittest.TestCase):
    def test_halves_of_the_stream_cost_the_same(self):
        bound = next(m["bound"] for m in BENCH["end_to_end"]
                     if m["name"] == "batch_p50_ms")
        lines, _ = run("multi-query", 1, 0, short=False)
        change = float(line_field(lines, "stationarity", "relative_change"))
        self.assertLess(abs(change), bound)
        self.assertEqual(line_field(lines, "stationarity", "max_drift_ops"),
                         str(8 * 200))


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "match-heavy", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
