"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py) so the tier-1 run stays fast; it takes about 30 s on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (sets the thread variables before numpy loads)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
EXACT_COUNTS = (
    "estimation.mad_objective.calls.base",
    "estimation.mad_objective.calls.upper",
    "estimation.mad_objective.calls.lower",
    "tail_model.adjusted_quantile.calls",
    "tail_model.cdf_per_quantile",
    "claim_process.thinned_cdf_closed.calls_per_draw",
)


def tiny(name: str, seed: int = 7):
    wl = workloads.WORKLOADS[name](seed, WORK / f"{name}-{seed}", tiny=True)
    wl.setup()
    return wl


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workload_names = [w["name"] for w in spec["workloads"]]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual(sorted(self.workload_names), sorted(workloads.WORKLOADS))
        for name in self.workload_names:
            with self.subTest(workload=name):
                plain, _ = run.measure(tiny(name), 0.0)
                metrics, _ = run.end_to_end(plain, [1.0, 2.0, 3.0])
                self.assertEqual({k: u for k, (_, u) in metrics.items()}, self.e2e)
                self.assertEqual(run.tally(plain), (sum(j["ops"] for j in plain), 0))

                counts = []
                for _ in range(2):
                    wl, tracer = tiny(name), tracing.Tracer()
                    plain, traced = run.measure(wl, 0.0, tracer)
                    metrics = run.per_layer(wl, tracer, plain, traced)
                    self.assertEqual({k: u for k, (_, u) in metrics.items()}, self.layer)
                    self.assertEqual(run.tally(plain + traced)[1], 0)
                    counts.append({k: metrics[k][0] for k in EXACT_COUNTS})
                self.assertEqual(counts[0], counts[1], "exact counts differ between traced runs")

    def test_corrupted_output_is_a_failure(self):
        wl = tiny("pipeline_fit")
        prepare = wl.prepare

        def corrupting_prepare(index):
            ops = prepare(index)
            for op in ops:
                def corrupt_then_check(op=op, check=op.check):
                    path = op.out / "fit_report.json"
                    report = json.loads(path.read_text())
                    report["base_fit"]["theta"]["gamma"] = 1.6
                    path.write_text(json.dumps(report))
                    return check()
                op.check = corrupt_then_check
            return ops

        wl.prepare = corrupting_prepare
        attempted, failed = run.tally([run.run_job(wl, 1)])
        self.assertGreater(failed / attempted, 0.0)

    def test_tracer_restores_every_rebound_name(self):
        def snapshot():
            return {(name, attr): value for name, mod in sys.modules.items()
                    if name == "claimtails" or name.startswith("claimtails.")
                    for attr, value in vars(mod).items() if callable(value)}

        import claimtails.cli
        import claimtails.estimation
        import claimtails.gof
        import claimtails.tail_model

        before = snapshot()
        tracer = tracing.Tracer()
        with self.assertRaises(RuntimeError):
            with tracer.installed():
                for mod, attr in ((claimtails.tail_model, "survival"), (claimtails.estimation, "cdf"),
                                  (claimtails.gof, "adjusted_quantile"), (claimtails.cli, "adjusted_cdf")):
                    self.assertIsNot(getattr(mod, attr), before[(mod.__name__, attr)])
                raise RuntimeError("leave the traced region by an error")
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_exits_nonzero_without_the_program(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "pipeline_fit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
