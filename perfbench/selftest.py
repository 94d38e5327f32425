"""Self-tests of the benchmark on a tiny network (a few seconds).

Run from the repository root:

    python3 perfbench/selftest.py
"""

import copy
import csv
import json
import shutil
import sys
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import ROOT as TRACE_ROOT  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

TINY = {
    "name": "tiny",
    "why": "self-test",
    "start": "2018-01-25T00:00:00Z",
    "duration_hours": 900,
    "references": 2,
    "sensors_per_reference": 2,
    "truth": {"baseline": 30.0, "amplitude": 10.0, "phase_hours": 9.0,
              "regional_weight": 1.0, "noise_sigma": 1.0},
    "sensor_noise_sigma": 1.0,
    "regional": {"sigma": 0.5, "bound": 6.0},
    "reference_noise_sigma": 0.5,
    "fault_cycle": [
        {"mode": "gain_ramp", "start_hour": 48, "end_hour": 240, "target": 2.0},
        None,
    ],
    "outages": {"fraction": 0.05, "min_hours": 3, "max_hours": 12},
    "proxy": {"strategy": "network_median", "median_min_reporters": 3,
              "median_exclude_self": False},
    "stream_hours": 300,
}
SEED = 5


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def new_bench(tag: str) -> run.Bench:
    work = ROOT / ".perfbench_work" / f"selftest-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    return run.Bench(ROOT, copy.deepcopy(TINY), SEED, 0.0, work)


class TinyRuns(unittest.TestCase):
    """One untraced and one traced run of the tiny network, shared."""

    @classmethod
    def setUpClass(cls):
        cls.plain = new_bench("plain")
        cls.plain_metrics = run.run_plain(cls.plain)
        cls.traced = new_bench("traced")
        cls.traced_metrics, cls.accounting = run.run_traced(cls.traced)

    @classmethod
    def tearDownClass(cls):
        for bench in (cls.plain, cls.traced):
            shutil.rmtree(bench.work, ignore_errors=True)

    def test_runs_are_correct(self):
        for bench in (self.plain, self.traced):
            self.assertEqual(bench.ops.failed, 0, bench.ops.problems)
            self.assertGreater(bench.ops.attempted, TINY["stream_hours"])

    def test_every_metric_printed_with_its_unit(self):
        spec = benchmark_spec()
        for metrics, declared in ((self.plain_metrics, spec["end_to_end"]),
                                  (self.traced_metrics, spec["per_layer"])):
            self.assertEqual({m["name"]: m["unit"] for m in declared},
                             {name: m["unit"] for name, m in metrics.items()})
            for name, metric in metrics.items():
                self.assertIsInstance(metric["value"], (int, float), name)
        for name in ("setup_s", "run_s", "pipeline_s", "tick_p99_ms", "peak_rss_mb"):
            self.assertGreater(self.plain_metrics[name]["value"], 0.0, name)
        line = run.result_line(self.plain.ops, self.plain_metrics)
        self.assertEqual(set(json.loads(line)), {"correct", "attempted", "failed", "metrics"})

    def test_self_times_and_unattributed_sum_to_stage_wall(self):
        for stage, acc in self.accounting.items():
            own = sum(acc["self_s"].values())
            roots = sum(row[3] for row in acc["by_parent"] if row[0] == TRACE_ROOT)
            self.assertAlmostEqual(own, roots, places=6, msg=stage)
            self.assertAlmostEqual(own + acc["unattributed_s"], acc["wall_s"], places=9,
                                   msg=stage)
            self.assertGreaterEqual(acc["unattributed_s"], 0.0, stage)
        self.assertGreater(self.traced_metrics["run.alarms.steps"]["value"], 0)
        self.assertGreater(self.traced_metrics["stream.kernels.ks_distance_calls"]["value"], 0)

    def test_corrupted_output_is_a_failed_operation(self):
        bench = self.plain
        files = checks.output_files(bench.sim, bench.out)
        pinned = checks.digests(files)
        stream = run.Stream(bench)
        stream.advance(len(stream.hours))
        ops = checks.Ops()
        stream.check(bench.out, ops)
        self.assertEqual(ops.failed, 0, ops.problems)

        target = bench.out / "corrected" / "S000.csv"
        lines = target.read_text().splitlines(keepends=True)
        fields = lines[150].split(",")      # an hour inside the streamed span
        fields[2] = f"{float(fields[2]) + 1.0:.4f}"
        lines[150] = ",".join(fields)
        target.write_text("".join(lines))

        ops = checks.Ops()
        checks.check_digests(files, pinned, ops)
        stream = run.Stream(bench)
        stream.advance(len(stream.hours))
        stream.check(bench.out, ops)
        self.assertEqual(ops.failed, 2, ops.problems)

        summary = bench.out / "summary.csv"
        with open(summary, newline="") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            if row["site_id"] == "S001":        # a clean sensor
                row["corrected_frac"] = "0.5000"
        with open(summary, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        ops = checks.Ops()
        checks.check_summary(bench.out, gen.sensor_faults(TINY), ops)
        self.assertEqual(ops.failed, 1, ops.problems)


class Wrappers(unittest.TestCase):
    def test_restore_puts_back_the_original_attributes(self):
        from ozonet import alarms, calibrate, cli, io, kernels

        owners = (alarms, calibrate.EstimateHistory, alarms.SiteEngine, cli, io, kernels)
        before = [dict(vars(owner)) for owner in owners]
        tracer = Tracer()
        instrument(tracer)
        self.assertIsNot(vars(kernels)["ks_distance"], before[-1]["ks_distance"])
        tracer.restore()
        for owner, saved in zip(owners, before):
            for name, value in saved.items():
                self.assertIs(vars(owner)[name], value, f"{owner}.{name}")


class Outages(unittest.TestCase):
    def test_injector_is_deterministic_per_seed(self):
        ids = ["R00", "S000", "S001"]
        first = gen.outage_offsets(TINY, 3, ids)
        self.assertEqual(first, gen.outage_offsets(TINY, 3, ids))
        self.assertNotEqual(first, gen.outage_offsets(TINY, 4, ids))
        target = round(TINY["outages"]["fraction"] * TINY["duration_hours"])
        for hours in first.values():
            self.assertGreaterEqual(len(hours), target)
            self.assertLess(len(hours), target + TINY["outages"]["max_hours"])
            self.assertTrue(all(0 <= h < TINY["duration_hours"] for h in hours))

    def test_same_seed_same_bytes(self):
        work = ROOT / ".perfbench_work" / "selftest-outages"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            text = "timestamp,site_id,value_ppb\r\n" + "".join(
                f"2018-01-25T{h:02d}:00:00Z,S000,{h}.0000\r\n" for h in range(24))
            spec = dict(TINY, duration_hours=24,
                        outages={"fraction": 0.25, "min_hours": 2, "max_hours": 4})
            copies = []
            for k in range(2):
                path = work / f"observed{k}.csv"
                path.write_text(text)
                deleted = gen.apply_outages(path, spec, SEED)
                self.assertGreaterEqual(deleted, 6)
                copies.append(path.read_bytes())
            self.assertEqual(copies[0], copies[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Environment(unittest.TestCase):
    def test_backend_is_read_and_compared_with_the_recorded_one(self):
        env = run.environment(ROOT)
        import ozonet
        self.assertEqual(env["backend"], getattr(ozonet, "KERNEL_BACKEND", None))
        self.assertEqual(env["comparable"], env["backend"] == env["backend_recorded"])
        for key in ("python", "numpy", "nproc", "loadavg_before", "git_sha", "src_sha256"):
            self.assertIn(key, env)


if __name__ == "__main__":
    if not (ROOT / "src" / "ozonet" / "__init__.py").is_file():
        sys.exit("error: run from the root of an ozonet checkout")
    unittest.main()
