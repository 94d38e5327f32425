"""Benchmark for ozonet: the CLI pipeline and the streaming engine.

Run from the repository root:

    python3 perfbench/run.py --workload network-nearest --seed 1 --seconds 5 --trace 0

Each workload (perfbench/workloads/*.json) is a simulated network, made
from the spec and the seed, that goes through both ways operators use
ozonet:

- the pipeline `simulate -> validate -> run -> proxy-eval`, each stage a
  fresh `python -m ozonet.cli` process on the files the previous one wrote;
- the streaming API, in this process: one SiteEngine per sensor against the
  same proxy `run` used, all stepped one hour per tick (a closed loop: the
  next tick starts when the last one ends), over the first `stream_hours`
  hours of the network.

With --trace 0 the stages repeat and two stream passes run in slices
between them (see REPEATS); each end-to-end figure summarises samples
taken across the whole run, measured with no tracing. More passes follow
only while the ticks took less than --seconds; they are checked but left out
of the tick figure. With --trace 1 each stage and one stream pass also run
traced, and the per-layer figures and the tracing overhead are reported.
Every output is checked (see checks.py). The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import checks
import gen
from tracer import Tracer, instrument

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
STAGES = ("simulate", "validate", "run", "proxy-eval")
STAGE_TIMEOUT_S = 160
MAX_STREAM_PASSES = 50
TRACE_SLICES = 12
SETUP_CODE = ("import sys, ozonet.cli\n"
              "from ozonet import io\n"
              "io.load_network_config(sys.argv[1])\n")

END_TO_END_UNITS = {
    "setup_s": "s", "simulate_s": "s", "validate_s": "s", "run_s": "s",
    "proxy_eval_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "tick_p99_ms": "ms",
}

# Per-layer metrics of the traced run, per stage.
_ENGINE = [
    "kernels.ks_distance_s", "kernels.ks_distance_calls",
    "kernels.window_moments_s", "kernels.window_moments_calls",
    "kstest.ks_pvalue_s", "kstest.ks_pvalue_calls",
    "calibrate.append_s", "calibrate.appends", "calibrate.trend_at_s",
    "calibrate.trend_at_calls", "calibrate.trend_at_per_append", "calibrate.trend_excluded",
    "alarms.step_s", "alarms.steps", "alarms.update_persistence_s",
    "alarms.hours_ok", "alarms.hours_insufficient", "alarms.hours_degenerate",
    "alarms.hours_corrected",
]
_PROCESS = ["process.cpu_s", "process.wait_s", "trace.wall_s", "trace.overhead_s",
            "trace.overhead_pct"]
LAYERS = {
    "simulate": ["simulate.run_scenario_s", "simulate.generate_regional_s",
                 "io.write_series_csv_s", "io.rows_written",
                 "timeseries.format_iso_hour_calls", "cli.unattributed_s"] + _PROCESS,
    "validate": ["io.load_network_config_s", "io.scan_series_csv_s", "io.rows_parsed",
                 "timeseries.parse_iso_hour_calls", "timeseries.parse_per_distinct_stamp",
                 "timeseries.format_iso_hour_calls", "cli.unattributed_s"] + _PROCESS,
    "run": _ENGINE + [
        "alarms.run_s", "io.load_network_config_s", "io.scan_series_csv_s",
        "io.rows_parsed", "io.write_chart_csv_s", "io.write_corrected_csv_s",
        "io.rows_written", "timeseries.parse_iso_hour_calls",
        "timeseries.parse_per_distinct_stamp", "timeseries.format_iso_hour_calls",
        "proxy.select_s", "proxy.network_median_series_s",
        "proxy.network_median_series_calls", "proxy.median_grid_cells",
        "cli.unattributed_s"] + _PROCESS,
    "proxy_eval": _ENGINE + [
        "alarms.run_s", "io.scan_series_csv_s", "io.rows_parsed",
        "io.write_proxy_scores_csv_s", "timeseries.parse_iso_hour_calls",
        "proxy.select_s", "proxy.network_median_series_s",
        "proxy.network_median_series_calls", "proxy.median_grid_cells",
        "proxy.evaluate_proxy_s", "metrics.pair_metrics_s", "svgout.proxy_eval_svg_s",
        "cli.unattributed_s"] + _PROCESS,
    "stream": _ENGINE + ["loop.unattributed_s"] + _PROCESS,
}


def per_layer_units() -> dict:
    units = {}
    for stage, names in LAYERS.items():
        for name in names:
            if name.endswith("_s"):
                unit = "s"
            elif name.endswith("_pct"):
                unit = "%"
            elif name.endswith(("_per_append", "_per_distinct_stamp")):
                unit = "ratio"
            else:
                unit = "count"
            units[f"{stage}.{name}"] = unit
    return units


# --------------------------------------------------------------- processes

class Stage:
    """Wall, CPU and exit status of one child process."""

    def __init__(self, code: int, wall: float, cpu: float):
        self.code, self.wall, self.cpu = code, wall, cpu

    @property
    def ok(self) -> bool:
        return self.code == 0


def spawn(cmd: list, root: Path, env: dict, log: Path) -> Stage:
    """Run one child to completion.

    The wait blocks in wait4, which returns the moment the child exits and
    gives its own CPU time; Popen.wait with a timeout polls instead, every
    50 ms at worst, which would round every wall time up to that grain. A
    timer kills a child that outlives STAGE_TIMEOUT_S.
    """
    start = time.perf_counter()
    with open(log, "w") as handle:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=handle,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = log.read_text(errors="replace")[-600:]
        print(f"stage failed ({code}): {' '.join(map(str, cmd[1:4]))}\n{tail}",
              file=sys.stderr)
    return Stage(code, wall, usage.ru_utime + usage.ru_stime)


class Bench:
    """One benchmark run: checkout root, work directory, spec and seed."""

    def __init__(self, root: Path, spec: dict, seed: int, seconds: float, work: Path):
        self.root, self.spec, self.seed, self.seconds = root, spec, seed, seconds
        self.work = work
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("OZONET_OUT_DIR", None)
        self.ops = checks.Ops()
        self.sim = work / "sim"
        self.out = work / "out"
        self.samples = {}       # per-stage walls of a plain run, for --record

    def cli(self, command: str, args: list, trace: Path | None = None) -> Stage:
        if trace is None:
            cmd = [sys.executable, "-m", "ozonet.cli", command, *map(str, args)]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace),
                   command, *map(str, args)]
        tag = "traced" if trace else "plain"
        stage = spawn(cmd, self.root, self.env, self.logs / f"{command}-{tag}.log")
        self.ops.record(stage.ok, f"{command} ({tag}) exited {stage.code}")
        return stage

    def stage_args(self, command: str, out: Path) -> list:
        if command == "simulate":
            return [self.work / "scenario.json", "--out", out]
        if command == "validate":
            return [self.sim / "network.json"]
        return [self.sim / "network.json", "--out", out]

    def write_scenario(self):
        text = json.dumps(gen.scenario(self.spec, self.seed), indent=1)
        (self.work / "scenario.json").write_text(text + "\n")

    def prepare_inputs(self):
        """Pin the proxy policy and cut the outages into the simulated data."""
        gen.rewrite_config(self.sim / "network.json", self.spec)
        gen.apply_outages(self.sim / "observed.csv", self.spec, self.seed)

    def setup_time(self) -> float:
        """A fresh interpreter that imports ozonet and loads the config."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(self.sim / "network.json")]
        stage = spawn(cmd, self.root, self.env, self.logs / "setup.log")
        self.ops.record(stage.ok, f"setup probe exited {stage.code}")
        return stage.wall

    def check_outputs(self, out: Path):
        files = checks.output_files(self.sim, out)
        expected = load_expected()
        if expected.get("seed") == self.seed:
            pinned = expected["digests"].get(self.spec["name"])
            if pinned is not None:
                checks.check_digests(files, pinned, self.ops)
        checks.check_summary(out, gen.sensor_faults(self.spec), self.ops)
        checks.check_proxy_scores(out, gen.reference_ids(self.spec), self.ops)


# ------------------------------------------------------------------ stream

def load_series(paths: list) -> dict:
    """site_id -> TimeSeries from series CSV files, for the streaming API.

    Parses each distinct timestamp once, so loading stays a small part of a
    run; the values are the same floats `run` reads from the same text.
    """
    import numpy as np
    from ozonet.timeseries import TimeSeries

    hour_of = {}
    per_site = {}
    for path in paths:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for stamp, site_id, value in reader:
                hour = hour_of.get(stamp)
                if hour is None:
                    moment = datetime.strptime(stamp, gen.STAMP_FORMAT)
                    hour = hour_of[stamp] = int(
                        moment.replace(tzinfo=timezone.utc).timestamp()) // 3600
                hours, values = per_site.setdefault(site_id, ([], []))
                hours.append(hour)
                values.append(float(value))
    series = {}
    for site_id, (hours, values) in per_site.items():
        order = np.argsort(np.array(hours, dtype=np.int64), kind="stable")
        series[site_id] = TimeSeries(site_id, np.array(hours, dtype=np.int64)[order],
                                     np.array(values, dtype=np.float64)[order])
    return series


class Stream:
    """All sensors of the network stepped hour by hour through SiteEngine.

    A pass steps a fresh engine per sensor through the first stream_hours
    hours; `advance` runs the next ticks of the current pass (starting a new
    one when it ends), so one pass can be spread over a whole run.
    """

    def __init__(self, bench: Bench):
        from ozonet import io as ozio
        from ozonet import proxy as ozproxy

        config = ozio.load_network_config(bench.sim / "network.json")
        series = load_series([bench.sim / p for p in config.series])
        policy = config.proxy
        self.pairs = []         # (site_id, sensor series, proxy series)
        medians = {}
        for site in config.sites:
            if site.role != ozproxy.ROLE_LOW_COST:
                continue
            if policy.strategy == ozproxy.STRATEGY_MEDIAN:
                exclude = (site.site_id,) if policy.median_exclude_self else ()
                if exclude not in medians:
                    medians[exclude] = ozproxy.network_median_series(
                        list(series.values()), policy.median_min_reporters, exclude)
                proxy_series = medians[exclude]
            else:
                ref = ozproxy.nearest_reference(site, config.sites).proxy_site_id
                proxy_series = series[ref]
            self.pairs.append((site.site_id, series[site.site_id], proxy_series))
        self.thresholds = config.thresholds
        start = datetime.strptime(bench.spec["start"], gen.STAMP_FORMAT).replace(
            tzinfo=timezone.utc)
        first = int(start.timestamp()) // 3600
        count = bench.spec["stream_hours"]
        self.hours = list(range(first, first + count))
        self.stamps = [(start + timedelta(hours=k)).strftime(gen.STAMP_FORMAT)
                       for k in range(count)]
        self.passes = []        # unchecked passes: per tick, rows or an exception
        self.passes_done = 0
        self.ticks = []         # seconds per tick, all passes
        self._engines = None
        self._expected = None

    def advance(self, count: int) -> list:
        """Run the next `count` ticks; returns their times (s)."""
        from ozonet.alarms import SiteEngine

        clock = time.perf_counter
        ticks = []
        for _ in range(count):
            if self._engines is None:
                self._engines = [SiteEngine(sid, sensor, proxy, self.thresholds)
                                 for sid, sensor, proxy in self.pairs]
                self.passes.append([])
            rows = self.passes[-1]
            hour = self.hours[len(rows)]
            start = clock()
            try:
                rows.append([engine.step(hour) for engine in self._engines])
            except Exception as exc:        # a failing step is a failed tick
                rows.append(exc)
            ticks.append(clock() - start)
            if len(rows) == len(self.hours):
                self._engines = None
                self.passes_done += 1
        self.ticks.extend(ticks)
        return ticks

    def twin(self) -> "Stream":
        """A stream over the same inputs with engines and passes of its own."""
        other = copy.copy(self)
        other.passes, other.passes_done, other.ticks = [], 0, []
        other._engines = other._expected = None
        return other

    def finish_pass(self) -> list:
        if self._engines is None:
            return []
        return self.advance(len(self.hours) - len(self.passes[-1]))

    def check(self, out: Path, ops: checks.Ops):
        """Each tick of a finished pass must reproduce what `run` wrote to
        corrected/*.csv. Checked passes are dropped, so the harness does not
        keep their rows alive while later passes are measured."""
        if self._expected is None:
            self._expected = [checks.read_corrected(out, sid) for sid, _, _ in self.pairs]
        expected = self._expected
        finished = self.passes if self._engines is None else self.passes[:-1]
        self.passes = self.passes[len(finished):]
        for rows in finished:
            for k, tick_rows in enumerate(rows):
                if isinstance(tick_rows, Exception):
                    ops.record(False, f"tick {self.stamps[k]} raised {tick_rows!r}")
                    continue
                ok = all(checks.stream_row_matches(row, self.hours[k], self.stamps[k], exp)
                         for row, exp in zip(tick_rows, expected))
                ops.record(ok, f"tick {self.stamps[k]} differs from the batch run")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------- workloads

# The untraced run repeats each stage, the short ones more often, with the
# samples of each stage spread evenly over the run. Between any two stages
# it takes one set-up probe and the next slice of the stream passes. Every
# figure thus summarises samples taken across the whole run: on a machine
# whose speed drifts from second to second, samples taken in one stretch of
# it do not repeat from run to run.
REPEATS = {"simulate": 5, "validate": 5, "run": 2, "proxy-eval": 3}
STREAM_PASSES = 2


def schedule() -> list:
    """(command, repeat index) in run order; sample i of a stage sits at
    (i + 0.5) / repeats of the way through the run."""
    slots = [((i + 0.5) / n, STAGES.index(command), command, i)
             for command, n in REPEATS.items() for i in range(n)]
    return [(command, i) for _, _, command, i in sorted(slots)]


def run_plain(bench: Bench) -> dict:
    """End-to-end metrics, no tracing."""
    bench.write_scenario()
    walls = {command: [] for command in STAGES}
    setup = []
    sim_again, out_again = bench.work / "sim_again", bench.work / "out_again"

    def stage(command: str, out: Path):
        walls[command].append(bench.cli(command, bench.stage_args(command, out)).wall)

    stage("simulate", bench.sim)
    simulated = checks.digests(checks.sim_files(bench.sim))
    bench.prepare_inputs()
    stream = Stream(bench)
    plan = schedule()[1:]
    gaps = len(plan) + 1
    total = STREAM_PASSES * len(stream.hours)
    cuts = [round(k * total / gaps) for k in range(gaps + 1)]
    for k in range(gaps):
        setup.append(bench.setup_time())
        stream.advance(cuts[k + 1] - cuts[k])
        if k == len(plan):
            break
        command, r = plan[k]
        if command == "simulate":
            stage(command, sim_again)
            same = checks.digests(checks.sim_files(sim_again)) == simulated
            bench.ops.record(same, "simulate gave other bytes on a repeat")
            shutil.rmtree(sim_again, ignore_errors=True)
        else:
            stage(command, bench.out if r == 0 else out_again)
        if walls["run"]:
            stream.check(bench.out, bench.ops)
        if r > 0 and command in ("run", "proxy-eval"):
            checks.check_same_bytes(checks.result_files(bench.out, command),
                                    checks.result_files(out_again, command),
                                    f"a repeated {command} wrote other bytes", bench.ops)
            shutil.rmtree(out_again, ignore_errors=True)
    stream.finish_pass()
    while stream.passes_done < MAX_STREAM_PASSES and sum(stream.ticks) < bench.seconds:
        stream.advance(len(stream.hours))
    bench.check_outputs(bench.out)
    stream.check(bench.out, bench.ops)

    # The tick figure is taken over stream hours, each at the faster of its
    # two ticks: the passes run in slices spread over the run, so an hour's
    # two ticks lie half a run apart, and a pause that hits one of them (a
    # garbage collection, a slow stretch of the machine) is left out. The
    # raw tick tail is those pauses: on a shared 2-vCPU machine its p99 over
    # ten seeds spread up to 0.4 of its median. Top-up passes are left out,
    # so the figure does not depend on how many of them ran.
    hours = len(stream.hours)
    fastest = sorted(min(stream.ticks[k + p * hours] for p in range(STREAM_PASSES))
                     for k in range(hours))
    # Stage figures are means: with two to five samples, each taken in a fast
    # or a slow phase of the machine, a median jumps between the two.
    stages = {command: statistics.fmean(w) for command, w in walls.items()}
    # largest stage process; the stream shares this process with the harness
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"stream: {stream.passes_done} pass(es), {len(stream.ticks)} ticks of "
          f"{len(stream.pairs)} engines; stage samples {REPEATS}, {len(setup)} set-ups")
    values = {
        "setup_s": statistics.median(setup),
        "simulate_s": stages["simulate"],
        "validate_s": stages["validate"],
        "run_s": stages["run"],
        "proxy_eval_s": stages["proxy-eval"],
        "pipeline_s": sum(stages.values()),
        "peak_rss_mb": rss_kb / 1024.0,
        "tick_p99_ms": 1000.0 * percentile(fastest, 99),
    }
    bench.samples = {"setup_s": setup, "ticks": len(stream.ticks),
                     **{f"{command}_s": w for command, w in walls.items()}}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def layer_values(snap: dict) -> dict:
    """Flat per-layer values from one trace snapshot."""
    own, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    distinct = snap["distinct"]
    values = {}
    for name, seconds in own.items():
        values[f"{name}_s"] = seconds
    for name in ("kernels.ks_distance", "kernels.window_moments", "kstest.ks_pvalue",
                 "calibrate.trend_at", "proxy.network_median_series"):
        values[f"{name}_calls"] = calls.get(name, 0)
    values["calibrate.appends"] = calls.get("calibrate.append", 0)
    values["alarms.steps"] = calls.get("alarms.step", 0)
    for name, count in counts.items():
        values[name] = count
    values["timeseries.parse_iso_hour_calls"] = counts.get("timeseries.parse_iso_hour", 0)
    values["timeseries.format_iso_hour_calls"] = counts.get("timeseries.format_iso_hour", 0)
    stamps = distinct.get("timeseries.parse_iso_hour", 0)
    values["timeseries.parse_per_distinct_stamp"] = (
        values["timeseries.parse_iso_hour_calls"] / stamps if stamps else 0.0)
    appends = values["calibrate.appends"]
    values["calibrate.trend_at_per_append"] = (
        values["calibrate.trend_at_calls"] / appends if appends else 0.0)
    values["calibrate.trend_excluded"] = counts.get("alarms.hours_ok", 0) - appends
    return values


def stage_layers(stage: str, snap: dict, traced_wall: float, traced_mean: float,
                 plain_mean: float, cpu: float) -> tuple:
    """(metrics of one stage, full accounting of its traced wall).

    snap and traced_wall are of one traced run; the overhead compares the
    mean traced wall with the mean plain wall.
    """
    values = layer_values(snap)
    spans_s = sum(snap["self_s"].values())
    unattributed = traced_wall - spans_s
    values["cli.unattributed_s"] = values["loop.unattributed_s"] = unattributed
    values["process.cpu_s"] = cpu
    values["process.wait_s"] = plain_mean - cpu
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_mean - plain_mean
    values["trace.overhead_pct"] = 100.0 * (traced_mean - plain_mean) / plain_mean
    metrics = {f"{stage}.{name}": values.get(name, 0) for name in LAYERS[stage]}
    accounting = {"wall_s": traced_wall, "unattributed_s": unattributed,
                  "self_s": snap["self_s"], "by_parent": snap["by_parent"],
                  "spans": snap["spans"]}
    return metrics, accounting


def run_traced(bench: Bench) -> tuple:
    """Per-layer metrics of a traced run, and the tracing overhead.

    Each stage runs plain, traced, traced, plain (so a drift in machine
    speed cancels out of the overhead); the per-layer figures are those of
    the first traced run. The stream steps one plain and one traced pass in
    alternating slices, the tracer installed for the traced slices only.
    """
    bench.write_scenario()
    traces = bench.work / "traces"
    traces.mkdir()
    metrics, accounting = {}, {}
    sim_traced = bench.work / "sim_traced"
    out_traced = bench.work / "out_traced"
    for command in STAGES:
        key = command.replace("-", "_")
        plain_args = bench.stage_args(command, bench.sim if key == "simulate" else bench.out)
        traced_args = bench.stage_args(command, sim_traced if key == "simulate" else out_traced)
        trace = traces / f"{key}.json"
        plain = bench.cli(command, plain_args)
        traced = bench.cli(command, traced_args, trace=trace)
        traced_again = bench.cli(command, traced_args, trace=traces / f"{key}-again.json")
        plain_again = bench.cli(command, plain_args)
        snap = json.loads(trace.read_text()) if trace.is_file() else Tracer().snapshot()
        metrics_k, accounting[key] = stage_layers(
            key, snap, traced.wall, (traced.wall + traced_again.wall) / 2,
            (plain.wall + plain_again.wall) / 2, plain.cpu)
        metrics.update(metrics_k)
        if key == "simulate":
            checks.check_same_bytes(checks.sim_files(bench.sim), checks.sim_files(sim_traced),
                                    "tracing changed simulate output", bench.ops)
            bench.prepare_inputs()
    bench.check_outputs(bench.out)
    checks.check_same_bytes(checks.result_files(bench.out), checks.result_files(out_traced),
                            "tracing changed an output", bench.ops)

    plain = Stream(bench)
    traced = plain.twin()
    cuts = [round(k * len(plain.hours) / TRACE_SLICES) for k in range(TRACE_SLICES + 1)]
    tracer = Tracer()
    cpu = 0.0
    for k in range(TRACE_SLICES):
        cpu0 = time.process_time()
        plain.advance(cuts[k + 1] - cuts[k])
        cpu += time.process_time() - cpu0
        instrument(tracer)
        try:
            traced.advance(cuts[k + 1] - cuts[k])
        finally:
            tracer.restore()
    plain.check(bench.out, bench.ops)
    traced.check(bench.out, bench.ops)
    traced_wall = sum(traced.ticks)
    metrics_k, accounting["stream"] = stage_layers(
        "stream", tracer.snapshot(), traced_wall, traced_wall, sum(plain.ticks), cpu)
    metrics.update(metrics_k)
    units = per_layer_units()
    return ({name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            accounting)


# --------------------------------------------------------------- reporting

def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import ozonet

    git_sha = None
    if (root / ".git").exists():
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True)
            git_sha = probe.stdout.strip() or None
        except OSError:
            pass
    backend = getattr(ozonet, "KERNEL_BACKEND", None)
    recorded = load_expected().get("backend")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "backend": backend,
        "backend_recorded": recorded,
        "comparable": backend == recorded,
        "git_sha": git_sha,
        "src_sha256": source_digest(root),
    }


def record_expected(bench: Bench):
    expected = load_expected()
    if expected.get("seed") not in (None, bench.seed):
        raise SystemExit(f"expected.json pins seed {expected['seed']}, not {bench.seed}")
    import ozonet
    expected["seed"] = bench.seed
    expected["backend"] = getattr(ozonet, "KERNEL_BACKEND", None)
    expected.setdefault("digests", {})[bench.spec["name"]] = checks.digests(
        checks.output_files(bench.sim, bench.out))
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="least time of stream ticks measured, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write env, metrics and trace detail here")
    parser.add_argument("--record-expected", action="store_true",
                        help="pin this seed's output digests in expected.json")
    args = parser.parse_args(argv)

    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "ozonet" / "__init__.py").is_file():
        print("error: no src/ozonet here; run from the root of an ozonet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    if not env["comparable"]:
        print(f"warning: backend {env['backend']!r} differs from the recorded "
              f"{env['backend_recorded']!r}; do not compare these figures", file=sys.stderr)

    spec = gen.load_spec(args.workload)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(root, spec, args.seed, args.seconds, work)
    try:
        if args.trace:
            metrics, accounting = run_traced(bench)
        else:
            metrics = run_plain(bench)
            accounting = {"samples": bench.samples}
        if args.record_expected:
            record_expected(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    for problem in bench.ops.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    line = result_line(bench.ops, metrics)
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "env": env, "result": json.loads(line), "accounting": accounting,
             "problems": bench.ops.problems}, indent=1, sort_keys=True) + "\n")
    print(line)
    return 0 if bench.ops.failed == 0 else 1


def result_line(ops: checks.Ops, metrics: dict) -> str:
    return json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                       "failed": ops.failed, "metrics": metrics})


if __name__ == "__main__":
    sys.exit(main())
