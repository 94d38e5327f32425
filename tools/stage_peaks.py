"""Wall time and peak resident size of the pipeline's stages, each a fresh
`python -m ozonet.cli` process on one workload's seed-1 inputs.

    python tools/stage_peaks.py [--workload NAME]

The inputs are built once in a temporary directory, as perfbench/gen.py
builds them: the scenario of the workload's spec, `simulate`, the spec's
proxy policy and its outages. Then `validate`, `run` and `proxy-eval` run
in turn, REPEATS times, from the src/ of this checkout. Each
stage's peak is the ru_maxrss that os.wait4 reads for it: the largest of
the stage process and the workers it forked. The children get no
PYTHONPYCACHEPREFIX: under PYTHONDONTWRITEBYTECODE=1 a prefix stays empty,
so every process would compile the standard library and numpy again. A
timer kills a stage that outlives STAGE_TIMEOUT_S, which then fails.

It prints each stage's median and range of wall times and of peaks. On
network-nearest-5088h (the default) the exit status is 1 when a stage's
median peak reaches 117.5 MB, the peak of the per-row reader that the
columnar one replaced; 0 otherwise. Uses the standard library only; the
stages need numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench/gen.py, which builds the benchmark's inputs)

SEED = 1
REPEATS = 5
STAGE_TIMEOUT_S = 160
STAGES = ("validate", "run", "proxy-eval")
BOUNDED_WORKLOAD = "network-nearest-5088h"
BOUND_MB = 117.5


def stage(args: list, env: dict, log: Path) -> tuple[float, float]:
    """(wall s, peak MB) of `python -m ozonet.cli *args`, its output in `log`;
    SystemExit when it fails."""
    start = time.perf_counter()
    with open(log, "w") as handle:
        proc = subprocess.Popen([sys.executable, "-m", "ozonet.cli", *map(str, args)],
                                cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
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
        raise SystemExit(f"error: {args[0]} exited {code}:\n{log.read_text(errors='replace')[-600:]}")
    return wall, usage.ru_maxrss / 1024.0      # KiB on Linux


def build_inputs(spec: dict, work: Path, env: dict) -> Path:
    """The network config of the workload's seed-1 inputs, built in `work`."""
    (work / "scenario.json").write_text(json.dumps(gen.scenario(spec, SEED), indent=1) + "\n")
    stage(["simulate", work / "scenario.json", "--out", work / "sim"], env, work / "stage.log")
    gen.rewrite_config(work / "sim" / "network.json", spec)
    gen.apply_outages(work / "sim" / "observed.csv", spec, SEED)
    return work / "sim" / "network.json"


def spread(values: list, fmt: str) -> str:
    return (f"{statistics.median(values):{fmt}} "
            f"({min(values):{fmt}}-{max(values):{fmt}})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=BOUNDED_WORKLOAD, choices=gen.workload_names())
    args = parser.parse_args()
    spec = gen.load_spec(args.workload)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("PYTHONPYCACHEPREFIX", "OZONET_OUT_DIR"):
        env.pop(name, None)
    with tempfile.TemporaryDirectory(prefix="ozonet-stage-peaks-") as tmp:
        work = Path(tmp)
        config = build_inputs(spec, work, env)
        samples = {command: [] for command in STAGES}
        for _ in range(REPEATS):
            for command in STAGES:
                out = [] if command == "validate" else ["--out", work / "out"]
                samples[command].append(stage([command, config, *out], env,
                                              work / "stage.log"))
    print(f"{args.workload}, seed {SEED}, {REPEATS} runs a stage on "
          f"{len(os.sched_getaffinity(0))} CPUs: median (range)")
    print(f"{'stage':<12}{'wall s':>20}{'peak MB':>24}")
    over = []
    for command, runs in samples.items():
        walls, peaks = zip(*runs)
        print(f"{command:<12}{spread(walls, '.2f'):>20}{spread(peaks, '.1f'):>24}")
        if args.workload == BOUNDED_WORKLOAD and statistics.median(peaks) >= BOUND_MB:
            over.append(command)
    if over:
        print(f"error: the median peak of {', '.join(over)} reaches {BOUND_MB} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
