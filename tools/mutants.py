"""Mutation check of the rules that the unit tests pin.

Each mutant is one plain-text substitution in one file under src/: every
occurrence of a fragment is replaced. For each mutant the script copies
src/ to a temporary directory, applies the substitution to the copy, and
runs the Tier-1 suite against it with -x. A failing suite kills the
mutant; a passing one lets it survive. The checkout itself is never
edited. Before the mutants, the unmutated copy must pass.

    python tools/mutants.py

It prints one line per mutant: killed (with the first failing test) or
survived. Every listed mutant is one the suite must kill: the exit status
is 1 when one survives, or when a fragment no longer occurs in its file; 2
when the unmutated copy fails. Uses the standard library only; the suite needs numpy, pytest and
hypothesis.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/ozonet
    old: str
    new: str


MUTANTS = [
    Mutant("breaches: p_ks <= p_ks_min -> <", "alarms.py",
           "return (p_ks <= th.p_ks_min,", "return (p_ks < th.p_ks_min,"),
    Mutant("breaches: offset <= offset_low -> <", "alarms.py",
           "(offset <= th.offset_low)", "(offset < th.offset_low)"),
    Mutant("breaches: offset >= offset_high -> >", "alarms.py",
           "(offset >= th.offset_high)", "(offset > th.offset_high)"),
    Mutant("breaches: gain <= gain_low -> <", "alarms.py",
           "(gain <= th.gain_low)", "(gain < th.gain_low)"),
    Mutant("breaches: gain >= gain_high -> >", "alarms.py",
           "(gain >= th.gain_high)", "(gain > th.gain_high)"),
    Mutant("degenerate hour: p_ks <= p_ks_min -> <", "alarms.py",
           "ks=p_ks <= th.p_ks_min", "ks=p_ks < th.p_ks_min"),
    Mutant("persistence: breach_hours > tf_hours -> >=", "alarms.py",
           "breach_hours[i] > th.tf_hours", "breach_hours[i] >= th.tf_hours"),
    Mutant("ks_distance: (m + 1.0) divisor -> m", "kernels.py",
           '"right") / (m + 1.0)', '"right") / m'),
    Mutant("ks_distance: (n + 1.0) divisor -> n", "kernels.py",
           '"right") / (n + 1.0)', '"right") / n'),
    Mutant('ks_distance: side="right" -> "left"', "kernels.py",
           'searchsorted(pooled, side="right")', 'searchsorted(pooled, side="left")'),
    Mutant("window_moments: size - 1 divisor -> size", "kernels.py",
           "/ (size - 1)", "/ size"),
    Mutant("window_complete: share >= completeness_min -> >", "timeseries.py",
           "count / td_hours >= completeness_min", "count / td_hours > completeness_min"),
    Mutant("moment_match: var_y <= DEGENERATE_VAR_EPS -> <", "calibrate.py",
           "var_y <= DEGENERATE_VAR_EPS", "var_y < DEGENERATE_VAR_EPS"),
    Mutant("trend_at: clamp to the last estimate dropped", "calibrate.py",
           "min(stamp, self.stamps[-1])", "stamp"),
    Mutant("EstimateHistory._fit_at: zero gain floor dropped", "calibrate.py",
           "fit_gain if fit_gain > 0.0 else 0.0", "fit_gain"),
    Mutant("EstimateHistory.extend: zero gain floor dropped", "calibrate.py",
           "np.where(fit_gain > 0.0, fit_gain, 0.0)", "fit_gain"),
    Mutant("SiteEngine._measure: var_y > DEGENERATE_VAR_EPS -> >=", "alarms.py",
           "if var_y > DEGENERATE_VAR_EPS:", "if var_y >= DEGENERATE_VAR_EPS:"),
    Mutant("SiteEngine.run: var_y > DEGENERATE_VAR_EPS -> >=", "alarms.py",
           "ok = var_y > DEGENERATE_VAR_EPS", "ok = var_y >= DEGENERATE_VAR_EPS"),
    Mutant("ks_pvalue: small-sample term dropped", "kstest.py",
           "(root + 0.12 + 0.11 / root) * d", "root * d"),
    Mutant("step: correction clip floor VALUE_MIN -> 0.0", "alarms.py",
           "VALUE_MIN)", "0.0)"),
]


def run_suite(src: Path, workdir: Path) -> tuple[int, str]:
    """Tier-1 with -x against the package in `src`, from `workdir` so that
    caches and the hypothesis database stay out of the checkout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           str(ROOT / "tests")]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if not failed:
        return done.returncode, done.stdout.strip()[-200:]
    # pytest names the test relative to workdir
    path, sep, rest = failed.group(1).partition("::")
    return done.returncode, (workdir / path).resolve().relative_to(ROOT).as_posix() + sep + rest


def mutated_copy(workdir: Path, mutant: Mutant | None) -> Path:
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "ozonet" / mutant.path
        text = target.read_text()
        if mutant.old not in text:
            raise LookupError(f"{mutant.old!r} does not occur in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ozonet-mutants-") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        code, detail = run_suite(mutated_copy(base, None), base)
        if code != 0:
            print(f"error: the unmutated copy fails the suite: {detail}", file=sys.stderr)
            return 2
        problems = 0
        for k, mutant in enumerate(MUTANTS):
            workdir = Path(tmp) / f"m{k}"
            workdir.mkdir()
            try:
                src = mutated_copy(workdir, mutant)
            except LookupError as exc:
                print(f"missing   {mutant.name}: {exc}", flush=True)
                problems += 1
                continue
            code, detail = run_suite(src, workdir)
            killed = code != 0
            print(f"{'killed' if killed else 'SURVIVED':9} {mutant.name}"
                  + (f"  [{detail}]" if killed else ""), flush=True)
            problems += not killed
            shutil.rmtree(workdir)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
