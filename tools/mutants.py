"""Mutation check of the rules that the unit tests pin.

Each mutant is one plain-text substitution in one file under src/: every
occurrence of a fragment is replaced. For each mutant the script copies
src/ to a temporary directory, applies the substitution to the copy, and
runs the Tier-1 suite against it with -x, under the `mutants` Hypothesis
profile (tests/conftest.py: no shrinking, since the first failing example
kills a mutant). A failing suite kills the mutant; a passing one lets it
survive. The checkout itself is never edited. Before the mutants, the
unmutated copy must pass.

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
    Mutant("ks_distance rows: (m + 1.0) divisor -> m", "kernels.py",
           "count_a / (m[:, None] + 1.0)", "count_a / m[:, None]"),
    Mutant("ks_distance rows: (n + 1.0) divisor -> n", "kernels.py",
           "count_b / (n[:, None] + 1.0)", "count_b / n[:, None]"),
    Mutant("ks_distance rows: a tie run read at its first element", "kernels.py",
           "run_end[:, :-1] &= values[:, :-1] != values[:, 1:]",
           "run_end[:, 1:] &= values[:, 1:] != values[:, :-1]"),
    Mutant("window_moments: size - 1 divisor -> size", "kernels.py",
           "/ (size - 1)", "/ size"),
    Mutant("window_complete: share >= completeness_min -> >", "timeseries.py",
           "count / td_hours >= completeness_min", "count / td_hours > completeness_min"),
    Mutant("estimate_rows: var_y > DEGENERATE_VAR_EPS -> >=", "calibrate.py",
           "var_y > DEGENERATE_VAR_EPS", "var_y >= DEGENERATE_VAR_EPS"),
    Mutant("estimate_rows: offset without the gain", "calibrate.py",
           "return mean_z - gain * mean_y, gain", "return mean_z - mean_y, gain"),
    Mutant("trend_at: clamp to the last estimate dropped", "calibrate.py",
           "min(stamp, self.stamps[-1])", "stamp"),
    Mutant("EstimateHistory._fit_at: zero gain floor dropped", "calibrate.py",
           "fit_gain if fit_gain > 0.0 else 0.0", "fit_gain"),
    Mutant("EstimateHistory.extend: zero gain floor dropped", "calibrate.py",
           "np.where(fit_gain > 0.0, fit_gain, 0.0)", "fit_gain"),
    Mutant("_measure_together: peers of every window length join the batch", "alarms.py",
           "and other.thresholds.td_hours == td_hours", "and True"),
    Mutant("SiteEngine._measure: a slot serves another hour", "alarms.py",
           "if slot is None or slot[0] != stamp:", "if slot is None:"),
    Mutant("SiteEngine._measure: a later hour's slot serves an earlier one", "alarms.py",
           "slot[0] != stamp", "slot[0] < stamp"),
    Mutant("_measure_together: peers not in step join the batch", "alarms.py",
           "if other.ledger.last_stamp == last\n", "if True\n"),
    Mutant("_measure_together: every engine a batch of one", "alarms.py",
           "live = list(_live)", "live = []"),
    Mutant("_measure_together: the windows of the hour before", "alarms.py",
           "window_bounds(series.hours, stamp, td_hours)",
           "window_bounds(series.hours, stamp - 1, td_hours)"),
    Mutant("_measure_together: another series' bounds serve an engine's sensor", "alarms.py",
           "= bounds[sensor], bounds[proxy]", "= next(iter(bounds.values())), bounds[proxy]"),
    Mutant("_measure_together: every non-empty pair of windows is assessed", "alarms.py",
           "if window_complete(min(s_hi - s_lo, p_hi - p_lo), td_hours,\n"
           "                           other.thresholds.completeness_min):",
           "if min(s_hi - s_lo, p_hi - p_lo) > 0:"),
    Mutant("_measure_together: completeness read from the batching engine's thresholds",
           "alarms.py", "other.thresholds.completeness_min", "engine.thresholds.completeness_min"),
    Mutant("_measure_together: a row paired with another engine's proxy window", "alarms.py",
           "_measure_rows(y, z)", "_measure_rows(y, z[::-1])"),
    Mutant("_measure_rows: every row given the first window's length", "alarms.py",
           "np.array([window.size for window in windows])",
           "np.array([windows[0].size for window in windows])"),
    Mutant("ks_pvalue: small-sample term dropped", "kstest.py",
           "(root + 0.12 + 0.11 / root) * d", "root * d"),
    Mutant("step: correction clip floor VALUE_MIN -> 0.0", "alarms.py",
           "VALUE_MIN)", "0.0)"),
    Mutant("SiteEngine.run: block one hour short", "alarms.py",
           "assessed[lo:lo + _BLOCK_HOURS]", "assessed[lo:lo + _BLOCK_HOURS - 1]"),
    Mutant("SiteEngine.run: last assessed hour left out of the blocks", "alarms.py",
           "range(0, assessed.size, _BLOCK_HOURS)", "range(0, assessed.size - 1, _BLOCK_HOURS)"),
    Mutant("SiteEngine.run: every other block skipped", "alarms.py",
           "range(0, assessed.size, _BLOCK_HOURS)", "range(0, assessed.size, 2 * _BLOCK_HOURS)"),
    Mutant("SiteEngine.run: each sensor window cut one sample short", "alarms.py",
           "[sensor[a:b] for a, b in", "[sensor[a:b - 1] for a, b in"),
    Mutant("Thresholds: timescale bound raised past int64", "alarms.py",
           "TIMESCALE_MAX_HOURS = 2**31 - 1", "TIMESCALE_MAX_HOURS = 10**30"),
    Mutant("Scenario: an hour past 9999-12-31T23:00:00Z accepted", "simulate.py",
           "self.duration_hours - 1 > HOUR_MAX", "self.duration_hours - 1 > HOUR_MAX + 1"),
    Mutant("idw_grid: a grid of exactly IDW_MAX_CELLS rejected", "metrics.py",
           "n_lat * n_lon > IDW_MAX_CELLS", "n_lat * n_lon >= IDW_MAX_CELLS"),
    Mutant("idw_grid: each band one cell short", "metrics.py",
           "cells[lo:lo + _IDW_BAND_CELLS]", "cells[lo:lo + _IDW_BAND_CELLS - 1]"),
    Mutant("idw_grid: of exact hits equally near, the highest site index wins", "metrics.py",
           "np.where(exact, dists, np.inf).argmin(axis=1)",
           "(dists.shape[1] - 1 - np.where(exact, dists, np.inf)[:, ::-1].argmin(axis=1))"),
    Mutant("check_site_ids: an id with surrounding whitespace accepted", "io.py",
           " or sid != sid.strip()", ""),
    Mutant("SiteSpec: a reference's sensor model accepted", "simulate.py",
           "ROLE_REFERENCE and self.sensor is not None", "ROLE_REFERENCE and False"),
    Mutant("DriftSegment: a gain_ramp to a gain of 0 accepted", "simulate.py",
           "and not self.target > 0", "and not self.target >= 0"),
    Mutant("apply_sensor_model: a ramp's target not held after its end", "simulate.py",
           "np.where(rel >= seg.start_hour,",
           "np.where((rel >= seg.start_hour) & (rel <= seg.end_hour),"),
    Mutant("apply_sensor_model: a flat run from hour 0 holds the series' last reading",
           "simulate.py", "np.where(flat_mask, 0, np.arange(n))",
           "np.where(flat_mask, -1, np.arange(n))"),
    Mutant("network_median_series: kept hours counted from 0, not the first hour", "proxy.py",
           "np.flatnonzero(keep) + lo", "np.flatnonzero(keep)"),
    Mutant("idw_grid: a field that is not finite accepted", "metrics.py",
           "if not np.isfinite(flat[band]).all():", "if False:"),
    Mutant("format_iso_hour: year not zero-padded", "timeseries.py",
           '.isoformat() + "Z"', '.strftime("%Y-%m-%dT%H:%M:%SZ")'),
    Mutant("json_loads: numbers beyond the floats accepted", "io.py",
           "if math.isinf(float(text)):", "if False:"),
    Mutant("ProxyPolicy: an override may be any JSON value", "io.py",
           "overrides: dict[str, str]", "overrides: dict"),
    Mutant("write_summary_csv: lines end in \\r\\n", "io.py", ', end="\\n")', ")"),
    Mutant("scan_series_csv: VALUE_MIN itself out of range", "io.py",
           "(values >= VALUE_MIN)", "(values > VALUE_MIN)"),
    Mutant("scan_series_csv: VALUE_MAX itself out of range", "io.py",
           "(values <= VALUE_MAX)", "(values < VALUE_MAX)"),
    Mutant("scan_series_csv: rows of four fields pass the 3-field check", "io.py",
           "len(rows)) != 3", "len(rows)) < 3"),
    Mutant("scan_series_csv: of a duplicate (site, hour) the last row is kept", "io.py",
           "again[1:] = ", "again[:-1] = "),
    Mutant("cli: --td-hours and --tf-hours set each other's field", "cli.py",
           '("--td-hours", "td_hours", int, "rolling window length, hours"),\n'
           '    ("--tf-hours", "tf_hours", int, "persistence before alarm, hours"),',
           '("--td-hours", "tf_hours", int, "rolling window length, hours"),\n'
           '    ("--tf-hours", "td_hours", int, "persistence before alarm, hours"),'),
    Mutant("cmd_run: a site with no proxy data loses its proxy's label", "cli.py",
           "(site.site_id, proxy_label, 0,", '(site.site_id, "-", 0,'),
    Mutant("cmd_proxy_eval: one reference a runtime failure (exit 2)", "cli.py",
           'raise ConfigError("proxy evaluation needs', 'raise OzonetError("proxy evaluation needs'),
]


def run_suite(src: Path, workdir: Path) -> tuple[int, str]:
    """Tier-1 with -x against the package in `src`, from `workdir` so that
    caches and the hypothesis database stay out of the checkout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile", "mutants", str(ROOT / "tests")]
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
