"""Mutation check of the rules that the unit tests pin.

Each mutant is one plain-text substitution in one file under src/: every
occurrence of a fragment is replaced. For each mutant the script copies
src/ to a temporary directory, applies the substitution to the copy, and
runs tests against it with -x, under the `mutants` Hypothesis profile
(tests/conftest.py: no shrinking, since the first failing example kills a
mutant). A mutant names the test that killed it on an earlier run, its
killer, which runs first: the mutant is killed when that run reports
failed tests (pytest's exit status 1). On any other outcome (the killer
passed, was renamed, or could not be collected) the script names the
stale killer and runs the Tier-1 suite, as it does for a mutant with no
killer: a failing suite kills the mutant, a passing one lets it survive.
Either way a mutant is killed exactly when some test fails. The checkout
itself is never edited. Before the mutants, the unmutated copy must pass.

    python tools/mutants.py

It prints one line per mutant: killed (with the failing test) or
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
    killer: str | None = None   # a test node id, relative to tests/


MUTANTS = [
    Mutant("breaches: p_ks <= p_ks_min -> <", "alarms.py",
           "return (p_ks <= th.p_ks_min,", "return (p_ks < th.p_ks_min,",
           "test_alarms.py::TestBreachFlags::test_boundary_values_count_as_breaches"),
    Mutant("breaches: offset <= offset_low -> <", "alarms.py",
           "(offset <= th.offset_low)", "(offset < th.offset_low)",
           "test_alarms.py::TestBreachFlags::test_boundary_values_count_as_breaches"),
    Mutant("breaches: offset >= offset_high -> >", "alarms.py",
           "(offset >= th.offset_high)", "(offset > th.offset_high)",
           "test_alarms.py::TestBreachFlags::test_upper_bounds_count_as_breaches"),
    Mutant("breaches: gain <= gain_low -> <", "alarms.py",
           "(gain <= th.gain_low)", "(gain < th.gain_low)",
           "test_alarms.py::TestBreachFlags::test_boundary_values_count_as_breaches"),
    Mutant("breaches: gain >= gain_high -> >", "alarms.py",
           "(gain >= th.gain_high)", "(gain > th.gain_high)",
           "test_alarms.py::TestBreachFlags::test_upper_bounds_count_as_breaches"),
    Mutant("degenerate hour: p_ks <= p_ks_min -> <", "alarms.py",
           "ks=p_ks <= th.p_ks_min", "ks=p_ks < th.p_ks_min",
           "test_alarms.py::TestEngine::test_degenerate_hour_breaches_similarity_on_the_bound"),
    Mutant("persistence: breach_hours > tf_hours -> >=", "alarms.py",
           "breach_hours[i] > th.tf_hours", "breach_hours[i] >= th.tf_hours",
           "test_acceptance.py::test_c06_persistence_boundaries"),
    Mutant("ks_distance rows: (m + 1.0) divisor -> m", "kernels.py",
           "count_a / (m[:, None] + 1.0)", "count_a / m[:, None]",
           "test_acceptance.py::test_c01_sup_distance_matches_bruteforce_oracle"),
    Mutant("ks_distance rows: (n + 1.0) divisor -> n", "kernels.py",
           "count_b / (n[:, None] + 1.0)", "count_b / n[:, None]",
           "test_acceptance.py::test_c01_sup_distance_matches_bruteforce_oracle"),
    Mutant("ks_distance rows: a tie run read at its first element", "kernels.py",
           "run_end[:, :-1] &= values[:, :-1] != values[:, 1:]",
           "run_end[:, 1:] &= values[:, 1:] != values[:, :-1]",
           "test_kernels.py::test_distance_rows_equal_the_oracle_bit_for_bit"),
    Mutant("window_moments: size - 1 divisor -> size", "kernels.py",
           "/ (size - 1)", "/ size",
           "test_alarms.py::TestBatchRun::test_run_measures_as_the_one_window_api[th0]"),
    Mutant("window_complete: share >= completeness_min -> >", "timeseries.py",
           "count / td_hours >= completeness_min", "count / td_hours > completeness_min",
           "test_alarms.py::TestEngine::test_one_completeness_rule[100-55]"),
    Mutant("estimate_rows: var_y > DEGENERATE_VAR_EPS -> >=", "calibrate.py",
           "var_y > DEGENERATE_VAR_EPS", "var_y >= DEGENERATE_VAR_EPS",
           "test_alarms.py::TestEngine::test_variance_on_the_flat_bound_is_degenerate"),
    Mutant("estimate_rows: offset without the gain", "calibrate.py",
           "return mean_z - gain * mean_y, gain", "return mean_z - mean_y, gain",
           "test_acceptance.py::test_c04_correction_matches_proxy_moments"),
    Mutant("trend_at: clamp to the last estimate dropped", "calibrate.py",
           "min(stamp, self.stamps[-1])", "stamp",
           "test_alarms.py::TestBatchRun::test_kept_trend_equals_trend_at[GAIN]"),
    Mutant("EstimateHistory._fit_at: zero gain floor dropped", "calibrate.py",
           "gain if gain > 0.0 else 0.0", "gain",
           "test_calibrate.py::TestQuadraticTrend::test_fitted_gain_is_floored_at_zero"),
    Mutant("EstimateHistory.extend: zero gain floor dropped", "calibrate.py",
           "np.where(fit_gain > 0.0, fit_gain, 0.0)", "fit_gain",
           "test_calibrate.py::TestQuadraticTrend::test_fitted_gain_is_floored_at_zero"),
    Mutant("_terms: the u^3 sum written as u^4", "calibrate.py",
           "u2 * u, u2 * u2,", "u2 * u2, u2 * u2,",
           "test_calibrate.py::TestQuadraticTrend::test_coefficients_recover_exact_quadratic"),
    Mutant("SiteEngine._measure: a slot serves another hour", "alarms.py",
           "if slot is None or slot[0] != stamp:", "if slot is None:",
           "test_alarms.py::TestEngine::test_trend_band_edges_enter_the_trend[gain-min]"),
    Mutant("SiteEngine._measure: a later hour's slot serves an earlier one", "alarms.py",
           "slot[0] != stamp", "slot[0] < stamp",
           "test_alarms.py::TestLockstepBatch::test_batches_step_as_private_engines_and_run"),
    Mutant("_measure_together: peers not in step join the batch", "alarms.py",
           "if e.ledger.last_stamp == last and", "if",
           "test_alarms.py::TestLockstepBatch::test_engines_in_step_measure_a_tick_in_one_call"),
    Mutant("_measure_together: every engine a batch of one", "alarms.py",
           "live = list(_live)", "live = []",
           "test_alarms.py::TestLockstepBatch::test_engines_in_step_measure_a_tick_in_one_call"),
    Mutant("_measure_together: the windows of the hour before", "alarms.py",
           "window_bounds(series.hours, stamp, td_hours)",
           "window_bounds(series.hours, stamp - 1, td_hours)",
           "test_alarms.py::TestEngine::test_one_completeness_rule[100-55]"),
    Mutant("_measure_together: another series' bounds serve an engine's sensor", "alarms.py",
           "= bounds[sensor, td_hours], bounds[proxy, td_hours]",
           "= next(iter(bounds.values())), bounds[proxy, td_hours]",
           "test_alarms.py::TestSharedProxyWindow::"
           "test_shared_proxy_steps_as_private_proxies_and_run"),
    Mutant("_measure_together: one window length's bounds serve another", "alarms.py",
           "            if (series, td_hours) not in bounds:\n"
           "                # plain ints: numpy scalars make the slicing and comparisons slower\n"
           "                bounds[series, td_hours] = "
           "window_bounds(series.hours, stamp, td_hours).tolist()\n"
           "        (s_lo, s_hi), (p_lo, p_hi) = "
           "bounds[sensor, td_hours], bounds[proxy, td_hours]",
           "            if series not in bounds:\n"
           "                bounds[series] = "
           "window_bounds(series.hours, stamp, td_hours).tolist()\n"
           "        (s_lo, s_hi), (p_lo, p_hi) = bounds[sensor], bounds[proxy]",
           "test_alarms.py::TestSharedProxyWindow::"
           "test_shared_proxy_steps_as_private_proxies_and_run"),
    Mutant("_measure_together: every engine measured at the batching engine's window length",
           "alarms.py", "other.proxy, other.thresholds.td_hours",
           "other.proxy, engine.thresholds.td_hours",
           "test_alarms.py::TestSharedProxyWindow::"
           "test_shared_proxy_steps_as_private_proxies_and_run"),
    Mutant("_measure_together: every non-empty pair of windows is assessed", "alarms.py",
           "if window_complete(min(s_hi - s_lo, p_hi - p_lo), td_hours,\n"
           "                           other.thresholds.completeness_min):",
           "if min(s_hi - s_lo, p_hi - p_lo) > 0:",
           "test_alarms.py::TestEngine::test_insufficient_data_passes_raw_through"),
    Mutant("_measure_together: completeness read from the batching engine's thresholds",
           "alarms.py", "other.thresholds.completeness_min", "engine.thresholds.completeness_min",
           "test_alarms.py::TestSharedProxyWindow::"
           "test_shared_proxy_steps_as_private_proxies_and_run"),
    Mutant("_measure_together: a row paired with another engine's proxy window", "alarms.py",
           "_measure_rows(y, z)", "_measure_rows(y, z[::-1])",
           "test_alarms.py::TestSharedProxyWindow::"
           "test_shared_proxy_steps_as_private_proxies_and_run"),
    Mutant("_measure_rows: every row given the first window's length", "alarms.py",
           "np.array([window.size for window in windows])",
           "np.array([windows[0].size for window in windows])",
           "test_acceptance.py::test_c07_drift_scenario_corrected_below_uncorrected"),
    Mutant("ks_pvalue: small-sample term dropped", "kstest.py",
           "(root + 0.12 + 0.11 / root) * d", "root * d",
           "test_kstest.py::TestPvalue::test_known_tail_value"),
    Mutant("step: correction clip floor VALUE_MIN -> 0.0", "alarms.py",
           "VALUE_MIN)", "0.0)",
           "test_alarms.py::TestEngine::"
           "test_corrected_readings_clip_to_reporting_range[<lambda>-0.0--10.0]"),
    Mutant("SiteEngine.run: block one hour short", "alarms.py",
           "assessed[lo:lo + _BLOCK_HOURS]", "assessed[lo:lo + _BLOCK_HOURS - 1]",
           "test_alarms.py::TestEngine::test_trend_band_edges_enter_the_trend[gain-min]"),
    Mutant("SiteEngine.run: last assessed hour left out of the blocks", "alarms.py",
           "range(0, assessed.size, _BLOCK_HOURS)", "range(0, assessed.size - 1, _BLOCK_HOURS)",
           "test_alarms.py::TestEngine::test_one_completeness_rule[100-55]"),
    Mutant("SiteEngine.run: every other block skipped", "alarms.py",
           "range(0, assessed.size, _BLOCK_HOURS)", "range(0, assessed.size, 2 * _BLOCK_HOURS)",
           "test_alarms.py::TestEngine::"
           "test_corrected_readings_clip_to_reporting_range[<lambda>-300.0-500.0]"),
    Mutant("SiteEngine.run: each sensor window cut one sample short", "alarms.py",
           "[sensor[a:b] for a, b in", "[sensor[a:b - 1] for a, b in",
           "test_alarms.py::TestEngine::test_one_completeness_rule[100-55]"),
    Mutant("Thresholds: timescale bound raised past int64", "alarms.py",
           "TIMESCALE_MAX_HOURS = 2**31 - 1", "TIMESCALE_MAX_HOURS = 10**30",
           "test_alarms.py::TestThresholds::test_timescales_bounded_by_the_longest[td_hours]"),
    Mutant("Scenario: an hour past 9999-12-31T23:00:00Z accepted", "simulate.py",
           "self.duration_hours - 1 > HOUR_MAX", "self.duration_hours - 1 > HOUR_MAX + 1",
           "test_io_cli.py::TestSimulateCommand::test_hours_past_year_9999_are_input_error[25]"),
    Mutant("idw_grid: a grid of exactly IDW_MAX_CELLS rejected", "metrics.py",
           "n_lat * n_lon > IDW_MAX_CELLS", "n_lat * n_lon >= IDW_MAX_CELLS",
           "test_metrics.py::TestIdwGrid::test_grid_of_more_than_the_cap_rejected"),
    Mutant("idw_grid: each band one cell short", "metrics.py",
           "cells[lo:lo + _IDW_BAND_CELLS]", "cells[lo:lo + _IDW_BAND_CELLS - 1]",
           "test_metrics.py::TestIdwGrid::test_values_match_a_cell_by_cell_oracle[band]"),
    Mutant("idw_grid: of exact hits equally near, the highest site index wins", "metrics.py",
           "np.where(exact, dists, np.inf).argmin(axis=1)",
           "(dists.shape[1] - 1 - np.where(exact, dists, np.inf)[:, ::-1].argmin(axis=1))",
           "test_metrics.py::TestIdwGrid::test_values_match_a_cell_by_cell_oracle[band-1]"),
    Mutant("check_site_ids: an id with surrounding whitespace accepted", "io.py",
           " or sid != sid.strip()", "",
           "test_io_cli.py::TestSimulateCommand::"
           "test_site_id_with_surrounding_whitespace_is_input_error[LC ]"),
    Mutant("SiteSpec: a reference's sensor model accepted", "simulate.py",
           "ROLE_REFERENCE and self.sensor is not None", "ROLE_REFERENCE and False",
           "test_io_cli.py::TestSimulateCommand::"
           "test_reference_with_a_sensor_model_is_input_error"),
    Mutant("DriftSegment: a gain_ramp to a gain of 0 accepted", "simulate.py",
           "and not self.target > 0", "and not self.target >= 0",
           "test_io_cli.py::TestSimulateCommand::test_gain_ramp_to_no_gain_is_input_error[0.0]"),
    Mutant("apply_sensor_model: an effective gain of 0 accepted", "simulate.py",
           'if not (eff["gain_ramp"] > 0).all():', 'if not (eff["gain_ramp"] >= 0).all():',
           "test_io_cli.py::TestSimulateCommand::"
           "test_gain_ramp_rounded_to_no_gain_is_input_error"),
    Mutant("apply_sensor_model: a ramp's target not held after its end", "simulate.py",
           "np.where(rel >= seg.start_hour,",
           "np.where((rel >= seg.start_hour) & (rel <= seg.end_hour),",
           "test_acceptance.py::test_c07_drift_scenario_corrected_below_uncorrected"),
    Mutant("apply_sensor_model: a flat run from hour 0 holds the series' last reading",
           "simulate.py", "np.where(flat_mask, 0, np.arange(n))",
           "np.where(flat_mask, -1, np.arange(n))",
           "test_simulate.py::TestSensorModel::test_matches_a_per_hour_oracle"),
    Mutant("network_median_series: kept hours counted from 0, not the first hour", "proxy.py",
           "np.flatnonzero(keep) + lo", "np.flatnonzero(keep)",
           "test_acceptance.py::test_c09_nearest_proxy_ranks_first"),
    Mutant("idw_grid: a power of 0 accepted", "metrics.py", "if power <= 0:", "if power < 0:",
           "test_io_cli.py::TestMapCommand::test_power_not_above_zero_is_input_error[0]"),
    Mutant("heatmap colours: a channel's .5 tie rounded up, not to even", "svgout.py",
           "np.rint(a + (b - a) * f)", "np.floor(a + (b - a) * f + 0.5)",
           "test_svgout.py::test_colors_equal_the_per_cell_rule"),
    Mutant("idw_grid: a field that is not finite accepted", "metrics.py",
           "if not np.isfinite(flat[band]).all():", "if False:",
           "test_io_cli.py::TestMapCommand::"
           "test_power_whose_weights_break_down_is_input_error[400]"),
    Mutant("format_iso_hour: year not zero-padded", "timeseries.py",
           '.isoformat() + "Z"', '.strftime("%Y-%m-%dT%H:%M:%SZ")',
           "test_io_cli.py::TestSimulateCommand::test_stamps_before_year_1000_round_trip"),
    Mutant("json_loads: numbers beyond the floats accepted", "io.py",
           "if math.isinf(float(text)):", "if False:",
           "test_io_cli.py::TestNetworkConfig::"
           "test_number_beyond_the_floats_is_input_error[validate-float]"),
    Mutant("ProxyPolicy: an override may be any JSON value", "io.py",
           "overrides: dict[str, str]", "overrides: dict",
           "test_io_cli.py::TestNetworkConfig::test_bad_shape_is_input_error"
           "[validate-change3-'proxy.overrides.LC' must be a JSON string, got list]"),
    Mutant("write_summary_csv: lines end in \\r\\n", "io.py", ', end="\\n")', ")",
           "test_io_cli.py::TestResultWriters::test_summary_bytes_equal_csv_writer"),
    Mutant("scan_series_csv: VALUE_MIN itself out of range", "io.py",
           "(values >= VALUE_MIN)", "(values > VALUE_MIN)",
           "test_io_cli.py::TestSeriesCsv::test_columnar_reader_equals_per_row_reader"),
    Mutant("scan_series_csv: VALUE_MAX itself out of range", "io.py",
           "(values <= VALUE_MAX)", "(values < VALUE_MAX)",
           "test_io_cli.py::TestSeriesCsv::test_columnar_reader_equals_per_row_reader"),
    Mutant("scan_series_csv: rows of four fields pass the 3-field check", "io.py",
           "len(rows)) != 3", "len(rows)) < 3",
           "test_io_cli.py::TestSeriesCsv::test_columnar_reader_equals_per_row_reader"),
    Mutant("_number: a value holding an underscore read as a number", "io.py",
           'if "_" in text or not text.isascii():', "if not text.isascii():",
           "test_io_cli.py::TestValidateCommand::"
           "test_forms_outside_the_documented_syntax_are_issues[underscore]"),
    Mutant("parse_iso_hour: a one-digit month accepted", "timeseries.py",
           "[0-9]{4}-[0-9]{2}-", "[0-9]{4}-[0-9]{1,2}-",
           "test_timeseries.py::TestIsoHours::"
           "test_rejects_what_is_not_zero_padded_ascii[2018-1-05T05:00:00Z]"),
    Mutant("scan_series_csv: a record numbered one line after the last one's start", "io.py",
           "starts.append(reader.line_num + 1)", "starts.append(starts[-1] + 1)",
           "test_io_cli.py::TestSeriesCsv::"
           "test_a_record_that_spans_lines_is_numbered_by_its_first_line"),
    Mutant("scan_series_csv: of a duplicate (site, hour) the last row is kept", "io.py",
           "again[1:] = ", "again[:-1] = ",
           "test_io_cli.py::TestSeriesCsv::test_duplicate_reports_both_lines"),
    Mutant("cli: --td-hours and --tf-hours set each other's field", "cli.py",
           '("--td-hours", "td_hours", int, "rolling window length, hours"),\n'
           '    ("--tf-hours", "tf_hours", int, "persistence before alarm, hours"),',
           '("--td-hours", "tf_hours", int, "rolling window length, hours"),\n'
           '    ("--tf-hours", "td_hours", int, "persistence before alarm, hours"),',
           "test_io_cli.py::TestThresholdFlags::"
           "test_each_flag_sets_its_own_field[--td-hours-48-td_hours-run]"),
    Mutant("cmd_run: a site with no proxy data loses its proxy's label", "cli.py",
           "(site.site_id, proxy_label, 0,", '(site.site_id, "-", 0,',
           "test_io_cli.py::TestRunCommand::test_skipped_site_summary_bytes"
           "[no proxy data-LC,REF,0,0.0000,0.0000,0.0000,0.0000,no proxy data]"),
    Mutant("cmd_proxy_eval: one reference a runtime failure (exit 2)", "cli.py",
           'raise ConfigError("proxy evaluation needs', 'raise OzonetError("proxy evaluation needs',
           "test_io_cli.py::TestErrorExits::test_proxy_eval_with_one_reference"),
    Mutant("map_shared: results taken in share order, not item order", "io.py",
           "k, j = i % n, i // n", "k, j = divmod(i, -(-len(items) // n))",
           "test_map_shared.py::TestMapShared::test_results_in_item_order[3-2]"),
    Mutant("map_shared: a share runs on past its first failure", "io.py",
           "        except Exception:\n            break\n    return done",
           "        except Exception:\n            continue\n    return done",
           "test_map_shared.py::TestMapShared::"
           "test_results_end_at_the_first_failure_in_item_order[2-failing0-1]"),
    Mutant("map_shared: the parent's own share skipped", "io.py",
           "_run_share(job, items[0::n])", "_run_share(job, [])",
           "test_map_shared.py::TestMapShared::test_results_in_item_order[3-2]"),
    Mutant("cmd_run: a site whose files fail to move is not replayed in place", "cli.py",
           "del rows[k:]", "pass",
           "test_map_shared.py::TestCommandsOnEveryCpuCount::test_same_failure_at_a_later_site"),
    Mutant("cmd_run: the site whose files fail to move counted as moved", "cli.py",
           "del rows[k:]", "del rows[k + 1:]",
           "test_map_shared.py::test_each_write_failing_in_turn[2-move-False]"),
    Mutant("cmd_run: the fallback in place skips the first site left", "cli.py",
           "replays[len(rows):]", "replays[len(rows) + 1:]",
           "test_map_shared.py::test_each_write_failing_in_turn[2-chart-False]"),
    Mutant("SiteEngine.step: a float hour read as an int", "alarms.py",
           "stamp = operator.index(stamp)\n        last_stamp = self.ledger.last_stamp",
           "stamp = int(stamp)\n        last_stamp = self.ledger.last_stamp",
           "test_timeseries.py::TestHourEntries::"
           "test_rejects_what_is_not_an_integer[SiteEngine.step-float]"),
    Mutant("_read_csv: a bad byte's line counted by \\n alone", "io.py",
           'line = len(StringIO(data[:exc.start].decode("utf-8") + "x", newline="").readlines())',
           'line = data.count(b"\\n", 0, exc.start) + 1',
           "test_io_cli.py::TestSeriesCsv::test_a_bad_byte_is_numbered_as_every_other_issue[cr]"),
]


def run_suite(src: Path, workdir: Path, node: str = "") -> tuple[int, str]:
    """Tier-1 with -x (or the one test `node`) against the package in `src`,
    from `workdir` so that caches and the hypothesis database stay out of
    the checkout."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile", "mutants", str(ROOT / "tests" / node)]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    # the node id runs to the " - " before the message; a parameter id may hold spaces
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.M)
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
            killed = False
            if mutant.killer is not None:
                code, detail = run_suite(src, workdir, mutant.killer)
                killed = code == 1
                if not killed:
                    print(f"stale     {mutant.name}: killer {mutant.killer} ended with "
                          f"exit {code}; running the suite", flush=True)
            if not killed:
                code, detail = run_suite(src, workdir)
                killed = code != 0
            print(f"{'killed' if killed else 'SURVIVED':9} {mutant.name}"
                  + (f"  [{detail}]" if killed else ""), flush=True)
            problems += not killed
            shutil.rmtree(workdir)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
