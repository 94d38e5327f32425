"""Command-line surface: validate, run, proxy-eval, simulate, map.

Exit codes: 0 success, 1 input error, 2 runtime failure. Series paths on
the command line override the list in the configuration file; relative
paths in the config resolve against the config file's directory. The
output directory comes from --out, else the OZONET_OUT_DIR environment
variable, else the config (simulate: sim_out).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import shutil
import sys
from pathlib import Path

from ozonet import io as ozio
from ozonet.alarms import SiteEngine
from ozonet.errors import ConfigError, InsufficientDataError, OzonetError
from ozonet.metrics import idw_grid
from ozonet.proxy import (
    ROLE_LOW_COST,
    ROLE_REFERENCE,
    STRATEGY_AADT,
    STRATEGY_EXPLICIT,
    STRATEGY_MEDIAN,
    STRATEGY_NEAREST,
    evaluate_proxy,
    nearest_reference,
    network_median_series,
    similar_aadt,
)
from ozonet.simulate import Scenario, run_scenario
from ozonet.svgout import heatmap_svg, proxy_eval_svg
from ozonet.timeseries import parse_iso_hour

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


# Threshold flags of run and proxy-eval: (flag, Thresholds field, type, help)
THRESHOLD_FLAGS = (
    ("--td-hours", "td_hours", int, "rolling window length, hours"),
    ("--tf-hours", "tf_hours", int, "persistence before alarm, hours"),
    ("--alarm-count", "correction_alarm_count", int,
     "latched alarms required before correcting (1 to 3)"),
    ("--completeness-min", "completeness_min", float,
     "minimum window completeness fraction"),
)


def _network(args):
    """(config, series paths) of a network command.

    The command line's threshold flags override the config's thresholds.
    The command line's series paths replace the config's list, whose
    relative paths resolve against the config file's directory.
    """
    config_path = Path(args.config)
    config = ozio.load_network_config(config_path)
    flags = {field: getattr(args, field) for _, field, _, _ in THRESHOLD_FLAGS
             if getattr(args, field, None) is not None}
    try:
        config.thresholds = dataclasses.replace(config.thresholds, **flags)
    except ValueError as exc:
        raise ConfigError(f"bad threshold flag: {exc}") from exc
    if args.series:
        return config, [Path(p) for p in args.series]
    return config, [config_path.parent / p for p in config.series]


def _out_dir(args, default) -> Path:
    """--out, else the OZONET_OUT_DIR environment variable, else `default`."""
    return Path(args.out or os.environ.get("OZONET_OUT_DIR") or default)


def _proxy_series(site, strategy, config, series_map, medians):
    """(label, proxy TimeSeries) for `site` under one strategy; the series
    is None or empty when the proxy has no data.

    Network medians are built once per exclude set and kept in `medians`.
    Raises InsufficientDataError when no eligible reference exists, and
    under the explicit strategy, which uses overrides only.
    """
    if strategy == STRATEGY_EXPLICIT:
        raise InsufficientDataError(
            f"no proxy override for {site.site_id} under the explicit strategy")
    if strategy == STRATEGY_MEDIAN:
        policy = config.proxy
        exclude = (site.site_id,) if policy.median_exclude_self else ()
        if exclude not in medians:
            medians[exclude] = network_median_series(
                list(series_map.values()), policy.median_min_reporters, exclude)
        return STRATEGY_MEDIAN, medians[exclude]
    if strategy == STRATEGY_AADT:
        assignment = similar_aadt(site, config.sites)
    else:
        assignment = nearest_reference(site, config.sites)
    return assignment.proxy_site_id, series_map.get(assignment.proxy_site_id)


# ------------------------------------------------------------------ validate

def cmd_validate(args) -> int:
    config, paths = _network(args)
    if not paths:
        raise ConfigError("no series files configured")
    series, report = ozio.scan_series_csv(paths)
    known = {s.site_id for s in config.sites}
    for sid in sorted(series):
        if sid not in known:
            report.issues.append(ozio.SeriesIssue(
                "-", 0, "site_id", f"series present for unconfigured site {sid}"))
    print(report.render())
    return EXIT_OK if report.ok else EXIT_INPUT


# ----------------------------------------------------------------------- run

def cmd_run(args) -> int:
    config, paths = _network(args)
    series_map = ozio.read_series_csv(paths)
    out = _out_dir(args, config.output_dir)

    overrides = config.proxy.overrides
    medians = {}
    summary = []        # one row per low-cost site, in config order
    jobs = {}           # summary index -> (site id, proxy label, sensor, proxy series)
    for site in config.sites:
        if site.role != ROLE_LOW_COST:
            continue
        proxy_label = "-"     # until a proxy is known
        try:
            sensor = series_map.get(site.site_id)
            if sensor is None or not len(sensor):
                raise InsufficientDataError("no sensor data")
            if site.site_id in overrides:
                proxy_label = overrides[site.site_id]
                proxy_series = series_map.get(proxy_label)
            else:
                proxy_label, proxy_series = _proxy_series(
                    site, config.proxy.strategy, config, series_map, medians)
            if proxy_series is None or not len(proxy_series):
                raise InsufficientDataError("no proxy data")
        except InsufficientDataError as exc:
            summary.append((site.site_id, proxy_label, 0, 0.0, 0.0, 0.0, 0.0, str(exc)))
            continue
        jobs[len(summary)] = (site.site_id, proxy_label, sensor, proxy_series)
        summary.append(None)

    def replay(root, site_id, proxy_label, sensor, proxy_series):
        result = SiteEngine(site_id, sensor, proxy_series, config.thresholds).run()
        ozio.write_corrected_csv(root / "corrected" / f"{site_id}.csv", result.rows)
        ozio.write_chart_csv(root / "charts" / f"{site_id}.csv", result.rows)
        note = "" if result.monitored else "no monitored hours"
        return (site_id, proxy_label, result.monitored,
                *result.alarm_fractions().values(), result.corrected_fraction(), note)

    # The sites replay over the CPUs into a staging directory, and their
    # files move into place in config order up to the first site that failed
    # there or fails to move. That site and those after it replay here,
    # writing in place: a failure leaves the files and the message of a
    # serial run, whatever the CPU count.
    replays = list(jobs.values())
    stage = out / f".run-{os.getpid()}"
    try:
        rows = ozio.map_shared(lambda job: replay(stage, *job), replays)
        for k, (site_id, *_) in enumerate(replays[:len(rows)]):
            try:
                for name in (Path("corrected", f"{site_id}.csv"),
                             Path("charts", f"{site_id}.csv")):
                    (out / name).parent.mkdir(parents=True, exist_ok=True)
                    os.replace(stage / name, out / name)
            except OSError:
                del rows[k:]
                break
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    rows += [replay(out, *job) for job in replays[len(rows):]]
    for index, row in zip(jobs, rows):
        summary[index] = row

    header = (f"{'site':<14}{'proxy':<18}{'hours':>7}{'ks%':>7}{'a0%':>7}"
              f"{'a1%':>7}{'corr%':>7}  note")
    lines = [header]
    for sid, proxy_label, hours, ks, a0, a1, corr, note in summary:
        lines.append(f"{sid:<14}{proxy_label:<18}{hours:>7}{100 * ks:>7.1f}"
                     f"{100 * a0:>7.1f}{100 * a1:>7.1f}{100 * corr:>7.1f}  {note}")
    print("\n".join(lines))
    ozio.write_summary_csv(out / "summary.csv", summary)
    if not jobs:
        raise OzonetError("no site could be monitored")
    return EXIT_OK


# ---------------------------------------------------------------- proxy-eval

def cmd_proxy_eval(args) -> int:
    config, paths = _network(args)
    series_map = ozio.read_series_csv(paths)
    out = _out_dir(args, config.output_dir)

    refs = [s for s in config.sites if s.role == ROLE_REFERENCE]
    if len(refs) < 2:
        raise ConfigError("proxy evaluation needs at least two reference sites")

    medians = {}
    outcomes = []       # a warning or a score per (reference, strategy), in loop order
    jobs = {}           # outcome index -> (site id, strategy, test series, proxy series)
    for site in refs:
        test_series = series_map.get(site.site_id)
        if test_series is None:
            outcomes.append(f"warning: no data for reference {site.site_id}, skipped")
            continue
        for strategy in (STRATEGY_NEAREST, STRATEGY_MEDIAN, STRATEGY_AADT):
            try:
                _, proxy_series = _proxy_series(site, strategy, config, series_map, medians)
            except InsufficientDataError:
                continue
            if proxy_series is None or not len(proxy_series):
                outcomes.append(f"warning: {strategy} proxy for {site.site_id} has no data")
                continue
            jobs[len(outcomes)] = (site.site_id, strategy, test_series, proxy_series)
            outcomes.append(None)

    def score(site_id, strategy, test_series, proxy_series):
        try:
            return evaluate_proxy(test_series, proxy_series, config.thresholds, strategy)
        except InsufficientDataError as exc:
            return f"warning: {site_id}/{strategy}: {exc}"

    # pairs from the first that failed over the CPUs on are scored here, in
    # order, so that a failure follows the warnings a serial run prints
    done = dict(zip(jobs, ozio.map_shared(lambda job: score(*job), jobs.values())))
    scores = []
    for index, outcome in enumerate(outcomes):
        if index in jobs:
            outcome = done[index] if index in done else score(*jobs[index])
        if isinstance(outcome, str):
            print(outcome, file=sys.stderr)
        else:
            scores.append(outcome)

    if not scores:
        raise OzonetError("no (site, strategy) pair could be evaluated")
    ozio.write_proxy_scores_csv(out / "proxy_scores.csv", scores)
    proxy_eval_svg(scores, out / "proxy_eval.svg")
    print(f"{'site':<14}{'strategy':<18}{'ks%':>7}{'a0%':>7}{'a1%':>7}"
          f"{'corr%':>7}{'mab':>8}{'r2':>7}")
    for s in scores:
        r2 = "" if s.r2 is None else f"{s.r2:.3f}"
        print(f"{s.site_id:<14}{s.strategy:<18}{100 * s.alarm_fraction_ks:>7.1f}"
              f"{100 * s.alarm_fraction_offset:>7.1f}{100 * s.alarm_fraction_gain:>7.1f}"
              f"{100 * s.corrected_fraction:>7.1f}{s.mab:>8.2f}{r2:>7}")
    return EXIT_OK


# ------------------------------------------------------------------ simulate

def cmd_simulate(args) -> int:
    scenario_path = Path(args.scenario)
    try:
        data = ozio.json_loads(scenario_path.read_text(encoding="utf-8"))
        scenario = Scenario.from_dict(data)
        result = run_scenario(scenario)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {scenario_path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario {scenario_path}: {exc}") from exc

    out = _out_dir(args, "sim_out")
    ozio.write_series_csv(out / "observed.csv", result.observed)
    ozio.write_series_csv(out / "truth.csv", result.truth)
    ozio.write_json(out / "manifest.json", result.manifest)
    network = ozio.NetworkConfig(sites=result.records, series=["observed.csv"],
                                 output_dir="run_out")
    ozio.save_network_config(network, out / "network.json")
    print(f"wrote {len(result.observed)} observed and {len(result.truth)} truth "
          f"series to {out} (seed {scenario.seed}, "
          f"config {result.manifest['config_sha256'][:12]})")
    return EXIT_OK


# ----------------------------------------------------------------------- map

def _parse_bbox(text: str):
    try:
        lat_min, lat_max, lon_min, lon_max = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad bbox {text!r}: expected latmin,latmax,lonmin,lonmax") from exc
    return lat_min, lat_max, lon_min, lon_max


def cmd_map(args) -> int:
    config, paths = _network(args)
    series_map = ozio.read_series_csv(paths)
    out = _out_dir(args, config.output_dir)
    try:
        hour = parse_iso_hour(args.hour)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    site_map = config.site_map()
    points = []
    for sid, series in series_map.items():
        record = site_map.get(sid)
        value = series.value_at(hour)
        if record is not None and value is not None:
            points.append((record, value))
    if not points:
        raise ConfigError(f"no site reported at {args.hour}")

    if args.bbox:
        bbox = _parse_bbox(args.bbox)
    else:
        lats = [r.latitude for r, _ in points]
        lons = [r.longitude for r, _ in points]
        pad = max(args.cell, 0.02)
        bbox = (min(lats) - pad, max(lats) + pad, min(lons) - pad, max(lons) + pad)

    def grid(site_points):
        try:
            return idw_grid([(r.latitude, r.longitude, v) for r, v in site_points],
                            *bbox, cell_deg=args.cell, power=args.power)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    full = grid(points)
    panels = [("all sites", full)]
    if args.split:
        ref_points = [(r, v) for r, v in points if r.role == ROLE_REFERENCE]
        if not ref_points:
            raise ConfigError("--split needs at least one reporting reference site")
        panels.insert(0, ("reference only", grid(ref_points)))
    # every grid is made before any file is written: an input error leaves --out as it was
    ozio.write_grid_csv(out / "grid.csv", full)
    if args.split:
        ozio.write_grid_csv(out / "grid_reference.csv", panels[0][1])
    heatmap_svg(panels, out / "map.svg",
                sites=[(r.latitude, r.longitude) for r, _ in points])
    print(f"wrote {out / 'grid.csv'} and {out / 'map.svg'} "
          f"({len(points)} sites at {args.hour})")
    return EXIT_OK


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ozonet",
        description="Proxy-based monitoring and semi-blind recalibration "
                    "for hierarchical ozone sensor networks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("config")
    inputs.add_argument("series", nargs="*")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output directory")
    thresholds = argparse.ArgumentParser(add_help=False)
    for flag, field, kind, text in THRESHOLD_FLAGS:
        # help shows the flag's own name, not the field's
        thresholds.add_argument(flag, dest=field, type=kind, help=text,
                                metavar=flag[2:].upper().replace("-", "_"))

    p = subs.add_parser("validate", parents=[inputs],
                        help="check series files against the schema")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("run", parents=[inputs, out, thresholds],
                        help="monitor and correct every low-cost site")
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("proxy-eval", parents=[inputs, out, thresholds],
                        help="score proxy strategies against reference sites")
    p.set_defaults(func=cmd_proxy_eval)

    p = subs.add_parser("simulate", parents=[out], help="generate a synthetic network dataset")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("map", parents=[inputs, out], help="grid one hour of the network by IDW")
    p.add_argument("--hour", required=True, help="ISO hour, e.g. 2018-03-05T14:00:00Z")
    p.add_argument("--bbox", help="latmin,latmax,lonmin,lonmax (default: site extent)")
    p.add_argument("--cell", type=float, default=0.02, help="cell size, degrees")
    p.add_argument("--power", type=float, default=2.0, help="IDW distance power, > 0")
    p.add_argument("--split", action="store_true",
                   help="also grid the reference network alone, side by side")
    p.set_defaults(func=cmd_map)
    return parser


def main(argv=None) -> int:
    # a character the locale's encoding lacks (a UTF-8 site id under the C
    # locale) is escaped on stdout, as Python escapes it on stderr
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OzonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        # inputs that cannot be read are input errors before this point
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
