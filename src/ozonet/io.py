"""File formats: series CSV, network configuration, result exports.

The series format is a plain CSV with header `timestamp,site_id,value_ppb`;
timestamps are ISO-8601 UTC on whole hours (YYYY-MM-DDTHH:00:00Z). Input
row order is free; outputs are always sorted by (site_id, timestamp).
Configuration is a single JSON document, documented in the README.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ozonet.alarms import HistoryRow, Thresholds
from ozonet.errors import ConfigError
from ozonet.proxy import (
    STRATEGY_AADT,
    STRATEGY_EXPLICIT,
    STRATEGY_MEDIAN,
    STRATEGY_NEAREST,
    SiteRecord,
)
from ozonet.timeseries import (
    TimeSeries,
    VALUE_MAX,
    VALUE_MIN,
    format_iso_hour,
    parse_iso_hour,
)

SERIES_HEADER = ["timestamp", "site_id", "value_ppb"]
CHART_HEADER = [
    "timestamp", "p_ks", "a0_raw", "a1_raw", "a0_trend", "a1_trend",
    "breach_ks", "breach_a0", "breach_a1", "alarm_ks", "alarm_a0", "alarm_a1",
    "corrected_flag", "raw_value", "output_value",
]
CORRECTED_HEADER = ["timestamp", "raw", "output", "corrected_flag"]
PROXY_SCORE_HEADER = [
    "site_id", "strategy", "alarm_frac_ks", "alarm_frac_a0", "alarm_frac_a1",
    "corrected_frac", "mab", "r2", "monitored_hours",
]

_VALID_STRATEGIES = (STRATEGY_NEAREST, STRATEGY_MEDIAN, STRATEGY_AADT, STRATEGY_EXPLICIT)


# Bounded, but above a multi-year span: writers visit hours in order, so a
# span longer than the cache would evict every entry before its reuse.
@functools.lru_cache(maxsize=1 << 15)
def _iso_hour(hour: int) -> str:
    """format_iso_hour, computed once per distinct hour in a process."""
    return format_iso_hour(hour)


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open `path` for writing text through a sibling temporary file, which
    replaces `path` only once the block completes: a write that fails
    leaves the old file (or none) and no temporary file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _fmt_value(v: float) -> str:
    return f"{v:.4f}"


def _stats(column) -> list:
    return ["" if v is None else f"{v:.6g}" for v in column]


def _flags(column) -> list:
    return ["" if v is None else "1" if v else "0" for v in column]


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one of several fields: quoted, with
    its quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_columns(path, header, blocks):
    """CSV under `header` of each block of `blocks` in turn, a block being
    one sequence of strings per field. Fields are written as given, so one
    that needs quoting must come through _csv_field; lines end in "\r\n",
    as csv.writer ends them."""
    with atomic_write(path, newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for columns in blocks:
            handle.write("\r\n".join([*map(",".join, zip(*columns)), ""]))


# ---------------------------------------------------------------- series CSV

@dataclass
class SeriesIssue:
    path: str
    line: int          # 1-based, header is line 1
    column: str
    message: str

    def __str__(self):
        return f"{self.path}:{self.line} [{self.column}] {self.message}"


@dataclass
class CoverageRow:
    site_id: str
    n_hours: int
    first: int
    last: int

    @property
    def span_hours(self) -> int:
        return self.last - self.first + 1

    @property
    def completeness(self) -> float:
        return self.n_hours / self.span_hours


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)
    coverage: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        lines = []
        for issue in self.issues:
            lines.append(f"error: {issue}")
        lines.append(f"{'site':<16}{'hours':>8}{'first':>22}{'last':>22}{'complete':>10}")
        for row in sorted(self.coverage, key=lambda r: r.site_id):
            lines.append(
                f"{row.site_id:<16}{row.n_hours:>8}{_iso_hour(row.first):>22}"
                f"{_iso_hour(row.last):>22}{row.completeness:>10.3f}"
            )
        return "\n".join(lines)


def scan_series_csv(paths) -> tuple[dict, ValidationReport]:
    """Parse one or more series files, collecting every issue found.

    Returns ({site_id: TimeSeries}, report). The series dict contains only
    cleanly parsed data; callers that need strictness should check
    report.ok first.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    issues: list[SeriesIssue] = []
    seen: dict[tuple, tuple] = {}     # (site, hour) -> (path, line)
    hour_of: dict[str, int] = {}      # stamp text -> hour, parsed successfully once
    per_site: dict[str, list] = {}

    for path in paths:
        path = str(path)
        try:
            handle = open(path, newline="")
        except OSError as exc:
            issues.append(SeriesIssue(path, 0, "-", f"cannot open: {exc}"))
            continue
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                issues.append(SeriesIssue(path, 1, "-", "empty file"))
                continue
            if [h.strip() for h in header] != SERIES_HEADER:
                issues.append(SeriesIssue(
                    path, 1, "-",
                    f"bad header {header!r}, expected {','.join(SERIES_HEADER)}"))
                continue
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 3:
                    issues.append(SeriesIssue(path, lineno, "-",
                                              f"expected 3 fields, got {len(row)}"))
                    continue
                stamp_text, site_id, value_text = row[0].strip(), row[1].strip(), row[2].strip()
                hour = hour_of.get(stamp_text)
                if hour is None:
                    try:
                        hour = hour_of[stamp_text] = parse_iso_hour(stamp_text)
                    except ValueError as exc:
                        issues.append(SeriesIssue(path, lineno, "timestamp", str(exc)))
                        continue
                if not site_id:
                    issues.append(SeriesIssue(path, lineno, "site_id", "empty site id"))
                    continue
                try:
                    value = float(value_text)
                except ValueError:
                    issues.append(SeriesIssue(path, lineno, "value_ppb",
                                              f"not a number: {value_text!r}"))
                    continue
                if not math.isfinite(value) or not VALUE_MIN <= value <= VALUE_MAX:
                    issues.append(SeriesIssue(
                        path, lineno, "value_ppb",
                        f"value {value} outside [{VALUE_MIN}, {VALUE_MAX}]"))
                    continue
                key = (site_id, hour)
                if key in seen:
                    first_path, first_line = seen[key]
                    issues.append(SeriesIssue(
                        path, lineno, "timestamp",
                        f"duplicate of {first_path}:{first_line} "
                        f"(site {site_id} at {stamp_text})"))
                    continue
                seen[key] = (path, lineno)
                per_site.setdefault(site_id, []).append((hour, value))

    series = {}
    coverage = []
    for site_id, pairs in per_site.items():
        pairs.sort()
        hours = np.array([h for h, _ in pairs], dtype=np.int64)
        values = np.array([v for _, v in pairs], dtype=np.float64)
        series[site_id] = TimeSeries(site_id, hours, values)
        coverage.append(CoverageRow(site_id, len(pairs), int(hours[0]), int(hours[-1])))
    return series, ValidationReport(issues, coverage)


def read_series_csv(paths) -> dict:
    """Strict load: raises ConfigError naming the first problem found."""
    series, report = scan_series_csv(paths)
    if not report.ok:
        raise ConfigError(str(report.issues[0]))
    return series


def write_series_csv(path, series_map: dict):
    """Write all series sorted by (site_id, timestamp), one block per site."""
    _write_columns(path, SERIES_HEADER, (
        (list(map(_iso_hour, ts.hours.tolist())), itertools.repeat(_csv_field(site_id)),
         [f"{v:.4f}" for v in ts.values.tolist()])
        for site_id, ts in sorted(series_map.items())))


# ------------------------------------------------------------ result exports

def write_chart_csv(path, rows):
    """Control-chart history export, one row per stepped hour: the
    HistoryRow fields in order, without the status."""
    columns = list(zip(*rows)) or [()] * len(HistoryRow._fields)
    _write_columns(path, CHART_HEADER, [[
        list(map(_iso_hour, columns[0])), *map(_stats, columns[2:7]),
        *map(_flags, columns[7:14]), *map(_stats, columns[14:])]])


def write_corrected_csv(path, rows):
    """Per-site corrected output; hours without a sensor reading are gaps."""
    rows = [r for r in rows if r.raw_value is not None]
    stamp, *_, corrected, raw, output = list(zip(*rows)) or [()] * len(HistoryRow._fields)
    _write_columns(path, CORRECTED_HEADER, [[
        list(map(_iso_hour, stamp)), [f"{v:.4f}" for v in raw], [f"{v:.4f}" for v in output],
        _flags(corrected)]])


def write_proxy_scores_csv(path, scores):
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PROXY_SCORE_HEADER)
        for s in scores:
            writer.writerow([
                s.site_id, s.strategy,
                f"{s.alarm_fraction_ks:.4f}", f"{s.alarm_fraction_offset:.4f}",
                f"{s.alarm_fraction_gain:.4f}", f"{s.corrected_fraction:.4f}",
                f"{s.mab:.4f}", "" if s.r2 is None else f"{s.r2:.4f}",
                s.monitored_hours,
            ])


def write_grid_csv(path, grid):
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lat", "lon", "value_ppb"])
        for lat, lon, value in grid.cells():
            writer.writerow([f"{lat:.6f}", f"{lon:.6f}", _fmt_value(value)])


def write_json(path, payload: dict):
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ------------------------------------------------------------- network config

@dataclass
class ProxyPolicy:
    strategy: str = STRATEGY_NEAREST
    overrides: dict = field(default_factory=dict)    # test site -> proxy site
    median_min_reporters: int = 3
    median_exclude_self: bool = False

    def __post_init__(self):
        # a median of no reporters is no value
        if self.median_min_reporters < 1:
            raise ValueError("median_min_reporters must be at least 1")


@dataclass
class NetworkConfig:
    sites: list[SiteRecord]
    thresholds: Thresholds = field(default_factory=Thresholds)
    proxy: ProxyPolicy = field(default_factory=ProxyPolicy)
    series: list[str] = field(default_factory=list)    # paths, relative to the config
    output_dir: str = "out"

    def __post_init__(self):
        ids = [s.site_id for s in self.sites]
        if len(ids) != len(set(ids)):
            raise ConfigError("site ids must be unique")
        known = set(ids)
        for test, prox in self.proxy.overrides.items():
            if test not in known or prox not in known:
                raise ConfigError(f"proxy override {test} -> {prox} names unknown sites")
            if test == prox:
                raise ConfigError(f"site {test} cannot be its own proxy")
        if self.proxy.strategy not in _VALID_STRATEGIES:
            raise ConfigError(f"unknown proxy strategy {self.proxy.strategy!r}")

    def site_map(self) -> dict:
        return {s.site_id: s for s in self.sites}

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        try:
            return json_record(cls, json_value(data, dict, "the configuration"), "")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad configuration: {exc}") from exc


_JSON_KINDS = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "integer", float: "number"}


def json_value(value, kind: type, what: str):
    """`value` if it is a JSON `kind`, else ValueError naming `what`. A bool
    is no number; a whole float passes as an int, and comes back as one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and value % 1 == 0:
        return int(value)
    if (kind is float and number) or (kind not in (int, float) and isinstance(value, kind)):
        return value
    raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, "
                     f"got {type(value).__name__}")


@functools.cache
def _record_fields(cls) -> dict:
    """name -> (required, nullable, array, kind) of each field of record
    `cls`, by its annotation: `X | None` is nullable, `list[X]` and
    `tuple[X, ...]` are arrays (list or tuple, else None) of X. Cached, as
    resolving annotations costs more than reading a record."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        nullable = type(None) in typing.get_args(kind)
        kind = typing.get_args(kind)[0] if nullable else kind
        array = typing.get_origin(kind)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        fields[f.name] = (required, nullable, array, typing.get_args(kind)[0] if array else kind)
    return fields


def json_record(cls, raw: dict, what: str):
    """The record `cls` that the JSON object `raw` describes, each field read
    by its annotation: null only where it allows None, an array item by item,
    a record from a JSON object, any other kind through json_value. `what`
    is the path of `raw` in errors ("" at the top of a document). A key that
    is no field of `cls`, or a missing field with no default, is a
    ValueError naming it."""
    fields = _record_fields(cls)
    prefix = f"{what}." if what else ""
    for key in raw:
        if key not in fields:
            raise ValueError(f"'{prefix}{key}' is not a field")
    values = {}
    for name, (required, nullable, array, kind) in fields.items():
        path = prefix + name
        if name not in raw:
            if required:
                raise ValueError(f"'{path}' is missing")
        elif raw[name] is None and nullable:
            values[name] = None
        elif array:
            values[name] = array(_json_item(kind, item, f"{path}[{i}]") for i, item
                                 in enumerate(json_value(raw[name], list, f"'{path}'")))
        else:
            values[name] = _json_item(kind, raw[name], path)
    return cls(**values)


def _json_item(kind: type, value, path: str):
    """`value` as a `kind`: a record from a JSON object, else a JSON scalar
    or object through json_value."""
    if dataclasses.is_dataclass(kind):
        return json_record(kind, json_value(value, dict, f"'{path}'"), path)
    return json_value(value, kind, f"'{path}'")


def load_network_config(path) -> NetworkConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return NetworkConfig.from_dict(data)


def save_network_config(config: NetworkConfig, path):
    write_json(path, config.to_dict())
