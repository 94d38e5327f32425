"""File formats: series CSV, network configuration, result exports; and
map_shared, which deals per-site jobs over forked workers.

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
import operator
import os
import pickle
import typing
import unicodedata
from dataclasses import dataclass, field
from io import StringIO
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
SUMMARY_HEADER = ["site_id", "proxy", "monitored_hours", "alarm_frac_ks", "alarm_frac_a0",
                  "alarm_frac_a1", "corrected_frac", "note"]
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
    """Open `path` for writing UTF-8 text through a sibling temporary file,
    which replaces `path` only once the block completes: a write that fails
    leaves the old file (or none) and no temporary file behind."""
    path = Path(path)
    try:
        os.fsencode(path)
    except UnicodeEncodeError as exc:
        # a ValueError from the file system calls below; an OSError here
        raise OSError(f"file name {str(path)!r} cannot be encoded "
                      f"in the file system encoding {exc.encoding!r}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# Here, not in cli.py: under `python -m ozonet.cli` that module is __main__,
# where Python 3.12's DeprecationWarning for a fork in a process with threads
# (numpy's BLAS pool) would show on stderr by default. Forked, not spawned:
# a spawned worker would import numpy and ozonet again and be sent the series.
def map_shared(job, items) -> list:
    """[job(item) for item in items], cut short at the first item whose job
    raised, the items dealt over the CPUs this process may use.

    n = min(CPUs, items), at least 1: n - 1 forked workers take items[k::n]
    (k = 1 .. n-1) and this process takes items[0::n]. Each stops at its
    first exception. A worker sends its results over a pipe as one pickle,
    then leaves through os._exit: it never flushes this process's buffers
    or runs its exit handlers. A worker that could not be started, died, or
    whose results could not be pickled and unpickled sends none. The results
    come back in item order up to the first item that has none, and the
    exception is dropped: the caller runs the items from there on itself,
    so that a failure is raised where and as the plain loop raises it.
    Every worker is read and reaped before this returns or raises.
    """
    items = list(items)
    try:
        n = max(1, min(len(os.sched_getaffinity(0)), len(items)))
        fork = os.fork
    except AttributeError:      # no sched_getaffinity or fork on this platform
        n = 1
    workers = []                # (pid, read end of its pipe) of shares 1, 2, ...
    try:
        for k in range(1, n):
            read, write = os.pipe()
            try:
                pid = fork()
            except OSError:     # this share and those after it get no results
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _work_share(job, items[k::n], write, [read, *(r for _, r in workers)])
            os.close(write)
            workers.append((pid, read))
        shares = [_run_share(job, items[0::n])]
    finally:
        received = [_reap(pid, read) for pid, read in workers]
    shares += received + [[]] * (n - 1 - len(received))
    results = []
    for i in range(len(items)):
        k, j = i % n, i // n
        if j == len(shares[k]):
            break
        results.append(shares[k][j])
    return results


def _run_share(job, share) -> list:
    """The results of `share` before the first item whose job raised."""
    done = []
    for item in share:
        try:
            done.append(job(item))
        except Exception:
            break
    return done


def _work_share(job, share, fd, others):
    """A forked worker's whole life: close the read ends `others`, so that
    a write to `fd` fails once this process has gone, run `share`, write what
    _run_share gives to `fd` as one pickle, and leave through os._exit
    (never returns)."""
    try:
        for other in others:
            os.close(other)
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(_run_share(job, share)))
    finally:
        os._exit(0)


def _reap(pid, fd) -> list:
    """The results that worker `pid` wrote to the pipe `fd`, read and
    unpickled once it has ended; none from a worker that died first or
    whose results did not pickle or unpickle."""
    with open(fd, "rb") as pipe:
        blob = pipe.read()
    os.waitpid(pid, 0)
    try:
        return pickle.loads(blob)
    except Exception:
        return []


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


def _write_columns(path, header, blocks, end="\r\n"):
    """CSV under `header` of each block of `blocks` in turn, a block being
    one sequence of strings per field. Fields are written as given, so one
    that needs quoting must come through _csv_field; lines end in `end`,
    by default in "\r\n", as csv.writer ends them."""
    with atomic_write(path, newline="") as handle:
        handle.write(",".join(header) + end)
        for columns in blocks:
            handle.write(end.join([*map(",".join, zip(*columns)), ""]))


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


# the epoch hour of a stamp that does not parse: none that parses is this small
_NO_HOUR = np.iinfo(np.int64).min


def _read_csv(path: str):
    """The records of the CSV file at `path`, read as UTF-8, and the
    physical line each starts on (a quoted field may hold line breaks); or
    the SeriesIssue that says why they cannot be read."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return SeriesIssue(path, 0, "-", f"cannot open: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines that csv.reader would count up to the bad byte's: a bare
        # "\r" ends one too
        line = len(StringIO(data[:exc.start].decode("utf-8") + "x", newline="").readlines())
        return SeriesIssue(path, line, "-", f"not UTF-8 text: {exc}")
    reader = csv.reader(StringIO(text, newline=""))
    records, starts = [], [1]
    try:
        for record in reader:
            records.append(record)
            starts.append(reader.line_num + 1)
        return records, starts[:-1]
    except csv.Error as exc:
        return SeriesIssue(path, reader.line_num, "-", f"unreadable CSV: {exc}")


def _number(text: str):
    """float(text), or None when `text` is no number: float() alone would
    also read '1_0' and digits of other scripts."""
    if "_" in text or not text.isascii():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def scan_series_csv(paths) -> tuple[dict, ValidationReport]:
    """Parse one or more series files, collecting every issue found.

    Returns ({site_id: TimeSeries}, report). The series dict contains only
    cleanly parsed data; callers that need strictness should check
    report.ok first.

    Each bad line gets one issue, for the first check it fails: field
    count, timestamp, site id, number, range, then duplicate (site, hour),
    of which the first valid row is kept. The checks run over whole columns
    of the rows of all files; issues come in file and line order, and
    sites in order of their first valid row.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    paths = list(map(str, paths))
    issues = []                         # ((file position, line), SeriesIssue)
    rows, at_file, at_line = [], [], []  # each row, its file's position, its first line

    def report(pos, line, column, message):
        issues.append(((pos, line), SeriesIssue(paths[pos], line, column, message)))

    for pos, path in enumerate(paths):
        read = _read_csv(path)
        if isinstance(read, SeriesIssue):
            issues.append(((pos, read.line), read))
            continue
        records, starts = read
        if not records:
            report(pos, 1, "-", "empty file")
        elif [h.strip() for h in records[0]] != SERIES_HEADER:
            report(pos, 1, "-", f"bad header {records[0]!r}, expected {','.join(SERIES_HEADER)}")
        else:
            rows += records[1:]
            at_file += [pos] * (len(records) - 1)
            at_line += starts[1:]

    wrong = np.fromiter(map(len, rows), np.intp, len(rows)) != 3
    if wrong.any():
        for i in np.flatnonzero(wrong).tolist():
            row = rows[i]
            if row and (len(row) > 1 or row[0].strip()):     # else a blank line
                report(at_file[i], at_line[i], "-", f"expected 3 fields, got {len(row)}")
        keep = (~wrong).tolist()
        rows, at_file, at_line = (list(itertools.compress(column, keep))
                                  for column in (rows, at_file, at_line))
    fields = list(itertools.chain.from_iterable(rows))
    stamps, sites, texts = fields[0::3], fields[1::3], fields[2::3]
    n = len(stamps)

    # Fields are stripped where they are read: each distinct stamp and site
    # text once, and float() ignores the whitespace around a number.
    hour_of, stamp_error = {}, {}
    for stamp in dict.fromkeys(stamps):
        try:
            hour_of[stamp] = parse_iso_hour(stamp.strip())
        except ValueError as exc:
            hour_of[stamp] = _NO_HOUR
            stamp_error[stamp] = str(exc)
    hours = np.fromiter(map(hour_of.__getitem__, stamps), np.int64, n)
    code_of = {}                        # site id -> code, in order of first row
    text_code = {text: code_of.setdefault(text.strip(), len(code_of))
                 for text in dict.fromkeys(sites)}
    codes = np.fromiter(map(text_code.__getitem__, sites), np.intp, n)
    numbers = list(map(_number, texts))
    no_number = np.fromiter(map(operator.is_, numbers, itertools.repeat(None)), bool, n)
    values = np.array(numbers, dtype=np.float64)    # a None is NaN

    checks = (
        (hours == _NO_HOUR, "timestamp", lambda i: stamp_error[stamps[i]]),
        (codes == code_of.get("", -1), "site_id", lambda i: "empty site id"),
        (no_number, "value_ppb", lambda i: f"not a number: {texts[i].strip()!r}"),
        (~((values >= VALUE_MIN) & (values <= VALUE_MAX)), "value_ppb",
         lambda i: f"value {numbers[i]} outside [{VALUE_MIN}, {VALUE_MAX}]"),
    )
    failed = np.zeros(n, bool)
    for check, column, message in checks:
        for i in np.flatnonzero(check & ~failed).tolist():
            report(at_file[i], at_line[i], column, message(i))
        failed |= check

    # The stable sort keeps the rows of one (site, hour) in file and line
    # order: the first is kept, each later one is a duplicate of it.
    valid = np.flatnonzero(~failed)
    order = valid[np.lexsort((hours[valid], codes[valid]))]
    again = np.zeros(order.size, bool)
    again[1:] = (codes[order[1:]] == codes[order[:-1]]) & (hours[order[1:]] == hours[order[:-1]])
    first = np.maximum.accumulate(np.where(again, 0, np.arange(order.size)))  # its run's head
    for i, j in zip(order[again].tolist(), order[first[again]].tolist()):
        report(at_file[i], at_line[i], "timestamp",
               f"duplicate of {paths[at_file[j]]}:{at_line[j]} "
               f"(site {sites[i].strip()} at {stamps[i].strip()})")

    kept = order[~again]
    series = {}
    names = list(code_of)
    bounds = np.flatnonzero(np.diff(codes[kept])) + 1
    # one group of rows per site; its lowest row is the site's first valid one
    for group in sorted(filter(np.size, np.split(kept, bounds)), key=np.min):
        site = names[codes[group[0]]]
        series[site] = TimeSeries(site, hours[group], values[group])
    coverage = [CoverageRow(site, len(ts), int(ts.hours[0]), int(ts.hours[-1]))
                for site, ts in series.items()]
    issues.sort(key=lambda item: item[0])
    return series, ValidationReport([issue for _, issue in issues], coverage)


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
    """One row per scored (reference site, strategy) pair, in `scores` order."""
    _write_columns(path, PROXY_SCORE_HEADER, [zip(*(
        (_csv_field(s.site_id), _csv_field(s.strategy),
         *(f"{v:.4f}" for v in (s.alarm_fraction_ks, s.alarm_fraction_offset,
                                s.alarm_fraction_gain, s.corrected_fraction, s.mab)),
         "" if s.r2 is None else f"{s.r2:.4f}", str(s.monitored_hours)) for s in scores))])


def write_grid_csv(path, grid):
    """One row per cell of `grid`, row-major."""
    lats, lons = ([f"{v:.6f}" for v in axis.tolist()] for axis in (grid.lats, grid.lons))
    _write_columns(path, ["lat", "lon", "value_ppb"], [[
        [lat for lat in lats for _ in lons], lons * len(lats),
        [f"{v:.4f}" for v in grid.values.ravel().tolist()]]])


def write_summary_csv(path, summary):
    """The summary of `run`, one row per low-cost site: (site_id, proxy,
    monitored_hours, the three alarm fractions, the corrected fraction,
    note). Its lines end in "\n"."""
    _write_columns(path, SUMMARY_HEADER, [zip(*(
        (_csv_field(sid), _csv_field(proxy), str(hours), *(f"{v:.4f}" for v in fractions),
         _csv_field(note)) for sid, proxy, hours, *fractions, note in summary))], end="\n")


def write_json(path, payload: dict):
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ------------------------------------------------------------- network config

@dataclass
class ProxyPolicy:
    strategy: str = STRATEGY_NEAREST
    overrides: dict[str, str] = field(default_factory=dict)    # test site -> proxy site
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
        check_site_ids(self.sites)
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


def check_site_ids(sites):
    """ValueError naming the first of `sites` (SiteRecords) whose id is not
    one safe file-name component that a series file can spell. `run` names
    each site's outputs charts/<site_id>.csv and corrected/<site_id>.csv, so
    an id must not be empty, '.' or '..', nor hold a '/', a '\\' or a
    control character; and the series reader strips every field, so it must
    not begin or end in whitespace."""
    for i, site in enumerate(sites):
        sid = site.site_id
        if sid in ("", ".", "..") or "/" in sid or "\\" in sid or sid != sid.strip() or any(
                unicodedata.category(c) == "Cc" for c in sid):
            raise ValueError(f"'sites[{i}].site_id' {sid!r} is not one safe file name: "
                             "an id names its output files, so it must not be empty, "
                             "'.' or '..', nor hold '/', '\\' or a control character, "
                             "nor begin or end in whitespace")


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
    """name -> (required, nullable, container, kind) of each field of
    record `cls`, by its annotation: `X | None` is nullable, `list[X]` and
    `tuple[X, ...]` are arrays (container list or tuple) of X, `dict[str, X]`
    is an object (container dict) whose values are X, and any other kind has
    no container (None). Cached, as resolving annotations costs more than
    reading a record."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        nullable = type(None) in typing.get_args(kind)
        kind = typing.get_args(kind)[0] if nullable else kind
        container = typing.get_origin(kind)
        if container:
            kind = typing.get_args(kind)[1 if container is dict else 0]
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        fields[f.name] = (required, nullable, container, kind)
    return fields


def json_record(cls, raw: dict, what: str):
    """The record `cls` that the JSON object `raw` describes, each field read
    by its annotation: null only where it allows None, an array item by item,
    an object value by value, a record from a JSON object, any other kind
    through json_value. `what` is the path of `raw` in errors ("" at the top
    of a document). A key that is no field of `cls`, or a missing field with
    no default, is a ValueError naming it."""
    fields = _record_fields(cls)
    prefix = f"{what}." if what else ""
    for key in raw:
        if key not in fields:
            raise ValueError(f"'{prefix}{key}' is not a field")
    values = {}
    for name, (required, nullable, container, kind) in fields.items():
        path = prefix + name
        if name not in raw:
            if required:
                raise ValueError(f"'{path}' is missing")
        elif raw[name] is None and nullable:
            values[name] = None
        elif container is dict:
            values[name] = {key: _json_item(kind, item, f"{path}.{key}") for key, item
                            in json_value(raw[name], dict, f"'{path}'").items()}
        elif container:
            values[name] = container(_json_item(kind, item, f"{path}[{i}]") for i, item
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


def _no_json_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_json_number(parse):
    """`parse` for the JSON numbers that a float can hold: a number beyond
    them (1e400, an integer of 400 digits), which would read as an infinity,
    is a ValueError. A valid integer stays an integer."""
    def number(text: str):
        if math.isinf(float(text)):
            raise ValueError(f"{text[:20]}{'...' if len(text) > 20 else ''} "
                             "is beyond the range of a finite number")
        return parse(text)
    return number


def json_loads(text: str):
    """json.loads, except that NaN, Infinity and -Infinity, which are no
    JSON numbers, and numbers beyond the finite floats are a ValueError."""
    return json.loads(text, parse_constant=_no_json_constant,
                      parse_float=_finite_json_number(float),
                      parse_int=_finite_json_number(int))


def load_network_config(path) -> NetworkConfig:
    """The network config at `path`, read as UTF-8 JSON."""
    path = Path(path)
    try:
        data = json_loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
    return NetworkConfig.from_dict(data)


def save_network_config(config: NetworkConfig, path):
    write_json(path, config.to_dict())
