"""The per-row series reader that `ozonet.io.scan_series_csv` replaced.

Kept as the reference that tests compare the columnar reader against: it
checks one row at a time, in the order the reader must report, and keeps
the first valid row of each (site, hour).
"""

import csv
import math
from pathlib import Path

import numpy as np

from ozonet.io import SERIES_HEADER, CoverageRow, SeriesIssue, ValidationReport
from ozonet.timeseries import VALUE_MAX, VALUE_MIN, TimeSeries, parse_iso_hour


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
            # a record starts on the line after the one the last record ended on
            end = reader.line_num
            for row in reader:
                lineno, end = end + 1, reader.line_num
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
                    # README: as float() reads them, but in ASCII and without "_"
                    if not value_text.isascii() or "_" in value_text:
                        raise ValueError(value_text)
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
