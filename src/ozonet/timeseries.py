"""Hourly concentration series: construction, windowing, alignment.

Timestamps are integers counting whole hours since the Unix epoch (UTC).
A value recorded anywhere inside [H, H+1h) belongs to hour H, so an
hourly average labelled H summarises the hour that starts at H.
Series are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

VALUE_MIN = -10.0   # slight negative allowed for instrument noise
VALUE_MAX = 500.0

# Epoch hours are whole hours since _EPOCH, in UTC.
_EPOCH = datetime(1970, 1, 1)
_HOUR = timedelta(hours=1)
# The last hour that a stamp names, 9999-12-31T23:00:00Z.
HOUR_MAX = (datetime(9999, 12, 31, 23) - _EPOCH) // _HOUR
# The stamp syntax that parse_iso_hour reads, before strptime checks the date.
_ISO_SYNTAX = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def parse_iso_hour(text: str) -> int:
    """Parse 'YYYY-MM-DDTHH:00:00Z' (UTC, hour-aligned) to an epoch hour.

    Every field is zero-padded ASCII digits: strptime alone would also take
    '2018-1-5T5:00:00Z' and digits of other scripts."""
    try:
        if not _ISO_SYNTAX.fullmatch(text):
            raise ValueError("not zero-padded ASCII")
        stamp = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}: expected YYYY-MM-DDTHH:00:00Z (UTC)") from exc
    if stamp.minute or stamp.second:
        raise ValueError(f"timestamp {text!r} is not aligned to a whole hour")
    return (stamp - _EPOCH) // _HOUR


def format_iso_hour(hour: int) -> str:
    """The stamp that parse_iso_hour reads as `hour`, for any hour of the
    years 1 to 9999: every date field zero-padded, 0999-01-01T00:00:00Z."""
    return (_EPOCH + hour * _HOUR).isoformat() + "Z"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered hourly observations for one site, gaps allowed.

    A series compares and hashes by identity: two series with equal arrays
    are different objects, and a series can key a dict (a batch of engines
    keys its per-call window bounds by series).
    """

    site_id: str
    hours: np.ndarray    # int64, strictly increasing
    values: np.ndarray   # float64, finite

    def __post_init__(self):
        hours = np.asarray(self.hours)
        if hours.size and hours.dtype.kind not in "iu":
            raise TypeError(f"hours must be integers, got {hours.dtype}")
        hours = hours.astype(np.int64, copy=False)
        values = np.asarray(self.values, dtype=np.float64)
        if hours.shape != values.shape or hours.ndim != 1:
            raise ValueError("hours and values must be 1-d arrays of equal length")
        if hours.size > 1 and not np.all(np.diff(hours) > 0):
            raise ValueError("timestamps must be strictly increasing with no duplicates")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("all values must be finite")
        if values.size and (values.min() < VALUE_MIN or values.max() > VALUE_MAX):
            raise ValueError(f"values outside plausible range [{VALUE_MIN}, {VALUE_MAX}]")
        object.__setattr__(self, "hours", hours)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.hours.size)

    def value_at(self, hour: int) -> float | None:
        i = np.searchsorted(self.hours, hour)
        if i < self.hours.size and self.hours[i] == hour:
            return float(self.values[i])
        return None


@dataclass(frozen=True)
class WindowSlice:
    """All observations of one series inside the half-open interval (start, end]."""

    site_id: str
    start: int
    end: int
    hours: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)

    @property
    def duration_hours(self) -> int:
        return int(self.end - self.start)

    @property
    def completeness(self) -> float:
        return self.samples.size / self.duration_hours

    def sufficient(self, completeness_min: float) -> bool:
        return window_complete(self.samples.size, self.duration_hours, completeness_min)


def window_complete(count, td_hours: int, completeness_min: float):
    """Whether `count` readings fill enough of a td_hours window, for an int
    or elementwise over an array. The share is compared, not the count
    against completeness_min * td_hours: that product can round above a
    count whose share equals completeness_min."""
    return count / td_hours >= completeness_min


def window_bounds(hours: np.ndarray, ends, td_hours: int) -> np.ndarray:
    """Index range [lo, hi) of the window (end - td_hours, end] in `hours`:
    [lo, hi] for one end, [lo_array, hi_array] for an array of ends."""
    return hours.searchsorted((ends - td_hours, ends), "right")


def window(series: TimeSeries, end, td_hours: int) -> WindowSlice:
    """Slice of `series` over (end - td_hours, end]. An empty window is valid."""
    if td_hours <= 0:
        raise ValueError("window length must be positive")
    end = operator.index(end)
    start = end - int(td_hours)
    lo, hi = window_bounds(series.hours, end, int(td_hours)).tolist()
    return WindowSlice(series.site_id, start, end, series.hours[lo:hi], series.values[lo:hi])


def align(a: TimeSeries, b: TimeSeries):
    """Pairs of co-timed values.

    Returns (hours, a_values, b_values) for timestamps present in both
    series, in timestamp order. Disjoint series produce empty arrays.
    """
    common, ia, ib = np.intersect1d(a.hours, b.hours, assume_unique=True, return_indices=True)
    return common, a.values[ia], b.values[ib]
