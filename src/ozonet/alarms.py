"""Three-test control chart with persistence, and the per-hour driver.

Each monitored hour compares the sensor's rolling window against its
proxy's on three conditions: distribution similarity (p value), gain in
bounds, offset in bounds. The pass region is the strict interior, so a
value exactly on a bound counts as a breach. A breach only becomes an
alarm after it has held for more than `tf_hours` consecutive evaluated
hours; hours where a test cannot be evaluated freeze its clock without
resetting it, so a telemetry outage never exonerates a drifting sensor.

Tests always run on the raw sensor windows, never on corrected output:
checking corrected data against the proxy that produced the correction
would be circular.

One engine instance per site, single writer; separate sites may run in
parallel. Replaying the same inputs reproduces the identical ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ozonet import kernels
from ozonet.calibrate import (
    DEGENERATE_VAR_EPS,
    EstimateHistory,
    match_moments,
)
from ozonet.kstest import ks_pvalue
from ozonet.timeseries import (
    VALUE_MAX,
    VALUE_MIN,
    TimeSeries,
    to_epoch_hour,
    window_bounds,
    window_complete,
)

TEST_NAMES = ("ks", "offset", "gain")

STATUS_OK = "ok"
STATUS_INSUFFICIENT = "insufficient"
STATUS_DEGENERATE = "degenerate"

# Sanity band for estimates entering the trend fit. A window that is
# partially flat-lined (variance collapsing but not yet zero) produces
# arbitrarily large gain/offset estimates; those still drive breaches and
# appear on the chart, but recalibrating from them would be meaningless,
# so they are kept out of the long-term trend.
TREND_GAIN_MIN = 0.25
TREND_GAIN_MAX = 4.0
TREND_OFFSET_CAP = 60.0


@dataclass(frozen=True)
class Thresholds:
    """Alarm limits and timescales.

    Defaults follow indicative-monitoring practice: gain within 1 +/- 0.3,
    offset within +/- 5 ppb, similarity p at 0.05, three-day windows and a
    five-day persistence requirement.
    """

    p_ks_min: float = 0.05
    gain_low: float = 0.7
    gain_high: float = 1.3
    offset_low: float = -5.0
    offset_high: float = 5.0
    td_hours: int = 72
    tf_hours: int = 120
    completeness_min: float = 0.75
    correction_alarm_count: int = 1

    def __post_init__(self):
        if not self.gain_low < 1.0 < self.gain_high:
            raise ValueError("gain bounds must straddle 1")
        if self.gain_low < 0.0:
            raise ValueError("gain_low must be nonnegative")
        if not self.offset_low < 0.0 < self.offset_high:
            raise ValueError("offset bounds must straddle 0")
        if self.td_hours <= 0 or self.tf_hours <= 0:
            raise ValueError("timescales must be positive")
        if not 0.0 < self.completeness_min <= 1.0:
            raise ValueError("completeness_min must be in (0, 1]")
        if not 0.0 < self.p_ks_min < 1.0:
            raise ValueError("p_ks_min must be in (0, 1)")
        if not 1 <= self.correction_alarm_count <= len(TEST_NAMES):
            raise ValueError(
                f"correction_alarm_count must be between 1 and {len(TEST_NAMES)}")


class BreachFlags(NamedTuple):
    """Per-test breach state for one hour; None means not evaluable."""

    ks: bool | None
    offset: bool | None
    gain: bool | None


FROZEN = BreachFlags(None, None, None)


def _breaches(p_ks: float, offset: float, gain: float, th: Thresholds):
    """(ks, offset, gain) breach flags; bounds themselves count as breaches."""
    return (p_ks <= th.p_ks_min,
            (offset <= th.offset_low) | (offset >= th.offset_high),
            (gain <= th.gain_low) | (gain >= th.gain_high))


class HistoryRow(NamedTuple):
    """One control-chart row, immutable; None marks fields that could not be
    computed. Fields read by name or by position."""

    stamp: int
    status: str
    p_ks: float | None
    offset_raw: float | None
    gain_raw: float | None
    offset_trend: float | None
    gain_trend: float | None
    breach_ks: bool | None
    breach_offset: bool | None
    breach_gain: bool | None
    alarm_ks: bool
    alarm_offset: bool
    alarm_gain: bool
    corrected: bool
    raw_value: float | None
    output_value: float | None


@dataclass
class AlarmLedger:
    """Breach clocks, latches, and the append-only history for one site."""

    site_id: str
    breach_hours: list = field(default_factory=lambda: [0, 0, 0])
    latched: list = field(default_factory=lambda: [False, False, False])
    history: list = field(default_factory=list)
    last_stamp: int | None = None


def update_persistence(ledger: AlarmLedger, stamp, flags, th: Thresholds) -> AlarmLedger:
    """Advance the per-test clocks by one evaluated hour; `flags` holds the
    (ks, offset, gain) breach flags, as a BreachFlags or a plain tuple.

    A breach hour increments its test's clock (starting it if needed); a
    clean hour resets the clock and clears the latch; a None flag freezes
    the clock. The latch sets once the condition has held for more than
    tf_hours evaluated hours, i.e. on hour tf_hours + 1 of an episode.
    """
    if type(stamp) is not int:      # SiteEngine.step passes a converted stamp
        stamp = to_epoch_hour(stamp)
    if ledger.last_stamp is not None and stamp <= ledger.last_stamp:
        raise ValueError(f"out-of-order update: {stamp} after {ledger.last_stamp}")
    ledger.last_stamp = stamp
    for i, flag in enumerate(flags):
        if flag is None:
            continue
        if flag:
            ledger.breach_hours[i] += 1
            if ledger.breach_hours[i] > th.tf_hours:
                ledger.latched[i] = True
        else:
            ledger.breach_hours[i] = 0
            ledger.latched[i] = False
    return ledger


def decide_correction(ledger: AlarmLedger, th: Thresholds) -> bool:
    """Correct once at least correction_alarm_count alarms are latched."""
    return sum(ledger.latched) >= th.correction_alarm_count


@dataclass
class SiteRunResult:
    """A site's history rows. `monitored` counts the hours with a p value;
    the fractions are shares of those hours (0.0 when there are none),
    counted in one pass when the result is made."""

    site_id: str
    rows: list
    monitored: int = field(init=False)
    _shares: tuple = field(init=False, repr=False)

    def __post_init__(self):
        held = [(r.alarm_ks, r.alarm_offset, r.alarm_gain, r.corrected)
                for r in self.rows if r.p_ks is not None]
        self.monitored = len(held)
        self._shares = (tuple(sum(column) / len(held) for column in zip(*held)) if held
                        else (0.0,) * 4)

    def alarm_fractions(self) -> dict:
        return dict(zip(TEST_NAMES, self._shares))

    def corrected_fraction(self) -> float:
        return self._shares[3]

    def output_series(self) -> TimeSeries:
        pairs = [(r.stamp, r.output_value) for r in self.rows if r.output_value is not None]
        return TimeSeries.from_pairs(self.site_id, pairs)

    def raw_series(self) -> TimeSeries:
        pairs = [(r.stamp, r.raw_value) for r in self.rows if r.raw_value is not None]
        return TimeSeries.from_pairs(self.site_id, pairs)


def _trended(offset, gain):
    """Whether a raw estimate enters the trend fit (the sanity band above),
    for floats or elementwise over arrays."""
    return ((TREND_GAIN_MIN <= gain) & (gain <= TREND_GAIN_MAX)
            & (abs(offset) <= TREND_OFFSET_CAP))


class SiteEngine:
    """Per-hour monitoring pipeline for one sensor against one proxy.

    Assessment and correction both use the trend-smoothed gain/offset once
    the trend fit is determined (with hourly estimates from the 12th on; see
    EstimateHistory); before that the latest raw estimate stands in. The
    trend changes only when an estimate enters the history, so each hour
    reads `history.trend`, the pair that `history.trend_at` gives for that
    hour.
    """

    def __init__(self, site_id: str, sensor: TimeSeries, proxy: TimeSeries,
                 thresholds: Thresholds | None = None):
        self.site_id = site_id
        self.thresholds = thresholds or Thresholds()
        self.sensor = sensor
        self.proxy = proxy
        self.history = EstimateHistory(site_id)
        self.ledger = AlarmLedger(site_id)

    def step(self, stamp, measured: tuple | None = None) -> HistoryRow:
        """Evaluate one hour; appends and returns the history row.

        The hour's windows are measured here, unless `measured` holds what
        `run` already measured for it in its array passes. Either way this
        is the one place where measurements become breaches, clock updates
        and a correction.

        A measurement is the tuple (raw_value, p_ks, offset_raw, gain_raw,
        offset_trend, gain_trend). p_ks is None when the windows are
        insufficient; the raw estimate is None when they are insufficient or
        the sensor window is degenerate. The trend is the one left after the
        latest estimate entered (None while the history is empty).
        """
        stamp = to_epoch_hour(stamp)
        last_stamp = self.ledger.last_stamp
        if last_stamp is not None and stamp <= last_stamp:
            raise ValueError("steps must advance in time")
        th = self.thresholds
        raw_value, p_ks, offset_raw, gain_raw, offset_trend, gain_trend = (
            self._measure(stamp) if measured is None else measured)

        if p_ks is None:
            # insufficient windows: every clock freezes
            status, flags = STATUS_INSUFFICIENT, FROZEN
        elif offset_raw is None:
            # flat-lined sensor: no estimate; gain test breaches outright,
            # the offset test cannot be evaluated and freezes
            status = STATUS_DEGENERATE
            flags = BreachFlags(ks=p_ks <= th.p_ks_min, offset=None, gain=True)
        else:
            # an estimate kept out of the trend is assessed directly, so the
            # breach fires without contaminating the trend
            status = STATUS_OK
            offset, gain = ((offset_trend, gain_trend) if _trended(offset_raw, gain_raw)
                            else (offset_raw, gain_raw))
            flags = _breaches(p_ks, offset, gain, th)
        ledger = update_persistence(self.ledger, stamp, flags, th)

        output_value = raw_value
        corrected = (p_ks is not None and decide_correction(ledger, th)
                     and raw_value is not None and offset_trend is not None)
        if corrected:
            # apply_correction with the trend; corrected readings clip to
            # the physical reporting range
            output_value = min(max(offset_trend + gain_trend * raw_value, VALUE_MIN),
                               VALUE_MAX)

        row = HistoryRow(stamp, status, p_ks, offset_raw, gain_raw, offset_trend, gain_trend,
                         *flags, *ledger.latched, corrected, raw_value, output_value)
        ledger.history.append(row)
        return row

    def _measure(self, stamp: int) -> tuple:
        """Measure the windows that end at `stamp`, as the measurement tuple
        that `step` takes; an estimate inside the sanity band enters the
        history."""
        th = self.thresholds
        sensor, proxy = self.sensor, self.proxy
        # plain ints: numpy scalars make the slicing and comparisons below slower
        s_lo, s_hi = window_bounds(sensor.hours, stamp, th.td_hours).tolist()
        p_lo, p_hi = window_bounds(proxy.hours, stamp, th.td_hours).tolist()
        raw_value = None
        if s_hi > s_lo and sensor.hours[s_hi - 1] == stamp:
            raw_value = float(sensor.values[s_hi - 1])

        n_y, n_z = s_hi - s_lo, p_hi - p_lo
        p = offset = gain = None
        if window_complete(min(n_y, n_z), th.td_hours, th.completeness_min):
            y = sensor.values[s_lo:s_hi]
            z = proxy.values[p_lo:p_hi]
            p = ks_pvalue(kernels.ks_distance(y, z), n_y, n_z)
            # the raw estimate as run() makes it: none for a degenerate window
            mean_y, var_y = kernels.window_moments(y)
            if var_y > DEGENERATE_VAR_EPS:
                offset, gain = match_moments(mean_y, var_y, *kernels.window_moments(z))
                offset, gain = float(offset), float(gain)
                if _trended(offset, gain):
                    self.history.append(stamp, offset, gain)

        return (raw_value, p, offset, gain) + (self.history.trend or (None, None))

    def run(self, start=None, end=None) -> SiteRunResult:
        """Evaluate every hour of the sensor's span (or the given range).

        Gives the rows that stepping each hour in turn gives, and leaves the
        engine in the same state, so `step` can carry on after it. The
        window statistics of the whole span come from array passes; each
        hour's measurement then goes through `step`. The result holds the
        engine's history rows as they stand at the end of the run.
        """
        if len(self.sensor) == 0:
            return SiteRunResult(self.site_id, [])
        first = to_epoch_hour(start) if start is not None else int(self.sensor.hours[0])
        last = to_epoch_hour(end) if end is not None else int(self.sensor.hours[-1])
        if first > last:
            return SiteRunResult(self.site_id, list(self.ledger.history))
        last_stamp = self.ledger.last_stamp
        if last_stamp is not None and first <= last_stamp:
            raise ValueError("steps must advance in time")
        th = self.thresholds
        stamps = np.arange(first, last + 1, dtype=np.int64)
        s_lo, s_hi = window_bounds(self.sensor.hours, stamps, th.td_hours)
        p_lo, p_hi = window_bounds(self.proxy.hours, stamps, th.td_hours)
        n_y, n_z = s_hi - s_lo, p_hi - p_lo
        assessed = np.flatnonzero(
            window_complete(np.minimum(n_y, n_z), th.td_hours, th.completeness_min))
        n_y, n_z = n_y[assessed], n_z[assessed]
        d, mean_y, var_y, mean_z, var_z = _window_stats(
            self.sensor.values, s_lo[assessed], n_y, self.proxy.values, p_lo[assessed], n_z)

        # full-span columns of each hour's measurement, NaN where absent (a
        # present value is finite: readings are, and so is an estimate, which
        # exists only above DEGENERATE_VAR_EPS)
        p_ks, offset, gain = np.full((3, stamps.size), np.nan)
        p_ks[assessed] = [ks_pvalue(*key) for key in zip(d.tolist(), n_y.tolist(), n_z.tolist())]
        # raw estimates, none where the sensor window is degenerate
        ok = var_y > DEGENERATE_VAR_EPS
        offset[assessed[ok]], gain[assessed[ok]] = match_moments(
            mean_y[ok], var_y[ok], mean_z[ok], var_z[ok])
        trended = np.flatnonzero(_trended(offset, gain))

        # the trend each hour sees: the one held before the run (read before
        # extend replaces it), then the one each appended estimate leaves
        held = self.history.trend or (np.nan, np.nan)
        new_offset, new_gain = self.history.extend(
            stamps[trended], offset[trended], gain[trended])
        state = trended.searchsorted(np.arange(stamps.size), "right")
        trend_offset = np.concatenate(([held[0]], new_offset))[state]
        trend_gain = np.concatenate(([held[1]], new_gain))[state]

        last_in = np.maximum(s_hi - 1, 0)
        raw = np.where((s_hi > s_lo) & (self.sensor.hours[last_in] == stamps),
                       self.sensor.values[last_in], np.nan)

        columns = (raw, p_ks, offset, gain, trend_offset, trend_gain)
        step = self.step
        for stamp, measured in zip(stamps.tolist(), zip(*map(_or_none, columns))):
            step(stamp, measured)
        return SiteRunResult(self.site_id, list(self.ledger.history))


# Assessed hours per block of window statistics in SiteEngine.run: bounds
# the padded window arrays to a few hundred kB whatever the span's length.
_BLOCK_HOURS = 128


def _window_stats(y_values, y_lo, y_n, z_values, z_lo, z_n):
    """KS distance and the moments of both windows, for each window pair
    given by its first index and length in the two series."""
    d, mean_y, var_y, mean_z, var_z = (np.empty(y_n.size) for _ in range(5))
    for lo in range(0, y_n.size, _BLOCK_HOURS):
        block = slice(lo, lo + _BLOCK_HOURS)
        y = _padded_windows(y_values, y_lo[block], y_n[block])
        z = _padded_windows(z_values, z_lo[block], z_n[block])
        d[block] = kernels.ks_distance_rows(y, z, y_n[block], z_n[block])
        mean_y[block], var_y[block] = _moments_by_length(y, y_n[block])
        mean_z[block], var_z[block] = _moments_by_length(z, z_n[block])
    return d, mean_y, var_y, mean_z, var_z


def _padded_windows(values: np.ndarray, lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """values[lo[r]:lo[r] + count[r]] as row r, padded with +inf."""
    cols = np.arange(count.max())
    inside = cols < count[:, None]
    return np.where(inside, values[np.where(inside, lo[:, None] + cols, 0)], np.inf)


def _moments_by_length(windows: np.ndarray, count: np.ndarray):
    """window_moments of each row's samples, one call per distinct length
    (numpy's pairwise sum depends on the length)."""
    mean = np.empty(count.size)
    var = np.empty(count.size)
    for size in np.unique(count).tolist():
        rows = count == size
        mean[rows], var[rows] = kernels.window_moments(windows[rows, :size])
    return mean, var


def _or_none(values: np.ndarray) -> list:
    """values as Python floats, None where NaN."""
    return [None if v != v else v for v in values.tolist()]
