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

A streamed hour is measured in one batch: engines that last stepped the same
hour (or never stepped) are in step and share its batch, whatever their
window lengths. The first of them to step the hour runs the batch. It hands
each engine a slot (hour, raw value, p value, offset, gain): the raw
reading, and for an engine that assesses its windows by its own window
length and completeness rule, the p value and raw estimate of one row (its
sensor window beside its proxy window). An engine whose slot holds the hour
it steps only updates its own trend, clocks and row; any other engine runs a
batch, alone if no engine is in step with it. A tick of N engines makes one
KS distance call with a padded row per assessed engine, and one moment call
per distinct window length on each side (sensor and proxy); the other steps
read a slot. A batch looks up the window bounds once per distinct series and
window length, and finds its peers by scanning every live engine, at O(live
engines) per batch. Streams on one proxy at different hours keep to their
own batches, and an engine that finished `run()` at an hour is in step with
those that stepped it.
`run()` measures its span with the same function as a batch,
`_measure_rows`, in blocks of assessed hours. Both hand it window slices,
and it pads them into the rows that the kernels take. The one-window calls
`ks_statistic` and `moment_match` measure one row with the same
`kernels.ks_distance` and `calibrate.estimate_rows`.

A slot depends only on the engine's series, thresholds and hour, and the
engine that runs a batch takes its own result from the return value, never
from its slot, which a batch in another thread may overwrite (an
overwritten slot names another hour, so its engine runs a batch). Which
engines join a batch thus decides only how much work is shared, never a row.
"""

from __future__ import annotations

import operator
import threading
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ozonet import kernels
from ozonet.calibrate import EstimateHistory, estimate_rows
from ozonet.kstest import ks_pvalue
from ozonet.timeseries import (
    VALUE_MAX,
    VALUE_MIN,
    TimeSeries,
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

# Longest window and persistence, in hours (about 245,000 years): beyond
# any series, and small enough that a window's start, an epoch hour less
# td_hours, stays an int64.
TIMESCALE_MAX_HOURS = 2**31 - 1

# Every live engine, where a batch looks for the engines in step with the
# one that runs it. The lock keeps an engine built in another thread from
# joining while a batch copies the set.
_live = weakref.WeakSet()
_live_lock = threading.Lock()


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
        if not (0 < self.td_hours <= TIMESCALE_MAX_HOURS
                and 0 < self.tf_hours <= TIMESCALE_MAX_HOURS):
            raise ValueError(f"timescales must be from 1 to {TIMESCALE_MAX_HOURS} hours")
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
    stamp = operator.index(stamp)
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
        rows = [r for r in self.rows if r.output_value is not None]
        return TimeSeries(self.site_id, [r.stamp for r in rows], [r.output_value for r in rows])

    def raw_series(self) -> TimeSeries:
        rows = [r for r in self.rows if r.raw_value is not None]
        return TimeSeries(self.site_id, [r.stamp for r in rows], [r.raw_value for r in rows])


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
        self._slot = None       # (hour, raw_value, p_ks, offset_raw, gain_raw)
        with _live_lock:
            _live.add(self)

    def step(self, stamp, measured: tuple | None = None) -> HistoryRow:
        """Evaluate one hour; appends and returns the history row.

        The hour is measured by the engine's slot when a batch has measured
        it for this engine, else by the slot that a batch this engine runs
        returns (see the module docstring); an estimate inside the sanity
        band then enters the history. Or `measured` holds what `run` already
        measured for the hour in its array passes, its estimates already in
        the history. Either way this is the one place where measurements
        become breaches, clock updates and a correction.

        A measurement is the tuple (raw_value, p_ks, offset_raw, gain_raw,
        offset_trend, gain_trend). p_ks is None when the windows are
        insufficient; the raw estimate is None when they are insufficient or
        the sensor window is degenerate. The trend is the one left after the
        latest estimate entered (None while the history is empty).
        """
        stamp = operator.index(stamp)
        last_stamp = self.ledger.last_stamp
        if last_stamp is not None and stamp <= last_stamp:
            raise ValueError("steps must advance in time")
        th = self.thresholds
        if measured is None:
            slot = self._slot
            if slot is None or slot[0] != stamp:
                slot = _measure_together(self, stamp)[0]
            _, raw_value, p_ks, offset_raw, gain_raw = slot
        else:
            raw_value, p_ks, offset_raw, gain_raw, offset_trend, gain_trend = measured
        trended = offset_raw is not None and _trended(offset_raw, gain_raw)
        if measured is None:
            if trended:
                self.history.append(stamp, offset_raw, gain_raw)
            offset_trend, gain_trend = self.history.trend or (None, None)

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
            offset, gain = (offset_trend, gain_trend) if trended else (offset_raw, gain_raw)
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

    def run(self, start=None, end=None) -> SiteRunResult:
        """Evaluate every hour of the sensor's span (or the given range).

        Gives the rows that stepping each hour in turn gives, and leaves the
        engine in the same state, so `step` can carry on after it. The
        assessed hours are measured in blocks, as a batch measures its
        pairs; each hour's measurement then goes through `step`. The result
        holds the engine's history rows as they stand at the end of the run.
        """
        if len(self.sensor):
            first = operator.index(start) if start is not None else int(self.sensor.hours[0])
            last = operator.index(end) if end is not None else int(self.sensor.hours[-1])
        if not len(self.sensor) or first > last:
            # no hour to evaluate
            return SiteRunResult(self.site_id, list(self.ledger.history))
        last_stamp = self.ledger.last_stamp
        if last_stamp is not None and first <= last_stamp:
            raise ValueError("steps must advance in time")
        th = self.thresholds
        stamps = np.arange(first, last + 1, dtype=np.int64)
        s_lo, s_hi = window_bounds(self.sensor.hours, stamps, th.td_hours)
        p_lo, p_hi = window_bounds(self.proxy.hours, stamps, th.td_hours)
        assessed = np.flatnonzero(window_complete(
            np.minimum(s_hi - s_lo, p_hi - p_lo), th.td_hours, th.completeness_min))

        # full-span columns of each hour's measurement, NaN where absent (a
        # present value is finite: readings are, and so is an estimate)
        p_ks, offset, gain = np.full((3, stamps.size), np.nan)
        sensor, proxy = self.sensor.values, self.proxy.values
        for lo in range(0, assessed.size, _BLOCK_HOURS):
            block = assessed[lo:lo + _BLOCK_HOURS]
            p_ks[block], offset[block], gain[block] = _measure_rows(
                [sensor[a:b] for a, b in zip(s_lo[block].tolist(), s_hi[block].tolist())],
                [proxy[a:b] for a, b in zip(p_lo[block].tolist(), p_hi[block].tolist())])
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


def _measure_together(engine, stamp: int) -> list:
    """Measure the hour `stamp` for `engine` and every live engine in step
    with it, each at its own window length; returns each one's slot (as
    `SiteEngine._slot`), `engine`'s first, also set on it. p_ks is None
    where the engine does not assess the windows, the estimate also where
    the sensor window is degenerate. Each assessed engine adds one row; the
    others' windows are not measured, as another proxy window may be empty.
    """
    last = engine.ledger.last_stamp
    with _live_lock:
        live = list(_live)
    engines = [engine] + [e for e in live if e.ledger.last_stamp == last and e is not engine]
    bounds, slots, rows = {}, [], []
    for other in engines:
        sensor, proxy, td_hours = other.sensor, other.proxy, other.thresholds.td_hours
        for series in (sensor, proxy):
            if (series, td_hours) not in bounds:
                # plain ints: numpy scalars make the slicing and comparisons slower
                bounds[series, td_hours] = window_bounds(series.hours, stamp, td_hours).tolist()
        (s_lo, s_hi), (p_lo, p_hi) = bounds[sensor, td_hours], bounds[proxy, td_hours]
        if window_complete(min(s_hi - s_lo, p_hi - p_lo), td_hours,
                           other.thresholds.completeness_min):
            rows.append((len(slots), sensor.values[s_lo:s_hi], proxy.values[p_lo:p_hi]))
        raw = (float(sensor.values[s_hi - 1])
               if s_hi > s_lo and sensor.hours[s_hi - 1] == stamp else None)
        slots.append((stamp, raw, None, None, None))
    if rows:
        which, y, z = zip(*rows)
        p_ks, offset, gain = _measure_rows(y, z)
        for k, measured in zip(which, zip(p_ks, _or_none(offset), _or_none(gain))):
            slots[k] = slots[k][:2] + measured
    for other, slot in zip(engines, slots):
        other._slot = slot
    return slots


# Assessed hours per _measure_rows call in SiteEngine.run: bounds the
# padded window arrays to a few hundred kB whatever the span's length.
_BLOCK_HOURS = 128


def _measure_rows(sensor_windows, proxy_windows):
    """The p values (a list) and the offset and gain arrays of
    `estimate_rows` (NaN where the sensor window is degenerate) of the
    window pairs (sensor_windows[r], proxy_windows[r]). Each side's slices
    are padded here with +inf to rows as long as its longest window."""
    padded = []
    for windows in (sensor_windows, proxy_windows):
        count = np.array([window.size for window in windows])
        rows = np.full((count.size, count.max()), np.inf)
        rows[np.arange(count.max()) < count[:, None]] = np.concatenate(windows)
        padded += rows, count
    y, y_n, z, z_n = padded
    d = kernels.ks_distance(y, z, y_n, z_n)
    p_ks = [ks_pvalue(*key) for key in zip(d.tolist(), y_n.tolist(), z_n.tolist())]
    return (p_ks, *estimate_rows(y, y_n, z, z_n))


def _or_none(values: np.ndarray) -> list:
    """values as Python floats, None where NaN."""
    return [None if v != v else v for v in values.tolist()]
