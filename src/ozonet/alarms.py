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

A streamed hour is measured in one batch for the engines stepping in
step: those with the same window length whose last stepped hour is the
same. The first of them to step the hour measures it for all: each proxy
window once, every sensor window's bounds, then one KS distance call over
the padded rows of the (proxy, sensor) pairs that one of them assesses and
one moment pass over those sensor rows. It stores the result as one entry
per proxy series and window length: the proxy's bounds and moments and each
sensor's bounds, distance and moments. The others find their rows there.
An engine that finds the hour stored without its own sensor, or without a
distance it needs (an engine not in step when the batch ran, built later,
say), measures its pair, and what the engines now in step with it lack,
and keeps the rows already stored. Each engine then makes its own
completeness check, p value, estimate, trend and persistence update. An
engine with no peer in step is a batch of one.

The engines in step are found in a set per (window length, last stepped
hour), which each stepping engine moves to; a batch costs what its engines
do, whatever else is alive. Sets and entries are freed with their engines
and proxy series. An entry is an immutable tuple, replaced whole, and an
engine uses it only for its own sensor, window length and hour, so which
engines join a batch decides only how much work is shared, never a row.
Streams on one proxy and window length at different hours that take turns
engine by engine replace each other's entries, so each step then measures
its peers again: at worst about N*N/2 sensor windows for a tick of N
engines, where stepping them alone measures N. Streams that take turns by
whole ticks, as twin passes do, measure each window once per tick.
"""

from __future__ import annotations

import threading
import weakref
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

# proxy series -> {td_hours: (stamp, p_lo, p_hi, moments, sensors)}: the
# latest hour measured on the proxy for each window length. That is the
# proxy window (stamp - td_hours, stamp] as index bounds and window_moments
# (None when the window is empty), and weakref(sensor series) -> (s_lo,
# s_hi, d, mean, var) for the sensor windows measured against it (d and the
# moments None where either window is empty). Weak sensor keys: a series may
# be one engine's sensor and another's proxy, and a strong one would keep it
# alive. See the module docstring.
_proxy_windows = weakref.WeakKeyDictionary()

# (td_hours, last stepped hour) -> the live engines there, the candidates of
# a batch: a WeakSet held by its engines, so it is freed once they have all
# moved on or died. The lock keeps an engine moving in another thread from
# changing a set while it is copied.
_in_step = weakref.WeakValueDictionary()
_in_step_lock = threading.Lock()


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
        self._cohort = None
        self._file_under(None)

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
        if measured is None:
            self._file_under(stamp)     # run() files the engine after its last hour

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
        td_hours = th.td_hours
        sensor, proxy = self.sensor, self.proxy
        key = weakref.ref(sensor)
        entry = _proxy_windows.get(proxy, {}).get(td_hours)
        row = entry[4].get(key) if entry is not None and entry[0] == stamp else None
        if row is None or row[2] is None and _assessed(row, entry, th):
            with _in_step_lock:
                engines = list(self._cohort)
            entry = _measure_together(engines, stamp, td_hours)[proxy]
            row = entry[4][key]
        _, p_lo, p_hi, z_moments, _ = entry
        s_lo, s_hi, d, mean_y, var_y = row
        raw_value = None
        if s_hi > s_lo and sensor.hours[s_hi - 1] == stamp:
            raw_value = float(sensor.values[s_hi - 1])

        p = offset = gain = None
        if _assessed(row, entry, th):
            p = ks_pvalue(d, s_hi - s_lo, p_hi - p_lo)
            # the raw estimate as run() makes it: none for a degenerate window
            if var_y > DEGENERATE_VAR_EPS:
                offset, gain = match_moments(mean_y, var_y, *z_moments)
                offset, gain = float(offset), float(gain)
                if _trended(offset, gain):
                    self.history.append(stamp, offset, gain)

        return (raw_value, p, offset, gain) + (self.history.trend or (None, None))

    def _file_under(self, last_stamp):
        """Move this engine to the set of live engines in step with it:
        those with its window length whose last stepped hour is
        `last_stamp`."""
        key = (self.thresholds.td_hours, last_stamp)
        with _in_step_lock:
            if self._cohort is not None:
                self._cohort.discard(self)
            cohort = _in_step.get(key)
            if cohort is None:
                cohort = _in_step[key] = weakref.WeakSet()
            cohort.add(self)
        self._cohort = cohort

    def run(self, start=None, end=None) -> SiteRunResult:
        """Evaluate every hour of the sensor's span (or the given range).

        Gives the rows that stepping each hour in turn gives, and leaves the
        engine in the same state, so `step` can carry on after it. The
        window statistics of the whole span come from array passes; each
        hour's measurement then goes through `step`. The result holds the
        engine's history rows as they stand at the end of the run.
        """
        if len(self.sensor):
            first = to_epoch_hour(start) if start is not None else int(self.sensor.hours[0])
            last = to_epoch_hour(end) if end is not None else int(self.sensor.hours[-1])
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
        self._file_under(self.ledger.last_stamp)
        return SiteRunResult(self.site_id, list(self.ledger.history))


def _assessed(row: tuple, entry: tuple, th: Thresholds) -> bool:
    """Whether an engine with thresholds `th` assesses the sensor window of
    `row` against the proxy window of `entry`; never for an empty one."""
    return window_complete(min(row[1] - row[0], entry[2] - entry[1]), th.td_hours,
                           th.completeness_min)


def _measure_together(engines, stamp: int, td_hours: int) -> dict:
    """Measure the windows ending at `stamp` of the (proxy, sensor) pairs of
    `engines` for `td_hours`; returns proxy -> its fresh entry, each also
    stored. A proxy's stored entry of this hour keeps its proxy window and
    rows, and only what they lack is measured.

    Every pair gets its window bounds. A pair that one of its engines
    assesses also gets its KS distance and sensor moments (None where
    not): one call over padded rows and one pass by length for all such
    pairs, each proxy window once; the bits equal those of the one-window
    calls.
    """
    entries, wanted = {}, {}
    for engine in engines:
        proxy, sensor = engine.proxy, engine.sensor
        entry = entries.get(proxy)
        if entry is None:
            entry = _proxy_windows.get(proxy, {}).get(td_hours)
            if entry is None or entry[0] != stamp:
                p_lo, p_hi = window_bounds(proxy.hours, stamp, td_hours).tolist()
                entry = (stamp, p_lo, p_hi, kernels.window_moments(proxy.values[p_lo:p_hi])
                         if p_hi > p_lo else None, {})
            entry = entries[proxy] = entry[:4] + (dict(entry[4]),)
        key = weakref.ref(sensor)
        row = entry[4].get(key)
        if row is None:
            # plain ints: numpy scalars make the slicing and comparisons slower
            row = entry[4][key] = (*window_bounds(sensor.hours, stamp, td_hours).tolist(),
                                   None, None, None)
        if row[2] is None and _assessed(row, entry, engine.thresholds):
            wanted[proxy, key] = (proxy, sensor, row[0], row[1])
    pairs = list(wanted.values())
    if pairs:
        y_n = np.array([s_hi - s_lo for _, _, s_lo, s_hi in pairs])
        y = np.full((y_n.size, y_n.max()), np.inf)
        for row, (_, sensor, s_lo, s_hi) in zip(y, pairs):
            row[:s_hi - s_lo] = sensor.values[s_lo:s_hi]
        # each proxy window once, then one row per pair
        slot = {}
        which = [slot.setdefault(proxy, len(slot)) for proxy, *_ in pairs]
        z_n = np.array([entries[proxy][2] - entries[proxy][1] for proxy in slot])
        z = np.full((z_n.size, z_n.max()), np.inf)
        for row, proxy in zip(z, slot):
            _, p_lo, p_hi, _, _ = entries[proxy]
            row[:p_hi - p_lo] = proxy.values[p_lo:p_hi]
        d = kernels.ks_distance(y, z[which], y_n, z_n[which])
        mean, var = _moments_by_length(y, y_n)
        for (proxy, sensor, s_lo, s_hi), measured in zip(pairs, zip(d.tolist(), mean.tolist(),
                                                                    var.tolist())):
            entries[proxy][4][weakref.ref(sensor)] = (s_lo, s_hi, *measured)
    for proxy, entry in entries.items():
        _proxy_windows.setdefault(proxy, {})[td_hours] = entry
    return entries


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
        d[block] = kernels.ks_distance(y, z, y_n[block], z_n[block])
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
