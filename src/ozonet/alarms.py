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

import numpy as np

from ozonet import kernels
from ozonet.calibrate import (
    CalibrationEstimate,
    EstimateHistory,
    apply_correction,
    estimate_from_samples,
)
from ozonet.errors import DegenerateWindowError
from ozonet.kstest import ks_pvalue
from ozonet.timeseries import VALUE_MAX, VALUE_MIN, TimeSeries, to_epoch_hour

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
        if not self.offset_low < 0.0 < self.offset_high:
            raise ValueError("offset bounds must straddle 0")
        if self.td_hours <= 0 or self.tf_hours <= 0:
            raise ValueError("timescales must be positive")
        if not 0.0 < self.completeness_min <= 1.0:
            raise ValueError("completeness_min must be in (0, 1]")
        if self.correction_alarm_count < 1:
            raise ValueError("correction_alarm_count must be >= 1")


@dataclass(frozen=True)
class BreachFlags:
    """Per-test breach state for one hour; None means not evaluable."""

    ks: bool | None
    offset: bool | None
    gain: bool | None

    def as_tuple(self):
        return (self.ks, self.offset, self.gain)


FROZEN = BreachFlags(None, None, None)


def evaluate_breaches(p_ks: float, est: CalibrationEstimate, th: Thresholds) -> BreachFlags:
    """Instantaneous breach flags; bounds themselves count as breaches."""
    return BreachFlags(
        ks=p_ks <= th.p_ks_min,
        offset=est.offset <= th.offset_low or est.offset >= th.offset_high,
        gain=est.gain <= th.gain_low or est.gain >= th.gain_high,
    )


@dataclass
class HistoryRow:
    """One control-chart row; None marks fields that could not be computed."""

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
    breach_start: list = field(default_factory=lambda: [None, None, None])
    latched: list = field(default_factory=lambda: [False, False, False])
    history: list = field(default_factory=list)
    last_stamp: int | None = None

    def latched_count(self) -> int:
        return sum(self.latched)


def update_persistence(ledger: AlarmLedger, stamp, flags: BreachFlags, th: Thresholds) -> AlarmLedger:
    """Advance the per-test clocks by one evaluated hour.

    A breach hour increments its test's clock (starting it if needed); a
    clean hour resets the clock and clears the latch; a None flag freezes
    the clock. The latch sets once the condition has held for more than
    tf_hours evaluated hours, i.e. on hour tf_hours + 1 of an episode.
    """
    stamp = to_epoch_hour(stamp)
    if ledger.last_stamp is not None and stamp <= ledger.last_stamp:
        raise ValueError(f"out-of-order update: {stamp} after {ledger.last_stamp}")
    ledger.last_stamp = stamp
    for i, flag in enumerate(flags.as_tuple()):
        if flag is None:
            continue
        if flag:
            ledger.breach_hours[i] += 1
            if ledger.breach_hours[i] == 1:
                ledger.breach_start[i] = stamp
            if ledger.breach_hours[i] > th.tf_hours:
                ledger.latched[i] = True
        else:
            ledger.breach_hours[i] = 0
            ledger.breach_start[i] = None
            ledger.latched[i] = False
    return ledger


def decide_correction(ledger: AlarmLedger, th: Thresholds) -> bool:
    """Correct once at least correction_alarm_count alarms are latched."""
    return ledger.latched_count() >= th.correction_alarm_count


@dataclass
class SiteRunResult:
    site_id: str
    rows: list

    @property
    def monitored(self) -> list:
        return [r for r in self.rows if r.p_ks is not None]

    def fraction(self, attr: str) -> float:
        """Fraction of monitored hours where a boolean row attribute held."""
        monitored = self.monitored
        if not monitored:
            return 0.0
        return sum(bool(getattr(r, attr)) for r in monitored) / len(monitored)

    def alarm_fractions(self) -> dict:
        return {name: self.fraction(f"alarm_{name}") for name in TEST_NAMES}

    def corrected_fraction(self) -> float:
        return self.fraction("corrected")

    def output_series(self) -> TimeSeries:
        pairs = [(r.stamp, r.output_value) for r in self.rows if r.output_value is not None]
        return TimeSeries.from_pairs(self.site_id, pairs)

    def raw_series(self) -> TimeSeries:
        pairs = [(r.stamp, r.raw_value) for r in self.rows if r.raw_value is not None]
        return TimeSeries.from_pairs(self.site_id, pairs)


class SiteEngine:
    """Per-hour monitoring pipeline for one sensor against one proxy.

    Assessment and correction both use the trend-smoothed gain/offset once
    the trend is determined (>= 3 raw estimates); before that the raw
    estimate stands in.
    """

    def __init__(self, site_id: str, sensor: TimeSeries, proxy: TimeSeries,
                 thresholds: Thresholds | None = None):
        self.site_id = site_id
        self.thresholds = thresholds or Thresholds()
        self.sensor = sensor
        self.proxy = proxy
        self.history = EstimateHistory(site_id)
        self.ledger = AlarmLedger(site_id)
        # rolling window cursors, advanced monotonically
        self._s_lo = self._s_hi = 0
        self._p_lo = self._p_hi = 0
        self._cursor = None

    def _advance(self, hours: np.ndarray, lo: int, hi: int, stamp: int, td: int):
        n = hours.size
        while hi < n and hours[hi] <= stamp:
            hi += 1
        floor = stamp - td
        while lo < hi and hours[lo] <= floor:
            lo += 1
        return lo, hi

    def step(self, stamp) -> HistoryRow:
        """Evaluate one hour; appends and returns the history row."""
        stamp = to_epoch_hour(stamp)
        if self._cursor is not None and stamp <= self._cursor:
            raise ValueError("steps must advance in time")
        self._cursor = stamp
        th = self.thresholds

        self._s_lo, self._s_hi = self._advance(self.sensor.hours, self._s_lo, self._s_hi,
                                               stamp, th.td_hours)
        self._p_lo, self._p_hi = self._advance(self.proxy.hours, self._p_lo, self._p_hi,
                                               stamp, th.td_hours)
        raw_value = None
        if self._s_hi > self._s_lo and self.sensor.hours[self._s_hi - 1] == stamp:
            raw_value = float(self.sensor.values[self._s_hi - 1])

        n_y = self._s_hi - self._s_lo
        n_z = self._p_hi - self._p_lo
        need = th.completeness_min * th.td_hours
        status, p, raw_est, flags = STATUS_INSUFFICIENT, None, None, FROZEN
        trended = False
        if n_y >= need and n_z >= need:
            y = self.sensor.values[self._s_lo:self._s_hi]
            z = self.proxy.values[self._p_lo:self._p_hi]
            d = kernels.ks_distance(y, z)
            p = ks_pvalue(d, n_y, n_z)
            try:
                raw_est = estimate_from_samples(self.site_id, stamp, y, z)
            except DegenerateWindowError:
                # flat-lined sensor: no estimate; gain test breaches outright,
                # the offset test cannot be evaluated and freezes
                status = STATUS_DEGENERATE
                flags = BreachFlags(ks=p <= th.p_ks_min, offset=None, gain=True)
            else:
                status = STATUS_OK
                trended = (TREND_GAIN_MIN <= raw_est.gain <= TREND_GAIN_MAX
                           and abs(raw_est.offset) <= TREND_OFFSET_CAP)
                if trended:
                    self.history.append(raw_est)

        # one trend evaluation per hour serves assessment, correction and chart
        trend = self.history.trend_at(stamp) if len(self.history) else None
        if status == STATUS_OK:
            # an estimate kept out of the trend is assessed directly, so the
            # breach fires without contaminating the trend
            flags = evaluate_breaches(p, trend if trended else raw_est, th)
        if status == STATUS_INSUFFICIENT:
            # clocks frozen entirely; do not touch the ledger beyond ordering
            if self.ledger.last_stamp is None or stamp > self.ledger.last_stamp:
                self.ledger.last_stamp = stamp
        else:
            update_persistence(self.ledger, stamp, flags, th)

        corrected = False
        output_value = raw_value
        if status != STATUS_INSUFFICIENT and decide_correction(self.ledger, th) \
                and raw_value is not None and trend is not None:
            # corrected readings clip to the physical reporting range
            output_value = float(np.clip(apply_correction(trend, raw_value),
                                         VALUE_MIN, VALUE_MAX))
            corrected = True

        row = HistoryRow(
            stamp=stamp,
            status=status,
            p_ks=p,
            offset_raw=None if raw_est is None else raw_est.offset,
            gain_raw=None if raw_est is None else raw_est.gain,
            offset_trend=None if trend is None else trend.offset,
            gain_trend=None if trend is None else trend.gain,
            breach_ks=flags.ks,
            breach_offset=flags.offset,
            breach_gain=flags.gain,
            alarm_ks=self.ledger.latched[0],
            alarm_offset=self.ledger.latched[1],
            alarm_gain=self.ledger.latched[2],
            corrected=corrected,
            raw_value=raw_value,
            output_value=output_value,
        )
        self.ledger.history.append(row)
        return row

    def run(self, start=None, end=None) -> SiteRunResult:
        """Step every hour of the sensor's span (or the given range)."""
        if len(self.sensor) == 0:
            return SiteRunResult(self.site_id, [])
        first = to_epoch_hour(start) if start is not None else int(self.sensor.hours[0])
        last = to_epoch_hour(end) if end is not None else int(self.sensor.hours[-1])
        for stamp in range(first, last + 1):
            self.step(stamp)
        return SiteRunResult(self.site_id, self.ledger.history)


def run_site(site_id: str, sensor: TimeSeries, proxy: TimeSeries,
             thresholds: Thresholds | None = None) -> SiteRunResult:
    """Convenience wrapper: build an engine and run the sensor's full span."""
    return SiteEngine(site_id, sensor, proxy, thresholds).run()
