"""Gain/offset estimation by moment matching, and trend smoothing.

A sensor is recalibrated without co-location by matching the first two
moments of its windowed output to those of a proxy window:

    gain   = sqrt(var(proxy) / var(sensor))
    offset = mean(proxy) - gain * mean(sensor)
    corrected reading = offset + gain * reading

Variances are unbiased (n-1 divisor). The gain is taken as the positive
root always; an anti-correlated sensor is not representable and shows up
through the distribution-similarity alarms instead.

Raw hourly estimates are noisy, so corrections use a long-term trend:
an ordinary least squares quadratic over all raw estimates from the
start of monitoring up to now, refit as each estimate arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ozonet import kernels
from ozonet.errors import DegenerateWindowError, InsufficientDataError
from ozonet.timeseries import WindowSlice, to_epoch_hour

# Elapsed hours are rescaled before fitting so tau^4 sums stay well
# conditioned over multi-month histories; 2^-10 is exact in binary.
_TAU_SCALE = 1.0 / 1024.0

# A window whose variance sits below this (ppb^2) is flat-lined: live
# atmospheric windows are orders of magnitude above it, while a held
# constant can miss exact zero by summation rounding (~1e-28).
DEGENERATE_VAR_EPS = 1e-12

RAW = "raw"
TREND = "trend"


@dataclass(frozen=True)
class CalibrationEstimate:
    """One (offset, gain) estimate: corrected = offset + gain * reading."""

    stamp: int          # epoch hour the estimate applies to
    offset: float       # ppb
    gain: float         # unitless, >= 0
    source: str = RAW   # "raw" (window moments) or "trend" (smoothed)

    def __post_init__(self):
        if not (math.isfinite(self.offset) and math.isfinite(self.gain)):
            raise ValueError("calibration parameters must be finite")
        if self.gain < 0:
            raise ValueError("gain must be nonnegative")


def estimate_from_samples(site_id: str, stamp: int, sensor, proxy) -> CalibrationEstimate:
    """Raw gain/offset estimate at `stamp` from sensor and proxy window samples.

    Raises DegenerateWindowError when the sensor samples have zero variance
    (flat-lined instrument); the alarm engine treats that as a gain breach
    rather than a crash.
    """
    mean_y, var_y = kernels.window_moments(sensor)
    mean_z, var_z = kernels.window_moments(proxy)
    if var_y <= DEGENERATE_VAR_EPS:
        raise DegenerateWindowError(
            f"degenerate sensor window at {site_id}: zero variance"
        )
    offset, gain = match_moments(mean_y, var_y, mean_z, var_z)
    return CalibrationEstimate(stamp, float(offset), float(gain), RAW)


def match_moments(mean_y, var_y, mean_z, var_z):
    """(offset, gain) that map the sensor moments onto the proxy's, for
    floats or arrays alike; the sensor variance must be above
    DEGENERATE_VAR_EPS."""
    gain = np.sqrt(var_z / var_y)
    return mean_z - gain * mean_y, gain


def moment_match(sensor_win: WindowSlice, proxy_win: WindowSlice,
                 completeness_min: float = 0.75) -> CalibrationEstimate:
    """Raw gain/offset estimate from one pair of windows.

    Raises InsufficientDataError when either window misses the completeness
    threshold, and DegenerateWindowError as estimate_from_samples does.
    """
    for win in (sensor_win, proxy_win):
        if not win.sufficient(completeness_min):
            raise InsufficientDataError(
                f"insufficient data: window {win.site_id} completeness "
                f"{win.completeness:.2f} < {completeness_min}"
            )
    return estimate_from_samples(sensor_win.site_id, sensor_win.end,
                                 sensor_win.samples, proxy_win.samples)


def apply_correction(est: CalibrationEstimate, reading):
    """Best estimate of the true concentration given a sensor reading.

    Accepts a scalar or an array of readings.
    """
    return est.offset + est.gain * reading


def _running(start: float, terms: np.ndarray) -> np.ndarray:
    """start + terms[0], then + terms[1], ...: np.cumsum adds in order, so
    each entry equals the running total of repeated `+=`."""
    return np.cumsum(np.concatenate(([start], terms)))[1:]


def _solve_quadratic(a, s1, s2, s3, s4, t0, t1, t2):
    """Normal equations of the least-squares quadratic, solved by Cramer's
    rule, for floats or elementwise over arrays.

    Returns (c0, c1, c2, determined); `a` is the point count as a float.
    Coefficients where `determined` is false are meaningless.
    """
    b, c = s1, s2
    d, e, f = s1, s2, s3
    g, h, i = s2, s3, s4
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if isinstance(det, np.ndarray):
        determined = (a >= 3.0) & ~(np.abs(det) < 1e-12 * np.maximum(1.0, a * e * i))
        det = np.where(determined, det, 1.0)
    else:
        determined = a >= 3.0 and not abs(det) < 1e-12 * max(1.0, a * e * i)
        if not determined:
            return None, None, None, False
    c0 = (t0 * (e * i - f * h) - b * (t1 * i - f * t2) + c * (t1 * h - e * t2)) / det
    c1 = (a * (t1 * i - f * t2) - t0 * (d * i - f * g) + c * (d * t2 - t1 * g)) / det
    c2 = (a * (e * t2 - t1 * h) - b * (d * t2 - t1 * g) + t0 * (d * h - e * g)) / det
    return c0, c1, c2, determined


class ExpandingQuadFit:
    """Incremental least-squares quadratic over an expanding window.

    Maintains the power sums needed for the 3x3 normal equations so a
    refit after each new point costs O(1). Taus must be nonnegative and
    nondecreasing relative to the anchor.
    """

    __slots__ = ("n", "s1", "s2", "s3", "s4", "t0", "t1", "t2")

    def __init__(self):
        self.n = 0
        self.s1 = self.s2 = self.s3 = self.s4 = 0.0
        self.t0 = self.t1 = self.t2 = 0.0

    def push(self, tau: float, value: float):
        u = tau * _TAU_SCALE
        u2 = u * u
        self.n += 1
        self.s1 += u
        self.s2 += u2
        self.s3 += u2 * u
        self.s4 += u2 * u2
        self.t0 += value
        self.t1 += value * u
        self.t2 += value * u2

    def extend(self, taus, values):
        """Push each (tau, value) in order, leaving the sums bit for bit as
        repeated `push` would, and return (fit, determined): the fit's
        prediction at each tau just after that point was pushed, and whether
        the fit was determined there."""
        u = np.asarray(taus, dtype=np.float64) * _TAU_SCALE
        values = np.asarray(values, dtype=np.float64)
        u2 = u * u
        names = ("s1", "s2", "s3", "s4", "t0", "t1", "t2")
        terms = (u, u2, u2 * u, u2 * u2, values, values * u, values * u2)
        sums = [_running(getattr(self, name), term) for name, term in zip(names, terms)]
        count = self.n + np.arange(1, u.size + 1, dtype=np.float64)
        if u.size:
            self.n += u.size
            for name, running in zip(names, sums):
                setattr(self, name, float(running[-1]))
        c0, c1, c2, determined = _solve_quadratic(count, *sums)
        return c0 + c1 * u + c2 * u * u, determined

    def coefficients(self):
        """(c0, c1, c2) in scaled tau, or None when underdetermined."""
        c0, c1, c2, determined = _solve_quadratic(
            float(self.n), self.s1, self.s2, self.s3, self.s4, self.t0, self.t1, self.t2)
        return (c0, c1, c2) if determined else None

    def predict(self, tau: float):
        coef = self.coefficients()
        if coef is None:
            return None
        u = tau * _TAU_SCALE
        return coef[0] + coef[1] * u + coef[2] * u * u


@dataclass
class EstimateHistory:
    """Raw estimates for one site plus the running trend fits.

    Single writer per site; the anchor (first estimate's stamp) is time
    zero for the quadratic fits.
    """

    site_id: str
    stamps: list = field(default_factory=list)
    offsets: list = field(default_factory=list)
    gains: list = field(default_factory=list)
    _offset_fit: ExpandingQuadFit = field(default_factory=ExpandingQuadFit)
    _gain_fit: ExpandingQuadFit = field(default_factory=ExpandingQuadFit)

    def __len__(self):
        return len(self.stamps)

    def append(self, est: CalibrationEstimate):
        if est.source != RAW:
            raise ValueError("history stores raw estimates only")
        if self.stamps and est.stamp <= self.stamps[-1]:
            raise ValueError("estimates must arrive in increasing time order")
        self.stamps.append(est.stamp)
        self.offsets.append(est.offset)
        self.gains.append(est.gain)
        tau = float(est.stamp - self.stamps[0])
        self._offset_fit.push(tau, est.offset)
        self._gain_fit.push(tau, est.gain)

    def extend(self, stamps, offsets, gains):
        """Append raw estimates in bulk, leaving the history bit for bit as
        repeated `append` would.

        Returns (offset, gain) arrays: for each new estimate, what
        `trend_at` gives from its stamp until the next estimate arrives.
        """
        stamps = np.asarray(stamps, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.float64)
        gains = np.asarray(gains, dtype=np.float64)
        if stamps.size == 0:
            return offsets, gains
        if np.any(np.diff(stamps) <= 0) or (self.stamps and stamps[0] <= self.stamps[-1]):
            raise ValueError("estimates must arrive in increasing time order")
        self.stamps.extend(stamps.tolist())
        self.offsets.extend(offsets.tolist())
        self.gains.extend(gains.tolist())
        taus = (stamps - self.stamps[0]).astype(np.float64)
        offset_fit, offset_ok = self._offset_fit.extend(taus, offsets)
        gain_fit, gain_ok = self._gain_fit.extend(taus, gains)
        return _trend_or_raw(offset_ok & gain_ok, offset_fit, gain_fit, offsets, gains)

    def trend_coefficients(self, which: str = "gain"):
        """(c0, c1, c2) of the current fit in per-hour units, or None while
        the trend is underdetermined."""
        if which not in ("gain", "offset"):
            raise ValueError("which must be 'gain' or 'offset'")
        fit = self._gain_fit if which == "gain" else self._offset_fit
        coef = fit.coefficients()
        if coef is None:
            return None
        c0, c1, c2 = coef
        return (c0, c1 * _TAU_SCALE, c2 * _TAU_SCALE * _TAU_SCALE)

    def trend_at(self, stamp) -> CalibrationEstimate:
        """Trend-smoothed estimate at `stamp`; falls back to the most recent
        raw estimate (source stays "raw", which is the flag) below 3 points.

        Evaluation time is clamped to the last raw estimate: the quadratic
        is a smoother, not a forecaster, and must not extrapolate through
        periods where no estimates could be computed.
        """
        if not self.stamps:
            raise InsufficientDataError("no raw estimates recorded")
        stamp = to_epoch_hour(stamp)
        tau = float(min(stamp, self.stamps[-1]) - self.stamps[0])
        offset = self._offset_fit.predict(tau)
        gain = self._gain_fit.predict(tau)
        fitted = offset is not None and gain is not None
        offset, gain = _trend_or_raw(fitted, offset, gain, self.offsets[-1], self.gains[-1])
        if not fitted:
            return CalibrationEstimate(self.stamps[-1], offset, gain, RAW)
        return CalibrationEstimate(stamp, offset, gain, TREND)


def _trend_or_raw(fitted, fit_offset, fit_gain, raw_offset, raw_gain):
    """The trend's (offset, gain): the fit where it is determined, with the
    gain floored at zero, else the latest raw estimate; for floats or
    elementwise over arrays."""
    if isinstance(fitted, np.ndarray):
        return (np.where(fitted, fit_offset, raw_offset),
                np.where(fitted, np.where(fit_gain > 0.0, fit_gain, 0.0), raw_gain))
    if not fitted:
        return raw_offset, raw_gain
    return fit_offset, fit_gain if fit_gain > 0.0 else 0.0


def decompose(history: EstimateHistory, which: str = "gain"):
    """Split a raw estimate series into (trend, residual), residual = raw - trend.

    The trend at each point is the expanding fit through that point, i.e.
    what the control chart showed at that moment. Points before the fit is
    determined (< 3) use the raw value itself, giving zero residual there.
    """
    if which not in ("gain", "offset"):
        raise ValueError("which must be 'gain' or 'offset'")
    if not history.stamps:
        raise InsufficientDataError("no raw estimates recorded")
    raw = np.asarray(history.gains if which == "gain" else history.offsets, dtype=np.float64)
    stamps = np.asarray(history.stamps, dtype=np.int64)
    fit, determined = ExpandingQuadFit().extend((stamps - stamps[0]).astype(np.float64), raw)
    trend = np.where(determined, fit, raw)
    return stamps, trend, raw - trend
