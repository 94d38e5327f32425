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
from dataclasses import dataclass

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


def match_moments(mean_y, var_y, mean_z, var_z):
    """(offset, gain) that map the sensor moments onto the proxy's, for
    floats or arrays alike; the sensor variance must be above
    DEGENERATE_VAR_EPS."""
    gain = np.sqrt(var_z / var_y)
    return mean_z - gain * mean_y, gain


def moment_match(sensor_win: WindowSlice, proxy_win: WindowSlice,
                 completeness_min: float = 0.75) -> CalibrationEstimate:
    """Raw gain/offset estimate from one pair of windows, at the end of the
    sensor window.

    Raises InsufficientDataError when either window misses the completeness
    threshold, and DegenerateWindowError when the sensor window is flat
    (variance at most DEGENERATE_VAR_EPS); the engine treats such an hour as a
    gain breach rather than a crash.
    """
    for win in (sensor_win, proxy_win):
        if not win.sufficient(completeness_min):
            raise InsufficientDataError(
                f"insufficient data: window {win.site_id} completeness "
                f"{win.completeness:.2f} < {completeness_min}"
            )
    mean_y, var_y = kernels.window_moments(sensor_win.samples)
    if var_y <= DEGENERATE_VAR_EPS:
        raise DegenerateWindowError(
            f"degenerate sensor window at {sensor_win.site_id}: zero variance"
        )
    offset, gain = match_moments(mean_y, var_y, *kernels.window_moments(proxy_win.samples))
    return CalibrationEstimate(sensor_win.end, float(offset), float(gain), RAW)


def apply_correction(est: CalibrationEstimate, reading):
    """Best estimate of the true concentration given a sensor reading.

    Accepts a scalar or an array of readings.
    """
    return est.offset + est.gain * reading


def _running(start: float, terms: np.ndarray) -> np.ndarray:
    """start + terms[0], then + terms[1], ...: np.cumsum adds in order, so
    each entry equals the running total of repeated `+=`."""
    return np.cumsum(np.concatenate(([start], terms)))[1:]


def _solve_quadratic(a, s1, s2, s3, s4, rhs):
    """Normal equations of the least-squares quadratic, solved by Cramer's
    rule for each right-hand side (t0, t1, t2) in `rhs`, for floats or
    elementwise over arrays; the determinant and its minors are shared.

    Returns (coefficients, determined): one (c0, c1, c2) per right-hand
    side, and whether the system is determined; `a` is the point count as
    a float. Coefficients where `determined` is false are meaningless, and
    None for floats.
    """
    b, c = s1, s2
    d, e, f = s1, s2, s3
    g, h, i = s2, s3, s4
    m0, m1, m2 = e * i - f * h, d * i - f * g, d * h - e * g
    det = a * m0 - b * m1 + c * m2
    if isinstance(det, np.ndarray):
        determined = (a >= 3.0) & ~(np.abs(det) < 1e-12 * np.maximum(1.0, a * e * i))
        det = np.where(determined, det, 1.0)
    else:
        determined = a >= 3.0 and not abs(det) < 1e-12 * max(1.0, a * e * i)
        if not determined:
            return None, False
    coefficients = []
    for t0, t1, t2 in rhs:
        p, r = t1 * i - f * t2, d * t2 - t1 * g
        coefficients.append(((t0 * m0 - b * p + c * (t1 * h - e * t2)) / det,
                             (a * p - t0 * m1 + c * r) / det,
                             (a * (e * t2 - t1 * h) - b * r + t0 * m2) / det))
    return coefficients, determined


# The running sums of the trend fit, in scaled tau u: of u, u^2, u^3 and
# u^4, then of offset * (1, u, u^2) and of gain * (1, u, u^2).
_SUMS = ("_s1", "_s2", "_s3", "_s4", "_o0", "_o1", "_o2", "_g0", "_g1", "_g2")


class EstimateHistory:
    """Raw estimates for one site, the running trend fit over them, and the
    trend that the latest estimate left.

    The trend is two least-squares quadratics, of the offsets and of the
    gains, over every estimate so far; tau, the hours since the first
    estimate (the anchor), is scaled by 1/1024. Both fits share the power
    sums of the taus, and so the normal matrix and its determinant; each
    parameter keeps its own right-hand side, so a refit after each new
    estimate costs O(1). The fit is determined once the absolute
    determinant of the normal matrix reaches 1e-12 * max(1, n * sum(u^2) *
    sum(u^4)) over the n scaled taus u: with hourly estimates first at the
    12th estimate, at 2-hour spacing the 8th, at 24-hour spacing the 3rd.
    Until then the latest raw estimate stands in for the trend.

    `trend` is the (offset, gain) pair that the latest `append` or `extend`
    left, None while the history is empty: what `trend_at` gives from that
    estimate until the next one. Single writer per site.
    """

    __slots__ = ("site_id", "stamps", "offsets", "gains", "trend") + _SUMS

    def __init__(self, site_id: str):
        self.site_id = site_id
        self.stamps, self.offsets, self.gains = [], [], []
        self.trend = None
        self._s1 = self._s2 = self._s3 = self._s4 = 0.0
        self._o0 = self._o1 = self._o2 = 0.0
        self._g0 = self._g1 = self._g2 = 0.0

    def __len__(self):
        return len(self.stamps)

    def append(self, stamp: int, offset: float, gain: float):
        """Record one raw estimate.

        Returns the trend's (offset, gain), which `trend` then holds.
        """
        if not (math.isfinite(offset) and math.isfinite(gain) and gain >= 0):
            raise ValueError("raw estimates need a finite offset and a finite, nonnegative gain")
        if self.stamps and stamp <= self.stamps[-1]:
            raise ValueError("estimates must arrive in increasing time order")
        self.stamps.append(stamp)
        self.offsets.append(offset)
        self.gains.append(gain)
        tau = float(stamp - self.stamps[0])
        u = tau * _TAU_SCALE
        u2 = u * u
        self._s1 += u
        self._s2 += u2
        self._s3 += u2 * u
        self._s4 += u2 * u2
        self._o0 += offset
        self._o1 += offset * u
        self._o2 += offset * u2
        self._g0 += gain
        self._g1 += gain * u
        self._g2 += gain * u2
        self.trend = self._fit_at(tau, offset, gain)[:2]
        return self.trend

    def extend(self, stamps, offsets, gains):
        """Append raw estimates in bulk, leaving the history bit for bit as
        repeated `append` would.

        Returns (offset, gain) arrays: for each new estimate, what `append`
        returns for it.
        """
        stamps = np.asarray(stamps, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.float64)
        gains = np.asarray(gains, dtype=np.float64)
        if stamps.size == 0:
            return offsets, gains
        if np.any(np.diff(stamps) <= 0) or (self.stamps and stamps[0] <= self.stamps[-1]):
            raise ValueError("estimates must arrive in increasing time order")
        count = len(self.stamps) + np.arange(1, stamps.size + 1, dtype=np.float64)
        self.stamps.extend(stamps.tolist())
        self.offsets.extend(offsets.tolist())
        self.gains.extend(gains.tolist())
        u = (stamps - self.stamps[0]).astype(np.float64) * _TAU_SCALE
        u2 = u * u
        terms = (u, u2, u2 * u, u2 * u2, offsets, offsets * u, offsets * u2,
                 gains, gains * u, gains * u2)
        sums = [_running(getattr(self, name), term) for name, term in zip(_SUMS, terms)]
        for name, running in zip(_SUMS, sums):
            setattr(self, name, float(running[-1]))
        coef, determined = _solve_quadratic(count, *sums[:4], (sums[4:7], sums[7:]))
        (a0, a1, a2), (b0, b1, b2) = coef
        fit_gain = b0 + b1 * u + b2 * u * u
        new_offset = np.where(determined, a0 + a1 * u + a2 * u * u, offsets)
        new_gain = np.where(determined, np.where(fit_gain > 0.0, fit_gain, 0.0), gains)
        self.trend = (float(new_offset[-1]), float(new_gain[-1]))
        return new_offset, new_gain

    def trend_at(self, stamp) -> CalibrationEstimate:
        """Trend-smoothed estimate at `stamp`; falls back to the most recent
        raw estimate (source stays "raw", which is the flag) while the fit is
        not determined.

        Evaluation time is clamped to the last raw estimate: the quadratic
        is a smoother, not a forecaster, and must not extrapolate through
        periods where no estimates could be computed.
        """
        if not self.stamps:
            raise InsufficientDataError("no raw estimates recorded")
        stamp = to_epoch_hour(stamp)
        tau = float(min(stamp, self.stamps[-1]) - self.stamps[0])
        offset, gain, fitted = self._fit_at(tau, self.offsets[-1], self.gains[-1])
        if not fitted:
            return CalibrationEstimate(self.stamps[-1], offset, gain, RAW)
        return CalibrationEstimate(stamp, offset, gain, TREND)

    def _fit_at(self, tau: float, raw_offset: float, raw_gain: float):
        """(offset, gain, determined): the trend at tau, which is both fits
        there with the gain floored at zero, or the raw estimate given while
        the fit is not determined."""
        coef, _ = _solve_quadratic(float(len(self.stamps)), self._s1, self._s2, self._s3,
                                   self._s4, ((self._o0, self._o1, self._o2),
                                              (self._g0, self._g1, self._g2)))
        if coef is None:
            return raw_offset, raw_gain, False
        (a0, a1, a2), (b0, b1, b2) = coef
        u = tau * _TAU_SCALE
        fit_gain = b0 + b1 * u + b2 * u * u
        return a0 + a1 * u + a2 * u * u, fit_gain if fit_gain > 0.0 else 0.0, True

