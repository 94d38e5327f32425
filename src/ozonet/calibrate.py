"""Gain/offset estimation by moment matching, and trend smoothing.

A sensor is recalibrated without co-location by matching the first two
moments of its windowed output to those of a proxy window:

    gain   = sqrt(var(proxy) / var(sensor))
    offset = mean(proxy) - gain * mean(sensor)
    corrected reading = offset + gain * reading

Variances are unbiased (n-1 divisor). The gain is taken as the positive
root always; an anti-correlated sensor is not representable and shows up
through the distribution-similarity alarms instead. Every raw estimate,
the engine's and `moment_match`'s, comes from `estimate_rows`, which
matches the windows held in padded rows.

Raw hourly estimates are noisy, so corrections use a long-term trend:
an ordinary least squares quadratic over all raw estimates from the
start of monitoring up to now, refit as each estimate arrives.
`EstimateHistory` holds that fit as one vector of ten running sums, which
`append` and `extend` both grow by the terms that `_terms` writes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ozonet import kernels
from ozonet.errors import DegenerateWindowError, InsufficientDataError
from ozonet.timeseries import WindowSlice

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


def estimate_rows(y, y_n, z, z_n):
    """Raw (offset, gain) arrays of each window pair, from sensor rows `y`
    and proxy rows `z` that hold y_n and z_n samples before their padding:
    the moment match of the module docstring, NaN where the sensor window is
    flat (variance at most DEGENERATE_VAR_EPS)."""
    mean_y, var_y = _moments_by_length(y, y_n)
    mean_z, var_z = _moments_by_length(z, z_n)
    gain = np.sqrt(var_z / np.where(var_y > DEGENERATE_VAR_EPS, var_y, np.nan))
    return mean_z - gain * mean_y, gain


def _moments_by_length(windows: np.ndarray, count: np.ndarray):
    """window_moments of each row's samples, one call per distinct length
    (numpy's pairwise sum depends on the length)."""
    mean = np.empty(count.size)
    var = np.empty(count.size)
    for size in set(count.tolist()):
        rows = count == size
        mean[rows], var[rows] = kernels.window_moments(windows[rows, :size])
    return mean, var


def moment_match(sensor_win: WindowSlice, proxy_win: WindowSlice,
                 completeness_min: float = 0.75) -> CalibrationEstimate:
    """Raw gain/offset estimate from one pair of windows, at the end of the
    sensor window: `estimate_rows` of one row.

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
    y, z = sensor_win.samples, proxy_win.samples
    (offset,), (gain,) = estimate_rows(y[None], np.array([y.size]), z[None], np.array([z.size]))
    if math.isnan(gain):
        raise DegenerateWindowError(
            f"degenerate sensor window at {sensor_win.site_id}: zero variance"
        )
    return CalibrationEstimate(sensor_win.end, float(offset), float(gain), RAW)


def apply_correction(est: CalibrationEstimate, reading):
    """Best estimate of the true concentration given a sensor reading.

    Accepts a scalar or an array of readings.
    """
    return est.offset + est.gain * reading


def _terms(u, offset, gain):
    """The ten running-sum terms of estimates at scaled tau u, for floats or
    elementwise over arrays: u, u^2, u^3 and u^4, then offset * (1, u, u^2)
    and gain * (1, u, u^2)."""
    u2 = u * u
    return u, u2, u2 * u, u2 * u2, offset, offset * u, offset * u2, gain, gain * u, gain * u2


def _solve_quadratic(a, sums):
    """Normal equations of both least-squares quadratics, of the offsets and
    of the gains, solved by Cramer's rule from the ten running sums in
    `_terms` order, for floats or elementwise over arrays; the determinant
    and its minors are shared.

    Returns (coefficients, determined): ((c0, c1, c2) of the offset,
    (c0, c1, c2) of the gain), and whether the system is determined; `a`
    is the point count as a float. Coefficients where `determined` is false
    are meaningless, and None for floats.
    """
    s1, s2, s3, s4, o0, o1, o2, g0, g1, g2 = sums
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
    for t0, t1, t2 in ((o0, o1, o2), (g0, g1, g2)):
        p, r = t1 * i - f * t2, d * t2 - t1 * g
        coefficients.append(((t0 * m0 - b * p + c * (t1 * h - e * t2)) / det,
                             (a * p - t0 * m1 + c * r) / det,
                             (a * (e * t2 - t1 * h) - b * r + t0 * m2) / det))
    return coefficients, determined


def _fit(coef, u):
    """(offset, gain): both quadratics of `coef` at scaled tau u, for floats
    or elementwise over arrays, the gain not yet floored at zero."""
    (a0, a1, a2), (b0, b1, b2) = coef
    return a0 + a1 * u + a2 * u * u, b0 + b1 * u + b2 * u * u


_ESTIMATE_RULE = "raw estimates need a finite offset and a finite, nonnegative gain"


class EstimateHistory:
    """Raw estimates for one site, the running trend fit over them, and the
    trend that the latest estimate left.

    The trend is two least-squares quadratics, of the offsets and of the
    gains, over every estimate so far; tau, the hours since the first
    estimate (the anchor), is scaled by 1/1024. `_sums` holds the fit's ten
    running sums in `_terms` order: the power sums of the taus, which both
    fits share, then each parameter's right-hand side; so a refit after each
    new estimate costs O(1). The fit is determined once the absolute
    determinant of the normal matrix reaches 1e-12 * max(1, n * sum(u^2) *
    sum(u^4)) over the n scaled taus u: with hourly estimates first at the
    12th estimate, at 2-hour spacing the 8th, at 24-hour spacing the 3rd.
    Until then the latest raw estimate stands in for the trend.

    `trend` is the (offset, gain) pair that the latest `append` or `extend`
    left, None while the history is empty: what `trend_at` gives from that
    estimate until the next one. Single writer per site.
    """

    __slots__ = ("site_id", "stamps", "offsets", "gains", "trend", "_sums")

    def __init__(self, site_id: str):
        self.site_id = site_id
        self.stamps, self.offsets, self.gains = [], [], []
        self.trend = None
        self._sums = [0.0] * 10

    def __len__(self):
        return len(self.stamps)

    def append(self, stamp: int, offset: float, gain: float):
        """Record one raw estimate.

        Returns the trend's (offset, gain), which `trend` then holds.
        """
        if not (math.isfinite(offset) and math.isfinite(gain) and gain >= 0):
            raise ValueError(_ESTIMATE_RULE)
        if self.stamps and stamp <= self.stamps[-1]:
            raise ValueError("estimates must arrive in increasing time order")
        self.stamps.append(stamp)
        self.offsets.append(offset)
        self.gains.append(gain)
        tau = float(stamp - self.stamps[0])
        self._sums = list(map(operator.add, self._sums, _terms(tau * _TAU_SCALE, offset, gain)))
        self.trend = self._fit_at(tau, offset, gain)[:2]
        return self.trend

    def extend(self, stamps, offsets, gains):
        """Append raw estimates in bulk, leaving the history bit for bit as
        repeated `append` would, and raising what it would raise before any
        estimate enters.

        Returns (offset, gain) arrays: for each new estimate, what `append`
        returns for it.
        """
        stamps = np.asarray(stamps, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.float64)
        gains = np.asarray(gains, dtype=np.float64)
        if stamps.ndim != 1 or offsets.shape != stamps.shape or gains.shape != stamps.shape:
            raise ValueError("stamps, offsets and gains must be 1-D arrays of one length")
        if not (np.isfinite(offsets).all() and np.isfinite(gains).all() and (gains >= 0).all()):
            raise ValueError(_ESTIMATE_RULE)
        if stamps.size == 0:
            return offsets, gains
        if np.any(np.diff(stamps) <= 0) or (self.stamps and stamps[0] <= self.stamps[-1]):
            raise ValueError("estimates must arrive in increasing time order")
        count = len(self.stamps) + np.arange(1, stamps.size + 1, dtype=np.float64)
        self.stamps.extend(stamps.tolist())
        self.offsets.extend(offsets.tolist())
        self.gains.extend(gains.tolist())
        u = (stamps - self.stamps[0]).astype(np.float64) * _TAU_SCALE
        # each column the sums after one more estimate: np.cumsum adds in
        # order, so each equals the running total of repeated `append`
        sums = np.cumsum(np.column_stack((self._sums, _terms(u, offsets, gains))), axis=1)[:, 1:]
        self._sums = sums[:, -1].tolist()
        coef, determined = _solve_quadratic(count, sums)
        fit_offset, fit_gain = _fit(coef, u)
        new_offset = np.where(determined, fit_offset, offsets)
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
        stamp = operator.index(stamp)
        tau = float(min(stamp, self.stamps[-1]) - self.stamps[0])
        offset, gain, fitted = self._fit_at(tau, self.offsets[-1], self.gains[-1])
        if not fitted:
            return CalibrationEstimate(self.stamps[-1], offset, gain, RAW)
        return CalibrationEstimate(stamp, offset, gain, TREND)

    def _fit_at(self, tau: float, raw_offset: float, raw_gain: float):
        """(offset, gain, determined): the trend at tau, which is both fits
        there with the gain floored at zero, or the raw estimate given while
        the fit is not determined."""
        coef, _ = _solve_quadratic(float(len(self.stamps)), self._sums)
        if coef is None:
            return raw_offset, raw_gain, False
        offset, gain = _fit(coef, tau * _TAU_SCALE)
        return offset, gain if gain > 0.0 else 0.0, True
