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


class ExpandingQuadFit:
    """Incremental least-squares quadratics of two series, offset and gain,
    over one expanding set of taus.

    Both fits share the power sums of the taus, and so the normal matrix
    and its determinant; each series keeps its own right-hand side. A refit
    after each new point costs O(1). Taus must be nonnegative and
    nondecreasing relative to the anchor.
    """

    __slots__ = ("n", "s1", "s2", "s3", "s4", "o0", "o1", "o2", "g0", "g1", "g2")

    def __init__(self):
        self.n = 0
        self.s1 = self.s2 = self.s3 = self.s4 = 0.0
        self.o0 = self.o1 = self.o2 = 0.0
        self.g0 = self.g1 = self.g2 = 0.0

    def push(self, tau: float, offset: float, gain: float):
        u = tau * _TAU_SCALE
        u2 = u * u
        self.n += 1
        self.s1 += u
        self.s2 += u2
        self.s3 += u2 * u
        self.s4 += u2 * u2
        self.o0 += offset
        self.o1 += offset * u
        self.o2 += offset * u2
        self.g0 += gain
        self.g1 += gain * u
        self.g2 += gain * u2

    def extend(self, taus, offsets, gains):
        """Push each (tau, offset, gain) in order, leaving the sums bit for
        bit as repeated `push` would, and return (offset_fit, gain_fit,
        determined): the fits' predictions at each tau just after that
        point was pushed, and whether the fits were determined there."""
        u = np.asarray(taus, dtype=np.float64) * _TAU_SCALE
        offsets = np.asarray(offsets, dtype=np.float64)
        gains = np.asarray(gains, dtype=np.float64)
        u2 = u * u
        names = self.__slots__[1:]      # every sum but the count
        terms = (u, u2, u2 * u, u2 * u2, offsets, offsets * u, offsets * u2,
                 gains, gains * u, gains * u2)
        sums = [_running(getattr(self, name), term) for name, term in zip(names, terms)]
        count = self.n + np.arange(1, u.size + 1, dtype=np.float64)
        if u.size:
            self.n += u.size
            for name, running in zip(names, sums):
                setattr(self, name, float(running[-1]))
        coef, determined = _solve_quadratic(count, *sums[:4], (sums[4:7], sums[7:]))
        (a0, a1, a2), (b0, b1, b2) = coef
        return a0 + a1 * u + a2 * u * u, b0 + b1 * u + b2 * u * u, determined

    def coefficients(self):
        """((c0, c1, c2) of the offset, (c0, c1, c2) of the gain) in scaled
        tau, or None when underdetermined."""
        coef, _ = _solve_quadratic(float(self.n), self.s1, self.s2, self.s3, self.s4,
                                   ((self.o0, self.o1, self.o2), (self.g0, self.g1, self.g2)))
        return coef

    def predict(self, tau: float):
        """(offset, gain, determined): the fits at tau, both None while
        underdetermined."""
        coef = self.coefficients()
        if coef is None:
            return None, None, False
        (a0, a1, a2), (b0, b1, b2) = coef
        u = tau * _TAU_SCALE
        return a0 + a1 * u + a2 * u * u, b0 + b1 * u + b2 * u * u, True


@dataclass
class EstimateHistory:
    """Raw estimates for one site plus the running trend fit.

    Single writer per site; the anchor (first estimate's stamp) is time
    zero for the quadratic fit.
    """

    site_id: str
    stamps: list = field(default_factory=list)
    offsets: list = field(default_factory=list)
    gains: list = field(default_factory=list)
    _fit: ExpandingQuadFit = field(default_factory=ExpandingQuadFit)

    def __len__(self):
        return len(self.stamps)

    def append(self, stamp: int, offset: float, gain: float):
        """Record one raw estimate.

        Returns the trend's (offset, gain): what `trend_at` gives from
        `stamp` until the next estimate arrives.
        """
        if not (math.isfinite(offset) and math.isfinite(gain) and gain >= 0):
            raise ValueError("raw estimates need a finite offset and a finite, nonnegative gain")
        if self.stamps and stamp <= self.stamps[-1]:
            raise ValueError("estimates must arrive in increasing time order")
        self.stamps.append(stamp)
        self.offsets.append(offset)
        self.gains.append(gain)
        tau = float(stamp - self.stamps[0])
        self._fit.push(tau, offset, gain)
        return _trend_or_raw(*self._fit.predict(tau), offset, gain)

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
        self.stamps.extend(stamps.tolist())
        self.offsets.extend(offsets.tolist())
        self.gains.extend(gains.tolist())
        taus = (stamps - self.stamps[0]).astype(np.float64)
        return _trend_or_raw(*self._fit.extend(taus, offsets, gains), offsets, gains)

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
        offset, gain, fitted = self._fit.predict(tau)
        offset, gain = _trend_or_raw(offset, gain, fitted, self.offsets[-1], self.gains[-1])
        if not fitted:
            return CalibrationEstimate(self.stamps[-1], offset, gain, RAW)
        return CalibrationEstimate(stamp, offset, gain, TREND)


def _trend_or_raw(fit_offset, fit_gain, fitted, raw_offset, raw_gain):
    """The trend's (offset, gain): the fit where it is determined, with the
    gain floored at zero, else the latest raw estimate; for floats or
    elementwise over arrays."""
    if isinstance(fitted, np.ndarray):
        return (np.where(fitted, fit_offset, raw_offset),
                np.where(fitted, np.where(fit_gain > 0.0, fit_gain, 0.0), raw_gain))
    if not fitted:
        return raw_offset, raw_gain
    return fit_offset, fit_gain if fit_gain > 0.0 else 0.0
