"""Empirical CDFs and the two-sample Kolmogorov-Smirnov test.

The ECDF here is deliberately nonstandard: F(x) = #{x_i < x} / (n + 1),
i.e. a strict inequality and an (n+1) divisor, so F never reaches 1 and
a single-point sample gives F = 1/2 just above the point. The sup
distance between two such ECDFs is the drift-detection statistic tracked
on control charts.

Caveat: the p-value assumes independent samples; hourly ozone windows are
autocorrelated, so p is a calibrated alarm score rather than an exact
significance level. That is acceptable because alarms only need a
consistent threshold at the operating sample size (~72).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ozonet import kernels
from ozonet.errors import InsufficientDataError
from ozonet.timeseries import WindowSlice

_PVALUE_TERM_EPS = 1e-12
# Below this the true tail probability is 1 within 5e-13, under the series
# truncation tolerance; clamping avoids parity wiggles in the alternating
# sum that would break monotonicity in d.
_LAMBDA_TINY = 0.2


@dataclass(frozen=True)
class Ecdf:
    """Step function F(x) = #{x_i < x} / (n + 1), evaluable at any x."""

    values: np.ndarray   # sorted, ascending
    n: int

    def __call__(self, x) -> float | np.ndarray:
        counts = np.searchsorted(self.values, x, side="left")
        result = counts / (self.n + 1.0)
        return float(result) if np.isscalar(x) else result


@dataclass(frozen=True)
class KsResult:
    d: float
    p_value: float
    m: int
    n: int


def ecdf(sample) -> Ecdf:
    arr = np.sort(np.asarray(sample, dtype=np.float64))
    if arr.size == 0:
        raise InsufficientDataError("insufficient data: empty sample has no ECDF")
    return Ecdf(arr, int(arr.size))


def ks_statistic(a, b) -> float:
    """Sup of |F_a - F_b| over all x, via the pooled-breakpoint scan."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InsufficientDataError("insufficient data: both samples must be non-empty")
    return kernels.ks_distance(a, b)


# A network replay meets far fewer distinct (d, m, n) than hours: at m = n = 72
# the distance takes at most 73 values.
@functools.lru_cache(maxsize=4096)
def ks_pvalue(d: float, m: int, n: int) -> float:
    """Asymptotic tail probability of the sup distance, with the
    small-sample size adjustment, clamped to [0, 1].

    p = Q(lambda), lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * d with
    ne = m*n/(m+n), and Q(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2),
    truncated once terms drop below 1e-12.
    """
    if m < 1 or n < 1:
        raise ValueError("sample sizes must be at least 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"statistic {d} outside [0, 1]")
    ne = m * n / (m + n)
    root = math.sqrt(ne)
    lam = (root + 0.12 + 0.11 / root) * d
    if lam < _LAMBDA_TINY:
        return 1.0
    total = 0.0
    sign = 1.0
    j = 1
    while True:
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < _PVALUE_TERM_EPS or j > 1000:
            break
        sign = -sign
        j += 1
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(a: WindowSlice, b: WindowSlice, completeness_min: float = 0.75) -> KsResult:
    """Two-sample test between two window slices.

    Raises InsufficientDataError when either window misses the completeness
    threshold; that outcome is distinct from an alarm.
    """
    for win in (a, b):
        if not win.sufficient(completeness_min):
            raise InsufficientDataError(
                f"insufficient data: window {win.site_id} ({win.start}, {win.end}] "
                f"completeness {win.completeness:.2f} < {completeness_min}"
            )
    d = ks_statistic(a.samples, b.samples)
    return KsResult(d, ks_pvalue(d, a.samples.size, b.samples.size), int(a.samples.size), int(b.samples.size))
