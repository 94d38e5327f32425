"""The two-sample Kolmogorov-Smirnov distance and its p value.

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

import numpy as np

from ozonet import kernels
from ozonet.errors import InsufficientDataError

_PVALUE_TERM_EPS = 1e-12
# Below this the true tail probability is 1 within 5e-13, under the series
# truncation tolerance; clamping avoids parity wiggles in the alternating
# sum that would break monotonicity in d.
_LAMBDA_TINY = 0.2


def ks_statistic(a, b) -> float:
    """Sup of |F_a - F_b| over all x: `kernels.ks_distance` of one row.

    Raises InsufficientDataError when a sample is empty, and ValueError when
    one holds NaN or an infinity."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise InsufficientDataError("insufficient data: both samples must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("samples must be finite, got NaN or an infinity")
    return float(kernels.ks_distance(a[None], b[None], [a.size], [b.size])[0])


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
