"""Hot kernels: the ECDF sup distance and window moments."""

from __future__ import annotations

import numpy as np


def ks_distance(a, b) -> float:
    """Sup distance between the two empirical CDFs, each normalised by 1/(n+1).

    F(x) counts points strictly below x, so each curve is left-continuous
    and steps just after each sample value. The sup is attained at a pooled
    breakpoint or at its right limit; the value at a breakpoint equals the
    right limit at the previous breakpoint (both curves start at 0), so the
    right limits alone give the sup.
    """
    av = np.sort(np.asarray(a, dtype=np.float64))
    bv = np.sort(np.asarray(b, dtype=np.float64))
    m, n = av.size, bv.size
    if m == 0 or n == 0:
        raise ValueError("samples must be non-empty")
    pooled = np.concatenate((av, bv))
    fa = np.searchsorted(av, pooled, side="right") / (m + 1.0)
    fb = np.searchsorted(bv, pooled, side="right") / (n + 1.0)
    return float(np.abs(fa - fb).max())


def window_moments(x) -> tuple[float, float]:
    """(mean, unbiased variance) of a window sample; variance 0.0 when n < 2."""
    xv = np.asarray(x, dtype=np.float64)
    if xv.size == 0:
        raise ValueError("sample must be non-empty")
    mean = float(xv.mean())
    var = float(xv.var(ddof=1)) if xv.size > 1 else 0.0
    return mean, var
