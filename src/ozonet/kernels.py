"""Hot kernels of window rows: the ECDF sup distance and window moments."""

from __future__ import annotations

import numpy as np


def ks_distance(a, b, m, n) -> np.ndarray:
    """Sup distance between the two empirical CDFs of each pair of rows,
    each normalised by 1/(n+1).

    Row r of `a` holds m[r] finite samples followed by +inf padding, and
    likewise `b` with n[r]; each row's distance is that of its samples
    alone, bit for bit, whatever the padding.

    F(x) counts points strictly below x, so each curve is left-continuous
    and steps just after each sample value. The sup is attained at a pooled
    breakpoint or at its right limit; the value at a breakpoint equals the
    right limit at the previous breakpoint (both curves start at 0), so the
    right limits alone give the sup.

    Each side is sorted on its own, so a stable argsort of the pooled row
    only merges two sorted runs. The running count of a-samples at the last
    element of a tie run is the right limit at that value x, the number of
    a-samples at or below x; the padding sorts last and is left out.
    Tie runs are found with `!=`, so the order of -0.0 and 0.0 within a run
    does not matter.
    """
    a = np.sort(np.asarray(a, dtype=np.float64), axis=1)
    b = np.sort(np.asarray(b, dtype=np.float64), axis=1)
    m, n = np.asarray(m), np.asarray(n)
    if m.size and (m.min() < 1 or n.min() < 1):
        raise ValueError("samples must be non-empty")
    pooled = np.concatenate((a, b), axis=1)
    order = np.argsort(pooled, axis=1, kind="stable")
    count_a = np.cumsum(order < a.shape[1], axis=1)
    count_b = np.arange(1, pooled.shape[1] + 1) - count_a
    values = np.take_along_axis(pooled, order, axis=1)
    run_end = np.isfinite(values)
    run_end[:, :-1] &= values[:, :-1] != values[:, 1:]
    gap = np.abs(count_a / (m[:, None] + 1.0) - count_b / (n[:, None] + 1.0))
    return np.where(run_end, gap, 0.0).max(axis=1)


def window_moments(x):
    """(mean, unbiased variance) arrays of the windows in the rows of `x`,
    all of one length; variance 0.0 when that length is 1.

    The formula is that of the ufunc reductions that np.mean and
    np.var(ddof=1) perform without their Python wrappers, so the figures
    equal numpy's bit for bit; each row's equal those of the row passed as
    a block of one, since numpy reduces each row of a contiguous block by
    the same pairwise sum.
    """
    xv = np.asarray(x, dtype=np.float64)
    size = xv.shape[1]
    if size == 0:
        raise ValueError("sample must be non-empty")
    mean = np.add.reduce(xv, axis=1) / size
    if size > 1:
        dev = xv - mean[:, None]
        var = np.add.reduce(dev * dev, axis=1) / (size - 1)
    else:
        var = np.zeros_like(mean)
    return mean, var
