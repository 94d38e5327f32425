"""Hot kernels: input checks, window moments against numpy, and blocks of
many rows against blocks of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import kernels
from test_kstest import oracle_sup_distance


def test_pure_distance_rejects_empty():
    with pytest.raises(ValueError):
        kernels.window_moments(np.empty((1, 0)))


def _padded(rows):
    out = np.full((len(rows), max(len(r) for r in rows)), np.inf)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _window(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # zeros of both signs: equal values whose order a sort may keep or swap
        values = rng.integers(0, 4, size).astype(np.float64)
        return np.where(values == 0, rng.choice((0.0, -0.0), size), values)
    if kind == "rounded":
        return np.round(rng.normal(30, 8, size))
    return rng.normal(30, 8, size)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["normal", "ties", "rounded"]), st.integers(1, 80),
       st.integers(1, 6), st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]),
       st.integers(0, 2**32 - 1))
def test_pure_moments_match_numpy(kind, size, count, scale, seed):
    block = np.stack([_window(kind, size, seed + i) * scale for i in range(count)])
    expected_mean = np.mean(block, axis=-1)
    expected_var = (np.var(block, axis=-1, ddof=1) if size > 1
                    else np.zeros(count))
    mean, var = kernels.window_moments(block)
    assert mean.tolist() == expected_mean.tolist()
    assert var.tolist() == expected_var.tolist()
    singles = [kernels.window_moments(row[None]) for row in block]
    assert [(m.item(), v.item()) for m, v in singles] == list(
        zip(expected_mean.tolist(), expected_var.tolist()))


def test_kernels_leave_caller_arrays_unchanged():
    # the engine passes views into a series' values; sorting one in place
    # would reorder the series itself
    series = np.random.default_rng(3).normal(30, 8, 200)
    before = series.copy()
    a, b = series[10:82], series[120:190]
    kernels.ks_distance(a[None], b[None], [a.size], [b.size])
    kernels.window_moments(a[None])
    kernels.window_moments(series[:150].reshape(3, 50))
    kernels.ks_distance(series[:144].reshape(2, 72), series[50:194].reshape(2, 72),
                        np.array([72, 72]), np.array([72, 72]))
    assert series.tobytes() == before.tobytes()


window_specs = st.lists(
    st.tuples(st.sampled_from(["normal", "ties", "rounded"]), st.integers(1, 80),
              st.sampled_from(["normal", "ties", "rounded"]), st.integers(1, 80),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=12)


@settings(deadline=None, max_examples=150)
@given(window_specs)
def test_distance_rows_equal_scalar_calls_bit_for_bit(specs):
    a_rows = [_window(ka, m, seed) for ka, m, _, _, seed in specs]
    b_rows = [_window(kb, n, seed + 1) for _, _, kb, n, seed in specs]
    m = np.array([len(r) for r in a_rows])
    n = np.array([len(r) for r in b_rows])
    rows = kernels.ks_distance(_padded(a_rows), _padded(b_rows), m, n)
    assert rows.tolist() == [kernels.ks_distance(a[None], b[None], [a.size], [b.size]).item()
                             for a, b in zip(a_rows, b_rows)]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(["normal", "ties", "rounded"]), st.integers(1, 80),
       st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_moment_rows_equal_scalar_calls_bit_for_bit(kind, size, count, seed):
    # rows cut from a wider padded block, as the batch engine passes them
    block = _padded([_window(kind, size, seed + i) for i in range(count)]
                    + [np.zeros(size + 7)])
    windows = block[np.arange(count), :size]
    mean, var = kernels.window_moments(windows)
    singles = [kernels.window_moments(row.copy()[None]) for row in windows]
    assert mean.tolist() == [s[0].item() for s in singles]
    assert var.tolist() == [s[1].item() for s in singles]


@settings(deadline=None, max_examples=60)
@given(window_specs, st.integers(0, 20))
def test_distance_rows_equal_the_oracle_bit_for_bit(specs, extra):
    # the row form against the brute-force ECDF sup, padded wider than any row
    a_rows = [_window(ka, m, seed) for ka, m, _, _, seed in specs]
    b_rows = [_window(kb, n, seed + 1) for _, _, kb, n, seed in specs]
    a, b = _padded(a_rows), _padded(b_rows)
    a = np.concatenate((a, np.full((len(specs), extra), np.inf)), axis=1)
    rows = kernels.ks_distance(a, b, [len(r) for r in a_rows], [len(r) for r in b_rows])
    assert rows.tolist() == [oracle_sup_distance(x, y) for x, y in zip(a_rows, b_rows)]
