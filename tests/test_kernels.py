"""Hot kernels: input checks, window moments against numpy, and the batched
forms against the one-window calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import kernels


def test_pure_distance_rejects_empty():
    with pytest.raises(ValueError):
        kernels.ks_distance([], [1.0])
    with pytest.raises(ValueError):
        kernels.window_moments([])


def test_pure_moments_match_numpy():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 72):
        x = rng.normal(30, 8, n)
        mean, var = kernels.window_moments(x)
        assert mean == pytest.approx(np.mean(x), abs=1e-12)
        expected_var = 0.0 if n < 2 else np.var(x, ddof=1)
        assert var == pytest.approx(expected_var, abs=1e-12)


def _padded(rows):
    out = np.full((len(rows), max(len(r) for r in rows)), np.inf)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _window(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(0, 4, size).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.normal(30, 8, size))
    return rng.normal(30, 8, size)


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
    rows = kernels.ks_distance_rows(_padded(a_rows), _padded(b_rows), m, n)
    assert rows.tolist() == [kernels.ks_distance(a, b) for a, b in zip(a_rows, b_rows)]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(["normal", "ties", "rounded"]), st.integers(1, 80),
       st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_moment_rows_equal_scalar_calls_bit_for_bit(kind, size, count, seed):
    # rows cut from a wider padded block, as the batch engine passes them
    block = _padded([_window(kind, size, seed + i) for i in range(count)]
                    + [np.zeros(size + 7)])
    windows = block[np.arange(count), :size]
    mean, var = kernels.window_moments(windows)
    singles = [kernels.window_moments(row.copy()) for row in windows]
    assert mean.tolist() == [s[0] for s in singles]
    assert var.tolist() == [s[1] for s in singles]
