"""Hot kernels: input checks and window moments against numpy."""

import numpy as np
import pytest

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
