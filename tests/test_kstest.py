"""Distribution-test behaviour pinned against brute-force oracles.

The sup-distance oracle below counts points around every pooled breakpoint
with plain Python loops; it shares no code with the kernels it checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import InsufficientDataError, ks_pvalue, ks_statistic, moment_match, window
from ozonet.timeseries import TimeSeries


def oracle_sup_distance(a, b):
    """Evaluate both step functions at each pooled value and just above it."""
    a, b = list(a), list(b)
    m, n = len(a), len(b)
    best = 0.0
    for v in sorted(set(a) | set(b)):
        below_a = sum(1 for x in a if x < v)
        below_b = sum(1 for x in b if x < v)
        at_or_below_a = sum(1 for x in a if x <= v)
        at_or_below_b = sum(1 for x in b if x <= v)
        left = abs(below_a / (m + 1.0) - below_b / (n + 1.0))
        right = abs(at_or_below_a / (m + 1.0) - at_or_below_b / (n + 1.0))
        best = max(best, left, right)
    return best


def oracle_ecdf(sample):
    """F(x) = #{x_i < x} / (n + 1) at each x of an array, by comparing every
    x with every sample point."""
    sample = np.asarray(sample, dtype=float)
    return lambda xs: (sample < np.asarray(xs)[:, None]).sum(axis=1) / (sample.size + 1.0)


def make_window(values, start=0):
    values = np.asarray(values, dtype=float)
    hours = np.arange(start + 1, start + 1 + values.size, dtype=np.int64)
    series = TimeSeries("w", hours, values)
    return window(series, int(hours[-1]), values.size)


class TestEcdf:
    """The (n+1) normalisation and the strict inequality of the ECDF, as
    they show in the sup distance between two small samples."""

    def test_single_point_strict_inequality(self):
        # just above 5 the first curve is 1/2 (one point below, over n+1 = 2);
        # at 5 itself neither curve counts the point, so equal points cancel
        assert ks_statistic([5.0], [6.0]) == 0.5
        assert ks_statistic([5.0], [5.0]) == 0.0

    def test_three_points_midpoint(self):
        # the widest gap is just above 2: two of three points below, over 4
        assert ks_statistic([1.0, 2.0, 3.0], [2.5]) == 0.5

    def test_upper_plateau(self):
        assert ks_statistic([1.0, 2.0, 3.0], [100.0]) == 0.75

    def test_never_reaches_one(self):
        assert ks_statistic(np.arange(50.0), [1e9]) == 50 / 51.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError, match="insufficient"):
            ks_statistic([1.0], [])


class TestSupDistance:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_samples_pinned(self):
        # just above 3 the curves are 3/4 and 0; the legacy 1/n rule would
        # give 1.0, which must not happen
        d = ks_statistic([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert d == 0.75
        assert d == oracle_sup_distance([1, 2, 3], [4, 5, 6])

    def test_order_invariance(self):
        assert ks_statistic([2.0, 1.0], [1.0, 2.0]) == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            ks_statistic([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        # the distance kernel reads +inf as row padding, so a sample that
        # holds NaN or an infinity is refused, on either side
        for a, b in (([1.0, bad], [2.0]), ([2.0], [bad, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                ks_statistic(a, b)

    def test_matches_oracle_on_random_cases(self):
        # sizes span the operating window of 54-72 hourly samples
        rng = np.random.default_rng(42)
        for _ in range(300):
            m, n = rng.integers(1, 81, size=2)
            a = rng.uniform(0, 100, m)
            b = rng.uniform(0, 100, n)
            assert ks_statistic(a, b) == oracle_sup_distance(a, b)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            m, n = rng.integers(1, 81, size=2)
            a = rng.integers(0, 6, m).astype(float)   # heavy ties
            b = rng.integers(0, 6, n).astype(float)
            assert ks_statistic(a, b) == oracle_sup_distance(a, b)

    def test_dense_grid_never_exceeds_reported_sup(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a = rng.uniform(0, 100, 12)
            b = rng.uniform(0, 100, 9)
            fa, fb = oracle_ecdf(a), oracle_ecdf(b)
            grid = np.linspace(-10, 110, 4001)
            d = ks_statistic(a, b)
            assert np.abs(fa(grid) - fb(grid)).max() <= d + 1e-15
            # augmenting the grid with right limits recovers the sup exactly
            pooled = np.concatenate([a, b])
            probe = np.concatenate([grid, pooled, np.nextafter(pooled, np.inf)])
            assert np.abs(fa(probe) - fb(probe)).max() == d

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=25),
           st.lists(st.floats(-50, 50), min_size=1, max_size=25))
    def test_symmetry(self, a, b):
        assert ks_statistic(a, b) == ks_statistic(b, a)

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.integers(1, 1000).map(float), min_size=2, max_size=20),
           st.lists(st.integers(1, 1000).map(float), min_size=2, max_size=20))
    def test_invariant_under_increasing_transform(self, a, b):
        # integer-valued samples keep distinct points distinct under the
        # transforms; ties are allowed and must be preserved
        a, b = np.asarray(a), np.asarray(b)
        d = ks_statistic(a, b)
        assert ks_statistic(3.0 * a + 1.0, 3.0 * b + 1.0) == d
        assert ks_statistic(np.log(a), np.log(b)) == d


class TestPvalue:
    def test_zero_distance_gives_one(self):
        assert ks_pvalue(0.0, 72, 72) == 1.0

    def test_maximal_separation_tiny(self):
        assert ks_pvalue(1.0, 72, 72) < 1e-12

    def test_clamped_to_unit_interval(self):
        for d in np.linspace(0, 1, 21):
            p = ks_pvalue(float(d), 72, 72)
            assert 0.0 <= p <= 1.0

    def test_monotone_nonincreasing_in_distance(self):
        for m, n in ((72, 72), (10, 30), (5, 5)):
            ps = [ks_pvalue(float(d), m, n) for d in np.linspace(0, 1, 101)]
            assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            ks_pvalue(0.5, 0, 10)
        with pytest.raises(ValueError):
            ks_pvalue(1.5, 10, 10)

    def test_memo_is_bounded_and_transparent(self):
        assert ks_pvalue.cache_info().maxsize is not None
        for _ in range(2):      # the second pass is served from the memo
            for d, m, n in ((0.3, 72, 70), (0.05, 60, 72), (0.9, 3, 4)):
                assert ks_pvalue(d, m, n) == ks_pvalue.__wrapped__(d, m, n)
            with pytest.raises(ValueError):     # failures are not memoised
                ks_pvalue(0.5, 0, 10)

    def test_known_tail_value(self):
        # independent evaluation of the tail series at lambda = 1.0:
        # 2*(e^-2 - e^-8 + e^-18 - ...) = 0.26999967...
        lam = 1.0
        expected = 2.0 * sum((-1) ** (j - 1) * np.exp(-2.0 * j * j * lam * lam)
                             for j in range(1, 40))
        ne = 36.0   # m = n = 72
        d = lam / (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne))
        assert ks_pvalue(d, 72, 72) == pytest.approx(expected, rel=1e-9)

    def test_matches_scipy_kolmogorov_at_operating_sizes(self):
        # independent oracle: scipy's Kolmogorov survival function at the
        # size-adjusted lambda; below lambda 0.2 the p-value is clamped to 1
        pytest.importorskip("scipy")
        from scipy.special import kolmogorov

        grid = np.linspace(0.0, 1.0, 301)
        for m in range(54, 73):
            for n in range(54, 73):
                root = np.sqrt(m * n / (m + n))
                lams = (root + 0.12 + 0.11 / root) * grid
                expected = np.where(lams < 0.2, 1.0, kolmogorov(lams))
                got = np.array([ks_pvalue(float(d), m, n) for d in grid])
                assert np.all(got[lams < 0.2] == 1.0)
                assert np.abs(got - expected).max() <= 1e-12


def window_pvalue(a, b):
    return ks_pvalue(ks_statistic(a.samples, b.samples), a.samples.size, b.samples.size)


class TestWindowTest:
    def test_window_against_itself(self):
        w = make_window(np.sin(np.arange(72.0)) * 10 + 30)
        assert w.samples.size == 72
        assert ks_statistic(w.samples, w.samples) == 0.0
        assert window_pvalue(w, w) == 1.0

    def test_offset_windows_alarm(self):
        rng = np.random.default_rng(7)
        base = rng.normal(30, 8, 72)
        w1 = make_window(base)
        w2 = make_window(base + 20.0)
        assert window_pvalue(w1, w2) < 0.05

    def test_incomplete_window_rejected(self):
        full = make_window(np.linspace(10, 50, 72))
        # a 72-hour window holding only 29 samples: 40% complete
        series = TimeSeries("s", np.arange(1, 30, dtype=np.int64),
                            np.linspace(10, 50, 29))
        short = window(series, 72, 72)
        assert short.completeness < 0.75
        assert full.sufficient(0.75) and not short.sufficient(0.75)
        with pytest.raises(InsufficientDataError, match="insufficient"):
            moment_match(full, short)
