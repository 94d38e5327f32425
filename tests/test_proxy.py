"""Proxy selection strategies and proxy-quality scoring."""

import statistics

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ozonet import (
    InsufficientDataError,
    SiteRecord,
    Thresholds,
    TimeSeries,
    evaluate_proxy,
    network_median_series,
    nearest_reference,
    similar_aadt,
)
from ozonet.proxy import MEDIAN_SITE_ID, ProxyAssignment
from netsim_cases import pair_scenario
from ozonet.simulate import run_scenario


def ref(site_id, lat, lon, aadt=None):
    return SiteRecord(site_id, site_id, "reference", lat, lon, aadt_5km=aadt)


def lc(site_id, lat, lon, aadt=None):
    return SiteRecord(site_id, site_id, "low-cost", lat, lon, aadt_5km=aadt)


def hourly(site, start, values):
    return TimeSeries(site, np.arange(start, start + len(values), dtype=np.int64),
                      np.asarray(values, dtype=float))


class TestRecords:
    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            ref("x", 95.0, 0.0)
        with pytest.raises(ValueError):
            ref("x", 0.0, 190.0)
        with pytest.raises(ValueError):
            SiteRecord("x", "x", "satellite", 0, 0)

    def test_self_proxy_rejected(self):
        with pytest.raises(ValueError):
            ProxyAssignment("a", "nearest", "a")


class TestNearest:
    def test_single_eligible_reference(self):
        site = lc("t", 0.0, 0.0)
        network = [site, ref("r1", 1.0, 1.0)]
        assert nearest_reference(site, network).proxy_site_id == "r1"

    def test_monotone_distance(self):
        site = lc("t", 0.0, 0.0)
        network = [site, ref("far", 0.0, 2.0), ref("near", 0.0, 1.0)]
        assert nearest_reference(site, network).proxy_site_id == "near"

    def test_tie_breaks_to_smaller_id(self):
        site = lc("t", 0.0, 0.0)
        network = [site, ref("b", 0.0, 1.0), ref("a", 0.0, -1.0)]
        assert nearest_reference(site, network).proxy_site_id == "a"

    def test_excludes_self(self):
        site = ref("a", 0.0, 0.0)
        network = [site, ref("b", 1.0, 1.0)]
        assert nearest_reference(site, network).proxy_site_id == "b"

    def test_no_reference_errors(self):
        site = lc("t", 0.0, 0.0)
        with pytest.raises(InsufficientDataError):
            nearest_reference(site, [site, lc("u", 1.0, 1.0)])

    def test_permutation_invariant(self):
        site = lc("t", 10.0, 10.0)
        refs = [ref(f"r{i}", 10.0 + 0.1 * i, 10.0 - 0.2 * i) for i in range(1, 6)]
        rng = np.random.default_rng(11)
        baseline = nearest_reference(site, [site] + refs).proxy_site_id
        for _ in range(10):
            shuffled = list(refs)
            rng.shuffle(shuffled)
            assert nearest_reference(site, [site] + shuffled).proxy_site_id == baseline


class TestSimilarAadt:
    def test_closest_traffic_value_wins(self):
        # a mid-traffic site among references spanning a wide range: the
        # 87k reference is nearer in AADT than 163-183k alternatives
        site = ref("test", 34.06, -117.15, aadt=92.0)
        network = [site, ref("r_low", 34.11, -117.27, aadt=87.0),
                   ref("r_high", 34.10, -117.49, aadt=183.0),
                   ref("r_mid", 34.00, -117.42, aadt=169.0)]
        assert similar_aadt(site, network).proxy_site_id == "r_low"

    def test_exact_match_wins(self):
        site = lc("t", 0, 0, aadt=100.0)
        network = [site, ref("a", 1, 1, aadt=90.0), ref("b", 2, 2, aadt=100.0)]
        assert similar_aadt(site, network).proxy_site_id == "b"

    def test_tie_breaks_to_smaller_id(self):
        site = lc("t", 0, 0, aadt=100.0)
        network = [site, ref("b", 1, 1, aadt=110.0), ref("a", 2, 2, aadt=90.0)]
        assert similar_aadt(site, network).proxy_site_id == "a"

    def test_missing_aadt_errors(self):
        site = lc("t", 0, 0)
        with pytest.raises(InsufficientDataError):
            similar_aadt(site, [site, ref("a", 1, 1, aadt=50.0)])


class TestNetworkMedian:
    def test_odd_count_takes_middle(self):
        series = [hourly("a", 0, [10.0]), hourly("b", 0, [20.0]), hourly("c", 0, [90.0])]
        med = network_median_series(series)
        assert med.values.tolist() == [20.0]

    def test_even_count_averages_middle_two(self):
        series = [hourly(s, 0, [v]) for s, v in
                  zip("abcd", [10.0, 20.0, 30.0, 40.0])]
        med = network_median_series(series)
        assert med.values.tolist() == [25.0]

    def test_identical_series_is_identity(self):
        base = hourly("a", 5, [5.0, 6.0, 7.0])
        med = network_median_series([base, hourly("b", 5, [5.0, 6.0, 7.0]),
                                     hourly("c", 5, [5.0, 6.0, 7.0])])
        assert np.array_equal(med.values, base.values)
        assert np.array_equal(med.hours, base.hours)

    def test_sparse_hours_become_gaps(self):
        series = [hourly("a", 0, [1.0, 1.0]), hourly("b", 0, [2.0, 2.0]),
                  hourly("c", 1, [3.0])]      # hour 0 has two reporters only
        med = network_median_series(series, min_reporters=3)
        assert med.hours.tolist() == [1]

    def test_exclusion(self):
        series = [hourly("a", 0, [10.0]), hourly("b", 0, [20.0]),
                  hourly("c", 0, [30.0]), hourly("d", 0, [40.0])]
        med = network_median_series(series, min_reporters=3, exclude=("d",))
        assert med.values.tolist() == [20.0]

    def test_windowed_median_requires_reporters(self):
        series = [hourly("a", 1, [1.0] * 72), hourly("b", 1, [2.0] * 72)]
        med = network_median_series(series, min_reporters=3)
        assert len(med) == 0

    @given(members=st.lists(st.dictionaries(st.integers(0, 15),
                                            st.sampled_from([1.0, 2.5, 7.0, 40.25, 99.5])
                                            | st.floats(-10.0, 500.0),
                                            max_size=12), max_size=6),
           min_reporters=st.integers(1, 4), excluded=st.sets(st.integers(0, 5)))
    @example(members=[], min_reporters=1, excluded=set())                   # empty pool
    @example(members=[{0: 1.0}, {}], min_reporters=1, excluded={0})         # all out
    @example(members=[{0: 1.0, 1: 2.5}, {1: 7.0}], min_reporters=3, excluded=set())
    @example(members=[{3: 1.0, 4: 7.0}, {3: 2.5, 4: 2.5}, {3: 40.25}, {3: 99.5, 9: 1.0}],
             min_reporters=2, excluded=set())                                # even counts
    def test_matches_a_per_hour_statistics_median(self, members, min_reporters, excluded):
        series = [TimeSeries(f"s{k}", sorted(values), [values[h] for h in sorted(values)])
                  for k, values in enumerate(members)]
        exclude = tuple(f"s{k}" for k in excluded)
        med = network_median_series(series, min_reporters, exclude)
        kept = [values for k, values in enumerate(members) if k not in excluded]
        expected = {}
        for hour in sorted({h for values in kept for h in values}):
            reports = [values[hour] for values in kept if hour in values]
            if len(reports) >= min_reporters:
                expected[hour] = statistics.median(reports)
        assert med.site_id == MEDIAN_SITE_ID
        assert med.hours.tolist() == list(expected)
        assert med.values.tolist() == list(expected.values())

    def test_bounded_by_per_hour_extremes(self):
        rng = np.random.default_rng(12)
        series = [hourly(f"s{i}", 0, rng.uniform(0, 100, 50)) for i in range(5)]
        med = network_median_series(series)
        stacked = np.vstack([s.values for s in series])
        assert np.all(med.values >= stacked.min(axis=0))
        assert np.all(med.values <= stacked.max(axis=0))


class TestEvaluateProxy:
    def test_identical_proxy_scores_perfectly(self):
        res = run_scenario(pair_scenario(duration_hours=24 * 40))
        test_series = res.observed["REF"]
        twin = TimeSeries("TWIN", test_series.hours.copy(), test_series.values.copy())
        score = evaluate_proxy(test_series, twin, Thresholds())
        assert score.alarm_fraction_ks == 0.0
        assert score.alarm_fraction_offset == 0.0
        assert score.alarm_fraction_gain == 0.0
        assert score.mab < 1e-9
        assert score.r2 > 0.999999

    def test_insufficient_overlap_rejected(self):
        short = hourly("a", 0, np.linspace(10, 50, 100))
        other = hourly("b", 0, np.linspace(10, 50, 100))
        with pytest.raises(InsufficientDataError, match="overlap"):
            evaluate_proxy(short, other)

    def test_distribution_shifted_proxy_overcorrects_low_end(self):
        # proxy site sits lower and swings wider than the test site: the
        # offset alarm stays latched and corrections drag the low end down
        from ozonet import TruthModel

        test_truth = TruthModel(baseline=42.0, amplitude=7.0, phase_hours=9.0,
                                regional_weight=1.0, noise_sigma=1.0)
        proxy_truth = TruthModel(baseline=30.0, amplitude=11.0, phase_hours=9.0,
                                 regional_weight=1.0, noise_sigma=1.0)
        scenario = pair_scenario(duration_hours=24 * 60, sensor_truth=test_truth,
                                 proxy_truth=proxy_truth)
        res = run_scenario(scenario)
        score = evaluate_proxy(res.observed["LC"], res.observed["REF"], Thresholds())
        assert score.alarm_fraction_offset > 0.8
        assert score.corrected_fraction > 0.8
        # corrected output vs actual series, low-concentration hours only
        from ozonet import SiteEngine, align

        result = SiteEngine("LC", res.observed["LC"], res.observed["REF"]).run()
        _, out, actual = align(result.output_series(), res.observed["LC"])
        low = actual <= np.quantile(actual, 0.25)
        assert np.mean(out[low] - actual[low]) < -5.0
