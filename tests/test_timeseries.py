"""Series construction, windowing, alignment."""

import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ozonet import (
    AlarmLedger,
    EstimateHistory,
    SiteEngine,
    Thresholds,
    TimeSeries,
    align,
    update_persistence,
    window,
)
from ozonet.timeseries import format_iso_hour, parse_iso_hour


def hourly(site, start, values):
    return TimeSeries(site, np.arange(start, start + len(values), dtype=np.int64),
                      np.asarray(values, dtype=float))


class TestConstruction:
    def test_rejects_duplicate_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries("x", np.array([1, 1]), np.array([1.0, 2.0]))

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries("x", np.array([2, 1]), np.array([1.0, 2.0]))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            TimeSeries("x", np.array([1]), np.array([np.nan]))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="range"):
            TimeSeries("x", np.array([1]), np.array([900.0]))

    def test_rejects_hours_that_are_not_integers(self):
        with pytest.raises(TypeError, match="hours must be integers"):
            TimeSeries("x", [1.5, 2.5], [1.0, 2.0])
        assert len(TimeSeries("x", [], [])) == 0

    def test_value_at(self):
        ts = hourly("x", 10, [1.0, 2.0, 3.0])
        assert ts.value_at(11) == 2.0
        assert ts.value_at(99) is None


def _hour_entries():
    """Each entry that takes an hour, as a call of that hour on fresh state,
    giving something that compares by value."""
    sensor = hourly("s", 0, [20.0 + h % 5 for h in range(10)])
    proxy = hourly("p", 0, [21.0 + h % 4 for h in range(10)])

    def engine():
        return SiteEngine("s", sensor, proxy, Thresholds(td_hours=4, tf_hours=2))

    history = EstimateHistory("s")
    history.append(0, 1.0, 1.0)
    return {
        "SiteEngine.step": lambda hour: engine().step(hour),
        "SiteEngine.run-start": lambda hour: engine().run(hour, 8).rows,
        "SiteEngine.run-end": lambda hour: engine().run(0, hour).rows,
        "update_persistence": lambda hour: update_persistence(
            AlarmLedger("s"), hour, (True, False, None), Thresholds()),
        "EstimateHistory.trend_at": history.trend_at,
        "window": lambda hour: window(sensor, hour, 4).hours.tolist(),
    }


class TestHourEntries:
    # an hour is an epoch-hour integer, a Python or a numpy one, at every entry
    @pytest.mark.parametrize("hour", [datetime(2018, 1, 1), 5.0, "5"],
                             ids=["datetime", "float", "str"])
    @pytest.mark.parametrize("entry", list(_hour_entries()))
    def test_rejects_what_is_not_an_integer(self, entry, hour):
        with pytest.raises(TypeError):
            _hour_entries()[entry](hour)

    @pytest.mark.parametrize("entry", list(_hour_entries()))
    def test_takes_a_numpy_integer_as_the_int(self, entry):
        call = _hour_entries()[entry]
        assert call(np.int64(5)) == call(5)


class TestWindow:
    def test_full_window_completeness(self):
        ts = hourly("x", 1, [1.0] * 72)
        w = window(ts, 72, 72)
        assert w.completeness == 1.0
        assert w.samples.size == 72

    def test_half_window_completeness(self):
        ts = hourly("x", 1, [1.0] * 36)
        w = window(ts, 72, 72)
        assert w.completeness == 0.5

    def test_series_before_window(self):
        ts = hourly("x", 1, [1.0] * 10)
        w = window(ts, 200, 72)
        assert w.completeness == 0.0
        assert w.samples.size == 0

    def test_interval_is_half_open(self):
        ts = hourly("x", 0, [1.0, 2.0, 3.0, 4.0])   # hours 0..3
        w = window(ts, 3, 3)                         # (0, 3]
        assert w.hours.tolist() == [1, 2, 3]

    def test_nonpositive_length_rejected(self):
        ts = hourly("x", 0, [1.0])
        with pytest.raises(ValueError):
            window(ts, 3, 0)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=60, unique=True),
           st.integers(0, 320), st.integers(1, 100))
    def test_window_contains_exactly_in_range_hours(self, hours, end, td):
        hours = sorted(hours)
        ts = TimeSeries("x", np.array(hours, dtype=np.int64),
                        np.arange(len(hours), dtype=float))
        w = window(ts, end, td)
        expected = [h for h in hours if end - td < h <= end]
        assert w.hours.tolist() == expected
        assert w.completeness == len(expected) / td


class TestAlign:
    def test_disjoint(self):
        a = hourly("a", 0, [1.0, 2.0])
        b = hourly("b", 10, [3.0, 4.0])
        hours, av, bv = align(a, b)
        assert hours.size == 0 and av.size == 0 and bv.size == 0

    def test_partial_overlap(self):
        a = hourly("a", 1, [1.0, 2.0, 3.0])     # hours 1,2,3
        b = hourly("b", 2, [9.0, 8.0, 7.0])     # hours 2,3,4
        hours, av, bv = align(a, b)
        assert hours.tolist() == [2, 3]
        assert av.tolist() == [2.0, 3.0]
        assert bv.tolist() == [9.0, 8.0]

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=50, unique=True))
    def test_self_alignment_pairs_everything(self, hours):
        hours = sorted(hours)
        ts = TimeSeries("x", np.array(hours, dtype=np.int64),
                        np.arange(len(hours), dtype=float))
        got, av, bv = align(ts, ts)
        assert got.tolist() == hours
        assert np.array_equal(av, bv)
        assert np.array_equal(av, ts.values)


class TestIsoHours:
    def test_round_trip(self):
        assert parse_iso_hour("2018-01-26T00:00:00Z") == 421368
        assert format_iso_hour(421368) == "2018-01-26T00:00:00Z"

    def test_rejects_non_utc(self):
        with pytest.raises(ValueError):
            parse_iso_hour("2018-01-26T00:00:00+02:00")

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError, match="whole hour"):
            parse_iso_hour("2018-01-26T00:30:00Z")

    @pytest.mark.parametrize("text", [
        "2018-1-5T5:00:00Z", "2018-1-05T05:00:00Z", "2018-01-5T05:00:00Z",
        "2018-01-05T5:00:00Z", "2018-01-05T05:0:00Z", "2018-01-05T05:00:0Z",
        "２０１８-01-05T05:00:00Z", "2018-０1-05T05:00:00Z", "٢٠١٨-01-05T05:00:00Z",
        "2018-01-05t05:00:00z", "2018-01-05T05:00:00Z\n"])
    def test_rejects_what_is_not_zero_padded_ascii(self, text):
        # strptime alone reads most of these as 05:00 of 2018-01-05
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_iso_hour(text)

    def test_aligned_syntax_with_minutes_is_unaligned_not_bad(self):
        with pytest.raises(ValueError, match="not aligned to a whole hour"):
            parse_iso_hour("2018-01-05T05:00:01Z")

    @given(st.integers((datetime(1, 1, 1) - datetime(1970, 1, 1)) // timedelta(hours=1),
                       (datetime(9999, 12, 31, 23) - datetime(1970, 1, 1)) // timedelta(hours=1)))
    @example(-8511600)      # 0999-01-01T00:00:00Z
    @example(-17259888)     # 0001-01-01T00:00:00Z
    def test_every_hour_of_years_1_to_9999_round_trips(self, hour):
        text = format_iso_hour(hour)
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:00:00Z", text), text
        assert parse_iso_hour(text) == hour
