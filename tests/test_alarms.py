"""Control-chart breach logic, persistence clocks, and the hourly driver."""

import gc
import itertools
import math
import statistics
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import (
    AlarmLedger,
    BreachFlags,
    DegenerateWindowError,
    DriftSegment,
    InsufficientDataError,
    Scenario,
    SensorModel,
    SiteEngine,
    SiteRecord,
    SiteSpec,
    Thresholds,
    TimeSeries,
    decide_correction,
    ks_pvalue,
    ks_statistic,
    moment_match,
    update_persistence,
    window,
)
from netsim_cases import START_HOUR, monitor_truth, pair_scenario
from ozonet import alarms, calibrate
from ozonet.alarms import TREND_GAIN_MAX, TREND_GAIN_MIN, TREND_OFFSET_CAP
from ozonet.kernels import window_moments
from ozonet.simulate import run_scenario
from ozonet.timeseries import VALUE_MAX, VALUE_MIN


def oracle_episode_latches(pattern, tf):
    """Independent rule: a latch occurs iff some run of breach hours,
    uninterrupted by a clean hour (gaps don't interrupt), exceeds tf."""
    longest = current = 0
    for flag in pattern:
        if flag is None:
            continue
        if flag:
            current += 1
            longest = max(longest, current)
        else:
            current = 0
    return longest > tf


def run_pattern(pattern, tf):
    th = Thresholds(tf_hours=tf)
    ledger = AlarmLedger("x")
    ever = False
    for hour, flag in enumerate(pattern):
        update_persistence(ledger, hour, BreachFlags(flag, False, False), th)
        ever = ever or ledger.latched[0]
    return ledger, ever


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert (th.p_ks_min, th.gain_low, th.gain_high) == (0.05, 0.7, 1.3)
        assert (th.offset_low, th.offset_high) == (-5.0, 5.0)
        assert (th.td_hours, th.tf_hours) == (72, 120)
        assert th.completeness_min == 0.75
        assert th.correction_alarm_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(gain_low=1.5)
        with pytest.raises(ValueError):
            Thresholds(offset_low=2.0)
        with pytest.raises(ValueError):
            Thresholds(correction_alarm_count=0)
        # a moment-matched gain is never negative, so a negative gain_low
        # would switch the low-gain test off; zero is the lowest bound
        with pytest.raises(ValueError, match="gain_low must be nonnegative"):
            Thresholds(gain_low=-1.0)
        assert Thresholds(gain_low=0.0).gain_low == 0.0

    @pytest.mark.parametrize("change", [
        {"correction_alarm_count": 4}, {"p_ks_min": 1.5}, {"p_ks_min": -1.0},
        {"p_ks_min": 0.0}, {"p_ks_min": 1.0},
    ])
    def test_settings_that_disable_a_test_rejected(self, change):
        # with 3 tests, 4 latched alarms never happen; a p value is never
        # below 0 and always at most 1
        with pytest.raises(ValueError, match=next(iter(change))):
            Thresholds(**change)

    def test_alarm_count_up_to_the_test_count_accepted(self):
        assert Thresholds(correction_alarm_count=3).correction_alarm_count == 3

    @pytest.mark.parametrize("field", ["td_hours", "tf_hours"])
    def test_timescales_bounded_by_the_longest(self, field):
        assert getattr(Thresholds(**{field: 2**31 - 1}), field) == 2**31 - 1
        for hours in (0, 2**31, 10**20):
            with pytest.raises(ValueError, match="timescales must be from 1 to 2147483647"):
                Thresholds(**{field: hours})


def breach_flags(p_ks, offset, gain, th=None):
    """The flags SiteEngine.step gives an hour measured as p_ks and a raw
    estimate (offset, gain) that equals its trend."""
    empty = TimeSeries("x", np.array([], dtype=np.int64), np.array([]))
    row = SiteEngine("x", empty, empty, th).step(0, (None, p_ks, offset, gain, offset, gain))
    assert row.status == "ok"
    return row.breach_ks, row.breach_offset, row.breach_gain


class TestBreachFlags:
    def test_all_pass_inside_bounds(self):
        assert breach_flags(0.5, 0.0, 1.0) == (False, False, False)

    def test_all_breach_outside_bounds(self):
        assert breach_flags(0.04, 6.0, 1.35) == (True, True, True)

    def test_boundary_values_count_as_breaches(self):
        assert breach_flags(0.05, -5.0, 0.7) == (True, True, True)

    def test_upper_bounds_count_as_breaches(self):
        # the pass region is the strict interior, so each upper bound breaches
        th = Thresholds()
        assert breach_flags(th.p_ks_min, th.offset_high, th.gain_high, th) == (True, True, True)


class TestPersistence:
    def test_sub_threshold_episode_never_latches(self):
        pattern = [True] * 119 + [False]
        _, ever = run_pattern(pattern, 120)
        assert not ever

    def test_exact_threshold_episode_never_latches(self):
        _, ever = run_pattern([True] * 120, 120)
        assert not ever

    def test_one_past_threshold_latches(self):
        ledger, ever = run_pattern([True] * 121, 120)
        assert ever and ledger.latched[0]

    def test_latch_sets_exactly_on_crossing_hour(self):
        th = Thresholds()
        ledger = AlarmLedger("x")
        for hour in range(121):
            update_persistence(ledger, hour, BreachFlags(True, False, False), th)
            assert ledger.latched[0] == (hour == 120)   # 121st breach hour

    def test_gap_freezes_clock(self):
        # 60 breach hours, a 12-hour outage, then 61 more: 121 breach hours
        pattern = [True] * 60 + [None] * 12 + [True] * 61
        _, ever = run_pattern(pattern, 120)
        assert ever

    def test_clean_hour_resets_clock_and_latch(self):
        pattern = [True] * 121 + [False] + [True] * 120
        ledger, ever = run_pattern(pattern, 120)
        assert ever                      # latched during the first episode
        assert not ledger.latched[0]     # second episode never crossed

    def test_out_of_order_update_rejected(self):
        th = Thresholds()
        ledger = AlarmLedger("x")
        update_persistence(ledger, 10, BreachFlags(True, False, False), th)
        with pytest.raises(ValueError, match="out-of-order"):
            update_persistence(ledger, 10, BreachFlags(True, False, False), th)

    def test_randomised_patterns_match_oracle(self):
        rng = np.random.default_rng(20180101)
        for _ in range(300):
            pattern = []
            for _ in range(rng.integers(1, 8)):
                kind = rng.integers(0, 3)
                length = int(rng.integers(1, 150))
                pattern += {0: [True], 1: [False], 2: [None]}[kind] * length
            _, ever = run_pattern(pattern, 120)
            assert ever == oracle_episode_latches(pattern, 120)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=60))
    def test_small_scale_property(self, pattern):
        _, ever = run_pattern(pattern, 7)
        assert ever == oracle_episode_latches(pattern, 7)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.sampled_from([True, False, None]), max_size=40),
           st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 6)), max_size=6))
    def test_inserted_gap_hours_change_no_clock(self, pattern, gaps):
        # PAPER.md: a gap hour (every test unevaluable) freezes the clocks
        hours = [(flag, True) for flag in pattern]
        for where, length in gaps:
            where %= len(hours) + 1
            hours[where:where] = [(None, False)] * length
        th = Thresholds(tf_hours=5)

        def states(flags):
            ledger = AlarmLedger("x")
            for hour, (flag, kept) in enumerate(flags):
                other = None if flag is None else not flag
                update_persistence(ledger, hour, BreachFlags(flag, other, flag), th)
                if kept:
                    yield list(ledger.breach_hours), list(ledger.latched)

        assert list(states(hours)) == list(states((flag, True) for flag in pattern))


class TestDecision:
    def test_single_latch_with_default_threshold(self):
        ledger = AlarmLedger("x", latched=[True, False, False])
        assert decide_correction(ledger, Thresholds())

    def test_single_latch_with_strict_threshold(self):
        ledger = AlarmLedger("x", latched=[True, False, False])
        assert not decide_correction(ledger, Thresholds(correction_alarm_count=2))

    def test_no_latches_never_corrects(self):
        assert not decide_correction(AlarmLedger("x"), Thresholds())


def constant_series(site, start, n, value):
    return TimeSeries(site, np.arange(start, start + n, dtype=np.int64),
                      np.full(n, float(value)))


def sim_series(site, start, n, seed, base=30.0):
    rng = np.random.default_rng(seed)
    hours = np.arange(start, start + n, dtype=np.int64)
    values = base + 9 * np.sin(2 * np.pi * (hours % 24) / 24) + rng.normal(0, 2, n)
    return TimeSeries(site, hours, values)


class TestEngine:
    def test_insufficient_data_passes_raw_through(self):
        sensor = sim_series("s", 0, 30, 1)
        proxy = sim_series("p", 0, 30, 2)
        engine = SiteEngine("s", sensor, proxy)
        row = engine.step(29)
        assert row.status == "insufficient"
        assert row.p_ks is None
        assert row.output_value == row.raw_value
        assert not row.corrected

    def test_flatlined_sensor_breaches_gain_immediately(self):
        sensor = constant_series("s", 0, 400, 33.0)
        proxy = sim_series("p", 0, 400, 3)
        result = SiteEngine("s", sensor, proxy).run()
        monitored = [r for r in result.rows if r.p_ks is not None]
        assert monitored[0].status == "degenerate"
        assert monitored[0].breach_gain is True
        assert monitored[0].breach_offset is None      # not evaluable
        # latched once the breach outlives the persistence window
        assert monitored[121].alarm_gain
        assert not monitored[119].alarm_gain

    def test_degenerate_hour_breaches_similarity_on_the_bound(self):
        # a flat-lined hour still runs the similarity test, and a p value
        # equal to p_ks_min is a breach there as on any other hour
        sensor = constant_series("s", 0, 100, 33.0)
        proxy = sim_series("p", 0, 100, 3)
        first = SiteEngine("s", sensor, proxy).step(80)
        assert first.status == "degenerate" and first.p_ks > 0
        for p_ks_min, breach in ((first.p_ks, True), (first.p_ks / 2, False)):
            row = SiteEngine("s", sensor, proxy, Thresholds(p_ks_min=p_ks_min)).step(80)
            assert (row.status, row.p_ks, row.breach_ks) == ("degenerate", first.p_ks, breach)

    @pytest.mark.parametrize("td, n", [(100, 55), (180, 99), (200, 110)])
    def test_one_completeness_rule(self, td, n):
        # n readings in a td-hour window are exactly the 0.55 share (though
        # 0.55 * td rounds above n): stepping, run, WindowSlice.sufficient
        # and moment_match all assess the window, and all pass over it one
        # reading short
        th = Thresholds(td_hours=td, completeness_min=0.55)
        end = 500
        for count, assessed in ((n, True), (n - 1, False)):
            sensor = sim_series("s", end - count + 1, count, 1)
            proxy = sim_series("p", end - count + 1, count, 2)
            wins = window(sensor, end, td), window(proxy, end, td)
            rows = [SiteEngine("s", sensor, proxy, th).step(end),
                    SiteEngine("s", sensor, proxy, th).run(end, end).rows[0]]
            assert [w.sufficient(th.completeness_min) for w in wins] == [assessed] * 2
            if assessed:
                p = ks_pvalue(ks_statistic(wins[0].samples, wins[1].samples), count, count)
                est = moment_match(*wins, th.completeness_min)
                for row in rows:
                    assert row.status == "ok"
                    assert row.p_ks == pytest.approx(p, rel=1e-12)
                    assert (row.offset_raw, row.gain_raw) == pytest.approx(
                        (est.offset, est.gain), rel=1e-12)
            else:
                with pytest.raises(InsufficientDataError):
                    moment_match(*wins, th.completeness_min)
                assert [row.status for row in rows] == ["insufficient"] * 2

    def test_replay_reproduces_identical_ledger(self):
        scenario = pair_scenario(duration_hours=24 * 30)
        res = run_scenario(scenario)
        first = SiteEngine("LC", res.observed["LC"], res.observed["REF"]).run()
        second = SiteEngine("LC", res.observed["LC"], res.observed["REF"]).run()
        assert len(first.rows) == len(second.rows)
        for a, b in zip(first.rows, second.rows):
            assert a == b

    def test_corrected_hours_superset_with_looser_threshold(self):
        from ozonet import DriftSegment, SensorModel

        model = SensorModel(noise_sigma=1.0,
                            drift=(DriftSegment(24 * 10, 24 * 40, "gain_ramp", 2.0),))
        res = run_scenario(pair_scenario(model, duration_hours=24 * 60))
        loose = SiteEngine("LC", res.observed["LC"], res.observed["REF"],
                           Thresholds(correction_alarm_count=1)).run()
        strict = SiteEngine("LC", res.observed["LC"], res.observed["REF"],
                            Thresholds(correction_alarm_count=2)).run()
        loose_hours = {r.stamp for r in loose.rows if r.corrected}
        strict_hours = {r.stamp for r in strict.rows if r.corrected}
        assert strict_hours <= loose_hours
        assert loose_hours                       # the drift does get corrected

    def test_steps_must_advance(self):
        sensor = sim_series("s", 0, 10, 4)
        engine = SiteEngine("s", sensor, sensor)
        engine.step(5)
        with pytest.raises(ValueError, match="advance"):
            engine.step(5)

    @pytest.mark.parametrize("to_sensor, spike, bound", [
        (lambda z: z / 3.0, 300.0, VALUE_MAX),   # gain 3 latched: 3 * 300 > 500
        (lambda z: z + 50.0, 0.0, VALUE_MIN),    # offset -50 latched: -50 + 0 < -10
    ])
    def test_corrected_readings_clip_to_reporting_range(self, to_sensor, spike, bound):
        proxy = sim_series("p", 0, 300, 6)
        values = to_sensor(proxy.values)
        values[-1] = spike
        sensor = TimeSeries("s", proxy.hours, values)
        last = SiteEngine("s", sensor, proxy).run().rows[-1]
        assert last.corrected and last.raw_value == spike
        unclipped = last.offset_trend + last.gain_trend * spike
        assert not VALUE_MIN <= unclipped <= VALUE_MAX
        assert last.output_value == bound

    @pytest.mark.parametrize("to_sensor, offset, gain", [
        (lambda z: 4.0 * z, 0.0, TREND_GAIN_MIN),
        (lambda z: z / 4.0, 0.0, TREND_GAIN_MAX),
        (lambda z: z - TREND_OFFSET_CAP, TREND_OFFSET_CAP, 1.0),
        (lambda z: z + TREND_OFFSET_CAP, -TREND_OFFSET_CAP, 1.0),
    ], ids=["gain-min", "gain-max", "offset-cap", "offset-minus-cap"])
    def test_trend_band_edges_enter_the_trend(self, to_sensor, offset, gain):
        # the sanity band is closed. A proxy alternating 80/90 ppb has the
        # same mean and variance, in binary, in every full window; a sensor
        # that scales it by 4 or shifts it by the cap gives an estimate
        # exactly on an edge of the band, which must enter the trend
        hours = np.arange(0, 200, dtype=np.int64)
        proxy = TimeSeries("p", hours, 80.0 + 10.0 * (hours % 2))
        sensor = TimeSeries("s", hours, to_sensor(proxy.values))
        engine = SiteEngine("s", sensor, proxy)
        for stamp in range(200):
            row = engine.step(stamp)
            if stamp >= 71:         # the window holds all 72 hours
                assert (row.status, row.offset_raw, row.gain_raw) == ("ok", offset, gain)
                assert engine.history.stamps[-1] == stamp
        batch = SiteEngine("s", sensor, proxy)
        assert batch.run().rows == engine.ledger.history
        assert batch.history.stamps == engine.history.stamps

    def test_window_of_tiny_variance_still_gets_an_estimate(self):
        # only a flat-lined window is degenerate: a sensor window whose
        # variance is 1e-9 ppb^2 still gives an estimate, stepped and batched
        proxy = sim_series("p", 0, 200, 8)
        tiny = 30.0 + 3.2e-5 * (-1.0) ** np.arange(200)
        assert 0.9e-9 < np.var(tiny[:72], ddof=1) < 1.1e-9
        sensor = TimeSeries("s", proxy.hours, tiny)
        stepped_rows = [SiteEngine("s", sensor, proxy).step(150)]
        run_rows = [r for r in SiteEngine("s", sensor, proxy).run().rows if r.stamp == 150]
        for row in stepped_rows + run_rows:
            assert row.status == "ok"
            assert row.gain_raw > 1e4 and row.breach_gain
        assert stepped_rows == run_rows

    def test_variance_on_the_flat_bound_is_degenerate(self, monkeypatch):
        # a sensor window whose variance equals DEGENERATE_VAR_EPS counts as
        # flat, stepped and through run(); one just above it gets an estimate
        proxy = sim_series("p", 0, 200, 8)
        sensor = sim_series("s", 0, 200, 9)
        (_,), (var_y,) = window_moments(sensor.values[None, 150 - 71:151])   # hours 79..150
        for eps, status in ((var_y, "degenerate"), (np.nextafter(var_y, 0.0), "ok")):
            monkeypatch.setattr(calibrate, "DEGENERATE_VAR_EPS", eps)
            stepped_row = SiteEngine("s", sensor, proxy).step(150)
            run_row = SiteEngine("s", sensor, proxy).run(150, 150).rows[0]
            assert (stepped_row.status, run_row.status) == (status, status)
            assert stepped_row == run_row

    def test_null_long_run_breach_rate_calibrated(self):
        # sensor and proxy drawn independently from the same distribution:
        # the long-run share of similarity-test breaches sits near the
        # nominal rate
        rng = np.random.default_rng(20180520)
        n = 24 * 365 * 4
        sensor = TimeSeries("s", np.arange(n, dtype=np.int64),
                            np.clip(rng.normal(30, 8, n), -10, 500))
        proxy = TimeSeries("p", np.arange(n, dtype=np.int64),
                           np.clip(rng.normal(30, 8, n), -10, 500))
        result = SiteEngine("s", sensor, proxy).run()
        ps = np.array([r.p_ks for r in result.rows if r.p_ks is not None])
        rate = float(np.mean(ps < 0.05))
        assert 0.03 <= rate <= 0.07


def plain_moments(samples):
    """(mean, unbiased variance) of a window by the statistics module."""
    values = samples.tolist()
    return statistics.fmean(values), statistics.variance(values)


def faulty_network():
    """One reference and four sensors (gain ramp, offset ramp, flatline,
    clean) over 40 days, each series with outage blocks cut out."""
    truth = monitor_truth()
    sensors = {
        "GAIN": (DriftSegment(24 * 8, 24 * 30, "gain_ramp", 2.0),),
        "OFFSET": (DriftSegment(24 * 8, 24 * 30, "offset_ramp", 12.0),),
        "FLAT": (DriftSegment(24 * 25, 24 * 40, "flatline"),),
        "CLEAN": (),
    }
    sites = [SiteSpec(SiteRecord("REF", "ref", "reference", 34.0, -117.0), truth)]
    for i, (sid, drift) in enumerate(sensors.items()):
        record = SiteRecord(sid, sid.lower(), "low-cost", 34.0 + 0.01 * (i + 1), -117.0)
        sites.append(SiteSpec(record, truth, SensorModel(noise_sigma=1.0, drift=drift)))
    res = run_scenario(Scenario(seed=11, start_hour=START_HOUR, duration_hours=24 * 40,
                                sites=sites, regional_sigma=0.5, regional_bound=6.0,
                                reference_noise_sigma=0.5))
    rng = np.random.default_rng(5)
    cut = {}
    for sid, series in res.observed.items():
        keep = np.ones(len(series), dtype=bool)
        for _ in range(4):
            start = int(rng.integers(0, len(series) - 40))
            keep[start:start + int(rng.integers(3, 40))] = False
        cut[sid] = TimeSeries(sid, series.hours[keep], series.values[keep])
    return cut


def engine_state(engine):
    """The ledger, and the whole estimate history: estimates, fit sums and
    the trend held."""
    return (
        engine.ledger.breach_hours, engine.ledger.latched,
        engine.ledger.last_stamp, engine.ledger.history,
        [getattr(engine.history, name) for name in engine.history.__slots__],
    )


def stepped(engine, first, last):
    for stamp in range(first, last + 1):
        engine.step(stamp)
    return engine


BATCH_THRESHOLDS = [
    Thresholds(),
    Thresholds(td_hours=48, completeness_min=0.9, correction_alarm_count=2),
]


@pytest.fixture(scope="module")
def network():
    return faulty_network()


class TestBatchRun:
    """run() replays a span in array passes; it must equal stepping exactly."""

    @pytest.mark.parametrize("th", BATCH_THRESHOLDS)
    def test_run_equals_stepping_row_for_row(self, network, th):
        for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN"):
            sensor, proxy = network[sid], network["REF"]
            batch = SiteEngine(sid, sensor, proxy, th)
            rows = batch.run().rows
            single = stepped(SiteEngine(sid, sensor, proxy, th),
                             int(sensor.hours[0]), int(sensor.hours[-1]))
            assert rows == single.ledger.history, sid
            assert engine_state(batch) == engine_state(single), sid
        statuses = {r.status for r in rows}
        assert statuses == {"ok", "insufficient"}

    @pytest.mark.parametrize("th", BATCH_THRESHOLDS)
    def test_run_measures_as_the_one_window_api(self, network, th):
        # run() and a batch share one measurement, so "run equals stepping"
        # compares it with itself; here every row is checked against the
        # public one-window calls instead, which share the estimator with
        # it, and its flat status and raw estimate against plain Python's
        # statistics, which share no code with either
        statuses = set()
        proxy_moments = {}
        for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN"):
            sensor, proxy = network[sid], network["REF"]
            for row in SiteEngine(sid, sensor, proxy, th).run().rows:
                wins = [window(series, row.stamp, th.td_hours) for series in (sensor, proxy)]
                p_ks = estimate = None
                try:
                    est = moment_match(*wins, th.completeness_min)
                    status, estimate = "ok", (est.offset, est.gain)
                except InsufficientDataError:
                    status = "insufficient"
                except DegenerateWindowError:
                    status = "degenerate"
                if status != "insufficient":
                    sy, sz = wins[0].samples, wins[1].samples
                    p_ks = ks_pvalue(ks_statistic(sy, sz), sy.size, sz.size)
                expected = (status, p_ks, *(estimate or (None, None)))
                assert (row.status, row.p_ks, row.offset_raw, row.gain_raw) == expected, (
                    sid, row.stamp)
                statuses.add(status)
                if status == "insufficient":
                    continue
                mean_y, var_y = plain_moments(sy)
                if not math.isclose(var_y, calibrate.DEGENERATE_VAR_EPS, rel_tol=1e-9):
                    assert (status == "degenerate") == (var_y <= calibrate.DEGENERATE_VAR_EPS)
                if status == "ok":
                    if row.stamp not in proxy_moments:
                        proxy_moments[row.stamp] = plain_moments(sz)
                    mean_z, var_z = proxy_moments[row.stamp]
                    gain = math.sqrt(var_z / var_y)
                    offset = mean_z - gain * mean_y
                    assert math.isclose(row.gain_raw, gain, rel_tol=1e-9), (sid, row.stamp)
                    # the offset is a difference, so 1e-9 of its terms
                    assert math.isclose(row.offset_raw, offset, rel_tol=1e-9,
                                        abs_tol=1e-9 * (abs(mean_z) + abs(gain * mean_y))), (
                        sid, row.stamp)
        assert statuses == {"ok", "insufficient", "degenerate"}

    @pytest.mark.parametrize("assessed", [alarms._BLOCK_HOURS, alarms._BLOCK_HOURS + 1,
                                          2 * alarms._BLOCK_HOURS + 1])
    def test_run_equals_stepping_at_block_edges(self, assessed):
        # run() measures the assessed hours in blocks: one full block, then
        # one hour past one and two blocks
        th = Thresholds(td_hours=24, completeness_min=1.0)
        n = assessed + th.td_hours - 1
        sensor, proxy = sim_series("S", 0, n, 1), sim_series("P", 0, n, 2)
        batch = SiteEngine("S", sensor, proxy, th)
        rows = batch.run().rows
        assert sum(r.p_ks is not None for r in rows) == assessed
        single = stepped(SiteEngine("S", sensor, proxy, th), 0, n - 1)
        assert rows == single.ledger.history
        assert engine_state(batch) == engine_state(single)

    def test_network_covers_every_path(self, network):
        seen = set()
        for sid in ("GAIN", "OFFSET", "FLAT"):
            rows = SiteEngine(sid, network[sid], network["REF"]).run().rows
            seen |= {r.status for r in rows}
            assert any(r.corrected for r in rows), sid
        assert seen == {"ok", "insufficient", "degenerate"}

    def test_trended_estimates_are_assessed_on_the_trend(self, network):
        th = Thresholds()
        rows = SiteEngine("GAIN", network["GAIN"], network["REF"], th).run().rows

        def gain_breach(gain):
            return gain <= th.gain_low or gain >= th.gain_high

        in_band = [r for r in rows if r.status == "ok"
                   and TREND_GAIN_MIN <= r.gain_raw <= TREND_GAIN_MAX
                   and abs(r.offset_raw) <= TREND_OFFSET_CAP]
        assert all(r.breach_gain == gain_breach(r.gain_trend) for r in in_band)
        # the raw estimates alone would breach on other hours
        assert any(r.breach_gain != gain_breach(r.gain_raw) for r in in_band)

    @pytest.mark.parametrize("th", BATCH_THRESHOLDS)
    def test_step_after_run_continues(self, network, th):
        sensor, proxy = network["GAIN"], network["REF"]
        first, last = int(sensor.hours[0]), int(sensor.hours[-1])
        middle = first + 24 * 20
        batch = SiteEngine("GAIN", sensor, proxy, th)
        batch.run(first, middle)
        stepped(batch, middle + 1, last)
        single = stepped(SiteEngine("GAIN", sensor, proxy, th), first, last)
        assert engine_state(batch) == engine_state(single)

    @pytest.mark.parametrize("th", BATCH_THRESHOLDS)
    def test_run_after_steps_continues(self, network, th):
        # the run starts from a history, fit sums and clocks left by step
        sensor, proxy = network["OFFSET"], network["REF"]
        first, last = int(sensor.hours[0]), int(sensor.hours[-1])
        middle = first + 24 * 15
        batch = stepped(SiteEngine("OFFSET", sensor, proxy, th), first, middle)
        assert len(batch.history) >= 3
        batch.run(middle + 1, last)
        single = stepped(SiteEngine("OFFSET", sensor, proxy, th), first, last)
        assert engine_state(batch) == engine_state(single)

    def test_run_on_sub_range(self, network):
        sensor, proxy = network["FLAT"], network["REF"]
        start, end = int(sensor.hours[0]) + 100, int(sensor.hours[-1]) - 50
        batch = SiteEngine("FLAT", sensor, proxy)
        rows = batch.run(start, end).rows
        single = stepped(SiteEngine("FLAT", sensor, proxy), start, end)
        assert rows[0].stamp == start and rows[-1].stamp == end
        assert engine_state(batch) == engine_state(single)

    def test_run_passes_every_hour_through_step(self, network, monkeypatch):
        # a wrapper on step sees the whole replay, as it sees a stream
        sensor, proxy = network["FLAT"], network["REF"]
        seen = []
        step = SiteEngine.step

        def watched(engine, stamp, *rest):
            row = step(engine, stamp, *rest)
            seen.append(row)
            return row

        monkeypatch.setattr(SiteEngine, "step", watched)
        rows = SiteEngine("FLAT", sensor, proxy).run().rows
        assert seen == rows
        assert len(rows) == int(sensor.hours[-1]) - int(sensor.hours[0]) + 1

    @pytest.mark.parametrize("sid", ["GAIN", "FLAT"])
    def test_sparse_steps_measure_as_run(self, network, sid):
        # status, p value, raw estimate and reading depend only on the hour's
        # windows, so stepping any increasing hours gives run()'s values there:
        # hours before the first reading, after the last, inside outages, and
        # jumps of many windows ahead
        sensor, proxy = network[sid], network["REF"]
        first, last = int(sensor.hours[0]) - 30, int(sensor.hours[-1]) + 100
        by_run = {r.stamp: r for r in SiteEngine(sid, sensor, proxy).run(first, last).rows}
        rng = np.random.default_rng(7)
        hours = np.unique(np.concatenate((
            [first, first + 1, last], rng.choice(np.arange(first, last + 1), 120, replace=False),
            np.arange(first + 400, first + 420))))
        engine = SiteEngine(sid, sensor, proxy)
        fields = ("status", "p_ks", "offset_raw", "gain_raw", "raw_value")
        for stamp in hours.tolist():
            row, want = engine.step(stamp), by_run[stamp]
            assert [getattr(row, f) for f in fields] == [getattr(want, f) for f in fields]
        seen = {r.status for r in engine.ledger.history}
        assert seen == ({"ok", "insufficient", "degenerate"} if sid == "FLAT"
                        else {"ok", "insufficient"})
        assert any(r.raw_value is None and r.status == "ok" for r in engine.ledger.history)

    @pytest.mark.parametrize("sid", ["GAIN", "FLAT"])
    def test_kept_trend_equals_trend_at(self, network, sid):
        # the history holds the trend its latest estimate gave, which the
        # engine reads rather than evaluating it each hour; at every hour it
        # must equal trend_at of that hour, however the engine got there:
        # stepping each hour, stepping after run(), run() after sparse steps
        # across gaps, and on insufficient and degenerate hours
        sensor, proxy = network[sid], network["REF"]
        first, last = int(sensor.hours[0]) - 30, int(sensor.hours[-1]) + 50
        middle = first + 24 * 12

        def check(engine, row):
            trend = engine.history.trend_at(row.stamp) if len(engine.history) else None
            kept = None if trend is None else (trend.offset, trend.gain)
            assert engine.history.trend == kept
            assert (row.offset_trend, row.gain_trend) == (kept or (None, None))

        engine = SiteEngine(sid, sensor, proxy)
        for stamp in range(first, last + 1):
            check(engine, engine.step(stamp))
        statuses = {r.status for r in engine.ledger.history}
        assert statuses == ({"ok", "insufficient", "degenerate"} if sid == "FLAT"
                            else {"ok", "insufficient"})

        batch = SiteEngine(sid, sensor, proxy)
        check(batch, batch.run(first, middle).rows[-1])
        for stamp in range(middle + 1, last + 1):
            check(batch, batch.step(stamp))

        sparse = SiteEngine(sid, sensor, proxy)
        rng = np.random.default_rng(3)
        for stamp in np.unique(rng.choice(np.arange(first, middle), 60)).tolist():
            check(sparse, sparse.step(stamp))
        check(sparse, sparse.run(middle, last).rows[-1])

    def test_summary_equals_counts_over_rows(self, network):
        # brute force per attribute; the 30-hour site never has full windows
        short = TimeSeries("SHORT", network["CLEAN"].hours[:30], network["CLEAN"].values[:30])
        results = [SiteEngine(sid, network[sid], network["REF"]).run()
                   for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN")]
        results.append(SiteEngine("SHORT", short, network["REF"]).run())
        for result in results:
            monitored = [r for r in result.rows if r.p_ks is not None]
            assert result.monitored == len(monitored)

            def share(attr):
                held = [getattr(r, attr) for r in monitored]
                return held.count(True) / len(held) if held else 0.0

            assert result.alarm_fractions() == {
                "ks": share("alarm_ks"), "offset": share("alarm_offset"),
                "gain": share("alarm_gain")}
            assert result.corrected_fraction() == share("corrected")
        assert results[-1].rows and results[-1].monitored == 0
        assert list(results[-1].alarm_fractions().values()) == [0.0] * 3
        assert 0.0 < results[0].corrected_fraction() < 1.0

    def test_run_on_empty_sensor_keeps_stepped_rows(self):
        # nothing to evaluate, so run() returns the history as it stands
        empty = TimeSeries("E", np.array([], dtype=np.int64), np.array([]))
        engine = SiteEngine("E", empty, constant_series("REF", 0, 200, 30.0))
        row = engine.step(100)
        assert row.status == "insufficient"
        assert engine.run().rows == [row]
        assert engine.ledger.history == [row]

    def test_run_after_step_must_advance(self, network):
        sensor, proxy = network["CLEAN"], network["REF"]
        engine = SiteEngine("CLEAN", sensor, proxy)
        engine.step(int(sensor.hours[0]) + 5)
        with pytest.raises(ValueError, match="advance"):
            engine.run()
        assert len(engine.ledger.history) == 1


# Thresholds for engines sharing one proxy: three window lengths, and short
# persistence so that short spans still latch and correct.
SHARED_THRESHOLDS = [
    Thresholds(td_hours=24, tf_hours=12),
    Thresholds(td_hours=24, tf_hours=6, completeness_min=1.0),
    Thresholds(td_hours=12, tf_hours=3, completeness_min=0.5),
    Thresholds(td_hours=36, tf_hours=6, correction_alarm_count=2),
]


def private_proxy(engine):
    """A fresh engine like `engine` on a copy of its proxy: a series object
    of its own, whose window no other engine shares."""
    proxy = engine.proxy
    return SiteEngine(engine.site_id, engine.sensor,
                      TimeSeries(proxy.site_id, proxy.hours.copy(), proxy.values.copy()),
                      engine.thresholds)


def step_in_slices(streams, hours, slices):
    """Step each stream (a list of engines) through `hours`, one tick (every
    engine at one hour) at a time, the streams taking turns by slices of
    ticks whose sizes cycle through `slices`; returns each stream's rows per
    tick."""
    rows = [[] for _ in streams]
    k = 0
    for size in itertools.cycle(slices):
        if k >= len(hours):
            return rows
        for stream, ticks in zip(streams, rows):
            ticks.extend([engine.step(hour) for engine in stream] for hour in hours[k:k + size])
        k += size


def cut(hours, values, blocks):
    """The readings left after removing each (start, length) block."""
    keep = np.ones(hours.size, dtype=bool)
    for start, length in blocks:
        keep[start:start + length] = False
    return hours[keep], values[keep]


@st.composite
def shared_proxy_networks(draw):
    """A proxy series with outage blocks, and engines on that one series
    object: sensors of different spans, with outage blocks of their own,
    some flat-lined for a stretch, each with one of SHARED_THRESHOLDS."""
    n = draw(st.integers(30, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 30)), max_size=3)
    all_hours = np.arange(START_HOUR, START_HOUR + n, dtype=np.int64)
    signal = 30 + 10 * np.sin(2 * np.pi * all_hours / 24) + rng.normal(0, 2, n)
    proxy = TimeSeries("P", *cut(all_hours, signal + rng.normal(0, 0.5, n), draw(blocks)))
    engines = []
    for k in range(draw(st.integers(2, 5))):
        first = draw(st.integers(0, n - 1))
        last = draw(st.integers(first, n - 1))
        values = (draw(st.sampled_from([0.5, 1.0, 1.8])) * signal
                  + draw(st.sampled_from([-12.0, 0.0, 8.0])) + rng.normal(0, 1, n))
        flat = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(1, n)))
        if flat is not None:
            values[flat[0]:flat[0] + flat[1]] = values[flat[0]]
        values = np.clip(values, VALUE_MIN, VALUE_MAX)
        hours, values = cut(all_hours[first:last + 1], values[first:last + 1], draw(blocks))
        if hours.size:
            engines.append(SiteEngine(f"S{k}", TimeSeries(f"S{k}", hours, values), proxy,
                                      draw(st.sampled_from(SHARED_THRESHOLDS))))
    return proxy, engines


class TestSharedProxyWindow:
    """Engines on one proxy series object share its window for the hour;
    stepping them must give what engines on private proxies give, and what
    run() gives."""

    @settings(max_examples=40, deadline=None)
    @given(shared_proxy_networks(), st.lists(st.integers(1, 40), min_size=1, max_size=4))
    def test_shared_proxy_steps_as_private_proxies_and_run(self, network, slices):
        # a twin stream of engines on the same proxy object steps the same
        # hours, the two taking turns by slices of ticks
        proxy, engines = network
        hours = list(range(START_HOUR - 5, START_HOUR + 160))
        twins = [SiteEngine(e.site_id, e.sensor, proxy, e.thresholds) for e in engines]
        step_in_slices([engines, twins], hours, slices)
        for engine, twin in zip(engines, twins):
            private = stepped(private_proxy(engine), hours[0], hours[-1])
            assert engine_state(engine) == engine_state(private)
            assert engine_state(twin) == engine_state(private)
            batch = private_proxy(engine)
            assert batch.run(hours[0], hours[-1]).rows == engine.ledger.history
            assert engine_state(batch) == engine_state(engine)

    @pytest.mark.parametrize("slices", [[1], [5, 17]])
    def test_network_in_twin_streams(self, network, slices):
        # every sensor of the faulty network on the one REF object, at three
        # window lengths, in two streams taking turns: the shared window
        # keeps moving between hours and window lengths
        proxy = network["REF"]
        hours = list(range(int(proxy.hours[0]), int(proxy.hours[-1]) + 1))
        thresholds = BATCH_THRESHOLDS + [Thresholds(td_hours=24)]
        streams = [[SiteEngine(sid, network[sid], proxy, th)
                    for th in thresholds for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN")]
                   for _ in range(2)]
        first, second = step_in_slices(streams, hours, slices)
        assert first == second
        seen = set()
        for engine, twin in zip(*streams):
            batch = private_proxy(engine)
            assert batch.run(hours[0], hours[-1]).rows == engine.ledger.history
            assert engine_state(batch) == engine_state(engine) == engine_state(twin)
            seen |= {r.status for r in engine.ledger.history}
        assert seen == {"ok", "insufficient", "degenerate"}

    def test_engines_in_threads_share_one_proxy(self, network):
        # threads step engines on one proxy object through different hours,
        # switching often, so each replaces the window the others read; the
        # rows must still equal those of private proxies
        proxy = network["REF"]
        first = int(proxy.hours[0])
        starts = [first, first + 50, first + 200, first + 333]
        engines = [SiteEngine(sid, network[sid], proxy, th)
                   for sid, th in zip(("GAIN", "OFFSET", "FLAT", "CLEAN"), BATCH_THRESHOLDS * 2)]
        span = 240

        def work(engine, start):
            for hour in range(start, start + span):
                engine.step(hour)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(engines, starts)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for engine, start in zip(engines, starts):
            assert len(engine.ledger.history) == span
            private = stepped(private_proxy(engine), start, start + span - 1)
            assert engine_state(engine) == engine_state(private)

    def test_dropping_the_proxy_frees_its_window(self):
        # nothing measured for the engines keeps their proxy alive once
        # they are gone
        proxy = sim_series("P", 0, 200, 2)
        engines = [SiteEngine(f"S{k}", sim_series(f"S{k}", 0, 200, k), proxy, th)
                   for k, th in enumerate(BATCH_THRESHOLDS)]
        for engine in engines:
            engine.step(150)
        gc.collect()
        dropped = weakref.ref(proxy)
        del engines, engine, proxy
        assert dropped() is None


def private_copy(engine):
    """A fresh engine like `engine` on copies of its sensor and proxy, so
    that no other engine's measurement can serve it."""
    sensor, proxy = engine.sensor, engine.proxy
    return SiteEngine(engine.site_id,
                      TimeSeries(sensor.site_id, sensor.hours.copy(), sensor.values.copy()),
                      TimeSeries(proxy.site_id, proxy.hours.copy(), proxy.values.copy()),
                      engine.thresholds)


def counted_distance_rows(monkeypatch) -> list:
    """The rows of each row-form kernels.ks_distance call, as they are made;
    engines left by earlier tests are collected first, so none joins."""
    gc.collect()
    calls = []
    distance = alarms.kernels.ks_distance

    def counted(*args):
        if len(args) == 4:
            calls.append(len(args[0]))
        return distance(*args)

    monkeypatch.setattr(alarms.kernels, "ks_distance", counted)
    return calls


@st.composite
def lockstep_networks(draw):
    """Two or three proxy series and a few sensors, with outage blocks and
    flat-lined stretches, and engine specs (sensor, proxy, thresholds) over
    them; the first sensor is watched by two engines on different proxies."""
    n = draw(st.integers(30, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 30)), max_size=3)
    all_hours = np.arange(START_HOUR, START_HOUR + n, dtype=np.int64)
    signal = 30 + 10 * np.sin(2 * np.pi * all_hours / 24) + rng.normal(0, 2, n)
    proxies = [TimeSeries(f"P{j}", *cut(all_hours, signal + j + rng.normal(0, 0.5, n),
                                        draw(blocks)))
               for j in range(draw(st.integers(2, 3)))]
    sensors = []
    for k in range(draw(st.integers(2, 4))):
        first = draw(st.integers(0, n - 1))
        last = draw(st.integers(first, n - 1))
        values = (draw(st.sampled_from([0.5, 1.0, 1.8])) * signal
                  + draw(st.sampled_from([-12.0, 0.0, 8.0])) + rng.normal(0, 1, n))
        flat = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(1, n)))
        if flat is not None:
            values[flat[0]:flat[0] + flat[1]] = values[flat[0]]
        values = np.clip(values, VALUE_MIN, VALUE_MAX)
        hours, kept = cut(all_hours[first:last + 1], values[first:last + 1], draw(blocks))
        if not hours.size:      # run() on an empty sensor has no hour to replay
            hours, kept = all_hours[first:first + 1], values[first:first + 1]
        sensors.append(TimeSeries(f"S{k}", hours, kept))
    spec = engine_specs(sensors, proxies)
    shared = st.sampled_from(SHARED_THRESHOLDS)
    specs = [(0, 0, draw(shared)), (0, 1, draw(shared))] + draw(st.lists(spec, max_size=5))
    return proxies, sensors, specs


def engine_specs(sensors, proxies):
    """(sensor index, proxy index, thresholds) of an engine."""
    return st.tuples(st.integers(0, len(sensors) - 1), st.integers(0, len(proxies) - 1),
                     st.sampled_from(SHARED_THRESHOLDS))


class TestLockstepBatch:
    """Engines stepping in step (the same last hour, whatever their window
    lengths) are measured in one batch per hour; each must step as it would
    alone, and as run() replays it."""

    def test_engines_in_step_measure_a_tick_in_one_call(self, network, monkeypatch):
        # one row-form KS call per tick for the whole network on two
        # proxies, with a row per assessed engine (none in a tick without
        # one) and the rows of private engines; an engine with no peer in
        # step is a batch of one
        calls = counted_distance_rows(monkeypatch)
        proxy = network["REF"]
        other = TimeSeries("REF2", proxy.hours, np.clip(proxy.values * 0.8 + 3.0, 0, None))
        engines = [SiteEngine(sid, network[sid], ref)
                   for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN") for ref in (proxy, other)]
        first = int(proxy.hours[0]) + 100
        assessed = []
        for hour in range(first, first + 50):
            rows = [engine.step(hour) for engine in engines]
            assessed.append(sum(r.p_ks is not None for r in rows))
        assert max(assessed) == 8 and calls == [k for k in assessed if k]
        for engine in engines:
            private = stepped(private_copy(engine), first, first + 49)
            assert engine_state(engine) == engine_state(private)
        calls.clear()
        lone = stepped(SiteEngine("GAIN", network["GAIN"], proxy, Thresholds(td_hours=60)),
                       first, first + 9)
        count = sum(r.p_ks is not None for r in lone.ledger.history)
        assert count and calls == [1] * count

    def test_interleaved_window_lengths_measure_each_window_once(self, network, monkeypatch):
        # engines on one proxy at three window lengths, stepped in an order
        # that alternates the lengths: they share the tick's batch, so a tick
        # makes one call with a row per assessed engine, whatever its length,
        # and measures each assessed sensor window once
        calls = counted_distance_rows(monkeypatch)
        proxy = network["REF"]
        thresholds = BATCH_THRESHOLDS + [Thresholds(td_hours=24)]
        engines = [SiteEngine(sid, network[sid], proxy, th)
                   for sid in ("GAIN", "OFFSET", "FLAT", "CLEAN") for th in thresholds]
        assert len({th.td_hours for th in thresholds}) == 3
        first = int(proxy.hours[0]) + 100
        seen = []
        for hour in range(first, first + 30):
            calls.clear()
            rows = [engine.step(hour) for engine in engines]
            assessed = sum(r.p_ks is not None for r in rows)
            assert calls == ([assessed] if assessed else [])
            seen.append(assessed)
        assert 12 in seen
        for engine in engines:
            private = stepped(private_copy(engine), first, first + 29)
            assert engine_state(engine) == engine_state(private)

    def test_a_batch_holds_only_engines_in_step(self, monkeypatch):
        # idle engines join only the first tick, when the stepping engine has
        # not stepped either; engines stepped long ago never join, and an
        # engine at another window length that steps the same hours does
        calls = counted_distance_rows(monkeypatch)
        proxy, other = sim_series("P", 0, 200, 2), sim_series("Q", 0, 200, 3)
        long_ago = [SiteEngine(f"O{k}", sim_series(f"O{k}", 0, 200, k + 8), other)
                    for k in range(20)]
        for engine in long_ago:
            engine.step(80)
        assert calls == [20]
        engine = SiteEngine("S", sim_series("S", 0, 200, 1), proxy)
        idle = [SiteEngine(f"I{k}", sim_series(f"I{k}", 0, 200, k + 4), other)
                for k in range(3)]
        shorter = SiteEngine("T", sim_series("T", 0, 200, 7), proxy, Thresholds(td_hours=48))
        calls.clear()
        for hour in range(100, 110):
            engine.step(hour)
            shorter.step(hour)
        assert calls == [5] + [2] * 9
        assert len(long_ago) + len(idle) == 23
        for stream in (engine, shorter):
            assert engine_state(stream) == engine_state(stepped(private_copy(stream), 100, 109))

    def test_window_lengths_share_a_tick_on_shared_proxies(self, monkeypatch):
        # engines at three window lengths on two shared proxies, the lengths
        # taking turns within the tick: each tick is one call with a row per
        # assessed engine, and each engine steps as a private copy does and
        # as run() replays it
        calls = counted_distance_rows(monkeypatch)
        proxies = [sim_series("P", 0, 300, 2), sim_series("Q", 0, 300, 3, base=40.0)]
        lengths = [Thresholds(td_hours=12, completeness_min=0.5), Thresholds(td_hours=36),
                   Thresholds(td_hours=72, tf_hours=24)]
        engines = [SiteEngine(f"S{k}", sim_series(f"S{k}", 20 * k, 280 - 20 * k, k + 5),
                              proxies[k % 2], lengths[k % 3])
                   for k in range(6)]
        for hour in range(40, 200):
            calls.clear()
            rows = [engine.step(hour) for engine in engines]
            assessed = sum(r.p_ks is not None for r in rows)
            assert calls == ([assessed] if assessed else [])
        assert {r.p_ks is None for e in engines for r in e.ledger.history} == {True, False}
        for engine in engines:
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 40, 199))
            batch = private_copy(engine)
            assert batch.run(40, 199).rows == engine.ledger.history
            assert engine_state(batch) == engine_state(engine)

    def test_a_late_engine_adds_its_row_to_the_hour(self, monkeypatch):
        # an engine built after the others first stepped is not in step
        # with them: it measures the hour in a batch of its own, and an
        # engine of the first batch that steps after it still finds its
        # slot, so it measures nothing; the next hour all three are in step
        calls = counted_distance_rows(monkeypatch)
        proxy = sim_series("P", 0, 200, 2)
        first, second = (SiteEngine(f"S{k}", sim_series(f"S{k}", 0, 200, k), proxy)
                         for k in range(2))
        first.step(99)
        second.step(99)
        late = SiteEngine("L", sim_series("L", 0, 200, 7), proxy)
        for engine in (first, late, second):
            engine.step(100)
        assert calls == [2, 2, 1]
        for engine in (first, late, second):
            engine.step(101)
        assert calls[3:] == [3]
        for engine, start in ((first, 99), (second, 99), (late, 100)):
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), start,
                                                                101))

    def test_engines_on_one_pair_each_add_a_row(self, monkeypatch):
        # two engines on one sensor and one proxy object, told apart by
        # their persistence only, beside a third engine: a tick is one call
        # with a row per assessed engine, and each engine latches on its
        # own clock
        calls = counted_distance_rows(monkeypatch)
        proxy, whole = sim_series("P", 0, 200, 2), sim_series("S", 0, 200, 1)
        sensor = TimeSeries("S", whole.hours, 1.6 * whole.values)
        engines = [SiteEngine("A", sensor, proxy, Thresholds(tf_hours=12)),
                   SiteEngine("B", sensor, proxy, Thresholds(tf_hours=24)),
                   SiteEngine("C", sim_series("T", 0, 200, 3), proxy)]
        for hour in range(100, 140):
            for engine in engines:
                engine.step(hour)
        assert calls == [3] * 40
        first, second = ([r.alarm_gain for r in e.ledger.history] for e in engines[:2])
        assert first.index(True) == 12 and second.index(True) == 24
        for engine in engines:
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 100, 139))

    def test_a_window_is_measured_for_an_engine_that_assesses_it(self, monkeypatch):
        # a 36-hour outage leaves the 72-hour window half full: an engine
        # that asks for full windows leaves the pair unmeasured, and a later
        # engine on the same pair that assesses half windows measures it
        calls = counted_distance_rows(monkeypatch)
        proxy, whole = sim_series("P", 0, 200, 2), sim_series("S", 0, 200, 1)
        kept = (whole.hours < 100) | (whole.hours >= 136)
        sensor = TimeSeries("S", whole.hours[kept], whole.values[kept])
        strict = SiteEngine("A", sensor, proxy, Thresholds(completeness_min=1.0))
        strict.step(150)
        assert calls == []
        lenient = SiteEngine("B", sensor, proxy, Thresholds(completeness_min=0.5))
        lenient.step(150)
        assert calls == [1]
        assert strict.ledger.history[-1].p_ks is None
        assert lenient.ledger.history[-1].p_ks is not None
        for engine in (strict, lenient):
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 150, 150))

    @settings(max_examples=40, deadline=None)
    @given(lockstep_networks(), st.lists(st.integers(1, 40), min_size=1, max_size=4),
           st.data())
    def test_batches_step_as_private_engines_and_run(self, network, slices, data):
        # twin streams of the same engines take turns by slices of ticks; in
        # the first, an engine joins in the middle, and a lone engine steps
        # hours of its own between the stream's engines
        proxies, sensors, specs = network
        hours = list(range(START_HOUR - 5, START_HOUR + 130))

        def build(name, spec):
            s, p, th = spec
            return SiteEngine(name, sensors[s], proxies[p], th)

        streams = [[build(f"E{k}", spec) for k, spec in enumerate(specs)] for _ in range(2)]
        join = data.draw(st.integers(1, len(hours) - 1), label="join")
        joiner = build("J", data.draw(engine_specs(sensors, proxies), label="joiner"))
        lone = build("L", data.draw(engine_specs(sensors, proxies), label="lone"))
        shift = data.draw(st.integers(1, 60), label="shift")
        at = data.draw(st.integers(0, len(specs)), label="lone's place")
        k = 0
        for size in itertools.cycle(slices):
            if k >= len(hours):
                break
            for hour in hours[k:k + size]:
                for engine in streams[0][:at]:
                    engine.step(hour)
                lone.step(hour + shift)
                for engine in streams[0][at:]:
                    engine.step(hour)
                if hour >= hours[join]:
                    joiner.step(hour)
            for hour in hours[k:k + size]:
                for engine in streams[1]:
                    engine.step(hour)
            k += size

        for engine, twin in zip(*streams):
            private = stepped(private_copy(engine), hours[0], hours[-1])
            assert engine_state(engine) == engine_state(private) == engine_state(twin)
            batch = private_copy(engine)
            assert batch.run(hours[0], hours[-1]).rows == engine.ledger.history
            assert engine_state(batch) == engine_state(engine)
        private = stepped(private_copy(joiner), hours[join], hours[-1])
        assert engine_state(joiner) == engine_state(private)
        assert private_copy(joiner).run(hours[join], hours[-1]).rows == joiner.ledger.history
        private = stepped(private_copy(lone), hours[0] + shift, hours[-1] + shift)
        assert engine_state(lone) == engine_state(private)

    def test_a_slot_left_for_another_hour_is_never_used(self):
        # engines filed together: one skips ahead to t + 5, which leaves the
        # others a slot for t + 5; the next then steps t + 1, which that slot
        # must not serve. Another engine skips every other hour throughout.
        proxy = sim_series("P", 0, 200, 2)
        ahead, behind, skipper = (SiteEngine(f"S{k}", sim_series(f"S{k}", 0, 200, k), proxy)
                                  for k in range(3))
        t = 120
        schedule = [(ahead, t), (behind, t), (skipper, t), (ahead, t + 5)]
        schedule += [(behind, t + 1), (skipper, t + 2), (behind, t + 2), (behind, t + 5),
                     (skipper, t + 4), (ahead, t + 6), (skipper, t + 6), (behind, t + 6)]
        for k, (engine, hour) in enumerate(schedule):
            if k == 4:
                assert behind._slot[0] == t + 5
            engine.step(hour)
        for engine in (ahead, behind, skipper):
            private = private_copy(engine)
            for hour in [hour for e, hour in schedule if e is engine]:
                private.step(hour)
            assert engine_state(engine) == engine_state(private)
            assert all(r.p_ks is not None for r in engine.ledger.history)

    def test_an_empty_proxy_window_beside_an_assessed_one(self, monkeypatch):
        # an outage empties one proxy's whole window at the tick, while the
        # other proxy's pairs are assessed: the batch measures only those
        calls = counted_distance_rows(monkeypatch)
        whole, other = sim_series("P", 0, 200, 2), sim_series("Q", 0, 200, 3)
        kept = (whole.hours < 60) | (whole.hours > 150)
        proxy = TimeSeries("P", whole.hours[kept], whole.values[kept])
        sensors = [sim_series(f"S{k}", 0, 200, k) for k in range(2)]
        engines = [SiteEngine(f"S{k}", sensor, ref)
                   for ref in (proxy, other) for k, sensor in enumerate(sensors)]
        rows = [engine.step(150) for engine in engines]
        assert calls == [2]
        assert [r.p_ks is not None for r in rows] == [False, False, True, True]
        for engine in engines:
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 150, 150))

    def test_each_engine_assesses_by_its_own_rule(self, monkeypatch):
        # engines of one batch that ask for different completeness: the one
        # that runs the batch does not assess a half-full window, the other
        # does
        calls = counted_distance_rows(monkeypatch)
        proxy, whole = sim_series("P", 0, 200, 2), sim_series("S", 0, 200, 1)
        kept = (whole.hours < 100) | (whole.hours >= 136)
        sensor = TimeSeries("S", whole.hours[kept], whole.values[kept])
        strict = SiteEngine("A", sensor, proxy, Thresholds(completeness_min=1.0))
        lenient = SiteEngine("B", sensor, proxy, Thresholds(completeness_min=0.5))
        rows = [strict.step(150), lenient.step(150)]
        assert calls == [1]
        assert [r.p_ks is not None for r in rows] == [False, True]
        for engine in (strict, lenient):
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 150, 150))

    def test_streams_at_other_hours_measure_their_own_windows(self, monkeypatch):
        # two streams of eight engines on one proxy, at hours 100 + k and
        # 250 + k, taking turns engine by engine: from the second tick on,
        # each tick makes one call per stream with a row per assessed engine.
        # The first tick still shares work across the streams, because
        # engines that have never stepped are in step with each other.
        calls = counted_distance_rows(monkeypatch)
        proxy = sim_series("P", 0, 400, 2)
        sensors = [sim_series(f"S{k}", 0, 400, k + 3) for k in range(8)]
        streams = [[SiteEngine(f"{name}{k}", sensor, proxy) for k, sensor in enumerate(sensors)]
                   for name in "AB"]
        starts = (100, 250)
        for tick in range(20):
            calls.clear()
            rows = [[], []]
            for pair in zip(*streams):
                for engine, start, stream_rows in zip(pair, starts, rows):
                    stream_rows.append(engine.step(start + tick))
            if tick:
                assert calls == [sum(r.p_ks is not None for r in stream_rows)
                                 for stream_rows in rows] == [8, 8]
        for stream, start in zip(streams, starts):
            for engine in stream:
                private = stepped(private_copy(engine), start, start + 19)
                assert engine_state(engine) == engine_state(private)

    def test_engines_run_to_an_hour_step_the_next_with_a_stream(self, monkeypatch):
        # a stream steps hours up to h; engines built after it catch up
        # with run() to h, and are then in step with the stream: the next
        # hour is one batch for them all
        calls = counted_distance_rows(monkeypatch)
        proxy = sim_series("P", 0, 200, 2)
        sensors = [sim_series(f"S{k}", 0, 200, k + 3) for k in range(4)]
        streamed = [SiteEngine(f"T{k}", sensor, proxy) for k, sensor in enumerate(sensors[2:])]
        for hour in range(100, 151):
            for engine in streamed:
                engine.step(hour)
        ran = [SiteEngine(f"R{k}", sensor, proxy) for k, sensor in enumerate(sensors[:2])]
        for engine in ran:
            engine.run(100, 150)
        calls.clear()
        rows = [engine.step(151) for engine in ran + streamed]
        assert calls == [4] and all(r.p_ks is not None for r in rows)
        for engine in ran + streamed:
            assert engine_state(engine) == engine_state(stepped(private_copy(engine), 100, 151))

    def test_dropping_every_engine_empties_the_registry(self):
        # the live set holds the stepped engines, and none of them once
        # they are dropped: it keeps no engine alive
        proxy = sim_series("P", 0, 200, 2)
        engines = [SiteEngine(f"S{k}", sim_series(f"S{k}", 0, 200, k), proxy, th)
                   for k, th in enumerate(BATCH_THRESHOLDS * 2)]
        for engine in engines:
            engine.step(150)
        assert set(engines) <= set(alarms._live)
        dropped = [weakref.ref(engine) for engine in engines]
        ids = {id(engine) for engine in engines}
        del engines, engine
        gc.collect()
        assert [ref() for ref in dropped] == [None] * len(dropped)
        assert not ids & {id(engine) for engine in alarms._live}

    def test_series_checked_against_each_other_are_freed(self):
        # two references, each the other's proxy, stepped in one batch: what
        # the batches left on the engines must not keep either alive
        first, second = sim_series("A", 0, 200, 1), sim_series("B", 0, 200, 2)
        engines = [SiteEngine("A", first, second), SiteEngine("B", second, first)]
        for hour in range(100, 110):
            for engine in engines:
                engine.step(hour)
        dropped = [weakref.ref(first), weakref.ref(second)]
        del engines, engine, first, second
        assert [ref() for ref in dropped] == [None, None]
