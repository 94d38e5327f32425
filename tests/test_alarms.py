"""Control-chart breach logic, persistence clocks, and the hourly driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import (
    AlarmLedger,
    BreachFlags,
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
from ozonet import alarms
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
        _, var_y = window_moments(sensor.values[150 - 71:151])   # hours 79..150
        for eps, status in ((var_y, "degenerate"), (np.nextafter(var_y, 0.0), "ok")):
            monkeypatch.setattr(alarms, "DEGENERATE_VAR_EPS", eps)
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

    def test_run_after_step_must_advance(self, network):
        sensor, proxy = network["CLEAN"], network["REF"]
        engine = SiteEngine("CLEAN", sensor, proxy)
        engine.step(int(sensor.hours[0]) + 5)
        with pytest.raises(ValueError, match="advance"):
            engine.run()
        assert len(engine.ledger.history) == 1
