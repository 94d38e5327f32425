"""Deterministic network generator: randomness, models, scenario I/O."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ozonet import (
    DriftSegment,
    Scenario,
    SensorModel,
    SiteEngine,
    SiteRecord,
    SiteSpec,
    Thresholds,
    TimeSeries,
    TruthModel,
    apply_sensor_model,
    generate_truth,
    moment_match,
    run_scenario,
    window,
)
from ozonet.simulate import (
    _STREAM_SENSOR,
    generate_regional,
    normals,
    substream_seed,
    uniforms,
)
from ozonet.timeseries import VALUE_MAX, VALUE_MIN
from netsim_cases import START_HOUR, pair_scenario


class TestFixedRng:
    def test_uniform_determinism_and_range(self):
        u1 = uniforms(123, 5000)
        u2 = uniforms(123, 5000)
        assert np.array_equal(u1, u2)
        assert u1.min() >= 0.0 and u1.max() < 1.0

    def test_counter_mode_offsets_are_consistent(self):
        whole = uniforms(55, 100)
        tail = uniforms(55, 40, offset=60)
        assert np.array_equal(whole[60:], tail)

    def test_substreams_differ(self):
        s1 = substream_seed(9, 1)
        s2 = substream_seed(9, 2)
        assert s1 != s2
        assert not np.array_equal(uniforms(s1, 50), uniforms(s2, 50))

    def test_normals_are_standardish(self):
        z = normals(77, 100000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


class TestTruth:
    def test_flat_model_gives_constant(self):
        ts = generate_truth(TruthModel(baseline=30.0, amplitude=0.0), 100, 1)
        assert np.all(ts.values == 30.0)

    def test_diurnal_range_is_twice_amplitude(self):
        ts = generate_truth(TruthModel(baseline=30.0, amplitude=20.0, phase_hours=0.0),
                            24 * 10, 1)
        daily = ts.values.reshape(10, 24)
        spans = daily.max(axis=1) - daily.min(axis=1)
        np.testing.assert_allclose(spans, 40.0, rtol=0, atol=1e-9)

    def test_nonnegative_even_with_large_swings(self):
        model = TruthModel(baseline=5.0, amplitude=30.0, noise_sigma=5.0)
        ts = generate_truth(model, 24 * 30, 42)
        assert ts.values.min() >= 0.0

    def test_shared_regional_keeps_windows_similar(self):
        scenario = pair_scenario(SensorModel(), duration_hours=24 * 30)
        # zero out noise: both sites see the identical shared signal
        quiet = TruthModel(baseline=30.0, amplitude=10.0, phase_hours=9.0,
                           regional_weight=1.0, noise_sigma=0.0)
        sites = [SiteSpec(scenario.sites[0].record, quiet),
                 SiteSpec(scenario.sites[1].record, quiet, SensorModel())]
        quiet_scenario = Scenario(seed=3, start_hour=START_HOUR,
                                  duration_hours=24 * 30, sites=sites,
                                  regional_sigma=0.5, regional_bound=6.0,
                                  reference_noise_sigma=0.0)
        res = run_scenario(quiet_scenario)
        a, b = res.truth["REF"], res.truth["LC"]
        for end in range(71, 24 * 30, 24):
            d = np.abs(np.sort(window(a, int(a.hours[0]) + end, 72).samples)
                       - np.sort(window(b, int(b.hours[0]) + end, 72).samples)).max()
            assert d == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TruthModel(baseline=30, amplitude=-1)
        with pytest.raises(ValueError):
            TruthModel(baseline=30, amplitude=0, scale=0.0)


_MODES = ("gain_ramp", "offset_ramp", "flatline")


def _sensor_oracle(truth: list, shift: int, model: SensorModel, seed: int) -> list:
    """The readings of apply_sensor_model, hour by hour: each ramp moves its
    parameter linearly from the target before it (in start order) to its
    own, then holds; a flat hour repeats the last reading before its run,
    or the run's first reading when the run starts the series."""
    n = len(truth)
    noise = [0.0] * n
    if model.noise_sigma > 0:
        noise = (normals(substream_seed(seed, _STREAM_SENSOR), n) * model.noise_sigma).tolist()
    segments = sorted(model.drift, key=lambda s: s.start_hour)
    raw, flat = [], []
    for i in range(n):
        rel = i - shift
        before = {"offset_ramp": model.offset, "gain_ramp": model.gain}
        now = dict(before)
        for seg in segments:
            if seg.mode == "flatline":
                continue
            if rel >= seg.start_hour:
                frac = min((rel - seg.start_hour) / (seg.end_hour - seg.start_hour), 1.0)
                now[seg.mode] = before[seg.mode] + (seg.target - before[seg.mode]) * frac
            before[seg.mode] = seg.target
        raw.append((truth[i] - now["offset_ramp"] - noise[i]) / now["gain_ramp"])
        flat.append(any(seg.mode == "flatline" and seg.start_hour <= rel <= seg.end_hour
                        for seg in segments))
    out, last = [], raw[0]
    for value, is_flat in zip(raw, flat):
        if not is_flat:
            last = value
        out.append(min(max(last, VALUE_MIN), VALUE_MAX))
    return out


class TestSensorModel:
    def test_identity_sensor_reproduces_truth(self):
        truth = generate_truth(TruthModel(baseline=30.0, amplitude=10.0), 200, 5)
        reading = apply_sensor_model(truth, SensorModel(), 5)
        assert np.array_equal(reading.values, truth.values)

    def test_affine_inversion_recovered_by_moment_match(self):
        truth = generate_truth(TruthModel(baseline=40.0, amplitude=12.0,
                                          noise_sigma=2.0), 24 * 10, 8)
        reading = apply_sensor_model(truth, SensorModel(offset=10.0, gain=2.0), 8)
        np.testing.assert_allclose(reading.values, (truth.values - 10.0) / 2.0,
                                   atol=1e-12)
        end = int(truth.hours[71])
        est = moment_match(window(reading, end, 72), window(truth, end, 72))
        assert est.gain == pytest.approx(2.0, abs=1e-9)
        assert est.offset == pytest.approx(10.0, abs=1e-9)

    def test_gain_ramp_is_linear_between_endpoints(self):
        truth = generate_truth(TruthModel(baseline=30.0, amplitude=0.0), 100, 1)
        model = SensorModel(drift=(DriftSegment(10, 20, "gain_ramp", 2.0),))
        reading = apply_sensor_model(truth, model, 1)
        assert reading.values[9] == 30.0                       # before the ramp
        assert reading.values[15] == pytest.approx(30.0 / 1.5)  # halfway
        assert reading.values[20] == 15.0                      # ramp complete
        assert reading.values[60] == 15.0                      # holds after

    def test_flatline_holds_last_reading(self):
        truth = generate_truth(TruthModel(baseline=30.0, amplitude=10.0), 400, 2)
        model = SensorModel(drift=(DriftSegment(100, 399, "flatline"),))
        reading = apply_sensor_model(truth, model, 2)
        held = reading.values[99]
        assert np.all(reading.values[100:] == held)
        end = int(truth.hours[0]) + 300
        # held-constant windows are degenerate to well under the flat floor
        assert window(reading, end, 72).samples.var() < 1e-12

    @given(n=st.integers(1, 60), shift=st.integers(-3, 3),
           offset=st.floats(-5.0, 5.0), gain=st.floats(0.5, 2.0),
           sigma=st.sampled_from([0.0, 1.5]), seed=st.integers(0, 2**32 - 1),
           segments=st.lists(st.tuples(st.integers(-3, 62), st.integers(1, 20),
                                       st.sampled_from(_MODES), st.floats(0.25, 4.0)),
                             max_size=6))
    # flat runs at hour 0, adjacent to each other (joined, and one hour apart)
    # and at the series end, between gain and offset ramps that interleave
    @example(n=48, shift=0, offset=1.0, gain=1.2, sigma=1.5, seed=3, segments=[
        (0, 3, "flatline", 0.0), (4, 2, "flatline", 0.0), (5, 20, "gain_ramp", 2.0),
        (8, 10, "offset_ramp", 2.5), (12, 4, "flatline", 0.0), (18, 3, "flatline", 0.0),
        (14, 20, "gain_ramp", 0.5), (20, 6, "offset_ramp", 0.75), (40, 30, "flatline", 0.0)])
    @example(n=30, shift=2, offset=0.0, gain=1.0, sigma=0.0, seed=0, segments=[
        (-3, 4, "flatline", 0.0), (-2, 10, "gain_ramp", 3.0), (3, 5, "gain_ramp", 0.25),
        (3, 5, "offset_ramp", 4.0), (27, 1, "flatline", 0.0)])
    def test_matches_a_per_hour_oracle(self, n, shift, offset, gain, sigma, seed, segments):
        drift = tuple(DriftSegment(start, start + length, mode,
                                   target if mode == "gain_ramp" else 8.0 * (target - 2.0))
                      for start, length, mode, target in segments)
        model = SensorModel(offset=offset, gain=gain, noise_sigma=sigma, drift=drift)
        truth = TimeSeries("LC", START_HOUR + np.arange(n),
                           np.random.default_rng(seed).uniform(0.0, 150.0, n))
        reading = apply_sensor_model(truth, model, seed, start_hour=START_HOUR + shift)
        expected = _sensor_oracle(truth.values.tolist(), shift, model, seed)
        assert reading.values.tolist() == expected
        assert np.array_equal(reading.hours, truth.hours)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorModel(gain=0.0)
        with pytest.raises(ValueError):
            DriftSegment(10, 10, "gain_ramp", 1.0)
        with pytest.raises(ValueError):
            DriftSegment(0, 10, "wobble", 1.0)
        for target in (0.0, -0.5):
            with pytest.raises(ValueError, match="gain_ramp target must be positive"):
                DriftSegment(10, 20, "gain_ramp", target)
            DriftSegment(10, 20, "offset_ramp", target)

    def test_effective_gain_rounded_to_zero_rejected(self):
        # each target is positive, yet 1 + (1e-307 - 1) * 1.0 rounds to 0
        truth = TimeSeries("LC", np.arange(30, dtype=np.int64), np.full(30, 40.0))
        model = SensorModel(drift=(DriftSegment(5, 15, "gain_ramp", 1e-307),))
        with pytest.raises(ValueError, match=r"^LC: a gain_ramp takes the gain to 0\.0;"):
            apply_sensor_model(truth, model, 1)
        tiny = SensorModel(drift=(DriftSegment(5, 15, "gain_ramp", 1e-15),))
        assert apply_sensor_model(truth, tiny, 1).values[-1] == VALUE_MAX


class TestScenario:
    def test_same_seed_is_bit_identical(self):
        scenario = pair_scenario(duration_hours=24 * 20)
        r1, r2 = run_scenario(scenario), run_scenario(scenario)
        for sid in r1.observed:
            assert np.array_equal(r1.observed[sid].values, r2.observed[sid].values)
            assert np.array_equal(r1.truth[sid].values, r2.truth[sid].values)

    def test_config_hash_tracks_content(self):
        a = pair_scenario(duration_hours=24 * 20)
        b = pair_scenario(duration_hours=24 * 20)
        c = pair_scenario(duration_hours=24 * 21)
        assert a.config_sha256() == b.config_sha256()
        assert a.config_sha256() != c.config_sha256()

    def test_dict_round_trip(self):
        scenario = pair_scenario(SensorModel(
            offset=1.0, gain=1.1, noise_sigma=0.5,
            drift=(DriftSegment(5, 50, "offset_ramp", 4.0),)))
        again = Scenario.from_dict(scenario.to_dict())
        assert again == scenario

    def test_regional_walk_respects_bounds(self):
        scenario = pair_scenario(duration_hours=24 * 200)
        walk = generate_regional(scenario)
        assert np.abs(walk).max() <= scenario.regional_bound

    def test_reference_sites_report_truth_plus_noise(self):
        scenario = pair_scenario(duration_hours=24 * 20)
        res = run_scenario(scenario)
        resid = res.observed["REF"].values - res.truth["REF"].values
        assert np.abs(resid).max() < 5 * scenario.reference_noise_sigma
        assert resid.std() == pytest.approx(scenario.reference_noise_sigma, rel=0.2)

    def test_duplicate_site_ids_rejected(self):
        rec = SiteRecord("X", "X", "reference", 0, 0)
        truth = TruthModel(baseline=30, amplitude=5)
        with pytest.raises(ValueError, match="unique"):
            Scenario(seed=1, start_hour=0, duration_hours=10,
                     sites=(SiteSpec(rec, truth), SiteSpec(rec, truth)))

    def test_measurement_relation_holds_over_drift_free_span(self):
        # regressing truth on the emitted reading recovers the deployment
        # offset/gain exactly when noise is zero
        truth = generate_truth(TruthModel(baseline=35.0, amplitude=10.0,
                                          noise_sigma=1.5), 24 * 20, 21)
        reading = apply_sensor_model(truth, SensorModel(offset=4.0, gain=1.2), 21)
        slope, intercept = np.polyfit(reading.values, truth.values, 1)
        assert slope == pytest.approx(1.2, abs=1e-9)
        assert intercept == pytest.approx(4.0, abs=1e-7)


class TestDriftDetectionTiming:
    def test_gain_alarm_latches_soon_after_trend_leaves_bounds(self):
        model = SensorModel(noise_sigma=1.0,
                            drift=(DriftSegment(24 * 30, 24 * 90, "gain_ramp", 2.0),))
        res = run_scenario(pair_scenario(model, duration_hours=24 * 120))
        th = Thresholds()
        result = SiteEngine("LC", res.observed["LC"], res.observed["REF"], th).run()
        crossing = next(r.stamp for r in result.rows
                        if r.gain_trend is not None and r.gain_trend >= th.gain_high)
        latch = next(r.stamp for r in result.rows if r.alarm_gain)
        assert latch > crossing
        assert latch - crossing <= th.tf_hours + 2 * th.td_hours
