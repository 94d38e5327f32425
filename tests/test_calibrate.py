"""Moment-matching estimators, correction, and trend smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet import (
    CalibrationEstimate,
    DegenerateWindowError,
    EstimateHistory,
    InsufficientDataError,
    apply_correction,
    moment_match,
    window,
)
from ozonet import calibrate
from ozonet.kernels import window_moments
from ozonet.timeseries import TimeSeries


def make_window(values, start=0, site="w"):
    values = np.asarray(values, dtype=float)
    hours = np.arange(start + 1, start + 1 + values.size, dtype=np.int64)
    return window(TimeSeries(site, hours, values), int(hours[-1]), values.size)


def history_from(stamps, offsets, gains):
    h = EstimateHistory("site")
    for s, o, g in zip(stamps, offsets, gains):
        h.append(int(s), float(o), float(g))
    return h


def trend_and_residual(h, which):
    """(trend, raw - trend) of one parameter over the raw estimates of `h`:
    the trend at each estimate is the expanding fit through it, what the
    control chart showed then, and the raw value while the fit is
    underdetermined."""
    offset, gain = EstimateHistory("copy").extend(h.stamps, h.offsets, h.gains)
    raw, trend = (h.gains, gain) if which == "gain" else (h.offsets, offset)
    return trend, np.asarray(raw, dtype=np.float64) - trend


def joint_coefficients(h):
    """((c0, c1, c2) of the offset, (c0, c1, c2) of the gain) in scaled tau,
    solved from the running sums that `h` holds; None while the fit is
    underdetermined."""
    coef, _ = calibrate._solve_quadratic(float(len(h)), h._s1, h._s2, h._s3, h._s4,
                                         ((h._o0, h._o1, h._o2), (h._g0, h._g1, h._g2)))
    return coef


class TestMomentMatch:
    def test_identity_when_windows_equal(self):
        w = make_window(np.sin(np.arange(72.0)) * 9 + 30)
        est = moment_match(w, w)
        assert est.gain == 1.0
        assert est.offset == 0.0

    def test_direct_formula_case(self):
        rng = np.random.default_rng(5)
        y = rng.normal(0, 3, 72)
        y = y - y.mean() + 10.0                  # mean exactly 10
        z = 2.0 * (y - y.mean()) + 30.0          # var 4x, mean 30
        est = moment_match(make_window(y), make_window(z))
        assert est.gain == pytest.approx(2.0, abs=1e-12)
        assert est.offset == pytest.approx(10.0, abs=1e-10)

    def test_algebraic_inversion_recovers_truth(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(5, 80, 72)
        y = 0.6 * x + 8.0
        est = moment_match(make_window(y), make_window(x))
        assert est.gain == pytest.approx(1.0 / 0.6, abs=1e-9)
        assert est.offset == pytest.approx(-8.0 / 0.6, abs=1e-9)
        recovered = apply_correction(est, y)
        assert np.abs(recovered - x).max() < 1e-9

    def test_flat_sensor_window_is_degenerate(self):
        flat = make_window(np.full(72, 33.0))
        live = make_window(np.sin(np.arange(72.0)) + 30)
        with pytest.raises(DegenerateWindowError, match="degenerate"):
            moment_match(flat, live)

    def test_flat_window_with_rounding_dust_still_degenerate(self):
        # a held constant that is not a dyadic rational can miss exact-zero
        # variance by summation rounding; it must still count as flat
        flat = make_window(np.full(72, 14.730000000000001))
        live = make_window(np.sin(np.arange(72.0)) + 30)
        with pytest.raises(DegenerateWindowError, match="degenerate"):
            moment_match(flat, live)

    def test_variance_on_the_flat_bound_is_degenerate(self, monkeypatch):
        # a sensor window whose variance equals DEGENERATE_VAR_EPS counts as
        # flat; one just above it gets an estimate
        y = np.sin(np.arange(72.0)) + 30
        live = make_window(np.cos(np.arange(72.0)) + 30)
        _, var_y = window_moments(y)
        monkeypatch.setattr(calibrate, "DEGENERATE_VAR_EPS", var_y)
        with pytest.raises(DegenerateWindowError, match="degenerate"):
            moment_match(make_window(y), live)
        monkeypatch.setattr(calibrate, "DEGENERATE_VAR_EPS", np.nextafter(var_y, 0.0))
        assert moment_match(make_window(y), live).gain > 0.0

    def test_flat_proxy_gives_zero_gain(self):
        live = make_window(np.sin(np.arange(72.0)) + 30)
        flat = make_window(np.full(72, 33.0))
        est = moment_match(live, flat)
        assert est.gain == 0.0

    def test_incomplete_window_rejected(self):
        live = make_window(np.sin(np.arange(72.0)) + 30)
        short = window(TimeSeries("s", np.arange(1, 30, dtype=np.int64),
                                  np.linspace(10, 50, 29)), 72, 72)
        with pytest.raises(InsufficientDataError):
            moment_match(live, short)

    def test_corrected_moments_match_proxy_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0, 60, 72)
            z = rng.uniform(0, 60, 72)
            est = moment_match(make_window(y), make_window(z))
            corrected = apply_correction(est, y)
            assert abs(corrected.mean() - z.mean()) < 1e-9
            assert abs(corrected.var(ddof=1) - z.var(ddof=1)) < 1e-9

    def test_gain_invariances(self):
        rng = np.random.default_rng(8)
        y = rng.uniform(10, 50, 72)
        z = rng.uniform(10, 50, 72)
        base = moment_match(make_window(y), make_window(z))
        shifted_y = moment_match(make_window(y + 7.0), make_window(z))
        assert shifted_y.gain == pytest.approx(base.gain, rel=1e-12)
        shifted_z = moment_match(make_window(y), make_window(z + 7.0))
        assert shifted_z.gain == pytest.approx(base.gain, rel=1e-12)
        assert shifted_z.offset == pytest.approx(base.offset + 7.0, abs=1e-9)
        scaled = moment_match(make_window(2.0 * y), make_window(z))
        assert scaled.gain == pytest.approx(base.gain / 2.0, rel=1e-12)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            CalibrationEstimate(0, float("nan"), 1.0)
        with pytest.raises(ValueError):
            CalibrationEstimate(0, 0.0, -0.5)


class TestApplyCorrection:
    def test_identity(self):
        assert apply_correction(CalibrationEstimate(0, 0.0, 1.0), 37.0) == 37.0

    def test_affine(self):
        assert apply_correction(CalibrationEstimate(0, 10.0, 2.0), 15.0) == 40.0

    def test_vectorised(self):
        out = apply_correction(CalibrationEstimate(0, 1.0, 2.0), np.array([1.0, 2.0]))
        assert out.tolist() == [3.0, 5.0]


class TestQuadraticTrend:
    def test_constant_history_stays_constant(self):
        h = EstimateHistory("site")
        for t in range(720):
            h.append(t, 0.0, 1.0)
            if t in (10, 300, 719):
                est = h.trend_at(t)
                assert est.gain == pytest.approx(1.0, abs=1e-12)
                assert est.offset == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_nests_linear(self):
        stamps = np.arange(0, 500)
        gains = 1.0 + 0.001 * stamps
        h = history_from(stamps, np.zeros(stamps.size), gains)
        est = h.trend_at(499)
        assert est.gain == pytest.approx(1.0 + 0.001 * 499, abs=1e-9)

    def test_noisy_linear_drift_recovered(self):
        # independent check: the smoothed endpoint stays near the underlying
        # line despite estimate noise
        rng = np.random.default_rng(20180101)
        stamps = np.arange(0, 500)
        line = 1.0 + 0.0008 * stamps
        gains = line + rng.normal(0, 0.05, stamps.size)
        h = history_from(stamps, np.zeros(stamps.size), np.clip(gains, 0, None))
        est = h.trend_at(499)
        assert abs(est.gain - line[-1]) < 0.02

    def test_fallback_below_three_points(self):
        h = history_from([0, 5], [1.0, 2.0], [1.0, 1.1])
        est = h.trend_at(5)
        assert est.source == "raw"
        assert est.offset == 2.0 and est.gain == 1.1

    def test_standalone_refit_matches_incremental(self):
        rng = np.random.default_rng(9)
        stamps = np.sort(rng.choice(np.arange(5000), size=400, replace=False))
        offsets = rng.normal(0, 2, 400)
        gains = 1 + rng.normal(0, 0.1, 400)
        h = history_from(stamps, offsets, np.clip(gains, 0.1, None))
        final = int(stamps[-1])
        a = h.trend_at(final)
        # independent least-squares refit over every point
        tau = (stamps - stamps[0]).astype(float)
        tau_final = float(final - stamps[0])
        offset = np.polyval(np.polyfit(tau, h.offsets, 2), tau_final)
        gain = np.polyval(np.polyfit(tau, h.gains, 2), tau_final)
        assert a.offset == pytest.approx(offset, abs=1e-9)
        assert a.gain == pytest.approx(gain, abs=1e-9)

    def test_standalone_refit_uses_only_past_points(self):
        stamps = [0, 10, 20, 1000]
        h = history_from(stamps, [0, 0, 0, 50.0], [1, 1, 1, 3.0])
        # the trend shown at hour 20 is the fit through hour 20; the wild
        # point at 1000 is in its future and must not matter
        offset_trend, _ = trend_and_residual(h, "offset")
        gain_trend, _ = trend_and_residual(h, "gain")
        assert abs(offset_trend[2]) < 1e-9
        assert gain_trend[2] == pytest.approx(1.0, abs=1e-12)

    def test_trend_clamps_beyond_last_estimate(self):
        stamps = np.arange(0, 200)
        gains = 1.0 + 0.002 * stamps
        h = history_from(stamps, np.zeros(stamps.size), gains)
        at_last = h.trend_at(199)
        far_future = h.trend_at(5000)
        assert far_future.gain == pytest.approx(at_last.gain, abs=1e-12)

    def test_coefficients_recover_exact_quadratic(self):
        stamps = np.arange(0, 300)
        gains = 1.0 + 0.001 * stamps + 2e-6 * stamps ** 2
        h = history_from(stamps, np.zeros(stamps.size), gains)
        offset_coef, (c0, c1, c2) = joint_coefficients(h)
        assert c0 == pytest.approx(1.0, abs=1e-9)
        assert c1 * calibrate._TAU_SCALE == pytest.approx(0.001, abs=1e-9)
        assert c2 * calibrate._TAU_SCALE ** 2 == pytest.approx(2e-6, abs=1e-12)
        assert offset_coef == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)

    def test_coefficients_none_when_underdetermined(self):
        h = history_from([0, 1], [0, 0], [1, 1])
        assert joint_coefficients(h) is None
        assert h._fit_at(1.0, 2.0, 3.0) == (2.0, 3.0, False)

    def test_requires_history(self):
        with pytest.raises(InsufficientDataError):
            EstimateHistory("x").trend_at(0)

    def test_append_requires_increasing_stamps(self):
        h = history_from([0, 1], [0, 0], [1, 1])
        with pytest.raises(ValueError, match="increasing"):
            h.append(1, 0.0, 1.0)

    def test_extend_equals_appending_one_by_one(self):
        rng = np.random.default_rng(12)
        stamps = np.sort(rng.choice(np.arange(3000), size=300, replace=False))
        offsets = rng.normal(0, 4, 300)
        gains = np.abs(1 + rng.normal(0, 0.5, 300))
        one_by_one = history_from(stamps[:40], offsets[:40], gains[:40])
        bulk = history_from(stamps[:40], offsets[:40], gains[:40])
        seen = []
        for s, o, g in zip(stamps[40:], offsets[40:], gains[40:]):
            appended = one_by_one.append(int(s), float(o), float(g))
            trend = one_by_one.trend_at(int(s))
            assert appended == (trend.offset, trend.gain)
            seen.append(appended)
        offset, gain = bulk.extend(stamps[40:], offsets[40:], gains[40:])
        assert list(zip(offset.tolist(), gain.tolist())) == seen
        # estimates, fit sums and the trend held, which is what append gave last
        names = EstimateHistory.__slots__
        assert [getattr(one_by_one, k) for k in names] == [getattr(bulk, k) for k in names]
        assert bulk.trend == seen[-1]
        bulk.extend([], [], [])
        assert bulk.trend == seen[-1]
        with pytest.raises(ValueError, match="increasing"):
            bulk.extend([int(stamps[-1])], [0.0], [1.0])

    def test_fitted_gain_is_floored_at_zero(self):
        # the expanding quadratic through these gains dips below zero at the
        # last point; trend_at and extend both report zero there
        stamps, offsets, gains = [0, 10, 20, 30, 40], [0.0] * 5, [0.0, 3.0, 3.0, 0.0, 0.0]
        h = history_from(stamps, offsets, gains)
        _, (c0, c1, c2) = joint_coefficients(h)
        u = 40.0 * calibrate._TAU_SCALE
        assert c0 + c1 * u + c2 * u * u < 0.0
        assert h.trend_at(40) == CalibrationEstimate(40, 0.0, 0.0, "trend")
        _, gain = EstimateHistory("s").extend(stamps, offsets, gains)
        assert gain[-1] == 0.0


class _SingleFit:
    """One series' expanding least-squares quadratic, its power sums and
    Cramer's rule written out on their own: the oracle that the joint fit of
    offset and gain must equal bit for bit, series by series."""

    def __init__(self):
        self.n = 0
        self.s1 = self.s2 = self.s3 = self.s4 = 0.0
        self.t0 = self.t1 = self.t2 = 0.0

    def push(self, tau, value):
        u = tau * calibrate._TAU_SCALE
        u2 = u * u
        self.n += 1
        self.s1 += u
        self.s2 += u2
        self.s3 += u2 * u
        self.s4 += u2 * u2
        self.t0 += value
        self.t1 += value * u
        self.t2 += value * u2

    def coefficients(self):
        a, t0, t1, t2 = float(self.n), self.t0, self.t1, self.t2
        b, c = self.s1, self.s2
        d, e, f = self.s1, self.s2, self.s3
        g, h, i = self.s2, self.s3, self.s4
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if a < 3.0 or abs(det) < 1e-12 * max(1.0, a * e * i):
            return None
        return ((t0 * (e * i - f * h) - b * (t1 * i - f * t2) + c * (t1 * h - e * t2)) / det,
                (a * (t1 * i - f * t2) - t0 * (d * i - f * g) + c * (d * t2 - t1 * g)) / det,
                (a * (e * t2 - t1 * h) - b * (d * t2 - t1 * g) + t0 * (d * h - e * g)) / det)

    def predict(self, tau):
        coef = self.coefficients()
        if coef is None:
            return None
        u = tau * calibrate._TAU_SCALE
        return coef[0] + coef[1] * u + coef[2] * u * u


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


class TestJointFit:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 40_000), st.floats(-80.0, 80.0), st.floats(0.0, 5.0)),
                    min_size=1, max_size=40, unique_by=lambda point: point[0]))
    def test_equals_two_single_series_fits(self, points):
        points = sorted(points)
        h = EstimateHistory("s")
        single = {"offset": _SingleFit(), "gain": _SingleFit()}
        appended = []
        for stamp, offset, gain in points:
            tau = float(stamp - points[0][0])
            appended.append(h.append(stamp, offset, gain))
            single["offset"].push(tau, offset)
            single["gain"].push(tau, gain)
            want_offset, want_gain = single["offset"].predict(tau), single["gain"].predict(tau)
            trend_offset, trend_gain, determined = h._fit_at(tau, offset, gain)
            assert determined == (want_offset is not None)
            if determined:
                want = (want_offset, want_gain if want_gain > 0.0 else 0.0)
            else:
                want = (offset, gain)
            assert _bits((trend_offset, trend_gain)) == _bits(want)
            assert _bits(appended[-1]) == _bits(want)
            assert _bits(h.trend) == _bits(want)
            trend = h.trend_at(stamp + 5)
            assert _bits((trend.offset, trend.gain)) == _bits(want)
            joint = joint_coefficients(h)
            assert (joint is None) == (want_offset is None)
            if joint is not None:
                assert [_bits(c) for c in joint] == [_bits(single["offset"].coefficients()),
                                                      _bits(single["gain"].coefficients())]
        offset, gain = EstimateHistory("s").extend(*zip(*points))
        assert _bits(offset.tolist()) == _bits(o for o, _ in appended)
        assert _bits(gain.tolist()) == _bits(g for _, g in appended)


class TestDecompose:
    """Raw estimates split into the expanding trend and the residual."""

    def test_constant_history_zero_residuals(self):
        h = history_from(np.arange(50), np.zeros(50), np.ones(50))
        trend, resid = trend_and_residual(h, "gain")
        assert np.abs(resid).max() < 1e-12
        assert trend == pytest.approx(np.ones(50))

    def test_trend_plus_residual_is_raw(self):
        # with hourly estimates the fit is underdetermined through the 11th, so
        # those leave no residual; from the 12th on the fitted trend does
        rng = np.random.default_rng(10)
        gains = np.clip(1 + rng.normal(0, 0.1, 300), 0.1, None)
        h = history_from(np.arange(300), rng.normal(0, 2, 300), gains)
        trend, resid = trend_and_residual(h, "gain")
        np.testing.assert_allclose(trend + resid, np.asarray(h.gains),
                                   rtol=0, atol=1e-12)
        assert not resid[:11].any() and resid[11:].all()

    def test_equals_push_predict_loop(self):
        rng = np.random.default_rng(13)
        stamps = np.sort(rng.choice(np.arange(4000), size=250, replace=False))
        gains = np.clip(1 + 0.0002 * stamps + rng.normal(0, 0.1, 250), 0.1, None)
        h = history_from(stamps, rng.normal(0, 2, 250), gains)
        loop = EstimateHistory("loop")
        predicted = []
        for s, o, g in zip(h.stamps, h.offsets, h.gains):
            loop.append(s, o, g)
            predicted.append(loop._fit_at(float(s - h.stamps[0]), o, g)[:2])
        for which, raw, expected in (("offset", h.offsets, [p[0] for p in predicted]),
                                     ("gain", h.gains, [p[1] for p in predicted])):
            trend, resid = trend_and_residual(h, which)
            assert trend.tolist() == expected
            assert resid.tolist() == (np.asarray(raw) - np.asarray(expected)).tolist()

    def test_residuals_decorrelate_within_a_week(self):
        # with a stable proxy the short-term fluctuations around the trend
        # die out on the window timescale, well inside one week
        from netsim_cases import pair_scenario
        from ozonet import SiteEngine, run_scenario

        res = run_scenario(pair_scenario(duration_hours=24 * 90))
        engine = SiteEngine("LC", res.observed["LC"], res.observed["REF"])
        engine.run()
        _, resid = trend_and_residual(engine.history, "gain")

        def autocorr(x, lag):
            x = x - x.mean()
            return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))

        assert autocorr(resid, 1) > 0.8
        assert abs(autocorr(resid, 168)) < 0.2
