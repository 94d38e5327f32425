"""Pair metrics, buddy co-location checks, and IDW gridding."""

import tracemalloc

import numpy as np
import pytest

from ozonet import InsufficientDataError, TimeSeries, buddy_check, idw_grid, pair_metrics
from ozonet.geo import haversine_km
from ozonet.metrics import _IDW_BAND_CELLS, IDW_EXACT_HIT_KM, IDW_MAX_CELLS


def hourly(site, start, values):
    return TimeSeries(site, np.arange(start, start + len(values), dtype=np.int64),
                      np.asarray(values, dtype=float))


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(34.0, -118.0, 34.0, -118.0) == 0.0

    def test_one_degree_latitude(self):
        # R * pi / 180 = 111.19 km on the reference sphere
        assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.19, abs=0.01)

    def test_broadcasts(self):
        d = haversine_km(0.0, 0.0, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert d.shape == (2,)
        assert d[0] == 0.0


class TestPairMetrics:
    def test_identical_series(self):
        a = hourly("a", 0, np.sin(np.arange(100.0)) * 10 + 30)
        m = pair_metrics(a, a)
        assert m.mab == 0.0
        assert m.rmsd == 0.0
        assert m.r2 == pytest.approx(1.0)

    def test_constant_offset(self):
        values = np.sin(np.arange(100.0)) * 10 + 30
        a = hourly("a", 0, values)
        b = hourly("b", 0, values + 5.0)
        m = pair_metrics(a, b)
        assert m.mab == pytest.approx(5.0)
        assert m.rmsd == pytest.approx(5.0)
        assert m.r2 == pytest.approx(1.0)

    def test_sign_flip_keeps_squared_correlation(self):
        centered = np.sin(np.arange(100.0)) * 10
        a = hourly("a", 0, centered)
        b = hourly("b", 0, -centered)
        m = pair_metrics(a, b)
        assert m.r2 == pytest.approx(1.0)
        assert m.mab == pytest.approx(np.abs(2 * centered).mean())

    def test_zero_variance_side_drops_r2(self):
        a = hourly("a", 0, [1.0, 2.0, 3.0])
        b = hourly("b", 0, [4.0, 4.0, 4.0])
        m = pair_metrics(a, b)
        assert m.r2 is None
        assert m.mab == pytest.approx(np.abs([3.0, 2.0, 1.0]).mean())

    def test_too_few_pairs(self):
        a = hourly("a", 0, [1.0])
        with pytest.raises(InsufficientDataError):
            pair_metrics(a, a)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = hourly("a", 0, rng.uniform(0, 60, 80))
        b = hourly("b", 0, rng.uniform(0, 60, 80))
        m1, m2 = pair_metrics(a, b), pair_metrics(b, a)
        assert m1.mab == m2.mab
        assert m1.rmsd == m2.rmsd
        assert m1.r2 == pytest.approx(m2.r2, rel=1e-12)


class TestBuddyCheck:
    def test_identical_series_pass(self):
        values = np.sin(np.arange(72.0)) * 10 + 30
        buddy = hourly("buddy", 0, values)
        local = hourly("local", 0, values)
        result = buddy_check(buddy, local)
        assert result.passed
        assert np.all(result.diffs == 0.0)

    def test_offset_beyond_tolerance_fails(self):
        values = np.sin(np.arange(72.0)) * 10 + 30
        result = buddy_check(hourly("b", 0, values), hourly("l", 0, values + 12.0))
        assert not result.passed

    def test_occasional_spikes_tolerated(self):
        values = np.full(100, 30.0)
        noisy = values.copy()
        noisy[[10, 40, 70, 90]] += 25.0          # 4% of hours outside
        result = buddy_check(hourly("b", 0, values), hourly("l", 0, noisy))
        assert result.passed
        assert result.within_fraction == pytest.approx(0.96)

    def test_insufficient_overlap(self):
        values = np.full(40, 30.0)
        with pytest.raises(InsufficientDataError):
            buddy_check(hourly("b", 0, values), hourly("l", 0, values))

    def test_self_check_always_passes(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            values = np.clip(rng.normal(30, 8, 60), -10, 500)
            ts = hourly("x", 0, values)
            assert buddy_check(ts, ts).passed


class TestIdwGrid:
    def test_single_site_uniform_field(self):
        grid = idw_grid([(34.0, -118.0, 42.0)], 33.9, 34.1, -118.1, -117.9, 0.05)
        assert np.all(grid.values == 42.0)

    def test_midpoint_between_two_sites(self):
        # cell centred exactly between equal-distance sites averages them
        grid = idw_grid([(0.0, -0.1, 20.0), (0.0, 0.1, 40.0)],
                        -0.05, 0.05, -0.05, 0.05, 0.1)
        assert grid.values.shape == (1, 1)
        assert grid.values[0, 0] == pytest.approx(30.0)

    def test_exact_hit_takes_site_value(self):
        # cell centre at (0.05, 0.05) coincides with a site
        grid = idw_grid([(0.05, 0.05, 77.0), (0.3, 0.3, 10.0)],
                        0.0, 0.1, 0.0, 0.1, 0.1)
        assert grid.values[0, 0] == 77.0

    def test_field_bounded_by_inputs(self):
        rng = np.random.default_rng(15)
        sites = [(float(lat), float(lon), float(v)) for lat, lon, v in
                 zip(rng.uniform(33, 35, 12), rng.uniform(-119, -117, 12),
                     rng.uniform(5, 80, 12))]
        grid = idw_grid(sites, 33.0, 35.0, -119.0, -117.0, 0.1)
        values = np.array([v for _, _, v in sites])
        assert grid.values.min() >= values.min() - 1e-9
        assert grid.values.max() <= values.max() + 1e-9

    @pytest.mark.parametrize("power", [400.0])
    def test_weights_that_under_or_overflow_rejected(self, power):
        # sites 11 km apart, corner cells some 7 km from both: there both
        # weights underflow to 0 at power 400
        sites = [(0.0, -0.05, 20.0), (0.0, 0.05, 40.0)]
        with pytest.raises(ValueError, match=f"at power {power} under- or overflow"):
            idw_grid(sites, -0.05, 0.05, -0.05, 0.05, 0.01, power=power)
        assert np.isfinite(idw_grid(sites, -0.05, 0.05, -0.05, 0.05, 0.01,
                                    power=power / 10).values).all()

    def test_weight_that_overflows_near_a_site_rejected(self):
        # every cell within 2 km of both sites, so no weight underflows; one
        # cell centre 22 m from a site (not an exact hit) gets a weight of
        # inf at power 400, and inf / inf is not finite
        sites = [(0.005, 0.0052, 20.0), (-0.005, -0.005, 40.0)]
        with pytest.raises(ValueError, match="at power 400.0 under- or overflow"):
            idw_grid(sites, -0.01, 0.01, -0.01, 0.01, 0.01, power=400.0)
        assert np.isfinite(idw_grid(sites, -0.01, 0.01, -0.01, 0.01, 0.01,
                                    power=40.0).values).all()

    @pytest.mark.parametrize("power", [0.0, -0.0, -3.0, -1000.0])
    def test_power_not_above_zero_rejected(self, power):
        # power 0 gives every cell the plain mean, a negative power weights
        # it toward the farther sites: neither is inverse-distance weighting
        sites = [(0.0, -0.05, 20.0), (0.0, 0.05, 40.0)]
        with pytest.raises(ValueError, match=rf"^power must be > 0, got {power}$"):
            idw_grid(sites, -0.05, 0.05, -0.05, 0.05, 0.01, power=power)
        assert idw_grid(sites, -0.05, 0.05, -0.05, 0.05, 0.01, power=1e-300).values.size

    def test_empty_sites_rejected(self):
        with pytest.raises(InsufficientDataError):
            idw_grid([], 0, 1, 0, 1, 0.1)

    def test_bad_bbox_rejected(self):
        with pytest.raises(ValueError):
            idw_grid([(0.0, 0.0, 1.0)], 1, 0, 0, 1, 0.1)

    def test_grid_of_more_than_the_cap_rejected(self):
        # a row of exactly IDW_MAX_CELLS cells is computed, one more is not;
        # the cell is a power of two, so the spans divide into it exactly
        cell = 2.0 ** -10
        grid = idw_grid([(0.0, 0.0, 5.0)], 0.0, cell, 0.0, IDW_MAX_CELLS * cell, cell)
        assert grid.values.shape == (1, IDW_MAX_CELLS)
        with pytest.raises(ValueError, match=rf"^a grid of {IDW_MAX_CELLS + 1} cells "):
            idw_grid([(0.0, 0.0, 5.0)], 0.0, cell, 0.0, (IDW_MAX_CELLS + 1) * cell, cell)

    @pytest.mark.parametrize("n_lat, n_lon", [
        (45, 91), (64, 64), (17, 241), (3, 2731)],
        ids=["band-1", "band", "band+1", "2band+1"])
    def test_values_match_a_cell_by_cell_oracle(self, n_lat, n_lon):
        # grids of one band less a cell up to two bands and a cell, bit for
        # bit against each cell computed on its own
        assert n_lat * n_lon in (_IDW_BAND_CELLS - 1, _IDW_BAND_CELLS,
                                 _IDW_BAND_CELLS + 1, 2 * _IDW_BAND_CELLS + 1)
        cell, lat_min, lon_min = 2.0 ** -8, 34.0, -118.5    # centres are exact floats

        def centre(k):
            return lat_min + (k // n_lon + 0.5) * cell, lon_min + (k % n_lon + 0.5) * cell

        rng = np.random.default_rng(n_lat * n_lon)
        sites = [(float(lat), float(lon), float(v)) for lat, lon, v in zip(
            rng.uniform(lat_min, lat_min + n_lat * cell, 12),
            rng.uniform(lon_min, lon_min + n_lon * cell, 12), rng.uniform(5, 80, 12))]
        last = n_lat * n_lon - 1
        # hits on the first and last cells of the bands
        edges = {k: 11.0 + n for n, k in enumerate(sorted(
            k for k in {0, _IDW_BAND_CELLS - 1, _IDW_BAND_CELLS, last} if k <= last))}
        sites += [(*centre(k), value) for k, value in edges.items()]
        sites += [(*centre(7), 21.0), (*centre(7), 22.0)]     # one centre: the first wins
        lat, lon = centre(9)
        sites += [(lat + 5e-6, lon, 31.0), (lat + 2e-6, lon, 32.0)]   # < 1 m: the nearer wins
        lat, lon = centre(last // 3)
        sites.append((lat, lon + 8e-6, 41.0))        # within 1 m of a centre, off it
        grid = idw_grid(sites, lat_min, lat_min + n_lat * cell, lon_min,
                        lon_min + n_lon * cell, cell)
        assert grid.values.shape == (n_lat, n_lon)

        slat, slon, svals = (np.array(column) for column in zip(*sites))
        oracle = np.empty(n_lat * n_lon)
        for k in range(oracle.size):
            dists = haversine_km(*centre(k), slat, slon)
            hits = [i for i in range(len(sites)) if dists[i] < IDW_EXACT_HIT_KM]
            if hits:
                oracle[k] = svals[min(hits, key=lambda i: (dists[i], i))]
            else:
                weights = dists ** -2.0
                oracle[k] = (weights * svals).sum() / weights.sum()
        for k, value in {**edges, 7: 21.0, 9: 32.0, last // 3: 41.0}.items():
            assert oracle[k] == value
        assert grid.values.ravel().tobytes() == oracle.tobytes()

    def test_memory_bounded_at_the_cap(self):
        # the field is computed a band of cells at a time: 50 sites over
        # the largest grid stay far below the 48 bytes a cell and site take
        # all at once (240 MB)
        rng = np.random.default_rng(16)
        sites = [(float(lat), float(lon), float(v)) for lat, lon, v in zip(
            rng.uniform(34, 34.25, 50), rng.uniform(-118, -117.6, 50), rng.uniform(5, 80, 50))]
        tracemalloc.start()
        try:
            grid = idw_grid(sites, 34.0, 34.0 + 250 * 2.0 ** -10, -118.0,
                            -118.0 + 400 * 2.0 ** -10, 2.0 ** -10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.values.size == IDW_MAX_CELLS
        assert peak < 40e6
