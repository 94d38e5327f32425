"""Pairwise accuracy metrics, co-location checking, and spatial gridding."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ozonet.errors import InsufficientDataError
from ozonet.geo import haversine_km
from ozonet.timeseries import TimeSeries, align

BUDDY_MIN_HOURS = 48
BUDDY_PASS_QUANTILE = 0.95    # fraction of hours that must sit inside tolerance
IDW_EXACT_HIT_KM = 0.001      # treat a site within 1 m of a cell centre as exact
# Most cells in one grid: bounds the size of `map`'s outputs and its time.
# Memory grows with _IDW_BAND_CELLS x sites instead: near this cap (99,093
# cells) `map --split` peaks at 103 MB resident on a 44-site network
# (Python 3.11, numpy 2.4).
IDW_MAX_CELLS = 100_000
# Cells per band of idw_grid: a band's cells x sites arrays take about 48
# bytes per cell and site, some 10 MB at 50 sites.
_IDW_BAND_CELLS = 4096


@dataclass(frozen=True)
class PairMetrics:
    """Agreement between two co-timed series."""

    n_pairs: int
    mab: float            # mean absolute bias, ppb
    rmsd: float           # root mean square deviation, ppb
    r2: float | None      # squared Pearson correlation; None if degenerate


def pair_metrics(a: TimeSeries, b: TimeSeries) -> PairMetrics:
    """MAB, RMSD, and R^2 over the hours present in both series."""
    _, av, bv = align(a, b)
    if av.size < 2:
        raise InsufficientDataError(f"need >= 2 aligned pairs, got {av.size}")
    diff = av - bv
    mab = float(np.abs(diff).mean())
    rmsd = float(np.sqrt((diff ** 2).mean()))
    sa, sb = av.std(), bv.std()
    if sa == 0.0 or sb == 0.0:
        r2 = None
    else:
        r = np.corrcoef(av, bv)[0, 1]
        r2 = float(r * r)
    return PairMetrics(int(av.size), mab, rmsd, r2)


@dataclass(frozen=True)
class BuddyCheck:
    """Result of comparing a transfer-calibrated mobile sensor against a
    fixed local sensor during co-location."""

    hours: np.ndarray = field(repr=False)
    diffs: np.ndarray = field(repr=False)   # local - buddy, ppb
    tolerance: float
    passed: bool

    @property
    def within_fraction(self) -> float:
        return float(np.mean(np.abs(self.diffs) <= self.tolerance))


def buddy_check(buddy: TimeSeries, local: TimeSeries, tolerance: float = 10.0) -> BuddyCheck:
    """Pass when at least 95% of co-located hours agree within tolerance.

    Requires 48 hours of overlap so both diurnal cycles are covered; the
    95% rule keeps isolated spikes from failing an otherwise sound sensor.
    """
    hours, bv, lv = align(buddy, local)
    if hours.size < BUDDY_MIN_HOURS:
        raise InsufficientDataError(
            f"need >= {BUDDY_MIN_HOURS} co-located hours, got {hours.size}"
        )
    diffs = lv - bv
    passed = bool(np.mean(np.abs(diffs) <= tolerance) >= BUDDY_PASS_QUANTILE)
    return BuddyCheck(hours, diffs, tolerance, passed)


@dataclass(frozen=True)
class GridField:
    """Interpolated concentration field over a lat/lon bounding box."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    cell_deg: float
    lats: np.ndarray = field(repr=False)    # cell-centre latitudes, ascending
    lons: np.ndarray = field(repr=False)    # cell-centre longitudes, ascending
    values: np.ndarray = field(repr=False)  # shape (len(lats), len(lons))


def idw_grid(sites, lat_min, lat_max, lon_min, lon_max, cell_deg, power: float = 2.0) -> GridField:
    """Inverse-distance-weighted field from point values.

    `sites` is a sequence of (lat, lon, value). Weights are distance to the
    -power; a cell whose centre falls within 1 m of a site takes that
    site's value exactly (also the division-by-zero guard): of several such
    sites the nearest's, and of those equally near the first's. Every cell
    is a convex combination of the inputs, so the field is bounded by them.
    A cell size, bound or power that is not finite is a ValueError naming
    it, and so are a power that is not > 0, a grid of more than
    IDW_MAX_CELLS cells, giving its count, and a power whose weights under-
    or overflow so that a cell is not finite, giving the power.
    """
    sites = list(sites)
    if not sites:
        raise InsufficientDataError("no sites with values to interpolate")
    for name, value in (("cell size", cell_deg), ("lat_min", lat_min), ("lat_max", lat_max),
                        ("lon_min", lon_min), ("lon_max", lon_max), ("power", power)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")
    if cell_deg <= 0 or lat_max <= lat_min or lon_max <= lon_min:
        raise ValueError("bounding box must be non-empty and cell size positive")
    slat = np.array([s[0] for s in sites])
    slon = np.array([s[1] for s in sites])
    svals = np.array([s[2] for s in sites], dtype=np.float64)

    # floats until checked: over a tiny cell a span may count to infinity
    n_lat = max(1.0, np.ceil((lat_max - lat_min) / cell_deg))
    n_lon = max(1.0, np.ceil((lon_max - lon_min) / cell_deg))
    if n_lat * n_lon > IDW_MAX_CELLS:
        raise ValueError(f"a grid of {n_lat * n_lon:.0f} cells is more than "
                         f"the {IDW_MAX_CELLS} allowed")
    n_lat, n_lon = int(n_lat), int(n_lon)
    lats = lat_min + (np.arange(n_lat) + 0.5) * cell_deg
    lons = lon_min + (np.arange(n_lon) + 0.5) * cell_deg

    cells = np.arange(n_lat * n_lon)
    flat = np.empty(cells.size)
    for lo in range(0, cells.size, _IDW_BAND_CELLS):
        band = cells[lo:lo + _IDW_BAND_CELLS]
        # distances: band cells x sites
        dists = haversine_km(lats[band // n_lon, None], lons[band % n_lon, None], slat, slon)
        exact = dists < IDW_EXACT_HIT_KM
        with np.errstate(all="ignore"):
            weights = dists ** (-power)
            weights[exact] = 0.0
            idw = (weights * svals).sum(axis=1) / weights.sum(axis=1)
        nearest = np.where(exact, dists, np.inf).argmin(axis=1)
        flat[band] = np.where(exact.any(axis=1), svals[nearest], idw)
        if not np.isfinite(flat[band]).all():
            raise ValueError(f"the weights at power {power} under- or overflow: "
                             "the field is not finite")
    return GridField(lat_min, lat_max, lon_min, lon_max, cell_deg,
                     lats, lons, flat.reshape(n_lat, n_lon))
