"""Proxy selection strategies and proxy-quality evaluation.

A proxy is an independent trusted series whose concentration distribution,
averaged over diurnal cycles, is expected to match the test site's. Three
selection strategies are provided: the closest reference site, the
network-wide hourly median, and the reference with the most similar
traffic density (AADT within 5 km). Their quality is measured by running
the full monitoring pipeline with a reference site standing in as the
"sensor", so ground truth is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ozonet.alarms import SiteEngine, Thresholds
from ozonet.errors import InsufficientDataError
from ozonet.geo import haversine_km
from ozonet.metrics import pair_metrics
from ozonet.timeseries import TimeSeries

ROLE_REFERENCE = "reference"
ROLE_LOW_COST = "low-cost"

STRATEGY_NEAREST = "nearest"
STRATEGY_MEDIAN = "network_median"
STRATEGY_AADT = "similar_aadt"
STRATEGY_EXPLICIT = "explicit"

MEDIAN_SITE_ID = "__network_median__"
MIN_EVAL_OVERLAP_HOURS = 30 * 24


@dataclass(frozen=True)
class SiteRecord:
    site_id: str
    name: str
    role: str
    latitude: float
    longitude: float
    elevation_m: float | None = None
    aadt_5km: float | None = None
    land_use: str | None = None

    def __post_init__(self):
        if self.role not in (ROLE_REFERENCE, ROLE_LOW_COST):
            raise ValueError(f"unknown role {self.role!r}")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of range")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of range")
        if self.aadt_5km is not None and self.aadt_5km < 0:
            raise ValueError("aadt_5km must be nonnegative")

    @property
    def is_reference(self) -> bool:
        return self.role == ROLE_REFERENCE


@dataclass(frozen=True)
class ProxyAssignment:
    test_site_id: str
    strategy: str
    proxy_site_id: str | None     # None for the network median
    note: str = ""

    def __post_init__(self):
        if self.proxy_site_id == self.test_site_id:
            raise ValueError("a site cannot be its own proxy")


def _pick_minimizing(candidates, key, test_site_id, strategy, note_fmt):
    best = min(candidates, key=lambda s: (key(s), s.site_id))
    return ProxyAssignment(test_site_id, strategy, best.site_id,
                           note_fmt.format(best=best, value=key(best)))


def nearest_reference(site: SiteRecord, network: list[SiteRecord]) -> ProxyAssignment:
    """Closest independent reference site; ties break to the smaller site_id."""
    refs = [s for s in network if s.is_reference and s.site_id != site.site_id]
    if not refs:
        raise InsufficientDataError(f"no eligible reference site for {site.site_id}")
    return _pick_minimizing(
        refs,
        lambda s: haversine_km(site.latitude, site.longitude, s.latitude, s.longitude),
        site.site_id, STRATEGY_NEAREST, "{value:.1f} km away",
    )


def similar_aadt(site: SiteRecord, network: list[SiteRecord]) -> ProxyAssignment:
    """Reference with the closest AADT; ties break to the smaller site_id."""
    if site.aadt_5km is None:
        raise InsufficientDataError(f"site {site.site_id} has no AADT value")
    refs = [s for s in network
            if s.is_reference and s.site_id != site.site_id and s.aadt_5km is not None]
    if not refs:
        raise InsufficientDataError(f"no reference with AADT available for {site.site_id}")
    return _pick_minimizing(
        refs,
        lambda s: abs(s.aadt_5km - site.aadt_5km),
        site.site_id, STRATEGY_AADT, "AADT difference {value:.0f}",
    )


def network_median_series(series_list: list[TimeSeries], min_reporters: int = 3,
                          exclude: tuple = ()) -> TimeSeries:
    """Hourly median across all reporting sites.

    Hours with fewer than `min_reporters` sites are gaps. An even count
    takes the mean of the two middle values. Drifting sensors are not
    excluded; pass their ids via `exclude` to drop them explicitly.
    """
    pool = [s for s in series_list if s.site_id not in exclude and len(s)]
    # an empty pool gives an empty grid, and so keeps no hour
    lo = min((int(s.hours[0]) for s in pool), default=0)
    hi = max((int(s.hours[-1]) for s in pool), default=-1)
    grid = np.full((len(pool), hi - lo + 1), np.nan)
    for i, s in enumerate(pool):
        grid[i, s.hours - lo] = s.values
    keep = np.sum(~np.isnan(grid), axis=0) >= min_reporters
    return TimeSeries(MEDIAN_SITE_ID, np.flatnonzero(keep) + lo,
                      np.nanmedian(grid[:, keep], axis=0))


@dataclass(frozen=True)
class ProxyScore:
    """Outcome of monitoring a reference site through a candidate proxy."""

    site_id: str
    strategy: str
    alarm_fraction_ks: float
    alarm_fraction_offset: float
    alarm_fraction_gain: float
    corrected_fraction: float
    mab: float
    r2: float | None
    monitored_hours: int


def evaluate_proxy(test: TimeSeries, proxy: TimeSeries, thresholds: Thresholds | None = None,
                   strategy: str = STRATEGY_EXPLICIT) -> ProxyScore:
    """Run the pipeline with a reference series as the sensor and score it.

    The test series doubles as ground truth, so the score reports how much
    noise and bias the proxy correction itself would introduce.
    """
    th = thresholds or Thresholds()
    overlap = np.intersect1d(test.hours, proxy.hours).size
    if overlap < MIN_EVAL_OVERLAP_HOURS:
        raise InsufficientDataError(
            f"insufficient overlap: {overlap} common hours < {MIN_EVAL_OVERLAP_HOURS}"
        )
    result = SiteEngine(test.site_id, test, proxy, th).run()
    fractions = result.alarm_fractions()
    output = result.output_series()
    metrics = pair_metrics(output, test)
    return ProxyScore(
        site_id=test.site_id,
        strategy=strategy,
        alarm_fraction_ks=fractions["ks"],
        alarm_fraction_offset=fractions["offset"],
        alarm_fraction_gain=fractions["gain"],
        corrected_fraction=result.corrected_fraction(),
        mab=metrics.mab,
        r2=metrics.r2,
        monitored_hours=result.monitored,
    )
