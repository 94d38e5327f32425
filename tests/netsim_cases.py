"""Scenario builders shared across test modules.

These are the oracle configurations: every fault location, magnitude and
timing is known, so framework behaviour can be checked against ground
truth.
"""

from ozonet import (
    DriftSegment,
    Scenario,
    SensorModel,
    SiteRecord,
    SiteSpec,
    TruthModel,
)

START_HOUR = 421344          # 2018-01-25T00:00:00Z, arbitrary but fixed
SEVEN_MONTHS = 24 * 212

DRIFT_SITES = ("S00", "S01", "S02", "S03", "S04")
FLAT_SITES = ("S05", "S06")


def monitor_truth() -> TruthModel:
    return TruthModel(baseline=30.0, amplitude=10.0, phase_hours=9.0,
                      regional_weight=1.0, noise_sigma=1.0)


def monitor_network(with_faults: bool, seed: int = 20180101,
                    duration_hours: int = SEVEN_MONTHS) -> Scenario:
    """Five references anchoring fifteen low-cost sites.

    With faults enabled, S00-S04 ramp their gain parameter to 2.0 (the
    sensor reads half the true signal) over days 45-110 and S05-S06
    flatline from day 90 onward.
    """
    truth = monitor_truth()
    sites = []
    for i in range(5):
        rec = SiteRecord(f"R{i:02d}", f"ref-{i}", "reference",
                         33.8 + 0.12 * i, -118.2 + 0.22 * i)
        sites.append(SiteSpec(rec, truth))
    for i in range(15):
        rec = SiteRecord(f"S{i:02d}", f"lc-{i}", "low-cost",
                         33.8 + 0.12 * (i % 5) + 0.03,
                         -118.2 + 0.22 * (i % 5) - 0.02 * (i // 5 + 1))
        drift = ()
        if with_faults and f"S{i:02d}" in DRIFT_SITES:
            drift = (DriftSegment(24 * 45, 24 * 110, "gain_ramp", 2.0),)
        elif with_faults and f"S{i:02d}" in FLAT_SITES:
            drift = (DriftSegment(24 * 90, duration_hours, "flatline"),)
        sites.append(SiteSpec(rec, truth, SensorModel(noise_sigma=1.0, drift=drift)))
    return Scenario(seed=seed, start_hour=START_HOUR, duration_hours=duration_hours,
                    sites=sites, regional_sigma=0.5, regional_bound=6.0,
                    reference_noise_sigma=0.5)


def gradient_network(seed: int = 424242, duration_hours: int = 24 * 120) -> Scenario:
    """Six references along a concentration gradient, AADT values arranged
    so the closest-AADT pairing picks geographically distant (dissimilar)
    sites; two drifting low-cost sensors degrade the network median."""
    aadt = [100.0, 200.0, 300.0, 101.0, 201.0, 301.0]
    sites = []
    for i in range(6):
        truth = TruthModel(baseline=24.0 + 2.4 * i, amplitude=10.0, phase_hours=9.0,
                           regional_weight=1.0, noise_sigma=1.0)
        rec = SiteRecord(f"R{i:02d}", f"ref-{i}", "reference",
                         33.8 + 0.06 * i, -118.0 + 0.02 * i, aadt_5km=aadt[i])
        sites.append(SiteSpec(rec, truth))
    for j in range(2):
        truth = TruthModel(baseline=24.0 + 2.4 * (2 + j), amplitude=10.0,
                           phase_hours=9.0, regional_weight=1.0, noise_sigma=1.0)
        rec = SiteRecord(f"S{j:02d}", f"lc-{j}", "low-cost",
                         33.82 + 0.06 * j, -118.01 + 0.02 * j)
        sites.append(SiteSpec(rec, truth, SensorModel(
            noise_sigma=1.0,
            drift=(DriftSegment(24 * 40, 24 * 100, "gain_ramp", 2.0),))))
    return Scenario(seed=seed, start_hour=START_HOUR, duration_hours=duration_hours,
                    sites=sites, regional_sigma=0.5, regional_bound=6.0,
                    reference_noise_sigma=0.5)


def pair_scenario(sensor_model: SensorModel | None = None, seed: int = 7,
                  duration_hours: int = 24 * 90, *, sensor_truth: TruthModel | None = None,
                  proxy_truth: TruthModel | None = None) -> Scenario:
    """One reference proxy and one monitored low-cost site."""
    truth = monitor_truth()
    sites = [
        SiteSpec(SiteRecord("REF", "ref", "reference", 34.0, -117.0),
                 proxy_truth or truth),
        SiteSpec(SiteRecord("LC", "lc", "low-cost", 34.05, -117.05),
                 sensor_truth or truth,
                 sensor_model or SensorModel(noise_sigma=1.0)),
    ]
    return Scenario(seed=seed, start_hour=START_HOUR, duration_hours=duration_hours,
                    sites=sites, regional_sigma=0.5, regional_bound=6.0,
                    reference_noise_sigma=0.5)


def small_network(seed: int = 20180102, duration_hours: int = 24 * 14) -> Scenario:
    """Two references and four low-cost sites over two weeks, small enough to
    run the commands on many times: S00 ramps its gain to 2.0 and S01 its
    offset to 12 ppb over days 1-4, S02 flatlines from day 5, and S03 stays
    clean."""
    truth = monitor_truth()
    sites = [SiteSpec(SiteRecord(f"R{i:02d}", f"ref-{i}", "reference",
                                 33.8 + 0.2 * i, -118.2), truth) for i in range(2)]
    drifts = [(DriftSegment(24, 96, "gain_ramp", 2.0),),
              (DriftSegment(24, 96, "offset_ramp", 12.0),),
              (DriftSegment(120, duration_hours, "flatline"),),
              ()]
    for i, drift in enumerate(drifts):
        rec = SiteRecord(f"S{i:02d}", f"lc-{i}", "low-cost",
                         33.8 + 0.2 * (i % 2) + 0.01, -118.2 + 0.01 * (i + 1))
        sites.append(SiteSpec(rec, truth, SensorModel(noise_sigma=1.0, drift=drift)))
    return Scenario(seed=seed, start_hour=START_HOUR, duration_hours=duration_hours,
                    sites=sites, regional_sigma=0.5, regional_bound=6.0,
                    reference_noise_sigma=0.5)
