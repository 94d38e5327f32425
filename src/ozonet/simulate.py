"""Synthetic hierarchical-network generator with ground truth.

Produces hourly concentration fields for a network of reference and
low-cost sites, with a known per-site truth and known sensor faults, so
every part of the monitoring framework can be verified against an oracle.

Each site's truth combines a diurnal sinusoid, a regional component shared
across the network (a bounded random walk, giving realistic cross-site
correlation without prescribing meteorology), and site noise. The shared
component can be reshaped per site by an affine (shift, scale) plus a
relation-noise term, so the similarity between two sites' distributions is
a controlled property of the scenario rather than an accident.

A sensor emits reading = (true - offset - noise) / gain, so that
true = offset + gain * reading + noise holds by construction; the drift
schedule ramps the effective offset/gain linearly or holds the emitted
reading constant (flatline, a fully blocked inlet).

All randomness comes from a counter-mode splitmix64 stream feeding a
Box-Muller transform, with one independent substream per (site, purpose).
The algorithm is fixed by this module, not the platform, so a scenario
file reproduces byte-identical data anywhere.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ozonet.io import check_site_ids, json_record, json_value
from ozonet.proxy import ROLE_LOW_COST, ROLE_REFERENCE, SiteRecord
from ozonet.timeseries import (
    HOUR_MAX,
    TimeSeries,
    VALUE_MAX,
    VALUE_MIN,
    format_iso_hour,
    parse_iso_hour,
)

GENERATOR_NAME = "splitmix64-boxmuller-v1"

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_TWO_NEG_53 = 2.0 ** -53

# substream labels; one independent stream per (site, purpose)
_STREAM_REGIONAL = 1
_STREAM_TRUTH = 1000
_STREAM_RELATION = 2000
_STREAM_SENSOR = 3000
_STREAM_REFERENCE = 4000


def _splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Raw 64-bit draws offset..offset+count-1 of the stream: draw k mixes
    seed + (k + 1) * golden."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK) + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def substream_seed(seed: int, *labels: int) -> int:
    """Derive an independent stream seed from the master seed and labels:
    each label picks draw `label` of the stream seeded so far."""
    s = seed & _MASK
    for label in labels:
        s = int(_splitmix64(s, 1, label)[0])
    return s


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws offset..offset+count-1 of the stream, each uniform in [0, 1)."""
    return (_splitmix64(seed, count, offset) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53


def normals(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Standard normal deviates; consumes two uniforms per value."""
    u = uniforms(seed, 2 * count, 2 * offset)
    u1 = np.maximum(u[0::2], _TWO_NEG_53)
    u2 = u[1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class TruthModel:
    """Generative model of one site's true concentration."""

    baseline: float               # ppb
    amplitude: float              # diurnal swing, ppb
    phase_hours: float = 0.0      # hour-of-day offset of the sinusoid
    regional_weight: float = 1.0  # coupling to the shared walk
    noise_sigma: float = 0.0      # site noise, ppb
    shift: float = 0.0            # affine reshaping of the shared signal
    scale: float = 1.0
    relation_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0 or self.noise_sigma < 0 or self.relation_noise_sigma < 0:
            raise ValueError("amplitude and noise sigmas must be nonnegative")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class DriftSegment:
    """One fault episode; hours are offsets from the scenario start."""

    start_hour: int
    end_hour: int
    mode: str           # "gain_ramp" | "offset_ramp" | "flatline"
    target: float = 0.0

    def __post_init__(self):
        if self.mode not in ("gain_ramp", "offset_ramp", "flatline"):
            raise ValueError(f"unknown drift mode {self.mode!r}")
        if self.end_hour <= self.start_hour:
            raise ValueError("drift segment must span at least one hour")
        if self.mode == "gain_ramp" and not self.target > 0:
            raise ValueError(f"a gain_ramp target must be positive, got {self.target}")


@dataclass(frozen=True)
class SensorModel:
    """Measurement model: true = offset + gain * reading + noise.

    The emitted reading is (true - offset - noise) / gain, so a sensor
    whose gain parameter ramps to 2 reads half the true signal. Drift
    ramps are linear in the effective parameters; flatline holds the
    emitted reading at its last pre-fault value.
    """

    offset: float = 0.0
    gain: float = 1.0
    noise_sigma: float = 0.0
    drift: tuple[DriftSegment, ...] = ()

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("deployment gain must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be nonnegative")
        object.__setattr__(self, "drift", tuple(self.drift))


@dataclass(frozen=True)
class SiteSpec:
    record: SiteRecord
    truth: TruthModel
    sensor: SensorModel | None = None   # None for reference sites

    def __post_init__(self):
        if self.record.role == ROLE_LOW_COST and self.sensor is None:
            raise ValueError(f"low-cost site {self.record.site_id} needs a sensor model")
        if self.record.role == ROLE_REFERENCE and self.sensor is not None:
            raise ValueError(f"reference site {self.record.site_id} takes no sensor model: "
                             "its readings are its truth plus the reference noise")


@dataclass(frozen=True)
class Scenario:
    seed: int
    start_hour: int
    duration_hours: int
    sites: tuple[SiteSpec, ...] = ()
    regional_sigma: float = 1.0    # walk step, ppb/h
    regional_bound: float = 15.0   # reflection bound, ppb
    reference_noise_sigma: float = 1.0

    def __post_init__(self):
        if self.duration_hours <= 0:
            raise ValueError("duration must be positive")
        if self.start_hour + self.duration_hours - 1 > HOUR_MAX:
            raise ValueError(f"the scenario's hours run past {format_iso_hour(HOUR_MAX)}, "
                             "the last hour that a timestamp names")
        check_site_ids([s.record for s in self.sites])
        ids = [s.record.site_id for s in self.sites]
        if len(ids) != len(set(ids)):
            raise ValueError("site ids must be unique")
        object.__setattr__(self, "sites", tuple(self.sites))

    def to_dict(self) -> dict:
        """The JSON document from_dict reads: the fields, with `start` as an
        ISO hour, the walk under `regional`, and each site flat."""
        data = json.loads(json.dumps(dataclasses.asdict(self)))     # tuples as lists
        data["start"] = format_iso_hour(data.pop("start_hour"))
        data["regional"] = {"sigma": data.pop("regional_sigma"),
                            "bound": data.pop("regional_bound")}
        data["sites"] = [{**site["record"], "truth": site["truth"], "sensor": site["sensor"]}
                         for site in data["sites"]]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario a document in to_dict's layout describes; a key that
        is no field, a missing field or a field of the wrong JSON kind is a
        ValueError that names it."""
        top = dict(json_value(data, dict, "scenario"))
        for key in top.keys() & {"start_hour", "regional_sigma", "regional_bound"}:
            raise ValueError(f"'scenario.{key}' is not a field")     # set from the layout
        sites = tuple(_site_spec(raw, f"sites[{i}]") for i, raw in enumerate(
            json_value(top.pop("sites", None), list, "'sites'")))
        for key, value in json_value(top.pop("regional", {}), dict, "'regional'").items():
            if key not in ("sigma", "bound"):
                raise ValueError(f"'regional.{key}' is not a field")
            top[f"regional_{key}"] = json_value(value, float, f"'regional.{key}'")
        top["start_hour"] = parse_iso_hour(
            json_value(top.pop("start", None), str, "'scenario.start'"))
        return dataclasses.replace(json_record(cls, top, "scenario"), sites=sites)

    def config_sha256(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _site_spec(raw, where: str) -> SiteSpec:
    """A site entry of the scenario layout: the SiteRecord fields (`name`
    defaulting to `site_id`) beside the site's `truth` and `sensor`."""
    record = dict(json_value(raw, dict, f"'{where}'"))
    truth, sensor = record.pop("truth", None), record.pop("sensor", None)
    record.setdefault("name", record.get("site_id"))
    return SiteSpec(
        json_record(SiteRecord, record, where),
        json_record(TruthModel, json_value(truth, dict, f"'{where}.truth'"), f"{where}.truth"),
        None if sensor is None else json_record(
            SensorModel, json_value(sensor, dict, f"'{where}.sensor'"), f"{where}.sensor"))


def generate_regional(scenario: Scenario) -> np.ndarray:
    """Shared bounded random walk, reflecting at +/- regional_bound."""
    steps = normals(substream_seed(scenario.seed, _STREAM_REGIONAL),
                    scenario.duration_hours) * scenario.regional_sigma
    bound = scenario.regional_bound
    walk = np.empty(scenario.duration_hours)
    x = 0.0
    for i, s in enumerate(steps):
        x += s
        # fold back into [-bound, bound]
        if x > bound:
            x = 2 * bound - x
        if x < -bound:
            x = -2 * bound - x
        walk[i] = x
    return walk


def generate_truth(model: TruthModel, duration_hours: int, seed: int, *,
                   start_hour: int = 0, regional: np.ndarray | None = None,
                   site_id: str = "truth") -> TimeSeries:
    """Hourly true concentrations; nonnegative by construction."""
    hours = np.arange(start_hour, start_hour + duration_hours, dtype=np.int64)
    hod = hours % 24
    diurnal = model.amplitude * np.sin(2.0 * np.pi * (hod - model.phase_hours) / 24.0)
    shared = model.baseline + diurnal
    if regional is not None:
        shared = shared + model.regional_weight * regional
    x = model.shift + model.scale * shared
    if model.relation_noise_sigma > 0:
        x = x + normals(substream_seed(seed, _STREAM_RELATION), duration_hours) \
            * model.relation_noise_sigma
    if model.noise_sigma > 0:
        x = x + normals(substream_seed(seed, _STREAM_TRUTH), duration_hours) \
            * model.noise_sigma
    return TimeSeries(site_id, hours, np.clip(x, 0.0, VALUE_MAX))


def apply_sensor_model(truth: TimeSeries, model: SensorModel, seed: int, *,
                       start_hour: int | None = None) -> TimeSeries:
    """Emit the sensor's readings for a given truth series.

    Effective offset/gain follow the drift schedule (linear ramps between
    segment endpoints, holding after); flatline segments freeze the emitted
    reading at its last pre-segment value, modelling a blocked inlet (a run
    from the first hour holds that hour's reading).
    """
    if start_hour is None:
        start_hour = int(truth.hours[0]) if len(truth) else 0
    n = len(truth)
    rel = truth.hours - start_hour

    # by ramp mode: the parameter's current target, and its value per hour
    target = {"offset_ramp": float(model.offset), "gain_ramp": float(model.gain)}
    eff = {mode: np.full(n, value) for mode, value in target.items()}
    flat_mask = np.zeros(n, dtype=bool)
    for seg in sorted(model.drift, key=lambda s: s.start_hour):
        if seg.mode == "flatline":
            flat_mask |= (rel >= seg.start_hour) & (rel <= seg.end_hour)
            continue
        frac = np.clip((rel - seg.start_hour) / (seg.end_hour - seg.start_hour), 0.0, 1.0)
        cur = target[seg.mode]
        # the ramp, then its target held from rel > end_hour on
        eff[seg.mode] = np.where(rel >= seg.start_hour, cur + (seg.target - cur) * frac,
                                 eff[seg.mode])
        target[seg.mode] = seg.target
    if not (eff["gain_ramp"] > 0).all():
        # a target far below the gain before it can round the ramp's end to 0
        raise ValueError(f"{truth.site_id}: a gain_ramp takes the gain to "
                         f"{float(eff['gain_ramp'].min())!r}; it must stay > 0")

    noise = np.zeros(n)
    if model.noise_sigma > 0:
        noise = normals(substream_seed(seed, _STREAM_SENSOR), n) * model.noise_sigma
    readings = (truth.values - eff["offset_ramp"] - noise) / eff["gain_ramp"]
    # each flat hour reads the last hour before its run (hour 0 for a run from 0)
    readings = readings[np.maximum.accumulate(np.where(flat_mask, 0, np.arange(n)))]
    return TimeSeries(truth.site_id, truth.hours.copy(), np.clip(readings, VALUE_MIN, VALUE_MAX))


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    truth: dict = field(repr=False)      # site_id -> TimeSeries (ground truth)
    observed: dict = field(repr=False)   # site_id -> TimeSeries (what the network reports)
    manifest: dict = field(repr=False)

    @property
    def records(self) -> list[SiteRecord]:
        return [s.record for s in self.scenario.sites]


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Generate the full deterministic dataset for a scenario.

    Reference sites report their truth plus reference noise; low-cost
    sites report through their sensor model.
    """
    regional = generate_regional(scenario)
    truth = {}
    observed = {}
    for k, spec in enumerate(scenario.sites):
        sid = spec.record.site_id
        x = generate_truth(spec.truth, scenario.duration_hours,
                           substream_seed(scenario.seed, _STREAM_TRUTH + k),
                           start_hour=scenario.start_hour, regional=regional,
                           site_id=sid)
        truth[sid] = x
        if spec.record.role == ROLE_REFERENCE:
            noise = np.zeros(len(x))
            if scenario.reference_noise_sigma > 0:
                noise = normals(substream_seed(scenario.seed, _STREAM_REFERENCE + k),
                                len(x)) * scenario.reference_noise_sigma
            observed[sid] = TimeSeries(sid, x.hours.copy(),
                                       np.clip(x.values + noise, VALUE_MIN, VALUE_MAX))
        else:
            observed[sid] = apply_sensor_model(
                x, spec.sensor, substream_seed(scenario.seed, _STREAM_SENSOR + k),
                start_hour=scenario.start_hour)
    manifest = {
        "generator": GENERATOR_NAME,
        "seed": scenario.seed,
        "config_sha256": scenario.config_sha256(),
        "start": format_iso_hour(scenario.start_hour),
        "duration_hours": scenario.duration_hours,
        "n_sites": len(scenario.sites),
    }
    return ScenarioResult(scenario, truth, observed, manifest)
