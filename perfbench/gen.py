"""Workload inputs for the benchmark, made from a workload spec and a seed.

A spec (perfbench/workloads/<name>.json) fixes the network layout, the
fault schedule, the outage model and the proxy policy. The seed drives
everything random: the simulator's noise streams and regional walk, and
the outage blocks deleted after simulation. The same (spec, seed) always
yields the same bytes.

The program under test only ever sees the files written here and by its
own `simulate` command; the ground truth (which sensor carries which
fault) stays on the benchmark side for the oracle checks.
"""

from __future__ import annotations

import csv
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

STAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

# Layout: references on a grid REF_SPACING apart, each with its sensors
# clustered within a few km, so the nearest reference is the own cluster's.
REF_ORIGIN = (33.8, -118.2)
REF_SPACING = (0.25, 0.35)
REF_COLUMNS = 3
SENSOR_STEP = (0.01, 0.012)


def load_spec(name: str) -> dict:
    path = WORKLOAD_DIR / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"unknown workload {name!r}: no {path.name}")
    return json.loads(path.read_text())


def workload_names() -> list:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


def reference_ids(spec: dict) -> list:
    return [f"R{i:02d}" for i in range(spec["references"])]


def sensor_faults(spec: dict) -> dict:
    """Ground truth: sensor id -> fault mode, or None for a clean sensor.

    Sensor k carries fault_cycle[k % len(fault_cycle)].
    """
    cycle = spec["fault_cycle"]
    count = spec["references"] * spec["sensors_per_reference"]
    faults = {}
    for k in range(count):
        fault = cycle[k % len(cycle)]
        faults[f"S{k:03d}"] = None if fault is None else fault["mode"]
    return faults


def scenario(spec: dict, seed: int) -> dict:
    """Scenario document for `ozonet simulate`."""
    truth = dict(spec["truth"])
    cycle = spec["fault_cycle"]
    sites = []
    for i, rid in enumerate(reference_ids(spec)):
        lat = REF_ORIGIN[0] + REF_SPACING[0] * (i // REF_COLUMNS)
        lon = REF_ORIGIN[1] + REF_SPACING[1] * (i % REF_COLUMNS)
        sites.append({"site_id": rid, "name": f"ref-{i}", "role": "reference",
                      "latitude": round(lat, 6), "longitude": round(lon, 6),
                      "aadt_5km": 1000.0 * (i + 1), "truth": truth})
        for j in range(spec["sensors_per_reference"]):
            k = i * spec["sensors_per_reference"] + j
            fault = cycle[k % len(cycle)]
            drift = [] if fault is None else [{
                "start_hour": fault["start_hour"], "end_hour": fault["end_hour"],
                "mode": fault["mode"], "target": fault.get("target", 0.0)}]
            sites.append({
                "site_id": f"S{k:03d}", "name": f"lc-{k}", "role": "low-cost",
                "latitude": round(lat + SENSOR_STEP[0] * (1 + j % 3), 6),
                "longitude": round(lon + SENSOR_STEP[1] * (1 + j // 3), 6),
                "truth": truth,
                "sensor": {"noise_sigma": spec["sensor_noise_sigma"], "drift": drift},
            })
    return {
        "seed": seed,
        "start": spec["start"],
        "duration_hours": spec["duration_hours"],
        "regional": spec["regional"],
        "reference_noise_sigma": spec["reference_noise_sigma"],
        "sites": sites,
    }


def outage_offsets(spec: dict, seed: int, site_ids) -> dict:
    """Hour offsets deleted per site: whole blocks of min..max hours, drawn
    until at least `fraction` of the site's hours are gone. Empty when the
    spec has no outage model."""
    model = spec.get("outages")
    if not model:
        return {sid: set() for sid in site_ids}
    duration = spec["duration_hours"]
    target = round(model["fraction"] * duration)
    result = {}
    for sid in site_ids:
        rng = random.Random(f"outage:{seed}:{sid}")
        gone = set()
        while len(gone) < target:
            length = rng.randint(model["min_hours"], model["max_hours"])
            start = rng.randrange(0, duration - length + 1)
            gone.update(range(start, start + length))
        result[sid] = gone
    return result


def apply_outages(observed_csv: Path, spec: dict, seed: int) -> int:
    """Delete the outage hours from a simulated series file in place.

    Returns the number of rows deleted.
    """
    start = datetime.strptime(spec["start"], STAMP_FORMAT).replace(tzinfo=timezone.utc)
    with open(observed_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    site_ids = sorted({r[1] for r in body})
    offsets = outage_offsets(spec, seed, site_ids)
    doomed = {(sid, (start + timedelta(hours=h)).strftime(STAMP_FORMAT))
              for sid, hours in offsets.items() for h in hours}
    kept = [r for r in body if (r[1], r[0]) not in doomed]
    with open(observed_csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(kept)
    return len(body) - len(kept)


def rewrite_config(network_json: Path, spec: dict):
    """Pin the proxy policy the workload needs, so a later change of the
    program's defaults cannot alter the workload quietly."""
    config = json.loads(network_json.read_text())
    config["proxy"] = dict(config.get("proxy", {}), **spec["proxy"])
    network_json.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
