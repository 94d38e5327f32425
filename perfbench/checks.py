"""Output checks for the benchmark. Each check is one operation; a check
that does not hold is one failed operation.

- Digests: for the recorded seed, the sha256 of every simulated series
  file, chart, corrected file, summary.csv and proxy_scores.csv must match
  the recorded bytes.
- Oracle, any seed: the simulator's ground truth says which sensors carry
  a fault. Faulty sensors must end up corrected: the last reading taken in
  an assessed hour (one with a p value) is corrected;
  clean sensors must never be corrected; a reference replayed through any
  proxy strategy must never be corrected.
- Stream against batch: every hour stepped through the streaming API must
  give the reading, output and corrected flag that `run` wrote for it.

None of this uses the program's code: files are read with the csv module
and compared as text.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

STRATEGIES = ("nearest", "network_median", "similar_aadt")


class Ops:
    """Operations attempted and failed, with the first few failures named."""

    MAX_PROBLEMS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < self.MAX_PROBLEMS:
                self.problems.append(what)
        return ok


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sim_files(sim_dir: Path) -> dict:
    return {f"sim/{name}": sim_dir / name for name in ("observed.csv", "truth.csv")}


def result_files(out_dir: Path, command: str | None = None) -> dict:
    """Files `run` and `proxy-eval` write; only those of `command` if given."""
    files = {}
    if command in (None, "run"):
        files["out/summary.csv"] = out_dir / "summary.csv"
        for sub in ("charts", "corrected"):
            for path in sorted((out_dir / sub).glob("*.csv")):
                files[f"out/{sub}/{path.name}"] = path
    if command in (None, "proxy-eval"):
        files["out/proxy_scores.csv"] = out_dir / "proxy_scores.csv"
    return files


def output_files(sim_dir: Path, out_dir: Path) -> dict:
    """Files whose bytes are pinned, keyed by a path relative to the run."""
    return {**sim_files(sim_dir), **result_files(out_dir)}


def digests(files: dict) -> dict:
    return {key: sha256(path) for key, path in files.items() if path.is_file()}


def check_digests(files: dict, expected: dict, ops: Ops):
    actual = digests(files)
    for key in sorted(set(expected) | set(actual)):
        ops.record(actual.get(key) == expected.get(key), f"digest of {key} differs")


def check_same_bytes(files_a: dict, files_b: dict, what: str, ops: Ops):
    """The two runs must have written the same files with the same bytes."""
    da, db = digests(files_a), digests(files_b)
    for key in sorted(set(da) | set(db)):
        ops.record(key in da and da.get(key) == db.get(key), f"{what}: {key} differs")


def _read_rows(path: Path) -> list:
    try:
        with open(path, newline="") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return []


def check_summary(out_dir: Path, faults: dict, ops: Ops):
    """Ground-truth oracle on summary.csv, one operation per sensor."""
    rows = {r.get("site_id"): r for r in _read_rows(out_dir / "summary.csv")}
    for site_id, fault in sorted(faults.items()):
        row = rows.get(site_id)
        try:
            frac = float(row["corrected_frac"])
            hours = int(row["monitored_hours"])
        except (TypeError, KeyError, ValueError):
            ops.record(False, f"summary.csv has no usable row for {site_id}")
            continue
        if fault is None:
            ops.record(hours > 0 and frac == 0.0,
                       f"clean sensor {site_id} corrected {frac:.4f} of {hours} h")
        else:
            chart = _read_rows(out_dir / "charts" / f"{site_id}.csv")
            assessed = [r for r in chart if r.get("p_ks") and r.get("raw_value")]
            ended = bool(assessed) and assessed[-1].get("corrected_flag") == "1"
            ops.record(hours > 0 and frac > 0.0 and ended,
                       f"{fault} sensor {site_id} not corrected at its last assessed "
                       f"reading ({frac:.4f} of {hours} h corrected)")


def check_proxy_scores(out_dir: Path, reference_ids: list, ops: Ops):
    """Every reference is scored under every strategy and never corrected."""
    rows = {(r.get("site_id"), r.get("strategy")): r
            for r in _read_rows(out_dir / "proxy_scores.csv")}
    for site_id in reference_ids:
        for strategy in STRATEGIES:
            row = rows.get((site_id, strategy))
            try:
                ok = float(row["corrected_frac"]) == 0.0 and int(row["monitored_hours"]) > 0
            except (TypeError, KeyError, ValueError):
                ok = False
            ops.record(ok, f"proxy score {site_id}/{strategy} missing or corrected")


def read_corrected(out_dir: Path, site_id: str) -> dict:
    """timestamp -> (raw, output, corrected_flag) as written by `run`."""
    return {r["timestamp"]: (r["raw"], r["output"], r["corrected_flag"])
            for r in _read_rows(out_dir / "corrected" / f"{site_id}.csv")}


def stream_row_matches(row, hour: int, stamp_text: str, expected: dict) -> bool:
    """One streamed history row against the batch run's corrected file."""
    if row.stamp != hour:
        return False
    if row.raw_value is None:
        return stamp_text not in expected
    return expected.get(stamp_text) == (f"{row.raw_value:.4f}", f"{row.output_value:.4f}",
                                        str(int(row.corrected)))
