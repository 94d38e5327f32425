"""File formats and the command-line pipeline."""

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ozonet import DriftSegment, Scenario, SensorModel, SiteRecord, Thresholds, TimeSeries
from ozonet.alarms import HistoryRow
from ozonet.cli import main
from ozonet.errors import ConfigError
from ozonet.metrics import idw_grid
from ozonet.proxy import ProxyScore
from ozonet.svgout import heatmap_svg, proxy_eval_svg
from ozonet.timeseries import format_iso_hour
from ozonet.io import (
    CHART_HEADER,
    NetworkConfig,
    ProxyPolicy,
    atomic_write,
    load_network_config,
    read_series_csv,
    save_network_config,
    scan_series_csv,
    write_chart_csv,
    write_corrected_csv,
    write_series_csv,
)
from netsim_cases import pair_scenario


def hourly(site, start, values):
    return TimeSeries(site, np.arange(start, start + len(values), dtype=np.int64),
                      np.asarray(values, dtype=float))


def write_rows(path, rows, header="timestamp,site_id,value_ppb"):
    path.write_text("\n".join([header] + rows) + "\n")


@pytest.fixture
def sim_dir(tmp_path):
    """A simulated two-site dataset laid out by the simulate command."""
    scenario = pair_scenario(duration_hours=24 * 30)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario.to_dict()))
    out = tmp_path / "sim"
    assert main(["simulate", str(scenario_path), "--out", str(out)]) == 0
    return out


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        series = {"b": hourly("b", 5, [1.5, 2.25]), "a": hourly("a", 3, [30.0])}
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        back = read_series_csv(path)
        assert set(back) == {"a", "b"}
        assert np.array_equal(back["b"].hours, series["b"].hours)
        np.testing.assert_allclose(back["b"].values, series["b"].values, atol=1e-4)

    def test_rows_sorted_by_site_then_time(self, tmp_path):
        series = {"b": hourly("b", 5, [1.0, 2.0]), "a": hourly("a", 9, [3.0])}
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        rows = path.read_text().strip().splitlines()[1:]
        sites = [r.split(",")[1] for r in rows]
        assert sites == sorted(sites)

    @settings(deadline=None, max_examples=100)
    @given(st.dictionaries(st.text(max_size=6), st.lists(
        st.floats(-10.0, 500.0, allow_nan=False), max_size=4), max_size=4))
    @example({"a,b": [1.0, 2.5], 'say "hi"': [3.0], "plain": [], "": [4.0]})
    def test_bytes_equal_csv_writer(self, tmp_path_factory, values):
        series = {site: hourly(site, 400_000 + 7 * i, v)
                  for i, (site, v) in enumerate(values.items())}
        lines = [[format_iso_hour(int(h)), site, f"{v:.4f}"]
                 for site in sorted(series)
                 for h, v in zip(series[site].hours, series[site].values.tolist())]
        path = tmp_path_factory.mktemp("series") / "series.csv"
        write_series_csv(path, series)
        assert path.read_bytes() == _csv_writer_bytes(
            ["timestamp", "site_id", "value_ppb"], lines)

    def test_duplicate_reports_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_rows(path, [
            "2018-01-01T00:00:00Z,a,10.0",
            "2018-01-01T01:00:00Z,a,11.0",
            "2018-01-01T00:00:00Z,a,12.0",
        ])
        _, report = scan_series_csv(path)
        assert not report.ok
        message = str(report.issues[0])
        assert ":4" in message and ":2" in message     # both line numbers named

    def test_non_utc_timestamp_rejected(self, tmp_path):
        path = tmp_path / "tz.csv"
        write_rows(path, ["2018-01-01T00:00:00+02:00,a,10.0"])
        _, report = scan_series_csv(path)
        assert not report.ok
        assert report.issues[0].column == "timestamp"

    def test_unaligned_timestamp_rejected(self, tmp_path):
        path = tmp_path / "align.csv"
        write_rows(path, ["2018-01-01T00:30:00Z,a,10.0"])
        _, report = scan_series_csv(path)
        assert not report.ok

    def test_repeated_stamps_parse_alike_and_bad_ones_report_every_line(self, tmp_path):
        path = tmp_path / "repeat.csv"
        write_rows(path, [
            "2018-01-01T00:00:00Z,a,10.0",
            "2018-01-01T00:30:00Z,a,11.0",
            "2018-01-01T00:00:00Z,b,12.0",
            "2018-01-01T00:30:00Z,b,13.0",
        ])
        series, report = scan_series_csv(path)
        assert [(i.line, i.column) for i in report.issues] == [(3, "timestamp"), (5, "timestamp")]
        assert str(report.issues[0]).split("] ")[1] == str(report.issues[1]).split("] ")[1]
        assert series["a"].hours.tolist() == series["b"].hours.tolist() == [420768]

    def test_bad_value_and_range(self, tmp_path):
        path = tmp_path / "val.csv"
        write_rows(path, [
            "2018-01-01T00:00:00Z,a,forty",
            "2018-01-01T01:00:00Z,a,9000",
        ])
        _, report = scan_series_csv(path)
        assert len(report.issues) == 2
        assert all(i.column == "value_ppb" for i in report.issues)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        write_rows(path, ["2018-01-01T00:00:00Z,a,10.0"], header="time,site,value")
        _, report = scan_series_csv(path)
        assert not report.ok

    def test_strict_reader_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_rows(path, ["not-a-time,a,10.0"])
        with pytest.raises(ConfigError):
            read_series_csv(path)


_stat_values = (st.none() | st.floats()
                | st.sampled_from([-0.0, 5e-324, 1e-310, -1e-7, 123456.5, 1e300, -1e300]))
_flag_values = st.none() | st.booleans()
_history_rows = st.builds(
    lambda head, flags, alarms, reading: HistoryRow(*head, *flags, *alarms, *reading),
    st.tuples(st.integers(0, 10**6), st.sampled_from(["ok", "insufficient", "degenerate"]),
              *[_stat_values] * 5),
    st.tuples(*[_flag_values] * 3),
    st.tuples(*[st.booleans()] * 4),
    # a reading and its output are present together, as the engine gives them
    st.just((None, None)) | st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)))


def _csv_writer_bytes(header, lines):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(lines)
    return out.getvalue().encode()


class TestResultWriters:
    """The chart and corrected files against csv.writer with per-field formats."""

    @settings(deadline=None, max_examples=150)
    @given(st.lists(_history_rows, max_size=30), st.booleans())
    @example([], False)
    @example([], True)
    def test_bytes_equal_csv_writer(self, tmp_path_factory, rows, as_generator):
        def stat(v):
            return "" if v is None else f"{v:.6g}"

        def flag(v):
            return "" if v is None else str(int(v))

        chart = [[format_iso_hour(r.stamp), stat(r.p_ks), stat(r.offset_raw), stat(r.gain_raw),
                  stat(r.offset_trend), stat(r.gain_trend), flag(r.breach_ks),
                  flag(r.breach_offset), flag(r.breach_gain), flag(r.alarm_ks),
                  flag(r.alarm_offset), flag(r.alarm_gain), flag(r.corrected),
                  stat(r.raw_value), stat(r.output_value)] for r in rows]
        corrected = [[format_iso_hour(r.stamp), f"{r.raw_value:.4f}", f"{r.output_value:.4f}",
                      str(int(r.corrected))] for r in rows if r.raw_value is not None]
        out = tmp_path_factory.mktemp("writers")
        for write, lines, header in ((write_chart_csv, chart, CHART_HEADER),
                                     (write_corrected_csv, corrected,
                                      ["timestamp", "raw", "output", "corrected_flag"])):
            write(out / "site.csv", (r for r in rows) if as_generator else rows)
            assert (out / "site.csv").read_bytes() == _csv_writer_bytes(header, lines)


class TestAtomicWrites:
    def test_failed_chart_write_leaves_old_file_and_no_temporary(self, tmp_path):
        def row(stamp):
            return HistoryRow(stamp, "insufficient", None, None, None, None, None,
                              None, None, None, False, False, False, False, 30.0, 30.0)

        path = tmp_path / "charts" / "LC.csv"
        write_chart_csv(path, [row(h) for h in range(3)])
        before = path.read_bytes()

        def rows():
            # enough rows that the writer flushes some to disk before failing
            yield from (row(h) for h in range(5000))
            raise RuntimeError("engine failed mid-span")

        with pytest.raises(RuntimeError):
            write_chart_csv(path, rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["LC.csv"]

    @pytest.mark.parametrize("draw", ["proxy_eval", "heatmap"])
    def test_failed_svg_write_leaves_old_file_and_no_temporary(self, tmp_path, draw):
        grid = idw_grid([(34.0, -118.0, 30.0), (34.1, -118.1, 40.0)],
                        33.95, 34.15, -118.15, -117.95, cell_deg=0.05)
        path = tmp_path / "figs" / "out.svg"

        def write(label):
            if draw == "heatmap":
                heatmap_svg([(label, grid)], path)
            else:
                proxy_eval_svg([ProxyScore(label, "nearest", 0.1, 0.2, 0.3, 0.0, 1.5,
                                           None, 100)], path)

        write("R1")
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails part way
        with pytest.raises(UnicodeEncodeError):
            write("R\udc801")
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.svg"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ZeroDivisionError):
            with atomic_write(tmp_path / "new.csv") as handle:
                handle.write("partial\n")
                1 / 0
        assert list(tmp_path.iterdir()) == []


class TestNetworkConfig:
    def make_config(self):
        sites = [SiteRecord("R1", "ref one", "reference", 34.0, -118.0),
                 SiteRecord("S1", "sensor one", "low-cost", 34.1, -118.1)]
        return NetworkConfig(sites=sites, thresholds=Thresholds(),
                             proxy=ProxyPolicy(overrides={"S1": "R1"}),
                             series=["observed.csv"], output_dir="out")

    def test_round_trip_preserves_thresholds_exactly(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "network.json"
        save_network_config(config, path)
        back = load_network_config(path)
        assert back.thresholds == config.thresholds
        assert back.sites == config.sites
        assert back.proxy == config.proxy

    def test_unknown_override_site_rejected(self):
        sites = [SiteRecord("R1", "r", "reference", 0, 0)]
        with pytest.raises(ConfigError, match="unknown"):
            NetworkConfig(sites=sites, proxy=ProxyPolicy(overrides={"ghost": "R1"}))

    def test_self_proxy_rejected(self):
        sites = [SiteRecord("R1", "r", "reference", 0, 0)]
        with pytest.raises(ConfigError, match="own proxy"):
            NetworkConfig(sites=sites, proxy=ProxyPolicy(overrides={"R1": "R1"}))

    def test_duplicate_sites_rejected(self):
        sites = [SiteRecord("R1", "r", "reference", 0, 0),
                 SiteRecord("R1", "r2", "reference", 1, 1)]
        with pytest.raises(ConfigError, match="unique"):
            NetworkConfig(sites=sites)

    def test_unknown_strategy_rejected(self):
        sites = [SiteRecord("R1", "r", "reference", 0, 0)]
        with pytest.raises(ConfigError, match="strategy"):
            NetworkConfig(sites=sites, proxy=ProxyPolicy(strategy="psychic"))

    def test_bad_json_reports_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_network_config(path)

    @pytest.mark.parametrize("change, message", [
        ({"sites": None}, "'sites' is missing"),
        ({"proxy": {"overrides": [1]}}, "'proxy.overrides' must be a JSON object, got list"),
        ({"series": "obs.csv"}, "'series' must be a JSON array, got str"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_bad_shape_is_input_error(self, sim_dir, capsys, change, message, command):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        for key, value in change.items():
            if value is None:
                del config[key]
            else:
                config[key] = value
        network.write_text(json.dumps(config))
        assert main([command, str(network)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad configuration: {message}\n"


    @pytest.mark.parametrize("section, name, value, message", [
        ("proxy", "median_min_reporters", "3",
         "'proxy.median_min_reporters' must be a JSON integer, got str"),
        ("proxy", "median_exclude_self", "no",
         "'proxy.median_exclude_self' must be a JSON boolean, got str"),
        ("thresholds", "td_hours", 24.5, "'thresholds.td_hours' must be a JSON integer, got float"),
        ("thresholds", "tf_hours", True, "'thresholds.tf_hours' must be a JSON integer, got bool"),
        ("thresholds", "p_ks_min", False, "'thresholds.p_ks_min' must be a JSON number, got bool"),
        ("sites", "latitude", "34.0", "'sites[0].latitude' must be a JSON number, got str"),
        ("sites", "name", None, "'sites[0].name' must be a JSON string, got NoneType"),
        # 4 latched alarms can never happen with 3 tests; p_ks_min 1.5 breaches
        # every hour and -1 none
        ("thresholds", "correction_alarm_count", 4,
         "correction_alarm_count must be between 1 and 3"),
        ("thresholds", "p_ks_min", 1.5, "p_ks_min must be in (0, 1)"),
        ("thresholds", "p_ks_min", -1, "p_ks_min must be in (0, 1)"),
        # a moment-matched gain is never negative, so -1 never breaches
        ("thresholds", "gain_low", -1.0, "gain_low must be nonnegative"),
    ])
    def test_bad_field_type_is_input_error(self, sim_dir, capsys, section, name, value,
                                           message):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        if section == "proxy":
            config["proxy"]["strategy"] = "network_median"
        target = config["sites"][0] if section == "sites" else config[section]
        target[name] = value
        network.write_text(json.dumps(config))
        assert main(["run", str(network), "--out", str(sim_dir / "out")]) == 1
        assert capsys.readouterr().err == f"error: bad configuration: {message}\n"
        assert not (sim_dir / "out").exists()

    def test_whole_numbers_and_nulls_are_accepted(self):
        data = self.make_config().to_dict()
        data["thresholds"].update(td_hours=48.0, offset_high=4)
        data["sites"][0].update(latitude=34, elevation_m=None, land_use=None)
        config = NetworkConfig.from_dict(data)
        assert type(config.thresholds.td_hours) is int and config.thresholds.td_hours == 48
        assert config.thresholds.offset_high == 4
        assert config.sites[0].latitude == 34 and config.sites[0].elevation_m is None

    @pytest.mark.parametrize("path, message", [
        (("treshold",), "'treshold' is not a field"),
        (("thresholds", "td_hour"), "'thresholds.td_hour' is not a field"),
        (("proxy", "strategie"), "'proxy.strategie' is not a field"),
        (("sites", 1, "lat"), "'sites[1].lat' is not a field"),
    ], ids=["top", "thresholds", "proxy", "site"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_key_is_input_error(self, sim_dir, capsys, path, message, command):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 1
        network.write_text(json.dumps(config))
        assert main([command, str(network), "--out", str(sim_dir / "out")]
                    if command == "run" else [command, str(network)]) == 1
        assert capsys.readouterr().err == f"error: bad configuration: {message}\n"
        assert not (sim_dir / "out").exists()


def readme_json_examples() -> list:
    """The JSON documents of README.md's code blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def test_readme_examples_load():
    config, scenario = readme_json_examples()
    network = NetworkConfig.from_dict(config)
    assert network.thresholds == Thresholds()
    assert network.proxy.overrides == {"S01": "R01"}
    assert network.sites[1].elevation_m is None
    spec = Scenario.from_dict(scenario)
    assert [s.record.name for s in spec.sites] == ["R01", "S01"]
    assert spec.sites[0].sensor is None
    assert spec.sites[1].sensor.drift == (DriftSegment(1080, 2640, "gain_ramp", 2.0),)
    assert (spec.regional_sigma, spec.regional_bound) == (0.5, 6.0)
    assert Scenario.from_dict(spec.to_dict()) == spec


def test_readme_lists_the_public_names():
    import ozonet

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("The package exports these names")
    listed = re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)])
    assert sorted(set(listed)) == sorted(ozonet.__all__)


class TestSimulateCommand:
    def test_outputs_and_validation_round_trip(self, sim_dir):
        assert (sim_dir / "observed.csv").exists()
        assert (sim_dir / "truth.csv").exists()
        assert (sim_dir / "manifest.json").exists()
        network = sim_dir / "network.json"
        assert network.exists()
        # the generated dataset passes validation as-is
        assert main(["validate", str(network)]) == 0

    def test_manifest_contents(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["generator"].startswith("splitmix64")
        assert len(manifest["config_sha256"]) == 64

    def test_byte_identical_reruns(self, tmp_path):
        scenario = pair_scenario(duration_hours=24 * 10)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario.to_dict()))
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["simulate", str(spath), "--out", str(out)]) == 0
            outs.append((out / "observed.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_scenario_is_input_error(self, tmp_path):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"seed": 1}))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("payload, what", [
        ([1, 2], "scenario must be a JSON object, got list"),
        ("text", "scenario must be a JSON object, got str"),
        ({"seed": 1, "sites": [[1]]}, "'sites[0]' must be a JSON object, got list"),
        ({"seed": 1, "sites": [{"site_id": "REF", "role": "reference", "latitude": 34.0,
                                "longitude": -117.0,
                                "truth": {"baseline": 30.0, "amplitude": 9.0}}, 1]},
         "'sites[1]' must be a JSON object, got int"),
        ({"seed": 1, "sites": [{"site_id": "LC", "role": "low-cost", "latitude": 34.0,
                                "longitude": -117.0,
                                "truth": {"baseline": 30.0, "amplitude": 9.0},
                                "sensor": [1.0, 0.0]}]},
         "'sites[0].sensor' must be a JSON object, got list"),
    ], ids=["payload0-scenario", "text-scenario", "payload2-site", "payload3-site",
            "payload4-sensor"])
    def test_scenario_that_is_not_an_object_is_input_error(self, tmp_path, capsys,
                                                           payload, what):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad scenario {spath}: {what}\n"

    @pytest.mark.parametrize("path, value, message", [
        (("seed",), "1", "'scenario.seed' must be a JSON integer, got str"),
        (("duration_hours",), 24.5, "'scenario.duration_hours' must be a JSON integer, got float"),
        (("sites", 0, "truth", "baseline"), "30",
         "'sites[0].truth.baseline' must be a JSON number, got str"),
        (("seed",), True, "'scenario.seed' must be a JSON integer, got bool"),
    ], ids=["seed-string", "duration-fraction", "baseline-string", "seed-bool"])
    def test_bad_field_type_is_input_error(self, tmp_path, capsys, path, value, message):
        payload = pair_scenario(duration_hours=24 * 4).to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: bad scenario {spath}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, message", [
        (("reference_nois_sigma",), 1.0, "'scenario.reference_nois_sigma' is not a field"),
        (("regional_sigma",), 1.0, "'scenario.regional_sigma' is not a field"),
        (("regional", "sigm"), 1.0, "'regional.sigm' is not a field"),
        (("sites", 1, "lat"), 1.0, "'sites[1].lat' is not a field"),
        (("sites", 1, "truth", "noise_sigm"), 1.0, "'sites[1].truth.noise_sigm' is not a field"),
        (("sites", 1, "sensor", "noise_sigm"), 1.0,
         "'sites[1].sensor.noise_sigm' is not a field"),
        (("sites", 1, "sensor", "drift", 0, "targt"), 1.0,
         "'sites[1].sensor.drift[0].targt' is not a field"),
        (("start",), None, "'scenario.start' must be a JSON string, got NoneType"),
        (("seed",), None, "'scenario.seed' is missing"),
        (("sites", 0, "latitude"), None, "'sites[0].latitude' is missing"),
        (("sites", 1, "sensor", "drift", 0, "mode"), None,
         "'sites[1].sensor.drift[0].mode' is missing"),
    ], ids=["top", "top-field-name", "regional", "site", "truth", "sensor", "drift-segment",
            "no-start", "no-seed", "no-latitude", "no-drift-mode"])
    def test_unknown_or_missing_key_is_input_error(self, tmp_path, capsys, path, value,
                                                   message):
        # value None: the key is deleted
        payload = pair_scenario(SensorModel(drift=(DriftSegment(24, 48, "gain_ramp", 1.5),)),
                                duration_hours=24 * 4).to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: bad scenario {spath}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_whole_numbers_are_accepted(self, tmp_path):
        outs = []
        for name, duration in (("int", 96), ("float", 96.0)):
            payload = pair_scenario(duration_hours=24 * 4).to_dict()
            payload["duration_hours"] = duration
            spath = tmp_path / f"{name}.json"
            spath.write_text(json.dumps(payload))
            assert main(["simulate", str(spath), "--out", str(tmp_path / name)]) == 0
            outs.append([(tmp_path / name / f).read_bytes()
                         for f in ("observed.csv", "truth.csv", "manifest.json")])
        assert outs[0] == outs[1]


class TestValidateCommand:
    def test_duplicate_fails(self, sim_dir, capsys):
        observed = sim_dir / "observed.csv"
        lines = observed.read_text().strip().splitlines()
        lines.append(lines[1])
        observed.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(sim_dir / "network.json")]) == 1
        assert "duplicate" in capsys.readouterr().out

    def test_unconfigured_site_flagged(self, sim_dir, capsys):
        observed = sim_dir / "observed.csv"
        with open(observed, "a") as handle:
            handle.write("2018-01-26T00:00:00Z,GHOST,10.0\n")
        assert main(["validate", str(sim_dir / "network.json")]) == 1
        assert "GHOST" in capsys.readouterr().out


class TestRunCommand:
    def test_run_writes_expected_outputs(self, sim_dir):
        out = sim_dir / "run_out"
        assert main(["run", str(sim_dir / "network.json"), "--out", str(out)]) == 0
        corrected = out / "corrected" / "LC.csv"
        chart = out / "charts" / "LC.csv"
        assert corrected.exists() and chart.exists()
        with open(chart) as handle:
            header = next(csv.reader(handle))
        assert header == CHART_HEADER
        with open(corrected) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["timestamp", "raw", "output", "corrected_flag"]
        assert len(rows) > 24 * 25
        assert (out / "summary.csv").exists()

    def test_rerun_is_byte_identical(self, sim_dir):
        paths = []
        for name in ("ra", "rb"):
            out = sim_dir / name
            assert main(["run", str(sim_dir / "network.json"), "--out", str(out)]) == 0
            paths.append(out)
        for rel in ("corrected/LC.csv", "charts/LC.csv", "summary.csv"):
            assert (paths[0] / rel).read_bytes() == (paths[1] / rel).read_bytes()

    def test_threshold_flags_accepted(self, sim_dir):
        out = sim_dir / "flags"
        assert main(["run", str(sim_dir / "network.json"), "--out", str(out),
                     "--td-hours", "48", "--tf-hours", "72",
                     "--alarm-count", "2", "--completeness-min", "0.5"]) == 0

    def test_summary_quotes_site_id_with_comma(self, sim_dir):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        extra = dict(config["sites"][-1], site_id="LC,east", name="lc east")
        config["sites"].append(extra)
        network.write_text(json.dumps(config))
        out = sim_dir / "comma"
        assert main(["run", str(network), "--out", str(out)]) == 0
        text = (out / "summary.csv").read_text()
        assert '\n"LC,east",-,0,' in text
        assert "\nLC,REF," in text          # plain ids stay unquoted
        with open(out / "summary.csv", newline="") as handle:
            rows = {r["site_id"]: r for r in csv.DictReader(handle)}
        assert rows["LC,east"]["note"] == "no sensor data"
        assert rows["LC"]["proxy"] == "REF"

    def test_env_var_output_dir(self, sim_dir, monkeypatch):
        target = sim_dir / "via_env"
        monkeypatch.setenv("OZONET_OUT_DIR", str(target))
        assert main(["run", str(sim_dir / "network.json")]) == 0
        assert (target / "summary.csv").exists()

    def test_missing_proxy_data_recorded_not_fatal(self, sim_dir, capsys):
        # strip the reference series so the proxy has no data at all
        observed = sim_dir / "observed.csv"
        header, *rows = observed.read_text().strip().splitlines()
        rows = [r for r in rows if ",LC," in r]
        observed.write_text("\n".join([header] + rows) + "\n")
        out = sim_dir / "nofeed"
        code = main(["run", str(sim_dir / "network.json"), "--out", str(out)])
        assert code == 2            # the only site failed, so the run failed
        assert "no proxy data" in capsys.readouterr().out


    def test_explicit_strategy_uses_overrides_only(self, sim_dir, capsys):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        config["proxy"] = {"strategy": "explicit", "overrides": {}}
        network.write_text(json.dumps(config))
        out = sim_dir / "explicit"
        code = main(["run", str(network), "--out", str(out)])
        assert code == 2            # the only site has no override, so nothing ran
        assert "error: no site could be monitored" in capsys.readouterr().err
        with open(out / "summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["site_id"], r["proxy"], r["monitored_hours"]) for r in rows] == [
            ("LC", "-", "0")]
        assert "no proxy override" in rows[0]["note"]
        assert not (out / "charts").exists()

        # with the override in place the same site runs against it
        config["proxy"]["overrides"] = {"LC": "REF"}
        network.write_text(json.dumps(config))
        assert main(["run", str(network), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["proxy"] == "REF" and rows[0]["note"] == ""


class TestProxyEvalCommand:
    def test_row_count_matches_applicable_strategies(self, tmp_path):
        # two references with data and no AADT anywhere: nearest + median
        # apply at both references, the traffic strategy at neither
        from netsim_cases import monitor_network

        scenario = monitor_network(False, duration_hours=24 * 45)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario.to_dict()))
        out = tmp_path / "sim"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["proxy-eval", str(out / "network.json"),
                     "--out", str(eval_out)]) == 0
        with open(eval_out / "proxy_scores.csv") as handle:
            rows = list(csv.DictReader(handle))
        refs = 5
        assert len(rows) == refs * 2
        assert (eval_out / "proxy_eval.svg").exists()

    def test_needs_two_references(self, sim_dir):
        assert main(["proxy-eval", str(sim_dir / "network.json"),
                     "--out", str(sim_dir / "pe")]) == 1


class TestBadFlags:
    @pytest.mark.parametrize("command", ["run", "proxy-eval"])
    @pytest.mark.parametrize("flag", [["--td-hours", "-1"], ["--alarm-count", "0"],
                                      ["--alarm-count", "4"]])
    def test_bad_threshold_flag_is_input_error(self, sim_dir, capsys, command, flag):
        code = main([command, str(sim_dir / "network.json"),
                     "--out", str(sim_dir / "bad"), *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad threshold flag")
        assert "Traceback" not in err

    def test_nonpositive_map_cell_is_input_error(self, sim_dir, capsys):
        code = main(["map", str(sim_dir / "network.json"),
                     "--hour", "2018-01-27T12:00:00Z", "--cell", "0",
                     "--out", str(sim_dir / "badmap")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (sim_dir / "badmap" / "grid.csv").exists()


class TestMapCommand:
    def test_grid_and_svg_outputs(self, sim_dir):
        out = sim_dir / "map"
        hour = "2018-01-27T12:00:00Z"
        assert main(["map", str(sim_dir / "network.json"), "--hour", hour,
                     "--out", str(out), "--cell", "0.02", "--split"]) == 0
        assert (out / "grid.csv").exists()
        assert (out / "grid_reference.csv").exists()
        svg = (out / "map.svg").read_text()
        assert svg.startswith("<svg")
        with open(out / "grid.csv") as handle:
            rows = list(csv.DictReader(handle))
        values = [float(r["value_ppb"]) for r in rows]
        assert values, "grid must not be empty"

    def test_no_data_at_hour_is_input_error(self, sim_dir, capsys):
        assert main(["map", str(sim_dir / "network.json"),
                     "--hour", "1999-01-01T00:00:00Z",
                     "--out", str(sim_dir / "m2")]) == 1
        assert "no site reported" in capsys.readouterr().err

    def test_grid_bounded_by_site_values(self, sim_dir):
        from ozonet.timeseries import parse_iso_hour

        out = sim_dir / "map3"
        hour = "2018-01-27T12:00:00Z"
        assert main(["map", str(sim_dir / "network.json"), "--hour", hour,
                     "--out", str(out)]) == 0
        observed = read_series_csv(sim_dir / "observed.csv")
        site_values = [s.value_at(parse_iso_hour(hour)) for s in observed.values()]
        site_values = [v for v in site_values if v is not None]
        with open(out / "grid.csv") as handle:
            grid_values = [float(r["value_ppb"]) for r in csv.DictReader(handle)]
        assert min(grid_values) >= min(site_values) - 1e-6
        assert max(grid_values) <= max(site_values) + 1e-6
