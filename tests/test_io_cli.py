"""File formats and the command-line pipeline."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ozonet import DriftSegment, Scenario, SensorModel, SiteRecord, Thresholds, TimeSeries
from ozonet.alarms import HistoryRow
from ozonet import cli
from ozonet.cli import main
from ozonet.errors import ConfigError
from ozonet.metrics import IDW_MAX_CELLS, GridField, idw_grid
from ozonet.proxy import ProxyScore
from ozonet.svgout import heatmap_svg, proxy_eval_svg
from ozonet.timeseries import format_iso_hour
from ozonet.io import (
    CHART_HEADER,
    NetworkConfig,
    ProxyPolicy,
    atomic_write,
    json_loads,
    load_network_config,
    read_series_csv,
    save_network_config,
    scan_series_csv,
    write_chart_csv,
    write_corrected_csv,
    write_grid_csv,
    write_proxy_scores_csv,
    write_series_csv,
    write_summary_csv,
)
from netsim_cases import pair_scenario
from series_reference import scan_series_csv as scan_series_csv_per_row


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


# Field texts for generated series files: good and bad stamps (other texts
# for the same hours among them), quoted and padded site ids, and numbers on,
# just beyond and far outside the value bounds.
_STAMPS = ["2018-01-01T00:00:00Z", "2018-01-01T01:00:00Z", "2018-01-01T02:00:00Z",
           " 2018-01-01T01:00:00Z ", "2018-1-1T2:00:00Z", "2018-01-01T00:30:00Z",
           "2018-01-01T00:00:00+02:00", "not-a-time", ""]
_SITES = ["a", "b", " a ", '" b"', '"x,y"', '"say ""hi"""', '"a\nb"', "", "  "]
_VALUES = ["1.5", " 42 ", "1e2", "-10", "500", "-10.000001", "500.000001", "forty", "",
           "nan", "inf", "-inf", "1_0", "１２"]
_OTHER_LINES = ["", "   ", "2018-01-01T00:00:00Z,a", "2018-01-01T00:00:00Z,a,1,2", "x"]
_HEADERS = ["timestamp,site_id,value_ppb", " timestamp , site_id ,value_ppb",
            "time,site,value", None]     # None: an empty file
_series_lines = st.lists(
    st.builds(",".join, st.tuples(*map(st.sampled_from, (_STAMPS, _SITES, _VALUES))))
    | st.sampled_from(_OTHER_LINES), max_size=12)
_series_files = st.tuples(
    st.sampled_from(_HEADERS[:2]) | st.sampled_from(_HEADERS), _series_lines,
    st.sampled_from(["\n", "\r\n"]))


def _series_text(header, lines, newline):
    return "" if header is None else newline.join([header, *lines]) + newline


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

    def test_a_record_that_spans_lines_is_numbered_by_its_first_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_rows(path, [
            '2018-01-01T00:00:00Z,"A\nB",1.0',       # lines 2 and 3
            "2018-01-01T01:00:00Z,C,abc",
            "2018-01-01T02:00:00Z,C,1.0",
            "2018-01-01T02:00:00Z,C,2.0",
        ])
        _, report = scan_series_csv(path)
        assert [str(issue) for issue in report.issues] == [
            f"{path}:4 [value_ppb] not a number: 'abc'",
            f"{path}:6 [timestamp] duplicate of {path}:5 (site C at 2018-01-01T02:00:00Z)",
        ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_a_bad_byte_is_numbered_as_every_other_issue(self, tmp_path, newline):
        # the bad value is on line 4, after a record on lines 2 and 3
        path = tmp_path / "s.csv"
        for value, column in ((b"\xff", "-"), (b"x", "value_ppb")):
            path.write_bytes(newline.join([
                b"timestamp,site_id,value_ppb", b'2018-01-01T00:00:00Z,"A' + newline + b'B",1.0',
                b"2018-01-01T01:00:00Z,C," + value, b""]))
            _, report = scan_series_csv(path)
            assert [(issue.line, issue.column) for issue in report.issues] == [(4, column)]

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

    # not shrunk: shrinking a failure of these files took minutes and
    # hundreds of MB, and the first failing example already names the fault
    @settings(deadline=None, max_examples=200,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    @given(st.lists(_series_files, min_size=2, max_size=2),
           st.sampled_from(["one", "two", "same"]))
    # the bounds are in range, the 3-field check is exact, and of a
    # duplicate (site, hour) within a file or across files the first is kept
    @example([("timestamp,site_id,value_ppb",
               ["2018-01-01T00:00:00Z,a,-10", "2018-01-01T01:00:00Z,a,500",
                "2018-01-01T02:00:00Z,a,-10.000001", "2018-01-01T02:00:00Z,a,500.000001",
                "2018-01-01T02:00:00Z,a,1,2", "2018-01-01T02:00:00Z,a", "",
                "2018-01-01T00:00:00Z,a,7", "2018-01-01T02:00:00Z,b,8"], "\n"),
              ("timestamp,site_id,value_ppb",
               ["2018-01-01T02:00:00Z,b,9", "2018-01-01T02:00:00Z,a,10"], "\r\n")], "two")
    def test_columnar_reader_equals_per_row_reader(self, tmp_path_factory, files, layout):
        folder = tmp_path_factory.mktemp("series")
        paths = []
        for k, spec in enumerate(files):
            path = folder / f"s{k}.csv"
            path.write_bytes(_series_text(*spec).encode())
            paths.append(path)
        paths = {"one": paths[:1], "two": paths, "same": [paths[0]] * 2}[layout]
        series, report = scan_series_csv(paths)
        want_series, want_report = scan_series_csv_per_row(paths)
        assert list(series) == list(want_series)
        for site, ts in series.items():
            assert ts.hours.tolist() == want_series[site].hours.tolist()
            assert ts.values.tolist() == want_series[site].values.tolist()
        assert report.coverage == want_report.coverage
        assert report.issues == want_report.issues

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


# Ids, strategies and notes with commas, with quotes and with neither; no
# control character, which no site id may hold.
_texts = st.text(st.sampled_from('ab ,"\'é'), max_size=6)


def _csv_writer_bytes(header, lines, lineterminator="\r\n"):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=lineterminator)
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

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(_texts, _texts, st.integers(0, 10**6),
                              *[st.floats(0, 1)] * 4, _texts), max_size=6))
    @example([])
    @example([("LC,east", "-", 0, 0.0, 0.0, 0.0, 0.0, "no sensor data"),
              ("LC", 'say "hi"', 12, 0.5, 0.25, 1.0, 0.125, "")])
    def test_summary_bytes_equal_csv_writer(self, tmp_path_factory, summary):
        # the oracle: csv.writer, its lines ending in "\n" as summary.csv's do
        lines = [[sid, proxy, hours, f"{ks:.4f}", f"{a0:.4f}", f"{a1:.4f}", f"{corr:.4f}", note]
                 for sid, proxy, hours, ks, a0, a1, corr, note in summary]
        path = tmp_path_factory.mktemp("summary") / "summary.csv"
        write_summary_csv(path, summary)
        assert path.read_bytes() == _csv_writer_bytes(
            ["site_id", "proxy", "monitored_hours", "alarm_frac_ks", "alarm_frac_a0",
             "alarm_frac_a1", "corrected_frac", "note"], lines, lineterminator="\n")

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.builds(ProxyScore, _texts, _texts, *[st.floats()] * 5,
                              st.none() | st.floats(), st.integers(0, 10**6)), max_size=6))
    @example([])
    def test_proxy_scores_bytes_equal_csv_writer(self, tmp_path_factory, scores):
        lines = [[s.site_id, s.strategy, f"{s.alarm_fraction_ks:.4f}",
                  f"{s.alarm_fraction_offset:.4f}", f"{s.alarm_fraction_gain:.4f}",
                  f"{s.corrected_fraction:.4f}", f"{s.mab:.4f}",
                  "" if s.r2 is None else f"{s.r2:.4f}", s.monitored_hours] for s in scores]
        path = tmp_path_factory.mktemp("scores") / "proxy_scores.csv"
        write_proxy_scores_csv(path, scores)
        assert path.read_bytes() == _csv_writer_bytes(
            ["site_id", "strategy", "alarm_frac_ks", "alarm_frac_a0", "alarm_frac_a1",
             "corrected_frac", "mab", "r2", "monitored_hours"], lines)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    def test_grid_bytes_equal_csv_writer(self, tmp_path_factory, n_lat, n_lon, data):
        def floats(size):
            return np.array(data.draw(st.lists(st.floats(), min_size=size, max_size=size)))

        grid = GridField(0.0, 1.0, 0.0, 1.0, 0.25, floats(n_lat), floats(n_lon),
                         floats(n_lat * n_lon).reshape(n_lat, n_lon))
        lines = [[f"{lat:.6f}", f"{lon:.6f}", f"{grid.values[i, j]:.4f}"]
                 for i, lat in enumerate(grid.lats) for j, lon in enumerate(grid.lons)]
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        write_grid_csv(path, grid)
        assert path.read_bytes() == _csv_writer_bytes(["lat", "lon", "value_ppb"], lines)


def write_svg(draw, label, path):
    """A heat map panel or a proxy-eval panel labelled `label`."""
    if draw == "heatmap":
        grid = idw_grid([(34.0, -118.0, 30.0), (34.1, -118.1, 40.0)],
                        33.95, 34.15, -118.15, -117.95, cell_deg=0.05)
        heatmap_svg([(label, grid)], path)
    else:
        proxy_eval_svg([ProxyScore(label, "nearest", 0.1, 0.2, 0.3, 0.0, 1.5, None, 100)], path)


class TestSvgOutput:
    @pytest.mark.parametrize("draw", ["proxy_eval", "heatmap"])
    def test_svg_text_reads_back_any_label(self, tmp_path, draw):
        # a site id may hold '<', '&' and quotes; the SVG stays well-formed
        # XML and its text reads the id back
        path = tmp_path / "out.svg"
        label = "R<&>\"'"
        write_svg(draw, label, path)
        texts = [e.text for e in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert label in texts


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
        path = tmp_path / "figs" / "out.svg"
        write_svg(draw, "R1", path)
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails part way
        with pytest.raises(UnicodeEncodeError):
            write_svg(draw, "R\udc801", path)
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
        # an override names one proxy site, by its id
        ({"proxy": {"overrides": {"LC": ["REF"]}}},
         "'proxy.overrides.LC' must be a JSON string, got list"),
        ({"proxy": {"overrides": {"LC": {"x": 1}}}},
         "'proxy.overrides.LC' must be a JSON string, got dict"),
        ({"proxy": {"overrides": {"LC": 1}}}, "'proxy.overrides.LC' must be a JSON string, got int"),
        ({"proxy": {"overrides": {"LC": None}}},
         "'proxy.overrides.LC' must be a JSON string, got NoneType"),
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
        # 10**20 hours overflow int64 in the window bounds, and a persistence
        # that long never latches an alarm
        ("thresholds", "td_hours", 10**20, "timescales must be from 1 to 2147483647 hours"),
        ("thresholds", "tf_hours", 10**20, "timescales must be from 1 to 2147483647 hours"),
        # an hour that no site reports would take the median of nothing
        ("proxy", "median_min_reporters", 0, "median_min_reporters must be at least 1"),
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

    @pytest.mark.parametrize("section, name, literal", [
        ("thresholds", "gain_high", "Infinity"),
        ("sites", "aadt_5km", "NaN"),
        ("thresholds", "offset_low", "-Infinity"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_literal_is_input_error(self, sim_dir, capsys, section, name, literal,
                                               command):
        # json.dumps writes a float that is not finite as this literal
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        target = config["sites"][0] if section == "sites" else config[section]
        target[name] = float(literal)
        network.write_text(json.dumps(config))
        assert literal in network.read_text()
        out = ["--out", str(sim_dir / "out")] if command == "run" else []
        assert main([command, str(network), *out]) == 1
        assert capsys.readouterr().err == (
            f"error: bad configuration: {literal} is not a JSON number\n")
        assert not (sim_dir / "out").exists()

    @pytest.mark.parametrize("name, literal, shown", [
        ("gain_high", "1e400", "1e400"),
        ("offset_low", "-1e400", "-1e400"),
        ("gain_high", "1" * 401, "1" * 20 + "..."),
    ], ids=["float", "negative-float", "integer"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_number_beyond_the_floats_is_input_error(self, sim_dir, capsys, name, literal,
                                                     shown, command):
        # Python would read 1e400 as an infinity, and the integer compares
        # beyond every value: either way the bound's test would never breach
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        config["thresholds"][name] = "<number>"
        network.write_text(json.dumps(config).replace('"<number>"', literal))
        out = ["--out", str(sim_dir / "out")] if command == "run" else []
        assert main([command, str(network), *out]) == 1
        assert capsys.readouterr().err == (
            f"error: bad configuration: {shown} is beyond the range of a finite number\n")
        assert not (sim_dir / "out").exists()

    def test_valid_numbers_keep_their_kind(self):
        assert json_loads('[72, -3, 1.5, 1e-400, 1e308]') == [72, -3, 1.5, 0.0, 1e308]
        assert [type(v) for v in json_loads('[72, 72.0]')] == [int, float]

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

    @pytest.mark.parametrize("flag", [False, True], ids=["env-beats-sim_out", "out-beats-env"])
    def test_output_dir_precedence(self, tmp_path, monkeypatch, flag):
        # --out, else OZONET_OUT_DIR, else sim_out in the working directory
        scenario = pair_scenario(duration_hours=24 * 4).to_dict()
        (tmp_path / "s.json").write_text(json.dumps(scenario))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OZONET_OUT_DIR", "via_env")
        out = ["--out", "via_flag"] if flag else []
        assert main(["simulate", "s.json", *out]) == 0
        want = "via_flag" if flag else "via_env"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", want]
        assert (tmp_path / want / "observed.csv").exists()

    def test_start_that_is_not_zero_padded_is_input_error(self, tmp_path, capsys):
        scenario = pair_scenario(duration_hours=24).to_dict()
        scenario["start"] = "2018-1-25T0:00:00Z"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: bad timestamp '2018-1-25T0:00:00Z': "
            "expected YYYY-MM-DDTHH:00:00Z (UTC)\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("hours", [25, 48])
    def test_hours_past_year_9999_are_input_error(self, tmp_path, capsys, hours):
        # from the last day of year 9999, one hour past it and a day past it
        scenario = pair_scenario(duration_hours=hours).to_dict()
        scenario["start"] = "9999-12-31T00:00:00Z"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: the scenario's hours run past "
            "9999-12-31T23:00:00Z, the last hour that a timestamp names\n")
        assert not (tmp_path / "o").exists()

    def test_hours_up_to_the_last_of_year_9999_are_simulated(self, tmp_path):
        scenario = pair_scenario(duration_hours=24).to_dict()
        scenario["start"] = "9999-12-31T00:00:00Z"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 0
        series = read_series_csv(tmp_path / "o" / "observed.csv")
        assert {format_iso_hour(int(ts.hours[-1])) for ts in series.values()} == {
            "9999-12-31T23:00:00Z"}

    @pytest.mark.parametrize("site_id", ["LC ", " LC", "LC\u00a0"])
    def test_site_id_with_surrounding_whitespace_is_input_error(self, tmp_path, capsys,
                                                                 site_id):
        # the series reader strips every field, so such an id could never
        # match its own series
        scenario = pair_scenario(duration_hours=24).to_dict()
        scenario["sites"][1]["site_id"] = site_id
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scenario {spath}: 'sites[1].site_id' {site_id!r} ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target", [0.0, -1.0])
    def test_gain_ramp_to_no_gain_is_input_error(self, tmp_path, capsys, target):
        # a reading is divided by the gain: a ramp to 0 would divide by zero
        scenario = pair_scenario(SensorModel(drift=(
            DriftSegment(10, 50, "gain_ramp", 2.0),)), duration_hours=100).to_dict()
        scenario["sites"][1]["sensor"]["drift"][0]["target"] = target
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: a gain_ramp target must be positive, got {target}\n")
        assert not (tmp_path / "o").exists()

    def test_gain_ramp_rounded_to_no_gain_is_input_error(self, tmp_path, capsys):
        # a positive target far below the gain before it: the ramp's end
        # rounds to a gain of 0, which would divide by zero
        scenario = pair_scenario(SensorModel(drift=(
            DriftSegment(10, 50, "gain_ramp", 1e-307),)), duration_hours=100).to_dict()
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: LC: a gain_ramp takes the gain to 0.0;"
            " it must stay > 0\n")
        assert not (tmp_path / "o").exists()

    def test_reference_with_a_sensor_model_is_input_error(self, tmp_path, capsys):
        # "sensor": null marks a reference; a model there would be ignored
        scenario = pair_scenario(duration_hours=24).to_dict()
        scenario["sites"][0]["sensor"] = {"offset": 50.0, "gain": 3.0}
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: reference site REF takes no sensor model: "
            "its readings are its truth plus the reference noise\n")
        assert not (tmp_path / "o").exists()

    def test_bad_scenario_is_input_error(self, tmp_path):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"seed": 1}))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1

    def test_unsafe_site_id_in_scenario_is_input_error(self, tmp_path, capsys):
        scenario = pair_scenario(duration_hours=24).to_dict()
        scenario["sites"][1]["site_id"] = "../LC"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(scenario))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scenario {spath}: 'sites[1].site_id' '../LC' ")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_is_input_error(self, tmp_path, capsys, literal):
        payload = pair_scenario(duration_hours=24 * 4).to_dict()
        payload["sites"][0]["truth"]["baseline"] = float(literal)
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: {literal} is not a JSON number\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, literal, shown", [
        (("sites", 0, "truth", "amplitude"), "1e400", "1e400"),
        (("reference_noise_sigma",), "1e400", "1e400"),
        (("sites", 1, "truth", "baseline"), "9" * 401, "9" * 20 + "..."),
    ], ids=["amplitude", "noise-sigma", "integer-baseline"])
    def test_number_beyond_the_floats_is_input_error(self, tmp_path, capsys, path, literal,
                                                     shown):
        payload = pair_scenario(duration_hours=24 * 4).to_dict()
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "<number>"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload).replace('"<number>"', literal))
        assert main(["simulate", str(spath), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: bad scenario {spath}: {shown} is beyond the range of a finite number\n")
        assert not (tmp_path / "o").exists()

    def test_stamps_before_year_1000_round_trip(self, tmp_path):
        payload = pair_scenario(duration_hours=24 * 4).to_dict()
        payload["start"] = "0999-01-01T00:00:00Z"
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main(["simulate", str(spath), "--out", str(out)]) == 0
        assert (out / "observed.csv").read_text().splitlines()[1].startswith(
            "0999-01-01T00:00:00Z,")
        assert main(["validate", str(out / "network.json")]) == 0

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

    @pytest.mark.parametrize("line, message", [
        (b"2018-01-26T00:00:00Z,R\xff00,10.0", "not UTF-8 text"),
        (b'2018-01-26T00:00:00Z,"' + b"x" * 200_000 + b'",10.0', "unreadable CSV"),
    ], ids=["not-utf-8", "field-over-csv-limit"])
    def test_unreadable_series_file_is_input_error(self, sim_dir, capsys, line, message):
        observed = sim_dir / "observed.csv"
        data = observed.read_bytes()
        observed.write_bytes(data + line + b"\n")
        issue = f"observed.csv:{len(data.splitlines()) + 1} [-] {message}"
        network = str(sim_dir / "network.json")
        assert main(["validate", network]) == 1
        assert issue in capsys.readouterr().out
        for args in (["run"], ["proxy-eval"], ["map", "--hour", "2018-01-27T12:00:00Z"]):
            assert main([*args, network, "--out", str(sim_dir / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and issue in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_that_is_not_utf8_is_input_error(self, sim_dir, capsys, command):
        network = sim_dir / "network.json"
        data = network.read_bytes()
        assert data.count(b'"name": "ref"') == 1
        network.write_bytes(data.replace(b'"name": "ref"', b'"name": "r\xfff"'))
        out = ["--out", str(sim_dir / "out")] if command == "run" else []
        assert main([command, str(network), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {network} is not UTF-8 text: ")

    def test_utf8_site_id_under_the_c_locale(self, tmp_path):
        # scenario, config and outputs are UTF-8 text whatever the locale's
        # encoding; a site id that stdout cannot encode is escaped
        scenario = json.dumps(pair_scenario(duration_hours=24 * 10).to_dict(),
                              ensure_ascii=False).replace('"LC"', '"Lé"')
        (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")

        def command(*args):
            return subprocess.run([sys.executable, "-m", "ozonet.cli", *args], cwd=tmp_path,
                                  env=env, capture_output=True, timeout=60)

        done = command("simulate", "scenario.json", "--out", "sim")
        assert (done.returncode, done.stderr) == (0, b"")
        assert "Lé".encode() in (tmp_path / "sim" / "observed.csv").read_bytes()
        network = tmp_path / "sim" / "network.json"
        config = json.loads(network.read_text(encoding="utf-8"))
        network.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        assert "Lé".encode() in network.read_bytes()
        done = command("validate", "sim/network.json")
        assert (done.returncode, done.stderr) == (0, b"")
        assert b"L\\xe9 " in done.stdout

    @pytest.mark.parametrize("row, issue", [
        ("2018-01-05T05:00:00Z,A,1_0", "[value_ppb] not a number: '1_0'"),
        ("2018-01-05T05:00:00Z,A,１２", "[value_ppb] not a number: '１２'"),
        ("2018-1-5T5:00:00Z,A,12", "[timestamp] bad timestamp '2018-1-5T5:00:00Z'"),
    ], ids=["underscore", "full-width-digits", "one-digit-fields"])
    def test_forms_outside_the_documented_syntax_are_issues(self, tmp_path, capsys, row, issue):
        # float() and strptime alone read each of these rows as a clean hour
        save_network_config(NetworkConfig(sites=[SiteRecord("A", "a", "reference", 34.0, -118.0)],
                                          series=["s.csv"]), tmp_path / "network.json")
        (tmp_path / "s.csv").write_text(
            f"timestamp,site_id,value_ppb\n2018-01-05T04:00:00Z,A,11\n{row}\n", encoding="utf-8")
        assert main(["validate", str(tmp_path / "network.json")]) == 1
        assert f"s.csv:3 {issue}" in capsys.readouterr().out

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

    @pytest.mark.parametrize("site_id", [
        "../../escaped", "", ".", "..", "a/b", "a\\b", "a\x00b", "a\nb", "a\x7fb", "a\x85b",
        "LC ", " LC"])
    def test_unsafe_site_id_is_config_error(self, sim_dir, capsys, site_id):
        # a site id names charts/<id>.csv and corrected/<id>.csv, so one that
        # is no single file name is rejected when the config is read
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        index = [s["site_id"] for s in config["sites"]].index("LC")
        config["sites"][index]["site_id"] = site_id
        network.write_text(json.dumps(config))
        observed = sim_dir / "observed.csv"
        if site_id == "../../escaped":
            observed.write_text(observed.read_text().replace(",LC,", f",{site_id},"))
        out = sim_dir / "a" / "b" / "out"
        for command in ("validate", "run", "proxy-eval"):
            args = [command, str(network)] + (["--out", str(out)] if command != "validate" else [])
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: bad configuration: 'sites[{index}].site_id' ")
        assert sorted(p.name for p in sim_dir.rglob("*")) == sorted(
            ["network.json", "observed.csv", "truth.csv", "manifest.json"])

    def test_unencodable_site_id_is_output_error(self, tmp_path):
        # under a locale whose file system encoding lacks a character of a
        # site id, the output cannot be named: an error, not a traceback
        scenario = json.dumps(pair_scenario(duration_hours=24 * 10).to_dict(),
                              ensure_ascii=False).replace('"LC"', '"Lé"')
        (tmp_path / "scenario.json").write_text(scenario, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")

        def command(*args):
            return subprocess.run([sys.executable, "-m", "ozonet.cli", *args], cwd=tmp_path,
                                  env=env, capture_output=True, timeout=60)

        assert command("simulate", "scenario.json", "--out", "sim").returncode == 0
        done = command("run", "sim/network.json", "--out", "out")
        assert done.returncode == 2
        assert done.stderr.startswith(b"error: cannot write output: file name ")
        assert b"Traceback" not in done.stderr
        assert not list((tmp_path / "out").rglob("*.tmp"))

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

    @pytest.mark.parametrize("flag", [False, True], ids=["env-beats-config", "out-beats-env"])
    def test_output_dir_precedence(self, sim_dir, monkeypatch, flag):
        # --out, else OZONET_OUT_DIR, else the config's output_dir
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        config["output_dir"] = str(sim_dir / "via_config")
        network.write_text(json.dumps(config))
        monkeypatch.setenv("OZONET_OUT_DIR", str(sim_dir / "via_env"))
        out = ["--out", str(sim_dir / "via_flag")] if flag else []
        assert main(["run", str(network), *out]) == 0
        written = {p.name for p in sim_dir.iterdir() if p.name.startswith("via_")}
        assert written == {"via_flag" if flag else "via_env"}
        assert (sim_dir / written.pop() / "summary.csv").exists()

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

    @pytest.mark.parametrize("reason, line", [
        ("no sensor data", "LC,-,0,0.0000,0.0000,0.0000,0.0000,no sensor data"),
        ("explicit", "LC,-,0,0.0000,0.0000,0.0000,0.0000,"
                     "no proxy override for LC under the explicit strategy"),
        ("no proxy data", "LC,REF,0,0.0000,0.0000,0.0000,0.0000,no proxy data"),
    ])
    def test_skipped_site_summary_bytes(self, sim_dir, capsys, reason, line):
        # a skipped site keeps its proxy once one is chosen (REF, nearest)
        network = sim_dir / "network.json"
        if reason == "explicit":
            config = json.loads(network.read_text())
            config["proxy"] = {"strategy": "explicit", "overrides": {}}
            network.write_text(json.dumps(config))
        else:
            _strip_site(sim_dir, "LC" if reason == "no sensor data" else "REF")
        out = sim_dir / "skipped"
        assert main(["run", str(network), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no site could be monitored\n"
        assert (out / "summary.csv").read_bytes() == (
            "site_id,proxy,monitored_hours,alarm_frac_ks,alarm_frac_a0,alarm_frac_a1,"
            f"corrected_frac,note\n{line}\n").encode()

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


def _strip_site(sim_dir, site_id):
    """Drop every row of `site_id` from the simulated observed.csv."""
    observed = sim_dir / "observed.csv"
    lines = observed.read_text().splitlines(keepends=True)
    observed.write_text("".join(line for line in lines if f",{site_id}," not in line))


class TestErrorExits:
    """An error that ends a command is one `error: …` line on stderr with its
    exit code; what the command wrote before it stays."""

    def test_validate_without_series_files(self, sim_dir, capsys):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        config["series"] = []
        network.write_text(json.dumps(config))
        assert main(["validate", str(network)]) == 1
        assert capsys.readouterr() == ("", "error: no series files configured\n")

    def test_proxy_eval_with_one_reference(self, sim_dir, capsys):
        out = sim_dir / "pe"
        assert main(["proxy-eval", str(sim_dir / "network.json"), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: proxy evaluation needs at least two reference sites\n")
        assert not out.exists()

    def test_proxy_eval_with_no_pair_to_evaluate(self, sim_dir, capsys):
        # LC is a second reference without data: REF's nearest proxy is LC,
        # and one reporter makes no network median
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        for site in config["sites"]:
            site["role"] = "reference"
        network.write_text(json.dumps(config))
        _strip_site(sim_dir, "LC")
        out = sim_dir / "pe"
        assert main(["proxy-eval", str(network), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "warning: nearest proxy for REF has no data\n"
            "warning: network_median proxy for REF has no data\n"
            "warning: no data for reference LC, skipped\n"
            "error: no (site, strategy) pair could be evaluated\n"))
        assert not out.exists()

    def test_map_split_with_no_reporting_reference(self, sim_dir, capsys):
        _strip_site(sim_dir, "REF")
        out = sim_dir / "map"
        assert main(["map", str(sim_dir / "network.json"), "--hour", "2018-01-27T12:00:00Z",
                     "--split", "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: --split needs at least one reporting reference site\n")
        # the split is tried before any grid is written
        assert not out.exists()


# Lines of generated series files for the commands: valid rows of two sites
# over a few hours (so that a (site, hour) can repeat), and lines that each
# break one rule of the series format.
def _good_line(row):
    hour, site, value = row
    return f"{format_iso_hour(421368 + hour)},{site},{value:.2f}".encode()


_good_rows = st.tuples(st.integers(0, 11), st.sampled_from("RS"), st.floats(0.0, 80.0))
_BAD_LINES = st.sampled_from([
    b"", b"  ", b"x", b"2018-01-26T01:00:00Z,S", b"2018-01-26T01:00:00Z,S,10,11",
    b"2018-1-26T1:00:00Z,S,10", "２０１８-01-26T01:00:00Z,S,10".encode(),
    b"2018-01-26T01:30:00Z,S,10", b"2018-01-26T01:00:00Z,,10",
    b"2018-01-26T02:00:00Z,S,1_0", "2018-01-26T02:00:00Z,S,１２".encode(),
    b"2018-01-26T02:00:00Z,S,nan", b"2018-01-26T02:00:00Z,S,1e400",
    b"2018-01-26T02:00:00Z,S,500.5", b"2018-01-26T02:00:00Z,S,-10.5",
    b"2018-01-26T03:00:00Z,S\xff,10", b"\xfe\xff"])

# Values of map's flags that it takes, and values that each make it fail,
# all that argparse reads: an hour with no row and stamps that are no hour;
# boxes that are empty, short, not numbers or too large for the cap; cells
# and powers that are not positive, not finite or too extreme. A default is
# None.
_MAP_GOOD = {"--hour": [format_iso_hour(421368 + hour) for hour in (0, 5, 11)],
             "--bbox": [None, "33.9,34.2,-118.2,-117.9"], "--cell": [None, "0.05"],
             "--power": [None, "1"]}
_MAP_BAD = {"--hour": [format_iso_hour(421368 + 12), "2018-1-26T1:00:00Z",
                       "2018-01-26T01:30:00Z", "x"],
            "--bbox": ["34.2,33.9,-118.2,-117.9", "1,2,3", "nan,1,2,3", "a,b,c,d",
                       "-90,90,-180,180"],
            "--cell": ["0", "-1", "1e-7", "inf", "nan"],
            "--power": ["0", "-3", "400", "nan"]}


@st.composite
def _map_flags(draw):
    """map's flags, at most one of them bad, and --split or not."""
    bad = draw(st.none() | st.sampled_from(list(_MAP_BAD)))
    flags = []
    for flag, good in _MAP_GOOD.items():
        value = draw(st.sampled_from(_MAP_BAD[flag] if flag == bad else good))
        if value is not None:
            flags.append(f"{flag}={value}")
    return flags + draw(st.sampled_from([[], ["--split"]]))


class TestCommandsOnGeneratedSeries:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(_good_rows.map(_good_line) | _BAD_LINES, min_size=1, max_size=30)
           # clean files too, so that run gets past the reader
           | st.lists(_good_rows, min_size=1, max_size=24, unique_by=lambda row: row[:2]).map(
               lambda rows: list(map(_good_line, rows))),
           st.sampled_from([b"\n", b"\r\n"]))
    def test_every_outcome_is_an_exit_code(self, tmp_path_factory, lines, newline):
        # validate exits 0 or 1 and prints its issues as error: lines on
        # stdout; run exits 1 exactly when validate does, else 0 or 2, with
        # one error: line on stderr when it fails; no traceback, and no file
        # outside --out
        root = tmp_path_factory.mktemp("net")
        network = root / "network.json"
        save_network_config(NetworkConfig(
            sites=[SiteRecord("R", "r", "reference", 34.0, -118.0),
                   SiteRecord("S", "s", "low-cost", 34.1, -118.1)],
            thresholds=Thresholds(td_hours=4, tf_hours=2), series=["s.csv"]), network)
        (root / "s.csv").write_bytes(newline.join([b"timestamp,site_id,value_ppb", *lines])
                                     + newline)
        before, out_dir = set(root.rglob("*")), root / "out"
        outcome = {}
        for command, extra in (("validate", []), ("run", ["--out", str(out_dir)])):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, str(network), *extra])
            outcome[command] = code, stdout.getvalue(), stderr.getvalue()
        code, out, err = outcome["validate"]
        assert err == ""
        assert code == (1 if re.search("^error: ", out, re.M) else 0)
        code, out, err = outcome["run"]
        assert (code == 1) == (outcome["validate"][0] == 1)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == (code != 0)
        assert {p for p in root.rglob("*")
                if p != out_dir and out_dir not in p.parents} == before
        assert out_dir.exists() == (code != 1)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(_good_rows.map(_good_line) | _BAD_LINES, max_size=8)
           | st.lists(_good_rows, max_size=8, unique_by=lambda row: row[:2]).map(
               lambda rows: list(map(_good_line, rows))),
           st.sampled_from([0, 24, 744]), st.sampled_from([b"\n", b"\r\n"]))
    def test_proxy_eval_outcome_is_an_exit_code(self, tmp_path_factory, lines, clean_hours,
                                                newline):
        # two references R and S, each with `clean_hours` valid rows after the
        # generated lines' hours: proxy-eval exits 1 exactly when the file
        # has an issue, else 0 or 2 (2 when no pair overlaps enough), with
        # warning: lines and, when it fails, one error: line on stderr; no
        # traceback, and no file outside --out
        root = tmp_path_factory.mktemp("net")
        network = root / "network.json"
        save_network_config(NetworkConfig(
            sites=[SiteRecord("R", "r", "reference", 34.0, -118.0),
                   SiteRecord("S", "s", "reference", 34.1, -118.1)],
            series=["s.csv"]), network)
        clean = [f"{format_iso_hour(421380 + hour)},{site},{20 + hour % 7}".encode()
                 for hour in range(clean_hours) for site in "RS"]
        series = root / "s.csv"
        series.write_bytes(newline.join([b"timestamp,site_id,value_ppb", *lines, *clean])
                           + newline)
        before, out_dir = set(root.rglob("*")), root / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["proxy-eval", str(network), "--out", str(out_dir)])
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        assert (code == 1) == (not scan_series_csv(series)[1].ok)
        assert "Traceback" not in err
        assert all(line.startswith(("warning: ", "error: ")) for line in err.splitlines())
        assert len(re.findall("^error: ", err, re.M)) == (code != 0)
        assert {p for p in root.rglob("*")
                if p != out_dir and out_dir not in p.parents} == before
        assert out_dir.exists() == (code == 0)

    @settings(deadline=None, max_examples=100)
    @given(st.sets(st.integers(0, 11)), st.just(b"") | _BAD_LINES, _map_flags(), st.booleans())
    def test_map_outcome_is_an_exit_code(self, tmp_path_factory, r_hours, bad_line, flags,
                                         earlier):
        # S reports every hour of the file, the reference R at `r_hours`, and
        # one more line may break the format (b"" is a blank line). map exits
        # 0 or 1, 1 whenever the file has an issue, with one error: line on
        # stderr and nothing on stdout when it fails; no traceback, no file
        # outside --out, and a failure leaves --out as it was: the files of
        # an earlier run in it byte-identical, or no --out at all
        root = tmp_path_factory.mktemp("net")
        network = root / "network.json"
        save_network_config(NetworkConfig(
            sites=[SiteRecord("R", "r", "reference", 34.0, -118.0),
                   SiteRecord("S", "s", "low-cost", 34.1, -118.1)],
            series=["s.csv"]), network)
        series = root / "s.csv"
        lines = [_good_line((hour, site, 20.0 + hour)) for hour in range(12)
                 for site in "RS" if site == "S" or hour in r_hours]
        series.write_bytes(b"\n".join([b"timestamp,site_id,value_ppb", *lines, bad_line, b""]))
        out_dir = root / "out"
        if earlier:
            out_dir.mkdir()
            for name in ("grid.csv", "grid_reference.csv", "map.svg", "notes.txt"):
                (out_dir / name).write_text(f"an earlier run's {name}")
        before = {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["map", str(network), *flags, "--out", str(out_dir)])
        err = stderr.getvalue()
        assert code in (0, 1)
        assert code == 1 or scan_series_csv(series)[1].ok
        assert "Traceback" not in err
        assert len(re.findall("^error: ", err, re.M)) == len(err.splitlines()) == code
        if code:
            assert stdout.getvalue() == ""
            assert {p: p.read_bytes() if p.is_file() else None
                    for p in root.rglob("*")} == before
        else:
            written = {out_dir / name for name in ("grid.csv", "map.svg")} | (
                {out_dir / "grid_reference.csv"} if "--split" in flags else set())
            assert set(root.rglob("*")) == {*before, out_dir, *written}
            for path, data in before.items():
                if data is not None:
                    assert (path.read_bytes() == data) == (path not in written)


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


class TestThresholdFlags:
    @pytest.mark.parametrize("command", ["run", "proxy-eval"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--td-hours", "48", "td_hours"), ("--tf-hours", "96", "tf_hours"),
        ("--alarm-count", "2", "correction_alarm_count"),
        ("--completeness-min", "0.5", "completeness_min")])
    def test_each_flag_sets_its_own_field(self, sim_dir, monkeypatch, command, flag, value,
                                          field):
        # the thresholds that reach the engine (run) or the proxy scoring
        # (proxy-eval) differ from the config's in the flag's field alone
        network = sim_dir / "network.json"
        if command == "proxy-eval":
            # it scores reference sites, and needs two
            config = json.loads(network.read_text())
            for site in config["sites"]:
                site["role"] = "reference"
            network.write_text(json.dumps(config))

        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached(next(a for a in args if isinstance(a, Thresholds)))

        monkeypatch.setattr(cli, "SiteEngine" if command == "run" else "evaluate_proxy", reached)
        with pytest.raises(Reached) as caught:
            main([command, str(network), "--out", str(sim_dir / "flags"), flag, value])
        base = load_network_config(network).thresholds
        want = dataclasses.replace(base, **{field: type(getattr(base, field))(value)})
        assert want != base
        assert caught.value.args[0] == want


class TestBadFlags:
    @pytest.mark.parametrize("command", ["run", "proxy-eval"])
    @pytest.mark.parametrize("flag", [["--td-hours", "-1"], ["--alarm-count", "0"],
                                      ["--alarm-count", "4"], ["--td-hours", str(10**20)],
                                      ["--tf-hours", str(10**20)]])
    def test_bad_threshold_flag_is_input_error(self, sim_dir, capsys, command, flag):
        code = main([command, str(sim_dir / "network.json"),
                     "--out", str(sim_dir / "bad"), *flag])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad threshold flag")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "proxy-eval", "simulate", "map"])
    def test_unwritable_out_is_runtime_error(self, sim_dir, capsys, command):
        network = sim_dir / "network.json"
        config = json.loads(network.read_text())
        for site in config["sites"]:
            site["role"] = "reference"      # proxy-eval scores references, and needs two
        network.write_text(json.dumps(config))
        args = {"simulate": [sim_dir.parent / "scenario.json"],
                "map": [network, "--hour", "2018-01-27T12:00:00Z"]}.get(command, [network])
        blocker = sim_dir / "blocker"
        blocker.write_text("a file, not a directory")
        assert main([command, *map(str, args), "--out", str(blocker)]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: cannot write output: ") and str(blocker) in last

    def test_nonpositive_map_cell_is_input_error(self, sim_dir, capsys):
        code = main(["map", str(sim_dir / "network.json"),
                     "--hour", "2018-01-27T12:00:00Z", "--cell", "0",
                     "--out", str(sim_dir / "badmap")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (sim_dir / "badmap" / "grid.csv").exists()

    def test_oversized_map_grid_is_input_error(self, sim_dir, capsys):
        # a cell of 1e-7 degrees over the sites' extent asks for about 2e12
        # cells, terabytes of distances
        code = main(["map", str(sim_dir / "network.json"),
                     "--hour", "2018-01-27T12:00:00Z", "--cell", "1e-7",
                     "--out", str(sim_dir / "badmap")])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: a grid of \d+ cells is more than the {IDW_MAX_CELLS} allowed\n", err)
        assert not (sim_dir / "badmap").exists()

    @pytest.mark.parametrize("flag, name", [
        (["--power", "nan"], "power"),
        (["--power", "inf"], "power"),
        (["--cell", "inf"], "cell size"),
        (["--bbox", "nan,1,2,3"], "lat_min"),
    ], ids=["power-nan", "power-inf", "cell-inf", "bbox-nan"])
    def test_non_finite_map_flag_is_input_error(self, sim_dir, capsys, flag, name):
        code = main(["map", str(sim_dir / "network.json"),
                     "--hour", "2018-01-27T12:00:00Z", *flag,
                     "--out", str(sim_dir / "badmap")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite, got ")
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

    @pytest.mark.parametrize("power", ["400"])
    def test_power_whose_weights_break_down_is_input_error(self, sim_dir, capsys, power):
        # far cells' weights underflow to 0: 0/0
        out = sim_dir / "map"
        assert main(["map", str(sim_dir / "network.json"), "--hour", "2018-01-27T12:00:00Z",
                     "--power", power, "--split", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: the weights at power {float(power)} "
                                           "under- or overflow: the field is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("power", ["0", "-3", "-1000"])
    def test_power_not_above_zero_is_input_error(self, sim_dir, capsys, power):
        out = sim_dir / "map"
        assert main(["map", str(sim_dir / "network.json"), "--hour", "2018-01-27T12:00:00Z",
                     "--power", power, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: power must be > 0, got {float(power)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("hour", ["2018-1-27T12:00:00Z", "２０１８-01-27T12:00:00Z"])
    def test_hour_that_is_not_zero_padded_ascii_is_input_error(self, sim_dir, capsys, hour):
        out = sim_dir / "map"
        assert main(["map", str(sim_dir / "network.json"), "--hour", hour,
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: bad timestamp {hour!r}: expected YYYY-MM-DDTHH:00:00Z (UTC)\n")
        assert not out.exists()

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
