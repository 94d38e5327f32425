"""Properties of whole commands, run in this process.

`run` on a small simulated network is causal (what it writes for an hour
depends on no later reading), blind to the row order of its series file,
and blind to how its rows are split over several files. A network config
with one bad field is an input error of every network command that prints
one error line and changes no file, whether the output directory comes
from --out or from the config.
"""

import contextlib
import copy
import io
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ozonet.cli import main
from ozonet.io import NetworkConfig, ProxyPolicy
from ozonet.proxy import SiteRecord
from ozonet.timeseries import format_iso_hour
from netsim_cases import START_HOUR, small_network


def budget(examples: int) -> settings:
    """The settings of a property: `examples` examples, or the budget of the
    `deep` profile (tests/conftest.py) when it is the one loaded."""
    deep = settings.get_profile("deep")
    return deep if settings.default is deep else settings(deadline=None,
                                                          max_examples=examples)


def command(*args) -> tuple:
    """(exit code, stdout, stderr) of the ozonet command `args`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(map(str, args)))
    return code, stdout.getvalue(), stderr.getvalue()


def files(root) -> dict:
    """{path relative to `root`: bytes} of every file under `root`."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="session")
def network(tmp_path_factory):
    """`small_network` simulated once: its config, the header and data lines
    of its observed.csv, and the stdout and files of `run` on it."""
    root = tmp_path_factory.mktemp("small-network")
    (root / "scenario.json").write_text(json.dumps(small_network().to_dict()))
    assert command("simulate", root / "scenario.json", "--out", root / "sim")[0] == 0
    header, *rows = (root / "sim" / "observed.csv").read_text().splitlines(keepends=True)
    code, stdout, _ = command("run", root / "sim" / "network.json", "--out", root / "out")
    assert code == 0
    return SimpleNamespace(config=root / "sim" / "network.json", header=header, rows=rows,
                           stdout=stdout, files=files(root / "out"))


def run_on(network, rows, root) -> tuple:
    """(exit code, stdout, files written) of `run` on the network's config
    with `rows` as its series file."""
    (root / "observed.csv").write_text(network.header + "".join(rows))
    code, stdout, _ = command("run", network.config, root / "observed.csv",
                              "--out", root / "out")
    return code, stdout, files(root / "out")


class TestRunOnASmallNetwork:
    @budget(10)
    @given(st.integers(0, small_network().duration_hours - 1))
    def test_a_run_cut_after_an_hour_writes_a_prefix_of_the_whole_run(
            self, network, tmp_path_factory, hour):
        # every site reports every hour, so each chart and corrected file of
        # the series cut after `hour` holds its header and the hours up to
        # `hour`, line for line as the whole run's file begins
        last = format_iso_hour(START_HOUR + hour)
        cut = [row for row in network.rows if row[:len(last)] <= last]
        code, _, written = run_on(network, cut, tmp_path_factory.mktemp("cut"))
        assert code == 0
        del written["summary.csv"]
        assert written.keys() == network.files.keys() - {"summary.csv"}
        for name, data in written.items():
            lines = data.splitlines(keepends=True)
            assert len(lines) == hour + 2
            assert lines == network.files[name].splitlines(keepends=True)[:hour + 2], name

    @budget(6)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_a_series_split_over_files_reads_as_one_file(self, network, tmp_path_factory,
                                                        parts, seed):
        # the rows dealt over `parts` files, each with its own header, in any
        # order; every file gets one row before the rest are dealt at random
        rng = random.Random(seed)
        rows = list(network.rows)
        rng.shuffle(rows)
        shares = [rows[k:k + 1] for k in range(parts)]
        for row in rows[parts:]:
            shares[rng.randrange(parts)].append(row)
        root = tmp_path_factory.mktemp("split")
        paths = [root / f"part{k}.csv" for k in range(parts)]
        for path, share in zip(paths, shares):
            path.write_text(network.header + "".join(share))
        code, stdout, _ = command("run", network.config, *paths, "--out", root / "out")
        assert code == 0
        assert stdout == network.stdout
        assert files(root / "out") == network.files
        # one row of a file after the first, where the file's position
        # shows, made bad: the issue names that file and the row's line in it
        k = rng.randrange(1, parts)
        i = rng.randrange(len(shares[k]))
        stamp, site, _ = shares[k][i].split(",")
        shares[k][i] = f"{stamp},{site},x\n"
        paths[k].write_text(network.header + "".join(shares[k]))
        code, stdout, _ = command("validate", network.config, *paths)
        assert code == 1
        assert [line for line in stdout.splitlines() if line.startswith("error: ")] == [
            f"error: {paths[k]}:{i + 2} [value_ppb] not a number: 'x'"]

    @budget(6)
    @given(st.integers(0, 2**32 - 1))
    def test_row_order_of_the_series_file_changes_no_byte(self, network, tmp_path_factory,
                                                         seed):
        rows = list(network.rows)
        random.Random(seed).shuffle(rows)
        code, stdout, written = run_on(network, rows, tmp_path_factory.mktemp("shuffled"))
        assert code == 0
        assert stdout == network.stdout
        assert written == network.files


# ------------------------------------------------------------ bad configs

# A valid config in which every field is set and no value is null, so that a
# value of another JSON kind is wrong wherever it goes.
_CONFIG = NetworkConfig(
    sites=[SiteRecord("R", "r", "reference", 34.0, -118.0, 10.0, 900.0, "urban"),
           SiteRecord("S", "s", "low-cost", 34.1, -118.1, 12.0, 1000.0, "road")],
    proxy=ProxyPolicy(overrides={"S": "R"}), series=["s.csv"]).to_dict()
_NULLABLE = ("elevation_m", "aadt_5km", "land_use")
_SERIES = "timestamp,site_id,value_ppb\n" + "".join(
    f"{format_iso_hour(START_HOUR + hour)},{site},{20 + hour % 7}\n"
    for hour in range(30) for site in "RS")

# The same with a second reference Q and 744 h of series (proxy-eval scores
# a pair over 720 h at least), so that every writing command has something
# to write.
_WRITING_CONFIG = NetworkConfig(
    sites=[SiteRecord("R", "r", "reference", 34.0, -118.0, 10.0, 900.0, "urban"),
           SiteRecord("S", "s", "low-cost", 34.1, -118.1, 12.0, 1000.0, "road"),
           SiteRecord("Q", "q", "reference", 34.2, -118.2, 14.0, 1100.0, "rural")],
    proxy=ProxyPolicy(overrides={"S": "R"}), series=["s.csv"]).to_dict()
_WRITING_SERIES = "timestamp,site_id,value_ppb\n" + "".join(
    f"{format_iso_hour(START_HOUR + hour)},{site},{20 + hour % 7}\n"
    for hour in range(744) for site in "RSQ")


def _kind(value) -> str:
    return "null" if value is None else {bool: "boolean", int: "number", float: "number",
                                         str: "string", list: "array",
                                         dict: "object"}[type(value)]


_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(config, path):
    value = config
    for key in path:
        value = value[key]
    return value


def _wrong_kind(config, path):
    """A value of a JSON kind that the field at `path` does not take."""
    kinds = {_kind(_at(config, path))} | (
        {"null"} if path and path[-1] in _NULLABLE else set())
    return st.one_of([_VALUES[kind] for kind in _VALUES if kind not in kinds])


def _new_key(config, path):
    """A key that the object at `path` does not hold; in the overrides, one
    that names no site."""
    taken = set(_at(config, path)) | ({site["site_id"] for site in config["sites"]}
                                      if path == ("proxy", "overrides") else set())
    return st.text(max_size=6).filter(lambda key: key not in taken).map(
        lambda key: path + (key,))


def _around(middle):
    return st.builds("{}{}{}".format, st.text("RSx.", max_size=2), middle,
                     st.text("RSx.", max_size=2))


_ODD_IDS = (st.sampled_from(["", ".", ".."])
            | _around(st.sampled_from("/\\") | st.characters(categories=["Cc", "Cs"]))
            | st.tuples(st.characters(categories=["Zs"]) | st.sampled_from("\t\n"),
                        st.sampled_from("RSx")).flatmap(
                lambda pair: st.sampled_from(["".join(pair), "".join(pair[::-1])])))
_RAW_NUMBERS = (st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "-Infinity"])
                | st.tuples(st.sampled_from(["", "-"]),
                            st.integers(10**399, 10**400 - 1).map(str)).map("".join))
_RAW = "<raw number>"


def _bad_fields(config):
    """(what, path, value) of one bad field of `config`: a value of a kind
    the field does not take, a key that is no field, an odd site id, a number
    written as text that no float holds, or a series name that no file can
    have; or None for the valid config."""
    paths = list(_paths(config))
    objects = [path for path in paths if isinstance(_at(config, path), dict)]
    return st.one_of(
        st.just(None),
        st.sampled_from(paths).flatmap(lambda path: st.tuples(
            st.just("kind"), st.just(path), _wrong_kind(config, path))),
        st.tuples(st.just("key"),
                  st.sampled_from(objects).flatmap(lambda path: _new_key(config, path)),
                  st.one_of(list(_VALUES.values()))),
        st.tuples(st.just("site id"), st.sampled_from([("sites", 0, "site_id"),
                                                       ("sites", 1, "site_id")]), _ODD_IDS),
        st.tuples(st.just("number"), st.sampled_from(paths), _RAW_NUMBERS),
        st.tuples(st.just("series"), st.just(("series", 0)),
                  _around(st.just("\x00") | st.characters(categories=["Cs"]))),
    )


_BAD_FIELDS = _bad_fields(_CONFIG)
# the writing commands also get an output directory that no directory can have
_WRITING_BAD_FIELDS = _bad_fields(_WRITING_CONFIG) | st.tuples(
    st.just("output dir"), st.just(("output_dir",)), _around(st.just("\x00")))


def _config_text(bad, valid=_CONFIG) -> str:
    """The text of the valid config `valid`, with the bad field `bad` set in
    it."""
    if bad is None:
        return json.dumps(valid)
    what, path, value = bad
    config = [copy.deepcopy(valid)]
    target, path = config, (0, *path)
    for key in path[:-1]:
        target = target[key]
    # a raw number goes in as a placeholder that the text then replaces
    target[path[-1]] = _RAW if what == "number" else value
    text = json.dumps(config[0])
    return text.replace(json.dumps(_RAW), value) if what == "number" else text


class TestBadConfigs:
    @budget(60)
    @given(_BAD_FIELDS)
    def test_one_bad_field_is_an_input_error_that_changes_no_file(self, tmp_path_factory,
                                                                  bad):
        root = tmp_path_factory.mktemp("config")
        (root / "network.json").write_text(_config_text(bad))
        (root / "s.csv").write_text(_SERIES)
        out = root / "out"
        for name in ("summary.csv", "charts/S.csv", "corrected/S.csv"):
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(f"an earlier run's {name}")
        before = files(root)
        for args in (["validate"], ["run", "--out", out]):
            code, stdout, stderr = command(args[0], root / "network.json", *args[1:])
            # in this process a traceback would be an exception out of main
            assert code == (0 if bad is None else 1)
            errors = [line for line in (stdout + stderr).splitlines()
                      if line.startswith("error: ")]
            assert len(errors) == code
            if code == 1:
                assert files(root) == before

    @budget(30)
    @given(_WRITING_BAD_FIELDS)
    def test_one_bad_field_ends_every_writing_command_as_an_input_error(
            self, tmp_path_factory, bad):
        # run, proxy-eval and map, each with --out and without it, when the
        # config's output_dir names the directory
        root = tmp_path_factory.mktemp("config")
        out = root / "out"
        (root / "network.json").write_text(_config_text(bad, _WRITING_CONFIG).replace(
            '"output_dir": "out"', f'"output_dir": {json.dumps(str(out))}'))
        (root / "s.csv").write_text(_WRITING_SERIES)
        for name in ("summary.csv", "proxy_scores.csv", "grid.csv"):
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(f"an earlier run's {name}")
        before = files(root)
        for args in (["run"], ["proxy-eval"], ["map", "--hour", format_iso_hour(START_HOUR)]):
            for where in ([], ["--out", out]):
                code, stdout, stderr = command(args[0], root / "network.json", *args[1:],
                                               *where)
                assert code == (0 if bad is None else 1)
                errors = [line for line in (stdout + stderr).splitlines()
                          if line.startswith("error: ")]
                assert len(errors) == code
                if code == 1:
                    assert files(root) == before
