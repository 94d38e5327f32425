"""Per-item jobs dealt over forked workers: `io.map_shared`, and the `run`
and `proxy-eval` commands that replay their sites through it."""

import contextlib
import dataclasses
import errno
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ozonet
from ozonet import io as ozio
from ozonet import svgout
from ozonet.cli import main
from ozonet.io import map_shared
from netsim_cases import monitor_network


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def drained(values):
    """The values an iterator gives before it raises, and what it raises as
    (type, args), or None."""
    taken = []
    try:
        for value in values:
            taken.append(value)
    except Exception as exc:
        return taken, (type(exc), exc.args)
    return taken, None


class Rebuilt(Exception):
    """Pickles, but unpickling calls __init__ with one argument and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a}{b}")


class TestMapShared:
    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("size", [0, 1, 3, 9])
    def test_results_in_item_order(self, monkeypatch, count, size):
        cpus(monkeypatch, count)
        parent = os.getpid()
        results = list(map_shared(lambda item: (item * item, os.getpid()), range(size)))
        assert [value for value, _ in results] == [i * i for i in range(size)]
        # item i ran in share i % n, and share 0 is this process's own
        n = min(count, size)
        pids = [pid for _, pid in results]
        assert all(pid == parent for pid in pids[0::max(n, 1)])
        assert len({*pids[:n]}) == n
        assert all(pids[i] == pids[i % n] for i in range(size))

    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("at", [None, *range(9)])
    def test_equals_map_with_a_failure_anywhere(self, monkeypatch, count, at):
        # the same values, then the same exception, as map gives
        cpus(monkeypatch, count)

        def job(item):
            return 100 // (item - at) if at is not None else item

        assert drained(map_shared(job, range(9))) == drained(map(job, range(9)))

    def test_every_worker_is_reaped_before_it_returns(self, monkeypatch):
        cpus(monkeypatch, 4)
        values = map_shared(lambda item: (item, os.getpid()), range(8))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len({pid for _, pid in values}) == 4

    def test_the_items_from_the_first_without_a_result_run_lazily(self, monkeypatch):
        cpus(monkeypatch, 1)
        calls = []

        def job(item):
            calls.append(item)
            return 10 // (item - 2)

        values = map_shared(job, range(6))
        assert calls == [0, 1, 2]           # this process's share, up to its failure
        assert [next(values), next(values)] == [-5, -10]
        assert calls == [0, 1, 2]
        with pytest.raises(ZeroDivisionError):
            next(values)
        assert calls == [0, 1, 2, 2]

    @pytest.mark.parametrize("count, size", [(1, 5), (4, 1), (4, 0)])
    def test_one_cpu_or_one_item_never_forks(self, monkeypatch, count, size):
        cpus(monkeypatch, count)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert list(map_shared(str, range(size))) == [str(i) for i in range(size)]

    def test_a_platform_without_affinity_runs_the_plain_loop(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert list(map_shared(str, range(3))) == ["0", "1", "2"]

    @pytest.mark.parametrize("count, failing, first", [
        (2, {1, 2}, 1),         # a worker's item before the parent's
        (2, {2, 3}, 2),         # the parent's item before a worker's
        (2, {0, 1}, 0),
        (2, {5}, 5),            # the last item, in a worker
        (4, {3, 4}, 3),         # the last worker's first item before the parent's second
        (4, {6, 5}, 5),         # two workers' second items
        (4, {9, 7}, 7),
    ])
    def test_results_end_at_the_first_failure_in_item_order(self, monkeypatch, count,
                                                            failing, first):
        cpus(monkeypatch, count)

        def job(item):
            if item in failing:
                raise ValueError(item)
            return item

        assert drained(map_shared(job, range(10))) == (list(range(first)), (ValueError, (first,)))

    @pytest.mark.parametrize("count, first", [(2, 0), (2, 1), (4, 2)])
    def test_an_unpicklable_failure_does_not_mask_an_earlier_one(self, monkeypatch, count,
                                                                 first):
        # every later item fails with an exception local to this test, which
        # a worker could not pickle; the earlier failure is still the one raised
        cpus(monkeypatch, count)

        class Local(Exception):
            pass

        def job(item):
            if item == first:
                raise KeyError(item)
            if item > first:
                raise Local(item)
            return item

        assert drained(map_shared(job, range(8))) == (list(range(first)), (KeyError, (first,)))

    @pytest.mark.parametrize("error", [
        lambda item: type("Local", (Exception,), {})(item), lambda item: Rebuilt(item, "!")])
    def test_a_worker_failure_is_raised_as_itself(self, monkeypatch, error):
        cpus(monkeypatch, 2)

        def job(item):
            if item == 1:
                raise error(item)
            return item

        with pytest.raises(Exception, match=r"^1!?$") as caught:
            list(map_shared(job, range(4)))
        assert type(caught.value).__name__ in ("Local", "Rebuilt")

    @pytest.mark.parametrize("result", [lambda item: lambda: item,
                                        lambda item: Rebuilt(item, "!")])
    def test_a_result_that_cannot_cross_is_computed_here(self, monkeypatch, result):
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(item):
            return result(item) if item == 3 else (item, os.getpid())

        # the worker's share is lost whole: every item from its first on ran here
        values = list(map_shared(job, range(6)))
        assert values[:3] + values[4:] == [(i, parent) for i in (0, 1, 2, 4, 5)]
        assert type(values[3]) is type(result(3))

    def test_the_items_of_a_worker_that_dies_are_left_to_the_caller(self, monkeypatch):
        cpus(monkeypatch, 2)
        parent = os.getpid()

        def job(item):
            if item == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return item, os.getpid()

        # the worker's share is lost whole: every item from its first on ran here
        assert list(map_shared(job, range(6))) == [(i, parent) for i in range(6)]

    def test_the_items_of_a_worker_that_cannot_start_are_left_to_the_caller(self,
                                                                             monkeypatch):
        cpus(monkeypatch, 4)
        fork = os.fork
        forks = []
        parent = os.getpid()

        def one_fork():
            if forks:
                raise BlockingIOError("no more processes")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", one_fork)
        # items 0 and 1 come from the two shares that ran, the rest ran here
        assert list(map_shared(lambda item: (item, os.getpid()), range(8))) == [
            (i, forks[0] if i == 1 else parent) for i in range(8)]

    def test_failure_in_the_parent_still_reaps_every_worker(self, monkeypatch):
        cpus(monkeypatch, 4)

        def job(item):
            if os.getpid() == parent:
                raise ZeroDivisionError(item)
            return item

        parent = os.getpid()
        values = map_shared(job, range(12))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert drained(values) == ([], (ZeroDivisionError, (0,)))

    def test_an_interrupt_in_the_parent_still_reaps_every_worker(self, monkeypatch):
        cpus(monkeypatch, 4)

        def job(item):
            if os.getpid() == parent and item:
                raise KeyboardInterrupt
            return item

        parent = os.getpid()
        with pytest.raises(KeyboardInterrupt):
            map_shared(job, range(12))


# The commands through 1, 2 and 4 CPUs: every file, stdout, stderr and the
# exit code byte-identical. Stripped, the network's R02 and S03 have no data:
# run skips S03 and the sites whose nearest reference is R02, and proxy-eval
# skips R02 and warns of the proxies it would be.

@pytest.fixture(scope="module")
def network(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(monitor_network(False, duration_hours=24 * 32).to_dict()))
    assert main(["simulate", str(scenario), "--out", str(root / "sim")]) == 0
    return root / "sim"


def _stripped(network, tmp_path):
    observed = tmp_path / "observed.csv"
    observed.write_text("".join(
        line for line in (network / "observed.csv").read_text().splitlines(keepends=True)
        if ",R02," not in line and ",S03," not in line))
    config = json.loads((network / "network.json").read_text())
    config["series"] = [str(observed)]
    path = tmp_path / "network.json"
    path.write_text(json.dumps(config))
    return path


def _outcome(monkeypatch, count, args, out, blocker=None):
    cpus(monkeypatch, count)
    if blocker:
        out.mkdir(parents=True)
        (out / blocker).write_text("a file, not a directory")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*args, "--out", str(out)])
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return code, stdout.getvalue(), stderr.getvalue().replace(str(out), "<out>"), files


class TestCommandsOnEveryCpuCount:
    @pytest.mark.parametrize("command", ["run", "proxy-eval"])
    @pytest.mark.parametrize("stripped", [False, True])
    def test_same_bytes(self, network, tmp_path, monkeypatch, command, stripped):
        config = _stripped(network, tmp_path) if stripped else network / "network.json"
        outcomes = [_outcome(monkeypatch, count, [command, str(config)], tmp_path / f"{count}")
                    for count in (1, 2, 4)]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, stdout, stderr, files = outcomes[0]
        assert code == 0
        if command == "run":
            assert len(files) == 1 + 2 * (11 if stripped else 15)
            assert ("no sensor data" in stdout and "no proxy data" in stdout) == stripped
            assert stderr == ""
        else:
            assert sorted(files) == ["proxy_eval.svg", "proxy_scores.csv"]
            assert stderr == ("warning: nearest proxy for R01 has no data\n"
                              "warning: no data for reference R02, skipped\n" if stripped else "")

    @pytest.mark.parametrize("blocker", ["corrected", "charts"])
    def test_same_write_failure(self, network, tmp_path, monkeypatch, blocker):
        # the first site's write fails; no other site's file is left behind
        outcomes = [_outcome(monkeypatch, count, ["run", str(network / "network.json")],
                             tmp_path / f"{count}", blocker) for count in (1, 2, 4)]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, stdout, stderr, files = outcomes[0]
        assert code == 2 and stdout == ""
        assert stderr == f"error: cannot write output: [Errno 17] File exists: '<out>/{blocker}'\n"
        assert sorted(files) == [blocker] + (["corrected/S00.csv"] if blocker == "charts" else [])

    def test_same_failure_at_a_later_site(self, network, tmp_path, monkeypatch):
        # S05's file is a directory: S00-S04 are written, and the files an
        # earlier run left for S09 stay as they were, whatever the count
        outcomes = []
        for count in (1, 2, 4):
            out = tmp_path / f"{count}"
            (out / "corrected" / "S05.csv").mkdir(parents=True)
            (out / "charts").mkdir()
            for name in ("corrected/S09.csv", "charts/S09.csv"):
                (out / name).write_text("an earlier run's file")
            outcomes.append(_outcome(monkeypatch, count,
                                     ["run", str(network / "network.json")], out))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, stdout, stderr, files = outcomes[0]
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: cannot write output: [Errno 21] Is a directory: ")
        assert sorted(files) == sorted([f"{kind}/S0{i}.csv" for kind in ("corrected", "charts")
                                        for i in (0, 1, 2, 3, 4, 9)])
        assert files["charts/S09.csv"] == b"an earlier run's file"

    def test_same_failure_of_the_scores_chart(self, network, tmp_path, monkeypatch):
        outcomes = []
        for count in (1, 2, 4):
            out = tmp_path / f"{count}"
            (out / "proxy_eval.svg").mkdir(parents=True)
            outcomes.append(_outcome(monkeypatch, count,
                                     ["proxy-eval", str(network / "network.json")], out))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        code, stdout, stderr, files = outcomes[0]
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: cannot write output: ")
        assert sorted(files) == ["proxy_scores.csv"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least 2 CPUs for the commands to fork")
@pytest.mark.parametrize("command", ["run", "proxy-eval"])
def test_the_commands_fork_quietly_as_the_main_module(network, tmp_path, command):
    # under `python -m ozonet.cli` the command module is __main__, where
    # Python 3.12 shows its DeprecationWarning for a fork in a process with
    # threads; the fork happens in ozonet.io, so nothing is shown
    src = str(Path(ozonet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ozonet.cli", command,
                           str(network / "network.json"), "--out", str(tmp_path / "out")],
                          capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")


# Each output write of `run` failing in turn, on a network of six sensors:
# the chart text of one site failing halfway through its write, and the
# move of that site's corrected file from its temporary file into place.
# This process writes every file, whatever the CPU count; on every count the
# exit code, the messages and the files left are those of the serial run,
# and no temporary file or worker is left behind.

SIX = [f"S0{i}" for i in range(6)]
NO_ROOM = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture(scope="module")
def six_sensors(tmp_path_factory):
    """The config of a four-day network of six sensors, and the stdout and
    files of a run of it that nothing fails."""
    root = tmp_path_factory.mktemp("six")
    scenario = monitor_network(False, duration_hours=24 * 4)
    scenario = dataclasses.replace(scenario, sites=[
        spec for spec in scenario.sites
        if spec.record.role == "reference" or spec.record.site_id in SIX])
    (root / "scenario.json").write_text(json.dumps(scenario.to_dict()))
    assert main(["simulate", str(root / "scenario.json"), "--out", str(root / "sim")]) == 0
    config = root / "sim" / "network.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", str(config), "--out", str(root / "clean")]) == 0
    clean = {str(p.relative_to(root / "clean")): p.read_bytes()
             for p in (root / "clean").rglob("*") if p.is_file()}
    return config, stdout.getvalue(), clean


def _fail(monkeypatch, where, site):
    """Make `site`'s chart write raise halfway ("chart"), or the move of its
    corrected file into place ("move")."""
    if where == "chart":
        write = ozio.write_text

        def write_text(path, text):
            if Path(path).parts[-2:] != ("charts", f"{site}.csv"):
                return write(path, text)
            with ozio.atomic_write(path) as handle:
                handle.write(",".join(ozio.CHART_HEADER))
                raise NO_ROOM

        monkeypatch.setattr(ozio, "write_text", write_text)
    else:
        replace = os.replace

        def corrected_replace(src, dst):
            if Path(dst).parts[-2:] == ("corrected", f"{site}.csv"):
                raise NO_ROOM
            replace(src, dst)

        monkeypatch.setattr(os, "replace", corrected_replace)


@pytest.mark.parametrize("earlier", [False, True])
@pytest.mark.parametrize("where", ["chart", "move"])
@pytest.mark.parametrize("k", range(len(SIX)))
def test_each_write_failing_in_turn(six_sensors, tmp_path, monkeypatch, earlier, where, k):
    config, clean_stdout, clean = six_sensors
    # an earlier run's files: one in the place of each file that run writes
    before = {name: f"an earlier run's {name}".encode() for name in clean} if earlier else {}
    # the sites before it are written, and its corrected file when its chart
    # fails; then it fails
    written = [f"corrected/{site}.csv" for site in SIX[:k + (where == "chart")]] + [
        f"charts/{site}.csv" for site in SIX[:k]]
    want = (2, "", f"error: cannot write output: {NO_ROOM}\n",
            {**before, **{name: clean[name] for name in written}})
    _fail(monkeypatch, where, SIX[k])
    for count in (1, 2, 4):
        out = tmp_path / f"{count}"
        for name, data in before.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(data)
        assert _outcome(monkeypatch, count, ["run", str(config)], out) == want, count
        assert list(out.rglob(".*")) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# The files each command writes last, after every site or pair has run,
# failing in turn: `run`'s summary.csv (on the six sensors), and
# proxy-eval's proxy_scores.csv and proxy_eval.svg (on the 32-day network,
# whose references overlap long enough to be scored). Only this process
# writes them; the outcome is still that of the serial run on every CPU
# count.

@pytest.fixture(scope="module")
def scored(network):
    """The config, stdout, stderr and files of a proxy-eval of the 32-day
    network that nothing fails."""
    config = network / "network.json"
    out = network / "scored"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["proxy-eval", str(config), "--out", str(out)]) == 0
    return (config, stdout.getvalue(), stderr.getvalue(),
            {p.name: p.read_bytes() for p in out.iterdir()})


def _fail_last_write(monkeypatch, name):
    """Make the write of the output file `name` raise once its text is
    written, before it replaces the file: through the one atomic_write of
    every CSV writer and of the SVG charts."""
    real = ozio.atomic_write

    @contextlib.contextmanager
    def atomic_write(path, newline=None):
        with real(path, newline) as handle:
            yield handle
            if Path(path).name == name:
                raise NO_ROOM

    monkeypatch.setattr(ozio, "atomic_write", atomic_write)
    monkeypatch.setattr(svgout, "atomic_write", atomic_write)


@pytest.mark.parametrize("earlier", [False, True])
@pytest.mark.parametrize("name", ["summary.csv", "proxy_scores.csv", "proxy_eval.svg"])
def test_each_last_write_failing(six_sensors, scored, tmp_path, monkeypatch, earlier, name):
    if name == "summary.csv":
        # every site's files are written and the table printed; then it fails
        (config, stdout, clean), stderr, command = six_sensors, "", "run"
        written = [file for file in clean if file != name]
    else:
        # the scores table is printed only after both files are written
        (config, _, stderr, clean), stdout, command = scored, "", "proxy-eval"
        written = ["proxy_scores.csv"] if name == "proxy_eval.svg" else []
    # an earlier run's files: one in the place of each file the command writes
    before = {file: f"an earlier run's {file}".encode() for file in clean} if earlier else {}
    want = (2, stdout, f"{stderr}error: cannot write output: {NO_ROOM}\n",
            {**before, **{file: clean[file] for file in written}})
    _fail_last_write(monkeypatch, name)
    for count in (1, 2, 4):
        out = tmp_path / f"{count}"
        for file, data in before.items():
            (out / file).parent.mkdir(parents=True, exist_ok=True)
            (out / file).write_bytes(data)
        assert _outcome(monkeypatch, count, [command, str(config)], out) == want, count
        assert list(out.rglob(".*")) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
