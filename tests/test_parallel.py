"""`run`, `summarize` and `detect` in groups of trials, forked: the same
files, the same summaries, the same verdicts and the same failures at every
worker count, and no process left behind."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsim.harness import runner
from spoofsim.harness.cli import main
from spoofsim.harness.config import make_config
from spoofsim.harness.runner import CHUNK_TRIALS, GROUP_TRIALS, groups, in_groups, run
from spoofsim.harness.scenarios import SCENARIOS
from spoofsim.harness.summary import Summary, fold

#: Four full chunks and a short one: up to four workers, whose equal shares
#: start and end inside chunks.
TRIALS = 4 * CHUNK_TRIALS + 17


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(runner, "usable_cpus", lambda: cpus)


def _tree(out):
    """Every file of a run directory, as bytes; ``config.json`` without the
    ``output_dir`` that names the directory."""

    files = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    config = json.loads(files.pop("config.json"))
    del config["output_dir"]
    files["config.json"] = json.dumps(config, sort_keys=True).encode()
    return files


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_groups_cut_equal_shares(monkeypatch):
    """One group per usable CPU, but at least `GROUP_TRIALS` trials each,
    contiguous and covering the trials in order, in equal shares: group
    sizes differ by at most one, wherever the cuts fall in the chunk grid."""

    for cpus in (1, 2, 3, 4, 64):
        _cpus(monkeypatch, cpus)
        for trials in (1, GROUP_TRIALS - 1, GROUP_TRIALS, CHUNK_TRIALS, 400, TRIALS, 4000, 10**6):
            ranges = groups(trials)
            workers = max(1, min(cpus, trials // GROUP_TRIALS))
            assert len(ranges) == workers
            assert ranges[0].start == 0 and ranges[-1].stop == trials
            assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
            assert workers == 1 or all(len(r) >= GROUP_TRIALS for r in ranges)
            assert max(map(len, ranges)) - min(map(len, ranges)) <= 1
    expected = {
        (2, 400): [0, 200, 400],  # the tcas-detect workload
        (2, 1000): [0, 500, 1000],  # gpws-approach
        (2, 4000): [0, 2000, 4000],  # gs-emit
        (3, 1000): [0, 333, 666, 1000],
        (4, 4000): [0, 1000, 2000, 3000, 4000],
        (1, TRIALS): [0, TRIALS],
        (2, TRIALS): [0, 520, TRIALS],
        (3, TRIALS): [0, 347, 694, TRIALS],
        (4, TRIALS): [0, 260, 520, 780, TRIALS],
    }
    for (cpus, trials), bounds in expected.items():
        _cpus(monkeypatch, cpus)
        assert groups(trials) == [range(a, b) for a, b in zip(bounds, bounds[1:])]


def test_chunks_are_one_grid_for_every_range():
    """`chunks` cuts any id range at the multiples of `CHUNK_TRIALS` only:
    whole chunks, a start or an end inside a chunk, a range inside one chunk,
    and an empty range, which has no chunks."""

    c = CHUNK_TRIALS
    assert runner.chunks(range(0)) == runner.chunks(range(c + 5, c + 5)) == []
    assert runner.chunks(range(c, 3 * c)) == [range(c, 2 * c), range(2 * c, 3 * c)]
    assert runner.chunks(range(c + 5, c + 9)) == [range(c + 5, c + 9)]
    for start in (0, 1, c - 1, c, c + 1, 3 * c):
        for stop in range(start, start + 2 * c + 2, 7):
            parts = runner.chunks(range(start, stop))
            assert [i for part in parts for i in part] == list(range(start, stop))
            assert all(part and part[0] // c == part[-1] // c for part in parts)
            assert all(part.start % c == 0 for part in parts[1:])


@pytest.mark.parametrize("scenario", ["GPWS", "TCAS", "GS"])
def test_run_chunks_cut_at_the_global_chunk_grid(scenario):
    """A range that starts inside a chunk runs the rest of that chunk first,
    then whole chunks: each trial's log is the one `run` makes."""

    cfg = make_config({"version": 1, "scenario": scenario, "trials": 700, "master_seed": 5})
    chunks = list(runner.run_chunks(cfg, range(200, 700)))
    assert [[log.trial_id for log in chunk] for chunk in chunks] == [
        list(range(200, 256)), list(range(256, 512)), list(range(512, 700))]
    assert ([log.to_jsonl() for chunk in chunks for log in chunk]
            == [log.to_jsonl() for log in run(cfg)[200:]])


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity mask on this platform")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert runner.usable_cpus() == 1
    assert groups(4000) == [range(4000)]


def test_one_worker_runs_in_process(monkeypatch):
    """With one group, or without ``os.fork``, nothing is forked."""

    def no_fork():
        raise AssertionError("forked")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = make_config({"version": 1, "scenario": "GS", "trials": TRIALS})
    assert in_groups(cfg, len) == [TRIALS]
    _cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert groups(TRIALS) == [range(TRIALS)]
    assert in_groups(cfg, len) == [TRIALS]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_outputs_identical_at_every_worker_count(tmp_path, monkeypatch, capsys, scenario):
    """`run` writes the same files, and `summarize` prints and writes the same
    summary, with one, two, three or four workers.  GPWS writes altitude
    traces too."""

    config = tmp_path / "config.json"
    data = {"version": 1, "scenario": scenario}
    if scenario == "GPWS":
        data["output"] = {"altitude_trace": True}
    config.write_text(json.dumps(data))
    trees, printed = [], []
    for cpus in (1, 2, 3, 4):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        assert main(["run", "--config", str(config), "--trials", str(TRIALS), "--seed", "11",
                     "--out", str(out)]) == 0
        run_printed = capsys.readouterr().out.replace(str(out), "OUT")
        trees.append(_tree(out))
        assert main(["summarize", "--out", str(out)]) == 0
        printed.append((run_printed, capsys.readouterr().out))
        assert _tree(out) == trees[-1]
        _no_children()
    assert len(trees[0]) == 3 + TRIALS + (TRIALS if scenario == "GPWS" else 0)
    assert all(tree == trees[0] for tree in trees[1:])
    assert all(p == printed[0] for p in printed[1:])


def _failing(scenario, bad_id):
    """``scenario`` with a trials function that raises on trial ``bad_id``."""

    real = SCENARIOS[scenario]

    def trials(config, ids, seeds):
        if bad_id in ids:
            raise ValueError(f"trial {bad_id} cannot be flown")
        return real.trials(config, ids, seeds)

    return dataclasses.replace(real, trials=trials)


@pytest.mark.parametrize("bad_id", [5, 700, TRIALS - 1])
def test_failing_trial_fails_as_in_process(tmp_path, monkeypatch, capsys, bad_id):
    """A trial that raises, in the first group (which then kills the others)
    or in a later one, makes `run` exit with the in-process code and message,
    leaves no ``config.json`` and no child process."""

    monkeypatch.setitem(SCENARIOS, "GS", _failing("GS", bad_id))
    results = []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        code = main(["run", "--scenario", "GS", "--trials", str(TRIALS), "--out", str(out)])
        results.append((code, capsys.readouterr().err))
        assert not (out / "config.json").exists()
        _no_children()
    assert results[0] == (3, f"error: trial {bad_id} cannot be flown\n")
    assert all(result == results[0] for result in results[1:])


def test_group_exception_keeps_its_type(monkeypatch):
    """The first failing group's exception, in trial order, is raised with its
    own type and message; a worker that ends without a result is an error."""

    _cpus(monkeypatch, 4)
    third = groups(TRIALS)[2].start

    def group(ids):
        if ids.start >= third:
            raise KeyError(f"group at {ids.start}")
        return len(ids)

    def dies(ids):
        if ids.start:
            os._exit(0)
        return len(ids)

    cfg = make_config({"version": 1, "scenario": "GS", "trials": TRIALS})
    with pytest.raises(KeyError, match=f"group at {third}"):
        in_groups(cfg, group)
    _no_children()
    with pytest.raises(RuntimeError, match="ended without a result"):
        in_groups(cfg, dies)
    _no_children()


def _alive(pid):
    """Whether process ``pid`` runs: it exists and is not a zombie."""

    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="the parent-death signal is Linux's")
def test_command_killed_by_sigterm_leaves_no_worker(tmp_path):
    """A command ended by SIGTERM, which it does not handle (so no `finally`
    runs), leaves no worker running: the kernel kills each worker when the
    command's process dies."""

    script = tmp_path / "hold.py"
    script.write_text(
        "import os, sys, time\n"
        "from spoofsim.harness import runner\n"
        "from spoofsim.harness.config import make_config\n"
        "runner.usable_cpus = lambda: 2\n"
        "def group(ids):\n"
        "    with open(os.path.join(sys.argv[1], f'{ids.start}.pid'), 'w') as f:\n"
        "        f.write(str(os.getpid()))\n"
        "    time.sleep(60)\n"
        "runner.in_groups(make_config({'version': 1, 'scenario': 'GS', 'trials': 512}), group)\n")
    src = str(Path(runner.__file__).resolve().parents[2])
    command = subprocess.Popen([sys.executable, str(script), str(tmp_path)],
                               env={**os.environ, "PYTHONPATH": src})
    pid_file = tmp_path / f"{CHUNK_TRIALS}.pid"
    worker = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        worker = int(pid_file.read_text())
        assert _alive(worker)
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker)
    finally:
        command.kill()
        command.wait()
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)


def _corrupt_syntax(path):
    """A log cut short: the reader refuses it, naming the file."""

    path.write_text(path.read_text()[:-5] + "\n")
    return f"corrupt trial log {path}: Expecting"


def _corrupt_field(path):
    """A log whose outcome is a number: the summary refuses it."""

    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[-1]["payload"]["outcome"] = 5
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return f"corrupt trial log in {path.parent.parent}: trial 900: outcome field 'outcome' is 5"


@pytest.mark.parametrize("corrupt", [_corrupt_syntax, _corrupt_field])
def test_corrupt_log_in_second_group(tmp_path, monkeypatch, capsys, corrupt):
    """A corrupt log in the second group makes `summarize` exit 3 with the
    message it gives in one process."""

    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    assert main(["run", "--scenario", "GS", "--trials", str(TRIALS), "--out", str(out)]) == 0
    message = corrupt(out / "trials" / "trial_00900.jsonl")
    capsys.readouterr()
    results = []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        results.append((main(["summarize", "--out", str(out)]), capsys.readouterr()))
        _no_children()
    code, (stdout, stderr) = results[0]
    assert (code, stdout) == (3, "") and stderr.startswith(f"error: {message}"), stderr
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("trials", [400, TRIALS])
def test_detect_identical_at_every_worker_count(tmp_path, monkeypatch, capsys, trials):
    """`detect` writes the same ``verdicts.csv`` and prints the same line with
    one, two, three or four workers, including where groups end inside a
    chunk (N=400 splits into groups of 200 and of 133 trials)."""

    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    assert main(["run", "--scenario", "TCAS", "--trials", str(trials), "--seed", "11",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    results = []
    for cpus in (1, 2, 3, 4):
        _cpus(monkeypatch, cpus)
        assert main(["detect", "--out", str(out)]) == 0
        results.append((capsys.readouterr().out, (out / "verdicts.csv").read_bytes()))
        _no_children()
    assert results[0][0].startswith("checked ") and results[0][1].count(b"\n") > trials
    assert all(result == results[0] for result in results[1:])


def test_detect_corrupt_position_in_second_group(tmp_path, monkeypatch, capsys):
    """A surveillance position that is not coordinates in the second group
    (trial 250 of 400, at two workers and at four) makes `detect` exit 3
    with the message it gives in one process, and writes no verdicts."""

    out = tmp_path / "out"
    _cpus(monkeypatch, 1)
    assert main(["run", "--scenario", "TCAS", "--trials", "400", "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "trials" / "trial_00250.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    index = next(i for i, r in enumerate(records) if r["kind"] == "surveillance")
    records[index]["payload"]["position_m"] = "abc"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    results = []
    for cpus in (1, 2, 4):
        _cpus(monkeypatch, cpus)
        assert 250 in groups(400)[min(cpus, 2) - 1]
        results.append((main(["detect", "--out", str(out)]), capsys.readouterr()))
        assert not (out / "verdicts.csv").exists()
        _no_children()
    message = (f"error: corrupt trial log {path}: surveillance at t={records[index]['t']}: "
               "position_m must be three finite numbers, got 'abc'\n")
    assert results[0] == (3, ("", message))
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("columns", [1, 4])
def test_normal_draws_split_anywhere_equal_one_draw(columns):
    """`Generator.normal` keeps no state between calls but its bit
    generator's, so `detect`, which draws the jitter of each group's chunks
    in turn, draws the bits of one call over all messages, wherever the
    groups end."""

    rows = 1500
    whole = np.random.default_rng(20190118).normal(0.0, 1e-7, size=(rows, columns))
    for cuts in ([], [1], [7, 7, 8], [3, 250, 251, 1000], list(range(1, rows, 37))):
        rng = np.random.default_rng(20190118)
        parts = [rng.normal(0.0, 1e-7, size=(b - a, columns))
                 for a, b in zip([0, *cuts], [*cuts, rows])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


_LOGS = {scenario: run(make_config({"version": 1, "scenario": scenario, "trials": 60,
                                    "master_seed": 5}))
         for scenario in ("GPWS", "TCAS", "GS")}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_LOGS)), st.data())
def test_merge_of_any_split_equals_one_fold(scenario, data):
    """Merging the folds of consecutive parts of a log sequence, in order,
    gives the fold of the whole sequence, bit for bit."""

    pool = _LOGS[scenario]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=80))
    logs = [pool[i] for i in picks]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(logs)), max_size=5)))
    merged = Summary()
    for a, b in zip([0, *cuts], [*cuts, len(logs)]):
        merged.merge(fold(logs[a:b]))
    assert repr(merged.result()) == repr(fold(logs).result())
