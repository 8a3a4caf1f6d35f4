"""`run` and `summarize` in groups of whole chunks, forked: the same files,
the same summaries and the same failures at every worker count, and no
process left behind."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spoofsim.harness import runner
from spoofsim.harness.cli import main
from spoofsim.harness.config import make_config
from spoofsim.harness.runner import CHUNK_TRIALS, groups, in_groups, run
from spoofsim.harness.scenarios import SCENARIOS
from spoofsim.harness.summary import Summary, fold

#: Four full chunks and a short one: up to four workers, the last group
#: ending in the short chunk.
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


def test_groups_are_whole_chunks(monkeypatch):
    """One group per usable CPU, never more than the full chunks, each a
    contiguous run of whole chunks covering the trials in order."""

    for cpus in (1, 2, 3, 4, 64):
        _cpus(monkeypatch, cpus)
        for trials in (1, CHUNK_TRIALS - 1, CHUNK_TRIALS, 400, TRIALS, 4000, 10**6):
            ranges = groups(trials)
            assert len(ranges) == max(1, min(cpus, trials // CHUNK_TRIALS))
            assert ranges[0].start == 0 and ranges[-1].stop == trials
            for a, b in zip(ranges, ranges[1:]):
                assert a.stop == b.start and a.stop % CHUNK_TRIALS == 0
            assert all(len(r) >= CHUNK_TRIALS or len(ranges) == 1 for r in ranges)
    _cpus(monkeypatch, 2)
    assert groups(400) == [range(400)]  # the tcas-detect workload: one worker


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

    def group(ids):
        if ids.start >= 2 * CHUNK_TRIALS:
            raise KeyError(f"group at {ids.start}")
        return len(ids)

    def dies(ids):
        if ids.start:
            os._exit(0)
        return len(ids)

    _cpus(monkeypatch, 4)
    cfg = make_config({"version": 1, "scenario": "GS", "trials": TRIALS})
    with pytest.raises(KeyError, match=f"group at {2 * CHUNK_TRIALS}"):
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
