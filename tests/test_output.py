"""How a run directory's files are written and read back: in place, never
truncated to zero, and read as UTF-8 with text mode's newline translation."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from spoofsim.harness import output, run, runner
from spoofsim.harness.cli import main
from spoofsim.harness.config import make_config
from spoofsim.harness.log import TrialLog
from spoofsim.harness.output import read_logs, write_file


def test_write_file_overwrites_in_place(tmp_path):
    """A longer, a shorter and an empty text each leave exactly their bytes,
    in the same file; non-ASCII text is written as UTF-8."""

    path = tmp_path / "f.txt"
    write_file(path, "a longer first text\n")
    inode = path.stat().st_ino
    for text in ("short\n", "", "caf\xe9 \u2028\n"):
        write_file(path, text)
        assert path.read_bytes() == text.encode("utf-8")
        assert path.stat().st_ino == inode


def test_write_file_failure_names_the_path(tmp_path):
    path = tmp_path / "dir"
    path.mkdir()
    with pytest.raises(RuntimeError, match=f"^cannot write {path}: "):
        write_file(path, "x")


def test_rerun_never_truncates_a_log_to_zero(tmp_path, monkeypatch, capsys):
    """A rerun into a used run directory opens no trial log with O_TRUNC and
    cuts each one only to its new, non-zero length."""

    out = str(tmp_path / "out")
    argv = ["run", "--scenario", "GS", "--trials", "300", "--out", out]
    assert main(argv + ["--seed", "4"]) == 0
    # The spies see this process only: one worker writes every log.
    monkeypatch.setattr(runner, "usable_cpus", lambda: 1)
    paths = {}
    opens, cuts = [], []
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        paths[fd] = os.fspath(path)
        opens.append((os.fspath(path), flags))
        return fd

    def spy_ftruncate(fd, length):
        cuts.append((paths[fd], length))
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    assert main(argv) == 0
    monkeypatch.undo()
    capsys.readouterr()

    logs = [(p, flags) for p, flags in opens if p.endswith(".jsonl")]
    assert len(logs) == 300
    assert all(flags & os.O_WRONLY and not flags & os.O_TRUNC for _, flags in logs)
    log_cuts = [(p, n) for p, n in cuts if p.endswith(".jsonl")]
    assert len(log_cuts) == 300
    assert all(n == os.path.getsize(p) > 0 for p, n in log_cuts)


def test_rerun_syncs_the_directory_once_before_any_log(tmp_path, monkeypatch, capsys):
    """A rerun makes the removal of the earlier config.json durable, with one
    fsync of the run directory, before it overwrites any trial log; a run
    into a new directory has nothing to remove and syncs nothing."""

    out = tmp_path / "out"
    argv = ["run", "--scenario", "GS", "--trials", "5", "--out", str(out)]
    calls = []
    real_open, real_fsync = os.open, os.fsync

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        calls.append(("open", os.fspath(path), fd))
        return fd

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(("fsync", fd)))
    for expected_syncs in (0, 1):
        calls.clear()
        assert main(argv) == 0
        syncs = [i for i, call in enumerate(calls) if call[0] == "fsync"]
        assert len(syncs) == expected_syncs
    monkeypatch.undo()
    capsys.readouterr()
    first_log = next(i for i, call in enumerate(calls)
                     if call[0] == "open" and call[1].endswith(".jsonl"))
    assert syncs[0] < first_log
    assert calls[syncs[0] - 1] == ("open", str(out), calls[syncs[0]][1])


# ---------------------------------------------------------------------------
# reading logs back


def _ref_load(path, scenario):
    """The reader `output._read_logs` replaced, kept as the reference: the
    file read in text mode (UTF-8, universal newlines), then `from_jsonl`.
    What it gives: the log's ids and events (by repr, so that NaNs compare),
    or the error read_logs raises, or "undecodable"."""

    try:
        with open(path, encoding="utf-8") as f:
            blob = f.read()
    except UnicodeDecodeError:
        return "undecodable"
    try:
        log = TrialLog.from_jsonl(blob, scenario)
    except (ValueError, KeyError, OverflowError) as exc:
        return RuntimeError, f"corrupt trial log {path}: {exc}"
    if log.trial_id != 0:
        return RuntimeError, f"corrupt trial log {path}: it holds trial {log.trial_id}"
    return log.trial_id, log.seed, repr(log.events)


def _load(out, cfg):
    try:
        log = next(read_logs(out, cfg, range(1)))
    except RuntimeError as exc:
        return RuntimeError, str(exc)
    return log.trial_id, log.seed, repr(log.events)


def _insert(data, draw, piece):
    i = draw(st.integers(0, len(data)))
    return data[:i] + piece + data[i:]


_MUTATIONS = [
    lambda data, draw: data.replace(b"\n", b"\r\n"),
    lambda data, draw: _insert(data, draw, draw(st.sampled_from([b"\r", b"\r\n", b"\r\r\n"]))),
    lambda data, draw: _insert(data, draw, draw(st.sampled_from(
        [b"\x80", b"\xc3", b"\xff", b"\xed\xa0\x80", b"\xf0\x9f", b"\xc0\xaf"]))),
    lambda data, draw: _insert(data, draw, draw(st.sampled_from(
        ["\xe9", "\u2028", "\u0085", "\U0001f6eb"])).encode("utf-8")),
    lambda data, draw: b"\xef\xbb\xbf" + data,
    lambda data, draw: data[:draw(st.integers(0, len(data)))],
    lambda data, draw: b"",
]


@pytest.fixture(scope="module")
def one_trial_runs(tmp_path_factory):
    """scenario -> (config, run directory, trial 0's log bytes) at N=1."""

    runs = {}
    for scenario in ("GS", "TCAS", "GPWS"):
        out = tmp_path_factory.mktemp(scenario)
        (out / "trials").mkdir()
        cfg = make_config({"version": 1, "scenario": scenario, "trials": 1,
                           "master_seed": 11, "output_dir": str(out)})
        runs[scenario] = cfg, out, run(cfg)[0].to_jsonl().encode("utf-8")
    return runs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_logs_reads_as_text_mode(one_trial_runs, data):
    """Property: on a real log's bytes with up to three mutations (CRLF line
    ends, lone or doubled carriage returns, invalid UTF-8, valid non-ASCII
    characters, a byte-order mark, a cut at any byte, an empty file),
    `read_logs` gives the events, or the error with its message, that a
    text-mode read gives, from the file's text with its line ends as they
    are.  The one difference allowed: bytes that are not UTF-8 are a
    ``corrupt trial log`` naming the file, where the text-mode read raised a
    bare decoding error."""

    scenario = data.draw(st.sampled_from(sorted(one_trial_runs)))
    cfg, out, blob = one_trial_runs[scenario]
    for _ in range(data.draw(st.integers(1, 3))):
        blob = data.draw(st.sampled_from(_MUTATIONS))(blob, data.draw)
    path = output.trial_path(out, 0)
    with open(path, "wb") as f:
        f.write(blob)
    got, expected = _load(out, cfg), _ref_load(path, scenario)
    if expected == "undecodable":
        assert got[0] is RuntimeError
        assert got[1].startswith(f"corrupt trial log {path}: 'utf-8' codec can't decode")
    else:
        assert got == expected
        with open(path, encoding="utf-8", newline="") as f:
            assert output._read_log_text(path) == f.read()
