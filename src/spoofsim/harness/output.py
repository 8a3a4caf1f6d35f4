"""File emission: JSON-lines trial logs, CSV summary tables, plain-text report.

All writes are deterministic for a given (config, seed) pair: same content,
same filenames, fixed key ordering.

Trial logs stream through both directions one at a time or one chunk at a
time, so memory does not grow with N.  `emit` runs the trials in groups,
one per worker (`runner.in_groups`), writes each chunk of logs and folds it
into a summary before the group runs its next chunk, and writes the run's
``config.json`` last; `load_run` checks that a run directory is complete
from one listing of its trials and returns its config, and `read_logs`, the
one log reader, parses each log of an id range only when its caller reaches
it.

Every file is written by `write_file`, in place: a file an earlier run left
is overwritten from its start and then cut to the new length, never first
truncated to zero, and its modification time moves on every run.  Trial
logs are read back as raw bytes and decoded as UTF-8, their line ends left
as they are (see `_read_log_text`).
"""

from __future__ import annotations

import csv
import fnmatch
import io
import itertools
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .config import ConfigError, ScenarioConfig, load_config
from .log import TrialLog
from .runner import in_groups, run_chunks
from .scenarios import SCENARIOS
from .summary import Summary


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8.  An existing file is overwritten
    in place and then cut to the new length, never truncated to zero first:
    on ext4, truncating a file to zero and writing it again (what opening
    with ``O_TRUNC`` does) costs several times an in-place rewrite, and a
    rerun into a used run directory rewrites thousands of files."""

    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _sync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"cannot sync {directory}: {exc}") from exc


def _names(directory: str | Path, pattern: str) -> Iterator[str]:
    """The names in ``directory`` matching ``pattern``, one at a time (none if it is missing)."""

    match = re.compile(fnmatch.translate(pattern)).match
    try:
        with os.scandir(directory) as entries:
            yield from (e.name for e in entries if match(e.name))
    except (FileNotFoundError, NotADirectoryError):
        pass
    except OSError as exc:
        raise RuntimeError(f"cannot read {directory}: {exc}") from exc


def _remove_others(directory: Path, pattern: str, keep: Callable[[str], bool]) -> None:
    """Delete the files in ``directory`` named like ``pattern`` that ``keep``
    refuses: what an earlier run into the same directory left there."""

    for path in [os.path.join(directory, n) for n in _names(directory, pattern) if not keep(n)]:
        try:
            os.remove(path)
        except OSError as exc:
            raise RuntimeError(f"cannot remove {path}: {exc}") from exc


def summary_csv(summary: Dict[str, Any]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([["scenario", summary["scenario"]], ["trials", summary["trials"]]])
    for name, table in summary["tables"].items():
        writer.writerows([[], [f"# table: {name}"], table["headers"], *table["rows"]])
    writer.writerows([[], ["# statistics"], ["Statistic", "Value"]])
    for key, value in summary["stats"].items():
        if isinstance(value, dict):
            writer.writerows([f"{key}.{sub}", v] for sub, v in value.items())
        else:
            writer.writerow([key, value])
    return buf.getvalue()


def report_text(summary: Dict[str, Any]) -> str:
    lines = [f"Scenario: {summary['scenario']}", f"Trials:   {summary['trials']}", "",
             "Outcomes:", *(f"  {outcome}: {n}" for outcome, n in summary["outcomes"].items())]
    for name, table in summary["tables"].items():
        rows = [table["headers"], *table["rows"]]
        widths = [max(len(str(x)) for x in column) for column in zip(*rows)]
        lines += ["", f"Table: {name}"]
        lines += ["  " + "  ".join(str(x).ljust(w) for x, w in zip(row, widths)) for row in rows]
    lines += ["", "Statistics:", *(f"  {key}: {value}" for key, value in summary["stats"].items())]
    return "\n".join(lines) + "\n"


#: File name of a trial's log in a run directory's ``trials`` directory.
_TRIAL_LOG = "trial_{:05d}.jsonl"
#: File name of a trial's altitude trace, in its ``traces`` directory.
_TRACE = "trial_{:05d}.csv"


def trial_path(out_dir: str | Path, trial_id: int) -> str:
    """Where a run directory keeps trial ``trial_id``'s log.  A plain string:
    `pathlib` interns every path component it parses, and the interned-string
    table grows with each run's thousands of distinct file names."""

    return os.path.join(out_dir, "trials", _TRIAL_LOG.format(trial_id))


def _log_id(name: str, trials: int) -> Optional[int]:
    """The trial whose log a run of ``trials`` trials keeps in file ``name``:
    `_TRIAL_LOG` of an id below ``trials``, exactly.  None for any other name,
    such as ``trial_1.jsonl`` or ``trial_000001.jsonl``."""

    digits = name[6:-6]
    trial_id = int(digits) if digits.isdecimal() else trials
    return trial_id if trial_id < trials and _TRIAL_LOG.format(trial_id) == name else None


class FilesWritten(int):
    """The number of files `emit` wrote.  Iterating it makes their paths from
    the run's id range: perfbench's traced mode sizes the files that way."""

    paths: Callable[[], Iterator[Path]]

    def __iter__(self) -> Iterator[Path]:
        return self.paths()


def emit(cfg: ScenarioConfig, summary: Summary) -> FilesWritten:
    """Run the trials of ``cfg`` and write its run directory at
    ``cfg.output_dir``: each trial's log and altitude trace, then the summary
    and report, then the config.  Files an earlier run left there are
    overwritten in place, and trial logs and traces this run did not write
    are removed.  The trials' summary is merged into ``summary``, a `Summary`
    of ``cfg.scenario``.  Returns how many files it wrote; it keeps no path
    per trial.

    The trials run in `runner.in_groups`, whose groups are contiguous id
    ranges of equal shares, one per worker.  Each group runs its part of each
    chunk (`runner.run_chunks`) in turn, writes the chunk's log texts and
    altitude traces, and merges the chunk's summary into the group's, a
    summary of ``cfg.scenario``, before it runs the next.
    Every chunk's texts and traces are written from the values of its
    rounds, without a `TrialLog`.  This process writes the
    summary, the report and the config only once every group has succeeded.

    A directory is a complete run only once its ``config.json`` is there:
    emit removes an earlier run's before it writes any trial log, and writes
    its own last, under a temporary name moved into place, so a run that fails
    midway leaves a directory that `load_run` refuses."""

    out = Path(cfg.output_dir)
    trials_dir = out / "trials"
    traces_dir = out / "traces"
    config = out / "config.json"
    try:
        trials_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {trials_dir}: {exc}") from exc
    try:
        config.unlink()
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise RuntimeError(f"cannot remove {config}: {exc}") from exc
    else:
        # Trial logs are overwritten in place, so the removal must reach the
        # disk before any of them does: an earlier config.json must not
        # survive a power loss beside a mixture of old and new logs.
        _sync_directory(out)

    def write_group(ids: range) -> Tuple[Summary, List[str]]:
        """Write and fold the trials ``ids``; their trace names."""

        part = SCENARIOS[cfg.scenario].summary(cfg.scenario)
        trace_names: List[str] = []
        trial_id = ids.start
        for chunk in run_chunks(cfg, ids):
            for text in chunk.texts:
                write_file(trial_path(out, trial_id), text)
                trial_id += 1
            for trace_id, text in chunk.traces:
                if not trace_names:
                    traces_dir.mkdir(parents=True, exist_ok=True)
                name = _TRACE.format(trace_id)
                write_file(os.path.join(traces_dir, name), text)
                trace_names.append(name)
            part.merge(chunk.summary)
            # Otherwise the loop variables hold this chunk (and its last
            # text) while the next one is made.
            chunk = text = None
        return part, trace_names

    trace_names: List[str] = []
    for part, names in in_groups(cfg, write_group):
        summary.merge(part)
        trace_names += names
    result = summary.result()
    write_file(out / "summary.csv", summary_csv(result))
    write_file(out / "report.txt", report_text(result))
    _remove_others(trials_dir, "trial_*.jsonl", lambda name: _log_id(name, cfg.trials) is not None)
    _remove_others(traces_dir, "trial_*.csv", set(trace_names).__contains__)

    staged = out / "config.json.tmp"
    write_file(staged, json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n")
    try:
        os.replace(staged, config)
    except OSError as exc:
        raise RuntimeError(f"cannot write {config}: {exc}") from exc
    written = FilesWritten(cfg.trials + len(trace_names) + 3)
    written.paths = lambda: itertools.chain(
        (Path(trial_path(out, i)) for i in range(cfg.trials)),
        (traces_dir / name for name in trace_names),
        (out / "summary.csv", out / "report.txt", config))
    return written


def load_run(out_dir: str | Path) -> ScenarioConfig:
    """The config a run directory records, once one listing of its
    ``trials`` directory shows exactly cfg.trials ``trial_*.jsonl`` files,
    all named by `_log_id`, which makes them the logs of trials
    0..cfg.trials-1.  A missing or invalid ``config.json`` is a corrupt run
    directory.  The logs themselves are read and checked by `read_logs`."""

    try:
        cfg = load_config(Path(out_dir) / "config.json")
    except ConfigError as exc:
        raise RuntimeError(f"corrupt run directory: {exc}") from exc
    trials_dir = Path(out_dir) / "trials"
    found = named = 0
    for name in _names(trials_dir, "trial_*.jsonl"):
        found += 1
        named += _log_id(name, cfg.trials) is not None
    if found != cfg.trials or named != cfg.trials:
        present = {_log_id(name, cfg.trials) for name in _names(trials_dir, "trial_*.jsonl")}
        # At most five missing ids: every id looked at before the fifth is a
        # file present or a missing one, so the search costs what the
        # directory holds, whatever N config.json claims.
        missing = list(itertools.islice((i for i in range(cfg.trials) if i not in present), 5))
        raise RuntimeError(
            f"{trials_dir} holds {found} trial logs, expected ids 0..{cfg.trials - 1}"
            + (f"; missing {missing}" if missing else "")
        )
    return cfg


def _read_log_text(path: str) -> str:
    """The file at ``path`` decoded as UTF-8, read without the text-IO layer.
    Its line ends are left as they are: `TrialLog.from_jsonl` ends lines at
    ``"\r\n"`` and ``"\r"`` too, so it reads the records a text-mode read
    would give it."""

    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            data = os.read(fd, os.fstat(fd).st_size + 1)
            while more := os.read(fd, 65536):
                data += more
        finally:
            os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc


def read_logs(out_dir: str | Path, cfg: ScenarioConfig, ids: range) -> Iterator[TrialLog]:
    """The logs of trials ``ids`` of a run directory produced under ``cfg``
    (`load_run` checks its listing), tagged with its scenario, in trial
    order.  Each is read and checked only when the iterator reaches it, so a
    corrupt one raises there."""

    for trial_id in ids:
        path = trial_path(out_dir, trial_id)
        blob = _read_log_text(path)
        try:
            log = TrialLog.from_jsonl(blob, cfg.scenario)
        except (ValueError, KeyError, OverflowError, RecursionError) as exc:
            raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc
        if log.trial_id != trial_id:
            raise RuntimeError(f"corrupt trial log {path}: it holds trial {log.trial_id}")
        yield log
