"""File emission: JSON-lines trial logs, CSV summary tables, plain-text report.

All writes are deterministic for a given (config, seed) pair: same content,
same filenames, fixed key ordering.

Trial logs stream through both directions one at a time or one chunk at a
time, so memory does not grow with N.  `emit` writes each chunk of logs and
folds it into the summary before asking for the next chunk, and writes the
run's ``config.json`` last; `load_run` checks that a run directory is
complete from one listing of its trials, then parses each log only when its
caller reaches it.

Every file is written by `write_file`, in place: a file an earlier run left
is overwritten from its start and then cut to the new length, never first
truncated to zero, and its modification time moves on every run.  Trial
logs are read back as raw bytes and decoded as UTF-8 (see `_read_log_text`).
"""

from __future__ import annotations

import csv
import fnmatch
import io
import itertools
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .config import ConfigError, ScenarioConfig, load_config
from .log import TrialLog
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


def _write(path: Path, content: str, written: List[Path]) -> None:
    write_file(path, content)
    written.append(path)


def _sync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"cannot sync {directory}: {exc}") from exc


def _remove_others(directory: Path, pattern: str, keep: Set[str]) -> None:
    """Delete the files in ``directory`` named like ``pattern`` but not in
    ``keep``: what an earlier run into the same directory left there."""

    try:
        with os.scandir(directory) as entries:
            stale = [e.path for e in entries
                     if e.name not in keep and fnmatch.fnmatch(e.name, pattern)]
    except FileNotFoundError:
        return
    for path in stale:
        try:
            os.remove(path)
        except OSError as exc:
            raise RuntimeError(f"cannot remove {path}: {exc}") from exc


def summary_csv(summary: Dict[str, Any]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", summary["scenario"]])
    writer.writerow(["trials", summary["trials"]])
    for name, table in summary["tables"].items():
        writer.writerow([])
        writer.writerow([f"# table: {name}"])
        writer.writerow(table["headers"])
        writer.writerows(table["rows"])
    writer.writerow([])
    writer.writerow(["# statistics"])
    writer.writerow(["Statistic", "Value"])
    for key, value in summary["stats"].items():
        if isinstance(value, dict):
            for sub, v in value.items():
                writer.writerow([f"{key}.{sub}", v])
        else:
            writer.writerow([key, value])
    return buf.getvalue()


def report_text(summary: Dict[str, Any]) -> str:
    lines = [
        f"Scenario: {summary['scenario']}",
        f"Trials:   {summary['trials']}",
        "",
        "Outcomes:",
    ]
    for outcome, count in summary["outcomes"].items():
        lines.append(f"  {outcome}: {count}")
    for name, table in summary["tables"].items():
        lines.append("")
        lines.append(f"Table: {name}")
        widths = [
            max(len(str(x)) for x in [h] + [row[i] for row in table["rows"]])
            for i, h in enumerate(table["headers"])
        ] if table["rows"] else [len(h) for h in table["headers"]]
        lines.append("  " + "  ".join(
            str(h).ljust(w) for h, w in zip(table["headers"], widths)
        ))
        for row in table["rows"]:
            lines.append("  " + "  ".join(
                str(x).ljust(w) for x, w in zip(row, widths)
            ))
    lines.append("")
    lines.append("Statistics:")
    for key, value in summary["stats"].items():
        lines.append(f"  {key}: {value}")
    lines.append("")
    return "\n".join(lines)


def trace_csv(log: TrialLog) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_s", "altitude_ft", "indicated_agl_ft"])
    for event in log.iter_kind("state"):
        p = event["payload"]
        writer.writerow([event["t"], p.get("altitude_ft"), p.get("indicated_agl_ft")])
    return buf.getvalue()


#: File name of a trial's log in a run directory's ``trials`` directory.
_TRIAL_LOG = "trial_{:05d}.jsonl"
#: File name of a trial's altitude trace, in its ``traces`` directory.
_TRACE = "trial_{:05d}.csv"


def trial_path(out_dir: str | Path, trial_id: int) -> str:
    """Where a run directory keeps trial ``trial_id``'s log.  A plain string:
    `pathlib` interns every path component it parses, and the interned-string
    table grows with each run's thousands of distinct file names."""

    return os.path.join(out_dir, "trials", _TRIAL_LOG.format(trial_id))


def emit(cfg: ScenarioConfig, chunks: Iterable[Sequence[TrialLog]],
         summary: Summary) -> List[Path]:
    """Write a run directory at ``cfg.output_dir`` from the trial logs in
    ``chunks``: each chunk's logs and altitude traces, folded into ``summary``
    before the next chunk is asked for; then the summary and report; then the
    config.  Files an earlier run left there are overwritten in place, and
    trial logs and traces this run did not write are removed.

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

    written: List[Path] = []
    log_names: Set[str] = set()
    trace_names: Set[str] = set()
    for chunk in chunks:
        for log in chunk:
            name = _TRIAL_LOG.format(log.trial_id)
            _write(trials_dir / name, log.to_jsonl(), written)
            log_names.add(name)
            if any(True for _ in log.iter_kind("state")):
                if not trace_names:
                    traces_dir.mkdir(parents=True, exist_ok=True)
                name = _TRACE.format(log.trial_id)
                _write(traces_dir / name, trace_csv(log), written)
                trace_names.add(name)
            summary.add(log)
        # Otherwise the loop variables hold this chunk (and its last log)
        # while the next one is made.
        chunk = log = None
    result = summary.result()
    _write(out / "summary.csv", summary_csv(result), written)
    _write(out / "report.txt", report_text(result), written)
    _remove_others(trials_dir, "trial_*.jsonl", log_names)
    _remove_others(traces_dir, "trial_*.csv", trace_names)

    staged = out / "config.json.tmp"
    _write(staged, json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n", [])
    try:
        os.replace(staged, config)
    except OSError as exc:
        raise RuntimeError(f"cannot write {config}: {exc}") from exc
    written.append(config)
    return written


def load_run(out_dir: str | Path) -> Tuple[ScenarioConfig, Iterator[TrialLog]]:
    """The config a run directory records and an iterator over its trial
    logs, tagged with the config's scenario (see `load_logs`).  A missing or
    invalid ``config.json`` is a corrupt run directory."""

    try:
        cfg = load_config(Path(out_dir) / "config.json")
    except ConfigError as exc:
        raise RuntimeError(f"corrupt run directory: {exc}") from exc
    return cfg, load_logs(out_dir, cfg)


def load_logs(out_dir: str | Path, cfg: ScenarioConfig) -> Iterator[TrialLog]:
    """The trial logs of a run directory produced under ``cfg``, in trial
    order.  Refuses an incomplete set at once, from one listing of the
    directory: it must hold exactly the logs of trials 0..cfg.trials-1, each
    in its own file.  Each log is read and checked only when the iterator
    reaches it, so a corrupt one raises there."""

    trials_dir = Path(out_dir) / "trials"
    try:
        names = fnmatch.filter(os.listdir(trials_dir), "trial_*.jsonl")
    except (FileNotFoundError, NotADirectoryError):
        names = []
    except OSError as exc:
        raise RuntimeError(f"cannot read {trials_dir}: {exc}") from exc
    present = set(names)
    # At most five missing ids: every id looked at before the fifth is a file
    # present or a missing one, so the search costs what the directory holds,
    # whatever N config.json claims.
    missing = list(itertools.islice(
        (i for i in range(cfg.trials) if _TRIAL_LOG.format(i) not in present), 5))
    if missing or len(names) != cfg.trials:
        raise RuntimeError(
            f"{trials_dir} holds {len(names)} trial logs, expected ids 0..{cfg.trials - 1}"
            + (f"; missing {missing}" if missing else "")
        )
    return _read_logs(out_dir, cfg)


def _read_log_text(path: str) -> str:
    """The file at ``path`` decoded as UTF-8, with the newline translation of
    a file opened in text mode (``"\r\n"`` and ``"\r"`` read as ``"\n"``),
    read without the text-IO layer."""

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
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_logs(out_dir: str | Path, cfg: ScenarioConfig) -> Iterator[TrialLog]:
    for trial_id in range(cfg.trials):
        path = trial_path(out_dir, trial_id)
        blob = _read_log_text(path)
        try:
            log = TrialLog.from_jsonl(blob, cfg.scenario)
        except (ValueError, KeyError, OverflowError, RecursionError) as exc:
            raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc
        if log.trial_id != trial_id:
            raise RuntimeError(f"corrupt trial log {path}: it holds trial {log.trial_id}")
        yield log
