"""File emission: JSON-lines trial logs, CSV summary tables, plain-text report.

All writes are deterministic for a given (config, seed) pair: same content,
same filenames, fixed key ordering.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Sequence, Set, Tuple

from .config import ConfigError, ScenarioConfig, load_config
from .log import TrialLog


def _write(path: Path, content: str, written: List[Path]) -> None:
    try:
        path.write_text(content)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    written.append(path)


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


def emit(cfg: ScenarioConfig, logs: Sequence[TrialLog], summary: Dict[str, Any]) -> List[Path]:
    """Write a run directory at ``cfg.output_dir``: its config, every trial log,
    the summary and report, and any altitude traces.  Files an earlier run
    left there are overwritten in place, and trial logs and traces this run
    did not write are removed."""

    out = Path(cfg.output_dir)
    trials_dir = out / "trials"
    try:
        trials_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {trials_dir}: {exc}") from exc

    written: List[Path] = []
    _write(out / "config.json", json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n", written)
    log_names = set()
    for log in logs:
        name = _TRIAL_LOG.format(log.trial_id)
        _write(trials_dir / name, log.to_jsonl(), written)
        log_names.add(name)
    _write(out / "summary.csv", summary_csv(summary), written)
    _write(out / "report.txt", report_text(summary), written)

    traces_dir = out / "traces"
    traced = [log for log in logs if any(True for _ in log.iter_kind("state"))]
    trace_names = set()
    if traced:
        traces_dir.mkdir(parents=True, exist_ok=True)
        for log in traced:
            name = _TRACE.format(log.trial_id)
            _write(traces_dir / name, trace_csv(log), written)
            trace_names.add(name)
    _remove_others(trials_dir, "trial_*.jsonl", log_names)
    _remove_others(traces_dir, "trial_*.csv", trace_names)
    return written


def load_run(out_dir: str | Path) -> Tuple[ScenarioConfig, List[TrialLog]]:
    """The config a run directory records and its trial logs, tagged with the
    config's scenario.  A missing or invalid ``config.json`` is a corrupt run
    directory."""

    try:
        cfg = load_config(Path(out_dir) / "config.json")
    except ConfigError as exc:
        raise RuntimeError(f"corrupt run directory: {exc}") from exc
    return cfg, load_logs(out_dir, cfg)


def load_logs(out_dir: str | Path, cfg: ScenarioConfig) -> List[TrialLog]:
    """The trial logs of a run directory produced under ``cfg``, in trial
    order.  Refuses an incomplete set: the directory must hold exactly the
    logs of trials 0..cfg.trials-1, each in its own file."""

    trials_dir = Path(out_dir) / "trials"
    logs, missing = [], []
    for trial_id in range(cfg.trials):
        path = trial_path(out_dir, trial_id)
        try:
            with open(path) as f:
                blob = f.read()
        except FileNotFoundError:
            missing.append(trial_id)
            continue
        except OSError as exc:
            raise RuntimeError(f"cannot read {path}: {exc}") from exc
        try:
            log = TrialLog.from_jsonl(blob, cfg.scenario)
        except (ValueError, KeyError) as exc:
            raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc
        if log.trial_id != trial_id:
            raise RuntimeError(f"corrupt trial log {path}: it holds trial {log.trial_id}")
        logs.append(log)
    found = len(fnmatch.filter(os.listdir(trials_dir), "trial_*.jsonl")) \
        if trials_dir.is_dir() else 0
    if missing or found != cfg.trials:
        raise RuntimeError(
            f"{trials_dir} holds {found} trial logs, expected ids 0..{cfg.trials - 1}"
            + (f"; missing {missing[:5]}" if missing else "")
        )
    return logs
