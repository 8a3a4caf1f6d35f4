"""File emission: JSON-lines trial logs, CSV summary tables, plain-text report.

All writes are deterministic for a given (config, seed) pair: same content,
same filenames, fixed key ordering.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .config import ConfigError, ScenarioConfig, load_config
from .log import TrialLog


def _write(path: Path, content: str, written: List[Path]) -> None:
    try:
        path.write_text(content)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
    written.append(path)


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


def emit(
    logs: Sequence[TrialLog],
    summary: Dict[str, Any],
    out_dir: str | Path,
    config_dict: Dict[str, Any] | None = None,
) -> List[Path]:
    out = Path(out_dir)
    trials_dir = out / "trials"
    try:
        trials_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {trials_dir}: {exc}") from exc

    written: List[Path] = []
    if config_dict is not None:
        _write(out / "config.json", json.dumps(config_dict, indent=2, sort_keys=True) + "\n", written)
    for log in logs:
        _write(trials_dir / f"trial_{log.trial_id:05d}.jsonl", log.to_jsonl(), written)
    _write(out / "summary.csv", summary_csv(summary), written)
    _write(out / "report.txt", report_text(summary), written)

    traced = [log for log in logs if any(True for _ in log.iter_kind("state"))]
    if traced:
        traces_dir = out / "traces"
        traces_dir.mkdir(parents=True, exist_ok=True)
        for log in traced:
            _write(traces_dir / f"trial_{log.trial_id:05d}.csv", trace_csv(log), written)
    return written


def load_run_config(out_dir: str | Path) -> Optional[ScenarioConfig]:
    """The config a run directory was produced with, or None if it has no
    ``config.json``.  An unreadable or invalid one is a corrupt artefact."""

    path = Path(out_dir) / "config.json"
    if not path.exists():
        return None
    try:
        return load_config(path)
    except ConfigError as exc:
        raise RuntimeError(f"corrupt run directory: {exc}") from exc


def load_logs(out_dir: str | Path, trials: Optional[int], scenario: str = "") -> List[TrialLog]:
    """Every trial log of a run directory.  Refuses an incomplete set: ids must
    be 0..trials-1 (0..N-1 for the N logs found when ``trials`` is None)."""

    out = Path(out_dir)
    trials_dir = out / "trials"
    if not trials_dir.is_dir():
        raise RuntimeError(f"no trial logs found under {trials_dir}")
    logs = []
    for path in sorted(trials_dir.glob("trial_*.jsonl")):
        try:
            logs.append(TrialLog.from_jsonl(path.read_text(), scenario=scenario))
        except OSError as exc:
            raise RuntimeError(f"cannot read {path}: {exc}") from exc
        except (ValueError, KeyError) as exc:
            raise RuntimeError(f"corrupt trial log {path}: {exc}") from exc
    if not logs:
        raise RuntimeError(f"no trial logs found under {trials_dir}")
    expected = len(logs) if trials is None else trials
    ids = sorted(log.trial_id for log in logs)
    if ids != list(range(expected)):
        missing = sorted(set(range(expected)) - set(ids))
        raise RuntimeError(
            f"{trials_dir} holds {len(ids)} trial logs, expected ids 0..{expected - 1}"
            + (f"; missing {missing[:5]}" if missing else "")
        )
    return logs
