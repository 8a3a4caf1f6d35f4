"""Command-line interface.

Subcommands: run, summarize, cost, detect, validate-config.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import sentinel
from .config import ConfigError, default_config_dict, field_errors, load_config, make_config, read_config
from .cost import all_cost_reports
from .log import TrialLog
from .output import emit, load_run, read_logs, summary_csv, trial_path, write_file
from .runner import chunks, in_groups
from .scenarios import SCENARIOS
from .summary import Summary, fold

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofsim",
        description="Deterministic avionics attack-response simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags: Dict[str, Dict[str, Any]] = {
        "--scenario": {"choices": list(SCENARIOS), "help": "scenario to simulate"},
        "--trials": {"type": int, "help": "number of trials"},
        "--seed": {"type": int, "help": "master seed"},
        "--out": {"help": "output directory"},
        "--config": {"help": "path to a JSON config file"},
    }
    # Each subcommand declares only the flags it reads.  A run directory's
    # config.json records its scenario, trial count and settings, so the
    # commands that read one require --out and take nothing that restates it.
    for command, help_text, names, required in (
        ("run", "run trials and emit logs and summaries", list(flags), ()),
        ("summarize", "summarize a run directory", ["--out"], ("--out",)),
        ("cost", "print the disruption-cost table", ["--out"], ()),
        ("detect", "run integrity checks over a run directory",
         ["--out", "--config", "--scenario", "--seed"], ("--out",)),
        ("validate-config", "validate a config file", ["--config"], ()),
    ):
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(name, required=name in required, **flags[name])
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # Flags over the file's own settings: make_config adds the run's scenario's overrides.
    data = read_config(args.config)[0] if args.config else default_config_dict(args.scenario)
    given = {"scenario": args.scenario, "trials": args.trials, "master_seed": args.seed,
             "output_dir": args.out or None}
    cfg = make_config({**data, **{k: v for k, v in given.items() if v is not None}})
    summary = Summary()
    written = emit(cfg, summary)
    print(f"{cfg.scenario}: {cfg.trials} trials -> {written} files in {cfg.output_dir}")
    for key, value in summary.result()["stats"].items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    # load_run refuses an incomplete directory here, before any group starts.
    cfg = load_run(args.out)
    summary = Summary()
    try:
        for part in in_groups(cfg, lambda ids: fold(read_logs(args.out, cfg, ids))):
            summary.merge(part)
        csv_text = summary_csv(summary.result())
    except (ValueError, OverflowError) as exc:
        # OverflowError: the standard deviation of numbers each within the
        # float range can still fall outside it (1e200 beside 1,000 ft).
        raise RuntimeError(f"corrupt trial log in {args.out}: {exc}") from exc
    sys.stdout.write(csv_text)
    write_file(Path(args.out) / "summary.csv", csv_text)
    return EXIT_OK


def _cmd_cost(args: argparse.Namespace) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "aircraft_type", "event", "gallons", "extra_fuel_kg", "usd",
        "diversion_band_gbp", "note",
    ])
    for report in all_cost_reports():
        record = report.to_record()
        writer.writerow([
            record["aircraft_type"], record["event"], record["gallons"],
            record["extra_fuel_kg"], record["usd"],
            "-".join(str(int(v)) for v in record["diversion_band_gbp"])
            if record["diversion_band_gbp"] else "",
            record["note"],
        ])
    sys.stdout.write(buf.getvalue())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_file(out / "costs.csv", buf.getvalue())
    return EXIT_OK


#: A position in a surveillance record: three finite numbers, never bools.
_COORDINATE = (int, float)


def _is_position(value: Any) -> bool:
    if type(value) is not list or len(value) != 3:
        return False
    x, y, z = value
    try:
        return (type(x) in _COORDINATE and type(y) in _COORDINATE and type(z) in _COORDINATE
                and math.isfinite(x) and math.isfinite(y) and math.isfinite(z))
    except OverflowError:   # an integer beyond the float range
        return False


#: One chunk of surveillance messages: subjects, emission times, true
#: positions (M, 3) and claimed positions (M, 3).
_Messages = Tuple[List[str], List[float], np.ndarray, np.ndarray]


def _surveillance(out: str, logs: Iterable[TrialLog]) -> Optional[_Messages]:
    """The surveillance messages of ``logs`` that carry both a true and a
    claimed position, in log order; None if there are none.  A message
    whose positions are not coordinates is a corrupt trial log, raised as
    soon as its log is read."""

    subjects: List[str] = []
    times: List[float] = []
    true_pos: List[List[float]] = []
    claimed: List[List[float]] = []
    for log in logs:
        for event in log.iter_kind("surveillance"):
            p = event["payload"]
            position, claim = p.get("position_m"), p.get("claimed_position_m")
            if position is None or claim is None:
                continue
            for key, value in (("position_m", position), ("claimed_position_m", claim)):
                if not _is_position(value):
                    raise RuntimeError(
                        f"corrupt trial log {trial_path(out, log.trial_id)}: surveillance at "
                        f"t={event['t']}: {key} must be three finite numbers, got {value!r}")
            subjects.append(f"trial{log.trial_id}/t{event['t']}")
            times.append(event["t"])
            true_pos.append(position)
            claimed.append(claim)
    if not subjects:
        return None
    return subjects, times, np.array(true_pos, dtype=float), np.array(claimed, dtype=float)


def _cmd_detect(args: argparse.Namespace) -> int:
    for error in [] if args.seed is None else field_errors("master_seed", args.seed):
        raise ConfigError(f"--seed: {error}")
    # load_run refuses an incomplete directory here, before any group starts.
    run_cfg = load_run(args.out)
    if args.scenario and args.scenario != run_cfg.scenario:
        raise ConfigError(f"--scenario {args.scenario} contradicts the {run_cfg.scenario} "
                          f"run in {args.out}")
    # --config supplies only the sentinel settings, --seed only the jitter seed;
    # without them, check the logs with the settings they were produced under.
    cfg = load_config(args.config) if args.config else run_cfg
    sensors = sentinel.default_sensor_grid(cfg.sensor_extent_m)
    rng = np.random.default_rng(run_cfg.master_seed if args.seed is None else args.seed)
    jitter_s = cfg.clock_jitter_ns * 1e-9

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject", "residual_m", "flag", "reason"])
    total = suspect = undetermined = 0
    # Each group reads its own logs; the jitter is drawn here, in trial order.
    # Generator.normal draws (a, K) then (b, K) as the same bits as (a + b, K),
    # and a message's residual depends on its own row only, so the verdicts
    # do not change where a group ends inside a chunk.
    def read(ids: range) -> List[_Messages]:
        found = (_surveillance(args.out, read_logs(args.out, run_cfg, c)) for c in chunks(ids))
        return [messages for messages in found if messages is not None]

    # Reversed and popped from the end, so each chunk is freed once checked.
    pending = [chunk for part in reversed(in_groups(run_cfg, read)) for chunk in reversed(part)]
    # One TOA check per chunk of logs, over all of its messages at once.
    while pending:
        subjects, times, true_pos, claimed = pending.pop()
        arrivals = sentinel.arrival_times(true_pos, times, sensors, rng, jitter_s)
        residuals = sentinel.residuals_m(claimed, arrivals, sensors).tolist()
        for subject, residual in zip(subjects, residuals):
            verdict = sentinel.classify(residual, cfg.residual_threshold_m, subject)
            writer.writerow(verdict.to_record().values())
            suspect += verdict.flag == sentinel.SUSPECT
            undetermined += verdict.flag == sentinel.UNDETERMINED
        total += len(subjects)

    write_file(Path(args.out) / "verdicts.csv", buf.getvalue())
    if not total:
        print(f"no ground-side integrity check: the {run_cfg.scenario} run logged "
              "no surveillance messages")
        return EXIT_OK
    print(f"checked {total} messages: {suspect} SUSPECT ({100.0 * suspect / total:.1f}%)"
          + (f", {undetermined} UNDETERMINED" if undetermined else ""))
    return EXIT_OK


def _cmd_validate_config(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("validate-config requires --config")
    load_config(args.config)
    print(f"{args.config}: valid")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "summarize": _cmd_summarize,
    "cost": _cmd_cost,
    "detect": _cmd_detect,
    "validate-config": _cmd_validate_config,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
