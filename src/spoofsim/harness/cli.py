"""Command-line interface.

Subcommands: run, summarize, cost, detect, validate-config.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .. import sentinel
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_scenario,
    default_config_dict,
    load_config,
    make_config,
)
from .cost import all_cost_reports
from .output import emit, load_logs, summary_csv
from .runner import run as run_trials
from .scenarios import SCENARIOS
from .summary import summarize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofsim",
        description="Deterministic avionics attack-response simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", choices=list(SCENARIOS), help="scenario to simulate")
        p.add_argument("--trials", type=int, help="number of trials")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="path to a JSON config file")

    add_common(sub.add_parser("run", help="run trials and emit logs and summaries"))
    add_common(sub.add_parser("summarize", help="summarize previously emitted logs"))
    add_common(sub.add_parser("cost", help="print the disruption-cost table"))
    add_common(sub.add_parser("detect", help="run integrity checks over emitted logs"))
    add_common(sub.add_parser("validate-config", help="validate a config file"))
    return parser


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    data = load_config(args.config).raw if args.config else default_config_dict()
    if args.scenario:
        data = apply_scenario(data, args.scenario)
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.out:
        data["output_dir"] = args.out
    return make_config(data)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    logs = run_trials(cfg)
    summary = summarize(logs)
    written = emit(logs, summary, cfg.output_dir, config_dict=cfg.raw)
    print(f"{cfg.scenario}: {cfg.trials} trials -> {len(written)} files in {cfg.output_dir}")
    for key, value in summary["stats"].items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    out_dir = args.out or (args.config and load_config(args.config).output_dir)
    if not out_dir:
        raise ConfigError("summarize requires --out (or --config with output_dir)")
    scenario = args.scenario
    config_path = Path(out_dir) / "config.json"
    if scenario is None and config_path.is_file():
        scenario = json.loads(config_path.read_text()).get("scenario")
    if scenario is None:
        raise ConfigError("cannot determine scenario: pass --scenario")
    logs = load_logs(out_dir, scenario=scenario)
    summary = summarize(logs)
    sys.stdout.write(summary_csv(summary))
    (Path(out_dir) / "summary.csv").write_text(summary_csv(summary))
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
        (out / "costs.csv").write_text(buf.getvalue())
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out_dir = args.out or cfg.output_dir
    logs = load_logs(out_dir, scenario=cfg.scenario)
    sen = cfg.raw["sentinel"]
    sensors = sentinel.default_sensor_grid(sen["sensor_extent_m"])
    rng = np.random.default_rng(cfg.master_seed)
    jitter_s = sen["clock_jitter_ns"] * 1e-9

    verdicts = []
    for log in logs:
        for event in log.iter_kind("surveillance"):
            p = event["payload"]
            true_pos = p.get("position_m")
            claimed = p.get("claimed_position_m")
            if true_pos is None or claimed is None:
                continue
            arrivals = sentinel.observe_arrivals(
                true_pos, sensors, rng=rng, clock_jitter_s=jitter_s,
                emission_time=event["t"],
            )
            verdict = sentinel.toa_consistency(
                claimed, arrivals,
                threshold_m=sen["residual_threshold_m"],
                subject=f"trial{log.trial_id}/t{event['t']}",
            )
            verdicts.append(verdict)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subject", "residual_m", "flag", "reason"])
    for v in verdicts:
        rec = v.to_record()
        writer.writerow([rec["subject"], rec["residual_m"], rec["flag"], rec["reason"]])
    (Path(out_dir) / "verdicts.csv").write_text(buf.getvalue())
    suspect = sum(1 for v in verdicts if v.flag == sentinel.SUSPECT)
    total = len(verdicts)
    rate = 100.0 * suspect / total if total else 0.0
    print(f"checked {total} messages: {suspect} SUSPECT ({rate:.1f}%)")
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
