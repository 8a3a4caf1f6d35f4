"""Command-line interface.

Subcommands: run, summarize, cost, detect, validate-config.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from .. import sentinel
from .config import ConfigError, apply_scenario, default_config_dict, load_config, make_config
from .cost import all_cost_reports
from .output import emit, load_run, summary_csv, trial_path
from .runner import run_chunks
from .scenarios import SCENARIOS
from .summary import Summary, summarize

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
    data = load_config(args.config).raw if args.config else default_config_dict()
    if args.scenario:
        data = apply_scenario(data, args.scenario)
    given = {"trials": args.trials, "master_seed": args.seed, "output_dir": args.out or None}
    cfg = make_config({**data, **{k: v for k, v in given.items() if v is not None}})
    summary = Summary()
    written = emit(cfg, run_chunks(cfg), summary)
    print(f"{cfg.scenario}: {cfg.trials} trials -> {len(written)} files in {cfg.output_dir}")
    for key, value in summary.result()["stats"].items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace) -> int:
    _, logs = load_run(args.out)
    try:
        csv_text = summary_csv(summarize(logs))
    except ValueError as exc:
        raise RuntimeError(f"corrupt trial log in {args.out}: {exc}") from exc
    sys.stdout.write(csv_text)
    (Path(args.out) / "summary.csv").write_text(csv_text)
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
    run_cfg, logs = load_run(args.out)
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
    total = suspect = 0
    for log in logs:
        for event in log.iter_kind("surveillance"):
            p = event["payload"]
            true_pos = p.get("position_m")
            claimed = p.get("claimed_position_m")
            if true_pos is None or claimed is None:
                continue
            try:
                arrivals = sentinel.observe_arrivals(
                    true_pos, sensors, rng=rng, clock_jitter_s=jitter_s,
                    emission_time=event["t"],
                )
                verdict = sentinel.toa_consistency(
                    claimed, arrivals,
                    threshold_m=cfg.residual_threshold_m,
                    subject=f"trial{log.trial_id}/t{event['t']}",
                )
            except (ValueError, TypeError) as exc:
                raise RuntimeError(f"corrupt trial log {trial_path(args.out, log.trial_id)}: "
                                   f"surveillance at t={event['t']}: {exc}") from exc
            writer.writerow(verdict.to_record().values())
            total += 1
            suspect += verdict.flag == sentinel.SUSPECT

    (Path(args.out) / "verdicts.csv").write_text(buf.getvalue())
    if not total:
        print(f"no ground-side integrity check: the {run_cfg.scenario} run logged "
              "no surveillance messages")
        return EXIT_OK
    print(f"checked {total} messages: {suspect} SUSPECT ({100.0 * suspect / total:.1f}%)")
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
