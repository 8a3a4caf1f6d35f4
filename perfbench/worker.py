"""One repetition of a workload, in a fresh interpreter.

Times set-up (`import spoofsim.harness.cli` plus `make_config` of the
workload's config), then each CLI command of the workload, then checks the
emitted files.  A calibration job timed before and after the commands gives
the machine's current speed.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload gs-emit --seed 1 --trials 10000 \
        --out .perfbench_work/rep --trace 0

Run with `src` on PYTHONPATH; `run.py` does this for every repetition.
"""

import sys
import time

_t0 = time.perf_counter()
from spoofsim.harness import cli  # noqa: E402  (timed as part of set-up)

_t_import = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from spoofsim.harness import config  # noqa: E402  (already loaded by cli)
from workloads import WORKLOADS  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calibrate() -> float:
    """Seconds for a fixed pure-Python job (JSON round trip and float
    arithmetic, like the program's own work): the interpreter's current speed
    on this machine, measured independently of the program under test."""

    start = time.perf_counter()
    records = [{"t": i * 0.1, "kind": "state", "payload": {"agl_ft": (i % 97) * 1.5}}
               for i in range(500)]
    for _ in range(60):
        for record in json.loads(json.dumps(records)):
            p = record["payload"]
            p["agl_m"] = math.sqrt(p["agl_ft"] * 0.3048 + record["t"])
    return time.perf_counter() - start


def check_trials(out: Path, trials: int, problems: list) -> tuple:
    """Digest of all trial logs, structural checks, and the number of
    surveillance messages `detect` must check."""

    files = sorted((out / "trials").glob("trial_*.jsonl"))
    if len(files) != trials:
        problems.append(f"{len(files)} trial files, expected {trials}")
    digest = hashlib.sha256()
    messages = 0
    bad = []
    for path in files:
        blob = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + blob)
        try:
            events = [json.loads(line) for line in blob.splitlines() if line.strip()]
        except json.JSONDecodeError:
            bad.append(f"{path.name} is not JSON lines")
            continue
        kinds = [e.get("kind") for e in events]
        if kinds.count("outcome") != 1 or kinds[-1] != "outcome":
            bad.append(f"{path.name} lacks exactly one terminal outcome")
        for e in events:
            p = e.get("payload", {})
            if e.get("kind") == "surveillance" and p.get("position_m") is not None \
                    and p.get("claimed_position_m") is not None:
                messages += 1
    if bad:
        problems.append(f"{len(bad)} bad trial files, first: {bad[0]}")
    return digest.hexdigest(), messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    t_cfg = time.perf_counter()
    data = config.default_config_dict(wl.scenario)
    data.update(trials=args.trials, master_seed=args.seed, output_dir=args.out)
    config.make_config(data)
    setup_s = (_t_import - _t0) + (time.perf_counter() - t_cfg)
    result = {"setup_s": setup_s}

    out = Path(args.out)
    # Files left by an earlier repetition must all be rewritten by this one.
    before = {p: p.stat().st_mtime_ns for p in out.rglob("*") if p.is_file()}
    commands, problems, digests = {}, {}, {}
    calibration = calibrate()
    for name, argv in wl.commands(args.seed, args.trials, args.out):
        walls = []
        while True:
            error = ""
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # the installed CLI would exit 1 with a traceback
                    code, error = 1, f" ({type(exc).__name__}: {exc})"
                walls.append(time.perf_counter() - start)
            # Untraced, a re-read command repeats until it has taken half as
            # long as `run` (at most 10 times), so that a short command is
            # sampled over as much of the machine's drift as a long one.
            if name == "run" or tracer is not None or code != 0 or len(walls) == 10 \
                    or sum(walls) >= 0.5 * commands["run"]["wall_s"]:
                break
        commands[name] = {"wall_s": statistics.median(walls), "exit": code}
        problems[name] = [] if code == 0 else [f"exit code {code}{error}"]
        if name == "run" and code == 0:
            digests["summary.csv"] = _sha256(out / "summary.csv")
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = (calibration + calibrate()) / 2

    if commands["run"]["exit"] == 0:
        digests["trials"], messages = check_trials(out, args.trials, problems["run"])
        result["messages"] = messages
        if commands["summarize"]["exit"] == 0 and \
                _sha256(out / "summary.csv") != digests["summary.csv"]:
            problems["summarize"].append("summary.csv differs from the one `run` wrote")
        if "detect" in commands and commands["detect"]["exit"] == 0:
            verdicts = out / "verdicts.csv"
            digests["verdicts.csv"] = _sha256(verdicts)
            rows = len(verdicts.read_text().splitlines()) - 1
            if rows != messages:
                problems["detect"].append(f"{rows} verdicts for {messages} surveillance messages")
    stale = [p for p, mtime in before.items() if p.is_file() and p.stat().st_mtime_ns == mtime]
    for path in stale[:1]:
        owner = "detect" if path.name == "verdicts.csv" else "run"
        problems[owner].append(f"{len(stale)} files left over and not rewritten, "
                               f"first: {path.relative_to(out)}")
    result.update(commands=commands, problems=problems, digests=digests)
    if tracer is not None:
        result["layers"] = tracer.metrics(args.trials)
        result["trial_ms"] = tracer.trial_ms()
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
