"""spoofsim benchmark: whole CLI commands per workload, optionally traced.

    python3 perfbench/run.py --workload gpws-approach --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Each repetition runs in a fresh, single-threaded interpreter, one at a time,
writing into `.perfbench_work/` in the checkout.  Before measuring, one
untimed repetition at the reference seed is compared byte for byte with
`digests.json`.  Repetitions are then started until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics (medians over repetitions);
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
from statistics import median
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import spans
from workloads import REFERENCE_SEED, REFERENCE_TRIALS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
#: A run ends within this many seconds even if the program hangs: a
#: repetition still running then is killed and counts as failed.
RUN_LIMIT_S = 170
#: `worker.calibrate()` time on the reference machine.  Every time is scaled
#: by this over the calibration time measured in the same repetition, because
#: the speed of the 2-vCPU virtual machine the benchmark was tuned on drifts
#: by +-20% between 40 s windows, alike for the program and the calibration.
CALIBRATION_REF_S = 0.12
#: Command that writes each digested file; the rest come from `run`.
PRODUCER = {"verdicts.csv": "detect"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_trials_per_s": "trials/s",
    "summarize_trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
    "workflow_s": "s",
}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, trials: int, trace: int, out: Path,
               limit: float) -> Optional[dict]:
    """One repetition in a fresh interpreter; None if it crashed or was still
    running at `limit` (a `time.perf_counter` value)."""

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trials", str(trials), "--out", str(out),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, limit - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print("repetition killed: run time limit reached", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self, commands: List[str]) -> None:
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, rep: Optional[dict], label: str, expected: Optional[dict] = None) -> None:
        """Count one repetition's commands; a command fails if it exited non-zero,
        its outputs broke a structural check, or a digest of a file it wrote
        differs from `expected`."""

        self.attempted += len(self.commands)
        for name in self.commands:
            if rep is None:
                problems = ["repetition crashed"]
            else:
                problems = list(rep["problems"].get(name, ["did not run"]))
                problems += [
                    f"{key} digest differs"
                    for key, value in (expected or {}).items()
                    if PRODUCER.get(key, "run") == name and rep["digests"].get(key) != value
                ]
            if problems:
                self.failed += 1
                self.failures.append(f"{label}: {name}: {'; '.join(problems)}")


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def provenance(workload: str, seed: int, trials: int) -> dict:
    def version(pkg: str) -> Optional[str]:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload, "seed": seed, "trials": trials,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "jsonschema": version("jsonschema"),
        "git_sha": _git_sha(), "output_fs": _fs_type(WORK),
        "loadavg": os.getloadavg(),
    }


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} q3={q3:.4g}"


def end_to_end(reps: List[dict], trials: int) -> Dict[str, List[float]]:
    """Per-repetition samples, each time scaled to the reference speed."""

    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END_UNITS}
    for rep in reps:
        cmds = rep["commands"]
        speed = CALIBRATION_REF_S / rep["calibration_s"]
        samples["setup_s"].append(rep["setup_s"] * speed)
        samples["run_trials_per_s"].append(trials / (cmds["run"]["wall_s"] * speed))
        samples["summarize_trials_per_s"].append(trials / (cmds["summarize"]["wall_s"] * speed))
        samples["peak_rss_mb"].append(rep["rss_mb"])
        samples["workflow_s"].append(sum(c["wall_s"] for c in cmds.values()) * speed)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trials", type=int,
                        help="override the workload's trial count (self-test, tuning)")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's entry in digests.json and exit")
    args = parser.parse_args()
    limit = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "spoofsim" / "harness" / "cli.py").is_file():
        print(f"error: no spoofsim source under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    trials = args.trials or wl.trials
    WORK.mkdir(exist_ok=True)

    # Reference check: exact outputs at a fixed seed and size, in a fresh
    # directory, untimed.
    ref_out = WORK / "reference"
    shutil.rmtree(ref_out, ignore_errors=True)
    ref = run_worker(wl.name, REFERENCE_SEED, REFERENCE_TRIALS, 0, ref_out, limit)
    shutil.rmtree(ref_out, ignore_errors=True)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.record_digests:
        if ref is None or any(ref["problems"].values()):
            print("error: reference repetition failed; digests not recorded", file=sys.stderr)
            return 1
        recorded[wl.name] = ref["digests"]
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"recorded {wl.name} digests at seed {REFERENCE_SEED}, N={REFERENCE_TRIALS}")
        return 0
    if wl.name not in recorded:
        print(f"error: no digests recorded for {wl.name} in {DIGESTS}", file=sys.stderr)
        return 2
    tally = Tally([name for name, _ in wl.commands(0, 0, "")])
    tally.add(ref, f"reference seed {REFERENCE_SEED}", recorded[wl.name])
    print(json.dumps({"provenance": provenance(wl.name, args.seed, trials)}))

    # Every repetition writes into the same directory, overwriting the files
    # of the one before (or of an earlier run): creating tens of thousands of
    # fresh inodes costs 0.2-3.7 s of kernel time per 10k files on the ext4
    # disk this was tuned on, varying from one repetition to the next.
    out = WORK / f"{wl.name}-n{trials}"
    untraced: List[dict] = []
    traced: List[dict] = []
    first: Optional[dict] = None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        t_rep = time.perf_counter()
        for trace, bucket in ((0, untraced), (1, traced))[: 1 + args.trace]:
            rep = run_worker(wl.name, args.seed, trials, trace, out, limit)
            # Same seed as the first repetition, so the same bytes, traced or not.
            tally.add(rep, f"seed {args.seed} trace {trace}", first and first["digests"])
            if rep is None:
                break
            bucket.append(rep)
            first = first or rep
        rep_s = time.perf_counter() - t_rep
        if rep is None or time.perf_counter() + rep_s > deadline:
            break

    if not untraced or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        for failure in tally.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1

    print(f"workload {wl.name}: scenario {wl.scenario}, N={trials}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions "
          f"in {time.perf_counter() - start:.1f} s")
    print(json.dumps({"digests": first["digests"]}))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    failed = tally.failed
    print(f"  failed_fraction {failed / tally.attempted:.4f} ratio "
          f"({failed} of {tally.attempted} commands)")

    samples = end_to_end(untraced, trials)
    messages = untraced[0].get("messages", 0)
    if wl.detect:
        samples["detect_msgs_per_s"] = [
            r["messages"] * r["calibration_s"] / (r["commands"]["detect"]["wall_s"] * CALIBRATION_REF_S)
            for r in untraced]
        samples["calibration_s"] = [r["calibration_s"] for r in untraced]
    units = dict(END_TO_END_UNITS, detect_msgs_per_s="msgs/s", calibration_s="s")
    for name, values in samples.items():
        print(f"  {name:24s} {median(values):12.4f} {units[name]:9s} {_spread(values)}")

    if args.trace:
        metrics = per_layer(untraced, traced, wl.name, trials, messages)
    else:
        metrics = {name: {"value": median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer(untraced: List[dict], traced: List[dict], workload: str, trials: int,
              messages: int) -> Dict[str, dict]:
    layers = {key: median([r["layers"][key] for r in traced]) for key in traced[0]["layers"]}
    layers["tracing_overhead_ratio"] = (median(end_to_end(traced, trials)["workflow_s"])
                                        / median(end_to_end(untraced, trials)["workflow_s"]))
    # Pooled over the traced repetitions, so that p99 has enough trials past it.
    trial_ms = [ms for r in traced for ms in r["trial_ms"]]
    p50, p99 = statistics.quantiles(trial_ms, n=100)[49::49] if len(trial_ms) > 1 else (0.0, 0.0)
    layers["harness.scenarios.trial_ms.p50"] = p50
    layers["harness.scenarios.trial_ms.p99"] = p99
    for target in traced[0].get("missing_targets", []):
        print(f"  note: traced target {target} not found")
    print(f"  trial_ms percentiles over {len(trial_ms)} trials ({len(traced)} traced "
          f"repetitions of N={trials}); {messages} surveillance messages")
    for layer in WORKLOADS[workload].idle_layers:
        calls = layers[f"{layer}.calls"]
        print(f"  bypass {layer}: {calls:g} calls on {workload} -> "
              f"{'holds' if calls == 0 else 'VIOLATED'}")
    for name in spans.UNITS:
        print(f"  {name:36s} {layers[name]:14.6g} {spans.UNITS[name]}")
    return {name: {"value": layers[name], "unit": unit} for name, unit in spans.UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
