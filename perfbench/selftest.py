"""Self-test of the benchmark at a tiny trial count (about a minute).

    python3 perfbench/selftest.py

Runs every workload untraced and traced and checks that each run succeeds,
prints every metric BENCHMARK.json names with its unit (plus
`failed_fraction`, and `detect_msgs_per_s` on tcas-detect), that traced and
untraced runs emit the same digests, and that the bypass checks hold.  Then
checks that the benchmark refuses to run in a directory holding only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_TRIALS = 40
SEED = 7


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--trials", str(TINY_TRIALS)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict, errors: list) -> dict:
    proc = bench(ROOT, workload, trace)
    label = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        errors.append(f"{label}: metrics/units differ from BENCHMARK.json")
    text = "\n".join(lines[:-1])
    printed = ["failed_fraction"]
    if trace == 0:
        printed += [m["name"] for m in wanted]
        if WORKLOADS[workload].detect:
            printed.append("detect_msgs_per_s")
    else:
        if "VIOLATED" in text or text.count("bypass ") != len(WORKLOADS[workload].idle_layers):
            errors.append(f"{label}: bypass checks do not all hold")
    for name in printed:
        if f"  {name} " not in text:
            errors.append(f"{label}: {name} not printed")
    return next(json.loads(line)["digests"] for line in lines if line.startswith('{"digests"'))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list = []
    for workload in WORKLOADS:
        digests = [check_run(workload, trace, spec, errors) for trace in (0, 1)]
        if digests[0] != digests[1]:
            errors.append(f"{workload}: traced and untraced digests differ")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, "gs-emit", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("bare directory: benchmark did not refuse to run")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
