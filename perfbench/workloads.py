"""Workload definitions shared by `run.py` and its worker.

Each workload is one `spoofsim run` of a scenario at a fixed trial count,
followed by `summarize` (and `detect` where the scenario logs surveillance
messages).  The benchmark seed is passed to the program as `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    trials: int
    detect: bool
    #: Layers the workload must leave idle: it bypasses their mechanisms, so
    #: optimising them should change nothing here.
    idle_layers: tuple

    def commands(self, seed: int, trials: int, out: str) -> List[tuple]:
        """(command name, argv for `spoofsim.harness.cli.main`) in run order."""

        cmds = [
            ("run", ["run", "--scenario", self.scenario, "--trials", str(trials),
                     "--seed", str(seed), "--out", out]),
            ("summarize", ["summarize", "--out", out]),
        ]
        if self.detect:
            cmds.append(("detect", ["detect", "--scenario", self.scenario,
                                    "--seed", str(seed), "--out", out]))
        return cmds


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gpws-approach", "GPWS", 1000, False, ("tcas", "sentinel")),
        Workload("tcas-detect", "TCAS", 400, True, ("radalt", "gpws")),
        Workload("gs-emit", "GS", 4000, False, ("radalt", "gpws", "tcas", "sentinel", "world")),
    )
}

#: Seed and trial count at which `digests.json` records the exact outputs.
REFERENCE_SEED = 20190118
REFERENCE_TRIALS = 200
