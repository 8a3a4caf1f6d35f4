"""Batch trial execution with counter-based per-trial seeding.

Trial i's seed is a pure function of (master seed, i), so results are
independent of trial count and of any execution-order parallelism.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .config import ScenarioConfig
from .log import TrialLog
from .scenarios import SCENARIOS


def trial_seeds(master_seed: int, trials: int) -> List[int]:
    state = np.random.SeedSequence(master_seed).generate_state(trials, dtype=np.uint64)
    return [int(s) for s in state]


def run(config: ScenarioConfig) -> List[TrialLog]:
    trial_fn = SCENARIOS[config.scenario].trial
    seeds = trial_seeds(config.master_seed, config.trials)
    return [trial_fn(config, i, seed) for i, seed in enumerate(seeds)]
