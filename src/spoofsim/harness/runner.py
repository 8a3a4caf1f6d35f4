"""Batch trial execution with counter-based per-trial seeding.

Trial i's seed is a pure function of (master seed, i), so results are
independent of trial count and of any execution-order parallelism.

`run_chunks` yields the trials in order, `CHUNK_TRIALS` at a time, so a
caller that writes and folds each chunk before asking for the next holds at
most one chunk of `TrialLog`s, whatever N is.  `run` returns them all.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from .config import ScenarioConfig
from .log import TrialLog
from .scenarios import SCENARIOS

#: Trials per chunk.  Large enough that writing a chunk's files together keeps
#: the trial code warm between bursts of syscalls (writing each log as soon as
#: its trial ends cost about 40% of GS throughput), small enough that a chunk's
#: logs are a few MB.
CHUNK_TRIALS = 256


def trial_seeds(master_seed: int, trials: int) -> List[int]:
    state = np.random.SeedSequence(master_seed).generate_state(trials, dtype=np.uint64)
    return [int(s) for s in state]


def run_chunks(config: ScenarioConfig) -> Iterator[List[TrialLog]]:
    """The trials of ``config`` in trial order, in lists of `CHUNK_TRIALS`
    (the last may be shorter).  The generator keeps no reference to a chunk
    it has yielded."""

    trial_fn = SCENARIOS[config.scenario].trial
    seeds = trial_seeds(config.master_seed, config.trials)
    for start in range(0, config.trials, CHUNK_TRIALS):
        yield [trial_fn(config, i, seeds[i])
               for i in range(start, min(start + CHUNK_TRIALS, config.trials))]


def run(config: ScenarioConfig) -> List[TrialLog]:
    return [log for chunk in run_chunks(config) for log in chunk]
