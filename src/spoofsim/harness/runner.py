"""Batch trial execution with counter-based per-trial seeding.

Trial i's seed is a pure function of (master seed, i), so results are
independent of trial count and of any execution-order parallelism.  Its
generator is, bit for bit, ``np.random.default_rng`` of that seed, built
from PCG64 seed words that `seeds.seed_states` hashes for the whole chunk at
once (`seeds.trial_generators`).

`run_chunks` yields the trials in order, `CHUNK_TRIALS` at a time, so a
caller that writes and folds each chunk before asking for the next holds at
most one chunk of `TrialLog`s, whatever N is.  `run` returns them all.
"""

from __future__ import annotations

from typing import Iterator, List

from .config import ScenarioConfig
from .log import TrialLog
from .scenarios import SCENARIOS
from .seeds import trial_seeds

#: Trials per chunk.  Large enough that writing a chunk's files together keeps
#: the trial code warm between bursts of syscalls (writing each log as soon as
#: its trial ends cost about 40% of GS throughput), small enough that a chunk's
#: logs are a few MB.  A chunk is also the batch a scenario's `trials`
#: function runs: a GPWS approach round spans the chunk.
CHUNK_TRIALS = 256


def run_chunks(config: ScenarioConfig) -> Iterator[List[TrialLog]]:
    """The trials of ``config`` in trial order, in lists of `CHUNK_TRIALS`
    (the last may be shorter).  The generator keeps no reference to a chunk
    it has yielded."""

    scenario = SCENARIOS[config.scenario]
    for start in range(0, config.trials, CHUNK_TRIALS):
        ids = range(start, min(start + CHUNK_TRIALS, config.trials))
        yield scenario.trials(config, ids, trial_seeds(config.master_seed, ids))


def run(config: ScenarioConfig) -> List[TrialLog]:
    return [log for chunk in run_chunks(config) for log in chunk]
