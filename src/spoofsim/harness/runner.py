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
#: logs are a few MB.  A chunk is also the batch a scenario's `trials`
#: function runs: a GPWS approach round spans the chunk.
CHUNK_TRIALS = 256


#: `SeedSequence.generate_state`'s hash constants (numpy/random/bit_generator.pyx).
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def trial_seeds(master_seed: int, ids: range) -> List[int]:
    """Words ``ids`` of ``SeedSequence(master_seed).generate_state(n,
    np.uint64)``, made alone: seed i is 32-bit words 2i (low) and 2i + 1, and
    word j is pool word j % 4 xor c_j, times c_(j+1), xor itself >> 16, with
    c_j = ``INIT_B * MULT_B**j`` mod 2**32."""

    pool = np.random.SeedSequence(master_seed).pool
    j = np.arange(2 * ids.start, 2 * ids.stop)
    hash_const = np.full(len(j) + 1, _MULT_B, dtype=np.uint32)
    hash_const[0] = _INIT_B * pow(_MULT_B, 2 * ids.start, 2**32) % 2**32
    hash_const = np.cumprod(hash_const, dtype=np.uint32)  # wraps mod 2**32
    word = (pool[j % 4] ^ hash_const[:-1]) * hash_const[1:]
    word ^= word >> np.uint32(16)
    return word.astype("<u4").view("<u8").tolist()


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
