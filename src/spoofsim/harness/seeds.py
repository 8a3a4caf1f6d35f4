"""Counter-based trial seeds, and each trial's generator built from them.

Trial i's seed is word i of ``SeedSequence(master).generate_state(n,
np.uint64)``, made for one chunk of ids at a time (`trial_seeds`).  Its
generator is ``np.random.default_rng(seed)`` bit for bit: `trial_generators`
hashes a chunk's seeds into their PCG64 seed words in one pass of array
operations (`seed_states`, numpy's `SeedSequence` hash) and hands each row
to ``PCG64``, instead of building a `SeedSequence` per trial.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Sequence

import numpy as np

#: `SeedSequence`'s hash constants (numpy/random/bit_generator.pyx): the pool
#: hash (`INIT_A`, `MULT_A`), the mixer (`MIX_MULT_L`, `MIX_MULT_R`), the
#: output hash (`INIT_B`, `MULT_B`) and the xorshift.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: The pool hash's constant before and after each of `mix_entropy`'s 16
#: calls on a 4-word pool: c_k = ``INIT_A * MULT_A**k`` mod 2**32.
_HASH_A = [(np.uint32(_INIT_A * pow(_MULT_A, k, 2**32) % 2**32),
            np.uint32(_INIT_A * pow(_MULT_A, k + 1, 2**32) % 2**32)) for k in range(16)]


def _generate_state(pool: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Words ``start:stop`` of ``generate_state(stop, np.uint64)`` of the
    4-word uint32 pools along ``pool``'s last axis: 32-bit word j is pool
    word j % 4 xor c_j, times c_(j+1), xor itself >> 16, with c_j =
    ``INIT_B * MULT_B**j`` mod 2**32, and word i is 32-bit words 2i (low)
    and 2i + 1."""

    j = np.arange(2 * start, 2 * stop)
    hash_const = np.full(len(j) + 1, _MULT_B, dtype=np.uint32)
    hash_const[0] = _INIT_B * pow(_MULT_B, 2 * start, 2**32) % 2**32
    hash_const = np.cumprod(hash_const, dtype=np.uint32)  # wraps mod 2**32
    word = (pool[..., j % 4] ^ hash_const[:-1]) * hash_const[1:]
    word ^= word >> _XSHIFT
    return word.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def trial_seeds(master_seed: int, ids: range) -> List[int]:
    """Words ``ids`` of ``SeedSequence(master_seed).generate_state(n,
    np.uint64)``, made alone."""

    pool = np.random.SeedSequence(master_seed).pool
    return _generate_state(pool, ids.start, ids.stop).tolist()


def seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each 64-bit seed
    s, as the rows of one (n, 4) array.

    `SeedSequence.mix_entropy` on arrays: a seed below 2**64 is the entropy
    words (low, high), and a pool word past them hashes 0, as the high word
    of a seed below 2**32 does, so every seed takes the same steps."""

    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    consts = iter(_HASH_A)

    def hashmix(value):
        before, after = next(consts)
        value = (value ^ before) * after
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    return _generate_state(np.stack(pool, axis=-1), 0, 4)


@functools.lru_cache(maxsize=None)
def _state_words() -> type:
    """The seed sequence that hands ``PCG64`` one `seed_states` row, made at
    first use: importing the harness does not import `numpy.random`."""

    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """The (4,) uint64 words ``PCG64`` asks of its seed sequence."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def trial_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` of each seed s in turn, bit for bit, each
    built as it is asked for."""

    words = _state_words()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row in seed_states(seeds):
        yield generator(pcg64(words(row)))
