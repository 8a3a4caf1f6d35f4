"""Batch trial execution with counter-based per-trial seeding.

Trial i's seed is a pure function of (master seed, i), so results are
independent of trial count and of any execution-order parallelism.  Its
generator is, bit for bit, ``np.random.default_rng`` of that seed, built
from PCG64 seed words that `seeds.seed_states` hashes for the whole chunk at
once (`seeds.trial_generators`).

`chunks` is the one chunk grid: chunk k is trials ``[k * CHUNK_TRIALS,
(k + 1) * CHUNK_TRIALS)`` for every id range, cut to the range.
`run_chunks` yields the trials in order, one chunk at a time, so a caller
that writes and folds each chunk before asking for the next holds at most
one chunk of trials, whatever N is.  `run` returns them all as `TrialLog`s.

`in_groups` splits a run's trials into contiguous groups of equal shares,
one per usable CPU and at least `GROUP_TRIALS` trials each, and runs a
function over each group: the first in the calling process, each other one
in a child forked from it (after Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11: a trial depends only on its id, so any process can
run any range of ids).  A group may start or end inside a chunk, and then
holds that part of it.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Iterator, List, Optional, Tuple, TypeVar

from .config import ScenarioConfig
from .log import TrialLog
from .scenarios import SCENARIOS
from .seeds import trial_seeds

#: Trials per chunk.  Large enough that writing a chunk's files together keeps
#: the trial code warm between bursts of syscalls (writing each log as soon as
#: its trial ends cost about 40% of GS throughput), small enough that a chunk's
#: logs are a few MB.  A chunk, or the part of it a group holds, is also the
#: batch a scenario's `trials` function runs: a GPWS approach round spans it.
CHUNK_TRIALS = 256

#: Fewest trials `groups` gives a worker, the break-even measured in one
#: process on a 2-vCPU Linux VM (seed 107, medians of 21 runs): two groups of
#: 128 trials against one process of 256 ran TCAS `run` in 52 against 69 ms
#: and GS `run` in 19 against 23 ms, and GPWS `run` tied (25 against 26 ms);
#: GPWS `summarize`, 0.05 ms a trial, lost (15 against 12 ms).  Two groups of
#: 64 trials lost 1-2 ms on GS and GPWS: forking and reaping a worker cost
#: about 3 ms.
GROUP_TRIALS = CHUNK_TRIALS // 2

T = TypeVar("T")


def chunks(ids: range) -> List[range]:
    """The ids of ``ids`` between consecutive multiples of `CHUNK_TRIALS`, in
    order: a range that starts or ends inside a chunk holds that part of it."""

    bounds = [ids.start, *range(ids.start - ids.start % CHUNK_TRIALS + CHUNK_TRIALS,
                                ids.stop, CHUNK_TRIALS), ids.stop]
    return [range(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def run_chunks(config: ScenarioConfig, ids: range) -> Iterator[Any]:
    """The trials ``ids`` of ``config`` in trial order, one chunk per part of
    a chunk (`chunks`), as the scenario's trials function returns it: the
    write path's seam.  Each chunk gives the texts of its trials' logs in
    trial order (``texts``), their `Summary` (``summary``) and the logs
    whose altitude trace is written (``traces``); iterating it gives the
    trials' `TrialLog`s, which a glideslope chunk reads back from its texts
    (`scenarios.TextChunk`).  The generator keeps no reference to a chunk it
    has yielded."""

    scenario = SCENARIOS[config.scenario]
    for chunk in chunks(ids):
        yield scenario.trials(config, chunk, trial_seeds(config.master_seed, chunk))


def run(config: ScenarioConfig) -> List[TrialLog]:
    return [log for chunk in run_chunks(config, range(config.trials)) for log in chunk]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` limits it), else every CPU."""

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def groups(trials: int) -> List[range]:
    """The id ranges `in_groups` runs for a run of ``trials`` trials: one per
    usable CPU, but never fewer than `GROUP_TRIALS` trials each (except for
    a run of fewer), contiguous, in trial order and in equal shares, whose
    sizes differ by at most one (1,000 trials on three CPUs: 333, 333, 334).
    A cut may fall inside a chunk; each group runs its part of it."""

    workers = max(1, min(usable_cpus() if hasattr(os, "fork") else 1, trials // GROUP_TRIALS))
    bounds = [g * trials // workers for g in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def in_groups(config: ScenarioConfig, group: Callable[[range], T]) -> List[T]:
    """``group`` of each of `groups`' id ranges of ``config``, in trial order.

    The first range runs in this process; each other one in a child started
    with ``os.fork``, which sends back its pickled result through a pipe and
    ends with ``os._exit``.  Every child is reaped before this returns or
    raises, and killed first if this process fails; where the platform can,
    the kernel kills it if this process dies (`_child`).  A group that raises
    makes this raise the same exception (type and message), that of the
    first failing group in trial order, so a failure reads as it would in
    one process."""

    first, *rest = groups(config.trials)
    children: List[Tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        parent = os.getpid()
        prctl = _prctl() if rest else None
        for ids in rest:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(group, ids, write, parent, prctl)
            os.close(write)
            children.append((pid, read))
        results = [group(first)]
        for pid, read in children:
            ok, value = pickle.loads(_read_all(read, pid))
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid, _ in children:
            try:
                os.kill(pid, _SIGKILL)
            except ProcessLookupError:
                pass
        raise
    finally:
        for pid, read in children:
            os.waitpid(pid, 0)
            os.close(read)


def _child(group: Callable[[range], Any], ids: range, fd: int, parent: int,
           prctl: Optional[Callable[..., int]]) -> None:
    """Run ``group(ids)`` in a child forked from ``parent``, write ``(ok,
    result or exception)`` pickled to ``fd`` and end the process without
    returning.  With ``prctl``, first have the kernel kill this child when
    ``parent`` dies, so that a command ended by a signal it does not handle,
    such as SIGTERM, leaves no worker behind it."""

    code = 1
    try:
        if prctl is not None:
            prctl(_PR_SET_PDEATHSIG, _SIGKILL)
            if os.getppid() != parent:  # it died before the request
                return
        try:
            payload = pickle.dumps((True, group(ids)))
        except BaseException as exc:  # sent to the parent, which raises it
            payload = pickle.dumps((False, exc))
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        os.close(fd)  # the parent reads to the end without waiting for the exit
        code = 0
    finally:
        os._exit(code)


#: SIGKILL, whose number POSIX fixes at 9.  Importing `signal` for it would
#: cost every command's start-up about 1 ms, and a forked worker about 4 ms.
_SIGKILL = 9
#: ``prctl`` request: the signal a process gets when its parent dies (Linux).
_PR_SET_PDEATHSIG = 1


def _prctl() -> Optional[Callable[..., int]]:
    """libc's ``prctl``, or None where there is none.  Looked up before the
    fork: in a forked worker the lookup costs about 0.6 ms more."""

    import ctypes  # numpy has loaded it already

    return getattr(ctypes.CDLL(None), "prctl", None)


def _read_all(fd: int, pid: int) -> bytes:
    data = bytearray()
    while chunk := os.read(fd, 65536):
        data += chunk
    if not data:
        raise RuntimeError(f"worker process {pid} ended without a result")
    return bytes(data)
