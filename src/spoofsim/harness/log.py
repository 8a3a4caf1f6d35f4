"""Per-trial event log with a JSON-lines serialisation.

One record per event, fields (t, kind, payload, trial_id, seed).  Events are
time-ordered and each trial ends with exactly one terminal outcome record.

Every scenario writes its logs from line templates (`scenarios`), with the
bytes `TrialLog.to_jsonl` gives: ``json.dumps`` of each record,
``sort_keys=True``.  `TrialLog` is the read side: `from_jsonl` parses and
checks a written log, and `add` and `finish` build the logs that test
references are compared with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

OUTCOME = "outcome"
#: Slack allowed on event-time ordering, s (absorbs float rounding).
_TIME_SLACK_S = 1e-9
#: `json.loads` without its per-call argument handling, for the logs that
#: `_scan` leaves to be read a line at a time.
_decode = json.JSONDecoder().decode
#: The scanner under it: the JSON value at an index of a string, and its end.
_scan_once = json.JSONDecoder().scan_once


def _scan(blob: str) -> Optional[List[Dict[str, Any]]]:
    """The records of ``blob`` from one pass of the scanner over it, when
    that reads exactly what `_lines` reads: every line an object that ends
    at the line's ``"\n"``.  None otherwise, and whenever ``blob`` is not
    ASCII or holds a ``"\r"``: `str.splitlines` also ends lines at those
    (``"\r"``, U+0085, U+2028, ...) where JSON can read on."""

    if not blob.isascii() or "\r" in blob:
        return None
    records = []
    find = blob.find
    end = len(blob)
    i = 0
    try:
        while i < end:
            nl = find("\n", i)
            if nl < 0:
                nl = end
            if blob[i] != "{":
                return None
            record, stop = _scan_once(blob, i)
            if stop != nl:
                return None
            records.append(record)
            i = nl + 1
    except (StopIteration, ValueError):
        return None
    return records


def _lines(blob: str) -> Iterator[Dict[str, Any]]:
    """The records of ``blob`` decoded one line at a time, blank lines
    skipped; a line that is not JSON, or not an object, raises."""

    for line in blob.splitlines():
        if not line.strip():
            continue
        record = _decode(line)
        if type(record) is not dict:
            raise ValueError(f"record is not an object: {line[:80]}")
        yield record


class _JsonFloat(float):
    """A float whose repr is what `json.dumps` writes for it, NaN and the
    infinities included."""

    def __repr__(self) -> str:
        if self != self:
            return "NaN"
        if self == math.inf:
            return "Infinity"
        if self == -math.inf:
            return "-Infinity"
        return float.__repr__(self)


@dataclass
class TrialLog:
    trial_id: int
    seed: int
    scenario: str
    events: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, t: float, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        events = self.events
        if events:
            last = events[-1]
            if last["kind"] == OUTCOME:
                raise ValueError("trial already has a terminal outcome")
            if t < last["t"] - _TIME_SLACK_S:
                raise ValueError(f"events must be time-ordered: {t} after {last['t']}")
        events.append({"t": float(t), "kind": kind, "payload": payload or {}})

    def finish(self, t: float, outcome: str, payload: Optional[Dict[str, Any]] = None) -> None:
        detail = {"outcome": outcome}
        detail.update(payload or {})
        self.add(t, OUTCOME, detail)

    @property
    def finished(self) -> bool:
        return bool(self.events) and self.events[-1]["kind"] == OUTCOME

    @property
    def outcome(self) -> Optional[str]:
        if not self.finished:
            return None
        return self.events[-1]["payload"]["outcome"]

    def iter_kind(self, kind: str) -> Iterator[Dict[str, Any]]:
        return (e for e in self.events if e["kind"] == kind)

    def to_jsonl(self) -> str:
        """One line per event: ``json.dumps`` of its ``t``, ``kind`` and
        ``payload`` with the log's ``trial_id`` and ``seed``,
        ``sort_keys=True``."""

        ids = {"trial_id": self.trial_id, "seed": self.seed}
        return "\n".join(json.dumps({**e, **ids}, sort_keys=True) for e in self.events) + "\n"

    @classmethod
    def from_jsonl(cls, blob: str, scenario: str) -> "TrialLog":
        """Parse and check a serialised log: every record an object with a
        finite number ``t``, a string ``kind``, an object ``payload`` and the
        same integer ``trial_id`` and ``seed``, and no other field; times in
        order; exactly one outcome, last.  Records are read in one pass of
        the JSON scanner (`_scan`) where that reads what the line-by-line
        reader (`_lines`) would, and by that reader otherwise, so a corrupt
        log raises the same error either way."""

        events = []
        ids = None
        prev_t = -math.inf
        outcomes = 0
        records = _scan(blob)
        for record in _lines(blob) if records is None else records:
            line_ids = (record.pop("trial_id"), record.pop("seed"))
            if ids != line_ids:
                if ids is not None:
                    raise ValueError(f"trial_id/seed {line_ids} differ from {ids} of the record before")
                if not all(type(x) is int for x in line_ids):
                    raise ValueError(f"trial_id and seed must be integers, got {line_ids}")
            ids = line_ids
            t, kind = record["t"], record["kind"]
            if type(t) not in (int, float) or not math.isfinite(t):
                raise ValueError(f"t must be a finite number, got {t!r}")
            if type(kind) is not str:
                raise ValueError(f"kind must be a string, got {kind!r}")
            if type(record["payload"]) is not dict:
                raise ValueError(f"payload must be an object, got {record['payload']!r}")
            if len(record) != 3:
                extra = sorted(set(record) - {"t", "kind", "payload"})
                raise ValueError(f"record has fields beyond t, kind, payload, trial_id "
                                 f"and seed: {extra}")
            if t < prev_t - _TIME_SLACK_S:
                raise ValueError("trial log events are not in time order")
            prev_t = t
            outcomes += kind == OUTCOME
            events.append(record)
        if ids is None:
            raise ValueError("empty trial log")
        if outcomes != 1 or events[-1]["kind"] != OUTCOME:
            raise ValueError("trial log must end in exactly one outcome event")
        return cls(trial_id=ids[0], seed=ids[1], scenario=scenario, events=events)
