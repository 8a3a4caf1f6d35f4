"""Per-trial event log with a JSON-lines serialisation.

One record per event, fields (t, kind, payload, trial_id, seed).  Events are
time-ordered and each trial ends with exactly one terminal outcome record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

OUTCOME = "outcome"
#: Slack allowed on event-time ordering, s (absorbs float rounding).
_TIME_SLACK_S = 1e-9
#: `json.loads` without its per-call argument handling; logs are read a line
#: at a time, so this runs once per event.
_decode = json.JSONDecoder().decode


@dataclass
class TrialLog:
    trial_id: int
    seed: int
    scenario: str
    events: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, t: float, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        if self.finished:
            raise ValueError("trial already has a terminal outcome")
        if self.events and t < self.events[-1]["t"] - _TIME_SLACK_S:
            raise ValueError(
                f"events must be time-ordered: {t} after {self.events[-1]['t']}"
            )
        self.events.append({"t": float(t), "kind": kind, "payload": payload or {}})

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
        lines = []
        for event in self.events:
            record = dict(event)
            record["trial_id"] = self.trial_id
            record["seed"] = self.seed
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, blob: str, scenario: str) -> "TrialLog":
        """Parse and check a serialised log: every record an object with a
        finite number ``t``, a string ``kind``, an object ``payload`` and the
        same integer ``trial_id`` and ``seed``; times in order; exactly one
        outcome, last."""

        events = []
        ids = None
        prev_t = -math.inf
        outcomes = 0
        for line in blob.splitlines():
            if not line.strip():
                continue
            record = _decode(line)
            if type(record) is not dict:
                raise ValueError(f"record is not an object: {line[:80]}")
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
