"""Per-trial event log with a JSON-lines serialisation.

One record per event, fields (t, kind, payload, trial_id, seed).  Events are
time-ordered and each trial ends with exactly one terminal outcome record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

OUTCOME = "outcome"
#: Slack allowed on event-time ordering, s (absorbs float rounding).
_TIME_SLACK_S = 1e-9


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
    def from_jsonl(cls, blob: str, scenario: str = "") -> "TrialLog":
        events = []
        trial_id = seed = None
        for line in blob.splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            trial_id = record.pop("trial_id")
            seed = record.pop("seed")
            events.append(record)
        if trial_id is None:
            raise ValueError("empty trial log")
        kinds = [e["kind"] for e in events]
        if kinds.count(OUTCOME) != 1 or kinds[-1] != OUTCOME:
            raise ValueError("trial log must end in exactly one outcome event")
        if any(b["t"] < a["t"] - _TIME_SLACK_S for a, b in zip(events, events[1:])):
            raise ValueError("trial log events are not in time order")
        return cls(trial_id=trial_id, seed=seed, scenario=scenario, events=events)
