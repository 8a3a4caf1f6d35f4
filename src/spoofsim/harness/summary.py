"""Aggregation of trial logs into action tables and calibration statistics.

Table shapes follow the reporting conventions of the scenario outputs: the
terrain-alert table lists actions per approach among the crews still flying
that approach (a crew that lands is not carried forward); the collision-
avoidance table is a final-mode by final-action matrix.

A summary is a fold of one scenario's trials: `Summary(scenario)` counts
their outcomes, and each scenario's subclass (`GpwsSummary`, `TcasSummary`,
`GsSummary`) keeps the tallies its tables need, plus the per-trial scalars
its means and standard deviations need, and none it can derive from
another.  A trial is folded through ``add_trial(outcome, ...)``, which the
scenario's chunk calls with the values it wrote, or through ``add(log)``,
which reads the same values from a log; ``result`` builds the tables and
statistics.  `fold` builds the subclass of the first log's scenario, so a
run's logs can be summarized as they are read, without holding them.

``merge`` folds in the summary of the trials that follow, so a run can be
folded in contiguous groups and merged in trial order.  One rule merges
every tally: counts add, per-trial lists extend in trial order and maps
merge key by key, so `_mean_sd` sees the very list one fold would have made
and gives the same bits.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import reduce
from operator import add
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import crew, tcas
from .log import TrialLog

GPWS_ACTION_LABELS = {
    crew.LAND: "Land",
    crew.GO_AROUND: "Go-around",
    crew.TURN_OFF_GPWS: "Turn off",
}
TCAS_MODE_LABELS = {
    tcas.TA_RA: "TA/RA",
    tcas.TA_ONLY: "TA-Only",
    tcas.STANDBY: "Standby",
}
TCAS_ACTION_LABELS = {
    crew.CONTINUE: "Continue on route",
    crew.AVOIDANCE: "Avoidance manoeuvre",
    crew.DIVERT: "Divert to origin",
}


#: Payload field types (``_field``'s ``allowed``).  A number summarize
#: averages is a `_NUMBER`, or a `_COUNT` for an integer one.
_NUMBER = (int, float)
_COUNT = (int,)


def _field(log: TrialLog, event: Dict[str, Any], key: str, allowed: Any) -> Any:
    """``event``'s payload field ``key``, which must be an instance of
    ``allowed`` (never a bool) or, when ``allowed`` is a dict, one of its keys;
    a `_NUMBER` or `_COUNT` must also be finite and within the float range.
    Logs read back from a run directory may break this; the ValueError names
    the trial, the event kind and the field."""

    payload = event["payload"]
    if key not in payload:
        raise ValueError(f"trial {log.trial_id}: {event['kind']} field {key!r} is missing")
    value = payload[key]
    if isinstance(allowed, dict):
        valid = type(value) is str and value in allowed
    else:
        valid = isinstance(value, allowed) and type(value) is not bool
        if valid and (allowed is _NUMBER or allowed is _COUNT):
            try:
                valid = math.isfinite(value)
            except OverflowError:   # an integer beyond the float range
                valid = False
    if not valid:
        raise ValueError(f"trial {log.trial_id}: {event['kind']} field {key!r} is {value!r}")
    return value


def _mean_sd(values: Sequence[float]) -> Dict[str, float]:
    if not values:
        return {"n": 0, "mean": math.nan, "sd": math.nan}
    # Added left to right from int 0, as `sum` added floats before Python 3.12
    # made it compensated, so the bits are the same on every supported Python.
    n = len(values)
    mean = reduce(add, values, 0) / n
    var = reduce(add, ((v - mean) ** 2 for v in values), 0) / (n - 1) if n > 1 else 0.0
    return {"n": n, "mean": mean, "sd": math.sqrt(var)}


class Summary:
    """The fold of one scenario's trials: their outcome counts, and the
    tallies of the scenario's subclass.  Every attribute but ``scenario`` is
    a tally, merged by `merge`'s one rule.  A subclass folds a trial with
    ``add_trial(outcome, ...)``, and ``_add(log, outcome)`` folds it with
    the values it reads from the trial's log."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.outcomes: Counter = Counter()

    @property
    def trials(self) -> int:
        return sum(self.outcomes.values())

    def _check(self, scenario: str) -> None:
        if scenario != self.scenario:
            raise ValueError(f"logs span multiple scenarios: {sorted({self.scenario, scenario})}")

    def add(self, log: TrialLog) -> None:
        """Fold the trial ``log`` records, one of this summary's scenario."""

        self._check(log.scenario)
        self._add(log, _field(log, log.events[-1], "outcome", str))

    def merge(self, other: "Summary") -> None:
        """Fold in ``other``, the summary of the trials after this one's."""

        self._check(other.scenario)
        for name, tally in vars(other).items():
            if name != "scenario":
                setattr(self, name, _merged(getattr(self, name), tally))

    def result(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "trials": self.trials,
                "outcomes": dict(sorted(self.outcomes.items()))}


def _merged(mine: Any, theirs: Any) -> Any:
    """``mine`` with ``theirs``, the same tally of later trials, merged in:
    maps key by key, and otherwise by ``+=``, so counts add and per-trial
    lists extend in trial order."""

    if isinstance(mine, dict):
        for key, value in theirs.items():
            mine[key] = _merged(mine[key] if key in mine else type(value)(), value)
        return mine
    mine += theirs
    return mine


class GpwsSummary(Summary):
    """Actions per approach among the crews still flying it, and the heights
    of the first-approach go-arounds."""

    def __init__(self, scenario: str) -> None:
        super().__init__(scenario)
        self.per_approach: Dict[int, Counter] = defaultdict(Counter)
        self.first_go_around_agl: List[float] = []

    def _add(self, log: TrialLog, outcome: str) -> None:
        actions: List[Tuple[int, str]] = []
        go_around_agl = []
        for event in log.iter_kind("crew_action"):
            approach = _field(log, event, "approach", int)
            action = _field(log, event, "action", GPWS_ACTION_LABELS)
            if actions and approach <= actions[-1][0]:
                # One crew action per alerted approach, in approach order.
                raise ValueError(f"trial {log.trial_id}: crew_action of approach {approach} "
                                 f"after one of approach {actions[-1][0]}")
            actions.append((approach, action))
            if approach == 1 and action == crew.GO_AROUND:
                go_around_agl.append(_field(log, event, "min_agl_ft", _NUMBER))
        landed = None
        if outcome == "LANDED":
            approach = _field(log, log.events[-1], "approach", int)
            if not actions or approach != actions[-1][0]:
                landed = approach
        self.add_trial(outcome, actions, go_around_agl, landed)

    def add_trial(self, outcome: str, actions: Sequence[Tuple[int, str]],
                  go_around_agl: Sequence[float], landed: Optional[int]) -> None:
        """One trial: its outcome, its crew actions as (approach, action) in
        approach order, the height of its first-approach go-around (none if
        it did not go around there) and the approach on which it landed
        unalerted, a landing among the crews flying that approach (None if
        it did not)."""

        self.outcomes[outcome] += 1
        for approach, action in actions:
            self.per_approach[approach][action] += 1
        self.first_go_around_agl += go_around_agl
        if landed is not None:
            self.per_approach[landed][crew.LAND] += 1

    def result(self) -> Dict[str, Any]:
        per_approach = self.per_approach
        n = self.trials
        rows = []
        for approach in sorted(per_approach):
            actions = per_approach[approach]
            participants = sum(actions.values())
            for action in (crew.TURN_OFF_GPWS, crew.LAND, crew.GO_AROUND):
                if action not in actions:
                    continue
                count = actions[action]
                rows.append([
                    approach, GPWS_ACTION_LABELS[action], count,
                    round(100.0 * count / participants, 1), participants,
                ])
        agl = _mean_sd(self.first_go_around_agl)
        return {
            "tables": {
                "actions": {
                    "headers": ["Approach", "Action", "Count", "Percent", "Participants"],
                    "rows": rows,
                }
            },
            "stats": {
                "first_approach_go_around_fraction": (
                    per_approach.get(1, {}).get(crew.GO_AROUND, 0) / n
                ),
                "first_approach_land_fraction": (
                    per_approach.get(1, {}).get(crew.LAND, 0) / n
                ),
                "first_approach_go_around_min_agl_mean_ft": agl["mean"],
                "first_approach_go_around_min_agl_sd_ft": agl["sd"],
            },
            **super().result(),
        }


class TcasSummary(Summary):
    """The final-mode by final-action matrix, the advisories seen before each
    downgrade, and the trials by their encounter count."""

    def __init__(self, scenario: str) -> None:
        super().__init__(scenario)
        self.matrix: Dict[str, Dict[str, int]] = {
            a: {m: 0 for m in TCAS_MODE_LABELS} for a in TCAS_ACTION_LABELS
        }
        self.ras_before_downgrade: List[float] = []
        self.tas_before_standby: List[float] = []
        self.episodes: Counter = Counter()

    def _add(self, log: TrialLog, outcome: str) -> None:
        last = log.events[-1]
        mode = _field(log, last, "final_mode", TCAS_MODE_LABELS)
        action = _field(log, last, "final_action", TCAS_ACTION_LABELS)
        episodes = _field(log, last, "episodes", _COUNT)
        ras = (_field(log, last, "ras_observed", _NUMBER) if mode != tcas.TA_RA
               else None)
        tas = (_field(log, last, "tas_after_downgrade", _NUMBER) if mode == tcas.STANDBY
               else None)
        self.add_trial(outcome, mode, action, episodes, ras, tas)

    def add_trial(self, outcome: str, mode: str, action: str, episodes: int,
                  ras: Optional[float], tas: Optional[float]) -> None:
        """One trial: its outcome, its final mode and action, its encounters,
        the RAs it observed (counted if it left TA/RA) and the TAs after its
        downgrade (counted if it ended in Standby)."""

        self.outcomes[outcome] += 1
        self.matrix[action][mode] += 1
        self.episodes[episodes] += 1
        if mode != tcas.TA_RA:
            self.ras_before_downgrade.append(ras)
        if mode == tcas.STANDBY:
            self.tas_before_standby.append(tas)

    def result(self) -> Dict[str, Any]:
        n = self.trials
        rows = []
        for action, label in TCAS_ACTION_LABELS.items():
            row = [label]
            for mode in TCAS_MODE_LABELS:
                count = self.matrix[action][mode]
                row.extend([count, round(100.0 * count / n, 1)])
            total = sum(self.matrix[action].values())
            row.extend([total, round(100.0 * total / n, 1)])
            rows.append(row)
        modes = {mode: sum(counts[mode] for counts in self.matrix.values())
                 for mode in TCAS_MODE_LABELS}
        ras = _mean_sd(self.ras_before_downgrade)
        tas = _mean_sd(self.tas_before_standby)
        return {
            "tables": {
                "responses": {
                    "headers": [
                        "Action",
                        "TA/RA", "TA/RA %",
                        "TA-Only", "TA-Only %",
                        "Standby", "Standby %",
                        "Total", "Total %",
                    ],
                    "rows": rows,
                }
            },
            "stats": {
                "final_mode_ta_ra_fraction": modes[tcas.TA_RA] / n,
                "final_mode_ta_only_fraction": modes[tcas.TA_ONLY] / n,
                "final_mode_standby_fraction": modes[tcas.STANDBY] / n,
                "ras_before_ta_only_mean": ras["mean"],
                "ras_before_ta_only_sd": ras["sd"],
                "additional_tas_before_standby_mean": tas["mean"],
                "additional_tas_before_standby_sd": tas["sd"],
                "episodes_mean": sum(k * count for k, count in self.episodes.items()) / n,
                "episodes_max": max(self.episodes),
            },
            **super().result(),
        }


class GsSummary(Summary):
    """First-approach go-arounds, their heights, and the fallback approaches
    flown after them."""

    def __init__(self, scenario: str) -> None:
        super().__init__(scenario)
        self.go_around_agl: List[float] = []
        self.fallbacks: Counter = Counter()

    def _add(self, log: TrialLog, outcome: str) -> None:
        go_around_agl = [
            _field(log, event, "agl_ft", _NUMBER) for event in log.iter_kind("crew_action")
            if _field(log, event, "action", str) == crew.GO_AROUND
            and _field(log, event, "approach", int) == 1
        ]
        fallbacks = [_field(log, event, "approach_type", str)
                     for event in log.iter_kind("fallback_selected")]
        # At most one first-approach go-around, which selects one fallback.
        if len(go_around_agl) > 1 or len(fallbacks) > len(go_around_agl):
            raise ValueError(f"trial {log.trial_id}: {len(go_around_agl)} first-approach "
                             f"go-arounds and {len(fallbacks)} fallback_selected events")
        self.add_trial(outcome, go_around_agl, fallbacks)

    def add_trial(self, outcome: str, go_around_agl: Sequence[float],
                  fallbacks: Iterable[str]) -> None:
        """One trial: its outcome, the height of its first-approach go-around
        (none if it landed from its first approach) and the fallback approach
        it selected after it."""

        self.outcomes[outcome] += 1
        self.go_around_agl += go_around_agl
        for ft in fallbacks:
            self.fallbacks[ft] += 1

    def result(self) -> Dict[str, Any]:
        n = self.trials
        n_ga = len(self.go_around_agl)
        landed = n - n_ga
        fallbacks = self.fallbacks
        agl = _mean_sd(self.go_around_agl)
        rows = [["Go-around", n_ga, round(100.0 * n_ga / n, 1)],
                ["Land", landed, round(100.0 * landed / n, 1)]]
        fb_rows = [
            [ft, count, round(100.0 * count / n_ga, 1)]
            for ft, count in sorted(fallbacks.items())
        ]
        return {
            "tables": {
                "first_approach": {
                    "headers": ["Action", "Count", "Percent"],
                    "rows": rows,
                },
                "fallback_approaches": {
                    "headers": ["Approach type", "Count", "Percent"],
                    "rows": fb_rows,
                },
            },
            "stats": {
                "first_approach_go_around_fraction": n_ga / n,
                "go_around_agl_mean_ft": agl["mean"],
                "go_around_agl_sd_ft": agl["sd"],
                "fallback_fractions": {
                    ft: count / n_ga for ft, count in sorted(fallbacks.items())
                } if n_ga else {},
            },
            **super().result(),
        }


def fold(logs: Iterable[TrialLog]) -> Summary:
    """The summary of ``logs``, read once, in order: the subclass of the
    first log's scenario, built with its name."""

    logs = iter(logs)
    first = next(logs, None)
    if first is None:
        raise ValueError("cannot summarize an empty set of trial logs")
    from .scenarios import SCENARIOS  # the registry imports this module

    summary = SCENARIOS[first.scenario].summary(first.scenario)
    summary.add(first)
    for log in logs:
        summary.add(log)
    return summary


def summarize(logs: Iterable[TrialLog]) -> Dict[str, Any]:
    """The summary of ``logs``, read once, in order."""

    return fold(logs).result()
