"""Per-trial event log with a JSON-lines serialisation.

One record per event, fields (t, kind, payload, trial_id, seed).  Events are
time-ordered and each trial ends with exactly one terminal outcome record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import _make_iterencode, c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict, Iterator, List, Optional

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


def _floatstr(o: float, _repr=float.__repr__, _inf=math.inf) -> str:
    """A float as `json.dumps` writes it, NaN and the infinities included."""

    if o != o:
        return "NaN"
    if o == _inf:
        return "Infinity"
    if o == -_inf:
        return "-Infinity"
    return _repr(o)


def _build_encoder(c_make=c_make_encoder):
    """The encoder `json.dumps(..., sort_keys=True)` builds on every call:
    ``encoder(o, 0)`` gives the chunks of ``o``'s JSON text.  The arguments
    are `JSONEncoder.iterencode`'s for those settings, without the
    circular-reference markers (a log is a tree); without the C accelerator
    (``c_make`` None), the pure-Python one."""

    default = json.JSONEncoder().default
    if c_make is not None:
        return c_make(None, default, encode_basestring_ascii, None, ": ", ", ",
                      True, False, True)
    return _make_iterencode(None, default, encode_basestring_ascii, None, _floatstr,
                            ": ", ", ", True, False, True)


#: Built once: it runs once per event written.
_iterencode = _build_encoder()
#: Record shapes past this many take the generic encoder.
_MAX_SHAPES = 64
#: Line encoders by record shape: kind, type of ``t``, payload keys, their value types.
_shapes: Dict[tuple, Callable[..., Optional[str]]] = {}
#: An f-string field writing ``@``, of this exact type, as `json.dumps` does.
_ATOMS = {float: "{@!r}", int: "{@!r}", str: "{_e(@)}", type(None): "null"}
_BRACES = str.maketrans({"{": "{{", "}": "}}"})


def _generic(*record: Any) -> None:
    """The line encoder of a shape that `_compile` does not cover."""


def _compile(key: tuple, t: Any, payload: Dict[str, Any]) -> Callable[..., Optional[str]]:
    """The line encoder of shape ``key``, from a record with time ``t`` and
    ``payload``: an f-string by `json.dumps`' rules (``sort_keys``, ``", "``,
    ``": "``) over exact floats and ints (by repr), strings, None and lists of
    these.  None for a non-finite float or a list element of another type;
    ValueError for a list of another length or an int too long to repr."""

    if len(_shapes) >= _MAX_SHAPES:
        return _generic
    targets, checks, floats, fields = [], [], [], {}

    def field(name: str, value: Any, check: bool) -> str:
        floats.extend([name] if type(value) is float else [])
        checks.extend([f"type({name}) is {type(value).__name__}"] if check else [])
        return _ATOMS[type(value)].replace("@", name)

    try:
        for i, (k, v) in enumerate(payload.items()):
            if type(v) is list:
                names = [f"v{i}_{j}" for j in range(len(v))]
                targets.append(f"[{', '.join(names)}]")
                fields[k] = f"[{', '.join(field(n, x, True) for n, x in zip(names, v))}]"
            else:
                targets.append(f"v{i}")
                fields[k] = field(f"v{i}", v, False)
        head = f'{{"kind": {encode_basestring_ascii(key[0])}, "payload": {{'
        body = ", ".join(f"{encode_basestring_ascii(k).translate(_BRACES)}: {fields[k]}"
                         for k in sorted(fields))
        line = f"{head.translate(_BRACES)}{body}}}}}{{seed}}{field('t', t, False)}{{end}}"
    except (KeyError, TypeError):  # a value of another type; a kind or key not a string
        encode = _generic
    else:
        guard = " and ".join(checks + [f"0.0 * {' * '.join(floats)} == 0.0"] * bool(floats))
        namespace = {"_e": encode_basestring_ascii, "NoneType": type(None)}
        exec(f"def line(t, p, seed, end):\n    [{', '.join(targets)}] = p.values()\n"
             f"    if {guard or True}:\n        return f{line!r}", namespace)
        encode = namespace["line"]
    _shapes[key] = encode
    return encode


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
        ``sort_keys=True``.  Those keys always sort as kind, payload, seed, t,
        trial_id, so the line is framed around the encoded kind, payload and
        t: by the compiled encoder of the record's shape (`_compile`), or by
        the generic encoder."""

        join = "".join
        seed = f', "seed": {join(_iterencode(self.seed, 0))}, "t": '
        end = f', "trial_id": {join(_iterencode(self.trial_id, 0))}}}'
        lines = []
        for e in self.events:
            t, kind, payload = e["t"], e["kind"], e["payload"]
            line = None
            if type(payload) is dict:
                key = (kind, type(t), *payload, *map(type, payload.values()))
                try:
                    line = (_shapes.get(key) or _compile(key, t, payload))(t, payload, seed, end)
                except ValueError:
                    pass
            lines.append(line or f'{{"kind": {encode_basestring_ascii(kind)}, "payload": '
                                 f'{join(_iterencode(payload, 0))}{seed}{join(_iterencode(t, 0))}{end}')
        return "\n".join(lines) + "\n"

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
