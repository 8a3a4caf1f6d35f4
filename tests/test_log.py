"""`TrialLog.from_jsonl`'s one-pass reader against the line-by-line reader,
`to_jsonl`'s shape-compiled encoders against `json.dumps`, and `add`'s checks."""

import functools
import json
import math
import re
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

from spoofsim.harness import log as log_module
from spoofsim.harness import run
from spoofsim.harness.config import make_config
from spoofsim.harness.log import OUTCOME, TrialLog

_decode = json.JSONDecoder().decode


def _ref_from_jsonl(blob, scenario):
    """The reader `from_jsonl` replaced, kept as the reference: one
    `JSONDecoder.decode` per line of `str.splitlines`."""

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
        if t < prev_t - log_module._TIME_SLACK_S:
            raise ValueError("trial log events are not in time order")
        prev_t = t
        outcomes += kind == OUTCOME
        events.append(record)
    if ids is None:
        raise ValueError("empty trial log")
    if outcomes != 1 or events[-1]["kind"] != OUTCOME:
        raise ValueError("trial log must end in exactly one outcome event")
    return TrialLog(trial_id=ids[0], seed=ids[1], scenario=scenario, events=events)


@functools.lru_cache(maxsize=None)
def _real_logs():
    """(scenario, serialised log) of a few trials of each scenario."""

    return [(scenario, log.to_jsonl())
            for scenario in ("GS", "TCAS", "GPWS")
            for log in run(make_config({"version": 1, "scenario": scenario, "trials": 2,
                                        "master_seed": 11}))]


def _read(reader, blob, scenario):
    """What ``reader`` makes of ``blob``: the log's ids and events (by repr,
    so that NaNs compare), or the error's type and message."""

    try:
        log = reader(blob, scenario)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return log.trial_id, log.seed, repr(log.events)


def _line_starts(blob):
    return [0] + [i + 1 for i, c in enumerate(blob[:-1]) if c == "\n"]


def _insert(blob, i, text, drop=0):
    return blob[:i] + text + blob[i + drop:]


def _flip(blob, draw):
    i = draw(st.integers(0, len(blob) - 1))
    c = draw(st.sampled_from('{}[]",:0123456789.e-+ \tntfaNIx\x00\x0b\x0c\x1e\x7f\x85\xe9\u2028'))
    return _insert(blob, i, c, drop=1)


def _carriage_return(blob, draw):
    if draw(st.booleans()):
        return blob.replace("\n", "\r\n")
    return _insert(blob, draw(st.integers(0, len(blob))), "\r")


def _line_separator_in_string(blob, draw):
    quotes = [i for i, c in enumerate(blob) if c == '"']
    return _insert(blob, draw(st.sampled_from(quotes)) + 1, "\u2028")


def _whitespace(blob, draw):
    starts = _line_starts(blob)
    k = draw(st.integers(0, len(starts) - 1))
    ws = draw(st.sampled_from([" ", "\t", "  \t", "\x0c", "\xa0"]))
    if draw(st.booleans()):
        return _insert(blob, starts[k], ws)
    end = blob.find("\n", starts[k])
    return _insert(blob, len(blob) if end < 0 else end, ws)


def _blank_line(blob, draw):
    starts = _line_starts(blob) + [len(blob)]
    return _insert(blob, draw(st.sampled_from(starts)),
                   draw(st.sampled_from(["\n", " \n", "\t\n"])))


def _split_record(blob, draw):
    commas = [i for i in range(len(blob) - 1) if blob[i:i + 2] == ", "]
    return _insert(blob, draw(st.sampled_from(commas)) + 1,
                   draw(st.sampled_from(["\n", "\n "])), drop=1)


def _join_records(blob, draw):
    newlines = [i for i, c in enumerate(blob[:-1]) if c == "\n"]
    if not newlines:
        return blob
    return _insert(blob, draw(st.sampled_from(newlines)), draw(st.sampled_from(["", " "])),
                   drop=1)


def _extra_field(blob, draw):
    starts = _line_starts(blob)
    return _insert(blob, starts[draw(st.integers(0, len(starts) - 1))] + 1, '"extra": [1], ')


def _not_an_object(blob, draw):
    starts = _line_starts(blob)
    k = draw(st.integers(0, len(starts) - 1))
    end = blob.find("\n", starts[k])
    return _insert(blob, starts[k], draw(st.sampled_from(["[1, 2]", "5", '"x"', "null"])),
                   drop=(len(blob) if end < 0 else end) - starts[k])


_MUTATIONS = [_flip, _carriage_return, _line_separator_in_string, _whitespace, _blank_line,
              _split_record, _join_records, _extra_field, _not_an_object]
_EXTRA_FIELD = "record has fields beyond t, kind, payload, trial_id and seed"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_from_jsonl_reads_as_the_line_reader(data):
    """Property: on a real GS, TCAS or GPWS log with up to three byte flips,
    carriage returns, raw U+2028s in strings, leading or trailing whitespace,
    blank lines, records split across lines or joined on one line, lines
    that are JSON but not objects, or extra fields, `from_jsonl` returns the events the line-by-line reader returns,
    or raises its error with its message.  The one difference allowed is the
    rejection of a field beyond the five a record has."""

    scenario, blob = data.draw(st.sampled_from(_real_logs()))
    for _ in range(data.draw(st.integers(1, 3))):
        blob = data.draw(st.sampled_from(_MUTATIONS))(blob, data.draw)
    got = _read(TrialLog.from_jsonl, blob, scenario)
    if got[0] is ValueError and got[1].startswith(_EXTRA_FIELD):
        return
    assert got == _read(_ref_from_jsonl, blob, scenario)


def test_real_logs_take_one_scanner_pass():
    """Every log the program writes is read by the one-pass scanner, and
    read back as written."""

    for scenario, blob in _real_logs():
        assert log_module._scan(blob) is not None
        log = TrialLog.from_jsonl(blob, scenario)
        assert log.to_jsonl() == blob
        # Without its last newline too, as the line reader reads it.
        assert log_module._scan(blob[:-1]) == log_module._scan(blob)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["scanner", "line-reader"])
def test_from_jsonl_rejects_unknown_fields(line_end):
    """A record field beyond t, kind, payload, trial_id and seed is an error,
    whichever reader reads the log."""

    scenario, blob = _real_logs()[0]
    blob = blob.replace('"payload"', '"extra": [1], "payload"', 1).replace("\n", line_end)
    assert (log_module._scan(blob) is None) == (line_end != "\n")
    with pytest.raises(ValueError, match=rf"^{_EXTRA_FIELD}: \['extra'\]$"):
        TrialLog.from_jsonl(blob, scenario)


# ---------------------------------------------------------------------------
# TrialLog.add's checks, whatever built the log


def _log_to_extend(how):
    """A log whose last event is at t = 5 and not an outcome: built by
    `add`, given as ``events=``, or read by `from_jsonl` with its outcome
    then taken off."""

    log = TrialLog(trial_id=1, seed=2, scenario="GS")
    log.add(0.0, "a", {"x": 1})
    log.add(5.0, "b")
    if how == "events":
        log = TrialLog(trial_id=1, seed=2, scenario="GS", events=[dict(e) for e in log.events])
    elif how == "from_jsonl":
        log.finish(5.0, "LANDED")
        log = TrialLog.from_jsonl(log.to_jsonl(), "GS")
        log.events.pop()
    return log


_BUILT = pytest.mark.parametrize("how", ["add", "events", "from_jsonl"])


@_BUILT
def test_add_after_the_outcome_raises(how):
    log = _log_to_extend(how)
    log.finish(6.0, "LANDED")
    with pytest.raises(ValueError, match="^trial already has a terminal outcome$"):
        log.add(7.0, "late")
    log = TrialLog(trial_id=1, seed=2, scenario="GS", events=[dict(e) for e in log.events])
    with pytest.raises(ValueError, match="^trial already has a terminal outcome$"):
        log.add(7.0, "late")
    assert log.outcome == "LANDED" and log.events[-1]["t"] == 6.0


@_BUILT
def test_add_keeps_time_order_within_the_slack(how):
    """An event earlier than the last by more than `_TIME_SLACK_S` raises;
    one within the slack is taken, and is the last from then on."""

    slack = log_module._TIME_SLACK_S
    log = _log_to_extend(how)
    with pytest.raises(ValueError, match="^events must be time-ordered: "):
        log.add(5.0 - 2 * slack, "early")
    log.add(5.0 - slack / 2, "within")
    assert [e["kind"] for e in log.events] == ["a", "b", "within"]
    with pytest.raises(ValueError, match="^events must be time-ordered: "):
        log.add(5.0 - 1.6 * slack, "early")
    log.events.pop()
    log.add(5.0 - slack, "at the slack")
    assert log.events[-1]["t"] == 5.0 - slack


# ---------------------------------------------------------------------------
# to_jsonl's shape-compiled encoders against json.dumps


def _dumps(log):
    """The kept reference for `to_jsonl`: one `json.dumps` of each event
    with the log's ids, ``sort_keys=True``."""

    return "".join(json.dumps({**event, "trial_id": log.trial_id, "seed": log.seed},
                              sort_keys=True) + "\n" for event in log.events)


class _Float(float):
    pass


class _Int(int):
    pass


_FLOAT = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e308, -1e308, 0.1, 2.0,
                          math.nan, math.inf, -math.inf]) | st.floats()
_TEXT = st.sampled_from(["", "a", " ", "\xe9t\xe9", '"\\/', "\x00\x1f", "{}", "'",
                         "\U0001f600"]) | st.text(max_size=4)
_ATOM = st.one_of(
    _FLOAT, _TEXT, st.none(), st.booleans(),
    st.integers(-2**70, 2**70) | st.sampled_from([2**64, -2**64 - 1, 2**53 + 1]),
    st.builds(_Float, _FLOAT), st.builds(_Int, st.integers(-5, 5)),
)
# Values as the logs hold them, which the compiled encoders write ...
_PLAIN = st.one_of(_FLOAT, _TEXT, st.none(), st.integers(-2**70, 2**70),
                   st.lists(_FLOAT, min_size=3, max_size=3),
                   st.lists(st.integers(-3, 3) | _TEXT | st.none(), min_size=1, max_size=3))
# ... and any value: lists of another length or of other elements, tuples,
# nested objects.
_VALUE = st.one_of(
    _ATOM, st.lists(_ATOM, max_size=4), st.tuples(_FLOAT, _FLOAT),
    st.recursive(_ATOM, lambda inner: st.lists(inner, max_size=2)
                 | st.dictionaries(_TEXT, inner, max_size=2), max_leaves=4),
)
_KINDS = st.sampled_from(["surveillance", "advisory", " k\xe9", OUTCOME])
_KEY_SETS = st.sampled_from([(), ("b", "a"), ("a", "b"), ("x", "\xe9", "A", "_", "{"),
                             ("claimed_position_m", "icao_id", "timestamp"), (2, 10, 1)])
_T = _FLOAT | st.integers(-3, 3) | st.booleans() | st.none()


@st.composite
def _events(draw):
    """Events of one to three kinds and key sets, each keeping most of the
    values its kind and key set first drew and replacing the others by any
    value, so that a shape's encoder meets other value types and lengths."""

    shapes = draw(st.lists(st.tuples(_KINDS, _KEY_SETS, st.lists(_PLAIN, min_size=5,
                                                                 max_size=5)),
                           min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(1, 8))):
        kind, keys, values = draw(st.sampled_from(shapes))
        values = [draw(_VALUE) if draw(st.integers(0, 3)) == 0 else v for v in values]
        events.append({"t": draw(_T), "kind": kind, "payload": dict(zip(keys, values))})
    return events


@settings(max_examples=300, deadline=None, derandomize=True)
@given(events=_events(), trial_id=st.integers(0, 2**64), seed=st.integers(0, 2**64),
       pure_python=st.booleans())
@example(events=[{"t": 1.0, "kind": "a", "payload": {"p": 1e308, "q": 1e308}},
                 {"t": 2.0, "kind": "a", "payload": {"p": 1e308, "q": math.inf}},
                 {"t": math.nan, "kind": "a", "payload": {"p": -0.0, "q": 5e-324}},
                 {"t": 3.0, "kind": "a", "payload": {"p": True, "q": 1}},
                 {"t": 4.0, "kind": "a", "payload": {"p": [1.0, 2.0], "q": [1.0, 2.0]}},
                 {"t": 5.0, "kind": "a", "payload": {"p": [1.0, 2.0], "q": [1.0, True]}},
                 {"t": 6.0, "kind": "a", "payload": {"p": [1.0], "q": [1.0, 2.0]}},
                 {"t": 7.0, "kind": "a", "payload": {"p": [1.0, 2.0], "q": [1.0, "x"]}},
                 {"t": 8.0, "kind": "b", "payload": {"p": [1, None], "q": ["x", 2]}},
                 {"t": 9.0, "kind": "b", "payload": {"p": [True, None], "q": ["x", False]}},
                 {"t": True, "kind": "b", "payload": {"p": [1, None], "q": ["x", 2]}}],
         trial_id=0, seed=2**70, pure_python=False)
def test_to_jsonl_equals_json_dumps_shape_by_shape(events, trial_id, seed, pure_python):
    """Property: with the shape cache emptied first, every line `to_jsonl`
    writes is `json.dumps` of the event, though one key set recurs with other
    kinds, value types and list lengths: non-finite floats (in ``t`` too),
    bools beside ints, ints beyond 2**64, subclasses, None, tuples, nested
    objects, non-ASCII text and integer keys; with the C or the pure-Python
    generic encoder."""

    log = TrialLog(trial_id=trial_id, seed=seed, scenario="GS", events=events)
    encoder = log_module._build_encoder(None) if pure_python else log_module._iterencode
    with unittest.mock.patch.object(log_module, "_iterencode", encoder), \
            unittest.mock.patch.dict(log_module._shapes, clear=True):
        assert log.to_jsonl() == _dumps(log)
        assert log.to_jsonl() == _dumps(log)


def test_real_shapes_are_compiled_and_the_cache_is_bounded():
    """Every shape a real log holds but one (a GS landing's bool) gets its
    compiled encoder; past `_MAX_SHAPES` shapes, records take the generic
    encoder, and are written the same."""

    with unittest.mock.patch.dict(log_module._shapes, clear=True):
        for scenario, blob in _real_logs():
            assert TrialLog.from_jsonl(blob, scenario).to_jsonl() == blob
        generic = [key[0] for key, encode in log_module._shapes.items()
                   if encode is log_module._generic]
        assert generic in ([], [OUTCOME]) and len(log_module._shapes) > 10
        many = TrialLog(trial_id=1, seed=2, scenario="GS")
        for k in range(2 * log_module._MAX_SHAPES):
            many.add(float(k), f"kind{k}", {"x": 0.5})
        assert many.to_jsonl() == _dumps(many)
        assert len(log_module._shapes) == log_module._MAX_SHAPES


def test_to_jsonl_refuses_an_int_too_long_as_json_dumps_does():
    """An int that `int.__repr__` refuses raises `json.dumps`' error, from a
    shape already compiled for ints too."""

    log = TrialLog(trial_id=1, seed=2, scenario="GS")
    log.add(0.0, "a", {"x": 1})
    log.add(1.0, "a", {"x": 10**5000})
    with pytest.raises(ValueError) as expected:
        json.dumps(10**5000)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        log.to_jsonl()
