"""`TrialLog.from_jsonl`'s one-pass reader against the line-by-line reader."""

import functools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

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
