"""Schema validation by `config._check`: jsonschema's messages over drawn
configs, and a guard that `SCHEMA` uses only keywords the walker checks."""

import math

import jsonschema
from hypothesis import example, given, settings, strategies as st

from spoofsim.harness import config
from spoofsim.harness.config import SCHEMA, ConfigError, default_config_dict, validate_config_dict

# The one intended divergence from Draft 2020-12, which counts an integral
# float such as 3.0 as an integer: the walker's `integer` is an `int` that is
# not a `bool`.  The reference validator is redefined to match.
_REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)),
)(SCHEMA)


def _dotted(path):
    return ".".join(map(str, path)) or "<root>"


def _non_finite(value, path=()):
    """Reference finiteness rule: every NaN or infinity, in document order."""

    if isinstance(value, float) and not math.isfinite(value):
        yield f"{_dotted(path)}: must be a finite number, got {value}"
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _non_finite(child, (*path, key))


def reference_messages(data):
    errors = sorted(_REFERENCE.iter_errors(data), key=lambda e: list(e.absolute_path))
    return [*_non_finite(data), *(f"{_dotted(e.absolute_path)}: {e.message}" for e in errors)]


def walker_message(data):
    try:
        validate_config_dict(data)
    except ConfigError as exc:
        return str(exc)
    return ""


# ---------------------------------------------------------------------------
# a config strategy drawn from SCHEMA itself

_EXTRA_KEYS = st.sampled_from(["bogus", "zz", "Z", "a b", "0", "x.y"])
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(_EXTRA_KEYS, st.floats(), max_size=2),
)


def _near(bound):
    """The bound, one ulp either side, and one unit either side."""

    return [bound, float(bound), math.nextafter(bound, -math.inf),
            math.nextafter(bound, math.inf), bound - 1, bound + 1]


def _numbers(schema):
    edges = [x for k in ("minimum", "exclusiveMinimum", "maximum") if k in schema
             for x in _near(schema[k])]
    return st.one_of(
        st.sampled_from(edges or [0.0]), st.floats(), st.integers(-5, 5),
        st.sampled_from([0.0, 1.0, 3.0, math.nan, math.inf, -math.inf]),
    )


def _conforming(schema):
    """Values shaped like `schema`: near its bounds, at its sizes ± 1, with
    its keys (each optional) and several keys it does not allow."""

    if "const" in schema:
        return st.sampled_from([schema["const"], float(schema["const"]), True, 2, "1"])
    if "enum" in schema:
        return st.sampled_from([*schema["enum"], schema["enum"][0].lower(), "NOPE"])
    kind = schema.get("type")
    if kind in ("number", "integer"):
        return _numbers(schema)
    if kind == "string":
        return st.text(max_size=3)
    if kind == "boolean":
        return st.sampled_from([True, False, 0, 1])
    if kind == "array":
        low, high = schema.get("minItems", 0), schema.get("maxItems")
        return st.lists(_values(schema["items"]), min_size=max(low - 1, 0),
                        max_size=(high if high is not None else low + 1) + 1)
    extra = schema.get("additionalProperties")
    if isinstance(extra, dict):
        keys = st.one_of(_EXTRA_KEYS, st.sampled_from(["TA_RA", "CONTINUE", "ILS"]))
        return st.dictionaries(keys, _values(extra), max_size=3)
    known = st.fixed_dictionaries(
        {}, optional={key: _values(sub) for key, sub in schema["properties"].items()})
    unknown = st.dictionaries(_EXTRA_KEYS, _JUNK, max_size=3)
    return st.builds(lambda k, u: {**k, **u}, known, unknown | st.just({}))


def _values(schema):
    """Shaped like `schema` three times in four, otherwise anything."""

    shaped = _conforming(schema)
    return st.integers(0, 3).flatmap(lambda i: shaped if i else _JUNK)


CONFIGS = _conforming(SCHEMA)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(CONFIGS)
@example(default_config_dict("TCAS"))
@example({"version": 1, "scenario": "GS", "world": {"b": 1, "a": 2, "dt_s": True}})
@example({"version": 1.0, "scenario": "TCAS", "trials": 3.0,
          "policies": {"tcas": {"action_given_final_mode": {"TA_RA": {"A": math.inf}}}}})
@example({"world": {"terrain": [[0.0, math.nan], [1.0]], "approach": "x"}, "zz": -math.inf})
def test_walker_gives_jsonschema_messages(data):
    assert walker_message(data) == "; ".join(reference_messages(data))


def test_integral_float_counts_are_the_one_divergence():
    data = {"version": 1, "scenario": "TCAS", "trials": 3.0}
    assert not list(jsonschema.Draft202012Validator(SCHEMA).iter_errors(data))
    assert walker_message(data) == "trials: 3.0 is not of type 'integer'"


def test_version_compares_by_equality():
    assert walker_message({"version": 1.0, "scenario": "GS"}) == ""
    assert walker_message({"version": True, "scenario": "GS"}) == "version: 1 was expected"


# ---------------------------------------------------------------------------
# keyword guard


def schema_keywords(schema):
    """Every keyword in `schema` and in the subschemas it nests."""

    found = set(schema)
    subschemas = [*schema.get("properties", {}).values(),
                  *(schema[k] for k in ("additionalProperties", "items")
                    if isinstance(schema.get(k), dict))]
    for sub in subschemas:
        found |= schema_keywords(sub)
    return found


def test_schema_keywords_finds_nested_ones():
    probe = {"type": "object", "properties": {
        "a": {"type": "array", "items": {"type": "string", "pattern": "x"}},
        "b": {"additionalProperties": {"multipleOf": 2}},
    }}
    assert schema_keywords(probe) == {
        "type", "properties", "items", "pattern", "additionalProperties", "multipleOf"}


def test_walker_checks_exactly_the_keywords_schema_uses():
    """A keyword the walker does not check would go silently unchecked; one
    it checks that the schema does not use is code nothing reads."""

    assert schema_keywords(SCHEMA) == set(config._KEYWORDS)
