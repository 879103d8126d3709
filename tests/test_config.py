"""The in-package config validator against jsonschema as its oracle: it
accepts exactly the configs `validator_for(SCHEMA)` accepts, and it
implements every keyword SCHEMA uses."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from hcplate.config import KEYWORDS, SCHEMA, violations

ROOT = Path(__file__).parent.parent
SHIPPED = [json.loads((ROOT / "configs" / f"{name}.json").read_text())
           for name in ("demo", "demo_bending", "demo_deltainf")]
ORACLE = validator_for(SCHEMA)(SCHEMA)

# the keywords whose argument holds subschemas, and how to list them
SUBSCHEMAS = {"properties": dict.values, "oneOf": list,
              "items": lambda s: [s]}


def schema_keywords(schema):
    """Every (keyword, argument) pair of `schema` and its subschemas."""
    for word, arg in schema.items():
        yield word, arg
        for sub in SUBSCHEMAS.get(word, lambda a: [])(arg):
            yield from schema_keywords(sub)


def schema_keys(schema):
    """Every key SCHEMA names as a property."""
    for word, arg in schema.items():
        if word in ("properties", "required"):
            yield from arg
        for sub in SUBSCHEMAS.get(word, lambda a: [])(arg):
            yield from schema_keys(sub)


KEYS = sorted({*schema_keys(SCHEMA), "bogus", "operator",
               "dense_threshold"})

# wrong types, bools, values at and past each bound, enum members of other
# keys, and small arrays and objects (copied: a config mutates its values)
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.sampled_from([0.0, 1.0, 2.0, 4.0, 0.5, -0.5, 1.5]), st.floats(),
    st.sampled_from(["inf", "eps", "eps2", "disk", "square", "left", "dense",
                     "lobpcg", "one", "soft", "real_time", "x", ""]),
    st.lists(st.one_of(st.booleans(), st.integers(-1, 3), st.floats(),
                       st.sampled_from(["left", "top", "x"])), max_size=4),
    st.sampled_from([{}, {"kind": "disk"}, {"kind": "square", "size": 0.2},
                     {"n": 8}])).map(copy.deepcopy)


def accepted(value, schema=SCHEMA):
    return next(violations(schema, value), None) is None


def containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


def subschemas(schema, path=""):
    """Every subschema of `schema` with the key path it applies at."""
    yield path, schema
    for word, arg in schema.items():
        if word == "properties":
            for key, sub in arg.items():
                yield from subschemas(sub, f"{path}.{key}".lstrip("."))
        else:
            for sub in SUBSCHEMAS.get(word, lambda a: [])(arg):
                yield from subschemas(sub, path)


def test_every_array_and_object_is_typed():
    # a key cannot arrive untyped: an array schema types its items, and an
    # object schema lists its properties and refuses every other key
    untyped = []
    for path, schema in subschemas(SCHEMA):
        kinds = schema.get("type", [])
        kinds = [kinds] if isinstance(kinds, str) else kinds
        if "array" in kinds and not {"type", "enum", "const", "oneOf"} \
                & set(schema.get("items", {})):
            untyped.append(path)
        if "object" in kinds and ("properties" not in schema or
                                  schema.get("additionalProperties") is not False):
            untyped.append(path)
    assert untyped == []


def test_schema_uses_only_implemented_keywords():
    # a keyword the validator does not know would be silently ignored;
    # one it knows that SCHEMA no longer uses is dead code
    pairs = list(schema_keywords(SCHEMA))
    assert {word for word, _ in pairs} == KEYWORDS
    # additionalProperties is implemented for false alone
    assert {arg for word, arg in pairs
            if word == "additionalProperties"} == {False}
    # enum and const compare scalars only: true is not 1 inside no array
    members = [m for word, arg in pairs if word in ("enum", "const")
               for m in (arg if word == "enum" else [arg])]
    assert not any(isinstance(m, (list, dict)) for m in members)


@pytest.mark.parametrize("cfg", SHIPPED)
def test_shipped_configs_accepted(cfg):
    assert accepted(cfg) and ORACLE.is_valid(cfg)


def benchmark_configs():
    """The benchmark's copies of the shipped configs, and the config of
    every operation its workloads run at seeds 0-3."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    yield from (json.loads(p.read_text())
                for p in sorted(workloads.CONFIG_DIR.glob("*.json")))
    yield from (op.config for name in workloads.WORKLOADS
                for seed in range(4) for op in workloads.build(name, seed))


def test_benchmark_configs_accepted():
    # a key the closed schema refuses would make a benchmark operation
    # exit 2 instead of timing it
    for cfg in benchmark_configs():
        assert accepted(cfg) and ORACLE.is_valid(cfg)


@pytest.mark.parametrize("schema, value", [
    ({"type": "number"}, True),            # a bool is no number
    ({"type": "integer"}, False),
    ({"type": "integer"}, 1.0),            # 1.0 is an integer
    ({"type": "integer"}, 1.5),
    ({"enum": [0, 2]}, False),             # false is not 0
    ({"enum": [0, 2]}, 2.0),               # 2.0 is 2
    ({"const": 1}, True),
    ({"type": ["number", "null"]}, None),
    ({"type": ["number", "null"]}, "1"),
    ({"minimum": 4}, "2"),                 # a bound skips non-numbers
    ({"minimum": 4}, float("nan")),
    ({"exclusiveMinimum": 0}, 0),
    ({"minItems": 2}, {"a": 1}),
    ({"required": ["n"]}, {"m": 1}),
    ({"properties": {"b": {}}, "additionalProperties": False}, {"a": 1}),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 3),
    ({"exclusiveMaximum": 0.5}, 0.5),
    ({"exclusiveMaximum": 0.5}, 0.49),
    ({"exclusiveMaximum": 0.5}, True),      # a bool is no number
    ({"exclusiveMaximum": 0.5}, float("nan")),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1}),
    ({"properties": {}, "additionalProperties": False}, {}),
    ({"properties": {}, "additionalProperties": False}, {"a": 1}),
    ({"additionalProperties": False}, [1]),  # binds objects alone
    ({"type": ["string", "object"], "properties": {"a": {}},
      "additionalProperties": False}, "b"),
])
def test_keyword_semantics_match_jsonschema(schema, value):
    oracle = validator_for(schema)(schema)
    assert accepted(value, schema) == oracle.is_valid(value)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_accepts_exactly_what_jsonschema_accepts(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(SHIPPED)))
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(containers(cfg))))
        keys = range(len(node)) if isinstance(node, list) else sorted(node)
        if node and data.draw(st.booleans()):
            del node[data.draw(st.sampled_from(keys))]
        elif isinstance(node, list):
            at = data.draw(st.integers(0, len(node)))
            node.insert(at, data.draw(VALUES))
        else:
            key = data.draw(st.sampled_from(keys or KEYS)
                            | st.sampled_from(KEYS))
            node[key] = data.draw(VALUES)
    assert accepted(cfg) == ORACLE.is_valid(cfg)
