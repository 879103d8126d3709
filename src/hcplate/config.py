"""Run configuration: JSON schema, parsing into model objects, and the
deterministic config hash embedded in every output file."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import tensors as tn
from .geometry import ConfigurationError, InclusionShape, build_macro_mesh
from .limits import ROWS, LoadSpec, RegimeConfig

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NUM_OR_INF = {"oneOf": [_NUM, {"const": "inf"}]}


def _object(properties, required=(), kinds="object", **more):
    """An object schema that lists its keys: a key outside `properties` is
    refused. `kinds` may admit other types too, which the object keywords
    do not bind, and `more` adds keywords of those types."""
    return {"type": kinds, "required": list(required),
            "properties": properties, "additionalProperties": False, **more}


# a Voigt tensor: {"isotropic": {"lambda", "mu"}} or its 21 upper-triangle
# entries
_TENSOR = _object({"isotropic": _object({"lambda": _NUM, "mu": _NUM},
                                        ["lambda", "mu"])},
                  ["isotropic"], ["object", "array"],
                  minItems=21, maxItems=21, items=_NUM)
# an inline material, or (a string) the path of a file that holds one
_MATERIAL = _object({"C0": _TENSOR, "C1": _TENSOR,
                     "rho0": _POS, "rho1": _POS, "nu": _POS},
                    ["C0", "C1"], ["string", "object"])

SCHEMA = _object({
    "material": _MATERIAL,
    "cell": _object({
        "shape": _object({
            "kind": {"enum": ["disk", "square"]},
            "size": {**_POS, "exclusiveMaximum": 0.5},
            "center": {"type": "array", "minItems": 2, "maxItems": 2,
                       "items": _NUM},
        }, ["kind", "size"], ["null", "object"]),
        "n": {"type": "integer", "minimum": 4},
        "n_z": {"type": "integer", "minimum": 2},
        "dump": {"type": "boolean"},
    }, ["n"]),
    "regime": _object({
        "delta": _NUM_OR_INF,
        "mu": {"enum": sorted({r.mu for r in ROWS.values()})},
        "tau": {"enum": sorted({r.tau for r in ROWS.values()})},
        "kappa": _NUM_OR_INF,
    }, ["delta", "mu", "tau"]),
    "macro": _object({
        "L1": _POS, "L2": _POS,
        "n1": {"type": "integer", "minimum": 2},
        "n2": {"type": "integer", "minimum": 2},
        "gamma": {"type": "array", "minItems": 1, "items": {
            "enum": ["left", "right", "bottom", "top"]}},
    }),
    "solver": _object({
        "n_modes": {"type": "integer", "minimum": 1},
        "tol": _POS,
        "seed": {"type": "integer"},
        "eig_solver": {"enum": ["auto", "dense", "shift-invert"]},
    }),
    # the row fixes the Bloch operator, so the section has no keys left
    "bloch": _object({}),
    "spectrum": _object({
        "n_macro": {"type": "integer", "minimum": 1},
        "lambda_max": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "eta_max": _POS,
        "eta_points": {"type": "integer", "minimum": 2},
        "beta_samples": {"type": "integer", "minimum": 2},
    }),
    "load": _object({
        "amplitude": {"type": "array", "minItems": 3, "maxItems": 3,
                      "items": _NUM},
        "macro": _object({"kind": {"enum": ["one", "sine"]},
                          "k1": _NUM, "k2": _NUM, "L1": _NUM, "L2": _NUM}),
        "transverse": {"enum": ["one", "x3"]},
        "cell": {"enum": ["one", "soft"]},
        "time": _object({"kind": {"enum": ["one", "sin"]}, "omega": _NUM}),
    }),
    "resolvent": _object({"lambda": _POS}),
    "evolve": _object({
        "variant": {"enum": list(ROWS)},   # optional echo of the row
        "T": _POS, "dt": _POS,
    }),
    "validate": _object({
        "eps": {"type": "array", "items": _POS},
        "h": _POS,
        "cells_per_eps": {"type": "integer", "minimum": 2},
        "n_z": {"type": "integer", "minimum": 2},
        "n_eigs": {"type": "integer", "minimum": 1},
        "budget": {"type": "integer", "minimum": 1},
    }),
}, ["material", "cell", "regime"])


def _num(value):
    return np.inf if value == "inf" else float(value)


# jsonschema's (draft 2020-12) meaning of each keyword SCHEMA uses: a bool
# is no number, 1.0 is an integer, and enum and const (whose members are
# scalars) tell true from 1
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _is(kind, v):
    if kind == "number":
        return type(v) in (int, float)
    if kind == "integer":
        return type(v) is int or type(v) is float and v.is_integer()
    return isinstance(v, _TYPES[kind])


def _same(a, b):
    return isinstance(a, bool) == isinstance(b, bool) and a == b


# keyword -> (holds(argument, value), message)
_LEAF = {
    "type": (lambda a, v: any(_is(t, v) for t in
                              ([a] if isinstance(a, str) else a)),
             "{v!r} is not of type {a!r}"),
    "enum": (lambda a, v: any(_same(e, v) for e in a),
             "{v!r} is not one of {a!r}"),
    "const": (lambda a, v: _same(v, a), "{v!r} is not {a!r}"),
    "oneOf": (lambda a, v: sum(_valid(s, v) for s in a) == 1,
              "{v!r} is not exactly one of {a!r}"),
    "minimum": (lambda a, v: not (_is("number", v) and v < a),
                "{v!r} is less than the minimum of {a!r}"),
    "exclusiveMinimum": (lambda a, v: not (_is("number", v) and v <= a),
                         "{v!r} is not greater than {a!r}"),
    "exclusiveMaximum": (lambda a, v: not (_is("number", v) and v >= a),
                         "{v!r} is not less than {a!r}"),
    "minItems": (lambda a, v: not (isinstance(v, list) and len(v) < a),
                 "{v!r} has fewer than {a} items"),
    "maxItems": (lambda a, v: not (isinstance(v, list) and len(v) > a),
                 "{v!r} has more than {a} items"),
}
KEYWORDS = {*_LEAF, "required", "properties", "additionalProperties",
            "items"}


def violations(schema, value, path=()):
    """Yield (key path, message) for each keyword of `schema` that `value`
    breaks, in schema order; the key path of `cell.n` is ("cell", "n")."""
    for word, arg in schema.items():
        if word in _LEAF:
            holds, message = _LEAF[word]
            if not holds(arg, value):
                yield path, message.format(a=arg, v=value)
        elif word == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from violations(arg, item, (*path, i))
        elif word == "required" and isinstance(value, dict):
            yield from (((*path, k), "required key is missing")
                        for k in arg if k not in value)
        elif word == "properties" and isinstance(value, dict):
            for k, sub in arg.items():
                if k in value:
                    yield from violations(sub, value[k], (*path, k))
        elif word == "additionalProperties" and isinstance(value, dict):
            # SCHEMA closes its objects (arg is false): refuse the others
            yield from (((*path, k), "unknown key") for k in value
                        if k not in schema.get("properties", {}))


def _valid(schema, value):
    return next(violations(schema, value), None) is None


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file {path} not found")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    _check(SCHEMA, cfg)
    cfg["_dir"] = str(p.parent)
    return cfg


def _check(schema, value, path=()):
    """Refuse `value` at its first breach of `schema`, naming the key path
    (`path` is that of `value` itself)."""
    for where, message in violations(schema, value, path):
        key = ".".join(map(str, where)) or "the top level"
        raise ConfigurationError(f"config schema violation at {key}: {message}")


def config_hash(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if not k.startswith("_")}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def given(node: dict, *keys, **renamed) -> dict:
    """The keys of config section `node` that the config sets, as keyword
    arguments (a JSON array as a tuple): each of `keys` under its own
    name, each key of `renamed` under the name it maps to. A key the config
    leaves out passes nothing, so the library's default holds."""
    names = {**{k: k for k in keys}, **renamed}
    return {names[k]: tuple(v) if isinstance(v, list) else v
            for k, v in node.items() if k in names}


def parse_material(cfg: dict) -> tn.MaterialSpec:
    node = cfg["material"]
    if isinstance(node, str):
        p = Path(node)
        if not p.is_absolute():
            p = Path(cfg.get("_dir", ".")) / p
        if not p.exists():
            raise ConfigurationError(f"material file {node} not found")
        # a material file holds the inline object, checked the same way
        node = json.loads(p.read_text())
        _check({**_MATERIAL, "type": "object"}, node, ("material",))
    return tn.material_from_dict(node)


def parse_shape(cfg: dict) -> InclusionShape | None:
    node = cfg["cell"].get("shape")
    if node is None:
        return None
    return InclusionShape(kind=node["kind"], size=float(node["size"]),
                          **given(node, "center"))


def parse_regime(cfg: dict) -> RegimeConfig:
    node = cfg["regime"]
    kappa = node.get("kappa")
    return RegimeConfig(delta=_num(node["delta"]), mu=node["mu"],
                        tau=int(node["tau"]),
                        kappa=None if kappa is None else _num(kappa))


def parse_macro_mesh(cfg: dict):
    node = cfg.get("macro", {})
    return build_macro_mesh(node.get("L1", 1.0), node.get("L2", 1.0),
                            node.get("n1", 8), node.get("n2", 8),
                            **given(node, gamma="gamma_spec"))


def _macro_profile(node):
    if node is None or node.get("kind", "one") == "one":
        return None
    k1 = node.get("k1", 1)
    k2 = node.get("k2", 1)
    L1 = node.get("L1", 1.0)
    L2 = node.get("L2", 1.0)
    return lambda x: (np.sin(k1 * np.pi * x[0] / L1)
                      * np.sin(k2 * np.pi * x[1] / L2))


def _time_profile(node):
    if node is None or node.get("kind", "one") == "one":
        return None
    w = float(node.get("omega", 1.0))
    return lambda t: np.sin(w * t)


def parse_load(cfg: dict) -> LoadSpec:
    node = cfg.get("load", {})
    return LoadSpec(macro=_macro_profile(node.get("macro")),
                    time=_time_profile(node.get("time")),
                    **given(node, "amplitude", "transverse", "cell"))

