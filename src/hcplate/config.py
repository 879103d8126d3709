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
_NUM_OR_INF = {"oneOf": [_NUM, {"const": "inf"}]}
# a Voigt tensor: {"isotropic": {"lambda", "mu"}} or its 21 upper-triangle
# entries (required and properties bind objects alone, the item keywords
# arrays alone)
_TENSOR = {
    "type": ["object", "array"],
    "required": ["isotropic"],
    "properties": {"isotropic": {"type": "object",
                                 "required": ["lambda", "mu"],
                                 "properties": {"lambda": _NUM, "mu": _NUM}}},
    "minItems": 21, "maxItems": 21, "items": _NUM,
}
# an inline material, or (a string) the path of a file that holds one
_MATERIAL = {
    "type": ["string", "object"],
    "required": ["C0", "C1"],
    "properties": {"C0": _TENSOR, "C1": _TENSOR,
                   "rho0": _NUM, "rho1": _NUM, "nu": _NUM},
}

SCHEMA = {
    "type": "object",
    "required": ["material", "cell", "regime"],
    "properties": {
        "material": _MATERIAL,
        "cell": {
            "type": "object",
            "required": ["n"],
            "properties": {
                "shape": {
                    "type": ["null", "object"],
                    "required": ["kind", "size"],
                    "properties": {
                        "kind": {"enum": ["disk", "square"]},
                        "size": _NUM,
                        "center": {"type": "array", "minItems": 2,
                                   "maxItems": 2, "items": _NUM},
                    },
                },
                "n": {"type": "integer", "minimum": 4},
                "n_z": {"type": "integer", "minimum": 2},
                "dump": {"type": "boolean"},
            },
        },
        "regime": {
            "type": "object",
            "required": ["delta", "mu", "tau"],
            "properties": {
                "delta": _NUM_OR_INF,
                "mu": {"enum": sorted({r.mu for r in ROWS.values()})},
                "tau": {"enum": sorted({r.tau for r in ROWS.values()})},
                "kappa": _NUM_OR_INF,
            },
        },
        "macro": {
            "type": "object",
            "properties": {
                "L1": {"type": "number", "exclusiveMinimum": 0},
                "L2": {"type": "number", "exclusiveMinimum": 0},
                "n1": {"type": "integer", "minimum": 2},
                "n2": {"type": "integer", "minimum": 2},
                "gamma": {"type": "array", "minItems": 1, "items": {
                    "enum": ["left", "right", "bottom", "top"]}},
            },
        },
        "solver": {
            "type": "object",
            "properties": {
                "n_modes": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer"},
                "eig_solver": {"enum": ["auto", "dense", "shift-invert"]},
            },
            # removed knobs are refused by name, never silently ignored
            "propertyNames": {"not": {"enum": ["dense_threshold"]}},
        },
        # the row fixes the Bloch operator; the override is refused by name
        "bloch": {"type": "object",
                  "propertyNames": {"not": {"enum": ["operator"]}}},
        "spectrum": {
            "type": "object",
            "properties": {
                "n_macro": {"type": "integer", "minimum": 1},
                "lambda_max": {"type": ["number", "null"],
                               "exclusiveMinimum": 0},
                "eta_max": {"type": "number", "exclusiveMinimum": 0},
                "eta_points": {"type": "integer", "minimum": 2},
                "beta_samples": {"type": "integer", "minimum": 2},
            },
        },
        "load": {
            "type": "object",
            "properties": {
                "amplitude": {"type": "array", "minItems": 3, "maxItems": 3,
                              "items": _NUM},
                "macro": {"type": "object", "properties": {
                    "kind": {"enum": ["one", "sine"]},
                    "k1": _NUM, "k2": _NUM, "L1": _NUM, "L2": _NUM}},
                "transverse": {"enum": ["one", "x3"]},
                "cell": {"enum": ["one", "soft"]},
                "time": {"type": "object", "properties": {
                    "kind": {"enum": ["one", "sin"]}, "omega": _NUM}},
            },
        },
        "resolvent": {
            "type": "object",
            "properties": {"lambda": {"type": "number", "exclusiveMinimum": 0}},
        },
        "evolve": {
            "type": "object",
            "properties": {
                "variant": {"enum": list(ROWS)},   # optional echo of the row
                "T": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "validate": {
            "type": "object",
            "properties": {
                "eps": {"type": "array", "items": {
                    "type": "number", "exclusiveMinimum": 0}},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "cells_per_eps": {"type": "integer", "minimum": 2},
                "n_z": {"type": "integer", "minimum": 2},
                "n_eigs": {"type": "integer", "minimum": 1},
                "budget": {"type": "integer", "minimum": 1},
            },
        },
    },
}


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
    "not": (lambda a, v: not _valid(a, v), "{v!r} is not allowed"),
    "minimum": (lambda a, v: not (_is("number", v) and v < a),
                "{v!r} is less than the minimum of {a!r}"),
    "exclusiveMinimum": (lambda a, v: not (_is("number", v) and v <= a),
                         "{v!r} is not greater than {a!r}"),
    "minItems": (lambda a, v: not (isinstance(v, list) and len(v) < a),
                 "{v!r} has fewer than {a} items"),
    "maxItems": (lambda a, v: not (isinstance(v, list) and len(v) > a),
                 "{v!r} has more than {a} items"),
}
KEYWORDS = {*_LEAF, "required", "properties", "propertyNames", "items"}


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
        elif word == "propertyNames" and isinstance(value, dict):
            for k in value:
                yield from violations(arg, k, (*path, k))


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
                          center=tuple(node.get("center", (0.5, 0.5))))


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
                            tuple(node.get("gamma", ("left",))))


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
    return LoadSpec(
        amplitude=tuple(node.get("amplitude", (0.0, 0.0, 1.0))),
        macro=_macro_profile(node.get("macro")),
        transverse=node.get("transverse", "one"),
        cell=node.get("cell", "one"),
        time=_time_profile(node.get("time")),
    )


DEMO_CONFIG = {
    "material": {
        "C0": {"isotropic": {"lambda": 1.0, "mu": 1.0}},
        "C1": {"isotropic": {"lambda": 1.0, "mu": 1.0}},
        "rho0": 1.0, "rho1": 1.0, "nu": 0.2,
    },
    "cell": {"shape": {"kind": "disk", "size": 0.26}, "n": 16, "n_z": 4},
    "regime": {"delta": 1.0, "mu": "eps", "tau": 0},
    "macro": {"L1": 1.0, "L2": 1.0, "n1": 8, "n2": 8, "gamma": ["left"]},
    "solver": {"n_modes": 50},
    "spectrum": {"n_macro": 8, "eta_max": 20.0, "eta_points": 81},
    "load": {"amplitude": [0.0, 0.0, 1.0]},
    "resolvent": {"lambda": 2.0},
    "evolve": {"variant": "real_time", "T": 1.0, "dt": 0.001},
    "validate": {"eps": [0.5, 0.25], "cells_per_eps": 8, "n_z": 4, "n_eigs": 3},
}
