"""Reuse of the cell-level builders within one process: the memoized
builders share one store of the MEMO_SIZE most recently used results, each
keyed on the builder and its arguments by value. A result is stored only
when the builder returns, so a refusal raises again on every call, and
every array reachable from it is made read-only, so an in-place write
raises instead of reaching later hits.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import numbers
from collections import OrderedDict

import numpy as np

MEMO_SIZE = 16
_STORE: OrderedDict = OrderedDict()


def value_key(x):
    """A hashable key of x by value: arrays by dtype, shape and bytes,
    dataclasses field by field, numbers and strings by type and value;
    TypeError for anything else."""
    if isinstance(x, np.ndarray) and not x.dtype.hasobject:
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__qualname__, *((f.name, value_key(getattr(x, f.name)))
                                        for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, *map(value_key, x))
    if x is None or isinstance(x, (str, numbers.Number, np.bool_)):
        return (type(x).__name__, x)
    raise TypeError(f"no value key for {type(x).__name__}")


def _freeze(x, seen: set):
    """Make every array reachable from x read-only."""
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, list)):
        for v in x:
            _freeze(v, seen)
    elif isinstance(x, dict):
        for v in x.values():
            _freeze(v, seen)
    elif hasattr(x, "__dict__") and not (isinstance(x, type) or callable(x)):
        for v in vars(x).values():
            _freeze(v, seen)


def memoized(fn):
    """fn with its results kept by the value of its arguments."""
    sig, name = inspect.signature(fn), f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (name, value_key(tuple(bound.arguments.values())))
        if key in _STORE:
            _STORE.move_to_end(key)
            return _STORE[key]
        result = fn(*args, **kwargs)
        _freeze(result, set())
        _STORE[key] = result
        if len(_STORE) > MEMO_SIZE:
            _STORE.popitem(last=False)
        return result
    return cached


def clear():
    """Forget every stored result."""
    _STORE.clear()
