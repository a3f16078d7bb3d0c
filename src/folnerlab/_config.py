"""The one checked config reader: the CLI and every ``*from_json`` parser
read each key through ``_get`` (or ``_kind``), which checks the value against
an ``(ok, what)`` pair and never coerces it.  Numbers must be finite.  In a
config loaded into ``_Obj`` objects, ``_unread`` finds the keys that no
reader asked for, so the readers are the only schema.  Imports nothing from
the package."""
from __future__ import annotations

import sys


class ConfigError(ValueError):
    pass


class _Obj(dict):
    """A config object: ``read`` holds each key ``_get`` asked it for."""

    def __init__(self, pairs=()):
        super().__init__(pairs)
        self.read = set()


def _one_of(names) -> tuple:
    """The (ok, what) pair of a string from ``names`` (a table's keys)."""
    return (lambda v: isinstance(v, str) and v in names,
            f"one of {sorted(names)}")


# (ok, what) pairs for `_get`.  `type(v) is int` keeps JSON true/false out.
_INT = (lambda v: type(v) is int, "an integer")
_POS_INT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_OPT_POS_INT = (lambda v: v is None or _POS_INT[0](v), "a positive integer or null")
_NONNEG_INT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_INT_GE_2 = (lambda v: type(v) is int and v >= 2, "an integer >= 2")
# NaN fails the comparison, and an integer past the float range fails it too
_NUM = (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
        "a finite number")
_POS_NUM = (lambda v: _NUM[0](v) and v > 0, "a positive number")
_NONNEG_NUM = (lambda v: _NUM[0](v) and v >= 0, "a non-negative number")
_OPT_POS_NUM = (lambda v: v is None or _POS_NUM[0](v), "a positive number or null")
_OPT_NONNEG_NUM = (lambda v: v is None or _NONNEG_NUM[0](v),
                   "a non-negative number or null")
_NUMS = (lambda v: isinstance(v, list) and all(map(_NUM[0], v)),
         "a list of finite numbers")
_INTS = (lambda v: isinstance(v, list) and all(map(_INT[0], v)),
         "a list of integers")
_OBJ = (lambda v: isinstance(v, dict), "an object")
_OBJS = (lambda v: isinstance(v, list) and all(map(_OBJ[0], v)),
         "a list of objects")
_TWO_OBJS = (lambda v: _OBJS[0](v) and len(v) == 2, "a list of two objects")
_SEQ_KIND = _one_of(("z_boxes", "cyclic_prefix", "zsum_boxes"))
_ANCHORS = (lambda v: v in (None, "squares"), "'squares' or null")
_PATH = (lambda v: v is None or isinstance(v, str), "a path or null")
_INDICES = (lambda v: isinstance(v, list) and bool(v) and all(map(_POS_INT[0], v)),
            "a non-empty list of positive integers")
_SCHEDULE = (lambda v: (_INDICES[0](v) and len(v) >= 2
                        and all(a < b for a, b in zip(v, v[1:]))),
             "a strictly increasing list of positive integers, length >= 2")


def _get(cfg: dict, key: str, default, ok, what: str):
    """``cfg[key]``, or ``default`` when absent (``...`` = required).

    A dotted key reads inside a nested object; a value failing ``ok`` is a
    config error naming the key and ``what`` it must be.
    """
    outer, _, name = key.rpartition(".")
    obj = _get(cfg, outer, {}, *_OBJ) if outer else cfg
    if isinstance(obj, _Obj):
        obj.read.add(name)
    if name not in obj:
        if default is ...:
            raise ConfigError(f"missing config key {key!r}")
        return default
    v = obj[name]
    if not ok(v):
        raise ConfigError(f"{key} must be {what}")
    return v


def _kind(d: dict, table: dict):
    """The entry of ``table`` that the required ``kind`` key names."""
    return table[_get(d, "kind", ..., *_one_of(table))]


def _unread(v, path: str = ""):
    """The dotted path of each key in ``v``, at any depth, that no ``_get``
    read; a list entry's path holds its index."""
    if isinstance(v, list):
        for i, x in enumerate(v):
            yield from _unread(x, f"{path}{i}.")
    elif isinstance(v, _Obj):
        for k, x in v.items():
            yield from _unread(x, f"{path}{k}.") if k in v.read else [path + k]
