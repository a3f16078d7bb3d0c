"""The one checked config reader: the CLI, every ``*from_json`` parser and
``FOLNER_LAB_THREADS`` read each key through ``_get`` (or ``_kind``), which
checks the value against an ``(ok, what)`` pair and never coerces it.
Imports nothing from the package."""
from __future__ import annotations


class ConfigError(ValueError):
    pass


def _one_of(names) -> tuple:
    """The (ok, what) pair of a string from ``names`` (a table's keys)."""
    return (lambda v: isinstance(v, str) and v in names,
            f"one of {sorted(names)}")


def _int_str(v) -> bool:
    """Text that ``int`` reads (an environment value), or empty."""
    try:
        int(v)
    except ValueError:
        return v == ""
    return True


# (ok, what) pairs for `_get`.  `type(v) is int` keeps JSON true/false out.
_INT = (lambda v: type(v) is int, "an integer")
_POS_INT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_OPT_POS_INT = (lambda v: v is None or _POS_INT[0](v), "a positive integer or null")
_NONNEG_INT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_INT_GE_2 = (lambda v: type(v) is int and v >= 2, "an integer >= 2")
_NUM = (lambda v: type(v) in (int, float), "a number")
_POS_NUM = (lambda v: _NUM[0](v) and v > 0, "a positive number")
_NONNEG_NUM = (lambda v: _NUM[0](v) and v >= 0, "a non-negative number")
_OPT_POS_NUM = (lambda v: v is None or _POS_NUM[0](v), "a positive number or null")
_OPT_NONNEG_NUM = (lambda v: v is None or _NONNEG_NUM[0](v),
                   "a non-negative number or null")
_NUMS = (lambda v: isinstance(v, list) and all(map(_NUM[0], v)),
         "a list of numbers")
_INTS = (lambda v: isinstance(v, list) and all(map(_INT[0], v)),
         "a list of integers")
_OBJ = (lambda v: isinstance(v, dict), "an object")
_OBJS = (lambda v: isinstance(v, list) and all(map(_OBJ[0], v)),
         "a list of objects")
_TWO_OBJS = (lambda v: _OBJS[0](v) and len(v) == 2, "a list of two objects")
_INT_STR = (_int_str, "an integer")
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
