"""Exact arithmetic for the supported countable discrete abelian groups.

Three group kinds, all amenable:

* ``ZPower(d)``     -- the lattice Z^d; elements are length-``d`` int tuples.
* ``CyclicSum(p)``  -- a countable direct sum of cyclic groups Z_{p_0} + Z_{p_1} + ...;
  elements are finite-support sparse maps.  The period list extends past its
  explicit entries by repeating the last one, so a conceptually infinite sum
  is described by a finite list.
* ``ZSum()``        -- the direct sum of countably many copies of Z; elements
  are finite-support integer sequences.

Elements are plain tuples (dense ints for ``ZPower``; sorted, zero-free
``(index, value)`` pairs for the sum kinds) so they hash, compare and sort
deterministically; every element also has a dense integer row.

``FinSet`` is the one finite-set representation: a sorted int64 array of
mixed-radix keys of the elements' dense rows in the set's bounding box.  Set
operations are sorted-array work on keys; the Minkowski product is one
exact integer routine: broadcast key sums, sorted, or counted cell by cell
in blocks when the sum box has no more cells than there are pairs;
erosions and covering multiplicities read the same pair counts.  Tuples
are decoded on demand.

The bounding box of a non-empty set is tight: ``lo`` is the least row and
``lo + ext - 1`` the greatest, coordinate by coordinate, and the sum kinds
carry no trailing all-zero coordinate.  So a set is a full box exactly when
it has ``prod(ext)`` keys (``FinSet.is_box``), and four fast paths read no
key: ``is_subset`` decides by the boxes alone when A's box leaves B's or B
is a box; ``union`` returns an operand that is a box holding the other;
``product_set`` of two boxes is the sum box unless a CyclicSum run wraps;
``erode`` of a box by any set is a box (on ZPower and ZSum the erosion by
the set's bounding box; on CyclicSum when the box is a coset box).  The
Boxes section holds the box arithmetic: sums of boxes, unions of such sums
(``folner``'s inverse unions), and tiles composed under a scaling or
shifting isomorphism (``tiling.compose``).  Every box is built
there, by one builder (``_box``).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._bits import GOLDEN64, MASK64, mix64, mix64_np, premix_np
from ._config import _INT, _INTS, _get, _kind


class GroupMismatchError(ValueError):
    """Two operands belong to different groups."""


class BudgetError(RuntimeError):
    """An enumeration budget was exceeded, or a box outgrew int64 keys."""


class Group:
    """Base class of the group kinds.  Each kind gives exact element
    arithmetic (``identity``, ``mul``; ``elem_to_json`` writes an element as
    JSON; set inverses are ``inverse_set``), dense rows for the array paths
    (``dense_width``, ``dense_rows``, ``rows_to_elems``, ``add_rows``), the
    seed-free 64-bit cell keys of sampling (``elem_key``, ``keys_for_rows``,
    equal across the two) and ``random_elem``."""

    kind: str = ""

    def add_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products of dense rows of one width, broadcast as numpy does."""
        return a + b

    def translate_rows(self, rows: np.ndarray, offset_rows: np.ndarray) -> np.ndarray:
        """(K, n, w): the n ``rows`` translated by each of the K ``offset_rows``
        (abelian, so right and left agree)."""
        return self.add_rows(offset_rows[:, None, :], rows[None, :, :])

    def generators(self) -> list:
        """Canonical translation directions used by diagnostics."""
        return [((0, 1),)]

    @staticmethod
    def from_json(d: dict) -> "Group":
        return _kind(d, _GROUP_KINDS)(d)


@dataclass(frozen=True)
class ZPower(Group):
    d: int
    kind: str = "z_power"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def elem_to_json(self, e):
        return list(e)

    def dense_width(self, elems) -> int:
        return self.d

    def dense_rows(self, elems, width: Optional[int] = None) -> np.ndarray:
        rows = np.asarray(list(elems), dtype=np.int64)
        return rows.reshape(len(rows), self.d)

    def rows_to_elems(self, rows: np.ndarray) -> list:
        return list(map(tuple, rows.tolist()))

    def elem_key(self, e) -> int:
        h = GOLDEN64
        for c in e:
            h = mix64(h ^ (c & MASK64))
        return h

    def keys_for_rows(self, rows: np.ndarray) -> np.ndarray:
        h = np.full(rows.shape[0], GOLDEN64, dtype=np.uint64)
        for j in range(rows.shape[1]):
            h = mix64_np(h ^ rows[:, j].astype(np.uint64))
        return h

    def generators(self) -> list:
        return [tuple(int(i == j) for j in range(self.d)) for i in range(self.d)]

    def random_elem(self, rng, span: int = 3):
        return tuple(int(x) for x in rng.integers(-span, span + 1, size=self.d))


class _SparseSumBase(Group):
    """The finite-support direct-sum kinds: elements are sorted, zero-free
    (index, value) pairs, with values reduced by ``_reduce``."""

    def _reduce(self, i: int, v: int) -> int:
        return v

    def _canon(self, pairs) -> tuple:
        d = {}
        for i, v in pairs:
            i = int(i)
            if i < 0:
                raise ValueError("support indices must be >= 0")
            v = self._reduce(i, int(v))
            if v != 0:
                d[i] = v
        return tuple(sorted(d.items()))

    def identity(self):
        return ()

    def mul(self, a, b):
        d = dict(a)
        for i, v in b:
            d[i] = self._reduce(i, d.get(i, 0) + v)
        return tuple(sorted((i, v) for i, v in d.items() if v))

    def random_elem(self, rng, span: int = 3):
        return self._canon([self._random_pair(rng, span)
                            for _ in range(int(rng.integers(0, 3)))])

    def elem_to_json(self, e):
        return [[i, v] for i, v in e]

    def dense_width(self, elems) -> int:
        return max([e[-1][0] + 1 for e in elems if e], default=1)

    def dense_rows(self, elems, width: Optional[int] = None) -> np.ndarray:
        elems = list(elems)
        width = width or self.dense_width(elems)
        rows = np.zeros((len(elems), width), dtype=np.int64)
        for r, e in enumerate(elems):
            for i, v in e:
                if i >= width:
                    raise ValueError("dense width too small for element support")
                rows[r, i] = v
        return rows

    def rows_to_elems(self, rows: np.ndarray) -> list:
        return [tuple((i, v) for i, v in enumerate(row) if v)
                for row in rows.tolist()]

    def elem_key(self, e) -> int:
        h = GOLDEN64
        for i, v in e:
            h = mix64(h ^ ((i + 1) & MASK64))
            h = mix64(h ^ (v & MASK64))
        return h

    def keys_for_rows(self, rows: np.ndarray) -> np.ndarray:
        h = np.full(rows.shape[0], GOLDEN64, dtype=np.uint64)
        for j in range(rows.shape[1]):
            col = rows[:, j]
            t = mix64_np(h ^ np.uint64(j + 1))
            t = mix64_np(t ^ col.astype(np.uint64))
            h = np.where(col != 0, t, h)
        return h


@dataclass(frozen=True)
class CyclicSum(_SparseSumBase):
    periods: tuple
    kind: str = "cyclic_sum"

    def __post_init__(self):
        if not self.periods or any(int(p) < 2 for p in self.periods):
            raise ValueError("periods must be a non-empty list of integers >= 2")
        object.__setattr__(self, "periods", tuple(int(p) for p in self.periods))

    def period(self, i: int) -> int:
        return self.periods[i] if i < len(self.periods) else self.periods[-1]

    def _reduce(self, i: int, v: int) -> int:
        return v % self.period(i)

    def periods_vector(self, width: int) -> np.ndarray:
        return np.asarray([self.period(i) for i in range(width)], dtype=np.int64)

    def add_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.periods_vector(a.shape[-1])

    def _random_pair(self, rng, span: int) -> tuple:
        i = int(rng.integers(0, span + 1))
        return i, int(rng.integers(0, self.period(i)))


@dataclass(frozen=True)
class ZSum(_SparseSumBase):
    kind: str = "z_sum"

    def _random_pair(self, rng, span: int) -> tuple:
        return int(rng.integers(0, 4)), int(rng.integers(-span, span + 1))


_GROUP_KINDS = {
    "z_power": lambda d: ZPower(_get(d, "d", ..., *_INT)),
    "cyclic_sum": lambda d: CyclicSum(tuple(_get(d, "periods", ..., *_INTS))),
    "z_sum": lambda d: ZSum(),
}


# ---------------------------------------------------------------------------
# Finite subsets: one sorted int64 key array in the set's bounding box


def _pad(t: Sequence[int], w: int, fill: int) -> tuple:
    return tuple(t) + (fill,) * (w - len(t))


def _widen(rows: np.ndarray, w: int) -> np.ndarray:
    """Rows zero-padded to at least ``w`` columns."""
    return rows if w <= rows.shape[1] else np.pad(rows, ((0, 0), (0, w - rows.shape[1])))


@functools.lru_cache(maxsize=4096)
def _radix(ext: tuple) -> tuple:
    """(strides, ext) arrays of the box of extents ``ext``, coordinate 0 most
    significant; BudgetError when its cells do not all have int64 keys."""
    if math.prod(ext) >= 1 << 63:
        raise BudgetError(f"a box of {math.prod(ext)} cells does not fit int64 keys")
    strides = [math.prod(ext[i + 1:]) for i in range(len(ext))]
    return np.asarray(strides, dtype=np.int64), np.asarray(ext, dtype=np.int64)


def _decode(lo: tuple, ext: tuple, keys: np.ndarray) -> np.ndarray:
    """Dense rows of keys of the box (lo, ext), in key order."""
    strides, extent = _radix(ext)
    return keys[:, None] // strides % extent + np.asarray(lo, dtype=np.int64)


def _unique(keys: np.ndarray, counts: bool = False):
    """The sorted distinct keys, and how often each occurs when ``counts``
    (sorting by hand: ``np.unique`` pulls in ``numpy.ma``)."""
    keys = np.sort(keys, axis=None)
    first = np.concatenate((keys[:1] == keys[:1], keys[1:] != keys[:-1]))
    if not counts:
        return keys[first]
    return keys[first], np.diff(np.flatnonzero(np.concatenate((first, [True]))))


def _encode(grp: Group, rows) -> tuple:
    """(lo, ext, keys): the bounding box of dense rows (reduced on CyclicSum)
    and their sorted, distinct keys in it."""
    rows = np.asarray(rows, dtype=np.int64)
    if isinstance(grp, CyclicSum):
        rows = rows % grp.periods_vector(rows.shape[1])
    if not len(rows):
        return (0,) * rows.shape[1], (1,) * rows.shape[1], np.zeros(0, dtype=np.int64)
    lo = rows.min(axis=0)
    ext = tuple((rows.max(axis=0) - lo + 1).tolist())
    return tuple(lo.tolist()), ext, _unique((rows - lo) @ _radix(ext)[0])


def _keys_in(rows: np.ndarray, lo: tuple, ext: tuple) -> np.ndarray:
    """Keys of dense rows in the box (lo, ext); -1 for rows outside it."""
    w = len(ext)
    rows = _widen(rows, w)
    strides, extent = _radix(ext)
    d = rows[:, :w] - np.asarray(lo, dtype=np.int64)
    inside = ((d >= 0) & (d < extent)).all(axis=1) & ~rows[:, w:].any(axis=1)
    return np.where(inside, d @ strides, -1)


def _padded_boxes(*sets: "FinSet") -> list:
    """(lo, ext) of each set's box, padded to the widest set's width."""
    w = max(X.width for X in sets)
    return [(_pad(X.lo, w, 0), _pad(X.ext, w, 1)) for X in sets]


def _rebox(F: "FinSet", lo: tuple, ext: tuple) -> np.ndarray:
    """F's keys in a box (lo, ext) that holds F's box, still sorted: mixed-radix
    keys order rows lexicographically in every box."""
    if (F.lo, F.ext) == (lo, ext):
        return F.keys
    strides, extent = _radix(F.ext)
    target = _radix(ext)[0]
    shift = sum((a - b) * s for a, b, s in zip(_pad(F.lo, len(lo), 0), lo, target.tolist()))
    return (F.keys[:, None] // strides % extent) @ target[:F.width] + shift


def _member(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Which of ``keys`` occur in the sorted array ``table``."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    return table[np.minimum(np.searchsorted(table, keys), len(table) - 1)] == keys


class FinSet:
    """A finite subset of ``group``: one sorted, unique int64 array ``keys``
    of the mixed-radix indices of its elements' dense rows inside its
    bounding box (``lo``, ``ext``), coordinate 0 most significant.  The sum
    kinds take the narrowest width that holds every support, so equal sets
    have equal (lo, ext, keys).  ``elems`` (tuples) and ``rows()`` are
    decoded on demand, in tuple order (on ZPower, key order)."""

    __slots__ = ("group", "lo", "ext", "keys", "_rows", "_elems", "_cell_keys")

    def __init__(self, group: Group, elems: Iterable = ()):
        self._put(group, *_encode(group, group.dense_rows(list(elems))))

    @classmethod
    def from_rows(cls, group: Group, rows) -> "FinSet":
        """The set of the elements given as dense rows (repeats allowed)."""
        return cls._of(group, *_encode(group, rows))

    @classmethod
    def _of(cls, group: Group, lo, ext, keys: np.ndarray) -> "FinSet":
        self = cls.__new__(cls)
        self._put(group, lo, ext, keys)
        return self

    def _put(self, group, lo, ext, keys):
        w = len(ext)
        if not isinstance(group, ZPower):  # trailing zero coordinates carry no digit
            while w > 1 and lo[w - 1] == 0 and ext[w - 1] == 1:
                w -= 1
        self.group, self.lo, self.ext = group, _pad(lo[:w], 1, 0), _pad(ext[:w], 1, 1)
        self.keys, self._rows, self._elems, self._cell_keys = keys, None, None, None

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, e):
        try:
            row = self.group.dense_rows([e])
        except (TypeError, ValueError):
            return False
        return (self.group.rows_to_elems(row)[0] == e
                and bool(_member(_keys_in(row, self.lo, self.ext), self.keys)[0]))

    def __eq__(self, other):
        return (isinstance(other, FinSet) and self.group == other.group
                and (self.lo, self.ext) == (other.lo, other.ext)
                and np.array_equal(self.keys, other.keys))

    def __hash__(self):
        return hash((self.group, self.lo, self.ext, self.keys.tobytes()))

    def __repr__(self):
        return f"FinSet(group={self.group!r}, elems={self.elems!r})"

    @property
    def is_empty(self) -> bool:
        return not len(self.keys)

    @property
    def width(self) -> int:
        return len(self.ext)

    @property
    def is_box(self) -> bool:
        """Every cell of the bounding box is an element."""
        return len(self.keys) == math.prod(self.ext)

    def _key_rows(self, width: int = 0) -> np.ndarray:
        return _widen(_decode(self.lo, self.ext, self.keys), width)

    def rows(self, width: int = 0) -> np.ndarray:
        """Dense rows in element order, zero-padded to ``width`` columns."""
        if self._rows is None:
            rows = self._key_rows()
            if not isinstance(self.group, ZPower):
                # sort as the (index, value) pairs do: a zero coordinate reads
                # as below every value when nothing non-zero follows it (the
                # tuple has ended), else as above every value
                big = np.iinfo(np.int64)
                later = np.logical_or.accumulate(rows[:, ::-1] != 0, axis=1)[:, ::-1]
                ranked = np.where(rows != 0, rows, np.where(later, big.max, big.min))
                rows = rows[np.lexsort(ranked.T[::-1])]
            self._rows = rows
        return _widen(self._rows, width)

    def cell_keys(self) -> np.ndarray:
        """The premixed sampling keys (``premix_np`` of ``keys_for_rows``) in
        element order: hashed once per set, and read-only."""
        if self._cell_keys is None:
            keys = premix_np(self.group.keys_for_rows(self.rows()))
            keys.flags.writeable = False
            self._cell_keys = keys
        return self._cell_keys

    @property
    def elems(self) -> tuple:
        if self._elems is None:
            self._elems = tuple(self.group.rows_to_elems(self.rows()))
        return self._elems

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The position in element order of each dense row, or -1 for a row
        that is not an element."""
        keys = _keys_in(rows, self.lo, self.ext)
        found = _member(keys, self.keys)
        pos = np.searchsorted(self.keys, keys[found])
        if not isinstance(self.group, ZPower):  # key order -> element order
            order = np.searchsorted(self.keys, _keys_in(self.rows(), self.lo, self.ext))
            pos = np.argsort(order)[pos]
        out = np.full(len(keys), -1, dtype=np.int64)
        out[found] = pos
        return out

    def take(self, idx) -> "FinSet":
        """The subset at positions ``idx`` of the element order."""
        return FinSet.from_rows(self.group, self.rows()[idx])

    def to_json(self) -> list:
        return [self.group.elem_to_json(e) for e in self.elems]


def _require_same_group(*sets: FinSet):
    g0 = sets[0].group
    for s in sets[1:]:
        if s.group != g0:
            raise GroupMismatchError(f"group mismatch: {g0} vs {s.group}")
    return g0


def translate_left(g, F: FinSet) -> FinSet:
    """g*F, which is also F*g: every group here is abelian."""
    grp = F.group
    w = max(F.width, grp.dense_width([g]))
    return FinSet.from_rows(grp, grp.translate_rows(F._key_rows(w),
                                                    grp.dense_rows([g], w))[0])


def translate_right(F: FinSet, g) -> FinSet:
    return translate_left(g, F)


def inverse_set(F: FinSet) -> FinSet:
    return FinSet.from_rows(F.group, -F._key_rows())


def _combine(op, E: FinSet, F: FinSet, tight: bool = False) -> FinSet:
    """A set operation on the keys of E and F in their joint box, which is
    the bounding box of the result when ``tight`` (a union)."""
    grp = _require_same_group(E, F)
    w = max(E.width, F.width)
    boxes = [b for X, b in zip((E, F), _padded_boxes(E, F)) if not X.is_empty]
    lo = tuple(min(b[0][j] for b in boxes) for j in range(w)) if boxes else (0,) * w
    ext = (tuple(max(b[0][j] + b[1][j] for b in boxes) - lo[j] for j in range(w))
           if boxes else (1,) * w)
    keys = op(_rebox(E, lo, ext), _rebox(F, lo, ext))
    if tight:
        return FinSet._of(grp, lo, ext, keys)
    return FinSet.from_rows(grp, _decode(lo, ext, keys))


def union(E: FinSet, F: FinSet) -> FinSet:
    for A, B in ((E, F), (F, E)):  # a box holding the other, read off the boxes
        if A.is_box and is_subset(B, A):
            return A
    return _combine(lambda a, b: _unique(np.concatenate((a, b))), E, F, tight=True)


def intersect(E: FinSet, F: FinSet) -> FinSet:
    return _combine(lambda a, b: a[_member(a, b)], E, F)


def diff(E: FinSet, F: FinSet) -> FinSet:
    return _combine(lambda a, b: a[~_member(a, b)], E, F)


def symdiff(E: FinSet, F: FinSet) -> FinSet:
    return _combine(lambda a, b: np.concatenate((a[~_member(a, b)],
                                                 b[~_member(b, a)])), E, F)


def is_subset(A: FinSet, B: FinSet) -> bool:
    _require_same_group(A, B)
    if A.is_empty:
        return True
    # A lies in its tight box; B's elements are zero past B's width
    (alo, aext), (blo, bext) = _padded_boxes(A, B)
    if not all(b <= a and a + x <= b + y for a, x, b, y in zip(alo, aext, blo, bext)):
        return False
    if B.is_box:
        return True
    return bool(_member(_keys_in(A._key_rows(), B.lo, B.ext), B.keys).all())


_BLOCK_SUMS = 1 << 18  # key sums per block of K's rows in a dense count


def _sum_box(grp: Group, kbox: tuple, fbox: tuple) -> tuple:
    """(lo, ext) holding every product of rows of the boxes (lo, ext) ``kbox``
    and ``fbox``: their sum; on CyclicSum, where sums wrap, the period on
    each coordinate that either box uses."""
    (klo, kext), (flo, fext) = kbox, fbox
    if isinstance(grp, CyclicSum):
        return (0,) * len(kext), tuple(
            1 if (klo[j], kext[j], flo[j], fext[j]) == (0, 1, 0, 1) else grp.period(j)
            for j in range(len(kext)))
    return (tuple(a + b for a, b in zip(klo, flo)),
            tuple(a + b - 1 for a, b in zip(kext, fext)))


def _key_sums(grp: Group, a: np.ndarray, b: np.ndarray, lo: tuple, ext: tuple) -> np.ndarray:
    """(len(a), len(b)): the keys of the products of the dense rows ``a`` and
    ``b`` (reduced on CyclicSum) in a ``_sum_box`` (lo, ext) of their boxes.
    On CyclicSum the coordinates that ``b`` holds constant wrap once per row
    of ``a``, and the others subtract the period where the digits reach it."""
    strides = _radix(ext)[0]
    if not isinstance(grp, CyclicSum):
        return ((a - np.asarray(lo)) @ strides)[:, None] + (b @ strides)[None, :]
    ext, var = np.asarray(ext), ~(b == b[:1]).all(axis=0)
    rows = ((a[:, ~var] + b[0, ~var]) % ext[~var]) @ strides[~var] + a[:, var] @ strides[var]
    sums = rows[:, None] + (b[:, var] @ strides[var])[None, :]
    for j in np.flatnonzero(var):
        np.subtract(sums, ext[j] * strides[j], out=sums,
                    where=a[:, j, None] >= ext[j] - b[None, :, j])
    return sums


def _product(K: FinSet, F: FinSet) -> tuple:
    """(lo, ext, keys, counts): the distinct elements of the multiset K*F as
    keys of their ``_sum_box``, with their multiplicities, exact in integers.

    The key sums are formed in blocks of K's rows and counted into one array
    over the box when it has no more cells than there are pairs (its
    non-zero cells are the keys); otherwise all of them are sorted at once.
    """
    grp, w = K.group, max(K.width, F.width)
    lo, ext = _sum_box(grp, *_padded_boxes(K, F))
    a, b, cells = K._key_rows(w), F._key_rows(w), math.prod(ext)
    dense = cells <= len(a) * len(b)
    # a block has at least as many sums as cells, so counting costs O(pairs)
    step = max(1, max(_BLOCK_SUMS, cells) // len(b)) if dense else len(a)
    blocks = (_key_sums(grp, a[i:i + step], b, lo, ext) for i in range(0, len(a), step))
    if not dense:
        return (lo, ext, *_unique(next(blocks), counts=True))
    counts = np.zeros(cells, dtype=np.int64)
    for sums in blocks:
        counts += np.bincount(sums.ravel(), minlength=cells)
    keys = np.flatnonzero(counts)
    return lo, ext, keys, counts[keys]


def product_set(K: FinSet, F: FinSet) -> FinSet:
    """Minkowski product {k*f : k in K, f in F}, exact."""
    grp = _require_same_group(K, F)
    if K.is_empty or F.is_empty:
        return FinSet(grp)
    ranges = _product_ranges(K, F)
    if ranges is not None:
        return _box(grp, ranges)
    lo, ext, keys, _ = _product(K, F)
    if isinstance(grp, CyclicSum):  # the wrapped sums may not fill the box
        return FinSet.from_rows(grp, _decode(lo, ext, keys))
    return FinSet._of(grp, lo, ext, keys)


def erode(F: FinSet, T: FinSet) -> FinSet:
    """{g in T^-1 F : T*g inside F}, the elements that the multiset T^-1 * F
    reaches |T| times; for non-empty T, every g with T*g inside F."""
    grp = _require_same_group(F, T)
    if F.is_empty or T.is_empty:
        return FinSet(grp)
    cyclic = isinstance(grp, CyclicSum)
    (flo, fext), (tlo, text) = _padded_boxes(F, T)
    full = [cyclic and x == grp.period(j) for j, x in enumerate(fext)]
    if F.is_box and (not cyclic or all(f or x == 1 for f, x in zip(full, fext))):
        # the box [flo - tlo, fhi - thi]: a box holds T*g exactly when it holds
        # the translate of T's bounding box.  On CyclicSum F is a coset box: g
        # is free on its full-period coordinates, and elsewhere T has one value
        ranges = []
        for j, (a, x, b, y) in enumerate(zip(flo, fext, tlo, text)):
            v = (a - b) % grp.period(j) if cyclic else a - b
            ranges.append(range(x) if full[j] else range(v, v + x - y + 1))
        return _box(grp, ranges)
    lo, ext, keys, counts = _product(inverse_set(T), F)
    return FinSet.from_rows(grp, _decode(lo, ext, keys[counts == len(T)]))


def multiplicity(K: FinSet, F: FinSet, W: FinSet) -> np.ndarray:
    """For each element of W, in element order, the number of pairs (k, f)
    of K x F with k*f equal to it."""
    _require_same_group(K, F, W)
    if K.is_empty or F.is_empty or W.is_empty:
        return np.zeros(len(W), dtype=np.int64)
    lo, ext, keys, counts = _product(K, F)
    wk = _keys_in(W.rows(), lo, ext)
    pos = np.minimum(np.searchsorted(keys, wk), len(keys) - 1)
    return np.where(keys[pos] == wk, counts[pos], 0)


# ---------------------------------------------------------------------------
# Boxes: the one place where coordinate ranges become elements


def _box(grp: Group, ranges: Sequence[range]) -> FinSet:
    """The elements whose coordinate i runs over the step-1 ``ranges[i]``:
    the ranges are the bounding box, so the keys are every cell of it."""
    lo, ext = [r.start for r in ranges], [len(r) for r in ranges]
    if not all(ext):
        return FinSet(grp)
    return FinSet._of(grp, lo, ext, np.arange(math.prod(ext), dtype=np.int64))


def _product_ranges(K: FinSet, F: FinSet) -> Optional[list]:
    """The ranges of the box K*F of boxes K and F: coordinate j's x + y - 1
    sums, which on CyclicSum fill [0, p) or run from (a + b) mod p; None when
    such a run wraps, or K or F is no box."""
    if not (K.is_box and F.is_box):
        return None
    (klo, kext), (flo, fext) = _padded_boxes(K, F)
    grp, ranges = K.group, []
    for j, (a, x, b, y) in enumerate(zip(klo, kext, flo, fext)):
        p, s = ((grp.period(j), (a + b) % grp.period(j)) if isinstance(grp, CyclicSum)
                else (math.inf, a + b))
        ranges.append(range(p) if x + y - 1 >= p else range(s, s + x + y - 1))
        if ranges[-1].stop > p:
            return None
    return ranges


def _union_product(Ks: Iterable[FinSet], K: FinSet, F: FinSet) -> FinSet:
    """K*F for K the union of ``Ks``.  When K is no box but every k*F is, they
    are marked on one boolean array over their joint box if it has no more
    cells than K*F has pairs (``_product``'s density rule), else product_set."""
    boxes = [] if K.is_box else [_product_ranges(k, F) for k in Ks]
    if boxes and None not in boxes:
        coords = list(itertools.zip_longest(*boxes, fillvalue=range(1)))
        lo = [min(r.start for r in rs) for rs in coords]
        ext = [max(r.stop for r in rs) - a for rs, a in zip(coords, lo)]
        if math.prod(ext) <= len(K) * len(F):
            marks = np.zeros(ext, dtype=bool)
            for box in zip(*coords):
                marks[tuple(slice(r.start - a, r.stop - a) for r, a in zip(box, lo))] = True
            return FinSet._of(F.group, tuple(lo), tuple(ext), np.flatnonzero(marks))
    return product_set(K, F)


def _composed_box(tile: FinSet, F: FinSet, shift: int, scale: Sequence[int]):
    """tile * phi(F), phi moving F's coordinate j to j + shift scaled by
    scale[j] (1 past its end), for boxes tile (corner t, extent e) and phi(F)
    (f, b in cells of phi's lattice): the box from t + s*f of extent e*b when
    e = s wherever b > 1 and, on CyclicSum, the tile lies below the shift so
    that no sum wraps; else None."""
    w = max(tile.width, shift + F.width)
    t, e = _pad(tile.lo, w, 0), _pad(tile.ext, w, 1)
    f, b = _pad((0,) * shift + F.lo, w, 0), _pad((1,) * shift + F.ext, w, 1)
    s = _pad((1,) * shift + tuple(scale), w, 1)
    wraps = isinstance(tile.group, CyclicSum) and tile.width > shift
    if wraps or not (tile.is_box and F.is_box) or any(
            bj > 1 and ej != sj for ej, sj, bj in zip(e, s, b)):
        return None
    return _box(tile.group, [range(tj + sj * fj, tj + sj * fj + ej * bj)
                             for tj, ej, sj, fj, bj in zip(t, e, s, f, b)])


def _box_shapes(lengths: Iterable[int], top: int, max_card: int) -> list:
    """Shapes with entries in 1..top and cardinality <= max_card, ordered by
    (cardinality, shape)."""
    shapes = [shape for n in lengths
              for shape in itertools.product(range(1, top + 1), repeat=n)
              if math.prod(shape) <= max_card]
    return sorted(shapes, key=lambda shape: (math.prod(shape), shape))


def _prefix_ranges(grp: CyclicSum, n: int, max_card: Optional[int] = None) -> list:
    """Coordinate ranges of the prefix subgroup on indices < n, cut at the
    first index where its order would pass ``max_card``; ``ranges[:k]``
    spans the prefix subgroup on indices < k."""
    ranges, card = [], 1
    for i in range(n):
        card *= grp.period(i)
        if max_card is not None and card > max_card:
            break
        ranges.append(range(grp.period(i)))
    return ranges


def zsum_box(grp: ZSum, shape: Sequence[int]) -> FinSet:
    """The box of finite-support sequences with 0 <= x_i < shape[i]."""
    return _box(grp, [range(int(s)) for s in shape])


# ---------------------------------------------------------------------------
# Deterministic enumeration of finite subsets


@dataclass(frozen=True)
class EnumBudget:
    """Bounds for the deterministic finite-set stream.

    ``max_card`` caps set cardinality, ``[lo, hi]`` the coordinate range,
    ``max_index`` the support length for the sum kinds, and ``max_sets``
    cuts the stream off (None = exhaust).
    """

    max_card: int
    lo: int = 0
    hi: int = 0
    max_index: Optional[int] = None
    max_sets: Optional[int] = None


def _boxes(grp: Group, budget: EnumBudget) -> list:
    """The boxes of the stream: ZPower by (card, elems), the sum kinds by
    (card, shape) (prefix subgroups on CyclicSum grow with n)."""
    if isinstance(grp, ZPower):
        rng = range(budget.lo, budget.hi + 1)
        per_axis = [range(a, b + 1) for a in rng for b in rng if a <= b]
        boxes = [_box(grp, ranges)
                 for ranges in itertools.product(per_axis, repeat=grp.d)
                 if math.prod(map(len, ranges)) <= budget.max_card]
        return sorted(boxes, key=lambda fs: (len(fs), fs.elems))
    max_index = budget.max_index if budget.max_index is not None else 4
    if isinstance(grp, CyclicSum):
        ranges = _prefix_ranges(grp, max_index, budget.max_card)
        return [_box(grp, ranges[:n]) for n in range(1, len(ranges) + 1)]
    shapes = _box_shapes(range(1, max_index + 1), max(2, budget.hi + 1),
                         budget.max_card)
    return [zsum_box(grp, shape) for shape in shapes]


def _ground_set(grp: Group, budget: EnumBudget) -> tuple:
    max_index = budget.max_index if budget.max_index is not None else 3
    if isinstance(grp, CyclicSum):
        ranges = _prefix_ranges(grp, max_index)
    else:
        width = grp.d if isinstance(grp, ZPower) else max_index
        ranges = [range(budget.lo, budget.hi + 1)] * width
    ground = _box(grp, ranges)
    if len(ground) > 100_000:
        raise BudgetError("enumeration ground set too large")
    return ground.elems


def enumerate_finsets(grp: Group, budget: EnumBudget) -> Iterator[FinSet]:
    """Deterministic stream of finite subsets within a budget.

    All boxes (cardinality-capped) come first so that a truncated stream
    still contains the well-shaped large sets, then all combinations of
    ground-set elements ordered by (cardinality, lexicographic), deduped.
    """
    def candidates():
        yield from ((fs.elems, fs) for fs in _boxes(grp, budget))
        ground = _ground_set(grp, budget)  # only once the boxes run out
        for card in range(1, budget.max_card + 1):
            yield from ((combo, None) for combo in itertools.combinations(ground, card))

    def fresh():
        seen = set()
        for elems, fs in candidates():
            if elems and elems not in seen:
                seen.add(elems)
                yield fs or FinSet(grp, elems)

    return itertools.islice(fresh(), budget.max_sets)
