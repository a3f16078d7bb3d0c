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
broadcast key sum, or for large dense products an occupancy-grid
convolution (its rounding slack is asserted); erosions and covering
multiplicities read the same pair counts.  Tuples are decoded on demand.

Every box is built here, by one builder (``_box``): the Folner boxes and
prefix subgroups of ``folner``, the windows and tile shapes of ``tiling``,
and the boxes of the enumeration stream.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._bits import GOLDEN64, MASK64, mix64, mix64_np


class GroupMismatchError(ValueError):
    """Two operands belong to different groups."""


class BudgetError(RuntimeError):
    """An enumeration or grid budget was exceeded."""


class Group:
    """Base class of the group kinds.  Each kind gives exact element
    arithmetic (``identity``, ``mul``, ``inv``; ``elem`` canonicalizes user
    input, ``elem_to_json`` writes it back), dense rows for the array paths
    (``dense_width``, ``dense_rows``, ``rows_to_elems``), the seed-free 64-bit
    cell keys of sampling (``elem_key``, ``keys_for_rows``, equal across the
    two), ``random_elem`` and ``to_json``."""

    kind: str = ""

    def translate_rows(self, rows: np.ndarray, offset_rows: np.ndarray) -> np.ndarray:
        """(K, n, w): the n ``rows`` translated by each of the K ``offset_rows``
        (abelian, so right and left agree)."""
        return offset_rows[:, None, :] + rows[None, :, :]

    def generators(self) -> list:
        """Canonical translation directions used by diagnostics."""
        return [((0, 1),)]

    @staticmethod
    def from_json(d: dict) -> "Group":
        kind = d.get("kind")
        if kind == "z_power":
            if type(d["d"]) is not int:
                raise ValueError("d must be an integer")
            return ZPower(d["d"])
        if kind == "cyclic_sum":
            if any(type(p) is not int for p in d["periods"]):
                raise ValueError("periods must be a list of integers")
            return CyclicSum(tuple(d["periods"]))
        if kind == "z_sum":
            return ZSum()
        raise ValueError(f"unknown group kind: {kind!r}")


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

    def inv(self, a):
        return tuple(-x for x in a)

    def elem(self, raw):
        t = tuple(int(x) for x in raw)
        if len(t) != self.d:
            raise ValueError(f"element must have {self.d} coordinates, got {len(t)}")
        return t

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

    def to_json(self) -> dict:
        return {"kind": "z_power", "d": self.d}


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

    def inv(self, a):
        return tuple((i, self._reduce(i, -v)) for i, v in a)

    def random_elem(self, rng, span: int = 3):
        return self._canon([self._random_pair(rng, span)
                            for _ in range(int(rng.integers(0, 3)))])

    def elem(self, raw):
        if isinstance(raw, dict):
            pairs = raw.items()
        elif raw and not isinstance(raw[0], (tuple, list)):
            pairs = enumerate(raw)  # dense list form
        else:
            pairs = raw
        return self._canon(pairs)

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

    def translate_rows(self, rows: np.ndarray, offset_rows: np.ndarray) -> np.ndarray:
        return (super().translate_rows(rows, offset_rows)
                % self.periods_vector(rows.shape[1]))

    def _random_pair(self, rng, span: int) -> tuple:
        i = int(rng.integers(0, span + 1))
        return i, int(rng.integers(0, self.period(i)))

    def to_json(self) -> dict:
        return {"kind": "cyclic_sum", "periods": list(self.periods)}


@dataclass(frozen=True)
class ZSum(_SparseSumBase):
    kind: str = "z_sum"

    def _random_pair(self, rng, span: int) -> tuple:
        return int(rng.integers(0, 4)), int(rng.integers(-span, span + 1))

    def to_json(self) -> dict:
        return {"kind": "z_sum"}


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

    __slots__ = ("group", "lo", "ext", "keys", "_rows", "_elems")

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
        self.keys, self._rows, self._elems = keys, None, None

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

    @property
    def elems(self) -> tuple:
        if self._elems is None:
            self._elems = tuple(self.group.rows_to_elems(self.rows()))
        return self._elems

    def take(self, idx) -> "FinSet":
        """The subset at positions ``idx`` of the element order."""
        return FinSet.from_rows(self.group, self.rows()[idx])

    def to_json(self) -> list:
        return [self.group.elem_to_json(e) for e in self.elems]


def finset(group: Group, elems: Iterable, validate: bool = False) -> FinSet:
    return FinSet(group, (group.elem(e) for e in elems) if validate else elems)


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
    boxes = [(_pad(X.lo, w, 0), _pad(X.ext, w, 1)) for X in (E, F) if not X.is_empty]
    lo = tuple(min(b[0][j] for b in boxes) for j in range(w)) if boxes else (0,) * w
    ext = (tuple(max(b[0][j] + b[1][j] for b in boxes) - lo[j] for j in range(w))
           if boxes else (1,) * w)
    keys = op(_rebox(E, lo, ext), _rebox(F, lo, ext))
    if tight:
        return FinSet._of(grp, lo, ext, keys)
    return FinSet.from_rows(grp, _decode(lo, ext, keys))


def union(E: FinSet, F: FinSet) -> FinSet:
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
    return bool(_member(_keys_in(A._key_rows(), B.lo, B.ext), B.keys).all())


# the grid wins on dense boxes from about 10,000 pairs (best of 30, direct/grid
# ms, 2 CPUs, numpy 2.4: Z 100x100 .16/.08, Z^2 10^2x10^2 .17/.12, Z^3 4^3x5^3
# .16/.18, Z^3 5^3x5^3 .25/.19, +Z/2 2^6x2^7 .63/.50)
_GRID_PAIR_THRESHOLD = 10_000
_GRID_CELL_CAP = 60_000_000  # cells of the padded FFT grid


def _fast_len(n: int) -> int:
    """The least 2*3*5-smooth length >= n: numpy's FFT is fastest there."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray, shape: tuple) -> np.ndarray:
    """Float cyclic convolution of two occupancy grids zero-padded to
    ``shape``: a linear convolution where ``shape`` holds the full extent."""
    axes = tuple(range(len(shape)))
    fa, fb = (np.fft.rfftn(x, shape, axes) for x in (a, b))
    return np.fft.irfftn(fa * fb, shape, axes)


def _product(K: FinSet, F: FinSet) -> tuple:
    """(lo, ext, keys, counts): the distinct elements of the multiset K*F as
    keys of a box (lo, ext) that holds them, with their multiplicities.

    The box is the sum of the two bounding boxes; on CyclicSum, where sums
    wrap, the period on each coordinate that either set uses.  Above the
    pair threshold, when the box has no more cells than there are pairs and
    its padded FFT grid fits the cell cap, an occupancy-grid convolution
    gives the counts and its non-zero cells are the keys (the rounding slack
    is asserted); otherwise the keys are one broadcast sum.
    """
    grp, w = K.group, max(K.width, F.width)
    cyclic = isinstance(grp, CyclicSum)
    (klo, kext), (flo, fext) = ((_pad(X.lo, w, 0), _pad(X.ext, w, 1)) for X in (K, F))
    if cyclic:
        lo = (0,) * w
        ext = tuple(1 if (klo[j], kext[j], flo[j], fext[j]) == (0, 1, 0, 1)
                    else grp.period(j) for j in range(w))
    else:
        lo = tuple(a + b for a, b in zip(klo, flo))
        ext = tuple(a + b - 1 for a, b in zip(kext, fext))
    pairs = len(K) * len(F)
    if (pairs > _GRID_PAIR_THRESHOLD and math.prod(ext) <= pairs and math.prod(
            fft := ext if cyclic else tuple(map(_fast_len, ext))) <= _GRID_CELL_CAP):
        grids = []
        for X, shape in ((K, kext), (F, fext)):
            shape = ext if cyclic else shape
            grid = np.zeros(math.prod(shape))
            grid[_rebox(X, lo, ext) if cyclic else X.keys] = 1.0
            grids.append(grid.reshape(shape))
        cc = _convolve(*grids, fft)[tuple(map(slice, ext))]
        counts = np.rint(cc).astype(np.int64)
        if np.abs(cc - counts).max() > 0.1:
            raise ArithmeticError("convolution rounding slack exceeded")
        counts = counts.ravel()
        keys = np.flatnonzero(counts)
        return lo, ext, keys, counts[keys]
    strides = _radix(ext)[0]
    a, b = K._key_rows(w), F._key_rows(w)
    if cyclic:
        sums = np.zeros((len(a), len(b)), dtype=np.int64)
        for j in np.flatnonzero(np.asarray(ext) > 1):
            sums += (a[:, j, None] + b[None, :, j]) % ext[j] * strides[j]
    else:
        sums = ((a - np.asarray(lo)) @ strides)[:, None] + (b @ strides)[None, :]
    return (lo, ext, *_unique(sums, counts=True))


def product_set(K: FinSet, F: FinSet) -> FinSet:
    """Minkowski product {k*f : k in K, f in F}, exact."""
    grp = _require_same_group(K, F)
    if K.is_empty or F.is_empty:
        return FinSet(grp)
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
