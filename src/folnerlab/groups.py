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
deterministically.  ``FinSet`` carries all finite-subset algebra; every
operation is exact.  Large Minkowski products switch to an occupancy-grid
convolution engine whose integer counts are recovered by rounding (the slack
is asserted) and which is cross-checked against the plain set path in tests.

Every box is built here, by one builder (``_box``): the Folner boxes and
prefix subgroups of ``folner``, the windows and tile shapes of ``tiling``,
and the boxes of the enumeration stream.
"""
from __future__ import annotations

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


def _as_u64(col: np.ndarray) -> np.ndarray:
    return col.astype(np.uint64)


class Group:
    """Base class; concrete kinds implement exact element arithmetic."""

    kind: str = ""

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elem(self, raw):
        """Canonicalize and validate an element from user/JSON input."""
        raise NotImplementedError

    def elem_to_json(self, e):
        raise NotImplementedError

    # -- dense-row machinery (vectorized paths) --------------------------

    def dense_width(self, elems) -> int:
        raise NotImplementedError

    def dense_rows(self, elems, width: Optional[int] = None) -> np.ndarray:
        raise NotImplementedError

    def rows_to_elems(self, rows: np.ndarray) -> list:
        raise NotImplementedError

    def translate_rows(self, rows: np.ndarray, offset_rows: np.ndarray) -> np.ndarray:
        """(K, n, w): the n ``rows`` translated by each of the K ``offset_rows``
        (abelian, so right and left agree)."""
        return offset_rows[:, None, :] + rows[None, :, :]

    def elem_key(self, e) -> int:
        """Seed-free 64-bit key of an element (canonical across paths)."""
        raise NotImplementedError

    def keys_for_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def generators(self) -> list:
        """Canonical translation directions used by diagnostics."""
        raise NotImplementedError

    def random_elem(self, rng, span: int = 3):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(d: dict) -> "Group":
        kind = d.get("kind")
        if kind == "z_power":
            return ZPower(int(d["d"]))
        if kind == "cyclic_sum":
            return CyclicSum(tuple(int(p) for p in d["periods"]))
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
        if not elems:
            return np.zeros((0, self.d), dtype=np.int64)
        return np.asarray(list(elems), dtype=np.int64).reshape(len(elems), self.d)

    def rows_to_elems(self, rows: np.ndarray) -> list:
        return [tuple(int(x) for x in row) for row in rows]

    def elem_key(self, e) -> int:
        h = GOLDEN64
        for c in e:
            h = mix64(h ^ (c & MASK64))
        return h

    def keys_for_rows(self, rows: np.ndarray) -> np.ndarray:
        h = np.full(rows.shape[0], GOLDEN64, dtype=np.uint64)
        for j in range(rows.shape[1]):
            h = mix64_np(h ^ _as_u64(rows[:, j]))
        return h

    def generators(self) -> list:
        gens = []
        for i in range(self.d):
            v = [0] * self.d
            v[i] = 1
            gens.append(tuple(v))
        return gens

    def random_elem(self, rng, span: int = 3):
        return tuple(int(x) for x in rng.integers(-span, span + 1, size=self.d))

    def to_json(self) -> dict:
        return {"kind": "z_power", "d": self.d}


def _canon_pairs(items) -> tuple:
    """Sorted, zero-free (index, value) pairs."""
    d = {}
    for i, v in items:
        i = int(i)
        v = int(v)
        if i < 0:
            raise ValueError("support indices must be >= 0")
        if v != 0:
            d[i] = v
    return tuple(sorted(d.items()))


class _SparseSumBase(Group):
    """Shared machinery for the finite-support direct-sum kinds."""

    def identity(self):
        return ()

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
        w = 1
        for e in elems:
            if e:
                w = max(w, e[-1][0] + 1)
        return w

    def dense_rows(self, elems, width: Optional[int] = None) -> np.ndarray:
        elems = list(elems)
        if width is None:
            width = self.dense_width(elems)
        rows = np.zeros((len(elems), width), dtype=np.int64)
        for r, e in enumerate(elems):
            for i, v in e:
                if i >= width:
                    raise ValueError("dense width too small for element support")
                rows[r, i] = v
        return rows

    def rows_to_elems(self, rows: np.ndarray) -> list:
        out = []
        for row in rows:
            out.append(tuple((int(i), int(v)) for i, v in enumerate(row) if v != 0))
        return out

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
            active = col != 0
            if not active.any():
                continue
            t = mix64_np(h ^ np.uint64(j + 1))
            t = mix64_np(t ^ _as_u64(col))
            h = np.where(active, t, h)
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

    def _canon(self, pairs) -> tuple:
        d = {}
        for i, v in pairs:
            i = int(i)
            if i < 0:
                raise ValueError("support indices must be >= 0")
            v = int(v) % self.period(i)
            if v != 0:
                d[i] = v
        return tuple(sorted(d.items()))

    def mul(self, a, b):
        d = dict(a)
        for i, v in b:
            w = (d.get(i, 0) + v) % self.period(i)
            if w == 0:
                d.pop(i, None)
            else:
                d[i] = w
        return tuple(sorted(d.items()))

    def inv(self, a):
        return tuple((i, self.period(i) - v) for i, v in a)

    def periods_vector(self, width: int) -> np.ndarray:
        return np.asarray([self.period(i) for i in range(width)], dtype=np.int64)

    def translate_rows(self, rows: np.ndarray, offset_rows: np.ndarray) -> np.ndarray:
        return (super().translate_rows(rows, offset_rows)
                % self.periods_vector(rows.shape[1]))

    def generators(self) -> list:
        return [((0, 1),)]

    def random_elem(self, rng, span: int = 3):
        k = int(rng.integers(0, 3))
        pairs = []
        for _ in range(k):
            i = int(rng.integers(0, span + 1))
            pairs.append((i, int(rng.integers(0, self.period(i)))))
        return self._canon(pairs)

    def to_json(self) -> dict:
        return {"kind": "cyclic_sum", "periods": list(self.periods)}


@dataclass(frozen=True)
class ZSum(_SparseSumBase):
    kind: str = "z_sum"

    def _canon(self, pairs) -> tuple:
        return _canon_pairs(pairs)

    def mul(self, a, b):
        d = dict(a)
        for i, v in b:
            w = d.get(i, 0) + v
            if w == 0:
                d.pop(i, None)
            else:
                d[i] = w
        return tuple(sorted(d.items()))

    def inv(self, a):
        return tuple((i, -v) for i, v in a)

    def generators(self) -> list:
        return [((0, 1),)]

    def random_elem(self, rng, span: int = 3):
        k = int(rng.integers(0, 3))
        pairs = []
        for _ in range(k):
            i = int(rng.integers(0, 4))
            v = int(rng.integers(-span, span + 1))
            pairs.append((i, v))
        return _canon_pairs(pairs)

    def to_json(self) -> dict:
        return {"kind": "z_sum"}


# ---------------------------------------------------------------------------
# Finite subsets


@dataclass(frozen=True)
class FinSet:
    """Canonical finite subset: sorted, deduplicated element tuple."""

    group: Group
    elems: tuple

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, e):
        return e in self.as_set()

    @property
    def is_empty(self) -> bool:
        return not self.elems

    def as_set(self) -> frozenset:
        # cached outside the fields, so ==, hash and repr never see it
        s = self.__dict__.get("_set")
        if s is None:
            s = self.__dict__["_set"] = frozenset(self.elems)
        return s

    def to_json(self) -> list:
        return [self.group.elem_to_json(e) for e in self.elems]


def finset(group: Group, elems: Iterable, validate: bool = False) -> FinSet:
    if validate:
        elems = (group.elem(e) for e in elems)
    return FinSet(group, tuple(sorted(set(elems))))


def _require_same_group(*sets: FinSet):
    g0 = sets[0].group
    for s in sets[1:]:
        if s.group != g0:
            raise GroupMismatchError(f"group mismatch: {g0} vs {s.group}")
    return g0


def translate_left(g, F: FinSet) -> FinSet:
    grp = F.group
    return FinSet(grp, tuple(sorted(grp.mul(g, x) for x in F.elems)))


def translate_right(F: FinSet, g) -> FinSet:
    grp = F.group
    return FinSet(grp, tuple(sorted(grp.mul(x, g) for x in F.elems)))


def inverse_set(F: FinSet) -> FinSet:
    grp = F.group
    return FinSet(grp, tuple(sorted(grp.inv(x) for x in F.elems)))


def union(E: FinSet, F: FinSet) -> FinSet:
    _require_same_group(E, F)
    return FinSet(E.group, tuple(sorted(set(E.elems) | set(F.elems))))


def intersect(E: FinSet, F: FinSet) -> FinSet:
    _require_same_group(E, F)
    return FinSet(E.group, tuple(sorted(set(E.elems) & set(F.elems))))


def diff(E: FinSet, F: FinSet) -> FinSet:
    _require_same_group(E, F)
    return FinSet(E.group, tuple(sorted(set(E.elems) - set(F.elems))))


def symdiff(E: FinSet, F: FinSet) -> FinSet:
    _require_same_group(E, F)
    return FinSet(E.group, tuple(sorted(set(E.elems) ^ set(F.elems))))


_GRID_PAIR_THRESHOLD = 60_000
_GRID_CELL_CAP = 60_000_000


def _product_set_naive(K: FinSet, F: FinSet) -> frozenset:
    grp = K.group
    out = set()
    for k in K.elems:
        for f in F.elems:
            out.add(grp.mul(k, f))
    return frozenset(out)


def _grid_linear_counts(grp: Group, K: FinSet, F: FinSet):
    """Linear-convolution Minkowski counts for ZPower / ZSum; None if infeasible."""
    from scipy.signal import fftconvolve

    width = max(grp.dense_width(K.elems), grp.dense_width(F.elems))
    rk = grp.dense_rows(K.elems, width)
    rf = grp.dense_rows(F.elems, width)
    mins_k, maxs_k = rk.min(axis=0), rk.max(axis=0)
    mins_f, maxs_f = rf.min(axis=0), rf.max(axis=0)
    shape_k = maxs_k - mins_k + 1
    shape_f = maxs_f - mins_f + 1
    out_shape = shape_k + shape_f - 1
    if np.prod(out_shape.astype(np.float64)) > _GRID_CELL_CAP:
        return None
    a = np.zeros(tuple(shape_k), dtype=np.float64)
    b = np.zeros(tuple(shape_f), dtype=np.float64)
    a[tuple((rk - mins_k).T)] = 1.0
    b[tuple((rf - mins_f).T)] = 1.0
    cc = fftconvolve(a, b)
    counts = np.rint(cc).astype(np.int64)
    if np.abs(cc - counts).max() > 0.1:
        raise ArithmeticError("convolution rounding slack exceeded")
    offset = mins_k + mins_f
    return counts, offset


def _grid_cyclic_counts(grp: CyclicSum, K: FinSet, F: FinSet):
    """Cyclic-convolution Minkowski counts inside the prefix subgroup."""
    width = max(grp.dense_width(K.elems), grp.dense_width(F.elems))
    shape = tuple(int(p) for p in grp.periods_vector(width))
    if np.prod(np.asarray(shape, dtype=np.float64)) > _GRID_CELL_CAP:
        return None
    rk = grp.dense_rows(K.elems, width)
    rf = grp.dense_rows(F.elems, width)
    a = np.zeros(shape, dtype=np.float64)
    b = np.zeros(shape, dtype=np.float64)
    a[tuple(rk.T)] = 1.0
    b[tuple(rf.T)] = 1.0
    cc = np.real(np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b)))
    counts = np.rint(cc).astype(np.int64)
    if np.abs(cc - counts).max() > 0.1:
        raise ArithmeticError("convolution rounding slack exceeded")
    return counts


def _product_grid(K: FinSet, F: FinSet):
    """(counts, decode) via occupancy grids, or None when infeasible."""
    grp = K.group
    if isinstance(grp, CyclicSum):
        counts = _grid_cyclic_counts(grp, K, F)
        if counts is None:
            return None

        def decode(c=counts):
            rows = np.argwhere(c > 0)
            return grp.rows_to_elems(rows)

        return counts, decode
    if isinstance(grp, (ZPower, ZSum)):
        res = _grid_linear_counts(grp, K, F)
        if res is None:
            return None
        counts, offset = res

        def decode(c=counts, off=offset):
            rows = np.argwhere(c > 0) + off
            return grp.rows_to_elems(rows)

        return counts, decode
    return None


def product_set(K: FinSet, F: FinSet) -> FinSet:
    """Minkowski product {k*f : k in K, f in F}, exact."""
    grp = _require_same_group(K, F)
    if K.is_empty or F.is_empty:
        return FinSet(grp, ())
    if len(K) * len(F) > _GRID_PAIR_THRESHOLD:
        res = _product_grid(K, F)
        if res is not None:
            _, decode = res
            return FinSet(grp, tuple(sorted(decode())))
    return FinSet(grp, tuple(sorted(_product_set_naive(K, F))))


def product_count(K: FinSet, F: FinSet) -> int:
    """|K*F| without materializing elements when a grid is available."""
    _require_same_group(K, F)
    if K.is_empty or F.is_empty:
        return 0
    if len(K) * len(F) > _GRID_PAIR_THRESHOLD:
        res = _product_grid(K, F)
        if res is not None:
            counts, _ = res
            return int((counts > 0).sum())
    return len(_product_set_naive(K, F))


# ---------------------------------------------------------------------------
# Boxes: the one place where coordinate ranges become elements


def _box(grp: Group, ranges: Sequence[range]) -> FinSet:
    """The elements whose coordinate i runs over the ascending ``ranges[i]``.

    For ZPower the product is already in lexicographic order.  The sum kinds
    drop zero coordinates, which reorders but stays injective for one width.
    """
    rows = itertools.product(*ranges)
    if isinstance(grp, ZPower):
        return FinSet(grp, tuple(rows))
    return FinSet(grp, tuple(sorted(
        tuple((i, v) for i, v in enumerate(row) if v != 0) for row in rows)))


def _box_shapes(lengths: Iterable[int], top: int, max_card: int) -> list:
    """Shapes with entries in 1..top and cardinality <= max_card, ordered by
    (cardinality, shape)."""
    shapes = []
    for length in lengths:
        for shape in itertools.product(range(1, top + 1), repeat=length):
            card = math.prod(shape)
            if card <= max_card:
                shapes.append((card, shape))
    shapes.sort()
    return [shape for _, shape in shapes]


def _prefix_ranges(grp: CyclicSum, n: int, max_card: Optional[int] = None) -> list:
    """Coordinate ranges of the prefix subgroup on indices < n, cut at the
    first index where its order would pass ``max_card``; ``ranges[:k]``
    spans the prefix subgroup on indices < k."""
    ranges = []
    card = 1
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
    ground = _box(grp, ranges).elems
    if len(ground) > 100_000:
        raise BudgetError("enumeration ground set too large")
    return ground


def enumerate_finsets(grp: Group, budget: EnumBudget) -> Iterator[FinSet]:
    """Deterministic stream of finite subsets within a budget.

    All boxes (cardinality-capped) come first so that a truncated stream
    still contains the well-shaped large sets, then all combinations of
    ground-set elements ordered by (cardinality, lexicographic), deduped.
    """
    emitted = 0
    seen = set()
    for fs in _boxes(grp, budget):
        if fs.elems in seen or not fs.elems:
            continue
        seen.add(fs.elems)
        yield fs
        emitted += 1
        if budget.max_sets is not None and emitted >= budget.max_sets:
            return
    ground = _ground_set(grp, budget)
    for card in range(1, budget.max_card + 1):
        for combo in itertools.combinations(ground, card):
            if combo in seen:
                continue
            seen.add(combo)
            yield FinSet(grp, combo)
            emitted += 1
            if budget.max_sets is not None and emitted >= budget.max_sets:
                return
