"""Folner sequences for the supported groups, with exact invariance diagnostics.

All ratios are `fractions.Fraction`s of exact set sizes, whether a set was
formed key by key or as a closed-form box, so the Tempelman / tempered
witnesses reported here are exact integers divided by exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .groups import (
    BudgetError,
    CyclicSum,
    FinSet,
    Group,
    ZPower,
    ZSum,
    _box,
    _prefix_ranges,
    _union_product,
    erode,
    inverse_set,
    product_set,
    symdiff,
    union,
    zsum_box,
)

_CARD_CAP = 5_000_000


@dataclass(frozen=True)
class FolnerSeq:
    """A named Folner sequence; ``generate`` is exact and deterministic.

    Kinds:
      * ``z_boxes``       on ZPower: F_n = [0,n)^d, optionally translated by
                          an anchor (``anchors="squares"`` uses a_n = n^2 e_1).
      * ``cyclic_prefix`` on CyclicSum: F_n = all elements supported on the
                          first n coordinates.
      * ``zsum_boxes``    on ZSum: F_shape for tuple indices; an integer index
                          n means the diagonal shape (n, ..., n) of length n.
      * ``explicit``      a caller-provided list of finite sets.
    """

    group: Group
    seq_kind: str
    anchors: Optional[str] = None
    sets: Optional[tuple] = None

    def generate(self, index) -> FinSet:
        if self.seq_kind == "z_boxes":
            return self._z_box(index)
        if self.seq_kind == "cyclic_prefix":
            n = int(index)
            if n < 1:
                raise ValueError("index must be >= 1")
            ranges = _prefix_ranges(self.group, n, _CARD_CAP)
            if len(ranges) < n:
                raise BudgetError("prefix set too large")
            return _box(self.group, ranges)
        if self.seq_kind == "zsum_boxes":
            shape = self._zsum_shape(index)
            card = 1
            for s in shape:
                card *= s
                if card > _CARD_CAP:
                    raise BudgetError("zsum box too large")
            return zsum_box(self.group, shape)
        if self.seq_kind == "explicit":
            n = int(index)
            if not 1 <= n <= len(self.sets):
                raise ValueError(f"index {n} out of range for explicit sequence")
            return self.sets[n - 1]
        raise ValueError(f"unknown sequence kind {self.seq_kind!r}")

    def _z_box(self, index) -> FinSet:
        n = int(index)
        if n < 1:
            raise ValueError("index must be >= 1")
        d = self.group.d
        if n ** d > _CARD_CAP:
            raise BudgetError("box too large")
        if self.anchors not in (None, "squares"):
            raise ValueError(f"unknown anchor rule {self.anchors!r}")
        start = n * n if self.anchors == "squares" else 0
        return _box(self.group, [range(start, start + n)] + [range(n)] * (d - 1))

    def _zsum_shape(self, index) -> tuple:
        if isinstance(index, (tuple, list)):
            shape = tuple(int(s) for s in index)
        else:
            n = int(index)
            shape = (n,) * n
        if not shape or any(s < 1 for s in shape):
            raise ValueError("zsum shape entries must be >= 1")
        return shape


def make_folner(group: Group, seq_kind: str, anchors: Optional[str] = None,
                sets: Optional[Sequence[FinSet]] = None) -> FolnerSeq:
    if seq_kind == "z_boxes" and not isinstance(group, ZPower):
        raise ValueError("z_boxes requires a ZPower group")
    if seq_kind == "cyclic_prefix" and not isinstance(group, CyclicSum):
        raise ValueError("cyclic_prefix requires a CyclicSum group")
    if seq_kind == "zsum_boxes" and not isinstance(group, ZSum):
        raise ValueError("zsum_boxes requires a ZSum group")
    if anchors is not None and seq_kind != "z_boxes":
        raise ValueError(f"{seq_kind} takes no anchors")
    if seq_kind == "explicit":
        if not sets:
            raise ValueError("explicit sequence needs sets")
        return FolnerSeq(group, "explicit", sets=tuple(sets))
    return FolnerSeq(group, seq_kind, anchors=anchors)


# ---------------------------------------------------------------------------
# Exact diagnostics


def folner_defect(K: FinSet, F: FinSet) -> Fraction:
    """|F triangle KF| / |F|, exact."""
    if F.is_empty:
        raise ValueError("F must be non-empty")
    KF = product_set(K, F)
    return Fraction(len(symdiff(F, KF)), len(F))


def invariance_check(A: FinSet, K: FinSet, delta) -> tuple:
    """(K, delta)-invariance: |K^{-1}A  intersect  K^{-1}(complement A)| < delta |A|.

    Returns (ok, exact boundary ratio).  The intersection is K^{-1}A less the
    erosion {x : Kx inside A}, so it is finite.
    """
    if A.is_empty:
        raise ValueError("A must be non-empty")
    boundary = len(product_set(inverse_set(K), A)) - len(erode(A, K))
    ratio = Fraction(boundary, len(A))
    return ratio < Fraction(delta), ratio


@dataclass(frozen=True)
class GrowthReport:
    """Ratios |union_{k<=m} F_k^{-1} . target_m| / |target_m| over an index range."""

    ratios: tuple
    witness: Fraction
    ok: bool = True


def _inverse_unions(seq: FolnerSeq, upto: int, target_offset: int = 0):
    """(F_t, U_n) for n = 1..upto, t = n + target_offset: U_n = (union_{k<=n}
    F_k^{-1}) F_t, the union of the F_k^{-1} F_t (F_k^{-1} rebuilt, not kept)."""
    inv_union = FinSet(seq.group)
    for n in range(1, upto + 1):
        inv_union = union(inv_union, inverse_set(seq.generate(n)))
        target = seq.generate(n + target_offset)
        invs = (inverse_set(seq.generate(k)) for k in range(1, n + 1))
        yield target, _union_product(invs, inv_union, target)


def _growth(seq: FolnerSeq, upto: int, target_offset: int) -> GrowthReport:
    ratios = [Fraction(len(U), len(T)) for T, U in _inverse_unions(seq, upto, target_offset)]
    return GrowthReport(ratios=tuple(ratios), witness=max(ratios),
                        ok=not ratios_look_divergent(ratios))


def tempelman_report(seq: FolnerSeq, upto: int) -> GrowthReport:
    """Ratios |union_{k<=n} F_k^{-1} F_n| / |F_n| for n <= upto, exact."""
    return _growth(seq, upto, 0)


def tempered_report(seq: FolnerSeq, upto: int) -> GrowthReport:
    """Ratios |union_{k<=n} F_k^{-1} F_{n+1}| / |F_{n+1}| for n < upto.

    The witness is exact at this budget; no claim is made beyond it.
    """
    if upto < 2:
        raise ValueError("need at least two indices")
    return _growth(seq, upto - 1, 1)


def ratios_look_divergent(ratios) -> bool:
    """Heuristic divergence test for growth-ratio sequences.

    A plateauing sequence (bounded constant exists) has shrinking increments;
    exponential blow-up has growing ones.  Flag divergence only when the
    increments strictly increase over the last three steps and the final
    ratio has at least doubled -- finite data can never prove boundedness,
    so the witness is reported either way.
    """
    rs = [Fraction(r) for r in ratios]
    if len(rs) < 4:
        return False
    inc = [rs[i + 1] - rs[i] for i in range(len(rs) - 1)]
    growing = all(inc[i + 1] > inc[i] > 0 for i in range(len(inc) - 3, len(inc) - 1))
    return growing and rs[-1] > 2 * rs[0]


def defect_profile(seq: FolnerSeq, indices) -> list:
    """Per-generator defects |F triangle gF|/|F| along the sequence."""
    gens = seq.group.generators()
    out = []
    for n in indices:
        F = seq.generate(n)
        row = {"index": n, "size": len(F)}
        for i, g in enumerate(gens):
            row[f"defect_{i}"] = folner_defect(FinSet(seq.group, [g]), F)
        out.append(row)
    return out
