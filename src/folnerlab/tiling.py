"""Tiling certificates: center-set descriptors, exact window verification,
self-similar isomorphisms and tile composition.

A certificate is (tile, centers, iso?).  ``tiles_window_report`` decides
coverage of a finite window by direct counting: every candidate center whose
translate meets the window is enumerated (candidates live in
tile^{-1} . window, which is finite), and each window cell must be hit
exactly once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .folner import _CARD_CAP, FolnerSeq, folner_defect
from .groups import (
    BudgetError,
    CyclicSum,
    FinSet,
    Group,
    ZPower,
    ZSum,
    _box,
    _box_shapes,
    _composed_box,
    _prefix_ranges,
    inverse_set,
    is_subset,
    multiplicity,
    product_set,
    zsum_box,
)


class TilingOverlapError(ValueError):
    """A claimed-disjoint union of tile translates overlapped."""


# ---------------------------------------------------------------------------
# Center-set descriptors (algebraic, so window membership is decidable);
# ``contains_rows`` tests dense rows, one verdict per row


@dataclass(frozen=True)
class LatticeCenters:
    """Union of cosets offsets + diag(moduli) Z^d inside ZPower."""

    group: ZPower
    moduli: tuple
    offsets: tuple = None

    def __post_init__(self):
        if self.offsets is None:
            object.__setattr__(self, "offsets", (self.group.identity(),))
        if len(self.moduli) != self.group.d or any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive, one per coordinate")

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        d = rows[:, None, :] - np.asarray(self.offsets)[None, :, :]
        return (d % np.asarray(self.moduli) == 0).all(axis=2).any(axis=1)


@dataclass(frozen=True)
class PrefixShiftCenters:
    """Elements of a CyclicSum supported on indices >= n (a subgroup)."""

    group: CyclicSum
    n: int

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        return ~rows[:, :self.n].any(axis=1)


@dataclass(frozen=True)
class ZSumLatticeCenters:
    """Elements of ZSum whose first m coordinates are multiples of shape[i]."""

    group: ZSum
    shape: tuple

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        m = min(len(self.shape), rows.shape[1])
        return (rows[:, :m] % np.asarray(self.shape[:m]) == 0).all(axis=1)


# ---------------------------------------------------------------------------
# Self-similar isomorphisms G -> G_T


class _Iso:
    """Shared maps; subclasses define ``group``, and move coordinate j of a
    row to j + ``shift``, scaled by ``scale[j]`` (1 past its end)."""

    def map_rows(self, rows: np.ndarray) -> np.ndarray:
        out = np.pad(rows, ((0, 0), (self.shift, 0)))
        m = min(len(self.scale), rows.shape[1])
        out[:, self.shift:self.shift + m] *= np.asarray(self.scale[:m], dtype=np.int64)
        return out

    def apply(self, e):
        return self.group.rows_to_elems(self.map_rows(self.group.dense_rows([e])))[0]

    def image_set(self, F: FinSet) -> FinSet:
        return FinSet.from_rows(self.group, self.map_rows(F.rows()))


@dataclass(frozen=True)
class ScaleIso(_Iso):
    """ZPower: coordinatewise scaling onto diag(scale) Z^d."""

    group: ZPower
    scale: tuple
    shift = 0


@dataclass(frozen=True)
class ShiftIso(_Iso):
    """CyclicSum: index shift by s; valid only when the period pattern repeats."""

    group: CyclicSum
    shift: int
    scale = ()


@dataclass(frozen=True)
class ZSumScaleIso(_Iso):
    """ZSum: scale coordinate i by shape[i] for i < m, identity beyond."""

    group: ZSum
    shape: tuple
    shift = 0
    scale = property(lambda self: self.shape)


def shift_iso_compatible(group: CyclicSum, shift: int) -> bool:
    """Index shift is an isomorphism onto its image iff periods repeat."""
    return all(group.period(i) == group.period(i + shift)
               for i in range(len(group.periods)))


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class TilingCert:
    tile: FinSet
    centers: object
    iso: object = None


def tiles_window_report(cert: TilingCert, window: FinSet):
    """Exact-cover check of a window: (ok, uncovered, multicovered), the
    window cells that the center translates of the tile hit zero times and
    more than once."""
    candidates = product_set(inverse_set(cert.tile), window)
    centers = candidates.take(cert.centers.contains_rows(candidates.rows()))
    hits = multiplicity(cert.tile, centers, window)
    uncovered = list(window.take(hits == 0).elems)
    multi = list(window.take(hits > 1).elems)
    return (not uncovered and not multi), uncovered, multi


def window_set(group: Group, radius: int, max_index: Optional[int] = None) -> FinSet:
    """A canonical finite window used for coverage checks; ``BudgetError``,
    before any element is built, past the cell cap of the Folner boxes."""
    if isinstance(group, CyclicSum):
        ranges = _prefix_ranges(group, radius, _CARD_CAP)
        too_big = len(ranges) < radius
    else:
        width = group.d if isinstance(group, ZPower) else (
            max_index if max_index is not None else 3)
        ranges = [range(-radius, radius + 1)] * width
        too_big = (2 * radius + 1) ** width > _CARD_CAP
    if too_big:
        raise BudgetError(f"window of radius {radius} has more than "
                          f"{_CARD_CAP} cells")
    return _box(group, ranges)


def standard_cert(seq: FolnerSeq, index) -> Optional[TilingCert]:
    """The canonical tiling certificate of a built-in sequence member."""
    grp = seq.group
    if seq.seq_kind == "z_boxes":
        n = int(index)
        tile = seq.generate(n)
        moduli = (n,) * grp.d
        # anchored boxes still tile, but composition self-similarity needs
        # the zero-anchored subgroup structure
        iso = ScaleIso(grp, moduli) if seq.anchors is None else None
        return TilingCert(tile, LatticeCenters(grp, moduli), iso)
    if seq.seq_kind == "cyclic_prefix":
        n = int(index)
        tile = seq.generate(n)
        iso = ShiftIso(grp, n) if shift_iso_compatible(grp, n) else None
        return TilingCert(tile, PrefixShiftCenters(grp, n), iso)
    if seq.seq_kind == "zsum_boxes":
        shape = seq._zsum_shape(index)
        tile = seq.generate(shape)
        return TilingCert(tile, ZSumLatticeCenters(grp, shape),
                          ZSumScaleIso(grp, shape))
    return None


def compose(cert: TilingCert, F: FinSet) -> FinSet:
    """tile . iso(F): the composed set; translates must be pairwise disjoint.
    A box (``groups._composed_box``) passes the overlap check by proof; gaps,
    overlaps and non-box sets take the Minkowski product."""
    if cert.iso is None:
        raise ValueError("certificate carries no self-similar isomorphism")
    tile, iso = cert.tile, cert.iso
    out = (_composed_box(tile, F, iso.shift, iso.scale)
           if tile.group == F.group == iso.group else None)
    if out is None:
        out = product_set(tile, iso.image_set(F))
    if len(out) != len(tile) * len(F):
        raise TilingOverlapError(
            f"composition overlapped: {len(out)} < {len(tile) * len(F)}")
    return out


@dataclass(frozen=True)
class WitnessB:
    """Sandwich witnesses: compose(cert_m, F_n1) >= F_p >= compose(cert_m, F_n2)."""

    m: int
    p: int
    n1: Optional[int]
    n2: Optional[int]
    gap: Optional[Fraction]
    ok: bool


def condition_b_witness(seq: FolnerSeq, m: int, p: int,
                        search_limit: Optional[int] = None) -> WitnessB:
    """Smallest n1 <= limit with composed superset F_p, and the largest
    n2 <= n1 (<= limit when there is no n1) with composed subset.

    Every sequence with a self-similar certificate (unanchored ``z_boxes``,
    ``cyclic_prefix``, ``zsum_boxes``) is nested, and so are its composed
    sets: "F_p inside composed_n" holds from n1 on, "composed_n inside F_p"
    up to some n.  A composed set has exactly |F_m| * |F_n| cells, so n1 is
    at least n0, the least n <= p with |F_m| * |F_n| >= |F_p|, which a
    bisection over the sizes of F_1, ..., F_p finds without composing.  n1 is
    then found by galloping n = n0, n0 + 2, n0 + 6, n0 + 14, ... and
    bisecting, and n2 by bisecting below it: each n is composed at most
    once, none past 2 * n1 - n0, which is n1 itself where n1 = n0 (as on
    ``z_boxes`` and ``cyclic_prefix``).  Budgets are monotone on nested
    sets, so a probe over budget counts as "from n1 on"; it is raised when
    it is n1, and then a scan over n = 1, 2, ... would raise too.

    The reported gap is (|F_n1| - |F_n2|) * |F_m| / |F_p|, the normalized
    quantity that must vanish for pointwise convergence transfer.
    """
    cert = standard_cert(seq, m)
    if cert is None or cert.iso is None:
        raise ValueError("sequence member has no self-similar certificate")
    Fp = seq.generate(p)
    limit = search_limit if search_limit is not None else max(2 * p, 4)
    probed = {}  # n -> (composed_n inside F_p, F_p inside composed_n or over budget)

    def probe(n: int) -> tuple:
        if n not in probed:
            try:
                composed = compose(cert, seq.generate(n))
            except BudgetError as err:
                probed[n] = (False, err)
            else:
                probed[n] = (is_subset(composed, Fp), is_subset(Fp, composed))
        return probed[n]

    # n0: the first n <= p whose composed set is as large as F_p
    lo, hi = 0, p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if len(cert.tile) * len(seq.generate(mid)) >= len(Fp) else (mid, hi)
    # n1: the first n with probe(n)[1] (limit + 1 for none), galloping from
    # n0 to a bracket (lo, hi] and bisecting it
    lo = hi - 1
    while hi <= limit and not probe(hi)[1]:
        lo, hi = hi, (min(3 * hi - 2 * lo, limit) if hi < limit else limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if probe(mid)[1] else (mid, hi)
    n1 = hi if hi <= limit else None
    if n1 is not None and isinstance(probed[n1][1], BudgetError):
        raise probed[n1][1]
    # n2: the last n <= top with probe(n)[0], bisecting on [lo, hi]
    top = n1 if n1 is not None else limit
    lo = max([n for n, (sub, _) in probed.items() if sub and n <= top], default=0)
    hi = min([n - 1 for n, (sub, _) in probed.items() if not sub] + [top])
    while hi > lo:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if probe(mid)[0] else (lo, mid - 1)
    n2 = lo or None
    if n1 is None or n2 is None:
        return WitnessB(m, p, n1, n2, None, False)
    sizes = (len(seq.generate(n1)), len(seq.generate(n2)))
    gap = Fraction(len(seq.generate(m)) * (sizes[0] - sizes[1]), len(Fp))
    return WitnessB(m, p, n1, n2, gap, True)


# ---------------------------------------------------------------------------
# Tile enumeration (for infima over tiling sets)


def enumerate_tiles(group: Group, max_card: int,
                    max_index: Optional[int] = None,
                    include_arithmetic: bool = True) -> list:
    """Deterministic list of certified tiles, smallest first."""
    tiles = []
    if isinstance(group, ZPower):
        for shape in _box_shapes([group.d], max_card, max_card):
            tile = _box(group, [range(s) for s in shape])
            tiles.append(TilingCert(tile, LatticeCenters(group, shape),
                                    ScaleIso(group, shape)))
        if group.d == 1 and include_arithmetic:
            for step in range(2, 5):
                for m in range(2, max_card // step + 1):
                    elems = tuple((i * step,) for i in range(m))
                    offsets = tuple((j,) for j in range(step))
                    centers = LatticeCenters(group, (m * step,), offsets)
                    tiles.append(TilingCert(FinSet(group, elems), centers))
    elif isinstance(group, CyclicSum):
        top = max_index if max_index is not None else 8
        ranges = _prefix_ranges(group, top, max_card)
        for n in range(1, len(ranges) + 1):
            iso = ShiftIso(group, n) if shift_iso_compatible(group, n) else None
            tiles.append(TilingCert(_box(group, ranges[:n]),
                                    PrefixShiftCenters(group, n), iso))
    else:
        top = max_index if max_index is not None else 3
        for shape in _box_shapes(range(1, top + 1), max_card, max_card):
            # a trailing 1 repeats the box of the shorter shape, listed first
            if len(shape) > 1 and shape[-1] == 1:
                continue
            tiles.append(TilingCert(zsum_box(group, shape),
                                    ZSumLatticeCenters(group, shape),
                                    ZSumScaleIso(group, shape)))
    return tiles


# ---------------------------------------------------------------------------
# Composed tiling Folner sequences inside a center subgroup


@dataclass(frozen=True)
class ComposedSeqReport:
    tile_in_subgroup: bool
    partition_ok: bool
    defects: tuple
    tilings: tuple

    @property
    def ok(self) -> bool:
        return (self.tile_in_subgroup and self.partition_ok
                and all(self.tilings)
                and all(b <= a for a, b in zip(self.defects, self.defects[1:])))


def composed_seq_check(cert1: TilingCert, cert2: TilingCert, T: FinSet,
                       seq: FolnerSeq, indices: Sequence[int],
                       radius: int = 24) -> ComposedSeqReport:
    """Check that T (tiling the center subgroup of cert1 with centers from
    cert2) composed with the images of a Folner sequence yields a Folner
    sequence of that subgroup, tiling it along the way.

    Implemented for ZPower lattice certificates and for the degenerate
    prefix cases on CyclicSum.
    """
    grp = T.group
    tile_in = bool(cert1.centers.contains_rows(T.rows()).all())

    window = window_set(grp, radius)
    sub_window = window.take(cert1.centers.contains_rows(window.rows()))
    part_cert = TilingCert(T, cert2.centers)
    partition_ok, _, _ = tiles_window_report(part_cert, sub_window)

    gens = grp.generators()
    if isinstance(grp, ZPower):
        gens = [ScaleIso(grp, cert1.centers.moduli).apply(g) for g in gens]

    defects = []
    tilings = []
    for n in indices:
        Fn = seq.generate(n)
        composed = product_set(T, cert2.iso.image_set(Fn))
        defects.append(sum((folner_defect(FinSet(grp, [g]), composed) for g in gens),
                           start=Fraction(0)))
        centers = _image_centers(cert2, standard_cert(seq, n))
        tilings.append(centers is not None and tiles_window_report(
            TilingCert(composed, centers), sub_window)[0])
    return ComposedSeqReport(tile_in, partition_ok, tuple(defects), tuple(tilings))


def _image_centers(outer: TilingCert, inner: Optional[TilingCert]):
    """Centers of a composed tile: the image of the inner centers under the
    outer iso; implemented for the algebraic descriptor pairs we build."""
    if inner is None:
        return None
    iso = outer.iso
    c = inner.centers
    if isinstance(c, LatticeCenters) and isinstance(iso, ScaleIso):
        moduli = tuple(m * s for m, s in zip(c.moduli, iso.scale))
        return LatticeCenters(c.group, moduli)
    if isinstance(c, PrefixShiftCenters) and isinstance(iso, ShiftIso):
        return PrefixShiftCenters(c.group, c.n + iso.shift)
    if isinstance(c, ZSumLatticeCenters) and isinstance(iso, ZSumScaleIso):
        pairs = itertools.zip_longest(c.shape, iso.scale, fillvalue=1)
        return ZSumLatticeCenters(c.group, tuple(a * s for a, s in pairs))
    return None
