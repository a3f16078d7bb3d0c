"""Tiling certificates: exact window verification, self-similar
isomorphisms and tile composition.

A certificate is (tile, centers, iso?).  Every built-in tile is a box, and
its certificate is read from the box (``_box_cert``): one center descriptor,
``LatticeCenters``, the lattice of its extents, and one isomorphism,
``Iso``, the scaling by those extents or, on CyclicSum, the shift past its
width.  ``tiles_window_report`` decides coverage of a finite window by
direct counting: every candidate center whose translate meets the window is
enumerated (candidates live in tile^{-1} . window, which is finite), and
each window cell must be hit exactly once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .folner import _CARD_CAP, FolnerSeq
from .groups import (
    BudgetError,
    CyclicSum,
    FinSet,
    Group,
    ZPower,
    _box,
    _box_at,
    _box_shapes,
    _composed_box,
    _prefix_ranges,
    _widen,
    inverse_set,
    is_subset,
    multiplicity,
    product_set,
)


class TilingOverlapError(ValueError):
    """A claimed-disjoint union of tile translates overlapped."""


# ---------------------------------------------------------------------------
# The center descriptor and the self-similar isomorphism


@dataclass(frozen=True)
class LatticeCenters:
    """Elements whose coordinate j < len(moduli) is offset[j] mod moduli[j],
    for one of the ``offsets``; later coordinates are free.  On CyclicSum,
    whose rows are reduced, the periods as moduli give the subgroup supported
    past them.  ``contains_rows`` gives one verdict per dense row."""

    group: Group
    moduli: tuple
    offsets: tuple = None

    def __post_init__(self):
        if self.offsets is None:
            object.__setattr__(self, "offsets", ((0,) * len(self.moduli),))
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        m = len(self.moduli)
        d = _widen(rows, m)[:, None, :m] - np.asarray(self.offsets)[None, :, :]
        return (d % np.asarray(self.moduli) == 0).all(axis=2).any(axis=1)


@dataclass(frozen=True)
class Iso:
    """A self-similar isomorphism G -> G_T: coordinate j of a row moves to
    j + ``shift``, scaled by ``scale[j]`` (1 past its end)."""

    group: Group
    scale: tuple = ()
    shift: int = 0

    def map_rows(self, rows: np.ndarray) -> np.ndarray:
        out = np.pad(rows, ((0, 0), (self.shift, 0)))
        m = min(len(self.scale), rows.shape[1])
        out[:, self.shift:self.shift + m] *= np.asarray(self.scale[:m], dtype=np.int64)
        return out

    def apply(self, e):
        return self.group.rows_to_elems(self.map_rows(self.group.dense_rows([e])))[0]

    def image_set(self, F: FinSet) -> FinSet:
        return FinSet.from_rows(self.group, self.map_rows(F.rows()))


# the names the benchmark's exact-compose sweep builds its certificates with
ZSumLatticeCenters, ZSumScaleIso = LatticeCenters, Iso


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


def _box_cert(tile: FinSet) -> TilingCert:
    """The certificate of a box tile: its centers are the lattice of its
    extents.  At the origin it composes under the scaling by them or, on
    CyclicSum where the periods repeat, under the shift past its width; a
    box off the origin (an anchored one) tiles but does not compose."""
    grp = tile.group
    if any(tile.lo):
        iso = None
    elif isinstance(grp, CyclicSum):
        iso = Iso(grp, shift=tile.width) if shift_iso_compatible(grp, tile.width) else None
    else:
        iso = Iso(grp, tile.ext)
    return TilingCert(tile, LatticeCenters(grp, tile.ext), iso)


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
    if seq.seq_kind in ("z_boxes", "cyclic_prefix", "zsum_boxes"):
        return _box_cert(seq.generate(index))
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
    n1: int
    n2: Optional[int]
    gap: Optional[Fraction]
    ok: bool


def condition_b_witness(seq: FolnerSeq, m: int, p: int) -> WitnessB:
    """Smallest n1 with composed superset F_p, and the largest n2 <= n1 with
    composed subset.

    Every sequence with a self-similar certificate (unanchored ``z_boxes``,
    ``cyclic_prefix``, ``zsum_boxes``) is nested, and so are its composed
    sets: "F_p inside composed_n" holds from n1 on, "composed_n inside F_p"
    up to some n.  composed_p holds F_p (the tile holds the origin, and the
    isomorphism moves each coordinate of F_p outward), so n1 <= p.  A
    composed set has exactly |F_m| * |F_n| cells, so n1 is at least n0, the
    least n <= p with |F_m| * |F_n| >= |F_p|, which a bisection over the
    sizes of F_1, ..., F_p finds without composing.  n1 is the first n from
    n0 up, and n2 the first from n1 down, so on boxes and prefixes, where
    n1 = n0, each is one or two compositions.  Budgets are monotone on
    nested sets, so a probe over budget counts as "from n1 on"; it is
    raised when it is n1.

    The reported gap is (|F_n1| - |F_n2|) * |F_m| / |F_p|, the normalized
    quantity that must vanish for pointwise convergence transfer.
    """
    cert = standard_cert(seq, m)
    if cert is None or cert.iso is None:
        raise ValueError("sequence member has no self-similar certificate")
    Fp = seq.generate(p)
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
    # n1: the first n >= n0 with probe(n)[1]; n2: the last n <= n1 with probe(n)[0]
    n1 = next(n for n in range(hi, p + 1) if probe(n)[1])
    if isinstance(probed[n1][1], BudgetError):
        raise probed[n1][1]
    n2 = next((n for n in range(n1, 0, -1) if probe(n)[0]), None)
    if n2 is None:
        return WitnessB(m, p, n1, None, None, False)
    sizes = (len(seq.generate(n1)), len(seq.generate(n2)))
    gap = Fraction(len(seq.generate(m)) * (sizes[0] - sizes[1]), len(Fp))
    return WitnessB(m, p, n1, n2, gap, True)


# ---------------------------------------------------------------------------
# Tile enumeration (for infima over tiling sets)


def enumerate_tiles(group: Group, max_card: int,
                    max_index: Optional[int] = None) -> list:
    """Deterministic list of certified tiles, smallest first: the boxes at
    the origin, then on Z the arithmetic progressions."""
    if isinstance(group, ZPower):
        shapes = _box_shapes([group.d], max_card, max_card)
    elif isinstance(group, CyclicSum):
        top = max_index if max_index is not None else 8
        ranges = _prefix_ranges(group, top, max_card)
        shapes = [tuple(map(len, ranges[:n])) for n in range(1, len(ranges) + 1)]
    else:
        top = max_index if max_index is not None else 3
        # a trailing 1 repeats the box of the shorter shape, listed first
        shapes = [shape for shape in _box_shapes(range(1, top + 1), max_card, max_card)
                  if len(shape) == 1 or shape[-1] > 1]
    tiles = [_box_cert(_box_at(group, (0,) * len(shape), shape)) for shape in shapes]
    if isinstance(group, ZPower) and group.d == 1:
        for step in range(2, 5):
            for m in range(2, max_card // step + 1):
                elems = tuple((i * step,) for i in range(m))
                offsets = tuple((j,) for j in range(step))
                centers = LatticeCenters(group, (m * step,), offsets)
                tiles.append(TilingCert(FinSet(group, elems), centers))
    return tiles
