"""Tiling certificates: center-set descriptors, exact window verification,
self-similar isomorphisms and tile composition.

A certificate is (tile, centers, iso?).  ``tiles_window`` decides coverage of
a finite window by direct counting: every candidate center whose translate
meets the window is enumerated (candidates live in tile^{-1} . window, which
is finite), and each window cell must be hit exactly once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    _prefix_ranges,
    finset,
    inverse_set,
    product_set,
    zsum_box,
)


class TilingOverlapError(ValueError):
    """A claimed-disjoint union of tile translates overlapped."""


# ---------------------------------------------------------------------------
# Center-set descriptors (algebraic, so window membership is decidable)


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

    @property
    def is_subgroup(self) -> bool:
        return self.offsets == (self.group.identity(),)

    def contains(self, e) -> bool:
        for o in self.offsets:
            if all((x - ox) % m == 0 for x, ox, m in zip(e, o, self.moduli)):
                return True
        return False

    def to_json(self) -> dict:
        return {"kind": "lattice", "moduli": list(self.moduli),
                "offsets": [list(o) for o in self.offsets]}


@dataclass(frozen=True)
class PrefixShiftCenters:
    """Elements of a CyclicSum supported on indices >= n (a subgroup)."""

    group: CyclicSum
    n: int

    def contains(self, e) -> bool:
        return all(i >= self.n for i, _ in e)

    @property
    def is_subgroup(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "prefix_shift", "n": self.n}


@dataclass(frozen=True)
class ZSumLatticeCenters:
    """Elements of ZSum whose first m coordinates are multiples of shape[i]."""

    group: ZSum
    shape: tuple

    def contains(self, e) -> bool:
        for i, v in e:
            if i < len(self.shape) and v % self.shape[i] != 0:
                return False
        return True

    @property
    def is_subgroup(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "zsum_lattice", "shape": list(self.shape)}


def centers_from_json(group: Group, d: dict):
    kind = d.get("kind")
    if kind == "lattice":
        offsets = tuple(group.elem(o) for o in d.get("offsets", [[0] * group.d]))
        return LatticeCenters(group, tuple(int(m) for m in d["moduli"]), offsets)
    if kind == "prefix_shift":
        return PrefixShiftCenters(group, int(d["n"]))
    if kind == "zsum_lattice":
        return ZSumLatticeCenters(group, tuple(int(s) for s in d["shape"]))
    raise ValueError(f"unknown center-set kind {kind!r}")


# ---------------------------------------------------------------------------
# Self-similar isomorphisms G -> G_T


class _Iso:
    """Shared image map; subclasses define ``group`` and ``apply``."""

    def image_set(self, F: FinSet) -> FinSet:
        return FinSet(self.group, tuple(sorted(self.apply(e) for e in F.elems)))


@dataclass(frozen=True)
class ScaleIso(_Iso):
    """ZPower: coordinatewise scaling onto diag(scale) Z^d."""

    group: ZPower
    scale: tuple

    def apply(self, e):
        return tuple(int(s) * int(x) for s, x in zip(self.scale, e))


@dataclass(frozen=True)
class ShiftIso(_Iso):
    """CyclicSum: index shift by s; valid only when the period pattern repeats."""

    group: CyclicSum
    shift: int

    def apply(self, e):
        return tuple((i + self.shift, v) for i, v in e)


@dataclass(frozen=True)
class ZSumScaleIso(_Iso):
    """ZSum: scale coordinate i by shape[i] for i < m, identity beyond."""

    group: ZSum
    shape: tuple

    def apply(self, e):
        return tuple(
            (i, v * self.shape[i]) if i < len(self.shape) else (i, v) for i, v in e
        )


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

    def to_json(self) -> dict:
        d = {"tile": self.tile.to_json(), "centers": self.centers.to_json()}
        d["self_similar"] = self.iso is not None
        return d


def tiles_window_report(cert: TilingCert, window: FinSet):
    """Exact-cover check of a window: (ok, uncovered, multicovered)."""
    grp = window.group
    wset = set(window.elems)
    counts = {w: 0 for w in wset}
    candidates = product_set(inverse_set(cert.tile), window)
    for c in candidates.elems:
        if not cert.centers.contains(c):
            continue
        for t in cert.tile.elems:
            x = grp.mul(t, c)
            if x in counts:
                counts[x] += 1
    uncovered = sorted(w for w, c in counts.items() if c == 0)
    multi = sorted(w for w, c in counts.items() if c > 1)
    return (not uncovered and not multi), uncovered, multi


def tiles_window(cert: TilingCert, window: FinSet) -> bool:
    ok, _, _ = tiles_window_report(cert, window)
    return ok


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
    """tile . iso(F): the composed set; translates must be pairwise disjoint."""
    if cert.iso is None:
        raise ValueError("certificate carries no self-similar isomorphism")
    image = cert.iso.image_set(F)
    out = product_set(cert.tile, image)
    if len(out) != len(cert.tile) * len(F):
        raise TilingOverlapError(
            f"composition overlapped: {len(out)} < {len(cert.tile) * len(F)}")
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
    """Smallest n1 with composed superset F_p, largest n2 with composed subset.

    The reported gap is (|F_n1| - |F_n2|) * |F_m| / |F_p|, the normalized
    quantity that must vanish for pointwise convergence transfer.
    """
    cert = standard_cert(seq, m)
    if cert is None or cert.iso is None:
        raise ValueError("sequence member has no self-similar certificate")
    Fp = set(seq.generate(p).elems)
    size_p = len(Fp)
    size_m = len(seq.generate(m))
    limit = search_limit if search_limit is not None else max(2 * p, 4)
    n1 = None
    n2 = None
    for n in range(1, limit + 1):
        composed = set(compose(cert, seq.generate(n)).elems)
        if composed <= Fp:
            n2 = n
        if composed >= Fp:
            n1 = n
            break
    if n1 is None or n2 is None:
        return WitnessB(m, p, n1, n2, None, False)
    sizes = (len(seq.generate(n1)), len(seq.generate(n2)))
    gap = Fraction(size_m * (sizes[0] - sizes[1]), size_p)
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
        seen = set()
        for shape in _box_shapes(range(1, top + 1), max_card, max_card):
            tile = zsum_box(group, shape)
            if tile.elems in seen:
                continue
            seen.add(tile.elems)
            tiles.append(TilingCert(tile, ZSumLatticeCenters(group, shape),
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
    tile_in = all(cert1.centers.contains(e) for e in T.elems)

    window = window_set(grp, radius)
    sub_window = finset(grp, [e for e in window.elems if cert1.centers.contains(e)])
    part_cert = TilingCert(T, cert2.centers)
    partition_ok, _, _ = tiles_window_report(part_cert, sub_window)

    if isinstance(grp, ZPower):
        gens = []
        for i, m in enumerate(cert1.centers.moduli):
            v = [0] * grp.d
            v[i] = m
            gens.append(tuple(v))
    else:
        gens = grp.generators()

    defects = []
    tilings = []
    for n in indices:
        Fn = seq.generate(n)
        composed = product_set(T, cert2.iso.image_set(Fn))
        defect = sum(
            (folner_defect(finset(grp, [g]), composed) for g in gens),
            start=Fraction(0),
        )
        defects.append(defect)
        inner = standard_cert(seq, n)
        inner_centers = _image_centers(cert2, inner)
        if inner_centers is None:
            tilings.append(False)
            continue
        ok, _, _ = tiles_window_report(TilingCert(composed, inner_centers), sub_window)
        tilings.append(ok)
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
        m = max(len(c.shape), len(iso.shape))
        shape = tuple(
            (c.shape[i] if i < len(c.shape) else 1)
            * (iso.shape[i] if i < len(iso.shape) else 1)
            for i in range(m)
        )
        return ZSumLatticeCenters(c.group, shape)
    return None
