"""Exact tiling certificates, composition, and sandwich witnesses."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import tiling
from folnerlab.folner import make_folner
from folnerlab.groups import (BudgetError, CyclicSum, FinSet, ZPower, ZSum, _box,
                              product_set, zsum_box)
from folnerlab.tiling import (
    Iso,
    LatticeCenters,
    TilingCert,
    TilingOverlapError,
    WitnessB,
    compose,
    condition_b_witness,
    enumerate_tiles,
    shift_iso_compatible,
    standard_cert,
    tiles_window_report,
    window_set,
)
from lemma_checks import _image_centers, composed_seq_check


def _z_seq(d=1):
    return make_folner(ZPower(d), "z_boxes")


# ---------------------------------------------------------------------------
# windows


def test_window_shapes():
    assert len(window_set(ZPower(1), 12)) == 25
    assert len(window_set(ZPower(2), 5)) == 121
    # sparse groups truncate to the leading coordinates
    assert len(window_set(ZSum(), 4, max_index=3)) == 9 ** 3
    assert len(window_set(CyclicSum((2,)), 8, max_index=4)) == 2 ** 8


# ---------------------------------------------------------------------------
# exact cover checks


def test_interval_cert_tiles_window():
    seq = _z_seq()
    cert = standard_cert(seq, 3)
    ok, uncovered, multi = tiles_window_report(cert, window_set(seq.group, 12))
    assert ok and not uncovered and not multi
    assert tiles_window_report(cert, window_set(seq.group, 30))[0]


def test_gapped_tile_with_offset_lattice():
    z = ZPower(1)
    tile = FinSet(z, ((0,), (2,)))
    cert = TilingCert(tile, LatticeCenters(z, (4,), ((0,), (1,))))
    assert tiles_window_report(cert, window_set(z, 12))[0]


def test_bad_centers_report_uncovered_points():
    z = ZPower(1)
    tile = FinSet(z, ((0,), (2,)))
    cert = TilingCert(tile, LatticeCenters(z, (3,), ((0,),)))
    ok, uncovered, multi = tiles_window_report(cert, window_set(z, 12))
    assert not ok
    assert (1,) in uncovered
    assert not multi


def test_overlapping_centers_report_multicovered_points():
    z = ZPower(1)
    tile = FinSet(z, ((0,), (1,)))
    cert = TilingCert(tile, LatticeCenters(z, (1,), ((0,),)))
    ok, uncovered, multi = tiles_window_report(cert, window_set(z, 6))
    assert not ok and not uncovered and multi


def test_lattice_cert_dimension_two():
    seq = _z_seq(2)
    cert = standard_cert(seq, 2)
    assert tiles_window_report(cert, window_set(seq.group, 8))[0]


def test_diagonal_cube_cert_tiles():
    seq = make_folner(ZSum(), "zsum_boxes")
    cert = standard_cert(seq, 2)
    assert len(cert.tile) == 4
    assert tiles_window_report(cert, window_set(seq.group, 4, max_index=3))[0]


def test_prefix_cert_tiles_cyclic_window():
    grp = CyclicSum((2,))
    seq = make_folner(grp, "cyclic_prefix")
    cert = standard_cert(seq, 2)
    assert tiles_window_report(cert, window_set(grp, 8, max_index=4))[0]


# ---------------------------------------------------------------------------
# self-similar composition


def test_interval_composition_is_exact():
    seq = _z_seq()
    cert = standard_cert(seq, 3)
    assert compose(cert, seq.generate(5)) == seq.generate(15)


def test_prefix_composition_adds_indices():
    grp = CyclicSum((2,))
    seq = make_folner(grp, "cyclic_prefix")
    cert = standard_cert(seq, 2)
    assert compose(cert, seq.generate(3)) == seq.generate(5)


def test_mixed_periods_have_no_shift_isomorphism():
    grp = CyclicSum((2, 3, 2, 5))
    assert not shift_iso_compatible(grp, 2)
    seq = make_folner(grp, "cyclic_prefix")
    cert = standard_cert(seq, 2)
    assert cert.iso is None
    with pytest.raises(ValueError):
        compose(cert, seq.generate(1))


def test_anchored_boxes_tile_but_do_not_compose():
    seq = make_folner(ZPower(1), "z_boxes", anchors="squares")
    cert = standard_cert(seq, 3)
    assert tiles_window_report(cert, window_set(seq.group, 12))[0]
    assert cert.iso is None


def test_composition_overlap_is_an_error():
    z = ZPower(1)
    tile = FinSet(z, ((0,), (1,), (2,)))
    # scale 1 is deliberately wrong: translates of the tile collide
    fake = TilingCert(tile, LatticeCenters(z, (3,)), Iso(z, (1,)))
    with pytest.raises(TilingOverlapError):
        compose(fake, FinSet(z, ((0,), (1,))))
    # box tiles wider than the scale where F is wider than one cell
    z2, zs = ZPower(2), ZSum()
    for iso, tile, F in [
        (Iso(z2, (2, 2)), _box(z2, [range(3), range(2)]), _box(z2, [range(-1, 1), range(2)])),
        (Iso(zs, (2,)), zsum_box(zs, (2, 2)), _box(zs, [range(1), range(2)])),
    ]:
        with pytest.raises(TilingOverlapError):
            compose(TilingCert(tile, None, iso), F)


def _keyed_compose(cert, F):
    """compose by the Minkowski product of the tile and the image set."""
    return product_set(cert.tile, cert.iso.image_set(F))


def _products_in_compose(monkeypatch, cert, F):
    """(compose(cert, F), the number of product_set calls it made)."""
    calls = []
    monkeypatch.setattr(tiling, "product_set",
                        lambda K, X: calls.append(1) or product_set(K, X))
    return compose(cert, F), len(calls)


@pytest.mark.parametrize("tile_lo, scale, f_lo, f_ext", [
    ((-2,), (3,), (-4,), (5,)),
    ((1,), (2,), (3,), (1,)),
    ((0, -1), (2, 3), (-3, 2), (4, 2)),
    ((3, 0), (1, 4), (0, -5), (2, 1)),
    ((-1, 2, 0), (2, 1, 3), (1, -2, 4), (2, 3, 2)),
    ((0, 0, -3), (3, 3, 2), (-1, 0, 0), (1, 1, 3)),
])
def test_box_composition_is_the_closed_form_box(monkeypatch, tile_lo, scale, f_lo, f_ext):
    grp = ZPower(len(scale))
    # on coordinates where F is one cell wide the tile extent need not be the scale
    tile_ext = [s if b > 1 else s + 1 for s, b in zip(scale, f_ext)]
    tile = _box(grp, [range(a, a + e) for a, e in zip(tile_lo, tile_ext)])
    F = _box(grp, [range(a, a + b) for a, b in zip(f_lo, f_ext)])
    cert = TilingCert(tile, LatticeCenters(grp, scale), Iso(grp, scale))
    out, products = _products_in_compose(monkeypatch, cert, F)
    assert products == 0 and out.is_box
    assert out == _keyed_compose(cert, F) and len(out) == len(tile) * len(F)


@pytest.mark.parametrize("shape, f_ranges", [
    ((2, 3, 1, 1), [range(-1, 2), range(0, 2), range(3, 6), range(-2, 1), range(1, 3)]),
    ((2, 3, 1, 1), [range(2, 5)]),
    ((3,), [range(-2, 0), range(1, 2), range(0, 4)]),
    ((2, 2), [range(0, 1), range(0, 1), range(-1, 1)]),
    ((1, 2), [range(-3, -1), range(4, 7)]),
])
def test_zsum_box_composition_is_the_closed_form_box(monkeypatch, shape, f_ranges):
    # F wider and narrower than the iso's shape; trailing 1s scale by 1
    grp = ZSum()
    cert = TilingCert(zsum_box(grp, shape), None, Iso(grp, shape))
    F = _box(grp, f_ranges)
    out, products = _products_in_compose(monkeypatch, cert, F)
    assert products == 0
    assert out == _keyed_compose(cert, F) and len(out) == len(cert.tile) * len(F)


def test_gapped_and_non_box_compositions_take_the_product(monkeypatch):
    z2 = ZPower(2)
    iso = Iso(z2, (3, 2))
    box = _box(z2, [range(-1, 2), range(2)])
    gapped = TilingCert(_box(z2, [range(2), range(2)]), None, iso)  # extent 2 < scale 3
    out, products = _products_in_compose(monkeypatch, gapped, box)
    assert products == 1 and not out.is_box and out == _keyed_compose(gapped, box)
    cert = TilingCert(_box(z2, [range(3), range(2)]), None, iso)
    F = box.take([0, 1, 2, 4])
    out, products = _products_in_compose(monkeypatch, cert, F)
    assert products == 1 and out == _keyed_compose(cert, F)
    assert len(out) == len(cert.tile) * len(F)


@pytest.mark.parametrize("grp, shift, tile_ranges, f_ranges", [
    (CyclicSum((2,)), 2, [range(2), range(2)], [range(2)] * 3),
    (CyclicSum((3,)), 3, [range(1, 3), range(0, 1), range(2, 3)],
     [range(0, 2), range(0, 1), range(1, 3)]),
    (CyclicSum((3,)), 4, [range(1, 2)], [range(3), range(2, 3)]),
    (CyclicSum((5,)), 1, [range(0, 1)], [range(1, 4), range(2, 5)]),
])
def test_shift_iso_box_composition_is_the_closed_form_box(monkeypatch, grp, shift,
                                                         tile_ranges, f_ranges):
    # F moves past the tile's support: the box of both ranges, with no key
    cert = TilingCert(_box(grp, tile_ranges), None, Iso(grp, shift=shift))
    F = _box(grp, f_ranges)
    out, products = _products_in_compose(monkeypatch, cert, F)
    assert products == 0 and out.is_box
    assert out == _keyed_compose(cert, F) and len(out) == len(cert.tile) * len(F)


def test_shift_iso_compositions_past_the_shift_take_the_product(monkeypatch):
    seq = make_folner(CyclicSum((2,)), "cyclic_prefix")
    cert = standard_cert(seq, 2)
    assert cert.iso == Iso(seq.group, shift=2)
    out, products = _products_in_compose(monkeypatch, cert, seq.generate(3))
    assert products == 0 and out == _keyed_compose(cert, seq.generate(3))
    # a tile reaching past the shift, or a non-box F
    grp = CyclicSum((3,))
    wide = TilingCert(_box(grp, [range(3), range(1, 2)]), None, Iso(grp, shift=1))
    F = FinSet(grp, [()])
    out, products = _products_in_compose(monkeypatch, wide, F)
    assert products == 1 and out == wide.tile
    gappy = FinSet(seq.group, [(), ((0, 1), (1, 1))])
    out, products = _products_in_compose(monkeypatch, cert, gappy)
    assert products == 1 and out == _keyed_compose(cert, gappy)


# ---------------------------------------------------------------------------
# sandwich witnesses


def test_sandwich_witness_frozen_values():
    seq = _z_seq()
    w = condition_b_witness(seq, 3, 10)
    assert (w.n1, w.n2, w.gap, w.ok) == (4, 3, Fraction(3, 10), True)
    # p divisible by m nests exactly: no gap at all
    w = condition_b_witness(seq, 3, 9)
    assert (w.n1, w.n2, w.gap, w.ok) == (3, 3, Fraction(0, 1), True)


def test_sandwich_witness_gap_shrinks_along_sequence():
    seq = _z_seq()
    gaps = [condition_b_witness(seq, 3, p).gap for p in (10, 100, 1000)]
    assert gaps == [Fraction(3, 10), Fraction(3, 100), Fraction(3, 1000)]


def test_sandwich_witness_budget_exhaustion_is_reported():
    seq = _z_seq()
    w = condition_b_witness(seq, 3, 10, search_limit=2)
    assert not w.ok and w.n1 is None and w.n2 == 2


def test_sandwich_witness_requires_self_similar_cert():
    seq = make_folner(CyclicSum((2, 3, 2, 5)), "cyclic_prefix")
    with pytest.raises(ValueError):
        condition_b_witness(seq, 2, 3)


def _scan_witness(seq, m, p, search_limit=None):
    """The sandwich witnesses by a linear scan over n = 1, 2, ..., with
    subsets decided on element tuples: the oracle of the search."""
    cert = standard_cert(seq, m)
    if cert is None or cert.iso is None:
        raise ValueError("sequence member has no self-similar certificate")
    Fp = set(seq.generate(p).elems)
    limit = search_limit if search_limit is not None else max(2 * p, 4)
    n1 = n2 = None
    for n in range(1, limit + 1):
        composed = set(tiling.compose(cert, seq.generate(n)).elems)
        if composed <= Fp:
            n2 = n
        if Fp <= composed:
            n1 = n
            break
    if n1 is None or n2 is None:
        return WitnessB(m, p, n1, n2, None, False)
    sizes = [len(seq.generate(n)) for n in (m, n1, n2)]
    return WitnessB(m, p, n1, n2, Fraction(sizes[0] * (sizes[1] - sizes[2]), len(Fp)), True)


_NESTED = {
    "z1": (make_folner(ZPower(1), "z_boxes"), range(1, 6), range(1, 14)),
    "z2": (make_folner(ZPower(2), "z_boxes"), range(1, 4), range(1, 10)),
    "prefix2": (make_folner(CyclicSum((2,)), "cyclic_prefix"), range(1, 4), range(1, 8)),
    "prefix3": (make_folner(CyclicSum((3, 3)), "cyclic_prefix"), range(1, 3), range(1, 6)),
    "zsum": (make_folner(ZSum(), "zsum_boxes"), range(1, 4), range(1, 5)),
}


@pytest.mark.parametrize("name", sorted(_NESTED))
def test_sandwich_search_matches_linear_scan(name):
    seq, ms, ps = _NESTED[name]
    divisible = 0
    for m in ms:
        for p in ps:
            divisible += p % m == 0
            for limit in (None, 1, 2, p // 2, p - 1, p + 3):
                want = _scan_witness(seq, m, p, limit)
                assert condition_b_witness(seq, m, p, limit) == want, (m, p, limit)
    assert divisible >= 3


def test_sandwich_search_cut_off_leaves_n1_unset(monkeypatch):
    seq = _z_seq(2)
    composed = []
    real = tiling.compose
    monkeypatch.setattr(tiling, "compose", lambda c, F: composed.append(len(F)) or real(c, F))
    for limit in (1, 3, 4):
        composed.clear()
        w = condition_b_witness(seq, 2, 9, search_limit=limit)
        assert max(composed) == limit ** 2  # nothing composed past the limit
        assert w == _scan_witness(seq, 2, 9, limit)
        assert w.n1 is None and w.n2 == limit and not w.ok
    assert condition_b_witness(seq, 2, 9, search_limit=5).n1 == 5
    assert condition_b_witness(seq, 2, 9, search_limit=0) == WitnessB(2, 9, None, None, None, False)


def test_sandwich_search_composes_log_many_sets(monkeypatch):
    seq = _z_seq(2)
    composed = []
    real = tiling.compose
    monkeypatch.setattr(tiling, "compose", lambda c, F: composed.append(len(F)) or real(c, F))
    w = condition_b_witness(seq, 2, 72)
    assert (w.n1, w.n2, w.gap) == (36, 36, 0)
    # each n once, O(log p) of them, and none past 2 * n1
    assert len(composed) == len(set(composed)) <= 2 * (72).bit_length()
    assert max(composed) < (2 * 36) ** 2
    search = len(composed)
    composed.clear()
    assert _scan_witness(seq, 2, 72) == w and len(composed) == 36 > search


@pytest.mark.parametrize("seq, m, p", [
    (_z_seq(2), 3, 200),  # n1 = 67, just past a power of two
    (_z_seq(2), 2, 130),  # n1 = 65
    (_z_seq(3), 3, 100),  # n1 = 34
    (make_folner(CyclicSum((2,)), "cyclic_prefix"), 3, 20),  # n1 = 17
])
def test_sandwich_search_composes_nothing_past_n1(monkeypatch, seq, m, p):
    # the search starts at the least n whose composed set is as large as F_p,
    # which on boxes and prefixes is n1, wherever n1 sits between powers of two
    composed = []
    real = tiling.compose
    monkeypatch.setattr(tiling, "compose", lambda c, F: composed.append(len(F)) or real(c, F))
    w = condition_b_witness(seq, m, p)
    assert w.ok and max(composed) == len(seq.generate(w.n1))
    assert len(composed) == len(set(composed)) <= 2 * p.bit_length()


def test_sandwich_search_raises_where_the_scan_does(monkeypatch):
    # a probe over budget stands for every larger n: the search skips it when
    # n1 comes first (zsum: 8^8 cells) and raises it when the scan would
    seq = make_folner(ZSum(), "zsum_boxes")
    assert condition_b_witness(seq, 2, 5) == _scan_witness(seq, 2, 5)
    real = tiling.compose

    def capped(cert, F):
        if len(F) > 100:
            raise BudgetError("over budget")
        return real(cert, F)

    monkeypatch.setattr(tiling, "compose", capped)
    seq = _z_seq(2)
    assert condition_b_witness(seq, 2, 18) == _scan_witness(seq, 2, 18)  # n1 = 9
    for p in (21, 40):  # n1 = 11 and 20 lie past the cap
        with pytest.raises(BudgetError):
            _scan_witness(seq, 2, p)
        with pytest.raises(BudgetError):
            condition_b_witness(seq, 2, p)


@pytest.mark.parametrize("seq", [
    make_folner(ZPower(2), "z_boxes", anchors="squares"),
    make_folner(ZPower(1), "explicit", sets=[FinSet(ZPower(1), [(0,)])] * 3),
], ids=["squares", "explicit"])
def test_unnested_sequences_are_refused_as_by_the_scan(seq):
    # neither carries a self-similar certificate, so neither reaches a search
    for witness in (_scan_witness, condition_b_witness):
        with pytest.raises(ValueError, match="no self-similar certificate"):
            witness(seq, 2, 3)


# ---------------------------------------------------------------------------
# tile enumeration


def test_enumerated_tiles_all_tile_the_window():
    z = ZPower(1)
    window = window_set(z, 12)
    certs = enumerate_tiles(z, 4)
    assert len(certs) == 5
    for cert in certs:
        assert tiles_window_report(cert, window)[0]
    assert FinSet(z, ((0,), (2,))) in [c.tile for c in certs]


def test_enumeration_without_arithmetic_progressions():
    z = ZPower(1)
    tiles = [c.tile.elems for c in enumerate_tiles(z, 4) if c.tile.is_box]
    assert tiles == [
        ((0,),),
        ((0,), (1,)),
        ((0,), (1,), (2,)),
        ((0,), (1,), (2,), (3,)),
    ]


def test_enumeration_is_deterministic():
    grp = CyclicSum((2,))
    a = enumerate_tiles(grp, 4, max_index=3)
    b = enumerate_tiles(grp, 4, max_index=3)
    assert [c.tile for c in a] == [c.tile for c in b]
    window = window_set(grp, 6, max_index=3)
    for cert in a:
        assert tiles_window_report(cert, window)[0]


# ---------------------------------------------------------------------------
# composed subsequences


def test_composed_subsequence_stays_folner_and_tiles():
    seq = _z_seq()
    c3 = standard_cert(seq, 3)
    c9 = standard_cert(seq, 9)
    T = FinSet(seq.group, ((0,), (3,), (6,)))
    rep = composed_seq_check(c3, c9, T, seq, [1, 2, 3], radius=27)
    assert rep.tile_in_subgroup and rep.partition_ok
    assert rep.defects == (Fraction(2, 3), Fraction(1, 3), Fraction(2, 9))
    assert rep.tilings == (True, True, True)
    assert rep.ok


def test_composed_subsequence_rejects_escaping_tile():
    seq = _z_seq()
    c3 = standard_cert(seq, 3)
    c9 = standard_cert(seq, 9)
    rep = composed_seq_check(c3, c9, c3.tile, seq, [1], radius=27)
    assert not rep.tile_in_subgroup
    assert not rep.ok


def test_standard_cert_shape():
    cert = standard_cert(_z_seq(), 3)
    assert cert.tile.elems == ((0,), (1,), (2,))
    assert cert.centers == LatticeCenters(ZPower(1), (3,), ((0,),))
    assert cert.iso == Iso(ZPower(1), (3,))


# ---------------------------------------------------------------------------
# one center descriptor and one isomorphism, read from a box tile: each
# agrees on element tuples with the rule its group kind had before


def _old_member(grp, params):
    """The old membership rule of a certificate's centers: an offset lattice
    (moduli, offsets) on Z^d, no support on the first n coordinates on a
    cyclic sum, multiples of shape[i] on the integer sum."""
    if isinstance(grp, ZPower):
        moduli, offsets = params
        return lambda e: any(all((x - o) % m == 0 for x, o, m in zip(e, off, moduli))
                             for off in offsets)
    if isinstance(grp, CyclicSum):
        return lambda e: all(i >= params for i, _ in e)
    return lambda e: all(v % params[i] == 0 for i, v in e if i < len(params))


def _old_image(grp, params):
    """The old isomorphism on element tuples: scaling by the box shape on
    Z^d and the integer sum, the index shift by n on a cyclic sum."""
    if isinstance(grp, ZPower):
        return lambda e: tuple(x * m for x, m in zip(e, params[0]))
    if isinstance(grp, CyclicSum):
        return lambda e: tuple((i + params, v) for i, v in e)
    return lambda e: tuple((i, v * params[i] if i < len(params) else v) for i, v in e)


def _params_of(tile):
    """The old descriptor parameters of an enumerated tile, read from its
    elements: a box at the origin, or on Z an arithmetic progression."""
    grp, elems = tile.group, tile.elems
    if isinstance(grp, ZPower):
        shape = tuple(max(e[j] for e in elems) + 1 for j in range(grp.d))
        if math.prod(shape) == len(elems):
            return shape, ((0,) * grp.d,)
        step = elems[1][0] - elems[0][0]
        return (len(elems) * step,), tuple((j,) for j in range(step))
    width = max([i + 1 for e in elems for i, _ in e], default=1)
    if isinstance(grp, CyclicSum):
        return width
    return tuple(max(dict(e).get(i, 0) for e in elems) + 1 for i in range(width))


def _assert_old_rules(cert, params, window, self_similar=True):
    grp = cert.tile.group
    member = _old_member(grp, params)
    assert cert.centers.contains_rows(window.rows()).tolist() == [
        member(e) for e in window.elems]
    box = not isinstance(grp, ZPower) or len(params[1]) == 1
    if isinstance(grp, CyclicSum):
        self_similar = self_similar and tiling.shift_iso_compatible(grp, params)
    if not (box and self_similar):
        assert cert.iso is None
        return
    image = _old_image(grp, params)
    assert cert.iso.image_set(window) == FinSet(grp, map(image, window.elems))


Z1, Z2, K23, C2, ZS = ZPower(1), ZPower(2), CyclicSum((2, 3)), CyclicSum((2,)), ZSum()
_WINDOWS = {Z1: window_set(Z1, 12), Z2: window_set(Z2, 6), K23: window_set(K23, 7),
            C2: window_set(C2, 9), ZS: window_set(ZS, 2, 4)}


@pytest.mark.parametrize("grp, max_card, max_index", [
    (Z1, 8, None), (Z2, 6, None), (K23, 54, None), (C2, 16, None), (ZS, 6, 3),
], ids=["z1", "z2", "cyclic23", "cyclic2", "zsum"])
def test_enumerated_descriptors_keep_the_old_rules(grp, max_card, max_index):
    certs = enumerate_tiles(grp, max_card, max_index)
    assert len({type(c.centers) for c in certs}) == 1
    for cert in certs:
        _assert_old_rules(cert, _params_of(cert.tile), _WINDOWS[grp])


@pytest.mark.parametrize("grp, kind, anchors, indices", [
    (Z1, "z_boxes", None, range(1, 7)),
    (Z2, "z_boxes", None, range(1, 7)),
    (Z1, "z_boxes", "squares", range(1, 7)),
    (K23, "cyclic_prefix", None, range(1, 7)),
    (C2, "cyclic_prefix", None, range(1, 7)),
    # shapes (n,) * n, then shapes whose trailing 1s the tile's extent drops
    (ZS, "zsum_boxes", None, [1, 2, 3, 4, 5, 6, (2, 1), (3, 1, 1), (1, 1), (2, 3, 1)]),
], ids=["z1", "z2", "z1-squares", "cyclic23", "cyclic2", "zsum"])
def test_standard_descriptors_keep_the_old_rules(grp, kind, anchors, indices):
    seq = make_folner(grp, kind, anchors=anchors)
    for index in indices:
        if isinstance(grp, ZPower):
            params = ((index,) * grp.d, ((0,) * grp.d,))
        elif isinstance(grp, CyclicSum):
            params = index
        else:
            params = seq._zsum_shape(index)
        _assert_old_rules(standard_cert(seq, index), params, _WINDOWS[grp],
                          self_similar=anchors is None)


def _probe_rows(grp, moduli, width):
    """Rows on the lattice of ``moduli`` (free past its end) with about a
    tenth of their entries moved by one: members and non-members both."""
    rng = np.random.default_rng(len(moduli))
    lattice = np.asarray(moduli + (1,) * (width - len(moduli)))
    rows = (rng.integers(-3, 4, (400, width)) * lattice
            + rng.integers(-1, 2, (400, width)) * (rng.random((400, width)) < 0.1))
    return rows % grp.periods_vector(width) if isinstance(grp, CyclicSum) else rows


@pytest.mark.parametrize("grp, kind", [
    (Z1, "z_boxes"), (Z2, "z_boxes"), (C2, "cyclic_prefix"), (ZS, "zsum_boxes"),
], ids=["z1", "z2", "cyclic2", "zsum"])
def test_image_centers_keep_the_old_formulas(grp, kind):
    # outer iso of F_a, inner centers of F_b: moduli a * b on Z^d, no support
    # below a + b on a cyclic sum, shape_b[i] * shape_a[i] (1 past the end)
    # on the integer sum
    seq = make_folner(grp, kind)
    for m, p in itertools.combinations(range(1, 7), 2):
        for a, b in ((m, p), (p, m)):
            centers = _image_centers(standard_cert(seq, a), standard_cert(seq, b))
            if isinstance(grp, ZPower):
                moduli = (a * b,) * grp.d
                member = _old_member(grp, (moduli, ((0,) * grp.d,)))
            elif isinstance(grp, CyclicSum):
                moduli = (2,) * (a + b)
                member = _old_member(grp, a + b)
            else:
                moduli = tuple(x * y for x, y in itertools.zip_longest(
                    (b,) * b, (a,) * a, fillvalue=1))
                member = _old_member(grp, moduli)
            rows = _probe_rows(grp, moduli, len(moduli) + 2)
            want = [member(e) for e in grp.rows_to_elems(rows)]
            assert any(want) and not all(want)
            assert centers.contains_rows(rows).tolist() == want
