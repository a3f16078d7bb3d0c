"""Exact invariance combinatorics: defects, (K, delta) checks, growth ratios."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import groups
from folnerlab.cli import _PARTS
from folnerlab.folner import (
    defect_profile,
    folner_defect,
    invariance_check,
    make_folner,
    ratios_look_divergent,
    tempelman_report,
    tempered_report,
)
from folnerlab.groups import CyclicSum, FinSet, ZPower, ZSum


def _z():
    return ZPower(1)


def _boxes(group=None):
    return make_folner(group or _z(), "z_boxes")


# ---------------------------------------------------------------------------
# defects


def test_defect_frozen_values():
    seq = _boxes()
    z = seq.group
    # shift by 1 moves two boundary points of a length-10 interval
    assert folner_defect(FinSet(z, ((1,),)), seq.generate(10)) == Fraction(1, 5)
    assert folner_defect(FinSet(z, ((5,),)), seq.generate(25)) == Fraction(2, 5)


def test_defect_identity_translate_is_zero():
    seq = _boxes()
    z = seq.group
    assert folner_defect(FinSet(z, ((0,),)), seq.generate(7)) == 0


@given(shift=st.integers(min_value=1, max_value=9), n=st.integers(min_value=10, max_value=60))
@settings(max_examples=40, deadline=None)
def test_defect_closed_form_for_interval_shifts(shift, n):
    # |F symdiff (s+F)| = 2 min(s, n) for intervals, so the ratio is exact
    seq = _boxes()
    K = FinSet(seq.group, ((shift,),))
    assert folner_defect(K, seq.generate(n)) == Fraction(2 * shift, n)


def test_defect_requires_nonempty_window():
    z = _z()
    with pytest.raises(ValueError):
        folner_defect(FinSet(z, ((1,),)), FinSet(z, ()))


def test_defect_profile_rows_shrink():
    seq = _boxes()
    rows = defect_profile(seq, [2, 4, 8, 16])
    assert [r["index"] for r in rows] == [2, 4, 8, 16]
    assert [r["size"] for r in rows] == [2, 4, 8, 16]
    assert [r["defect_0"] for r in rows] == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    ]


def test_defect_profile_has_a_column_per_generator():
    # on Z^2 the generators are the two unit vectors, and a square of side n
    # moves 2n of its n^2 cells along either
    rows = defect_profile(_boxes(ZPower(2)), [6, 12])
    assert rows == [
        {"index": 6, "size": 36, "defect_0": Fraction(1, 3), "defect_1": Fraction(1, 3)},
        {"index": 12, "size": 144, "defect_0": Fraction(1, 6), "defect_1": Fraction(1, 6)},
    ]


# ---------------------------------------------------------------------------
# (K, delta)-invariance


def test_invariance_check_exact_ratio():
    seq = _boxes()
    z = seq.group
    K = FinSet(z, ((-1,), (1,)))
    ok, ratio = invariance_check(seq.generate(10), K, Fraction(1, 2))
    assert ok and ratio == Fraction(2, 5)
    # the comparison is strict, so hitting delta exactly fails
    ok, ratio = invariance_check(seq.generate(10), K, Fraction(2, 5))
    assert not ok and ratio == Fraction(2, 5)


def test_invariance_improves_with_window_size():
    seq = _boxes()
    K = FinSet(seq.group, ((-1,), (1,)))
    ok, ratio = invariance_check(seq.generate(50), K, Fraction(1, 10))
    assert ok and ratio == Fraction(2, 25)


def test_invariance_rejects_empty_window():
    z = _z()
    with pytest.raises(ValueError):
        invariance_check(FinSet(z, ()), FinSet(z, ((1,),)), 1)


@given(n=st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_invariance_ratio_closed_form_symmetric_step(n):
    seq = _boxes()
    K = FinSet(seq.group, ((-1,), (1,)))
    _, ratio = invariance_check(seq.generate(n), K, 1)
    # boundary is the four points {-1, 0, n-1, n}
    assert ratio == Fraction(4, n)


# ---------------------------------------------------------------------------
# Tempelman growth


def test_tempelman_ratio_interval_closed_form():
    seq = _boxes()
    assert tempelman_report(seq, 3).ratios[-1] == Fraction(5, 3)
    for n in range(1, 13):
        assert tempelman_report(seq, n).ratios[-1] == Fraction(2 * n - 1, n)
    assert tempelman_report(seq, 12).witness == Fraction(23, 12)
    assert tempelman_report(seq, 12).witness <= 2


def test_tempelman_lattice_dimension_two():
    seq = _boxes(ZPower(2))
    assert tempelman_report(seq, 6).witness == Fraction(121, 36)
    assert tempelman_report(seq, 6).witness <= 4  # 2^d for d = 2


def test_tempelman_cyclic_prefixes_are_exact_subgroups():
    grp = CyclicSum((2, 3, 2, 5, 2))
    seq = make_folner(grp, "cyclic_prefix")
    rep = tempelman_report(seq, 4)
    assert all(r == 1 for r in rep.ratios)
    assert rep.witness == 1
    assert rep.ok


def test_tempered_interval_witness():
    seq = _boxes()
    rep = tempered_report(seq, 7)
    # target m has |union_{k<m} F_k^{-1} F_m| = 2(m-1), so ratio 2(m-1)/m
    assert rep.ratios == tuple(Fraction(2 * (m - 1), m) for m in range(2, 8))
    assert rep.witness == Fraction(12, 7)
    rep = tempered_report(seq, 8)
    assert rep.ok and rep.witness == Fraction(7, 4)
    # tempered constant never exceeds the Tempelman constant on the same range
    assert rep.witness <= tempelman_report(seq, 8).witness


def test_anchored_cube_growth_peak_allocation_is_small(monkeypatch):
    # the union of the anchored boxes F_k^-1 is no box, but each F_k^-1 F_t
    # is: U_n is marked box by box on one boolean array (at most 88,000
    # cells) and forms no pair, where the product of the union with F_t
    # forms up to 10.5 million pairs (37.0 million over both reports)
    pairs = []
    product = groups._product
    monkeypatch.setattr(groups, "_product",
                        lambda K, F: pairs.append(len(K) * len(F)) or product(K, F))
    seq = make_folner(ZPower(3), "z_boxes", anchors="squares")
    tracemalloc.start()
    try:
        tempered_report(seq, 12)
        tempelman_report(seq, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert sum(pairs) == 0, pairs


def test_diagonal_cubes_growth_blows_up():
    seq = make_folner(ZSum(), "zsum_boxes")
    rep = tempelman_report(seq, 5)
    # shape (n,)*n boxes: the inverse-union is the full difference box, giving
    # ((2n-1)/n)^n which grows without bound
    assert rep.ratios == tuple(Fraction(2 * n - 1, n) ** n for n in range(1, 6))
    assert ratios_look_divergent(rep.ratios)
    assert not rep.ok
    assert not tempered_report(seq, 5).ok


def test_interval_growth_not_flagged_divergent():
    seq = _boxes()
    assert not ratios_look_divergent(tempelman_report(seq, 8).ratios)
    assert tempelman_report(seq, 8).ok


@given(n=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_tempelman_ratio_at_least_one(n):
    # the union contains F_n itself
    assert tempelman_report(_boxes(), n).ratios[-1] >= 1


# ---------------------------------------------------------------------------
# sequence kinds


def test_explicit_sequence_indexing():
    z = _z()
    sets = [FinSet(z, tuple((i,) for i in range(n))) for n in (1, 3, 5)]
    seq = make_folner(z, "explicit", sets=sets)
    assert seq.generate(2) == sets[1]
    with pytest.raises(ValueError):
        seq.generate(4)
    with pytest.raises(ValueError):
        seq.generate(0)


def test_anchored_boxes_translate_without_changing_size():
    seq = make_folner(_z(), "z_boxes", anchors="squares")
    box = seq.generate(4)
    assert len(box) == 4
    assert box.elems[0] == (16,)
    # anchored boxes are exactly as invariant as the centered ones
    K = FinSet(seq.group, ((1,),))
    assert folner_defect(K, box) == Fraction(1, 2)


def test_sequence_kind_validation():
    with pytest.raises(ValueError):
        make_folner(_z(), "cyclic_prefix")
    with pytest.raises(ValueError):
        make_folner(CyclicSum((2, 2)), "z_boxes")


def test_sequence_json_mentions_kind_and_anchor():
    parse = _PARTS["sequence"]
    assert (parse(_z(), {"kind": "z_boxes", "anchors": "squares"})
            == make_folner(_z(), "z_boxes", anchors="squares"))
    assert parse(_z(), {"kind": "z_boxes"}) == make_folner(_z(), "z_boxes")
    assert parse(_z(), {"kind": "z_boxes"}).anchors is None
