import itertools
import math
import threading
from bisect import bisect_right
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folnerlab import (BudgetError, CyclicSum, EnumBudget, FinSet, Group,
                       GroupMismatchError, _bits, ZPower, ZSum, enumerate_finsets,
                       erode, groups, intersect, inverse_set, is_subset,
                       multiplicity, product_set, symdiff, translate_right,
                       union)
from folnerlab._bits import (GOLDEN64, HASH_VERSION, MASK64, TWO_NEG_64, mix64,
                             mix64_np, premix_np, uniform_from_key,
                             words_from_premixed)
from folnerlab.systems import BernoulliShift
from scalar_oracle import canon, random_elem

Z1 = ZPower(1)
Z2 = ZPower(2)
K2 = CyclicSum((2, 3, 2))
ZS = ZSum()

GROUPS = [Z1, Z2, K2, ZS]


def _inv(grp, a):
    """The group inverse, from the element encoding: negate every
    coordinate (reduced by the period on the cyclic sums)."""
    if isinstance(grp, ZPower):
        return tuple(-x for x in a)
    return canon(grp, [(i, -v) for i, v in a])


def elems_strategy(grp, span=4, top=3):
    if isinstance(grp, ZPower):
        coord = st.integers(-span, span)
        return st.tuples(*([coord] * grp.d))
    # sparse (index, value) pairs, normalized through the group itself
    return st.lists(
        st.tuples(st.integers(0, top), st.integers(-span, span)),
        max_size=3).map(lambda pairs: canon(grp, pairs))


@pytest.mark.parametrize("grp", GROUPS, ids=lambda g: g.kind)
def test_group_laws_random(grp):
    rng = np.random.default_rng(42)
    e = grp.identity()
    for _ in range(200):
        a = random_elem(grp, rng)
        b = random_elem(grp, rng)
        c = random_elem(grp, rng)
        assert grp.mul(grp.mul(a, b), c) == grp.mul(a, grp.mul(b, c))
        assert grp.mul(a, e) == a
        assert grp.mul(e, a) == a
        assert grp.mul(a, _inv(grp, a)) == e
        assert grp.mul(a, b) == grp.mul(b, a)  # all built-ins are abelian


@given(a=elems_strategy(Z2), b=elems_strategy(Z2))
def test_zpower_law_hypothesis(a, b):
    assert Z2.mul(a, _inv(Z2, a)) == Z2.identity()
    assert _inv(Z2, Z2.mul(a, b)) == Z2.mul(_inv(Z2, a), _inv(Z2, b))


@given(a=elems_strategy(K2), b=elems_strategy(K2))
def test_cyclic_law_hypothesis(a, b):
    assert K2.mul(a, _inv(K2, a)) == K2.identity()
    assert K2.mul(a, b) == K2.mul(b, a)


@given(a=elems_strategy(ZS), b=elems_strategy(ZS))
@settings(max_examples=60)
def test_zsum_law_hypothesis(a, b):
    assert ZS.mul(a, _inv(ZS, a)) == ZS.identity()
    assert ZS.mul(a, b) == ZS.mul(b, a)


def test_finset_dedup_and_order():
    F = FinSet(Z1, [(3,), (1,), (3,), (2,)])
    assert F.elems == ((1,), (2,), (3,)) == tuple(F)
    assert len(F) == 3 and not F.is_empty
    assert FinSet(Z1, []).is_empty


@pytest.mark.parametrize("grp, absent, foreign", [
    (Z2, (9, 9), ((0, 1),)),
    (K2, ((9, 1),), (0, 1)),
    (ZS, ((0, 7),), (0, 1)),
], ids=["z_power", "cyclic_sum", "z_sum"])
def test_finset_membership_matches_elems(grp, absent, foreign):
    rng = np.random.default_rng(3)
    elems = [random_elem(grp, rng, 6) for _ in range(200)]
    small, big = FinSet(grp, elems[:3]), FinSet(grp, elems)
    assert len(big) > 16
    for F in (small, big):
        twin = FinSet(grp, F.elems)
        for e in (*F.elems, absent, foreign, grp.identity()):
            assert (e in F) == (e in set(F.elems))
        assert all(e in F for e in F.elems)
        assert absent not in F and foreign not in F
        assert F == twin and hash(F) == hash(twin) and repr(F) == repr(twin)


def test_finset_algebra():
    A = FinSet(Z1, [(0,), (1,), (2,)])
    B = FinSet(Z1, [(2,), (3,)])
    assert union(A, B).elems == ((0,), (1,), (2,), (3,))
    assert intersect(A, B).elems == ((2,),)
    assert inverse_set(B).elems == ((-3,), (-2,))
    assert translate_right(A, (5,)).elems == ((5,), (6,), (7,))


def test_group_mismatch_rejected():
    A = FinSet(Z1, [(0,)])
    B = FinSet(Z2, [(0, 0)])
    with pytest.raises(GroupMismatchError):
        union(A, B)
    with pytest.raises(GroupMismatchError):
        product_set(A, B)


@pytest.mark.parametrize("grp", GROUPS, ids=lambda g: g.kind)
def test_product_grid_matches_naive(grp):
    # both product paths, the dense count and the sort, must agree with
    # elementwise products
    rng = np.random.default_rng(7)
    for trial in range(20):
        K = FinSet(grp, [random_elem(grp, rng) for _ in range(4)])
        F = FinSet(grp, [random_elem(grp, rng) for _ in range(5)])
        naive = {grp.mul(k, f) for k in K.elems for f in F.elems}
        got = product_set(K, F)
        assert set(got.elems) == naive
        assert len(got) == len(naive)


def test_product_grid_large_agrees_on_boxes():
    # a dense count (599 cells, 89,700 pairs; F has a hole, so it is no
    # box) against the closed form for interval sums
    K = FinSet(Z1, [(i,) for i in range(300)])
    F = FinSet(Z1, [(i,) for i in range(300) if i != 150])
    got = product_set(K, F)
    assert len(got) == 599
    assert got.elems[0] == (0,) and got.elems[-1] == (598,)


def test_zsum_product_sparse():
    a = FinSet(ZS, [(), ((0, 1),)])
    b = FinSet(ZS, [((1, -2),)])
    got = product_set(a, b)
    assert set(got.elems) == {((1, -2),), ((0, 1), (1, -2))}


# ---------------------------------------------------------------------------
# differential: the key-array sets against a tuple-set reference


class TupleRef:
    """Finite-set algebra on Python sets of element tuples, from the group
    laws alone: the oracle for the key arrays of ``FinSet``."""

    def __init__(self, grp):
        self.grp = grp

    def product(self, K, F):
        return {self.grp.mul(k, f) for k in K for f in F}

    def counts(self, K, F):
        return Counter(self.grp.mul(k, f) for k in K for f in F)

    def translate(self, g, F):
        return {self.grp.mul(g, x) for x in F}

    def inverse(self, F):
        return {_inv(self.grp, x) for x in F}

    def erode(self, F, T):
        return {g for g in self.product(self.inverse(T), F)
                if all(self.grp.mul(t, g) in F for t in T)}


def _same(fs, ref):
    # element order is the tuple order, and equal sets get equal keys
    assert fs.elems == tuple(sorted(ref))
    assert fs == FinSet(fs.group, ref) and hash(fs) == hash(FinSet(fs.group, ref))


@pytest.mark.parametrize("grp", GROUPS + [CyclicSum((3,))], ids=lambda g: g.kind)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_set_algebra_matches_tuple_reference(grp, data):
    elems = elems_strategy(grp, span=3, top=5)
    E, F = (set(data.draw(st.lists(elems, max_size=7))) for _ in range(2))
    g = data.draw(elems)
    ref = TupleRef(grp)
    FE, FF = FinSet(grp, E), FinSet(grp, F)
    _same(FE, E)
    _same(union(FE, FF), E | F)
    _same(intersect(FE, FF), E & F)
    _same(symdiff(FE, FF), E ^ F)
    for x in E | F | {g, grp.identity()}:
        assert (x in FE) == (x in E)
    assert is_subset(FE, FF) == (E <= F) and is_subset(FF, FE) == (F <= E)
    _same(translate_right(FE, g), ref.translate(g, E))
    _same(inverse_set(FE), ref.inverse(E))
    P = product_set(FE, FF)
    _same(P, ref.product(E, F))
    assert dict(zip(P.elems, multiplicity(FE, FF, P).tolist())) == ref.counts(E, F)
    _same(erode(FF, FE), ref.erode(F, E))


FIVE_GROUPS = GROUPS + [CyclicSum((3,))]


@st.composite
def box_elems(draw, grp):
    """The element set of a full box, a near-box (a box less one cell) or an
    offset box (a box translated by a drawn element; on CyclicSum it wraps)."""
    if isinstance(grp, ZPower):
        width = grp.d
    else:
        width = draw(st.integers(1, 3))
    ranges = []
    for i in range(width):
        if isinstance(grp, CyclicSum):
            a = draw(st.integers(0, grp.period(i) - 1))
            b = draw(st.integers(a + 1, grp.period(i)))
        else:
            a = draw(st.integers(-3, 3))
            b = draw(st.integers(a + 1, a + 3))
        ranges.append(range(a, b))
    rows = np.asarray(list(itertools.product(*ranges)), dtype=np.int64)
    elems = grp.rows_to_elems(rows)
    shape = draw(st.sampled_from(["full", "near", "offset"]))
    if shape == "near":
        elems.pop(draw(st.integers(0, len(elems) - 1)))
    if shape == "offset":
        g = draw(elems_strategy(grp, span=3, top=3))
        elems = [grp.mul(g, x) for x in elems]
    return set(elems)


@pytest.mark.parametrize("grp", FIVE_GROUPS, ids=lambda g: g.kind)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_box_algebra_matches_tuple_reference(grp, data):
    E, F = (data.draw(box_elems(grp)) for _ in range(2))
    ref = TupleRef(grp)
    FE, FF = FinSet(grp, E), FinSet(grp, F)
    P = product_set(FE, FF)
    _same(P, ref.product(E, F))
    assert dict(zip(P.elems, multiplicity(FE, FF, P).tolist())) == ref.counts(E, F)
    _same(union(FE, FF), E | F)
    assert is_subset(FE, FF) == (E <= F) and is_subset(FF, FE) == (F <= E)
    # random boxes rarely nest: E & F lies in both, so is_subset says True
    part = FinSet(grp, E & F)
    assert is_subset(part, FF) and is_subset(part, FE)
    assert is_subset(FF, part) == (F <= E) and is_subset(FinSet(grp), part)
    assert is_subset(FF, FinSet(grp)) == (not F)
    # E's bounding box holds E: union returns that operand, read off the boxes
    H = groups._box(grp, [range(a, a + x) for a, x in zip(FE.lo, FE.ext)])
    assert union(FE, H) is (FE if FE.is_box else H) and union(H, FE) is H
    _same(union(FE, H), E | set(H.elems))
    # the product of a union of three draws with F is the union of their
    # products: marked box by box, with no pair, when K is no box but every
    # k*F is a box whose joint box is no larger than K*F's pair count
    drawn = [data.draw(box_elems(grp)) for _ in range(3)]
    Ks = [FinSet(grp, X) for X in drawn]
    K = union(union(Ks[0], Ks[1]), Ks[2])
    with mock.patch.object(groups, "_product", wraps=groups._product) as spy:
        U = groups._union_product(Ks, K, FF)
    _same(U, ref.product(set().union(*drawn), F))
    if not K.is_box:
        marked = all(groups._product_box(k, FF) is not None for k in Ks) and (
            math.prod(U.ext) <= len(K) * len(FF))
        assert spy.call_count == (0 if marked or K.is_empty or FF.is_empty else 1)
    for fs in (FE, FF, P, union(FE, FF), part, H, *Ks, K, U):
        _tight(fs)


BOX_KEY_GROUPS = [ZPower(1), ZPower(2), ZPower(3), CyclicSum((2,)), CyclicSum((3, 2)), ZS]


@st.composite
def key_boxes(draw, grp):
    """(lo, ext) of a box: any corner on ZPower and ZSum (a ZSum box may cross
    0 on a coordinate), a corner inside the periods on CyclicSum."""
    width = grp.d if isinstance(grp, ZPower) else draw(st.integers(1, 4))
    lo, ext = [], []
    for j in range(width):
        if isinstance(grp, CyclicSum):
            lo.append(draw(st.integers(0, grp.period(j) - 1)))
            ext.append(draw(st.integers(1, grp.period(j) - lo[-1])))
        else:
            lo.append(draw(st.integers(-4, 3)))
            ext.append(draw(st.integers(1, 4)))
    return tuple(lo), tuple(ext)


def _check_box_keys(grp, lo, ext):
    # the chain, one broadcast step per coordinate, hashes every cell as
    # keys_for_rows does row by row, and both as the scalar elem_key
    rows = groups._decode(lo, ext, np.arange(math.prod(ext)))
    keys = groups._box_keys(grp, lo, ext)
    assert keys.dtype == np.uint64 and np.array_equal(keys, grp.keys_for_rows(rows))
    assert keys.tolist() == [grp.elem_key(e) for e in grp.rows_to_elems(rows)]


@pytest.mark.parametrize("grp", BOX_KEY_GROUPS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_box_keys_hash_every_cell_as_keys_for_rows(grp, data):
    _check_box_keys(grp, *data.draw(key_boxes(grp)))


@pytest.mark.parametrize("grp, lo, ext", [
    (ZPower(1), (-3,), (5,)),             # a negative corner
    (ZPower(3), (-2, 4, -1), (2, 1, 3)),  # an extent-1 coordinate inside
    (ZPower(2), (0, -5), (1, 1)),         # one cell
    (CyclicSum((2,)), (0, 1, 0), (2, 1, 2)),
    (CyclicSum((3, 2)), (1, 0, 0, 1), (2, 2, 1, 1)),
    (ZS, (-2, 0, -1), (4, 1, 3)),         # crosses 0: zero values are no pair
    (ZS, (0, 0, 3), (1, 1, 2)),           # zero on every coordinate but one
], ids=lambda v: str(v))
def test_box_keys_at_the_edges(grp, lo, ext):
    _check_box_keys(grp, lo, ext)


def _cells(ranges):
    return np.asarray(list(itertools.product(*ranges)), dtype=np.int64)


@pytest.mark.parametrize("grp", FIVE_GROUPS, ids=lambda g: g.kind)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_box_equality_and_hash_read_the_corners(grp, data):
    # a box is the one set with its (lo, ext) and prod(ext) keys, so box
    # equality and hashing read no key; any other set still compares keys
    width = grp.d if isinstance(grp, ZPower) else data.draw(st.integers(1, 3))
    ranges = []
    for j in range(width):
        top = grp.period(j) if isinstance(grp, CyclicSum) else 3
        a = data.draw(st.integers(0 if isinstance(grp, CyclicSum) else -3, top - 1))
        ranges.append(range(a, data.draw(st.integers(a + 1, min(a + 4, top)))))
    box, rows = groups._box(grp, ranges), _cells(ranges)
    same = [FinSet(grp, grp.rows_to_elems(rows)), FinSet.from_rows(grp, rows[::-1]),
            FinSet.from_rows(grp, np.concatenate((rows, rows))), box]
    for X in same:
        assert X.is_box and X == box and box == X and hash(X) == hash(box)
    # the empty set has the corners of the one-cell box at the identity
    assert box != FinSet(grp) and FinSet(grp) != box and box != set(box.elems)
    # one cell less, with the same (lo, ext): a set with the box's corners and
    # one key fewer, which exists exactly when the box has three cells or more
    near = [FinSet.from_rows(grp, np.delete(rows, i, axis=0)) for i in range(len(rows))]
    near = [N for N in near if len(N) and (N.lo, N.ext) == (box.lo, box.ext)]
    assert bool(near) == (len(box) >= 3)
    for i, N in enumerate(near):
        assert not N.is_box and N != box and box != N
        twin = FinSet.from_rows(grp, N.rows()[::-1])
        assert N == twin and hash(N) == hash(twin)
        # equal-size sets with the same corners and different keys
        assert all(N != M and M != N for M in near[:i])
    # the same corners and keys on another group
    for other in FIVE_GROUPS:
        if other != grp:
            twin = FinSet._of(other, box.lo, box.ext, box.keys)
            assert twin != box and box != twin


@pytest.mark.parametrize("grp, shapes", [
    (Z1, [[range(-2, 5)], [range(3, 4)]]),
    (Z2, [[range(-2, 5), range(1, 3)], [range(0, 9), range(-4, 0)]]),
    (ZPower(3), [[range(4), range(6), range(7)], [range(-1, 1)] * 3]),
    (ZS, [[range(-2, 3), range(0, 4), range(-3, 1)], [range(1, 3)]]),
    (ZS, [[range(0, 1), range(2, 4)], [range(-1, 2), range(0, 1), range(5, 6)]]),
], ids=["z1", "z2", "z3", "z_sum", "z_sum_widths"])
def test_box_product_path_matches_key_path(grp, shapes, monkeypatch):
    K, F = (groups._box(grp, ranges) for ranges in shapes)
    assert K.is_box and F.is_box
    calls = []
    product = groups._product
    monkeypatch.setattr(groups, "_product", lambda *a: calls.append(a) or product(*a))
    P = product_set(K, F)
    assert not calls  # the sum box, with no key work
    lo, ext, keys, _ = product(K, F)
    assert P == FinSet._of(grp, lo, ext, keys) and P.is_box
    assert np.array_equal(P.keys, keys) and P.keys.dtype == keys.dtype


@st.composite
def cyclic_box_pair(draw):
    """A CyclicSum and two boxes on it, of widths drawn apart and up to two
    coordinates past the explicit periods."""
    grp = CyclicSum(tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))))
    def box():
        ranges = []
        for j in range(draw(st.integers(1, len(grp.periods) + 2))):
            a = draw(st.integers(0, grp.period(j) - 1))
            ranges.append(range(a, draw(st.integers(a + 1, grp.period(j)))))
        return groups._box(grp, ranges)
    return grp, box(), box()


def _cyclic_boxes(periods, *shapes):
    grp = CyclicSum(periods)
    return (grp, *(groups._box(grp, ranges) for ranges in shapes))


@given(cyclic_box_pair())
@example(_cyclic_boxes((5,), [range(1, 3)], [range(1, 3)]))  # a run inside [0, p)
@example(_cyclic_boxes((5,), [range(1, 3)], [range(3, 5)]))  # a run that wraps
@example(_cyclic_boxes((5,), [range(3)], [range(1, 4)]))  # the full period
@example(_cyclic_boxes((3, 2), [range(1, 3)],  # widths 1 and 4, past the periods
                       [range(1), range(1, 2), range(2), range(1, 2)]))
@settings(max_examples=200, deadline=None)
def test_cyclic_box_product_closed_form_matches_key_path(case):
    grp, K, F = case
    assert K.is_box and F.is_box
    with mock.patch.object(groups, "_product", wraps=groups._product) as spy:
        P = product_set(K, F)
    lo, ext, keys, _ = groups._product(K, F)
    keyed = FinSet.from_rows(grp, groups._decode(lo, ext, keys))
    assert (P.lo, P.ext) == (keyed.lo, keyed.ext) and np.array_equal(P.keys, keyed.keys)
    # no run wraps exactly when the product is a box: then no key is formed
    assert (spy.call_count == 0) == keyed.is_box


def _unread_box(grp, lo, ext):
    """``_box_at``'s box, built afresh: an interned box may have had its keys
    read by an earlier test."""
    groups._interned_box.cache_clear()
    box = groups._box_at(grp, lo, ext)
    assert box._keys is None
    return box


@pytest.mark.parametrize("grp", BOX_KEY_GROUPS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_set_that_fills_a_box_is_the_lazy_box(grp, data):
    # built key by key, from tuples or rows, it is the box built from its
    # corners, which compares and hashes without building its keys
    lo, ext = data.draw(key_boxes(grp))
    box = _unread_box(grp, lo, ext)
    rows = groups._decode(lo, ext, np.arange(math.prod(ext)))
    same = [FinSet(grp, grp.rows_to_elems(rows[::-1])), FinSet.from_rows(grp, rows)]
    for X in same:
        assert X == box and box == X and hash(X) == hash(box)
        assert X.is_box and box.is_box and len(X) == len(box) and not box.is_empty
    assert box._keys is None
    for X in same:
        assert np.array_equal(X.keys, box.keys) and X.keys.dtype == box.keys.dtype
        assert np.array_equal(X.rows(), box.rows()) and X.elems == box.elems
        assert np.array_equal(X.cell_keys(), box.cell_keys())


@pytest.mark.parametrize("grp, lo, ext", [
    (Z1, (3,), (0,)),
    (Z2, (1, -2), (2, 0)),
    (Z2, (0, 0), (-1, 3)),
    (K2, (1, 0), (1, 0)),
    (CyclicSum((3,)), (0,), (0,)),
    (ZS, (2, -1, 0), (1, 2, -3)),
], ids=lambda v: str(v))
def test_a_box_with_an_extent_below_one_is_empty(grp, lo, ext):
    E = groups._box_at(grp, lo, ext)
    assert E == FinSet(grp) and hash(E) == hash(FinSet(grp))
    assert E.is_empty and len(E) == 0 and not E.is_box and E.elems == ()


@pytest.mark.parametrize("grp", BOX_KEY_GROUPS, ids=str)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_a_box_built_twice_is_one_object(grp, data):
    # numpy corners are read as Python ints before the lookup, so they key
    # the same box and never become its corners
    lo, ext = data.draw(key_boxes(grp))
    groups._interned_box.cache_clear()
    box = groups._box_at(grp, np.asarray(lo), np.asarray(ext, dtype=np.int32))
    assert all(type(v) is int for v in box.lo + box.ext)
    assert groups._box_at(grp, lo, ext) is box
    assert groups._box_at(grp, list(lo), list(ext)) is box


@pytest.mark.parametrize("grp", [ZS, CyclicSum((3, 4))], ids=str)
@pytest.mark.parametrize("wide_first", [True, False])
def test_corners_with_trailing_unit_coordinates_are_one_box(grp, wide_first):
    # on the sum kinds a trailing (0, 1) coordinate carries no digit, so the
    # corners with and without it name one set, and one interned object
    groups._interned_box.cache_clear()
    corners = [((0, 0), (2, 1)), ((0,), (2,))]
    first, second = (groups._box_at(grp, *c) for c in corners[::1 if wide_first else -1])
    assert second is first and (first.lo, first.ext) == ((0,), (2,))
    assert groups._box_at(grp, (0, 0, 0), (2, 1, 1)) is first


@pytest.mark.parametrize("grp", FIVE_GROUPS, ids=lambda g: g.kind)
def test_the_arrays_a_set_caches_are_read_only(grp):
    width = grp.d if isinstance(grp, ZPower) else 2
    box = groups._box_at(grp, (0,) * width, (2,) * width)
    near = FinSet.from_rows(grp, box.rows()[1:])
    for X in (box, near):
        for arr in (X.keys, X.rows(), X.cell_keys()):
            with pytest.raises(ValueError):
                arr[0] = arr[-1]
    # the next build of the box is the same object, with its keys intact
    again = groups._box_at(grp, (0,) * width, (2,) * width)
    assert again is box and again.keys.tolist() == list(range(len(box)))


def _check_box_inverse_and_translate(grp, lo, ext, g):
    # a box's inverse and translate, read off its corners, against the sets
    # of the inverse and translated tuples; only a CyclicSum run that wraps
    # takes the decode path, and then the result is no box
    box = groups._box_at(grp, lo, ext)
    with mock.patch.object(groups, "_decode", wraps=groups._decode) as decodes:
        out = [inverse_set(box), translate_right(box, g)]
    refs = [FinSet(grp, [_inv(grp, e) for e in box.elems]),
            FinSet(grp, [grp.mul(e, g) for e in box.elems])]
    for X, ref in zip(out, refs):
        assert X == ref and (X.lo, X.ext, X.is_box) == (ref.lo, ref.ext, ref.is_box)
        assert np.array_equal(X.keys, ref.keys)
    assert decodes.call_count == sum(not ref.is_box for ref in refs)
    if not isinstance(grp, CyclicSum):
        assert all(ref.is_box for ref in refs)


@pytest.mark.parametrize("grp", BOX_KEY_GROUPS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_box_inverse_and_translate_match_the_tuple_sets(grp, data):
    _check_box_inverse_and_translate(grp, *data.draw(key_boxes(grp)),
                                     data.draw(elems_strategy(grp, top=5)))


@pytest.mark.parametrize("grp, lo, ext, g", [
    (Z2, (-3, 2), (2, 5), (7, -9)),
    (CyclicSum((5,)), (0,), (2,), ((0, 4),)),         # both wrap: {0, 4}
    (CyclicSum((5,)), (1,), (2,), ((0, 3),)),         # -F is {3, 4}, F*g is {4, 0}
    (CyclicSum((5,)), (2,), (2,), ((0, 1),)),         # neither wraps
    (CyclicSum((3, 2)), (0, 1), (3, 1), ((1, 1), (3, 1))),  # a full period; g widens
    (CyclicSum((3, 2)), (1, 0, 0), (1, 1, 2), ()),     # the identity
    (ZS, (-2, 0, 3), (4, 1, 1), ((4, -3),)),          # crosses 0; g widens
    (ZS, (0, 3), (2, 1), ((1, -3),)),                 # g clears the last coordinate
], ids=lambda v: str(v))
def test_box_inverse_and_translate_at_the_edges(grp, lo, ext, g):
    _check_box_inverse_and_translate(grp, lo, ext, g)


@st.composite
def erosion_pair(draw, grp):
    """(F, T) element sets that the closed-form erosion takes: two boxes on
    ZPower and ZSum; on CyclicSum a coset box F (each coordinate either its
    full period or one value) and a set T inside one coset of F's subgroup,
    or with a stray element."""
    width = grp.d if isinstance(grp, ZPower) else draw(st.integers(1, 3))
    if not isinstance(grp, CyclicSum):
        def box():
            los = [draw(st.integers(-3, 3)) for _ in range(width)]
            return [range(a, a + draw(st.integers(1, 4))) for a in los]
        F, T = box(), box()
        return ({e for e in grp.rows_to_elems(np.asarray(list(itertools.product(*r))))}
                for r in (F, T))
    full = [draw(st.booleans()) for _ in range(width)]
    F = [range(grp.period(j)) if f else range(v := draw(st.integers(0, grp.period(j) - 1)),
                                               v + 1)
         for j, f in enumerate(full)]
    F = set(grp.rows_to_elems(np.asarray(list(itertools.product(*F)))))
    g = draw(elems_strategy(grp, span=3, top=3))
    inside = [canon(grp, [(j, v) for j, v in h if j < width and full[j]])
              for h in draw(st.lists(elems_strategy(grp, span=3, top=3), min_size=1,
                                     max_size=4))]
    T = {grp.mul(g, h) for h in inside}
    if draw(st.booleans()):
        T.add(draw(elems_strategy(grp, span=3, top=3)))
    return F, T


@pytest.mark.parametrize("grp", FIVE_GROUPS, ids=lambda g: g.kind)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_box_erosion_closed_form_matches_key_path(grp, data):
    # the closed form forms no key, and agrees with the pair counts of the
    # keyed path and with the tuple reference
    F, T = data.draw(erosion_pair(grp))
    FF, FT = FinSet(grp, F), FinSet(grp, T)
    with mock.patch.object(groups, "_product", wraps=groups._product) as spy:
        E = erode(FF, FT)
    assert spy.call_count == 0
    lo, ext, keys, counts = groups._product(inverse_set(FT), FF)
    assert E == FinSet.from_rows(grp, groups._decode(lo, ext, keys[counts == len(FT)]))
    _same(E, TupleRef(grp).erode(F, T))
    _tight(E)


@pytest.mark.parametrize("grp", [Z1, Z2, ZPower(3), ZS], ids=lambda g: repr(g))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_box_erosion_by_any_set_is_the_bounding_box_erosion(grp, data):
    # a box holds T*g exactly when it holds the translate of T's bounding
    # box, so a box F eroded by a set T that is no box forms no key either
    width = grp.d if isinstance(grp, ZPower) else data.draw(st.integers(1, 3))
    FF = groups._box(grp, [range(a, a + data.draw(st.integers(1, 6)))
                           for a in data.draw(st.lists(st.integers(-3, 3), min_size=width,
                                                       max_size=width))])
    T = data.draw(st.sets(elems_strategy(grp, span=2, top=3), min_size=2, max_size=6)
                  .filter(lambda E: not FinSet(grp, E).is_box))
    F = set(FF.elems)
    with mock.patch.object(groups, "_product", wraps=groups._product) as spy:
        E = erode(FF, FinSet(grp, T))
    assert spy.call_count == 0
    _same(E, TupleRef(grp).erode(F, T))
    _tight(E)


def _tight(fs):
    """The invariant the box fast paths read: the keys are sorted, unique and
    inside [0, prod(ext)); the bounding box of a non-empty set is its least
    and greatest row, and it has no slack coordinate."""
    keys, grp = fs.keys, fs.group
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    assert not len(keys) or 0 <= keys[0] <= keys[-1] < math.prod(fs.ext)
    if not isinstance(grp, ZPower):  # no trailing coordinate fixed at 0
        assert fs.width == 1 or (fs.lo[-1], fs.ext[-1]) != (0, 1)
    if fs.is_empty:
        return
    rows = fs.rows()
    assert fs.lo == tuple(rows.min(axis=0).tolist())
    assert tuple((np.asarray(fs.lo) + fs.ext - 1).tolist()) == tuple(rows.max(axis=0).tolist())
    assert fs.width == (grp.d if isinstance(grp, ZPower) else grp.dense_width(fs.elems))


@pytest.mark.parametrize("grp", FIVE_GROUPS, ids=lambda g: g.kind)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_operation_keeps_the_bounding_box_tight(grp, data):
    elems = elems_strategy(grp, span=3, top=4)
    E = data.draw(st.one_of(box_elems(grp), st.sets(elems, min_size=1, max_size=6)))
    F = data.draw(st.one_of(box_elems(grp), st.sets(elems, min_size=1, max_size=6)))
    g = data.draw(elems)
    FE, FF = FinSet(grp, E), FinSet(grp, F)
    ranges = [range(-1, 2)] * (grp.d if isinstance(grp, ZPower) else 2)
    if isinstance(grp, CyclicSum):
        ranges = [range(1, grp.period(0)), range(grp.period(1))]
    wide = FF.rows(0 if isinstance(grp, ZPower) else 4)  # trailing zero columns
    results = [
        FE, FinSet.from_rows(grp, wide), groups._box(grp, ranges),
        union(FE, FF), intersect(FE, FF), symdiff(FE, FF),
        translate_right(FE, g), inverse_set(FE),
        product_set(FE, FF), erode(FF, FE), FE.take(slice(1, None)),
        FF.take(np.arange(len(FF)) % 2 == 0),
    ]
    for fs in results:
        _tight(fs)


def _subsets(grp, ranges, sizes, seed):
    box = groups._box(grp, ranges)
    rng = np.random.default_rng(seed)
    return [box.take(np.sort(rng.choice(len(box), n, replace=False))) for n in sizes]


def _looped_key_sums(grp, a, b, ext):
    """The digit loop on CyclicSum: each coordinate where b is not all zero
    subtracts its period from the sums whose digits reach it."""
    strides = groups._radix(ext)[0]
    sums = (a @ strides)[:, None] + (b @ strides)[None, :]
    for j in np.flatnonzero(b.any(axis=0)):
        sums[a[:, j, None] + b[None, :, j] >= ext[j]] -= ext[j] * strides[j]
    return sums


@pytest.mark.parametrize("seed", range(40))
def test_cyclic_key_sums_match_the_digit_loop(seed):
    # rows of a and b on mixed periods, with coordinates that only one of
    # them uses; a from 0 to 60 rows takes both the dense and the sorted
    # table of digit vectors
    rng = np.random.default_rng(seed)
    w = int(rng.integers(1, 7))
    grp = CyclicSum(tuple(int(p) for p in rng.integers(2, 5, size=w)))
    periods = grp.periods_vector(w)
    a = rng.integers(0, 60, size=(int(rng.integers(0, 60)), w)) % periods
    b = rng.integers(0, 60, size=(int(rng.integers(1, 12)), w)) % periods
    a[:, rng.random(w) < 0.3] = 0
    b[:, rng.random(w) < 0.4] = 0
    ext = tuple(int(periods[j]) if a[:, j].any() or b[:, j].any() else 1 for j in range(w))
    got = groups._key_sums(grp, a, b, (0,) * w, ext)
    assert np.array_equal(got, _looped_key_sums(grp, a, b, ext))


def _sorted_product(K, F):
    """``_product``'s sort branch: every key sum at once, sorted and counted."""
    w = max(K.width, F.width)
    lo, ext = groups._sum_box(K.group, *groups._padded_boxes(K, F))
    sums = groups._key_sums(K.group, K._key_rows(w), F._key_rows(w), lo, ext)
    return (lo, ext, *groups._unique(sums, counts=True))


@pytest.mark.parametrize("grp, ranges, sizes", [
    (Z2, [range(-9, 10), range(-6, 7)], (40, 50)),
    (ZS, [range(-2, 3), range(0, 4), range(-3, 1)], (40, 50)),
    (CyclicSum((3, 2)), [range(3)] + [range(2)] * 5, (40, 50)),
    (Z1, [range(106)], (40, 50)),
    (ZPower(3), [range(4), range(6), range(7)], (40, 50)),
    (Z2, [range(-30, 31), range(-20, 21)], (600, 1500)),
], ids=["z_power", "z_sum", "cyclic_sum", "z1", "z3", "three_blocks"])
def test_product_dense_count_matches_sort_path_cell_by_cell(grp, ranges, sizes, monkeypatch):
    K, F = _subsets(grp, ranges, sizes, seed=11)
    blocks = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, minlength: blocks.append(x.size)
                        or bincount(x, minlength=minlength))
    dense = groups._product(K, F)
    # the count ran, on blocks of whole rows of K, and saw every pair once
    cells = math.prod(dense[1])
    assert cells <= len(K) * len(F) and sum(blocks) == len(K) * len(F)
    assert all(n % len(F) == 0 and n <= max(groups._BLOCK_SUMS, cells, len(F)) for n in blocks)
    assert len(blocks) >= (3 if len(K) * len(F) > 3 * groups._BLOCK_SUMS else 1)
    direct = _sorted_product(K, F)
    assert dense[:2] == direct[:2]
    assert np.array_equal(dense[2], direct[2]) and np.array_equal(dense[3], direct[3])
    assert dense[2].dtype == direct[2].dtype and dense[3].dtype == direct[3].dtype
    if len(blocks) == 1:  # cell by cell against the reference multiset
        elems = grp.rows_to_elems(groups._decode(*dense[:3]))
        assert dict(zip(elems, dense[3].tolist())) == TupleRef(grp).counts(K.elems, F.elems)


def test_sparse_product_takes_the_sort_path(monkeypatch):
    # more cells than pairs: the sums are sorted, and nothing is counted
    K, F = (FinSet(Z2, [(0, 0), (40, 3), (7, -50)]), FinSet(Z2, [(1, 1), (-9, 30)]))
    monkeypatch.setattr(np, "bincount", None)
    got = groups._product(K, F)
    assert math.prod(got[1]) > len(K) * len(F)
    assert all(np.array_equal(x, y) for x, y in zip(got[2:], _sorted_product(K, F)[2:]))
    cells = Z2.rows_to_elems(groups._decode(*got[:3]))
    assert dict(zip(cells, got[3].tolist())) == TupleRef(Z2).counts(K.elems, F.elems)


def test_box_past_int64_keys_is_a_budget_error():
    with pytest.raises(BudgetError, match="does not fit int64 keys"):
        FinSet(Z2, [(0, 0), (2**32, 2**32)])
    with pytest.raises(BudgetError, match="does not fit int64 keys"):
        FinSet(ZS, [((i, 1),) for i in range(70)])
    far = FinSet(Z1, [(0,), (2**62,)])  # its own box fits, its product's does not
    with pytest.raises(BudgetError, match="does not fit int64 keys"):
        product_set(far, far)


# ---------------------------------------------------------------------------
# keyed hashing


def _mix64_independent(x):
    # written out separately from the library so the stream is cross-checked,
    # not copied
    m = (1 << 64) - 1
    x &= m
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & m
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def test_mix64_matches_independent_reference():
    assert HASH_VERSION == "splitmix64-v1"
    for x in (0, 1, GOLDEN64, 2**64 - 1, 123456789):
        assert mix64(x) == _mix64_independent(x)
    # frozen spot values guard against silent constant edits
    assert mix64(1) == _mix64_independent(1) == 6238072747940578789
    assert mix64(GOLDEN64) == 16294208416658607535


def test_mix64_vector_matches_scalar():
    xs = np.arange(10_000, dtype=np.uint64) * np.uint64(2654435761)
    vec = mix64_np(xs.copy())
    assert not np.array_equal(vec, xs)
    for i in (0, 1, 17, 9999):
        assert int(vec[i]) == mix64(int(xs[i]))


def test_mix64_vector_keeps_one_scratch_per_thread():
    # the scratch array is kept and reused at any smaller size or shape, so
    # hashing a slab allocates only its result; each thread has its own
    xs = np.arange(1 << 14, dtype=np.uint64) * np.uint64(2654435761)
    ref = [mix64(x) for x in xs.tolist()]
    for n, shape in ((1 << 14, (1 << 14,)), (17, (17,)), (1 << 12, (64, 64)), (0, (3, 0))):
        assert mix64_np(xs[:n].reshape(shape).copy()).ravel().tolist() == ref[:n]
    scratch = _bits._scratch.t
    assert mix64_np(xs[:100].copy()).tolist() == ref[:100] and _bits._scratch.t is scratch
    out = {}

    def run(k):
        out[k] = all(mix64_np(xs.copy()).tolist() == ref for _ in range(20))
        out[k] = out[k] and _bits._scratch.t is not scratch

    threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == {0: True, 1: True, 2: True}


def _premix_independent(x):
    return x ^ (x >> 30)


def test_premix_is_linear_and_splits_the_finalizer():
    # premix(a ^ b) == premix(a) ^ premix(b), so the words of premixed keys
    # and cfgs are mix64 of the raw pairs, on the scalar and numpy paths
    rng = np.random.default_rng(5)
    a, b = (np.concatenate([np.array(edge, dtype=np.uint64),
                            rng.integers(0, 2**64, size=500, dtype=np.uint64)])
            for edge in ([0, MASK64, 0, MASK64], [0, 0, MASK64, MASK64]))
    pa, pb = premix_np(a), premix_np(b)
    assert np.array_equal(premix_np(a ^ b), pa ^ pb)
    words = words_from_premixed(pa[:, None], pb)[:, 0]  # one key row per cfg
    assert np.array_equal(words, mix64_np(a ^ b))
    p = _premix_independent
    for x, y, px, w in zip(a.tolist(), b.tolist(), pa.tolist(), words.tolist()):
        assert p(x ^ y) == p(x) ^ p(y)
        assert px == p(x) and w == mix64(x ^ y) == _mix64_independent(x ^ y)


def test_words_bit_identical():
    # the premixed entry point against the scalar uniform of the raw pair
    keys = np.array([3, 99, 2**63 + 5], dtype=np.uint64)
    cfgs = np.array([11, 2**60 + 1], dtype=np.uint64)
    mat = words_from_premixed(premix_np(keys), premix_np(cfgs))
    assert mat.shape == (2, 3) and mat.dtype == np.uint64
    for r, cfg in enumerate([11, 2**60 + 1]):
        for c, k in enumerate([3, 99, 2**63 + 5]):
            assert int(mat[r, c]) * TWO_NEG_64 == uniform_from_key(k, cfg)


@pytest.mark.parametrize("probs", [(0.3, 0.7), (0.5, 0.0, 0.5), (0.2, 0.5, 0.3)])
def test_word_symbols_match_float_rule(probs):
    # integer cuts against the scalar float rule, at every cut and at the
    # top words that round to the uniform 1.0
    leaf = BernoulliShift(Z1, probs)
    cuts = [int(t) for t in leaf._cuts]
    assert len(cuts) == len(probs) - 1
    words = sorted({w for t in cuts for w in (t - 1, t, t + 1)}
                   | {0, 2**64 - 1025, 2**64 - 1024, 2**64 - 1})
    got = leaf.symbols(np.array(words, dtype=np.uint64))
    for w, s in zip(words, got.tolist()):
        u = w * TWO_NEG_64
        assert s == bisect_right(leaf.cum[:-1], u), (w, s)
    # the numpy cast rounds as the scalar rule does
    assert (np.array(words, dtype=np.uint64).astype(np.float64) * TWO_NEG_64
            == np.array([w * TWO_NEG_64 for w in words])).all()
    assert (2**64 - 1024) * TWO_NEG_64 == 1.0 > (2**64 - 1025) * TWO_NEG_64
    assert got[-1] == got[-2] == len(probs) - 1  # never outside the alphabet
    assert got[0] == 0


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=80)
def test_mix64_bijective_sample(x):
    # injective on sampled pairs (full bijectivity is structural)
    assert mix64(x) == mix64(x)
    if x != 0:
        assert mix64(x) != mix64(0)


# ---------------------------------------------------------------------------
# deterministic enumeration


def test_enumerate_finsets_z1_small():
    sets = list(enumerate_finsets(Z1, EnumBudget(max_card=2, lo=0, hi=2)))
    as_tuples = [s.elems for s in sets]
    assert ((0,),) in as_tuples
    assert ((0,), (1,)) in as_tuples
    # exhaustive at this budget: 3 singletons + 3 pairs
    assert len(as_tuples) == 6
    assert len(set(as_tuples)) == 6
    cards = [len(s) for s in sets]
    assert cards == sorted(cards)  # stream is ordered by cardinality


def test_enumerate_finsets_budget_cap():
    sets = list(enumerate_finsets(Z1, EnumBudget(max_card=3, lo=-3, hi=3,
                                                 max_sets=10)))
    assert len(sets) == 10


def test_enumerate_finsets_deterministic():
    b = EnumBudget(max_card=2, lo=-1, hi=1)
    one = [s.elems for s in enumerate_finsets(Z1, b)]
    two = [s.elems for s in enumerate_finsets(Z1, b)]
    assert one == two


def test_enumerate_finsets_stops_at_the_ground_set():
    # no cardinality past the 5-element ground has a combination: a stream
    # that cannot fill max_sets ends there, whatever max_card says
    calls, itertools_combinations = [], itertools.combinations

    def combinations(ground, card):
        calls.append(card)
        assert len(calls) <= len(ground), "combinations past the ground set"
        return itertools_combinations(ground, card)

    want = [s.elems for s in enumerate_finsets(Z1, EnumBudget(5, -2, 2, max_sets=50))]
    with mock.patch.object(groups.itertools, "combinations", combinations):
        got = [s.elems for s in enumerate_finsets(Z1, EnumBudget(10 ** 9, -2, 2, max_sets=50))]
    assert got == want and len(got) == 31 and calls == [1, 2, 3, 4, 5]


def test_group_json_roundtrip():
    configs = [{"kind": "z_power", "d": 1}, {"kind": "z_power", "d": 2},
               {"kind": "cyclic_sum", "periods": [2, 3, 2]}, {"kind": "z_sum"}]
    assert [Group.from_json(d) for d in configs] == GROUPS
