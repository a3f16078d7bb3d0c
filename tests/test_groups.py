from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import (BudgetError, CyclicSum, EnumBudget, FinSet, Group,
                       GroupMismatchError, ZPower, ZSum, diff,
                       enumerate_finsets, erode, finset, groups, intersect,
                       inverse_set, is_subset, multiplicity, product_set,
                       symdiff, translate_left, translate_right, union)
from folnerlab._bits import (GOLDEN64, HASH_VERSION, mix64, mix64_np,
                             uniform_from_key, uniforms_from_keys)

Z1 = ZPower(1)
Z2 = ZPower(2)
K2 = CyclicSum((2, 3, 2))
ZS = ZSum()

GROUPS = [Z1, Z2, K2, ZS]


def elems_strategy(grp, span=4, top=3):
    if isinstance(grp, ZPower):
        coord = st.integers(-span, span)
        return st.tuples(*([coord] * grp.d))
    # sparse (index, value) pairs, normalized through the group itself
    return st.lists(
        st.tuples(st.integers(0, top), st.integers(-span, span)),
        max_size=3).map(grp._canon)


@pytest.mark.parametrize("grp", GROUPS, ids=lambda g: g.kind)
def test_group_laws_random(grp):
    rng = np.random.default_rng(42)
    e = grp.identity()
    for _ in range(200):
        a = grp.random_elem(rng)
        b = grp.random_elem(rng)
        c = grp.random_elem(rng)
        assert grp.mul(grp.mul(a, b), c) == grp.mul(a, grp.mul(b, c))
        assert grp.mul(a, e) == a
        assert grp.mul(e, a) == a
        assert grp.mul(a, grp.inv(a)) == e
        assert grp.mul(a, b) == grp.mul(b, a)  # all built-ins are abelian


@given(a=elems_strategy(Z2), b=elems_strategy(Z2))
def test_zpower_law_hypothesis(a, b):
    assert Z2.mul(a, Z2.inv(a)) == Z2.identity()
    assert Z2.inv(Z2.mul(a, b)) == Z2.mul(Z2.inv(a), Z2.inv(b))


@given(a=elems_strategy(K2), b=elems_strategy(K2))
def test_cyclic_law_hypothesis(a, b):
    assert K2.mul(a, K2.inv(a)) == K2.identity()
    assert K2.mul(a, b) == K2.mul(b, a)


@given(a=elems_strategy(ZS), b=elems_strategy(ZS))
@settings(max_examples=60)
def test_zsum_law_hypothesis(a, b):
    assert ZS.mul(a, ZS.inv(a)) == ZS.identity()
    assert ZS.mul(a, b) == ZS.mul(b, a)


def test_finset_dedup_and_order():
    F = finset(Z1, [(3,), (1,), (3,), (2,)])
    assert F.elems == ((1,), (2,), (3,))
    assert len(F) == 3 and not F.is_empty
    assert finset(Z1, []).is_empty


@pytest.mark.parametrize("grp, absent, foreign", [
    (Z2, (9, 9), ((0, 1),)),
    (K2, ((9, 1),), (0, 1)),
    (ZS, ((0, 7),), (0, 1)),
], ids=["z_power", "cyclic_sum", "z_sum"])
def test_finset_membership_matches_elems(grp, absent, foreign):
    rng = np.random.default_rng(3)
    elems = [grp.random_elem(rng, 6) for _ in range(200)]
    small, big = finset(grp, elems[:3]), finset(grp, elems)
    assert len(big) > 16
    for F in (small, big):
        twin = finset(grp, F.elems)
        for e in (*F.elems, absent, foreign, grp.identity()):
            assert (e in F) == (e in set(F.elems))
        assert all(e in F for e in F.elems)
        assert absent not in F and foreign not in F
        assert F == twin and hash(F) == hash(twin) and repr(F) == repr(twin)


def test_finset_algebra():
    A = finset(Z1, [(0,), (1,), (2,)])
    B = finset(Z1, [(2,), (3,)])
    assert union(A, B).elems == ((0,), (1,), (2,), (3,))
    assert intersect(A, B).elems == ((2,),)
    assert diff(A, B).elems == ((0,), (1,))
    assert inverse_set(B).elems == ((-3,), (-2,))
    assert translate_right(A, (5,)).elems == ((5,), (6,), (7,))
    assert translate_left((5,), A).elems == ((5,), (6,), (7,))


def test_group_mismatch_rejected():
    A = finset(Z1, [(0,)])
    B = finset(Z2, [(0, 0)])
    with pytest.raises(GroupMismatchError):
        union(A, B)
    with pytest.raises(GroupMismatchError):
        product_set(A, B)


@pytest.mark.parametrize("grp", GROUPS, ids=lambda g: g.kind)
def test_product_grid_matches_naive(grp):
    # the grid convolution path must agree with elementwise products
    rng = np.random.default_rng(7)
    for trial in range(20):
        K = finset(grp, [grp.random_elem(rng) for _ in range(4)])
        F = finset(grp, [grp.random_elem(rng) for _ in range(5)])
        naive = {grp.mul(k, f) for k in K.elems for f in F.elems}
        got = product_set(K, F)
        assert set(got.elems) == naive
        assert len(got) == len(naive)


def test_product_grid_large_agrees_on_boxes():
    # force the grid path (|K|*|F| above the pairwise threshold) and compare
    # against the closed form for interval sums
    K = finset(Z1, [(i,) for i in range(300)])
    F = finset(Z1, [(i,) for i in range(300)])
    got = product_set(K, F)
    assert len(got) == 599
    assert got.elems[0] == (0,) and got.elems[-1] == (598,)


def test_zsum_product_sparse():
    a = finset(ZS, [(), ((0, 1),)])
    b = finset(ZS, [((1, -2),)])
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
        return {self.grp.inv(x) for x in F}

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
    FE, FF = finset(grp, E), finset(grp, F)
    _same(FE, E)
    _same(union(FE, FF), E | F)
    _same(intersect(FE, FF), E & F)
    _same(diff(FE, FF), E - F)
    _same(symdiff(FE, FF), E ^ F)
    for x in E | F | {g, grp.identity()}:
        assert (x in FE) == (x in E)
    assert is_subset(FE, FF) == (E <= F) and is_subset(FF, FE) == (F <= E)
    _same(translate_left(g, FE), ref.translate(g, E))
    _same(translate_right(FE, g), ref.translate(g, E))
    _same(inverse_set(FE), ref.inverse(E))
    P = product_set(FE, FF)
    _same(P, ref.product(E, F))
    assert dict(zip(P.elems, multiplicity(FE, FF, P).tolist())) == ref.counts(E, F)
    _same(erode(FF, FE), ref.erode(F, E))


def _subsets(grp, ranges, sizes, seed):
    box = groups._box(grp, ranges)
    rng = np.random.default_rng(seed)
    return [box.take(np.sort(rng.choice(len(box), n, replace=False))) for n in sizes]


@pytest.mark.parametrize("grp, ranges", [
    (Z2, [range(-9, 10), range(-6, 7)]),
    (ZS, [range(-2, 3), range(0, 4), range(-3, 1)]),
    (CyclicSum((3, 2)), [range(3)] + [range(2)] * 5),
    (Z1, [range(106)]),
    (ZPower(3), [range(4), range(6), range(7)]),
], ids=["z_power", "z_sum", "cyclic_sum", "z1_crop", "z3_crop"])
def test_product_grid_matches_key_path_cell_by_cell(grp, ranges, monkeypatch):
    K, F = _subsets(grp, ranges, (40, 50), seed=11)
    calls = []
    convolve = groups._convolve
    monkeypatch.setattr(groups, "_convolve",
                        lambda *a: calls.append(a[2]) or convolve(*a))
    monkeypatch.setattr(groups, "_GRID_PAIR_THRESHOLD", 0)
    grid = groups._product(K, F)
    ext = grid[1]
    if isinstance(grp, CyclicSum):
        assert calls == [ext]  # the grid path ran, on the period grid
    else:  # ... on the full extent padded to smooth lengths
        assert calls == [tuple(map(groups._fast_len, ext))]
    if grp in (Z1, ZPower(3)):  # the result is cropped from a padded grid
        assert calls[0] != ext
    monkeypatch.setattr(groups, "_GRID_PAIR_THRESHOLD", len(K) * len(F))
    direct = groups._product(K, F)
    assert len(calls) == 1  # the key path ran
    assert grid[:2] == direct[:2]
    assert np.array_equal(grid[2], direct[2]) and np.array_equal(grid[3], direct[3])
    # cell by cell against the reference multiset
    cells = grp.rows_to_elems(groups._decode(*grid[:3]))
    assert dict(zip(cells, grid[3].tolist())) == TupleRef(grp).counts(K.elems, F.elems)


def test_product_grid_rounding_slack_is_asserted(monkeypatch):
    K, F = _subsets(Z2, [range(-9, 10), range(-6, 7)], (40, 50), seed=3)
    convolve = groups._convolve
    monkeypatch.setattr(groups, "_convolve", lambda *a: convolve(*a) + 0.3)
    monkeypatch.setattr(groups, "_GRID_PAIR_THRESHOLD", 0)
    with pytest.raises(ArithmeticError, match="rounding slack"):
        product_set(K, F)


def test_box_past_int64_keys_is_a_budget_error():
    with pytest.raises(BudgetError, match="does not fit int64 keys"):
        finset(Z2, [(0, 0), (2**32, 2**32)])
    with pytest.raises(BudgetError, match="does not fit int64 keys"):
        finset(ZS, [((i, 1),) for i in range(70)])
    far = finset(Z1, [(0,), (2**62,)])  # its own box fits, its product's does not
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
    vec = mix64_np(xs)
    for i in (0, 1, 17, 9999):
        assert int(vec[i]) == mix64(int(xs[i]))


def test_uniforms_bit_identical():
    keys = np.array([3, 99, 2**63 + 5], dtype=np.uint64)
    cfgs = np.array([11, 2**60 + 1], dtype=np.uint64)
    mat = uniforms_from_keys(keys, cfgs)
    assert mat.shape == (2, 3)
    for r, cfg in enumerate([11, 2**60 + 1]):
        for c, k in enumerate([3, 99, 2**63 + 5]):
            assert mat[r, c] == uniform_from_key(k, cfg)
    assert ((mat >= 0) & (mat < 1)).all()


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


def test_group_json_roundtrip():
    for grp in GROUPS:
        assert Group.from_json(grp.to_json()) == grp
