"""Measure-preserving actions, observables, and exact conditional means."""

import math

import numpy as np
import pytest

from folnerlab import families
from folnerlab.groups import CyclicSum, FinSet, ZPower, ZSum
from folnerlab.systems import (
    BernoulliShift,
    FiniteMixture,
    Points,
    System,
    TorusRotation,
    UnsupportedObservable,
    conditional_expectation,
    indicator_symbol,
    neg_pow_run,
    observable_from_json,
    scaled,
    split_leaves,
    symbol_value,
    torus_coordinate,
)
from folnerlab.tiling import window_set
from scalar_oracle import act, family_value, obs_value

ALPHA = (math.sqrt(5) - 1) / 2  # irrational rotation step


def _bernoulli(d=1, probs=(0.7, 0.3), seed=5):
    return BernoulliShift(ZPower(d), probs, seed=seed)


def _torus(seed=2):
    return TorusRotation(ZPower(1), (ALPHA,), seed=seed)


def _mixture(seed=3):
    return FiniteMixture([(0.25, _bernoulli()), (0.75, _torus())], seed=seed)


def _box(z, n):
    import itertools

    return FinSet(z, tuple(sorted(itertools.product(range(n), repeat=z.d))))


def _same(a: Points, b: Points) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("leaf", "offsets", "cfgs", "bases"))


# ---------------------------------------------------------------------------
# group action laws


@pytest.mark.parametrize("make", [_bernoulli, _torus, _mixture])
def test_action_composes(make):
    system = make()
    rng = np.random.default_rng(11)
    grp = ZPower(1)
    y = system.sample([rng])
    for g, h in [((2,), (5,)), ((-3,), (4,)), ((7,), (-7,))]:
        lhs = act(system, grp.mul(g, h), y)
        rhs = act(system, g, act(system, h, y))
        assert _same(lhs, rhs)


@pytest.mark.parametrize("make", [_bernoulli, _torus, _mixture])
def test_identity_acts_trivially(make):
    system = make()
    y = system.sample([np.random.default_rng(4)])
    assert _same(act(system, (0,), y), y)


def test_action_on_lattice():
    system = _bernoulli(d=2)
    grp = ZPower(2)
    y = system.sample([np.random.default_rng(1)])
    assert _same(act(system, grp.mul((1, 2), (3, -1)), y),
                 act(system, (1, 2), act(system, (3, -1), y)))


# ---------------------------------------------------------------------------
# vectorized windows agree with the scalar oracle bit for bit


def test_bernoulli_window_bit_identical():
    system = _bernoulli()
    rng = np.random.default_rng(8)
    pts = system.sample([rng] * 5)
    F = _box(system.group, 7)
    obs = indicator_symbol(1)
    mat = obs.window_values(system, pts, F)
    assert mat.shape == (5, 7)
    for r in range(len(pts)):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs_value(obs, system, act(system, g, pts[r:r + 1]))


_ALPHABETS = [(1.0,), (0.3, 0.7), (0.2, 0.5, 0.3), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0),
              (0.6, 0.4 + 5e-10, 0.0)]  # the last: cum[1] > 1, so its cut is absent
_SUMMED_CASES = ([(probs, indicator_symbol(s)) for probs in _ALPHABETS
                  for s in range(len(probs))]
                 + [((0.2, 0.5, 0.3), symbol_value()),
                    ((0.3, 0.7), scaled(indicator_symbol(1), 0.1)),
                    ((0.4, 0.6), neg_pow_run())])


@pytest.mark.parametrize("probs,obs", _SUMMED_CASES,
                         ids=[f"{o.name}-{p}" for p, o in _SUMMED_CASES])
@pytest.mark.parametrize("points", [1, 40])
@pytest.mark.parametrize("translated", [False, True])
def test_summed_window_values_are_the_row_sums(probs, obs, points, translated):
    # counted indicator sums, and the default row sum of the other
    # observables, equal the matrix's row sums bit for bit
    system = BernoulliShift(ZPower(1), probs, seed=31)
    pts = system.sample([np.random.default_rng(6)] * points)
    if translated:
        pts = pts.moved(system.group, np.arange(points)[:, None] * 3 - 7)
    for F in (_box(system.group, 13), FinSet(system.group, [(0,), (2,), (3,), (9,)])):
        summed = obs.window_values(system, pts, F, summed=True)
        assert summed.dtype == np.float64
        assert np.array_equal(summed, obs.window_values(system, pts, F).sum(axis=1))


def _slab_case(case):
    rng = np.random.default_rng(12)
    if case == "one-point-slabs":
        # |F| above the slab budget: every slab holds a single point
        system = _bernoulli(probs=(0.2, 0.5, 0.3))
        F = _box(ZPower(1), families._SLAB_CELLS + 5)
        pts = system.sample([rng] * 3)
        return system, F, pts, symbol_value(), [0, 2]
    if case == "mixture":
        system = FiniteMixture([(0.4, _bernoulli(d=2, probs=(0.75, 0.25), seed=21)),
                                (0.6, _bernoulli(d=2, probs=(0.25, 0.75), seed=22))],
                               seed=23)
        pts = system.sample([rng] * 150)
        return system, _box(ZPower(2), 5), pts, indicator_symbol(1), range(150)
    # distinct, non-identity offsets, over more than one slab
    system = _bernoulli(d=2, probs=(0.2, 0.5, 0.3))
    pts = system.sample([rng] * 90).moved(
        system.group, np.asarray([(i, -2 * i - 1) for i in range(90)]))
    return system, _box(ZPower(2), 6), pts, symbol_value(), range(90)


@pytest.mark.parametrize("case", ["one-point-slabs", "mixture", "offsets"])
def test_sample_values_slabs_bit_identical(case):
    system, F, pts, obs, subset = _slab_case(case)
    fam = families.AdditiveFamily(obs)
    vals = fam.sample_values(system, F, pts)
    for i in subset:
        assert vals[i] == family_value(fam, system, F, pts[i:i + 1]), i


def test_neg_pow_run_window_bit_identical():
    system = _bernoulli(probs=(0.4, 0.6))
    rng = np.random.default_rng(9)
    pts = system.sample([rng] * 4)
    F = _box(system.group, 9)
    obs = neg_pow_run(2.0, cap=12)
    mat = obs.window_values(system, pts, F)
    for r in range(len(pts)):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs_value(obs, system, act(system, g, pts[r:r + 1]))


def test_torus_window_matches_scalar():
    system = _torus()
    rng = np.random.default_rng(10)
    pts = system.sample([rng] * 4)
    F = _box(system.group, 6)
    obs = torus_coordinate(0)
    mat = obs.window_values(system, pts, F)
    expect = np.array([[obs_value(obs, system, act(system, g, pts[r:r + 1]))
                        for g in F.elems] for r in range(len(pts))])
    assert np.allclose(mat, expect, rtol=0, atol=1e-12)


# translations reaching past the window's support (one repeated)
_MOVES = {
    "z_power": [(3,), (-2,), (7,), (3,)],
    "cyclic_sum": [((0, 1),), ((3, 1),), ((1, 1), (2, 1)), ((0, 1),)],
    "z_sum": [((0, -1), (2, -3)), ((4, 2),), ((1, 1),), ((4, 2),)],
}
_MIXED_CASES = [
    (grp, name, None)
    for grp in (ZPower(1), CyclicSum((2,)), ZSum())
    for name in ("indicator_symbol", "symbol_value", "neg_pow_run")
    if name != "neg_pow_run" or isinstance(grp, ZPower)
] + [(ZPower(1), "neg_pow_run", ((-3,), (0,), (1,), (5,), (9,)))]


@pytest.mark.parametrize(
    "grp, name, window", _MIXED_CASES,
    ids=[f"{g.kind}-{n}" + ("-gappy" if w else "") for g, n, w in _MIXED_CASES])
def test_mixed_offsets_stay_bernoulli_batch(grp, name, window):
    # points translated by different offsets (and two sharing one) batch
    # together and match the scalar oracle bit for bit
    system = BernoulliShift(grp, (0.4, 0.6), seed=5)
    obs = {"indicator_symbol": indicator_symbol(1), "symbol_value": symbol_value(),
           "neg_pow_run": neg_pow_run(2.0, cap=12)}[name]
    rng = np.random.default_rng(3)
    yz = system.sample([rng] * 2)  # y, z; then each move of y and of z
    moves = [grp.identity()] * 2 + [g for g in _MOVES[grp.kind] for _ in (0, 1)]
    pts = yz[np.arange(len(moves)) % 2].moved(grp, grp.dense_rows(moves))
    F = (FinSet(grp, window) if window
         else window_set(grp, 4 if grp.kind == "z_power" else 1))
    mat = obs.window_values(system, pts, F)
    assert mat.shape == (len(pts), len(F))
    for r in range(len(pts)):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs_value(obs, system, act(system, g, pts[r:r + 1]))


def _translated_case(case):
    """(system, F, translated points): one point moved by every element of a
    set, or points moved by random elements."""
    rng = np.random.default_rng(31)
    if case == "whole-set":
        # one point translated by all of F_7 (shared configuration key): the
        # 128 x 8 window cells are 128 distinct cells, over more than 64 points
        grp = CyclicSum((2,))
        system = BernoulliShift(grp, (0.5, 0.2, 0.3), seed=32)
        F, moves = window_set(grp, 3), window_set(grp, 7).rows()
        return system, F, system.sample([rng])[np.zeros(len(moves), dtype=np.int64)].moved(
            grp, moves)
    grp, F = {
        # sums wrap at period 3 on index 0 and at 2 past it
        "cyclic-wraps": (CyclicSum((3, 2)),
                         [(), ((0, 2),), ((1, 1),), ((0, 1), (2, 1)), ((0, 2), (1, 1))]),
        # offsets supported past F's width, values past F's extents
        "zsum-wide": (ZSum(), [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1))]),
        "gappy": (ZPower(2), [(0, 0), (3, 1), (-2, 5), (1, 1), (0, 4)]),
    }[case]
    system = BernoulliShift(grp, (0.4, 0.6), seed=33)
    moves = [grp.random_elem(rng, 5) for _ in range(70)]
    if case == "zsum-wide":
        moves = [grp.mul(g, ((6, int(rng.integers(-4, 5))),)) for g in moves]
    return system, FinSet(grp, F), system.sample([rng] * len(moves)).moved(
        grp, grp.dense_rows(moves))


@pytest.mark.parametrize("case", ["whole-set", "cyclic-wraps", "zsum-wide", "gappy"])
def test_translated_windows_match_scalar_oracle(case):
    system, F, pts = _translated_case(case)
    obs = symbol_value()
    mat = obs.window_values(system, pts, F)
    assert mat.shape == (len(pts), len(F))
    for r in range(len(pts)):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs_value(obs, system, act(system, g, pts[r:r + 1]))
    fam = families.AdditiveFamily(obs)
    vals = fam.sample_values(system, F, pts)
    for r in range(0, len(pts), 7):
        assert vals[r] == family_value(fam, system, F, pts[r:r + 1]), r


# ---------------------------------------------------------------------------
# stationarity


def test_bernoulli_marginals_match_probs():
    system = _bernoulli(probs=(0.7, 0.3))
    rng = np.random.default_rng(21)
    n = 4000
    pts = system.sample([rng] * n)
    obs = indicator_symbol(1)
    vals = obs.window_values(system, pts, _box(system.group, 1))
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(vals.mean() - 0.3) <= 4 * sigma


def test_translation_preserves_marginals():
    # the law of the symbol at the origin is unchanged by a large shift
    system = _bernoulli(probs=(0.7, 0.3))
    rng = np.random.default_rng(22)
    n = 4000
    pts = system.sample([rng] * n)
    obs = indicator_symbol(1)
    moved = pts.moved(system.group, np.full((n, 1), 137))
    shifted = obs.window_values(system, moved, _box(system.group, 1))
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(shifted.mean() - 0.3) <= 4 * sigma


def test_mixture_component_frequencies():
    system = _mixture()
    rng = np.random.default_rng(23)
    n = 2000
    pts = system.sample([rng] * n)
    frac = float((pts.leaf == 0).sum()) / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(frac - 0.25) <= 4 * sigma


# ---------------------------------------------------------------------------
# exact means and conditional expectations


def test_exact_means():
    assert indicator_symbol(1).exact_mean(_bernoulli()) == 0.3
    assert symbol_value().exact_mean(_bernoulli()) == 0.3
    assert scaled(indicator_symbol(1), 2.5).exact_mean(_bernoulli()) == 0.75
    assert torus_coordinate(0).exact_mean(_torus()) == 0.5
    assert neg_pow_run().exact_mean(_bernoulli()) is None


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("base", [symbol_value, lambda: torus_coordinate(0)],
                         ids=["integer_base", "real_base"])
def test_scaled_refuses_a_non_finite_factor(base, c):
    with pytest.raises(ValueError, match=f"scale factor c must be finite, got {c}"):
        scaled(base(), c)


def test_conditional_expectation_is_exact_on_single_leaves():
    bern = _bernoulli()
    ce = conditional_expectation(bern, indicator_symbol(1))
    assert ce.leaf_means == {id(bern): 0.3}
    tor = _torus()
    ce = conditional_expectation(tor, torus_coordinate(0))
    assert ce.leaf_means == {id(tor): 0.5}


def test_conditional_expectation_splits_mixture_by_component():
    system = FiniteMixture(
        [(0.5, _bernoulli(probs=(0.75, 0.25))), (0.5, _bernoulli(probs=(0.25, 0.75)))],
        seed=3,
    )
    ce = conditional_expectation(system, indicator_symbol(1))
    assert ce.leaf_means == {id(system.parts[0][1]): 0.25, id(system.parts[1][1]): 0.75}


def test_conditional_expectation_rejects_unsupported_leaves():
    system = _mixture()
    with pytest.raises(UnsupportedObservable):
        conditional_expectation(system, indicator_symbol(1))


def test_conditional_expectation_monte_carlo_errors_are_reported():
    obs = neg_pow_run(2.0, cap=12)
    ce = conditional_expectation(_bernoulli(), obs, samples=2000, seed=7)
    weight, _, mean, stderr = ce.components[0]
    assert weight == 1.0 and stderr > 0
    # E[-2^R] with run length R geometric: sum_k -2^k (0.3^k) 0.7 = -0.7/(1-0.6) * ... ;
    # at p=0.3, base=2 the series is -0.7 * sum (0.6)^k = -1.75
    assert abs(mean - (-1.75)) <= 5 * stderr + 0.05


# ---------------------------------------------------------------------------
# split_leaves


def test_split_leaves_partitions_indices():
    system = _mixture()
    rng = np.random.default_rng(12)
    pts = system.sample([rng] * 60)
    parts = split_leaves(system, pts)
    seen = np.concatenate([idx for _, idx, _ in parts])
    assert sorted(seen.tolist()) == list(range(60))
    leaves = [leaf for _, leaf in system.components()]
    assert [leaf for leaf, _, _ in parts] == leaves  # in components() order
    for k, (leaf, idx, batch) in enumerate(parts):
        assert not isinstance(leaf, FiniteMixture)
        assert len(idx) > 0 and (np.diff(idx) > 0).all()
        assert (batch.leaf == k).all() and _same(batch, pts[idx])


def test_split_leaves_trivial_on_plain_system():
    system = _bernoulli()
    pts = system.sample(np.random.default_rng(i) for i in range(3))
    [(leaf, idx, _)] = split_leaves(system, pts)
    assert leaf is system
    assert idx.tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# unsupported pairings


def test_unsupported_observable_errors():
    bern = _bernoulli()
    tor = _torus()
    by = bern.sample([np.random.default_rng(0)])
    ty = tor.sample([np.random.default_rng(0)])
    with pytest.raises(UnsupportedObservable):
        torus_coordinate(0).window_values(bern, by, _box(bern.group, 1))
    with pytest.raises(UnsupportedObservable):
        indicator_symbol(1).window_values(tor, ty, _box(tor.group, 1))


@pytest.mark.parametrize("symbol", [-1, 2])
def test_indicator_symbol_outside_alphabet_is_unsupported(symbol):
    # the window and exact-mean paths must agree: both refuse
    bern = _bernoulli()
    pts = bern.sample([np.random.default_rng(0)])
    obs = indicator_symbol(symbol)
    with pytest.raises(UnsupportedObservable):
        obs.window_values(bern, pts, _box(bern.group, 3))
    with pytest.raises(UnsupportedObservable):
        obs.exact_mean(bern)


def test_neg_pow_run_off_the_line_is_unsupported():
    # the window path refuses Z^2
    bern = _bernoulli(d=2)
    pts = bern.sample([np.random.default_rng(0)])
    obs = neg_pow_run()
    with pytest.raises(UnsupportedObservable):
        obs.window_values(bern, pts,
                          FinSet(bern.group, ((0, 0), (1, 0), (2, 0))))


# ---------------------------------------------------------------------------
# serialization


_BERNOULLI_JSON = {"kind": "bernoulli", "group": {"kind": "z_power", "d": 1},
                   "probs": [0.7, 0.3], "seed": 5}
_TORUS_JSON = {"kind": "torus", "alphas": [ALPHA], "seed": 2}


def _state(system):
    """What a system is built from, comparable with ==."""
    if isinstance(system, FiniteMixture):
        return "mixture", system.seed, [(w, _state(s)) for w, s in system.parts]
    return (type(system).__name__, system.group, getattr(system, "probs", None),
            getattr(system, "alphas", None), system.seed)


def test_system_json_roundtrip():
    mixture = {"kind": "mixture", "seed": 3,
               "components": [{"weight": 0.25, "system": _BERNOULLI_JSON},
                              {"weight": 0.75, "system": _TORUS_JSON}]}
    for d, system in ((_BERNOULLI_JSON, _bernoulli()), (_TORUS_JSON, _torus()),
                      (mixture, _mixture())):
        back = System.from_json(d)
        assert _state(back) == _state(system)
        assert _same(back.sample([np.random.default_rng(4)]),
                     system.sample([np.random.default_rng(4)]))


def test_observable_json_roundtrip():
    bern = _bernoulli()
    tor = _torus()
    y = bern.sample([np.random.default_rng(2)])
    ty = tor.sample([np.random.default_rng(2)])
    for d, obs, system, pt in [
        ({"kind": "indicator_symbol", "symbol": 1}, indicator_symbol(1), bern, y),
        ({"kind": "symbol_value"}, symbol_value(), bern, y),
        ({"kind": "scaled", "base": {"kind": "symbol_value"}, "c": 3.0},
         scaled(symbol_value(), 3.0), bern, y),
        ({"kind": "neg_pow_run", "base": 2.0, "cap": 12},
         neg_pow_run(2.0, cap=12), bern, y),
        ({"kind": "torus_coordinate", "index": 0}, torus_coordinate(0), tor, ty),
    ]:
        back = observable_from_json(d)
        assert back.name == obs.name
        batch, F = pt, _box(system.group, 3)
        assert np.array_equal(back.window_values(system, batch, F),
                              obs.window_values(system, batch, F))


@pytest.mark.parametrize("probs", [(0.5, 0.4), (-0.1, 1.1), (math.nan, 0.3), ()])
def test_bernoulli_probs_must_be_nonnegative_and_sum_to_one(probs):
    with pytest.raises(ValueError):
        _bernoulli(probs=probs)


@pytest.mark.parametrize("weights", [(0.5, 0.4), (-0.1, 1.1), (math.nan, 1.0)])
def test_mixture_weights_must_be_nonnegative_and_sum_to_one(weights):
    with pytest.raises(ValueError):
        FiniteMixture([(w, _bernoulli()) for w in weights])


def test_points_refuse_an_integer_index():
    # a lone integer would give a batch of 0-d arrays; one point is [i:i + 1]
    pts = _bernoulli().sample([np.random.default_rng(0)] * 3)
    with pytest.raises(TypeError):
        pts[0]
    with pytest.raises(TypeError):
        pts[np.int64(1)]
    assert len(pts[1:2]) == 1 and len(pts[np.asarray([0, 2])]) == 2


def test_sampling_is_deterministic_given_rng_seed():
    system = _mixture()
    a = system.sample(np.random.default_rng(5) for _ in range(3))
    b = system.sample(np.random.default_rng(5) for _ in range(3))
    assert _same(a, b)
