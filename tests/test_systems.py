"""Measure-preserving actions, observables, and exact conditional means."""

import math

import numpy as np
import pytest

from folnerlab.groups import CyclicSum, FinSet, ZPower, ZSum
from folnerlab.systems import (
    BernoulliBatch,
    BernoulliShift,
    FiniteMixture,
    System,
    TorusRotation,
    UnsupportedObservable,
    conditional_expectation,
    indicator_symbol,
    make_batch,
    neg_pow_run,
    observable_from_json,
    scaled,
    split_leaves,
    symbol_value,
    torus_coordinate,
)
from folnerlab.tiling import window_set

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


# ---------------------------------------------------------------------------
# group action laws


@pytest.mark.parametrize("make", [_bernoulli, _torus, _mixture])
def test_action_composes(make):
    system = make()
    rng = np.random.default_rng(11)
    grp = ZPower(1)
    y = system.sample_point(rng)
    for g, h in [((2,), (5,)), ((-3,), (4,)), ((7,), (-7,))]:
        lhs = system.apply(grp.mul(g, h), y)
        rhs = system.apply(g, system.apply(h, y))
        assert lhs == rhs


@pytest.mark.parametrize("make", [_bernoulli, _torus, _mixture])
def test_identity_acts_trivially(make):
    system = make()
    y = system.sample_point(np.random.default_rng(4))
    assert system.apply((0,), y) == y


def test_action_on_lattice():
    system = _bernoulli(d=2)
    grp = ZPower(2)
    y = system.sample_point(np.random.default_rng(1))
    assert system.apply(grp.mul((1, 2), (3, -1)), y) == system.apply(
        (1, 2), system.apply((3, -1), y)
    )


# ---------------------------------------------------------------------------
# vectorized windows agree with the scalar path bit for bit


def test_bernoulli_window_bit_identical():
    system = _bernoulli()
    rng = np.random.default_rng(8)
    pts = [system.sample_point(rng) for _ in range(5)]
    batch = make_batch(system, pts)
    assert isinstance(batch, BernoulliBatch)
    F = _box(system.group, 7)
    obs = indicator_symbol(1)
    mat = obs.window_values(system, batch, F)
    assert mat.shape == (5, 7)
    for r, y in enumerate(pts):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs.value(system, system.apply(g, y))


def test_neg_pow_run_window_bit_identical():
    system = _bernoulli(probs=(0.4, 0.6))
    rng = np.random.default_rng(9)
    pts = [system.sample_point(rng) for _ in range(4)]
    batch = make_batch(system, pts)
    F = _box(system.group, 9)
    obs = neg_pow_run(2.0, cap=12)
    mat = obs.window_values(system, batch, F)
    for r, y in enumerate(pts):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs.value(system, system.apply(g, y))


def test_torus_window_matches_scalar():
    system = _torus()
    rng = np.random.default_rng(10)
    pts = [system.sample_point(rng) for _ in range(4)]
    batch = make_batch(system, pts)
    F = _box(system.group, 6)
    obs = torus_coordinate(0)
    mat = obs.window_values(system, batch, F)
    expect = np.array(
        [[obs.value(system, system.apply(g, y)) for g in F.elems] for y in pts]
    )
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
    # together and match the scalar path bit for bit
    system = BernoulliShift(grp, (0.4, 0.6), seed=5)
    obs = {"indicator_symbol": indicator_symbol(1), "symbol_value": symbol_value(),
           "neg_pow_run": neg_pow_run(2.0, cap=12)}[name]
    rng = np.random.default_rng(3)
    y, z = system.sample_point(rng), system.sample_point(rng)
    pts = [y, z] + [system.apply(g, p) for g in _MOVES[grp.kind] for p in (y, z)]
    batch = make_batch(system, pts)
    assert isinstance(batch, BernoulliBatch)
    F = (FinSet(grp, window) if window
         else window_set(grp, 4 if grp.kind == "z_power" else 1))
    mat = obs.window_values(system, batch, F)
    assert mat.shape == (len(pts), len(F))
    for r, p in enumerate(pts):
        for c, g in enumerate(F.elems):
            assert mat[r, c] == obs.value(system, system.apply(g, p))


# ---------------------------------------------------------------------------
# stationarity


def test_bernoulli_marginals_match_probs():
    system = _bernoulli(probs=(0.7, 0.3))
    rng = np.random.default_rng(21)
    n = 4000
    pts = [system.sample_point(rng) for _ in range(n)]
    obs = indicator_symbol(1)
    vals = np.array([obs.value(system, y) for y in pts])
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(vals.mean() - 0.3) <= 4 * sigma


def test_translation_preserves_marginals():
    # the law of the symbol at the origin is unchanged by a large shift
    system = _bernoulli(probs=(0.7, 0.3))
    rng = np.random.default_rng(22)
    n = 4000
    pts = [system.sample_point(rng) for _ in range(n)]
    obs = indicator_symbol(1)
    shifted = np.array([obs.value(system, system.apply((137,), y)) for y in pts])
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(shifted.mean() - 0.3) <= 4 * sigma


def test_mixture_component_frequencies():
    system = _mixture()
    rng = np.random.default_rng(23)
    n = 2000
    pts = [system.sample_point(rng) for _ in range(n)]
    frac = sum(1 for y in pts if y.component == 0) / n
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


def test_conditional_expectation_is_exact_on_single_leaves():
    bern = _bernoulli()
    ce = conditional_expectation(bern, indicator_symbol(1))
    y = bern.sample_point(np.random.default_rng(0))
    assert ce.value(bern, y) == 0.3
    tor = _torus()
    ce = conditional_expectation(tor, torus_coordinate(0))
    ty = tor.sample_point(np.random.default_rng(0))
    assert ce.value(tor, ty) == 0.5


def test_conditional_expectation_splits_mixture_by_component():
    system = FiniteMixture(
        [(0.5, _bernoulli(probs=(0.75, 0.25))), (0.5, _bernoulli(probs=(0.25, 0.75)))],
        seed=3,
    )
    ce = conditional_expectation(system, indicator_symbol(1))
    rng = np.random.default_rng(6)
    pts = [system.sample_point(rng) for _ in range(50)]
    assert {y.component for y in pts} == {0, 1}
    for y in pts:
        assert ce.value(system, y) == (0.25 if y.component == 0 else 0.75)


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
    pts = [system.sample_point(rng) for _ in range(60)]
    parts = split_leaves(system, pts)
    seen = np.concatenate([idx for _, idx, _ in parts])
    assert sorted(seen.tolist()) == list(range(60))
    for leaf, idx, batch in parts:
        assert not isinstance(leaf, FiniteMixture)
        assert len(idx) > 0


def test_split_leaves_trivial_on_plain_system():
    system = _bernoulli()
    pts = [system.sample_point(np.random.default_rng(i)) for i in range(3)]
    [(leaf, idx, _)] = split_leaves(system, pts)
    assert leaf is system
    assert idx.tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# unsupported pairings


def test_unsupported_observable_errors():
    bern = _bernoulli()
    tor = _torus()
    by = bern.sample_point(np.random.default_rng(0))
    ty = tor.sample_point(np.random.default_rng(0))
    with pytest.raises(UnsupportedObservable):
        torus_coordinate(0).value(bern, by)
    with pytest.raises(UnsupportedObservable):
        indicator_symbol(1).value(tor, ty)


@pytest.mark.parametrize("symbol", [-1, 2])
def test_indicator_symbol_outside_alphabet_is_unsupported(symbol):
    # the scalar, window and exact-mean paths must agree: all refuse
    bern = _bernoulli()
    pts = [bern.sample_point(np.random.default_rng(0))]
    obs = indicator_symbol(symbol)
    with pytest.raises(UnsupportedObservable):
        obs.value(bern, pts[0])
    with pytest.raises(UnsupportedObservable):
        obs.window_values(bern, make_batch(bern, pts), _box(bern.group, 3))
    with pytest.raises(UnsupportedObservable):
        obs.exact_mean(bern)


def test_neg_pow_run_off_the_line_is_unsupported():
    # the scalar and window paths must agree: both refuse Z^2
    bern = _bernoulli(d=2)
    pts = [bern.sample_point(np.random.default_rng(0))]
    obs = neg_pow_run()
    with pytest.raises(UnsupportedObservable):
        obs.value(bern, pts[0])
    with pytest.raises(UnsupportedObservable):
        obs.window_values(bern, make_batch(bern, pts),
                          FinSet(bern.group, ((0, 0), (1, 0), (2, 0))))


# ---------------------------------------------------------------------------
# serialization


def test_system_json_roundtrip():
    for system in (_bernoulli(), _torus(), _mixture()):
        d = system.to_json()
        back = System.from_json(d)
        assert back.to_json() == d


def test_observable_json_roundtrip():
    bern = _bernoulli()
    tor = _torus()
    y = bern.sample_point(np.random.default_rng(2))
    ty = tor.sample_point(np.random.default_rng(2))
    for obs, system, pt in [
        (indicator_symbol(1), bern, y),
        (symbol_value(), bern, y),
        (scaled(symbol_value(), 3.0), bern, y),
        (neg_pow_run(2.0, cap=12), bern, y),
        (torus_coordinate(0), tor, ty),
    ]:
        back = observable_from_json(obs.to_json())
        assert back.name == obs.name
        assert back.value(system, pt) == obs.value(system, pt)


def test_sampling_is_deterministic_given_rng_seed():
    system = _mixture()
    a = [system.sample_point(np.random.default_rng(5)) for _ in range(3)]
    b = [system.sample_point(np.random.default_rng(5)) for _ in range(3)]
    assert a == b
