"""The many-stream draw is numpy's stream: the raw outputs, 32-bit halves,
bounded integers and ``choice`` of ``_bits._Streams``, the points of
``System.substream_points`` and the trial draws of both classifiers equal
those of one ``np.random.default_rng([seed, i])`` per stream, bit for bit.
This fails if numpy ever changes SeedSequence, PCG64 or the
``integers``/``choice``/``random`` rules that the stream draws reproduce."""

import math
from unittest import mock

import numpy as np
import pytest

from folnerlab import ergodic, families
from folnerlab._bits import _Streams
from folnerlab.ergodic import setfn_classify, setfn_registry
from folnerlab.families import AdditiveFamily, ConcaveCardinality, classify
from folnerlab.groups import CyclicSum, ZPower, ZSum
from folnerlab.systems import (BernoulliShift, FiniteMixture, TorusRotation, _doubles,
                               indicator_symbol)
from scalar_oracle import classify_draws, sample, setfn_classify_draws, trial_generators

ALPHA = (math.sqrt(5) - 1) / 2

# 2**100 + 3 has more 32-bit entropy words than SeedSequence's 4-word pool;
# 2**32 + 3 is an index of two words
SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 3]
INDICES = list(range(300)) + [10_000, 2 ** 32 - 1, 2 ** 32 + 3]


def _streams(seed, block=3):
    # a short block, so that every test adds blocks of raw outputs
    return _Streams(seed, np.array(INDICES, dtype=np.uint64), block)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_are_numpys(seed):
    streams = _streams(seed)
    got = np.stack([streams.next64(streams.all) for _ in range(4)], axis=1)
    want = np.array([np.random.default_rng([seed, i]).bit_generator.random_raw(4)
                     for i in INDICES], dtype=np.uint64)
    assert got.dtype == np.uint64 and got.shape == (len(INDICES), 4)
    assert np.array_equal(got, want)


def _draws(rng):
    # a 64-bit draw, then integers(0, 2), which keeps the other 32-bit half
    # of its output buffered for integers(0, 5); a 64-bit random() between
    # them leaves that half alone
    return (int(rng.integers(0, 2 ** 64, dtype=np.uint64)), int(rng.integers(0, 2)),
            rng.random(), int(rng.integers(0, 5)), rng.choice(7, size=3, replace=False).tolist(),
            int(rng.integers(0, 2 ** 63)), rng.random())


def _stream_draws(streams, on):
    # _draws on the streams of the mask: integers(0, 2**63) is a raw output >> 1
    cols = (streams.next64(on), streams.bounded(1, on), _doubles(streams.next64(on)),
            streams.bounded(4, on), streams.choice(7, np.full(len(on), 3), on),
            streams.next64(on) >> np.uint64(1), _doubles(streams.next64(on)))
    return [(int(a), int(b), float(c), int(d), e.tolist(), int(f), float(g))
            for a, b, c, d, e, f, g in zip(*(x[on] for x in cols))]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_generators_draw_the_trial_streams(seed):
    # every stream, then only the even streams: the others must not move
    streams, even = _streams(seed), np.arange(len(INDICES)) % 2 == 0
    got = _stream_draws(streams, streams.all) + _stream_draws(streams, even)
    rngs = list(trial_generators(seed, INDICES))
    want = [_draws(r) for r in rngs] + [_draws(r) for r in rngs[::2]]
    assert got == want
    assert np.array_equal(streams.next64(streams.all),
                          [r.bit_generator.random_raw() for r in rngs])


def _bounded_equal(seed, ranges, rounds):
    """``bounded`` on ``ranges`` (one per stream, or shared) ``rounds`` times,
    against ``integers(0, r + 1)``, then one raw output each."""
    streams, rngs = _streams(seed), list(trial_generators(seed, INDICES))
    r = np.broadcast_to(np.asarray(ranges, dtype=np.uint64), (len(INDICES),))
    for _ in range(rounds):
        got = streams.bounded(r, streams.all)
        assert got.dtype == np.uint64
        assert got.tolist() == [int(g.integers(0, int(x) + 1)) for g, x in zip(rngs, r)]
    # the next raw output of each stream is its generator's
    assert np.array_equal(streams.next64(streams.all),
                          [g.bit_generator.random_raw() for g in rngs])


@pytest.mark.parametrize("r", [3 * 2 ** 30 - 1, 3 * 2 ** 61 - 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_redraws_the_streams_that_reject(seed, r):
    # a b-bit draw x (b = 32 or 64) rejects when its leftover x * (r + 1) mod
    # 2**b is below 2**b mod (r + 1), here 2**(b - 2): a quarter of them, and
    # some streams reject their first draw; 12 rounds take at least 6 raw
    # outputs, two blocks of 3
    bits = 32 if r < 2 ** 32 else 64
    first = [g.bit_generator.random_raw() % 2 ** bits for g in trial_generators(seed, INDICES)]
    rejects = [x * (r + 1) % 2 ** bits < 2 ** bits % (r + 1) for x in first]
    assert 2 ** bits % (r + 1) == 2 ** (bits - 2) and 0 < sum(rejects) < len(INDICES)
    _bounded_equal(seed, r, 12)


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_ranges_differ_by_stream(seed):
    # zero, small, 32-bit, the full 32-bit range and 64-bit ranges side by side
    pool = [0, 1, 4, 6, 124, 3 * 2 ** 30 - 1, 2 ** 32 - 1, 2 ** 32, 10 ** 12, 3 * 2 ** 61 - 1,
            2 ** 63 - 1]
    _bounded_equal(seed, [pool[i % len(pool)] for i in range(len(INDICES))], 5)


def test_bounded_draws_nothing_on_a_zero_range():
    streams = _streams(7)
    out = streams.bounded(0, streams.all)
    assert out.dtype == np.uint64 and not out.any()
    assert streams._raw.shape[1] == 0  # not one raw output computed
    _bounded_equal(7, 0, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_next64_keeps_the_buffered_half(seed):
    # next32 buffers the high half; next64 takes a new output and leaves it
    streams, rngs = _streams(seed), list(trial_generators(seed, INDICES))
    lo, raw, hi = (streams.next32(streams.all), streams.next64(streams.all),
                   streams.next32(streams.all))
    want = [(int(g.integers(0, 2 ** 32, dtype=np.uint64)), int(g.bit_generator.random_raw()),
             int(g.integers(0, 2 ** 32, dtype=np.uint64))) for g in rngs]
    assert list(zip(lo.tolist(), raw.tolist(), hi.tolist())) == want


@pytest.mark.parametrize("n, k", [(1, 1), (4, 4), (7, 3), (125, 6), (10_000, 300),
                                  (10_001, 200), (10_001, 201), (10_001, 900),
                                  (10_001, 10_001)])
def test_choice_is_numpys(n, k):
    # Floyd's algorithm and, past n = 10,000 with k > n // 50, the tail
    # shuffle; k differs by stream, so one call takes both branches
    seed, idx = 11, np.arange(40)
    streams, rngs = _Streams(seed, idx, 3), list(trial_generators(seed, idx))
    ks = np.maximum(k - idx % 3 * (k // 3), 1)
    got = streams.choice(n, ks, streams.all)
    assert got.shape == (len(idx), ks.max())
    for row, g, kk in zip(got, rngs, ks):
        assert np.array_equal(row[:kk], g.choice(n, size=int(kk), replace=False))
        assert (row[kk:] == -1).all()
    assert np.array_equal(streams.next64(streams.all),
                          [g.bit_generator.random_raw() for g in rngs])


def test_trial_generators_cover_no_trials():
    streams = _Streams(3, range(0))
    on = streams.all
    for draw in (streams.next64(on), streams.next32(on), streams.bounded(4, on)):
        assert draw.dtype == np.uint64 and draw.shape == (0,)
    assert streams.choice(5, np.zeros(0, dtype=np.int64), on).shape == (0, 0)
    grp = ZPower(1)
    rep = classify(AdditiveFamily(indicator_symbol(1)), grp,
                   BernoulliShift(grp, (0.5, 0.5)), trials=0)
    assert all(v.passed and v.trials == 0 and v.max_gap == 0.0
               and v.counterexample is None for v in rep.verdicts.values())


def test_negative_seed_is_refused_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _Streams(-1, np.arange(3))


def _systems(name):
    grp = {"zpower": ZPower(1), "cyclic": CyclicSum((2, 3)), "zsum": ZSum()}[name]
    b2 = BernoulliShift(grp, (0.7, 0.3), seed=5)
    b3 = BernoulliShift(grp, (0.6, 0.3, 0.1), seed=2 ** 40)
    mix = FiniteMixture([(0.3, b2), (0.7, b3)], seed=3)
    out = {
        "bernoulli-2": b2,
        "bernoulli-3": b3,
        "mixture-bernoulli": mix,
        "mixture-zero-weight": FiniteMixture([(0.0, b2), (1.0, b3)], seed=6),
        "mixture-nested": FiniteMixture([(0.5, b3), (0.5, mix)], seed=4),
    }
    if name == "zpower":
        torus = TorusRotation(grp, (ALPHA,), seed=2)
        out["torus-d1"] = torus
        out["torus-d2"] = TorusRotation(ZPower(2), (ALPHA, 0.3), seed=2)
        out["mixture-bernoulli-torus"] = FiniteMixture([(0.4, b3), (0.6, torus)], seed=7)
        out["mixture-nested-torus"] = FiniteMixture(
            [(0.5, torus), (0.5, FiniteMixture([(0.2, b2), (0.8, torus)]))], seed=8)
    return out


CASES = [(g, s) for g in ("zpower", "cyclic", "zsum") for s in _systems(g)]


@pytest.mark.parametrize("group, system", CASES, ids=[f"{s}-{g}" for g, s in CASES])
@pytest.mark.parametrize("seed", [0, 2 ** 64 + 5])
def test_substream_points_are_the_generators_points(group, system, seed):
    system = _systems(group)[system]
    idx = list(range(120)) + [10_000, 2 ** 32 + 3]
    got = system.substream_points(seed, np.array(idx, dtype=np.uint64))
    want = sample(system, (np.random.default_rng([seed, i]) for i in idx))
    for f in ("leaf", "offsets", "cfgs", "bases"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and a.shape == b.shape, f
        assert np.array_equal(a, b), f


_GROUPS = {"z1": ZPower(1), "z2": ZPower(2), "z3": ZPower(3), "cyclic": CyclicSum((2, 3)),
           "cyclic2": CyclicSum((2,)), "zsum": ZSum()}


def _trial_systems(name):
    """The systems of ``_systems`` on each classifier group: Bernoulli, torus
    (on Z^d) and mixtures; Z^2 and Z^3 take a torus of their own dimension."""
    grp = _GROUPS[name]
    if name in ("z1", "cyclic", "zsum"):
        return _systems({"z1": "zpower"}.get(name, name))
    b3 = BernoulliShift(grp, (0.6, 0.3, 0.1), seed=2 ** 40)
    out = {"bernoulli-3": b3,
           "mixture-bernoulli": FiniteMixture([(0.3, BernoulliShift(grp, (0.7, 0.3))),
                                               (0.7, b3)], seed=3)}
    if isinstance(grp, ZPower):
        torus = TorusRotation(grp, (ALPHA, 0.3, 0.7)[:grp.d], seed=2)
        out["torus"] = torus
        out["mixture-bernoulli-torus"] = FiniteMixture([(0.4, b3), (0.6, torus)], seed=7)
    return out


TRIAL_CASES = [(g, s) for g in _GROUPS for s in _trial_systems(g)]
TRIAL_SEEDS = [0, 1, 2, 3, 5, 8, 13, 2024, 2 ** 32 + 1, 2 ** 64 + 5]


def _classify_draws(group, system, **kw):
    """(picks, gs, points) that ``classify`` draws, read off the calls it makes."""
    with mock.patch.object(families, "_trial_masks", wraps=families._trial_masks) as masks, \
            mock.patch.object(families, "split_leaves", wraps=families.split_leaves) as split:
        classify(ConcaveCardinality(math.sqrt), group, system, properties=("nonnegative",),
                 **kw)
    _, _, picks, gs = masks.call_args.args
    return picks, gs, split.call_args_list[0].args[1]


def _same_draws(picks, gs, want_picks, want_gs):
    assert gs == want_gs
    assert len(picks[0]) == len(picks[1]) == len(want_picks)
    for t, want in enumerate(want_picks):
        for role, w in enumerate(want):
            row = picks[role][t]
            assert np.array_equal(row[row >= 0], w), (t, role)


def _same_points(got, want):
    for f in ("leaf", "offsets", "cfgs", "bases"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and a.shape == b.shape, f
        assert np.array_equal(a, b), f


@pytest.mark.parametrize("group, system", TRIAL_CASES, ids=[f"{s}-{g}" for g, s in TRIAL_CASES])
def test_classify_draws_are_the_oracles(group, system):
    # 60 trials at each of 10 seeds, and no trials; on the sum of Z/2s the
    # ground has 4 cells, so k = n often and Floyd's first range is 0
    grp, system = _GROUPS[group], _trial_systems(group)[system]
    for seed, trials in [(s, 60) for s in TRIAL_SEEDS] + [(4, 0)]:
        picks, gs, pts = _classify_draws(grp, system, trials=trials, seed=seed)
        want_picks, want_gs, want_pts = classify_draws(grp, system, trials, 6, seed)
        _same_draws(picks, gs, want_picks, want_gs)
        _same_points(pts, want_pts)


@pytest.mark.parametrize("max_card, seeds", [(400, [0, 1, 2]), (2 ** 40, [0, 7])])
def test_classify_draws_past_floyd_and_32_bits(max_card, seeds):
    # on Z^6 the ground has 15,625 cells, so a set of more than 312 takes
    # numpy's tail shuffle; a count range past 2**32 takes 64-bit draws
    grp = ZPower(6) if max_card == 400 else ZPower(1)
    system = BernoulliShift(grp, (0.7, 0.3), seed=5)
    longest = 0
    for seed in seeds:
        picks, gs, pts = _classify_draws(grp, system, trials=4, max_card=max_card, seed=seed)
        want_picks, want_gs, want_pts = classify_draws(grp, system, 4, max_card, seed)
        _same_draws(picks, gs, want_picks, want_gs)
        _same_points(pts, want_pts)
        longest = max([longest] + [len(p) for pair in want_picks for p in pair])
    assert longest > (312 if max_card == 400 else 4)


@pytest.mark.parametrize("group", list(_GROUPS))
def test_setfn_classify_draws_are_the_oracles(group):
    grp = _GROUPS[group]
    for seed in TRIAL_SEEDS:
        with mock.patch.object(ergodic, "_trial_masks", wraps=ergodic._trial_masks) as masks:
            setfn_classify(setfn_registry(grp)["card"], grp, seed)
        _, _, picks, gs = masks.call_args.args
        _same_draws(picks, gs, *setfn_classify_draws(grp, seed))
