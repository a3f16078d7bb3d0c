"""The all-points substream draw is numpy's stream: the raw outputs and the
points of ``System.substream_points`` equal those of one
``np.random.default_rng([seed, i])`` per point, bit for bit, and so do the
draws of the one generator that ``trial_generators`` reseeds per trial.
This fails if numpy ever changes SeedSequence, PCG64 or the
``integers``/``random`` rules that the decoders reproduce."""

import math

import numpy as np
import pytest

from folnerlab._bits import pcg64_outputs, trial_generators
from folnerlab.families import AdditiveFamily, classify
from folnerlab.groups import CyclicSum, ZPower, ZSum
from folnerlab.systems import (BernoulliShift, FiniteMixture, TorusRotation,
                               indicator_symbol)

ALPHA = (math.sqrt(5) - 1) / 2

# 2**100 + 3 has more 32-bit entropy words than SeedSequence's 4-word pool;
# 2**32 + 3 is an index of two words
SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 3]
INDICES = list(range(300)) + [10_000, 2 ** 32 - 1, 2 ** 32 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_are_numpys(seed):
    got = pcg64_outputs(seed, np.array(INDICES, dtype=np.uint64), 4)
    want = np.array([np.random.default_rng([seed, i]).bit_generator.random_raw(4)
                     for i in INDICES], dtype=np.uint64)
    assert got.dtype == np.uint64 and got.shape == (len(INDICES), 4)
    assert np.array_equal(got, want)


def _trial_draws(rng):
    # a 64-bit draw, then integers(0, 2), which keeps the other 32-bit half
    # of its output buffered: a buffer carried into the next trial would
    # shift that trial's 32-bit draws
    return (int(rng.integers(0, 2 ** 64, dtype=np.uint64)), int(rng.integers(0, 2)),
            int(rng.integers(0, 5)), rng.choice(7, size=3, replace=False).tolist(),
            rng.random())


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_generators_draw_the_trial_streams(seed):
    got = [_trial_draws(rng) for rng in trial_generators(seed, INDICES)]
    want = [_trial_draws(np.random.default_rng([seed, i])) for i in INDICES]
    assert got == want


def test_trial_generators_cover_no_trials():
    assert list(trial_generators(3, range(0))) == []
    grp = ZPower(1)
    rep = classify(AdditiveFamily(indicator_symbol(1)), grp,
                   BernoulliShift(grp, (0.5, 0.5)), trials=0)
    assert all(v.passed and v.trials == 0 and v.max_gap == 0.0
               and v.counterexample is None for v in rep.verdicts.values())


def test_negative_seed_is_refused_as_numpy_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        pcg64_outputs(-1, np.arange(3), 2)


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
    want = system.sample(np.random.default_rng([seed, i]) for i in idx)
    for f in ("leaf", "offsets", "cfgs", "bases"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and a.shape == b.shape, f
        assert np.array_equal(a, b), f
