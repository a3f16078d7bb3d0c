"""The scalar rules of observables and families, one point at a time: the
oracle that the window and batch paths of ``folnerlab`` are checked
against, as ``TupleRef`` in ``test_groups.py`` is for the set algebra.
Points drawn from numpy generators are here too (``sample``), and so are
the classifiers' trial draws, one numpy generator per trial:
trial t of ``classify`` and ``setfn_classify`` draws what
``classify_draws`` and ``setfn_classify_draws`` draw from
``np.random.default_rng([seed, t])``.

Each rule follows the definition alone, at one point ``y``: a one-point
``Points``, moved by one group element at a time.  A Bernoulli symbol is the
number of entries of cum[:-1] that its cell's uniform reaches, a torus
coordinate is the fractional part of base + offset * alpha, and a family
value is the sum, maximum or composition that its class docstring states,
with the elements of F visited in F's order and the empty set read as 0.
"""
import re
from bisect import bisect_right

import numpy as np

from folnerlab.families import (AdditiveFamily, AdditivePlus,
                                ConcaveCardinality, DerivedPrime,
                                DerivedPrimeM, MaxFamily, MaxOfAdditives,
                                MinusCardSquared, Truncated)
from folnerlab._bits import GOLDEN64, mix64
from folnerlab.groups import CyclicSum, FinSet, ZPower
from folnerlab.systems import BernoulliShift, TorusRotation
from folnerlab.tiling import compose, window_set


def act(system, g, y):
    """The point g . y, for a group element g."""
    return y.moved(system.group, system.group.dense_rows([g]))


def symbol(leaf, y, h=None) -> int:
    """The symbol at cell h (the identity when None) of a Bernoulli point."""
    return bisect_right(leaf.cum, leaf.uniform_at(y, h), 0, len(leaf.cum) - 1)


def coordinate(leaf, y, i: int) -> float:
    v = y.bases[0, i] + y.offsets[0, i] * leaf.alphas[i]
    return v - np.floor(v)


def _indicator(symbol_):
    return lambda leaf, y: 1.0 if symbol(leaf, y) == symbol_ else 0.0


def _scaled(c, base):
    return lambda leaf, y: c * base(leaf, y)


def _neg_pow_run(base, cap):
    def rule(leaf, y):
        r = 0
        while r < cap and symbol(leaf, y, (r,)) == 1:
            r += 1
        return -base ** r
    return rule


# observable name pattern -> rule; the builders of folnerlab.systems write
# each parameter into the name
_RULES = (
    (r"indicator_symbol\[(-?\d+)\]", lambda m: _indicator(int(m[1]))),
    (r"symbol_value", lambda m: lambda leaf, y: float(symbol(leaf, y))),
    (r"scaled\[([^\]]+)\]\((.*)\)", lambda m: _scaled(float(m[1]), observable_rule(m[2]))),
    (r"torus_coordinate\[(\d+)\]",
     lambda m: lambda leaf, y: float(coordinate(leaf, y, int(m[1])))),
    (r"neg_pow_run\[([^,]+),(\d+)\]", lambda m: _neg_pow_run(float(m[1]), int(m[2]))),
)


def observable_rule(name: str):
    """The scalar rule f(leaf, y) of the observable called ``name``."""
    for pattern, build in _RULES:
        m = re.fullmatch(pattern, name)
        if m:
            return build(m)
    raise KeyError(f"no scalar rule for observable {name!r}")


def obs_value(obs, system, y) -> float:
    """f(y) at a point of any system, mixtures included."""
    leaf = system.components()[int(y.leaf[0])][1]
    return observable_rule(obs.name)(leaf, y)


def family_value(fam, system, F: FinSet, y) -> float:
    """d_F(y) by the scalar rule of the family's kind; 0 on the empty set."""
    return 0.0 if F.is_empty else _value(fam, system, F, y)


def _value(fam, system, F, y):
    if isinstance(fam, AdditiveFamily):
        return float(sum(obs_value(fam.obs, system, act(system, g, y)) for g in F.elems))
    if isinstance(fam, MaxFamily):
        return float(max(obs_value(fam.obs, system, act(system, g, y)) for g in F.elems))
    if isinstance(fam, ConcaveCardinality):
        return float(fam.gamma(len(F)))
    if isinstance(fam, AdditivePlus):
        return _value(fam.inner, system, F, y) + fam.beta * float(fam.gamma(len(F)))
    if isinstance(fam, MaxOfAdditives):
        return max(_value(fam.a, system, F, y), _value(fam.b, system, F, y))
    if isinstance(fam, Truncated):
        return max(-fam.N * len(F), _value(fam.base, system, F, y))
    if isinstance(fam, DerivedPrime):
        e = FinSet(F.group, [F.group.identity()])
        s = sum(_value(fam.base, system, e, act(system, g, y)) for g in F.elems)
        return float(s) - _value(fam.base, system, F, y)
    if isinstance(fam, DerivedPrimeM):
        s = _value(fam.prime, system, compose(fam.cert, F), y)
        for g in F.elems:
            s -= _value(fam.prime, system, fam.cert.tile,
                        act(system, fam.cert.iso.apply(g), y))
        return s
    if isinstance(fam, MinusCardSquared):
        return _value(fam.base, system, F, y) - float(len(F)) ** 2
    raise TypeError(f"no scalar rule for family {fam.name!r}")


def canon(group, pairs) -> tuple:
    """The element of a direct sum with these (index, value) pairs: values
    reduced, zeros dropped, a later nonzero value replacing an earlier one."""
    d = {}
    for i, v in pairs:
        i = int(i)
        if i < 0:
            raise ValueError("support indices must be >= 0")
        v = group._reduce(i, int(v))
        if v != 0:
            d[i] = v
    return tuple(sorted(d.items()))


def _random_pair(group, rng, span: int) -> tuple:
    if isinstance(group, CyclicSum):
        i = int(rng.integers(0, span + 1))
        return i, int(rng.integers(0, group.period(i)))
    return int(rng.integers(0, 4)), int(rng.integers(-span, span + 1))


def random_elem(group, rng, span: int = 3):
    """A random element: d coordinates in [-span, span] on Z^d; on a direct
    sum, 0 to 2 pairs of ``_random_pair``."""
    if isinstance(group, ZPower):
        return tuple(int(x) for x in rng.integers(-span, span + 1, size=group.d))
    return canon(group, [_random_pair(group, rng, span)
                         for _ in range(int(rng.integers(0, 3)))])


def _random_positions(rng, n: int, max_card: int) -> np.ndarray:
    """Positions of a random subset of 1..max_card of n ground elements."""
    k = min(int(rng.integers(1, max_card + 1)), n)
    return rng.choice(n, size=k, replace=False)


def trial_generators(seed: int, idx):
    """Trial i's generator, ``np.random.default_rng([seed, i])``, for each i of ``idx``."""
    return (np.random.default_rng([seed, i]) for i in idx)


def _draw(system, rng) -> tuple:
    """(leaf index, configuration key, base point or None) of one point drawn
    from ``rng``: a Bernoulli key mixes a 64-bit word, integers(0, 2**63)
    with integers(0, 2) as its top bit; a torus base is ``random(d)``; a
    mixture's ``random()`` picks the part, which draws the rest."""
    if isinstance(system, BernoulliShift):
        word = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        return 0, mix64(mix64(system.seed ^ GOLDEN64) ^ word), None
    if isinstance(system, TorusRotation):
        return 0, 0, rng.random(system.group.d)
    idx = int(system._part(rng.random()))
    k, cfg, base = _draw(system.parts[idx][1], rng)
    return system._first[idx] + k, cfg, base


def sample(system, rngs):
    """One point from each generator of the iterable ``rngs``, in order: the
    draw that ``System.substream_points`` reproduces for the generators
    ``np.random.default_rng([seed, i])``."""
    draws = [_draw(system, rng) for rng in rngs]
    pad = (0.0,) * system._dim()
    return system._points([k for k, _, _ in draws], [c for _, c, _ in draws],
                          [pad if b is None else b for _, _, b in draws])


def classify_draws(group, system, trials: int, max_card: int, seed: int) -> tuple:
    """(picks, gs, points): each trial's E and F positions in the ground,
    its g and its point, as ``classify`` draws them."""
    ground, picks, gs, rngs = window_set(group, 2, 3), [], [], []
    for rng in trial_generators(seed, range(trials)):
        picks.append([_random_positions(rng, len(ground), max_card) for _ in "EF"])
        gs.append(random_elem(group, rng, 2))
        rngs.append(rng)
    return picks, gs, sample(system, rngs)


def setfn_classify_draws(group, seed: int) -> tuple:
    """(picks, gs): each trial's E and F positions in the ground and its g,
    as ``setfn_classify`` draws them."""
    ground, picks, gs = window_set(group, 3, 3), [], []
    for rng in trial_generators(seed, range(200)):
        ks = [min(int(rng.integers(1, 7)), len(ground)) for _ in "EF"]
        picks.append([rng.choice(len(ground), k, replace=False) for k in ks])
        gs.append(random_elem(group, rng, 3))
    return picks, gs
