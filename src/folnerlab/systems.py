"""Measure-preserving systems over the supported groups.

Points are small frozen records and the action law is exact by construction:

* ``BernoulliShift`` stores a per-sample 64-bit configuration key; the symbol
  at cell h for point (offset, cfg) is a keyed hash of h*offset, so
  symbol(h, g.y) == symbol(h*g, y) holds identically and fresh samples are
  i.i.d. product draws.
* ``TorusRotation`` keeps the accumulated integer step vector and evaluates
  coordinates lazily, so composing actions is exact integer arithmetic.
* ``FiniteMixture`` draws a component per sample and delegates.

Observables are evaluated only on "windows": over every translate of a
finite set, for a batch of sample points.  Every leaf batch takes them: a
Bernoulli batch carries one offset per point, so translated points (as in
the greedy covering and the classifier's invariance check) batch with the
rest.  A symbol is read from the hashed 64-bit word by integer cut points
that reproduce the float rule ``bisect_right(cum, uniform)`` exactly; the
tests hold that rule, cell by cell, in a scalar oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._bits import GOLDEN64, TWO_NEG_64, mix64, uniform_from_key, words_from_keys
from ._config import (_INT, _NONNEG_INT, _NUM, _NUMS, _OBJ, _OBJS, _get,
                      _kind)
from .groups import FinSet, Group, ZPower, _box


class UnsupportedObservable(ValueError):
    """Observable/system pairing that the library cannot evaluate."""


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class ShiftPoint:
    offset: tuple
    cfg: int


@dataclass(frozen=True)
class TorusPoint:
    base: tuple
    steps: tuple


@dataclass(frozen=True)
class MixturePoint:
    component: int
    inner: object


# ---------------------------------------------------------------------------
# Batches (leaf-level, used by the vectorized family paths)


@dataclass
class BernoulliBatch:
    cfgs: np.ndarray  # uint64, one per point
    offsets: list  # group element, one per point

    def __len__(self):
        return len(self.cfgs)

    def slice(self, sl):
        return BernoulliBatch(self.cfgs[sl], self.offsets[sl])


@dataclass
class TorusBatch:
    bases: np.ndarray  # (P, d) float64
    steps: np.ndarray  # (P, d) int64

    def __len__(self):
        return self.bases.shape[0]

    def slice(self, sl):
        return TorusBatch(self.bases[sl], self.steps[sl])


class GenericBatch:
    """Never built; the name stays for ``bench/tracer.py``, which counts the
    window cells of batches of this type."""


# ---------------------------------------------------------------------------
# Systems


class System:
    """Base class: each system gives ``sample_point(rng)`` and the exact
    action ``apply(g, y)``."""

    group: Group
    seed: int
    ergodic: bool

    def components(self):
        """Flattened list of (weight, leaf system)."""
        return [(1.0, self)]

    @staticmethod
    def from_json(d: dict, group: Optional[Group] = None) -> "System":
        return _kind(d, _SYSTEM_KINDS)(d, group)


def _word_cut(c: float) -> int:
    """The smallest 64-bit word w whose uniform w * 2**-64 is >= c, or 2**64
    when there is none.  The uniform is monotone in w (rounding to float is),
    so a word reaches the cut exactly when its uniform reaches c."""
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * TWO_NEG_64 >= c:
            hi = mid
        else:
            lo = mid + 1
    return lo


class BernoulliShift(System):
    def __init__(self, group: Group, probs: Sequence[float], seed: int = 0):
        probs = tuple(float(p) for p in probs)
        if len(probs) < 1 or any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probs must be non-negative and sum to 1")
        self.group = group
        self.probs = probs
        self.seed = int(seed)
        self.ergodic = True
        cum = []
        acc = 0.0
        for p in probs:
            acc += p
            cum.append(acc)
        cum[-1] = 1.0
        self.cum = tuple(cum)
        # symbol k+1 starts at word cut k; none for cum[-1], so the words that
        # round to the uniform 1.0 read as the last symbol
        cuts = [_word_cut(c) for c in cum[:-1]]
        self._cuts = np.asarray([t for t in cuts if t < 1 << 64], dtype=np.uint64)

    def sample_point(self, rng) -> ShiftPoint:
        word = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        cfg = mix64(mix64(self.seed ^ GOLDEN64) ^ word)
        return ShiftPoint(self.group.identity(), cfg)

    def apply(self, g, y: ShiftPoint) -> ShiftPoint:
        return ShiftPoint(self.group.mul(g, y.offset), y.cfg)

    def uniform_at(self, y: ShiftPoint, h=None) -> float:
        """The uniform of the one cell h*offset (offset when h is None): the
        scalar reading of ``window_uniforms``, which the tests' oracle uses."""
        cell = y.offset if h is None else self.group.mul(h, y.offset)
        return uniform_from_key(self.group.elem_key(cell), y.cfg)

    def window_uniforms(self, batch: BernoulliBatch, F: FinSet) -> np.ndarray:
        """The uniforms of the cells g*offset_p for g in F, as a (P, |F|)
        matrix of 64-bit fixed-point words: word w is the uniform w * 2**-64.

        The identity offset reads F's own cell keys, hashed once per set.
        Other cells are hashed once per distinct offset, and the keys are
        gathered per point only when the batch holds more than one offset."""
        grp = self.group
        index: dict = {}
        which = [index.setdefault(o, len(index)) for o in batch.offsets]
        offsets = list(index)
        if offsets == [grp.identity()]:
            return words_from_keys(F.cell_keys(), batch.cfgs)
        width = max(F.width, grp.dense_width(offsets))
        cells = grp.translate_rows(F.rows(width), grp.dense_rows(offsets, width))
        keys = grp.keys_for_rows(cells.reshape(-1, width))
        keys = keys.reshape(len(offsets), len(F))
        return words_from_keys(keys[0] if len(offsets) == 1 else keys[which],
                               batch.cfgs)

    def symbols(self, words: np.ndarray) -> np.ndarray:
        """The symbol of each word of ``window_uniforms``: the number of word
        cuts it reaches, one compare-and-add per cut.  Equal to the number of
        entries of cum[:-1] that the word's uniform reaches."""
        sym = np.zeros(words.shape, dtype=np.min_scalar_type(len(self.probs)))
        for t in self._cuts:
            sym += words >= t
        return sym


class TorusRotation(System):
    def __init__(self, group: Optional[ZPower], alphas: Sequence[float],
                 seed: int = 0):  # no group: Z^d, one coordinate per frequency
        alphas = tuple(float(a) for a in alphas)
        group = ZPower(len(alphas)) if group is None else group
        if not isinstance(group, ZPower) or len(alphas) != group.d:
            raise ValueError("torus rotation needs one frequency per Z^d coordinate")
        if any(not 0.0 < a < 1.0 for a in alphas):
            raise ValueError("frequencies must lie in (0, 1)")
        self.group = group
        self.alphas = alphas
        self.seed = int(seed)
        self.ergodic = True  # irrational frequencies assumed (default sqrt(2)-1)

    def sample_point(self, rng) -> TorusPoint:
        base = tuple(float(x) for x in rng.random(self.group.d))
        return TorusPoint(base, (0,) * self.group.d)

    def apply(self, g, y: TorusPoint) -> TorusPoint:
        return TorusPoint(y.base, tuple(s + x for s, x in zip(y.steps, g)))


class FiniteMixture(System):
    def __init__(self, components, seed: int = 0):
        if not components:
            raise ValueError("mixture needs at least one component")
        w = [float(c[0]) for c in components]
        if any(x < 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        g0 = components[0][1].group
        for _, s in components[1:]:
            if s.group != g0:
                raise ValueError("mixture components must share the group")
        self.group = g0
        self.parts = [(float(wi), si) for wi, si in components]
        self.seed = int(seed)
        self.ergodic = len(components) == 1 and components[0][1].ergodic

    def sample_point(self, rng) -> MixturePoint:
        u = float(rng.random())
        acc = 0.0
        idx = len(self.parts) - 1
        for i, (w, _) in enumerate(self.parts):
            acc += w
            if u < acc:
                idx = i
                break
        return MixturePoint(idx, self.parts[idx][1].sample_point(rng))

    def apply(self, g, y: MixturePoint) -> MixturePoint:
        return MixturePoint(y.component, self.parts[y.component][1].apply(g, y.inner))

    def components(self):
        out = []
        for w, s in self.parts:
            for wi, leaf in s.components():
                out.append((w * wi, leaf))
        return out


_SYSTEM_KINDS = {
    "bernoulli": lambda d, g: BernoulliShift(
        Group.from_json(_get(d, "group", ..., *_OBJ)) if g is None else g,
        _get(d, "probs", ..., *_NUMS), _get(d, "seed", 0, *_INT)),
    "torus": lambda d, g: TorusRotation(
        g, _get(d, "alphas", ..., *_NUMS), _get(d, "seed", 0, *_INT)),
    "mixture": lambda d, g: FiniteMixture(
        [(_get(c, "weight", ..., *_NUM),
          System.from_json(_get(c, "system", ..., *_OBJ), g))
         for c in _get(d, "components", ..., *_OBJS)],
        _get(d, "seed", 0, *_INT)),
}


def split_leaves(system: System, points: list):
    """Group points by leaf component: list of (leaf system, index array, batch)."""
    if not isinstance(system, FiniteMixture):
        idx = np.arange(len(points))
        return [(system, idx, make_batch(system, points))]
    buckets = {}
    for i, y in enumerate(points):
        buckets.setdefault(y.component, []).append(i)
    out = []
    for comp in sorted(buckets):
        idx = buckets[comp]
        inner_pts = [points[i].inner for i in idx]
        sub = split_leaves(system.parts[comp][1], inner_pts)
        for leaf, sub_idx, batch in sub:
            out.append((leaf, np.asarray([idx[j] for j in sub_idx]), batch))
    return out


def make_batch(leaf: System, points: list):
    if isinstance(leaf, BernoulliShift):
        return BernoulliBatch(np.asarray([y.cfg for y in points], dtype=np.uint64),
                              [y.offset for y in points])
    bases = np.asarray([y.base for y in points], dtype=np.float64)
    steps = np.asarray([y.steps for y in points], dtype=np.int64)
    return TorusBatch(bases.reshape(len(points), leaf.group.d),
                      steps.reshape(len(points), leaf.group.d))


# ---------------------------------------------------------------------------
# Observables


@dataclass(frozen=True)
class Observable:
    name: str
    window_fn: Callable
    exact_mean_fn: Optional[Callable] = None
    bound: Optional[float] = None
    nonneg: bool = False
    integer_valued: bool = False

    def window_values(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        """Matrix of f(g . y_p) for g in F (columns follow F's order)."""
        return self.window_fn(leaf, batch, F)

    def exact_mean(self, leaf: System) -> Optional[float]:
        if self.exact_mean_fn is None:
            return None
        return self.exact_mean_fn(leaf)


def _require_bernoulli(leaf, name, symbol=None):
    if not isinstance(leaf, BernoulliShift):
        raise UnsupportedObservable(f"{name} needs a Bernoulli shift")
    if symbol is not None and not 0 <= symbol < len(leaf.probs):
        raise UnsupportedObservable(f"{name}: symbol {symbol} is outside the "
                                    f"{len(leaf.probs)}-symbol alphabet")


def indicator_symbol(symbol: int = 1) -> Observable:
    """f(y) = 1 when the symbol at the identity cell equals ``symbol``."""

    def window_fn(leaf, batch, F):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        return (leaf.symbols(leaf.window_uniforms(batch, F)) == symbol).astype(np.float64)

    def exact_mean_fn(leaf):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        return leaf.probs[symbol]

    return Observable(
        name=f"indicator_symbol[{symbol}]",
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        bound=1.0,
        nonneg=True,
        integer_valued=True,
    )


def symbol_value() -> Observable:
    """f(y) = the symbol at the identity cell, as a float."""

    def window_fn(leaf, batch, F):
        _require_bernoulli(leaf, "symbol_value")
        return leaf.symbols(leaf.window_uniforms(batch, F)).astype(np.float64)

    def exact_mean_fn(leaf):
        _require_bernoulli(leaf, "symbol_value")
        return sum(i * p for i, p in enumerate(leaf.probs))

    return Observable(
        name="symbol_value",
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        nonneg=True,
        integer_valued=True,
    )


def scaled(base: Observable, c: float) -> Observable:
    c = float(c)

    def window_fn(leaf, batch, F):
        return c * base.window_values(leaf, batch, F)

    def exact_mean_fn(leaf):
        m = base.exact_mean(leaf)
        return None if m is None else c * m

    return Observable(
        name=f"scaled[{c}]({base.name})",
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        bound=None if base.bound is None else abs(c) * base.bound,
        nonneg=base.nonneg and c >= 0,
        integer_valued=base.integer_valued and c == int(c),
    )


def torus_coordinate(i: int = 0) -> Observable:
    def _require_torus(leaf):
        if not isinstance(leaf, TorusRotation):
            raise UnsupportedObservable("torus_coordinate needs a torus rotation")
        if not 0 <= i < leaf.group.d:
            raise UnsupportedObservable(f"torus_coordinate: index {i} is outside "
                                        f"the {leaf.group.d}-coordinate torus")

    def window_fn(leaf, batch, F):
        _require_torus(leaf)
        rows = F.rows()
        v = (batch.bases[:, i][:, None]
             + (batch.steps[:, i][:, None] + rows[None, :, i]) * leaf.alphas[i])
        return v - np.floor(v)

    return Observable(
        name=f"torus_coordinate[{i}]",
        window_fn=window_fn,
        exact_mean_fn=lambda leaf: 0.5,
        bound=1.0,
        nonneg=True,
    )


def neg_pow_run(base: float = 2.0, cap: int = 40) -> Observable:
    """f(y) = -base**(run length of consecutive 1-symbols starting at cell 0).

    Defined on Bernoulli shifts over Z.  The run is capped (run lengths past
    the cap have probability ~2^-cap at desk scale) so float values stay
    exact; the uncapped expectation is -infinity for symbol probabilities
    >= 1/base.  ``ValueError`` when base**cap is not a finite float.
    """
    base = float(base)
    try:
        finite = np.isfinite(base ** cap)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"neg_pow_run: base**cap = {base}**{cap} is not a finite float")

    def _require_line(leaf):
        _require_bernoulli(leaf, "neg_pow_run")
        if not isinstance(leaf.group, ZPower) or leaf.group.d != 1:
            raise UnsupportedObservable("neg_pow_run needs a Bernoulli shift on Z")

    def window_fn(leaf, batch, F):
        # runs over the cells [min F, max F + cap], then F's columns
        _require_line(leaf)
        cols = F.rows()[:, 0]
        lo, hi = (int(cols.min()), int(cols.max())) if len(cols) else (0, 0)
        ext = _box(leaf.group, [range(lo, hi + cap + 1)])
        one = leaf.symbols(leaf.window_uniforms(batch, ext)) == 1
        pos = np.arange(len(ext))
        # the run from cell j ends at the first cell >= j that is not a 1
        stop = np.where(one, len(ext), pos)
        run = np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1] - pos
        return -np.power(base, np.minimum(run[:, cols - lo], cap))

    return Observable(
        name=f"neg_pow_run[{base},{cap}]",
        window_fn=window_fn,
        nonneg=False,
    )


def observable_from_json(d: dict) -> Observable:
    return _kind(d, _OBSERVABLE_KINDS)(d)


_OBSERVABLE_KINDS = {
    "indicator_symbol": lambda d: indicator_symbol(_get(d, "symbol", 1, *_INT)),
    "symbol_value": lambda d: symbol_value(),
    "scaled": lambda d: scaled(observable_from_json(_get(d, "base", ..., *_OBJ)),
                               _get(d, "c", ..., *_NUM)),
    "torus_coordinate": lambda d: torus_coordinate(
        _get(d, "index", 0, *_NONNEG_INT)),
    "neg_pow_run": lambda d: neg_pow_run(_get(d, "base", 2.0, *_NUM),
                                         _get(d, "cap", 40, *_NONNEG_INT)),
}


# ---------------------------------------------------------------------------
# Conditional expectation (constant on each ergodic component)


@dataclass(frozen=True)
class CondExp:
    components: tuple  # (weight, leaf id, mean, stderr)
    leaf_means: dict  # leaf id -> mean

    @property
    def mean(self) -> float:
        return sum(w * m for w, _, m, _ in self.components)


def conditional_expectation(system: System, obs: Observable,
                            samples: int = 4000, seed: int = 7) -> CondExp:
    """Per-component expectation of an observable; exact when the observable
    declares a closed form, Monte Carlo otherwise."""
    comps = []
    leaf_means = {}
    for k, (w, leaf) in enumerate(system.components()):
        m = obs.exact_mean(leaf)
        se = 0.0
        if m is None:
            rng = np.random.default_rng([seed, k])
            batch = make_batch(leaf, [leaf.sample_point(rng) for _ in range(samples)])
            origin = FinSet(leaf.group, [leaf.group.identity()])
            vals = obs.window_values(leaf, batch, origin)[:, 0]
            m = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(samples))
        comps.append((w, id(leaf), float(m), se))
        leaf_means[id(leaf)] = float(m)
    return CondExp(tuple(comps), leaf_means)
