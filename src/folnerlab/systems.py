"""Measure-preserving systems over the supported groups.

Points are small frozen records and the action law is exact by construction:

* ``BernoulliShift`` stores a per-sample 64-bit configuration key; the symbol
  at cell h for point (offset, cfg) is a keyed hash of h*offset, so
  symbol(h, g.y) == symbol(h*g, y) holds identically and fresh samples are
  i.i.d. product draws.
* ``TorusRotation`` keeps the accumulated integer step vector and evaluates
  coordinates lazily, so composing actions is exact integer arithmetic.
* ``FiniteMixture`` draws a component per sample and delegates.

The vectorized "window" paths evaluate an observable over every translate of
a finite set for a batch of sample points.  Every leaf batch takes them: a
Bernoulli batch carries one offset per point, so translated points (as in
the greedy covering) batch with the rest.  They are bit-identical to the
scalar ``value_fn`` paths (same mixer, same comparisons), which tests assert
and which stay as the reference.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._bits import GOLDEN64, mix64, uniform_from_key, uniforms_from_keys
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
    """Base class: each system gives ``sample_point(rng)``, the exact action
    ``apply(g, y)`` and ``to_json``."""

    group: Group
    seed: int
    ergodic: bool

    def components(self):
        """Flattened list of (weight, leaf system)."""
        return [(1.0, self)]

    @staticmethod
    def from_json(d: dict, group: Optional[Group] = None) -> "System":
        kind = d.get("kind")
        if kind == "bernoulli":
            grp = group if group is not None else Group.from_json(d["group"])
            return BernoulliShift(grp, tuple(float(p) for p in d["probs"]),
                                  _int_key(d, "seed", 0))
        if kind == "torus":
            alphas = tuple(float(a) for a in d["alphas"])
            grp = group if group is not None else ZPower(len(alphas))
            return TorusRotation(grp, alphas, _int_key(d, "seed", 0))
        if kind == "mixture":
            comps = []
            for c in d["components"]:
                comps.append((float(c["weight"]), System.from_json(c["system"], group)))
            return FiniteMixture(comps, _int_key(d, "seed", 0))
        raise ValueError(f"unknown system kind {kind!r}")


def _int_key(d: dict, key: str, default: int) -> int:
    """``d[key]`` (or ``default``), which must be a JSON integer: a boolean
    or a float is refused, not coerced."""
    v = d.get(key, default)
    if type(v) is not int:
        raise ValueError(f"{key} must be an integer")
    return v


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
        self._cum_np = np.asarray(cum)

    def sample_point(self, rng) -> ShiftPoint:
        word = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        cfg = mix64(mix64(self.seed ^ GOLDEN64) ^ word)
        return ShiftPoint(self.group.identity(), cfg)

    def apply(self, g, y: ShiftPoint) -> ShiftPoint:
        return ShiftPoint(self.group.mul(g, y.offset), y.cfg)

    def uniform_at(self, y: ShiftPoint, h=None) -> float:
        cell = y.offset if h is None else self.group.mul(h, y.offset)
        return uniform_from_key(self.group.elem_key(cell), y.cfg)

    def symbol(self, y: ShiftPoint, h=None) -> int:
        return bisect_right(self.cum, self.uniform_at(y, h))

    def window_uniforms(self, batch: BernoulliBatch, F: FinSet) -> np.ndarray:
        """Uniform matrix (P, |F|): cell g*offset_p for each g in F.

        Each cell is hashed once per distinct offset; the keys are gathered
        per point only when the batch holds more than one offset."""
        grp = self.group
        index: dict = {}
        which = [index.setdefault(o, len(index)) for o in batch.offsets]
        offsets = list(index)
        width = max(F.width, grp.dense_width(offsets))
        cells = grp.translate_rows(F.rows(width), grp.dense_rows(offsets, width))
        keys = grp.keys_for_rows(cells.reshape(-1, width))
        keys = keys.reshape(len(offsets), len(F))
        return uniforms_from_keys(keys[0] if len(offsets) == 1 else keys[which],
                                  batch.cfgs)

    def to_json(self) -> dict:
        return {"kind": "bernoulli", "group": self.group.to_json(),
                "probs": list(self.probs), "seed": self.seed}


class TorusRotation(System):
    def __init__(self, group: ZPower, alphas: Sequence[float], seed: int = 0):
        alphas = tuple(float(a) for a in alphas)
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

    def coordinate(self, y: TorusPoint, i: int) -> float:
        v = y.base[i] + y.steps[i] * self.alphas[i]
        return v - np.floor(v)

    def to_json(self) -> dict:
        return {"kind": "torus", "alphas": list(self.alphas), "seed": self.seed}


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

    def to_json(self) -> dict:
        return {"kind": "mixture", "seed": self.seed,
                "components": [{"weight": w, "system": s.to_json()}
                               for w, s in self.parts]}


def resolve_leaf(system: System, y):
    """Descend mixtures: (leaf system, leaf point)."""
    while isinstance(system, FiniteMixture):
        system = system.parts[y.component][1]
        y = y.inner
    return system, y


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
    value_fn: Callable
    window_fn: Callable
    exact_mean_fn: Optional[Callable] = None
    bound: Optional[float] = None
    nonneg: bool = False
    integer_valued: bool = False
    json: Optional[dict] = None

    def value(self, system: System, y) -> float:
        leaf, y = resolve_leaf(system, y)
        return self.value_fn(leaf, y)

    def window_values(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        """Matrix of f(g . y_p) for g in F (columns follow F's order)."""
        return self.window_fn(leaf, batch, F)

    def exact_mean(self, leaf: System) -> Optional[float]:
        if self.exact_mean_fn is None:
            return None
        return self.exact_mean_fn(leaf)

    def to_json(self) -> dict:
        return dict(self.json) if self.json is not None else {"kind": self.name}


def _require_bernoulli(leaf, name, symbol=None):
    if not isinstance(leaf, BernoulliShift):
        raise UnsupportedObservable(f"{name} needs a Bernoulli shift")
    if symbol is not None and not 0 <= symbol < len(leaf.probs):
        raise UnsupportedObservable(f"{name}: symbol {symbol} is outside the "
                                    f"{len(leaf.probs)}-symbol alphabet")


def indicator_symbol(symbol: int = 1) -> Observable:
    """f(y) = 1 when the symbol at the identity cell equals ``symbol``."""

    def value_fn(leaf, y):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        return 1.0 if leaf.symbol(y) == symbol else 0.0

    def window_fn(leaf, batch, F):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        u = leaf.window_uniforms(batch, F)
        lo = leaf.cum[symbol - 1] if symbol > 0 else 0.0
        hi = leaf.cum[symbol]
        return ((u >= lo) & (u < hi)).astype(np.float64)

    def exact_mean_fn(leaf):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        return leaf.probs[symbol]

    return Observable(
        name=f"indicator_symbol[{symbol}]",
        json={"kind": "indicator_symbol", "symbol": symbol},
        value_fn=value_fn,
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        bound=1.0,
        nonneg=True,
        integer_valued=True,
    )


def symbol_value() -> Observable:
    """f(y) = the symbol at the identity cell, as a float."""

    def value_fn(leaf, y):
        _require_bernoulli(leaf, "symbol_value")
        return float(leaf.symbol(y))

    def window_fn(leaf, batch, F):
        _require_bernoulli(leaf, "symbol_value")
        u = leaf.window_uniforms(batch, F)
        return np.searchsorted(leaf._cum_np, u, side="right").astype(np.float64)

    def exact_mean_fn(leaf):
        _require_bernoulli(leaf, "symbol_value")
        return sum(i * p for i, p in enumerate(leaf.probs))

    return Observable(
        name="symbol_value",
        json={"kind": "symbol_value"},
        value_fn=value_fn,
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        nonneg=True,
        integer_valued=True,
    )


def scaled(base: Observable, c: float) -> Observable:
    c = float(c)

    def value_fn(leaf, y):
        return c * base.value_fn(leaf, y)

    def window_fn(leaf, batch, F):
        return c * base.window_values(leaf, batch, F)

    def exact_mean_fn(leaf):
        m = base.exact_mean(leaf)
        return None if m is None else c * m

    return Observable(
        name=f"scaled[{c}]({base.name})",
        json={"kind": "scaled", "base": base.to_json(), "c": c},
        value_fn=value_fn,
        window_fn=window_fn,
        exact_mean_fn=exact_mean_fn,
        bound=None if base.bound is None else abs(c) * base.bound,
        nonneg=base.nonneg and c >= 0,
        integer_valued=base.integer_valued and c == int(c),
    )


def torus_coordinate(i: int = 0) -> Observable:
    def value_fn(leaf, y):
        if not isinstance(leaf, TorusRotation):
            raise UnsupportedObservable("torus_coordinate needs a torus rotation")
        return float(leaf.coordinate(y, i))

    def window_fn(leaf, batch, F):
        if not isinstance(batch, TorusBatch):
            raise UnsupportedObservable("torus_coordinate needs a torus batch")
        rows = F.rows()
        v = (batch.bases[:, i][:, None]
             + (batch.steps[:, i][:, None] + rows[None, :, i]) * leaf.alphas[i])
        return v - np.floor(v)

    return Observable(
        name=f"torus_coordinate[{i}]",
        json={"kind": "torus_coordinate", "index": i},
        value_fn=value_fn,
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
    >= 1/base.
    """

    def _require_line(leaf):
        _require_bernoulli(leaf, "neg_pow_run")
        if not isinstance(leaf.group, ZPower) or leaf.group.d != 1:
            raise UnsupportedObservable("neg_pow_run needs a Bernoulli shift on Z")

    def value_fn(leaf, y):
        _require_line(leaf)
        r = 0
        while r < cap and leaf.symbol(y, (r,)) == 1:
            r += 1
        return -float(base) ** r

    def window_fn(leaf, batch, F):
        # runs over the cells [min F, max F + cap], then F's columns
        _require_line(leaf)
        cols = F.rows()[:, 0]
        lo, hi = (int(cols.min()), int(cols.max())) if len(cols) else (0, 0)
        ext = _box(leaf.group, [range(lo, hi + cap + 1)])
        u = leaf.window_uniforms(batch, ext)
        one = np.searchsorted(leaf._cum_np, u, side="right") == 1
        pos = np.arange(len(ext))
        # the run from cell j ends at the first cell >= j that is not a 1
        stop = np.where(one, len(ext), pos)
        run = np.minimum.accumulate(stop[:, ::-1], axis=1)[:, ::-1] - pos
        return -np.power(float(base), np.minimum(run[:, cols - lo], cap))

    return Observable(
        name=f"neg_pow_run[{base},{cap}]",
        json={"kind": "neg_pow_run", "base": float(base), "cap": cap},
        value_fn=value_fn,
        window_fn=window_fn,
        nonneg=False,
    )


def observable_from_json(d: dict) -> Observable:
    kind = d.get("kind", "")
    if kind.startswith("indicator_symbol"):
        return indicator_symbol(_int_key(d, "symbol", 1))
    if kind == "symbol_value":
        return symbol_value()
    if kind.startswith("scaled"):
        return scaled(observable_from_json(d["base"]), float(d["c"]))
    if kind.startswith("torus_coordinate"):
        return torus_coordinate(_int_key(d, "index", 0))
    if kind.startswith("neg_pow_run"):
        return neg_pow_run(float(d.get("base", 2.0)), _int_key(d, "cap", 40))
    raise ValueError(f"unknown observable kind {kind!r}")


# ---------------------------------------------------------------------------
# Conditional expectation (constant on each ergodic component)


@dataclass(frozen=True)
class CondExp:
    components: tuple  # (weight, leaf id, mean, stderr)
    _leaf_means: dict

    def value(self, system: System, y) -> float:
        leaf, _ = resolve_leaf(system, y)
        return self._leaf_means[id(leaf)]

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
            vals = np.array([obs.value(leaf, leaf.sample_point(rng))
                             for _ in range(samples)])
            m = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(samples))
        comps.append((w, id(leaf), float(m), se))
        leaf_means[id(leaf)] = float(m)
    return CondExp(tuple(comps), leaf_means)
