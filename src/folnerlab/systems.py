"""Measure-preserving systems over the supported groups.

Sample points are one record of arrays, ``Points``: for each point, the
index of its leaf in ``system.components()``, the dense group row of its
accumulated translation (``offsets``), a 64-bit configuration key (read on
Bernoulli leaves) and a base point (read on torus leaves).  Point i of a
run draws what ``np.random.default_rng([seed, i])`` would, for all points
at once.  The action, ``Points.moved``, only adds group rows to offsets.

* ``BernoulliShift``: the symbol at cell h for point (offset, cfg) is a
  keyed hash of h*offset, so symbol(h, g.y) == symbol(h*g, y) holds
  identically and fresh samples are i.i.d. product draws.
* ``TorusRotation``: coordinates are read lazily from the base and the
  integer offset, so composing actions is exact integer arithmetic.
* ``FiniteMixture`` draws a component per sample and delegates.

Observables are evaluated only on "windows": over every translate of a
finite set, for a batch of sample points.  Every leaf batch takes them:
points translated by different offsets (as in the greedy covering and the
classifier's invariance check) batch with the rest: their cells are box
keys, one sum per (offset, g) pair, and each distinct cell is hashed once.
A symbol is read from the hashed 64-bit word by integer cut points that
reproduce the float rule ``bisect_right(cum, uniform)`` exactly; the tests
hold that rule, cell by cell, in a scalar oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from ._bits import (GOLDEN64, TWO_NEG_64, mix64, mix64_np, pcg64_outputs,
                    premix_np, uniform_from_key, words_from_premixed)
from ._config import (_INT, _NONNEG_INT, _NUM, _NUMS, _OBJ, _OBJS, _get,
                      _kind)
from .groups import (FinSet, Group, ZPower, _box, _decode, _encode, _key_sums, _pad,
                     _sum_box, _unique, _widen)


class UnsupportedObservable(ValueError):
    """Observable/system pairing that the library cannot evaluate."""


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True, eq=False)
class Points:
    """A batch of sample points of one system, one array entry per point."""

    leaf: np.ndarray     # int64 index into system.components()
    offsets: np.ndarray  # (P, w) int64 dense rows of the accumulated translation
    cfgs: np.ndarray     # uint64 configuration keys, read on Bernoulli leaves
    bases: np.ndarray    # (P, d) float64 base points, read on torus leaves

    def __len__(self):
        return len(self.leaf)

    def __getitem__(self, sel) -> "Points":
        """The points at a slice or an index array; point i alone is the
        batch ``points[i:i + 1]``."""
        if isinstance(sel, (int, np.integer)):
            raise TypeError("index Points by a slice or an index array, as [i:i + 1]")
        return Points(self.leaf[sel], self.offsets[sel], self.cfgs[sel],
                      self.bases[sel])

    def moved(self, group: Group, rows: np.ndarray) -> "Points":
        """Point p translated by the dense row ``rows[p]`` of ``group``."""
        w = max(self.offsets.shape[1], rows.shape[1])
        return Points(self.leaf, group.add_rows(_widen(self.offsets, w), _widen(rows, w)),
                      self.cfgs, self.bases)


class GenericBatch:
    """Never built; the name stays for ``bench/tracer.py``, which counts the
    window cells of batches of this type."""


# ---------------------------------------------------------------------------
# Systems


class System:
    """Base class.  Point i of a run draws what ``np.random.default_rng([seed,
    i])`` would: ``substream_points`` computes that for all points at once,
    each kind decoding its draws from the generator's first ``_outputs`` raw
    outputs with ``_decode``, as numpy's ``Generator`` would.  ``sample`` draws
    with ``_draw(rng)`` from generators that points share or that other draws
    have advanced."""

    group: Group
    seed: int
    ergodic: bool
    _outputs: int

    def components(self):
        """Flattened list of (weight, leaf system)."""
        return [(1.0, self)]

    def _dim(self) -> int:
        """The width of the base points: the torus dimension, if any."""
        return max((leaf.group.d for _, leaf in self.components()
                    if isinstance(leaf, TorusRotation)), default=0)

    def _points(self, leaf, cfgs, bases) -> Points:
        n, grp = len(leaf), self.group
        return Points(np.asarray(leaf, dtype=np.int64),
                      np.zeros((n, grp.dense_width([grp.identity()])), dtype=np.int64),
                      np.asarray(cfgs, dtype=np.uint64),
                      np.asarray(bases, dtype=np.float64).reshape(n, self._dim()))

    def substream_points(self, seed: int, idx: np.ndarray) -> Points:
        """Point j as ``np.random.default_rng([seed, idx[j]])`` draws it."""
        return self._points(*self._decode(pcg64_outputs(seed, idx, self._outputs)))

    def sample(self, rngs) -> Points:
        """One point from each generator of the iterable ``rngs``, in order."""
        draws = [self._draw(rng) for rng in rngs]
        pad = (0.0,) * self._dim()
        return self._points([k for k, _, _ in draws], [c for _, c, _ in draws],
                            [pad if b is None else b for _, _, b in draws])

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
        if not (probs and all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9):
            raise ValueError("probs must be non-negative and sum to 1")
        self.group = group
        self.probs = probs
        self.seed = int(seed)
        self.ergodic = True
        self._outputs = 2
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

    def _draw(self, rng) -> tuple:
        word = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        return 0, mix64(mix64(self.seed ^ GOLDEN64) ^ word), None

    def _decode(self, raw: np.ndarray) -> tuple:
        # integers(0, 2**63) is output 0 >> 1 and integers(0, 2) is bit 31 of
        # output 1: Lemire's method never rejects on a power-of-two range
        word = (raw[:, 0] >> np.uint64(1)) | (raw[:, 1] >> np.uint64(31) << np.uint64(63))
        word ^= np.uint64(mix64(self.seed ^ GOLDEN64))
        return np.zeros(len(raw), dtype=np.int64), mix64_np(word), np.zeros((len(raw), 0))

    def uniform_at(self, y: Points, h=None) -> float:
        """The uniform of the one cell h*offset of the first point of ``y``
        (its offset when h is None): the scalar reading of
        ``window_uniforms``, which the tests' oracle uses."""
        grp = self.group
        offset = grp.rows_to_elems(y.offsets[:1])[0]
        cell = offset if h is None else grp.mul(h, offset)
        return uniform_from_key(grp.elem_key(cell), int(y.cfgs[0]))

    def window_uniforms(self, batch: Points, F: FinSet) -> np.ndarray:
        """The uniforms of the cells g*offset_p for g in F, as a (P, |F|)
        matrix of 64-bit fixed-point words: word w is the uniform w * 2**-64.

        A batch whose offsets are all the identity reads F's own cell keys,
        hashed once per set.  Otherwise each distinct cell of the box keys
        ``_key_sums`` forms is hashed once: translates share their cells."""
        cfgs = premix_np(batch.cfgs)
        if not batch.offsets.any() or F.is_empty:
            return words_from_premixed(F.cell_keys(), cfgs)
        grp, width = self.group, max(F.width, batch.offsets.shape[1])
        offsets = _widen(batch.offsets, width)
        lo, ext = _sum_box(grp, _encode(grp, offsets)[:2],
                           (_pad(F.lo, width, 0), _pad(F.ext, width, 1)))
        keys = _key_sums(grp, offsets, F.rows(width), lo, ext)
        cells = _unique(keys)
        hashed = premix_np(grp.keys_for_rows(_decode(lo, ext, cells)))
        keys = hashed[np.searchsorted(cells, keys)]  # rebound: one (P, |F|) array less
        return words_from_premixed(keys, cfgs)

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
        self._outputs = group.d

    def _draw(self, rng) -> tuple:
        return 0, 0, rng.random(self.group.d)

    def _decode(self, raw: np.ndarray) -> tuple:
        return (np.zeros(len(raw), dtype=np.int64), np.zeros(len(raw), dtype=np.uint64),
                _doubles(raw[:, :self.group.d]))


class FiniteMixture(System):
    def __init__(self, components, seed: int = 0):
        if not components:
            raise ValueError("mixture needs at least one component")
        w = [float(c[0]) for c in components]
        if not (all(x >= 0 for x in w) and abs(sum(w) - 1.0) <= 1e-9):
            raise ValueError("weights must be non-negative and sum to 1")
        g0 = components[0][1].group
        for _, s in components[1:]:
            if s.group != g0:
                raise ValueError("mixture components must share the group")
        self.group = g0
        self.parts = [(float(wi), si) for wi, si in components]
        self.seed = int(seed)
        self.ergodic = len(components) == 1 and components[0][1].ergodic
        # the flattened leaf index of each part's first leaf
        self._first = list(accumulate((len(s.components()) for _, s in self.parts),
                                      initial=0))
        self._outputs = 1 + max(s._outputs for _, s in self.parts)
        self._cum = np.array(list(accumulate(w for w, _ in self.parts)))

    def _part(self, u):
        """The part u picks: the first whose running weight sum exceeds u, else the last."""
        return np.minimum(np.searchsorted(self._cum, u, side="right"), len(self.parts) - 1)

    def _draw(self, rng) -> tuple:
        idx = int(self._part(rng.random()))
        k, cfg, base = self.parts[idx][1]._draw(rng)
        return self._first[idx] + k, cfg, base

    def _decode(self, raw: np.ndarray) -> tuple:
        # output 0 picks the part as _draw does; the part decodes the rest
        part = self._part(_doubles(raw[:, 0]))
        leaf, cfgs = np.zeros(len(raw), dtype=np.int64), np.zeros(len(raw), dtype=np.uint64)
        bases = np.zeros((len(raw), self._dim()))
        for i, (_, s) in enumerate(self.parts):
            sel = np.flatnonzero(part == i)
            k, cfgs[sel], bases[sel, :s._dim()] = s._decode(raw[sel, 1:])
            leaf[sel] = self._first[i] + k
        return leaf, cfgs, bases

    def components(self):
        out = []
        for w, s in self.parts:
            for wi, leaf in s.components():
                out.append((w * wi, leaf))
        return out


def _doubles(raw: np.ndarray) -> np.ndarray:
    """Generator.random() of each raw output: its top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


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


def split_leaves(system: System, points: Points):
    """Group points by leaf: (leaf system, increasing index array, the points
    there) for each leaf that holds points, in ``components()`` order."""
    out = []
    for k, (_, leaf) in enumerate(system.components()):
        idx = np.flatnonzero(points.leaf == k)
        if len(idx):
            out.append((leaf, idx, points[idx]))
    return out


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
    sum_fn: Optional[Callable] = None  # the row sums, bit for bit, without the matrix

    def window_values(self, leaf: System, batch, F: FinSet, *,
                      summed: bool = False) -> np.ndarray:
        """Matrix of f(g . y_p) for g in F (columns follow F's order), or with
        ``summed`` its row sums, ``window_values(...).sum(axis=1)``."""
        if summed and self.sum_fn is not None:
            return self.sum_fn(leaf, batch, F)
        vals = self.window_fn(leaf, batch, F)
        return vals.sum(axis=1) if summed else vals

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

    def sum_fn(leaf, batch, F):
        # the words that reach cut symbol - 1 (all of them for symbol 0) less
        # those that reach cut symbol (none when it is absent): 0/1 values
        # sum exactly, so the count is the float row sum
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        words, cuts = leaf.window_uniforms(batch, F), leaf._cuts
        lo, hi = ((words >= cuts[k]).sum(axis=1) if 0 <= k < len(cuts)
                  else len(F) if k < 0 else 0 for k in (symbol - 1, symbol))
        return np.zeros(len(batch)) + (lo - hi)

    def exact_mean_fn(leaf):
        _require_bernoulli(leaf, "indicator_symbol", symbol)
        return leaf.probs[symbol]

    return Observable(
        name=f"indicator_symbol[{symbol}]",
        window_fn=window_fn,
        sum_fn=sum_fn,
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
    if not np.isfinite(c):
        raise ValueError(f"scale factor c must be finite, got {c}")

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
             + (batch.offsets[:, i][:, None] + rows[None, :, i]) * leaf.alphas[i])
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
            batch = leaf.sample([rng] * samples)
            origin = FinSet(leaf.group, [leaf.group.identity()])
            vals = obs.window_values(leaf, batch, origin)[:, 0]
            m = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(samples))
        comps.append((w, id(leaf), float(m), se))
        leaf_means[id(leaf)] = float(m)
    return CondExp(tuple(comps), leaf_means)
