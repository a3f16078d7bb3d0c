"""Set-indexed families d_F(y) and their exact property classifier.

A family assigns a real value to each (finite set, point) pair, with the
convention d_empty = 0.  Built-ins cover the standard constructions: window
sums of an observable, window maxima, pure cardinality terms, sums plus a
cardinality term, maxima of two sums, truncations, and the two derived
families (singleton-sum defect, and its tile-composed refinement).

Every family has one evaluation path, ``leaf_values(leaf, batch, F, mask)``:
its values at a batch of points of one leaf system, on F, or on each
point's subset of F when a boolean mask over F's element order is given.
Sampling passes no mask; the classifier passes one row per trial.

Properties (non-negativity, invariance, bi-invariance, monotonicity,
sub/sup-additivity, strong sub/sup-additivity) are certified by randomized
exact testing: every draw is evaluated exactly and a failing draw is
reported as an explicit counterexample.  A PASS is evidence, not proof;
declared properties are what the theorem gates consume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._config import _INT, _NUM, _OBJ, _POS_INT, _TWO_OBJS, _get, _kind, _one_of
from .groups import FinSet, Group, _widen, erode, multiplicity, translate_right
from .systems import Observable, Points, System, observable_from_json, split_leaves
from .tiling import TilingCert, compose, window_set

# a vectorized slab holds about _SLAB_CELLS cells (points x |F|), so that
# its word and symbol matrices stay in cache
_SLAB_CELLS = 1 << 16


def _slabs(n: int, cells: int):
    """Slices of n points, at ``cells`` cells per point."""
    size = max(_SLAB_CELLS // cells, 1)
    for s in range(0, n, size):
        yield slice(s, min(s + size, n))


def _masked_sum(vals: np.ndarray, mask) -> np.ndarray:
    """Row sums of ``vals``, or with a mask the sums over each row's masked
    columns added one by one in column order, as a sum from 0 over the
    subset's elements adds them (F's order restricted to a subset is the
    subset's order), so the rounding is that of a one-set evaluation."""
    if mask is None:
        return vals.sum(axis=1)
    return np.cumsum(np.where(mask, vals, 0.0), axis=1)[:, -1] + 0.0


def _cards(batch, F: FinSet, mask) -> np.ndarray:
    """|F|, or each point's masked cardinality, per point."""
    return np.full(len(batch), len(F)) if mask is None else mask.sum(axis=1)


def _gamma_at(gamma: Callable, cards: np.ndarray) -> np.ndarray:
    """float(gamma(k)) for each cardinality k."""
    return np.asarray([float(gamma(k)) for k in cards.tolist()], dtype=np.float64)


class Family:
    """Base class.  Each family gives ``leaf_values(leaf, batch, F, mask)``,
    its values at the points of one leaf batch on F (``mask`` None) or on
    each point's masked subset of F (``mask`` a (points, |F|) boolean matrix
    over F's element order), and ``singleton_window(leaf, batch, F)``, the
    matrix of d_{e}(g . y_p) for g in F.  Values on an empty masked subset
    are left to the caller, which reads them as 0."""

    name: str = "family"
    declared: frozenset = frozenset()
    exact_values: bool = False  # values are exactly-represented floats

    def act(self, system: System, points: Points, g_rows: np.ndarray) -> Points:
        """Point p translated by the dense row ``g_rows[p]``, matching right
        set translation (overridable)."""
        return points.moved(system.group, g_rows)

    def sample_values(self, system: System, F: FinSet, points: Points) -> np.ndarray:
        """d_F(y) for a batch of points, split by mixture component."""
        if F.is_empty:
            return np.zeros(len(points))
        return _batch_values(self, split_leaves(system, points), F)


def _batch_values(fam: Family, parts: list, F: FinSet, mask=None) -> np.ndarray:
    """The family's values at the points of ``parts`` (``split_leaves``), in
    slabs: on F, or on each point's masked subset of F, read as 0 where it
    is empty."""
    out = np.empty(sum(len(idx) for _, idx, _ in parts))
    for leaf, idx, batch in parts:
        rows = None if mask is None else mask[idx]
        vals = np.empty(len(batch))
        for sl in _slabs(len(batch), len(F)):
            vals[sl] = fam.leaf_values(leaf, batch[sl], F,
                                       None if rows is None else rows[sl])
        out[idx] = vals
    if mask is not None:
        out[~mask.any(axis=1)] = 0.0
    return out


class AdditiveFamily(Family):
    """d_F(y) = sum of f(g . y) over g in F."""

    def __init__(self, obs: Observable):
        self.obs = obs
        self.name = f"additive({obs.name})"
        self.declared = frozenset(
            {"invariant", "bi_invariant", "subadditive", "supadditive",
             "strongly_subadditive", "strongly_supadditive"}
            | ({"nonnegative", "monotone"} if obs.nonneg else set()))
        self.exact_values = obs.integer_valued

    def leaf_values(self, leaf, batch, F, mask=None):
        if mask is None:
            return self.obs.window_values(leaf, batch, F, summed=True)
        return _masked_sum(self.obs.window_values(leaf, batch, F), mask)

    def singleton_window(self, leaf, batch, F):
        return self.obs.window_values(leaf, batch, F)


class MaxFamily(Family):
    """d_F(y) = max of f(g . y) over g in F, for f >= 0."""

    def __init__(self, obs: Observable):
        if not obs.nonneg:
            raise ValueError("window max needs a non-negative observable")
        self.obs = obs
        self.name = f"max({obs.name})"
        self.declared = frozenset({"nonnegative", "invariant", "bi_invariant",
                                   "monotone", "subadditive",
                                   "strongly_subadditive"})
        self.exact_values = obs.integer_valued

    def leaf_values(self, leaf, batch, F, mask=None):
        vals = self.obs.window_values(leaf, batch, F)
        return (vals if mask is None else np.where(mask, vals, -np.inf)).max(axis=1)

    def singleton_window(self, leaf, batch, F):
        return self.obs.window_values(leaf, batch, F)


def _check_gamma(gamma: Callable, *, concave: bool):
    """Checks gamma(0) = 0, and concavity on 0..64 or sub-additivity on 1..32."""
    if abs(gamma(0)) > 1e-12:
        raise ValueError("cardinality term must vanish at 0")
    vals = [float(gamma(k)) for k in range(65)]
    if concave:
        for k in range(1, 64):
            if vals[k + 1] - vals[k] > vals[k] - vals[k - 1] + 1e-12:
                raise ValueError(f"cardinality term not concave at {k}")
    else:
        for a in range(1, 33):
            for b in range(1, 33):
                if vals[a + b] > vals[a] + vals[b] + 1e-12:
                    raise ValueError("cardinality term not subadditive")


class ConcaveCardinality(Family):
    """d_F(y) = gamma(|F|) for concave gamma with gamma(0) = 0."""

    def __init__(self, gamma: Callable, gamma_name: str = "gamma"):
        _check_gamma(gamma, concave=True)
        self.gamma = gamma
        self.name = f"concave_cardinality({gamma_name})"
        self.declared = frozenset({"invariant", "bi_invariant", "subadditive",
                                   "strongly_subadditive"}
                                  | ({"nonnegative", "monotone"}
                                     if gamma(1) >= 0 else set()))

    def leaf_values(self, leaf, batch, F, mask=None):
        return _gamma_at(self.gamma, _cards(batch, F, mask))

    def singleton_window(self, leaf, batch, F):
        return np.full((len(batch), len(F)), float(self.gamma(1)))


class AdditivePlus(Family):
    """d_F(y) = window sum of f plus beta * gamma(|F|), gamma subadditive."""

    def __init__(self, obs: Observable, gamma: Callable, beta: float = 1.0,
                 gamma_name: str = "gamma"):
        beta = float(beta)
        if not 0 <= beta < math.inf:  # NaN fails too
            raise ValueError("beta must be a finite non-negative number")
        _check_gamma(gamma, concave=False)
        self.inner = AdditiveFamily(obs)
        self.gamma = gamma
        self.beta = beta
        self.name = f"additive_plus({obs.name},{gamma_name},{beta})"
        self.declared = frozenset({"invariant", "bi_invariant", "subadditive"})

    def leaf_values(self, leaf, batch, F, mask=None):
        return (self.inner.leaf_values(leaf, batch, F, mask)
                + self.beta * _gamma_at(self.gamma, _cards(batch, F, mask)))

    def singleton_window(self, leaf, batch, F):
        return (self.inner.singleton_window(leaf, batch, F)
                + self.beta * float(self.gamma(1)))


class MaxOfAdditives(Family):
    """d_F(y) = max of two window sums."""

    def __init__(self, obs1: Observable, obs2: Observable):
        self.a = AdditiveFamily(obs1)
        self.b = AdditiveFamily(obs2)
        self.name = f"max_of_additives({obs1.name},{obs2.name})"
        self.declared = frozenset({"invariant", "bi_invariant", "subadditive"}
                                  | ({"nonnegative", "monotone"}
                                     if obs1.nonneg and obs2.nonneg else set()))
        self.exact_values = obs1.integer_valued and obs2.integer_valued

    def leaf_values(self, leaf, batch, F, mask=None):
        return np.maximum(self.a.leaf_values(leaf, batch, F, mask),
                          self.b.leaf_values(leaf, batch, F, mask))

    def singleton_window(self, leaf, batch, F):
        return np.maximum(self.a.singleton_window(leaf, batch, F),
                          self.b.singleton_window(leaf, batch, F))


class Truncated(Family):
    """d_F(y) clipped below at -N * |F|."""

    def __init__(self, base: Family, N: int):
        if not _POS_INT[0](N):  # a bool or a float is refused, not rounded
            raise ValueError(f"truncation level must be {_POS_INT[1]}, got {N!r}")
        self.base = base
        self.N = N
        self.name = f"truncated({base.name},{N})"
        self.declared = frozenset(
            {p for p in ("invariant", "bi_invariant", "subadditive")
             if p in base.declared})
        self.exact_values = base.exact_values

    def leaf_values(self, leaf, batch, F, mask=None):
        return np.maximum(-self.N * _cards(batch, F, mask),
                          self.base.leaf_values(leaf, batch, F, mask))

    def singleton_window(self, leaf, batch, F):
        return np.maximum(-self.N, self.base.singleton_window(leaf, batch, F))


class DerivedPrime(Family):
    """Defect against the singleton sum: sum over g in F of d_{{e}}(g.y),
    minus d_F(y).  Non-negative and sup-additive when the base family is
    sub-additive and invariant."""

    def __init__(self, base: Family):
        self.base = base
        self.name = f"derived_prime({base.name})"
        self.declared = frozenset({"nonnegative", "supadditive"}
                                  | ({"invariant"} if "invariant" in base.declared
                                     else set())
                                  | ({"bi_invariant"}
                                     if "bi_invariant" in base.declared else set()))
        self.exact_values = base.exact_values

    def leaf_values(self, leaf, batch, F, mask=None):
        return (_masked_sum(self.base.singleton_window(leaf, batch, F), mask)
                - self.base.leaf_values(leaf, batch, F, mask))

    def singleton_window(self, leaf, batch, F):
        # d'_{e}(y) = d_{e}(e.y) - d_{e}(y)
        return np.zeros((len(batch), len(F)))


class DerivedPrimeM(Family):
    """Tile-composed refinement of the singleton-sum defect.

    Indexed by sets F in the plain group; evaluates the defect family at the
    composed set tile * iso(F) and subtracts the per-cell defect of the tile
    itself at the iso-translated points.  Invariance holds along the center
    subgroup, so `act` routes translations through the isomorphism.
    """

    def __init__(self, base: Family, cert: Optional[TilingCert]):
        if cert is None or cert.iso is None:
            raise ValueError("derived_prime_m needs a self-similar tiling certificate")
        self.prime = DerivedPrime(base)
        self.cert = cert
        self.name = f"derived_prime_m({base.name},|T|={len(cert.tile)})"
        self.declared = frozenset({"nonnegative", "supadditive", "invariant"})
        self.exact_values = base.exact_values

    def act(self, system, points, g_rows):
        return points.moved(system.group, self.cert.iso.map_rows(g_rows))

    def leaf_values(self, leaf, batch, F, mask=None):
        # the tile at iso(g) . y is the translate T iso(g) at y: observables
        # see a point only through its cells, which agree cell for cell
        big = compose(self.cert, F)
        out = self.prime.leaf_values(leaf, batch, big,
                                     None if mask is None else self._big_mask(F, big, mask))
        for j, g in enumerate(F.elems):
            if mask is not None and not mask[:, j].any():
                continue
            term = self.prime.leaf_values(
                leaf, batch, translate_right(self.cert.tile, self.cert.iso.apply(g)))
            out = out - term if mask is None else np.where(mask[:, j], out - term, out)
        return out

    def _big_mask(self, F: FinSet, big: FinSet, mask: np.ndarray) -> np.ndarray:
        """The masks over compose(cert, F) of the composed subsets: the
        translate T iso(g) of each masked g, through the tile incidence."""
        tile, grp = self.cert.tile, F.group
        image = self.cert.iso.map_rows(F.rows())
        width = max(tile.width, image.shape[1])
        cells = grp.translate_rows(tile.rows(width), _widen(image, width))
        incidence = big.index(cells.reshape(-1, width)).reshape(len(F), len(tile))
        out = np.zeros((len(mask), len(big)), dtype=bool)
        points, cols = np.nonzero(mask)
        out[points[:, None], incidence[cols]] = True
        return out

    def singleton_window(self, leaf, batch, F):
        # d^m_{e} = d'_T - d'_T = 0: composing with {e} gives the tile itself
        return np.zeros((len(batch), len(F)))


class MinusCardSquared(Family):
    """Classifier fixture: d_F(y) - |F|^2 (kills sub-additivity, keeps
    invariance)."""

    def __init__(self, base: Family):
        self.base = base
        self.name = f"minus_card_squared({base.name})"
        self.declared = frozenset(
            {p for p in ("invariant", "bi_invariant") if p in base.declared})
        self.exact_values = base.exact_values

    def leaf_values(self, leaf, batch, F, mask=None):
        return (self.base.leaf_values(leaf, batch, F, mask)
                - _cards(batch, F, mask).astype(np.float64) ** 2)

    def singleton_window(self, leaf, batch, F):
        return self.base.singleton_window(leaf, batch, F) - 1.0


GAMMAS = {
    "sqrt": math.sqrt,
    "linear": float,
    "log1p": math.log1p,
    "ceil_half": lambda k: float(math.ceil(k / 2)),  # subadditive, not concave
}


def family_from_json(d: dict, cert: Optional[TilingCert] = None) -> Family:
    return _kind(d, _FAMILY_KINDS)(d, cert)


def _gamma_from_json(d: dict, default) -> dict:
    name = _get(d, "gamma", default, *_one_of(GAMMAS))
    return {"gamma": GAMMAS[name], "gamma_name": name}


def _obs_from_json(d: dict) -> Observable:
    return observable_from_json(_get(d, "observable", ..., *_OBJ))


def _base_from_json(d: dict, cert: Optional[TilingCert]) -> Family:
    return family_from_json(_get(d, "base", ..., *_OBJ), cert)


_FAMILY_KINDS = {
    "additive": lambda d, cert: AdditiveFamily(_obs_from_json(d)),
    "max": lambda d, cert: MaxFamily(_obs_from_json(d)),
    "concave_cardinality": lambda d, cert: ConcaveCardinality(
        **_gamma_from_json(d, ...)),
    "additive_plus": lambda d, cert: AdditivePlus(
        _obs_from_json(d), beta=_get(d, "beta", 1.0, *_NUM),
        **_gamma_from_json(d, "sqrt")),
    "max_of_additives": lambda d, cert: MaxOfAdditives(
        *map(observable_from_json, _get(d, "observables", ..., *_TWO_OBJS))),
    "truncated": lambda d, cert: Truncated(_base_from_json(d, cert),
                                           _get(d, "N", ..., *_INT)),
    "derived_prime": lambda d, cert: DerivedPrime(_base_from_json(d, cert)),
    "derived_prime_m": lambda d, cert: DerivedPrimeM(_base_from_json(d, None), cert),
    "minus_card_squared": lambda d, cert: MinusCardSquared(_base_from_json(d, cert)),
}


# ---------------------------------------------------------------------------
# Property classifier

PROPERTIES = ("nonnegative", "invariant", "bi_invariant", "monotone",
              "subadditive", "strongly_subadditive", "supadditive",
              "strongly_supadditive")


@dataclass(frozen=True)
class PropertyVerdict:
    prop: str
    verdict: str  # "PASS" | "FAIL"
    trials: int
    max_gap: float  # worst |lhs - rhs| on passing comparisons
    counterexample: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"



@dataclass(frozen=True)
class ClassifyReport:
    family: str
    verdicts: dict  # prop -> PropertyVerdict
    seed: int
    declared: frozenset = frozenset()

    def passed(self, prop: str) -> bool:
        return self.verdicts[prop].passed

    def counterexample(self, prop: str) -> Optional[dict]:
        return self.verdicts[prop].counterexample

    @property
    def declared_ok(self) -> bool:
        checked = [p for p in self.declared if p in self.verdicts]
        return all(self.passed(p) for p in checked)


def _random_positions(rng, n: int, max_card: int) -> np.ndarray:
    """Positions of a random subset of 1..max_card of n ground elements."""
    k = min(int(rng.integers(1, max_card + 1)), n)
    return rng.choice(n, size=k, replace=False)


def _trial_masks(group: Group, ground: FinSet, picks: list, gs: list) -> tuple:
    """(W, E, F, Eg): the window W of the ground and its translates by the
    distinct g's, and each trial's E, F and E.g as boolean rows over W
    (abelian: g.x = x.g, one index map per g)."""
    slot = {g: i for i, g in enumerate(dict.fromkeys(gs))}
    width = max(ground.width, group.dense_width(slot))
    rows = ground.rows(width)
    shifted = group.translate_rows(rows, group.dense_rows(slot, width)).reshape(-1, width)
    W = FinSet.from_rows(group, np.concatenate((rows, shifted)))
    home, moved = W.index(rows), W.index(shifted).reshape(len(slot), len(ground))
    E, F, Eg = (np.zeros((len(gs), len(W)), dtype=bool) for _ in range(3))
    for t, ((e, f), g) in enumerate(zip(picks, gs)):
        E[t, home[e]] = F[t, home[f]] = True
        Eg[t, moved[slot[g], e]] = True
    return W, E, F, Eg


def _report(name: str, checks: dict, properties, W: FinSet, E, F, gs: list,
            seed: int, declared=frozenset()) -> ClassifyReport:
    """The verdicts of the comparisons ``checks`` (prop -> its comparisons,
    in their order within a trial: (lhs, rhs, ok, made)), each with the
    first failure in trial order as its counterexample."""
    verdicts = {}
    for p in properties:
        lhs, rhs, ok, made = (np.stack(x, axis=1) for x in zip(*checks[p]))
        failed = np.argwhere(made & ~ok)  # (trial, comparison), in trial order
        cex = None
        if len(failed):
            t, k = failed[0]
            sub = F & ~E if p in ("subadditive", "supadditive") else F
            cex = {"lhs": float(lhs[t, k]), "rhs": float(rhs[t, k]), "trial": int(t),
                   "E": W.take(np.flatnonzero(E[t])).to_json(),
                   "F": W.take(np.flatnonzero(sub[t])).to_json(),
                   "g": W.group.elem_to_json(gs[t]), "seed": seed}
        verdicts[p] = PropertyVerdict(
            prop=p, verdict="PASS" if cex is None else "FAIL",
            trials=int(made.sum()),
            max_gap=float(np.abs(lhs - rhs)[made & ok].max(initial=0.0)),
            counterexample=cex)
    return ClassifyReport(family=name, verdicts=verdicts, seed=seed,
                          declared=frozenset(declared))


def classify(fam: Family, group: Group, system: System, trials: int = 300,
             max_card: int = 6, seed: int = 2024,
             properties: Sequence[str] = PROPERTIES) -> ClassifyReport:
    """Randomized exact property check with counterexample emission.

    Each trial t draws (E, F, g, y) from its own stream [seed, t].  Every set
    a trial touches is a boolean row over one window W, the ground window
    joined with its translates by the drawn g's: unions, intersections and
    differences are bitwise, translations are index maps on W.  Each set
    role is evaluated over all trials in one batch, and each comparison
    uses tolerance 0 for exactly-representable families and 1e-12
    otherwise; the first failing comparison in trial order is reported.
    """
    span = 2  # radius of the sets' window and of the random translations
    ground = window_set(group, span, 3)
    tol = 0.0 if fam.exact_values else 1e-12
    picks, gs, rngs = [], [], []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        picks.append([_random_positions(rng, len(ground), max_card) for _ in "EF"])
        gs.append(group.random_elem(rng, span))
        rngs.append(rng)
    ys = system.sample(rngs)  # each trial's point comes after its E, F and g
    W, E, F, Eg = _trial_masks(group, ground, picks, gs)
    I, Fd = E & F, F & ~E
    parts = split_leaves(system, ys)
    vE, vF, vU, vI = (_batch_values(fam, parts, W, m) for m in (E, F, E | F, I))
    every = np.ones(trials, dtype=bool)
    zero = np.zeros(trials)
    joint, apart = vU + vI, vE + vF
    # prop -> its comparisons, in their order within a trial: (lhs, rhs, ok, made)
    checks = {
        "nonnegative": [(vE, zero, vE >= -tol, every), (vF, zero, vF >= -tol, every)],
        "monotone": [(vE, vU, vE <= vU + tol, every),
                     (vI, vF, vI <= vF + tol, I.any(axis=1))],
        "strongly_subadditive": [(joint, apart, joint <= apart + tol, every)],
        "strongly_supadditive": [(joint, apart, joint >= apart - tol, every)],
    }
    if {"invariant", "bi_invariant"} & set(properties):
        acted = split_leaves(system, fam.act(system, ys, group.dense_rows(gs)))
        # g.E: as in translate_left, the translate by g read on either side
        vEg, vE_gy, vgE = (_batch_values(fam, p, W, m)
                           for p, m in ((parts, Eg), (acted, E), (parts, Eg)))
        inv_ok = np.abs(vEg - vE_gy) <= tol
        checks["invariant"] = [(vEg, vE_gy, inv_ok, every)]
        checks["bi_invariant"] = [(vgE, vEg, inv_ok & (np.abs(vgE - vEg) <= tol), every)]
    if {"subadditive", "supadditive"} & set(properties):
        # E u (F \ E) is E u F, already evaluated
        split = vE + _batch_values(fam, parts, W, Fd)
        made = Fd.any(axis=1)
        checks["subadditive"] = [(vU, split, vU <= split + tol, made)]
        checks["supadditive"] = [(vU, split, vU >= split - tol, made)]

    return _report(fam.name, checks, properties, W, E, F, gs, seed, fam.declared)


# ---------------------------------------------------------------------------
# Indicator decompositions


def box_core_decomposition(F: FinSet, T: FinSet):
    """Exact decomposition 1_F = (1/|T|) * sum over core g of 1_{Tg} plus a
    layer-cake residual, returned as [(coefficient, set)] with Fraction
    coefficients."""
    core = erode(F, T)
    terms = [(Fraction(1, len(T)), translate_right(T, g)) for g in core.elems]
    residual = [1 - Fraction(m, len(T)) for m in multiplicity(T, core, F).tolist()]
    if any(w < 0 for w in residual):
        raise ValueError("core translates overflow the target set")
    levels = sorted({w for w in residual if w > 0}, reverse=True)
    # peel superlevel sets from the top so coefficients stay positive
    for j, w in enumerate(levels):
        layer = F.take([wx >= w for wx in residual])
        coeff = w - (levels[j + 1] if j + 1 < len(levels) else Fraction(0))
        terms.append((coeff, layer))
    return terms


def indicator_identity_holds(E: FinSet, terms) -> bool:
    """Exact check that the weighted indicator sum reproduces 1_E."""
    support: dict = {}
    for a, Ei in terms:
        for x in Ei.elems:
            support[x] = support.get(x, 0) + Fraction(a)
    want = dict.fromkeys(E.elems, 1)
    return (want.keys() <= support.keys()
            and all(w == want.get(x, 0) for x, w in support.items()))


_DECOMPOSITION_SAMPLES = 50
_DECOMPOSITION_SEED = 11


def indicator_decomposition_check(fam: Family, system: System, E: FinSet,
                                  terms) -> dict:
    """Validate 1_E = sum a_i 1_{E_i} exactly, then test the induced value
    inequality d_E(y) <= sum a_i d_{E_i}(y) on sampled points."""
    if not indicator_identity_holds(E, terms):
        raise ValueError("indicator identity does not hold; decomposition bug")
    rng = np.random.default_rng(_DECOMPOSITION_SEED)
    pts = system.sample([rng] * _DECOMPOSITION_SAMPLES)  # one shared generator
    rhs = np.zeros(len(pts))
    for a, Ei in terms:  # summed term by term, in order
        rhs = rhs + float(a) * fam.sample_values(system, Ei, pts)
    gaps = fam.sample_values(system, E, pts) - rhs
    tol = 0.0 if fam.exact_values else 1e-9
    return {"ok": bool((gaps <= tol).all()), "max_violation": float(gaps.max()),
            "samples": _DECOMPOSITION_SAMPLES}
