"""Set-indexed families d_F(y) and their exact property classifier.

A family assigns a real value to each (finite set, point) pair, with the
convention d_empty = 0.  Built-ins cover the standard constructions: window
sums of an observable, window maxima, pure cardinality terms, sums plus a
cardinality term, maxima of two sums, truncations, and the two derived
families (singleton-sum defect, and its tile-composed refinement).

Properties (non-negativity, invariance, bi-invariance, monotonicity,
sub/sup-additivity, strong sub/sup-additivity) are certified by randomized
exact testing: every draw is evaluated exactly and a failing draw is
reported as an explicit counterexample.  A PASS is evidence, not proof;
declared properties are what the theorem gates consume.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._config import _INT, _NUM, _OBJ, _TWO_OBJS, _get, _kind, _one_of
from .groups import (FinSet, Group, diff, erode, intersect, multiplicity,
                     translate_left, translate_right, union)
from .systems import Observable, System, observable_from_json, split_leaves
from .tiling import TilingCert, compose, window_set

# a vectorized slab holds about _SLAB_CELLS cells (points x |F|), so that
# its word and symbol matrices stay in cache, and at most _SLAB_POINTS
# points: uncapped slabs of small sets raised the greedy covering's peak RSS
_SLAB_CELLS = 1 << 16
_SLAB_POINTS = 64


def _slabs(n: int, cells: int):
    """Slices of n points, at ``cells`` cells per point."""
    size = min(max(_SLAB_CELLS // cells, 1), _SLAB_POINTS)
    for s in range(0, n, size):
        yield slice(s, min(s + size, n))


class Family:
    """Base class: each family gives the scalar ``value(system, F, y)`` and
    overrides the vectorized paths it supports."""

    name: str = "family"
    declared: frozenset = frozenset()
    exact_values: bool = False  # values are exactly-represented floats

    def act(self, system: System, g, y):
        """Point translation matching right set translation (overridable)."""
        return system.apply(g, y)

    # vectorized paths -----------------------------------------------------

    def sample_values(self, system: System, F: FinSet, points: list) -> np.ndarray:
        """d_F(y) for a batch of points, split by mixture component."""
        out = np.empty(len(points))
        if F.is_empty:
            out.fill(0.0)
            return out
        for leaf, idx, batch in split_leaves(system, points):
            vals = np.empty(len(batch))
            for sl in _slabs(len(batch), len(F)):
                vals[sl] = self.leaf_values(leaf, batch.slice(sl), F)
            out[idx] = vals
        return out

    def leaf_values(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no vectorized path")

    def singleton_window(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        """Matrix of d_{{e}}(g . y_p) for g in F."""
        raise NotImplementedError(f"{self.name}: no singleton window path")


def evaluate(fam: Family, system: System, F: FinSet, y) -> float:
    if F.is_empty:
        return 0.0
    return fam.value(system, F, y)


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

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        return float(sum(self.obs.value(system, system.apply(g, y))
                         for g in F.elems))

    def leaf_values(self, leaf, batch, F):
        return self.obs.window_values(leaf, batch, F).sum(axis=1)

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

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        return float(max(self.obs.value(system, system.apply(g, y))
                         for g in F.elems))

    def leaf_values(self, leaf, batch, F):
        return self.obs.window_values(leaf, batch, F).max(axis=1)

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

    def value(self, system, F, y):
        return float(self.gamma(len(F)))

    def leaf_values(self, leaf, batch, F):
        return np.full(len(batch), float(self.gamma(len(F))))

    def singleton_window(self, leaf, batch, F):
        return np.full((len(batch), len(F)), float(self.gamma(1)))


class AdditivePlus(Family):
    """d_F(y) = window sum of f plus beta * gamma(|F|), gamma subadditive."""

    def __init__(self, obs: Observable, gamma: Callable, beta: float = 1.0,
                 gamma_name: str = "gamma"):
        beta = float(beta)
        if beta < 0:
            raise ValueError("beta must be non-negative")
        _check_gamma(gamma, concave=False)
        self.inner = AdditiveFamily(obs)
        self.gamma = gamma
        self.beta = beta
        self.name = f"additive_plus({obs.name},{gamma_name},{beta})"
        self.declared = frozenset({"invariant", "bi_invariant", "subadditive"})

    def value(self, system, F, y):
        return self.inner.value(system, F, y) + self.beta * float(self.gamma(len(F)))

    def leaf_values(self, leaf, batch, F):
        return (self.inner.leaf_values(leaf, batch, F)
                + self.beta * float(self.gamma(len(F))))

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

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        return max(self.a.value(system, F, y), self.b.value(system, F, y))

    def leaf_values(self, leaf, batch, F):
        return np.maximum(self.a.leaf_values(leaf, batch, F),
                          self.b.leaf_values(leaf, batch, F))

    def singleton_window(self, leaf, batch, F):
        return np.maximum(self.a.singleton_window(leaf, batch, F),
                          self.b.singleton_window(leaf, batch, F))


class Truncated(Family):
    """d_F(y) clipped below at -N * |F|."""

    def __init__(self, base: Family, N: int):
        if N <= 0:
            raise ValueError("truncation level must be positive")
        self.base = base
        self.N = int(N)
        self.name = f"truncated({base.name},{N})"
        self.declared = frozenset(
            {p for p in ("invariant", "bi_invariant", "subadditive")
             if p in base.declared})
        self.exact_values = base.exact_values

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        return max(-self.N * len(F), self.base.value(system, F, y))

    def leaf_values(self, leaf, batch, F):
        return np.maximum(-self.N * len(F), self.base.leaf_values(leaf, batch, F))

    def singleton_window(self, leaf, batch, F):
        return np.maximum(-self.N, self.base.singleton_window(leaf, batch, F))


@functools.lru_cache(maxsize=None)
def _identity_set(group: Group) -> FinSet:
    return FinSet(group, [group.identity()])


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

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        e = _identity_set(F.group)
        s = sum(self.base.value(system, e, system.apply(g, y)) for g in F.elems)
        return float(s) - self.base.value(system, F, y)

    def leaf_values(self, leaf, batch, F):
        return (self.base.singleton_window(leaf, batch, F).sum(axis=1)
                - self.base.leaf_values(leaf, batch, F))

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

    def act(self, system, g, y):
        return system.apply(self.cert.iso.apply(g), y)

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        big = compose(self.cert, F)
        s = self.prime.value(system, big, y)
        tile = self.cert.tile
        for g in F.elems:
            s -= self.prime.value(system, tile,
                                  system.apply(self.cert.iso.apply(g), y))
        return s

    def leaf_values(self, leaf, batch, F):
        # the tile at iso(g) . y is the translate T iso(g) at y: observables
        # see a point only through its cells, which agree cell for cell
        out = self.prime.leaf_values(leaf, batch, compose(self.cert, F))
        for g in F.elems:
            out -= self.prime.leaf_values(
                leaf, batch, translate_right(self.cert.tile, self.cert.iso.apply(g)))
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

    def value(self, system, F, y):
        if F.is_empty:
            return 0.0
        return self.base.value(system, F, y) - float(len(F)) ** 2

    def leaf_values(self, leaf, batch, F):
        return self.base.leaf_values(leaf, batch, F) - float(len(F)) ** 2

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


def _random_subset(rng, ground: FinSet, max_card: int) -> FinSet:
    k = int(rng.integers(1, max_card + 1))
    k = min(k, len(ground))
    idx = rng.choice(len(ground), size=k, replace=False)
    return ground.take(idx)


def classify(fam: Family, group: Group, system: System, trials: int = 300,
             max_card: int = 6, seed: int = 2024,
             properties: Sequence[str] = PROPERTIES) -> ClassifyReport:
    """Randomized exact property check with counterexample emission.

    Each trial draws (E, F, g, y), evaluates the family exactly on the
    handful of sets each property needs, and compares with tolerance 0 for
    exactly-representable families and 1e-12 otherwise.
    """
    span = 2  # radius of the sets' window and of the random translations
    ground = window_set(group, span, 3)
    tol = 0.0 if fam.exact_values else 1e-12
    state: dict = {p: {"fail": None, "max_gap": 0.0, "count": 0}
                   for p in properties}

    def record(prop, lhs, rhs, ok, ctx, t):
        st = state.get(prop)
        if st is None:
            return
        st["count"] += 1
        if ok:
            st["max_gap"] = max(st["max_gap"], abs(lhs - rhs))
        elif st["fail"] is None:
            st["fail"] = {"lhs": lhs, "rhs": rhs, "trial": t, **ctx()}

    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        E = _random_subset(rng, ground, max_card)
        F = _random_subset(rng, ground, max_card)
        g = group.random_elem(rng, span)
        y = system.sample_point(rng)
        # the counterexample context, built only for a first failure
        ctx = lambda E=E, F=F, g=g: {"E": E.to_json(), "F": F.to_json(),  # noqa: E731
                                     "g": group.elem_to_json(g), "seed": seed}

        vE = evaluate(fam, system, E, y)
        vF = evaluate(fam, system, F, y)
        U = union(E, F)
        I = intersect(E, F)
        vU = evaluate(fam, system, U, y)
        vI = evaluate(fam, system, I, y)

        if "nonnegative" in state:
            record("nonnegative", vE, 0.0, vE >= -tol, ctx, t)
            record("nonnegative", vF, 0.0, vF >= -tol, ctx, t)
        if "invariant" in state or "bi_invariant" in state:
            vEg = evaluate(fam, system, translate_right(E, g), y)
            vE_gy = fam.value(system, E, fam.act(system, g, y))
            inv_ok = abs(vEg - vE_gy) <= tol
            record("invariant", vEg, vE_gy, inv_ok, ctx, t)
            if "bi_invariant" in state:
                vgE = evaluate(fam, system, translate_left(g, E), y)
                record("bi_invariant", vgE, vEg,
                       inv_ok and abs(vgE - vEg) <= tol, ctx, t)
        if "monotone" in state:
            record("monotone", vE, vU, vE <= vU + tol, ctx, t)
            if not I.is_empty:
                record("monotone", vI, vF, vI <= vF + tol, ctx, t)
        if "strongly_subadditive" in state:
            record("strongly_subadditive", vU + vI, vE + vF,
                   vU + vI <= vE + vF + tol, ctx, t)
        if "strongly_supadditive" in state:
            record("strongly_supadditive", vU + vI, vE + vF,
                   vU + vI >= vE + vF - tol, ctx, t)
        if "subadditive" in state or "supadditive" in state:
            Fd = diff(F, E)
            if not Fd.is_empty:
                vFd = evaluate(fam, system, Fd, y)
                vUd = evaluate(fam, system, union(E, Fd), y)
                ctx2 = lambda Fd=Fd, ctx=ctx: dict(ctx(), F=Fd.to_json())  # noqa: E731
                record("subadditive", vUd, vE + vFd,
                       vUd <= vE + vFd + tol, ctx2, t)
                record("supadditive", vUd, vE + vFd,
                       vUd >= vE + vFd - tol, ctx2, t)

    verdicts = {}
    for p in properties:
        st = state[p]
        verdicts[p] = PropertyVerdict(
            prop=p,
            verdict="FAIL" if st["fail"] is not None else "PASS",
            trials=st["count"],
            max_gap=st["max_gap"],
            counterexample=st["fail"],
        )
    return ClassifyReport(family=fam.name, verdicts=verdicts, seed=seed,
                          declared=frozenset(fam.declared))


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


def indicator_decomposition_check(fam: Family, system: System, E: FinSet,
                                  terms, samples: int = 50,
                                  seed: int = 11) -> dict:
    """Validate 1_E = sum a_i 1_{E_i} exactly, then test the induced value
    inequality d_E(y) <= sum a_i d_{E_i}(y) on sampled points."""
    if not indicator_identity_holds(E, terms):
        raise ValueError("indicator identity does not hold; decomposition bug")
    worst = -math.inf
    ok = True
    rng = np.random.default_rng(seed)
    tol = 0.0 if fam.exact_values else 1e-9
    for _ in range(samples):
        y = system.sample_point(rng)
        lhs = evaluate(fam, system, E, y)
        rhs = sum(float(a) * evaluate(fam, system, Ei, y) for a, Ei in terms)
        gap = lhs - rhs
        worst = max(worst, gap)
        if gap > tol:
            ok = False
    return {"ok": ok, "max_violation": worst, "samples": samples}
