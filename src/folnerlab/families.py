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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import (FinSet, Group, diff, finset, intersect, inverse_set,
                     product_set, translate_left, translate_right, union)
from .systems import Observable, System, observable_from_json, split_leaves
from .tiling import TilingCert, compose, window_set

_CHUNK = 64  # points per vectorized slab; bounds (chunk x |F|) working memory


def _chunks(n: int, size: int = _CHUNK):
    for s in range(0, n, size):
        yield slice(s, min(s + size, n))


class Family:
    name: str = "family"
    declared: frozenset = frozenset()
    exact_values: bool = False  # values are exactly-represented floats

    def value(self, system: System, F: FinSet, y) -> float:
        raise NotImplementedError

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
            for sl in _chunks(len(batch)):
                vals[sl] = self.leaf_values(leaf, batch.slice(sl), F)
            out[idx] = vals
        return out

    def leaf_values(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no vectorized path")

    def singleton_window(self, leaf: System, batch, F: FinSet) -> np.ndarray:
        """Matrix of d_{{e}}(g . y_p) for g in F."""
        raise NotImplementedError(f"{self.name}: no singleton window path")

    def to_json(self) -> dict:
        raise NotImplementedError


def evaluate(fam: Family, system: System, F: FinSet, y) -> float:
    if F.is_empty:
        return 0.0
    return fam.value(system, F, y)


def evaluate_normalized(fam: Family, system: System, F: FinSet, y) -> float:
    if F.is_empty:
        raise ValueError("normalized evaluation needs a non-empty set")
    return evaluate(fam, system, F, y) / len(F)


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

    def to_json(self):
        return {"kind": "additive", "observable": self.obs.to_json()}


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

    def to_json(self):
        return {"kind": "max", "observable": self.obs.to_json()}


def _check_gamma(gamma: Callable, *, concave: bool, upto: int = 64):
    if abs(gamma(0)) > 1e-12:
        raise ValueError("cardinality term must vanish at 0")
    vals = [float(gamma(k)) for k in range(upto + 1)]
    if concave:
        for k in range(1, upto):
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
        self.gamma_name = gamma_name
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

    def to_json(self):
        return {"kind": "concave_cardinality", "gamma": self.gamma_name}


class AdditivePlus(Family):
    """d_F(y) = window sum of f plus beta * gamma(|F|), gamma subadditive."""

    def __init__(self, obs: Observable, gamma: Callable, beta: float = 1.0,
                 gamma_name: str = "gamma"):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        _check_gamma(gamma, concave=False)
        self.inner = AdditiveFamily(obs)
        self.gamma = gamma
        self.gamma_name = gamma_name
        self.beta = float(beta)
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

    def to_json(self):
        return {"kind": "additive_plus", "observable": self.inner.obs.to_json(),
                "gamma": self.gamma_name, "beta": self.beta}


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

    def to_json(self):
        return {"kind": "max_of_additives",
                "observables": [self.a.obs.to_json(), self.b.obs.to_json()]}


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

    def to_json(self):
        return {"kind": "truncated", "base": self.base.to_json(), "N": self.N}


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
        e = finset(F.group, [F.group.identity()])
        s = sum(self.base.value(system, e, system.apply(g, y)) for g in F.elems)
        return float(s) - self.base.value(system, F, y)

    def leaf_values(self, leaf, batch, F):
        return (self.base.singleton_window(leaf, batch, F).sum(axis=1)
                - self.base.leaf_values(leaf, batch, F))

    def singleton_window(self, leaf, batch, F):
        # d'_{e}(y) = d_{e}(e.y) - d_{e}(y)
        return np.zeros((len(batch), len(F)))

    def to_json(self):
        return {"kind": "derived_prime", "base": self.base.to_json()}


class DerivedPrimeM(Family):
    """Tile-composed refinement of the singleton-sum defect.

    Indexed by sets F in the plain group; evaluates the defect family at the
    composed set tile * iso(F) and subtracts the per-cell defect of the tile
    itself at the iso-translated points.  Invariance holds along the center
    subgroup, so `act` routes translations through the isomorphism.
    """

    def __init__(self, base: Family, cert: TilingCert):
        if cert.iso is None:
            raise ValueError("composition requires a self-similar certificate")
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

    def sample_values(self, system, F, points):
        if F.is_empty:
            return np.zeros(len(points))
        big = compose(self.cert, F)
        out = self.prime.sample_values(system, big, points)
        tile = self.cert.tile
        for g in F.elems:
            moved = [system.apply(self.cert.iso.apply(g), y) for y in points]
            out -= self.prime.sample_values(system, tile, moved)
        return out

    def to_json(self):
        return {"kind": "derived_prime_m", "base": self.prime.base.to_json(),
                "tile_card": len(self.cert.tile)}


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

    def to_json(self):
        return {"kind": "minus_card_squared", "base": self.base.to_json()}


GAMMAS = {
    "sqrt": math.sqrt,
    "linear": float,
    "log1p": math.log1p,
    "ceil_half": lambda k: float(math.ceil(k / 2)),  # subadditive, not concave
}


def family_from_json(d: dict, cert: Optional[TilingCert] = None) -> Family:
    kind = d.get("kind")
    if kind == "additive":
        return AdditiveFamily(observable_from_json(d["observable"]))
    if kind == "max":
        return MaxFamily(observable_from_json(d["observable"]))
    if kind == "concave_cardinality":
        name = d["gamma"]
        return ConcaveCardinality(GAMMAS[name], name)
    if kind == "additive_plus":
        name = d.get("gamma", "sqrt")
        return AdditivePlus(observable_from_json(d["observable"]), GAMMAS[name],
                            float(d.get("beta", 1.0)), name)
    if kind == "max_of_additives":
        o1, o2 = d["observables"]
        return MaxOfAdditives(observable_from_json(o1), observable_from_json(o2))
    if kind == "truncated":
        return Truncated(family_from_json(d["base"], cert), int(d["N"]))
    if kind == "derived_prime":
        return DerivedPrime(family_from_json(d["base"], cert))
    if kind == "derived_prime_m":
        if cert is None:
            raise ValueError("derived_prime_m needs a tiling certificate")
        return DerivedPrimeM(family_from_json(d["base"]), cert)
    if kind == "minus_card_squared":
        return MinusCardSquared(family_from_json(d["base"], cert))
    raise ValueError(f"unknown family kind {kind!r}")


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

    @property
    def exact_equality(self) -> bool:
        return self.passed and self.max_gap <= 1e-12

    def to_json(self) -> dict:
        return {"property": self.prop, "verdict": self.verdict,
                "trials": self.trials, "max_gap": self.max_gap,
                "counterexample": self.counterexample}


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

    def to_json(self) -> dict:
        return {"family": self.family, "seed": self.seed,
                "declared": sorted(self.declared),
                "properties": {p: v.to_json() for p, v in self.verdicts.items()}}


def _random_subset(rng, ground: list, max_card: int, grp: Group) -> FinSet:
    k = int(rng.integers(1, max_card + 1))
    k = min(k, len(ground))
    idx = rng.choice(len(ground), size=k, replace=False)
    return finset(grp, [ground[i] for i in idx])


def classify(fam: Family, group: Group, system: System, trials: int = 300,
             max_card: int = 6, span: int = 2, seed: int = 2024,
             properties: Sequence[str] = PROPERTIES) -> ClassifyReport:
    """Randomized exact property check with counterexample emission.

    Each trial draws (E, F, g, y), evaluates the family exactly on the
    handful of sets each property needs, and compares with tolerance 0 for
    exactly-representable families and 1e-12 otherwise.
    """
    ground = list(window_set(group, span, 3).elems)
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
            st["fail"] = {"lhs": lhs, "rhs": rhs, "trial": t, **ctx}

    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        E = _random_subset(rng, ground, max_card, group)
        F = _random_subset(rng, ground, max_card, group)
        g = group.random_elem(rng, span)
        y = system.sample_point(rng)
        ctx = {"E": E.to_json(), "F": F.to_json(),
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
                ctx2 = dict(ctx, F=Fd.to_json())
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


def translate_multiplicity(T: FinSet, E: FinSet) -> dict:
    """Multiplicity map of the product multiset T * E: both the sum of
    left-translate indicators and the sum of right-translate indicators
    equal this function."""
    grp = T.group
    out: dict = {}
    for t in T.elems:
        for e in E.elems:
            x = grp.mul(t, e)
            out[x] = out.get(x, 0) + 1
    return out


def folner_core(F: FinSet, T: FinSet) -> FinSet:
    """Elements g with T*g entirely inside F."""
    grp = F.group
    inside = F.as_set()
    cands = product_set(inverse_set(T), F)
    keep = [g for g in cands.elems
            if all(grp.mul(t, g) in inside for t in T.elems)]
    return finset(grp, keep)


def box_core_decomposition(F: FinSet, T: FinSet):
    """Exact decomposition 1_F = (1/|T|) * sum over core g of 1_{Tg} plus a
    layer-cake residual, returned as [(coefficient, set)] with Fraction
    coefficients."""
    grp = F.group
    core = folner_core(F, T)
    mult: dict = {x: 0 for x in F.elems}
    for g in core.elems:
        for t in T.elems:
            mult[grp.mul(t, g)] += 1
    terms = [(Fraction(1, len(T)), translate_right(T, g)) for g in core.elems]
    residual = {x: 1 - Fraction(m, len(T)) for x, m in mult.items()}
    if any(w < 0 for w in residual.values()):
        raise ValueError("core translates overflow the target set")
    levels = sorted({w for w in residual.values() if w > 0}, reverse=True)
    # peel superlevel sets from the top so coefficients stay positive
    for j, w in enumerate(levels):
        layer = finset(grp, [x for x, wx in residual.items() if wx >= w])
        coeff = w - (levels[j + 1] if j + 1 < len(levels) else Fraction(0))
        terms.append((coeff, layer))
    return terms


def indicator_identity_holds(E: FinSet, terms) -> bool:
    """Exact check that the weighted indicator sum reproduces 1_E."""
    grp = E.group
    support: dict = {}
    for a, Ei in terms:
        a = Fraction(a) if not isinstance(a, Fraction) else a
        for x in Ei.elems:
            support[x] = support.get(x, Fraction(0)) + a
    for x, w in support.items():
        if w != (1 if x in E else 0):
            return False
    return all(x in support for x in E.elems)


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
