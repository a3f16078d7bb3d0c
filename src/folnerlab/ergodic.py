"""Statistical and combinatorial verification engine for averaging limits.

What is exact here is exact: the greedy covering construction, its counting
inequality, deterministic set-function values, and truncation monotonicity
are integer/rational arithmetic with zero tolerance.  What is statistical is
labelled as such: pointwise limits are sampled trajectories under common
random numbers, means carry standard errors, and infima over infinite
collections are reported as anytime enumeration trends with an explicit
"stabilized" flag.  Hypothesis gates are mandatory: every runner checks the
assumptions it needs and raises GateRefusal naming the missing one instead
of producing numbers outside its contract.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ._bits import _Streams
from .families import (AdditiveFamily, ClassifyReport, DerivedPrimeM, Family,
                       Truncated, _report, _trial_masks, classify)
from .folner import (FolnerSeq, _inverse_unions, make_folner, tempelman_report,
                     tempered_report)
from .groups import (EnumBudget, FinSet, Group, _box_shell, _key_sums, _padded_boxes,
                     _sum_box, enumerate_finsets, erode, intersect, is_subset,
                     product_set, union)
from .systems import Observable, Points, System, split_leaves
from .tiling import compose, enumerate_tiles, standard_cert, window_set


class GateRefusal(RuntimeError):
    """A theorem hypothesis could not be verified; names what is missing."""

    def __init__(self, hypothesis: str, detail: str = "", extra: Optional[dict] = None):
        super().__init__(f"{hypothesis}: {detail}" if detail else hypothesis)
        self.hypothesis = hypothesis
        self.detail = detail
        self.extra = extra or {}


def _require(fam: Family, seq: FolnerSeq, system: System,
             report: Optional[ClassifyReport], props=(),
             detail: str = "classifier found a violation") -> ClassifyReport:
    """Classify the family unless a report is given, refuse on the first
    property it did not pass, and return the report."""
    if report is None:
        report = classify(fam, seq.group, system)
    for prop in props:
        if not report.passed(prop):
            raise GateRefusal(f"family {prop}", detail,
                              {"counterexample": report.counterexample(prop)})
    return report


def _require_tiling(seq: FolnerSeq, indices) -> None:
    for n in indices:
        if standard_cert(seq, n) is None:
            raise GateRefusal("tiling sequence",
                              f"no tiling certificate at index {n}")


_STABLE_EPS = 1e-9


def _anytime_min(values):
    """Running minimum of a stream: (best, trend, stabilized), where the
    trend counts as stabilized once its second half moved by <= _STABLE_EPS."""
    best, trend = None, []
    for v in values:
        best = v if best is None or v < best else best
        trend.append(best)
    if best is None:
        raise ValueError("no candidate sets enumerated")
    half = len(trend) // 2
    stabilized = len(trend) >= 2 and float(trend[half]) - float(trend[-1]) <= _STABLE_EPS
    return best, trend, stabilized


def thread_cap() -> int:
    """Always 1: the benchmark records it; ROADMAP item 4b deletes it."""
    return 1


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "n_samples": self.n_samples, "seed": self.seed}


def _estimate(values: np.ndarray, seed: int) -> Estimate:
    n = len(values)
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    return Estimate(float(values.mean()), sd / math.sqrt(n), n, seed)


def sample_points(system: System, samples: int, seed: int) -> Points:
    """Common-random-number points: sample i always uses substream [seed, i]."""
    return system.substream_points(seed, np.arange(samples))


def trajectory_matrix(fam: Family, system: System, seq: FolnerSeq,
                      schedule: Sequence[int], points: Points) -> np.ndarray:
    """Normalized values d_{F_n}(y)/|F_n| for each point (row) and scheduled
    index (column).

    An additive family whose observable counts its sums (``sum_fn``), on
    nested boxes (each F_n a box inside the next), evaluates each point on
    each cell of the last box once: on the shells F_1, F_2 \\ F_1, ..., each
    a few boxes, whose exact counts add up to each d_{F_n}(y)."""
    sets = [seq.generate(n) for n in schedule]
    counted = isinstance(fam, AdditiveFamily) and fam.obs.sum_fn is not None
    if counted and all(F.is_box for F in sets) and all(
            is_subset(E, F) for E, F in zip(sets, sets[1:])):
        # built one at a time, so that only one shell's cell keys are held
        shells = itertools.chain([sets[:1]], map(_box_shell, sets[1:], sets))
        sums = np.cumsum(np.column_stack([
            sum((fam.sample_values(system, B, points) for B in shell),
                np.zeros(len(points))) for shell in shells]), axis=1)
    else:
        sums = np.column_stack([fam.sample_values(system, F, points) for F in sets])
    return sums / [len(F) for F in sets]


# ---------------------------------------------------------------------------
# Deterministic set functions and their limits


@dataclass(frozen=True)
class SetFunction:
    name: str
    fn: Callable
    exact: bool = False  # values are Fractions/ints -> exact arithmetic

    def __call__(self, F: FinSet):
        return self.fn(F)

    def normalized(self, F: FinSet):
        v = self.fn(F)
        if self.exact:
            return Fraction(v) / len(F)
        return float(v) / len(F)


def _run_count(F: FinSet) -> int:
    # on the line a set's keys are its cells less the least one, in order
    return int((np.diff(F.keys) != 1).sum()) + (not F.is_empty)


def setfn_registry(group: Group) -> dict:
    """Named deterministic set functions used by limit experiments."""
    reg = {
        "card": SetFunction("card", lambda F: len(F), exact=True),
        "card_plus_one": SetFunction("card_plus_one", lambda F: len(F) + 1, exact=True),
        "half_card": SetFunction("half_card", lambda F: Fraction(len(F), 2), exact=True),
        "sqrt_card": SetFunction("sqrt_card", lambda F: math.sqrt(len(F))),
        "log1p_card": SetFunction("log1p_card", lambda F: math.log1p(len(F))),
        "min_card_5": SetFunction("min_card_5", lambda F: min(len(F), 5), exact=True),
        "nonempty": SetFunction("nonempty", lambda F: 0 if F.is_empty else 1,
                                exact=True),
        "card_plus_sqrt": SetFunction("card_plus_sqrt",
                                      lambda F: len(F) + math.sqrt(len(F))),
        "ceil_half_card": SetFunction("ceil_half_card",
                                      lambda F: -(-len(F) // 2), exact=True),
    }
    from .groups import ZPower
    if isinstance(group, ZPower) and group.d == 1:
        reg["run_count"] = SetFunction("run_count", _run_count, exact=True)
    return reg


def setfn_classify(f: SetFunction, group: Group, seed: int = 5) -> ClassifyReport:
    """Exact randomized checks of right-invariance and (strong)
    sub-additivity for a deterministic set function: 200 trials, sets of at
    most 6 elements from the radius-3 window, translations of span 3.  Trial
    t draws |E|, |F|, E, F and g from its stream [seed, t], all at once; the
    sets are masks over one window, as in ``classify``, and f is evaluated
    once per distinct set (in Fractions when exact, the empty set read as 0)."""
    trials, max_card, span = 200, 6, 3
    ground = window_set(group, span, 3)
    streams = _Streams(seed, np.arange(trials))
    on, n = streams.all, len(ground)
    ks = [np.minimum(streams.bounded(max_card - 1, on) + 1, n) for _ in "EF"]
    picks = [streams.choice(n, k, on) for k in ks]
    gs = group.random_elems(streams, span, on)
    W, E, F, Eg = _trial_masks(group, ground, picks, gs)
    Fd = F & ~E
    rows = np.concatenate((E, F, Eg, E | F, E & F, Fd))
    packed = np.packbits(rows, axis=1)  # one fixed-width byte string per set
    _, first, inv = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                              return_index=True, return_inverse=True)
    sets = map(W.take, map(np.flatnonzero, rows[first]))
    vals = np.array([0 if S.is_empty else Fraction(f(S)) if f.exact else f(S)
                     for S in sets], dtype=object)
    vE, vF, vEg, vU, vI, vFd = vals[inv.ravel()].reshape(6, trials)
    tol = 0 if f.exact else 1e-12
    every = np.ones(trials, dtype=bool)
    joint, apart, split = vU + vI, vE + vF, vE + vFd
    checks = {"invariant": [(vEg, vE, np.abs(vEg - vE) <= tol, every)],
              "subadditive": [(vU, split, vU <= split + tol, Fd.any(axis=1))],
              "strongly_subadditive": [(joint, apart, joint <= apart + tol, every)]}
    return _report(f.name, checks, checks, W, E, F, gs, seed)


@dataclass(frozen=True)
class LimitReport:
    name: str
    seq_values: tuple       # normalized values along the sequence
    limit_value: float      # last sequence value
    inf_value: float        # best enumerated normalized value
    inf_trend: tuple        # running minimum over the enumeration
    gap: float              # |limit_value - inf_value|
    stabilized: bool        # enumeration trend flattened
    status: str             # "converged" | "inconclusive"


def _setfn_gate(f: SetFunction, group: Group, prop: str,
                report: Optional[ClassifyReport] = None) -> None:
    """Refuse unless f passed invariance and ``prop``, with the witness of
    the first of the two that failed."""
    rep = report if report is not None else setfn_classify(f, group)
    for p in ("invariant", prop):
        if not rep.passed(p):
            raise GateRefusal(f"setfn {prop}+invariant",
                              "set function failed exact checks",
                              {"counterexample": rep.counterexample(p)})


def _limit_from_enumeration(f: SetFunction, seq: FolnerSeq, indices,
                            candidates) -> LimitReport:
    seq_vals = [f.normalized(seq.generate(n)) for n in indices]
    best, trend, stabilized = _anytime_min(f.normalized(T) for T in candidates)
    limit = float(seq_vals[-1])
    inf_v = float(best)
    gap = abs(limit - inf_v)
    status = "converged" if gap <= 0.05 * (1.0 + abs(limit)) else "inconclusive"
    return LimitReport(name=f.name, seq_values=tuple(seq_vals),
                       limit_value=limit, inf_value=inf_v,
                       inf_trend=tuple(float(t) for t in trend), gap=gap,
                       stabilized=stabilized, status=status)


def setfn_limit_tiling(f: SetFunction, seq: FolnerSeq, indices,
                       max_card: int = 12, max_index: int = 4,
                       report: Optional[ClassifyReport] = None) -> LimitReport:
    """Normalized limit along a tiling sequence against the infimum over
    enumerated tiles."""
    _setfn_gate(f, seq.group, "subadditive", report)
    _require_tiling(seq, indices)
    tiles = [c.tile for c in enumerate_tiles(seq.group, max_card, max_index)]
    return _limit_from_enumeration(f, seq, indices, tiles)


def setfn_limit_strong(f: SetFunction, seq: FolnerSeq, indices,
                       budget: Optional[EnumBudget] = None,
                       ladder_sets: Optional[list] = None,
                       report: Optional[ClassifyReport] = None) -> LimitReport:
    """Normalized limit along any Folner sequence against the infimum over
    enumerated finite sets (strong sub-additivity route).

    The candidate collection is the exhaustive budgeted stream plus any
    caller-supplied ladder of larger sets (the exhaustive stream alone cannot
    reach the cardinalities that cardinality-driven functions need).
    """
    _setfn_gate(f, seq.group, "strongly_subadditive", report)
    if budget is None:
        budget = EnumBudget(max_card=4, lo=-2, hi=2, max_index=2, max_sets=4000)
    sets = list(enumerate_finsets(seq.group, budget))
    if ladder_sets:
        sets.extend(ladder_sets)
    return _limit_from_enumeration(f, seq, indices, sets)


# ---------------------------------------------------------------------------
# nu estimation and ergodic decomposition


def _nu_gate(report: ClassifyReport, seq: FolnerSeq, indices) -> None:
    """An invariant family must be strongly sub/sup-additive, or plainly
    sub/sup-additive along a tiling sequence."""
    strong = (report.passed("strongly_subadditive")
              or report.passed("strongly_supadditive"))
    plain = report.passed("subadditive") or report.passed("supadditive")
    if not (report.passed("invariant") and (strong or plain)):
        raise GateRefusal("family properties",
                          "need (sub/sup-additive + invariant) or strongly "
                          "sub/sup-additive + invariant")
    if not strong and any(standard_cert(seq, n) is None for n in indices):
        raise GateRefusal("tiling sequence",
                          "plain sub/sup-additive families need a tiling "
                          "Folner sequence")


def nu_estimate(fam: Family, seq: FolnerSeq, system: System, n: int,
                samples: int, seed: int = 99,
                report: Optional[ClassifyReport] = None) -> Estimate:
    """Monte Carlo estimate of the normalized mean value at index n; the
    points depend on the seed alone, so estimates at several indices share
    them (common random numbers)."""
    _nu_gate(_require(fam, seq, system, report), seq, [n])
    F = seq.generate(n)
    pts = sample_points(system, samples, seed)
    return _estimate(fam.sample_values(system, F, pts) / len(F), seed)


def ergodic_decomposition_check(fam: Family, system: System, seq: FolnerSeq,
                                n: int, samples: int, seed: int = 17) -> dict:
    """Mixture-level normalized mean vs the weighted per-component means.

    The family is classified once, on the mixture: each leaf's points are
    points of the mixture's space, so the mixture's report gates every leaf."""
    comps = system.components()
    report = classify(fam, seq.group, system)
    lhs = nu_estimate(fam, seq, system, n, samples, seed, report)
    rhs_mean = 0.0
    rhs_var = 0.0
    parts = []
    for k, (w, leaf) in enumerate(comps):
        est = nu_estimate(fam, seq, leaf, n, samples, seed + 1 + k, report)
        rhs_mean += w * est.mean
        rhs_var += (w * est.stderr) ** 2
        parts.append({"weight": w, "estimate": est.to_json()})
    combined = math.sqrt(lhs.stderr ** 2 + rhs_var)
    gap = abs(lhs.mean - rhs_mean)
    return {"mixture": lhs.to_json(), "weighted_components": rhs_mean,
            "components": parts, "gap": gap, "combined_stderr": combined,
            "ok": bool(gap <= 4.0 * combined + 1e-12)}


# ---------------------------------------------------------------------------
# Greedy covering construction and the maximal inequality


@dataclass(frozen=True)
class GreedyCoverReport:
    n: int
    alpha: float
    N: int
    core_size: int              # |F_n*|
    classes: tuple              # C_i, as subsets of the core
    chosen: tuple               # C_i', as subsets of the core
    exceed_count: int           # |{g in F_n*: some normalized value > alpha}|
    union_bound: Fraction       # sum_i |U_{j<=i} F_j^{-1}F_i| * |C_i'|
    tempelman_bound: Fraction   # M * sum_i |F_i| * |C_i'|
    covered: bool               # coverage inclusion verified exactly
    value_chain_ok: Optional[bool]  # d_{F_n}(y) > alpha * sum |F_i||C_i'|

    @property
    def inequality_ok(self) -> bool:
        return (Fraction(self.exceed_count) <= self.union_bound
                <= self.tempelman_bound)

    def to_json(self) -> dict:
        return {"n": self.n, "alpha": self.alpha, "N": self.N,
                "core_size": self.core_size,
                "class_sizes": [len(c) for c in self.classes],
                "chosen_sizes": [len(c) for c in self.chosen],
                "exceed_count": self.exceed_count,
                "union_bound": float(self.union_bound),
                "tempelman_bound": float(self.tempelman_bound),
                "covered": self.covered,
                "inequality_ok": self.inequality_ok,
                "value_chain_ok": self.value_chain_ok}


def greedy_cover(fam: Family, system: System, y: Points, seq: FolnerSeq, n: int,
                 alpha: float, N: int) -> GreedyCoverReport:
    """Exceedance classes and backward maximal disjoint packings, at the
    one point of ``y``.

    Classes assign each core element to its first index whose normalized
    value exceeds alpha; the packings are built from the last class down,
    each maximal among translates disjoint from everything already kept.
    The resulting integer inequality is checked exactly, with the exact
    Tempelman witness over the first N indices as the constant M.
    """
    grp, Fn = seq.group, seq.generate(n)
    windows = [seq.generate(i) for i in range(1, N + 1)]
    R = functools.reduce(union, windows)  # R g lies inside F_n iff every F_i g does
    core = intersect(Fn, erode(Fn, R))  # {g in F_n : F_i g inside F_n for i <= N}
    if core.is_empty:
        raise GateRefusal("non-empty core", f"index {n} too small for N={N}")
    width = max(X.width for X in (core, *windows))
    rows = core.rows(width)

    # first-exceedance classes over the core, as positions in core order;
    # values[i][c] is d_{F_i} at y moved by core element c, sampled while c is free
    pts = y[np.zeros(len(core), dtype=np.int64)].moved(grp, rows)
    free = np.ones(len(core), dtype=bool)
    class_pos, values = [], []
    for Fi in windows:
        values.append(np.zeros(len(core)))
        values[-1][free] = fam.sample_values(system, Fi, pts[free])
        class_pos.append(np.flatnonzero(free & (values[-1] / len(Fi) > alpha)))
        free[class_pos[-1]] = False

    # backward greedy maximal disjoint packings, on one occupancy array over
    # the keys of a box that holds core * (F_1 u ... u F_N)
    lo, ext = _sum_box(grp, *_padded_boxes(core, R))
    occupied = np.zeros(math.prod(ext), dtype=bool)
    chosen_pos = [None] * N
    for i in range(N - 1, -1, -1):
        keep = []
        cells = _key_sums(grp, rows[class_pos[i]], windows[i].rows(width), lo, ext)
        for c, k in zip(class_pos[i].tolist(), cells):
            if not occupied[k].any():
                keep.append(c)
                occupied[k] = True
        chosen_pos[i] = keep

    # exact counting: coverage inclusion and both inequality sides; the
    # unions U_i also give the exact Tempelman witness over the first N indices
    union_bound = Fraction(0)
    temp_bound = Fraction(0)
    witness = Fraction(0)
    cover = FinSet(grp)
    chosen = tuple(core.take(pos) for pos in chosen_pos)
    for (Fi, Ui), Ci in zip(_inverse_unions(seq, N), chosen):
        witness = max(witness, Fraction(len(Ui), len(Fi)))
        union_bound += Fraction(len(Ui)) * len(Ci)
        temp_bound += Fraction(len(Fi)) * len(Ci)
        cover = union(cover, product_set(Ui, Ci))
    temp_bound *= witness
    exceed = sum(len(pos) for pos in class_pos)
    covered = is_subset(core.take(np.concatenate(class_pos)), cover)

    value_chain_ok: Optional[bool] = None
    total_weight = sum(len(w) * len(pos) for w, pos in zip(windows, chosen_pos))
    if total_weight > 0:
        dfn = fam.sample_values(system, Fn, y)[0]
        picked = 0.0
        for vals, pos in zip(values, chosen_pos):
            for c in pos:
                picked += vals[c]
        value_chain_ok = bool(dfn >= picked - 1e-9
                              and picked > alpha * total_weight)

    return GreedyCoverReport(
        n=n, alpha=float(alpha), N=N, core_size=len(core),
        classes=tuple(core.take(pos) for pos in class_pos), chosen=chosen,
        exceed_count=exceed, union_bound=union_bound, tempelman_bound=temp_bound,
        covered=covered, value_chain_ok=value_chain_ok)


@dataclass(frozen=True)
class MaximalReport:
    alpha: float
    N: int
    empirical_mass: float
    mass_stderr: float
    bound: float
    nu_term: float
    M: float
    ok: bool
    greedy_witness_stats: tuple

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "N": self.N,
                "empirical_mass": self.empirical_mass,
                "mass_stderr": self.mass_stderr, "bound": self.bound,
                "nu_term": self.nu_term, "M": self.M, "ok": self.ok,
                "greedy_witness_stats": [g.to_json()
                                         for g in self.greedy_witness_stats]}


def maximal_inequality_check(fam: Family, seq: FolnerSeq, system: System,
                             alpha: float, N: int, samples: int,
                             seed: int = 31,
                             M: Optional[float] = None,
                             nu_term: Optional[float] = None,
                             report: Optional[ClassifyReport] = None,
                             greedy_instances: int = 3) -> MaximalReport:
    """Empirical mass of the exceedance set against the covering bound.

    The family must pass non-negative + sup-additive + invariant checks.
    The bound constant defaults to the exact Tempelman witness over the
    first N indices; callers may override it (e.g. the integer-line variant
    admits constant 1).
    """
    report = _require(fam, seq, system, report,
                      ("nonnegative", "supadditive", "invariant"),
                      "maximal inequality needs a non-negative sup-additive "
                      "invariant family")
    if M is None:
        M = float(tempelman_report(seq, N).witness)
    if nu_term is None:
        est = nu_estimate(fam, seq, system, max(N, 8), min(samples, 2000),
                          seed + 1, report)
        nu_term = est.mean + 4.0 * est.stderr  # upper confidence value
    pts = sample_points(system, samples, seed)
    exceed = np.zeros(len(pts), dtype=bool)
    for k in range(1, N + 1):
        Fk = seq.generate(k)
        vals = fam.sample_values(system, Fk, pts) / len(Fk)
        exceed |= vals > alpha
    mass = float(exceed.mean())
    se = math.sqrt(max(mass * (1 - mass), 1.0 / samples) / samples)
    bound = (M / alpha) * nu_term
    ys = system.substream_points(seed, 10_000 + np.arange(greedy_instances))
    stats = [greedy_cover(fam, system, ys[j:j + 1], seq, max(2 * N, 6), alpha, N)
             for j in range(greedy_instances)]
    ok = (mass <= bound + 4.0 * se
          and all(s.inequality_ok and s.covered for s in stats))
    return MaximalReport(alpha=float(alpha), N=N, empirical_mass=mass,
                         mass_stderr=se, bound=float(bound),
                         nu_term=float(nu_term), M=float(M), ok=bool(ok),
                         greedy_witness_stats=tuple(stats))


# ---------------------------------------------------------------------------
# Trajectory-based convergence runners


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    schedule: tuple
    col_means: tuple
    terminal: Estimate
    converged_frac: float
    osc_tol: float
    target_summary: dict
    within_frac: Optional[float]
    tol: float
    l1: tuple
    l1_decreasing: Optional[bool]
    gates: dict
    passed: bool
    extra: dict = field(default_factory=dict)


def _cauchy_stats(V: np.ndarray, tail: int, osc_tol: Optional[float]):
    tail = min(tail, V.shape[1])
    block = V[:, -tail:]
    osc = block.max(axis=1) - block.min(axis=1)
    if osc_tol is None:
        spread = float(V.max() - V.min()) if V.size else 1.0
        osc_tol = 0.02 * max(1.0, spread)
    return float((osc <= osc_tol).mean()), float(osc_tol)


def _validate_schedule(schedule):
    schedule = [int(n) for n in schedule]
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing, length >= 2")
    return schedule


def birkhoff_check(obs: Observable, seq: FolnerSeq, system: System,
                   schedule, samples: int, seed: int = 7,
                   tol: float = 0.05, tail: int = 3,
                   osc_tol: Optional[float] = None) -> ConvergenceReport:
    """Pointwise averaging check: trajectories of window averages against the
    per-component expectation, each component's ``_leaf_target`` on the
    one-cell set {e}."""
    schedule = _validate_schedule(schedule)
    witness = _tempered_gate(seq, schedule)
    fam = AdditiveFamily(obs)
    pts = sample_points(system, samples, seed)
    V = trajectory_matrix(fam, system, seq, schedule, pts)
    origin = [FinSet(system.group, [system.group.identity()])]
    comps = [(w, _leaf_target(fam, leaf, origin, seed + 1 + 1009 * (k + 1))[0])
             for k, (w, leaf) in enumerate(system.components())]
    targets = np.array([m for _, m in comps])[pts.leaf]
    dev = np.abs(V - targets[:, None])
    within = float((dev[:, -1] <= tol).mean())
    l1 = dev.mean(axis=0)
    conv_frac, osc_tol_v = _cauchy_stats(V, tail, osc_tol)
    term = _estimate(V[:, -1], seed)
    l1_dec = bool(l1[-1] <= l1[0] + 1e-12)
    passed = within >= 0.95 and l1_dec
    gates = {"tempered_witness": float(witness), "tempered_ok": True}
    return ConvergenceReport(
        kind="pointwise_average", schedule=tuple(schedule),
        col_means=tuple(V.mean(axis=0)), terminal=term,
        converged_frac=conv_frac, osc_tol=osc_tol_v,
        target_summary={"mean": sum(w * m for w, m in comps), "components": comps},
        within_frac=within, tol=tol, l1=tuple(l1), l1_decreasing=l1_dec,
        gates=gates, passed=bool(passed))


def _tempered_gate(seq: FolnerSeq, schedule) -> Fraction:
    """The exact tempered witness, or a refusal when the growth ratios look
    divergent."""
    upto = min(max(schedule), 12) if seq.seq_kind != "explicit" else len(schedule)
    rep = tempered_report(seq, max(2, upto))
    if not rep.ok:
        raise GateRefusal("tempered sequence",
                          "growth ratios diverge at the budget",
                          {"witness": float(rep.witness)})
    return rep.witness


def _condition_b_gaps(seq: FolnerSeq, schedule) -> list:
    from .tiling import condition_b_witness
    m = schedule[0]
    gaps = []
    for p in schedule[-2:]:
        if p <= m:
            continue
        w = condition_b_witness(seq, m, p)
        gaps.append({"m": m, "p": p, "n1": w.n1, "n2": w.n2,
                     "gap": float(w.gap)})
    if len(gaps) >= 2 and gaps[-1]["gap"] > gaps[0]["gap"] + 1e-12:
        raise GateRefusal("sandwich witnesses",
                          "composition gap not shrinking along the schedule",
                          {"gaps": gaps})
    return gaps


_TILE_BUDGET = (6, 3)  # (max_card, max_index) of the candidate tiles
_CONC_SAMPLES = 400  # points per leaf of a candidate infimum
_LADDER_LEVELS = (1, 2, 4, 8)  # kingman_run's truncations below its nu floor
_TEMPELMAN_CAP = 256.0  # kingman_run's bound on the scheduled growth ratios


def _leaf_target(fam: Family, leaf: System, candidates, seed: int):
    """(inf, stabilized) on one leaf: the observable's exact mean where an
    additive family has one, since every candidate's normalized mean is then
    exactly that integral; else the anytime infimum over candidate sets of
    the normalized mean on ``_CONC_SAMPLES`` points of substream ``seed``."""
    m0 = fam.obs.exact_mean(leaf) if isinstance(fam, AdditiveFamily) else None
    if m0 is not None:
        return float(m0), True
    lpts = sample_points(leaf, _CONC_SAMPLES, seed)
    inf, _, stabilized = _anytime_min(
        float(fam.sample_values(leaf, T, lpts).mean()) / len(T) for T in candidates)
    return inf, stabilized


def _leaf_targets(fam: Family, system: System, pts, candidates, seed: int):
    """Per-point infimum targets via the leaf decomposition: on each leaf,
    the anytime infimum over candidate sets of the normalized mean.

    Returns (targets array, list of per-leaf info dicts, all_ergodic,
    all_stabilized)."""
    targets = np.full(len(pts), np.nan)
    infos = []
    for k, (leaf, idx, _) in enumerate(split_leaves(system, pts)):
        inf, stabilized = _leaf_target(fam, leaf, candidates, seed + 1009 * (k + 1))
        infos.append({"n_points": int(len(idx)), "inf": inf,
                      "stabilized": stabilized, "ergodic": leaf.ergodic})
        targets[np.asarray(idx)] = inf
    return (targets, infos, all(i["ergodic"] for i in infos),
            all(i["stabilized"] for i in infos))


def _self_similar_certs(seq: FolnerSeq, indices) -> dict:
    """The standard certificate at each index, or a refusal naming the
    indices whose certificate is missing or has no self-similar isomorphism."""
    certs = {n: standard_cert(seq, n) for n in indices}
    missing = [n for n, c in certs.items() if c is None or c.iso is None]
    if missing:
        raise GateRefusal("self-similar tiling sequence",
                          f"no self-similar certificate at indices {missing}")
    return certs


def _composition_chain_ok(seq: FolnerSeq, schedule, certs: dict) -> bool:
    """Each scheduled set is the previous one composed with some generator set
    (exact set equality); this is the hypothesis behind the mean-deviation
    conclusion.  No composition here overlaps: each certificate is a box at
    the origin with its self-similar isomorphism, and each F a box at the
    origin."""
    limit = 4 * max(schedule)
    for a, b in zip(schedule, schedule[1:]):
        big, cert = seq.generate(b), certs[a]
        if not any(len(cert.tile) * len(F) == len(big) and compose(cert, F) == big
                   for F in map(seq.generate, range(1, limit + 1))):
            return False
    return True


def kingman_run(fam: Family, seq: FolnerSeq, system: System, schedule,
                samples: int, seed: int = 7, tol: float = 0.05,
                tail: int = 3, osc_tol: Optional[float] = None,
                nu_floor: float = -25.0,
                report: Optional[ClassifyReport] = None) -> ConvergenceReport:
    """Normalized sub-additive averages along a self-similar tiling schedule.

    Every hypothesis is machine-checked before any trajectory is sampled:
    declared family properties, tiling certificates at each scheduled index,
    boundedness of the inverse-union growth ratios on the scheduled
    subsequence, and shrinking sandwich gaps.  Of the theorem's three
    routes (bi-invariance, strong sub-additivity, a subgroup product) the
    first always holds: every group here is abelian, so an invariant family
    is bi-invariant, and ``gates["route"]`` is ``"bi_invariant"``.
    If the normalized mean, probed on 400 points at the last index, dives
    below `nu_floor` the runner switches to the truncation ladder and
    reports that instead of a bogus limit.  An additive family of a
    non-negative observable cannot, when the floor is <= 0: its probe is
    gated but not sampled.
    """
    schedule = _validate_schedule(schedule)
    gates: dict = {}

    report = _require(fam, seq, system, report, ("subadditive", "invariant"))
    gates["classify"] = True

    certs = _self_similar_certs(seq, schedule)
    gates["tiling_certs"] = True

    sub = make_folner(seq.group, "explicit",
                      sets=tuple(seq.generate(n) for n in schedule))
    growth = tempelman_report(sub, len(schedule))
    if not growth.ok or growth.witness > _TEMPELMAN_CAP:
        raise GateRefusal("bounded inverse-union growth",
                          "ratios diverge on the scheduled subsequence",
                          {"ratios": [float(r) for r in growth.ratios]})
    gates["tempelman_witness"] = float(growth.witness)

    gates["condition_b_gaps"] = _condition_b_gaps(seq, schedule)
    gates["route"] = "bi_invariant"  # abelian: invariance, gated above

    # the probe is read only against the floor, which values that are
    # non-negative by construction never dive below when it is <= 0
    if nu_floor <= 0 and isinstance(fam, AdditiveFamily) and fam.obs.nonneg:
        _nu_gate(report, seq, [schedule[-1]])
    elif (probe := nu_estimate(fam, seq, system, schedule[-1], min(samples, 400),
                               seed + 211, report)).mean < nu_floor:
        ladder = truncation_ladder(fam, seq, system, schedule, _LADDER_LEVELS,
                                   samples, seed)
        gates["nu_floor_breached"] = probe.mean
        top = ladder["levels"][-1]
        return ConvergenceReport(
            kind="truncation_ladder", schedule=tuple(schedule),
            col_means=tuple(top["col_means"]),
            terminal=Estimate(**top["terminal"]),
            converged_frac=0.0, osc_tol=0.0,
            target_summary={"nu_probe": probe.to_json()},
            within_frac=None, tol=tol, l1=(), l1_decreasing=None,
            gates=gates, passed=bool(ladder["ok"]),
            extra={"ladder": ladder})

    pts = sample_points(system, samples, seed)
    V = trajectory_matrix(fam, system, seq, schedule, pts)
    conv_frac, osc_tol_v = _cauchy_stats(V, tail, osc_tol)
    terminal = _estimate(V[:, -1], seed)

    ref = nu_estimate(fam, seq, system, schedule[-1], min(samples, 1000),
                      seed + 101, report)
    nu_gap = abs(terminal.mean - ref.mean)
    nu_sigma = math.sqrt(terminal.stderr ** 2 + ref.stderr ** 2)
    nu_ok = nu_gap <= 4.0 * nu_sigma + 1e-12

    tiles = [c.tile for c in enumerate_tiles(seq.group, *_TILE_BUDGET)]
    targets, leaf_infos, all_erg, all_stab = _leaf_targets(
        fam, system, pts, tiles, seed)
    dev = np.abs(V - targets[:, None])
    within = float((dev[:, -1] <= tol).mean())
    l1 = dev.mean(axis=0)
    l1_dec = bool(l1[-1] <= l1[0] + 1e-12)
    gates["l1_chain"] = _composition_chain_ok(seq, schedule, certs)

    concentration_binding = all_erg and all_stab
    passed = (conv_frac >= 0.95 and nu_ok
              and (within >= 0.95 if concentration_binding else True))
    extra = {"nu_reference": ref.to_json(), "nu_gap": nu_gap,
             "leaf_targets": leaf_infos}
    if not all_stab:
        extra["inf_not_stabilized"] = True
    return ConvergenceReport(
        kind="subadditive_average", schedule=tuple(schedule),
        col_means=tuple(V.mean(axis=0)), terminal=terminal,
        converged_frac=conv_frac, osc_tol=osc_tol_v,
        target_summary={"leaves": leaf_infos},
        within_frac=within, tol=tol, l1=tuple(l1), l1_decreasing=l1_dec,
        gates=gates, passed=bool(passed), extra=extra)


def truncation_ladder(fam: Family, seq: FolnerSeq, system: System, schedule,
                      levels, samples: int, seed: int = 7) -> dict:
    """Clipped families max(-N|F|, d_F) share points with the base run.

    Clipping is pointwise monotone in the level, every normalized mean is
    bounded below by -N, and the double infimum over (level, index) of the
    mean matrix is order-independent; all three are checked exactly.
    """
    schedule = _validate_schedule(schedule)
    levels = sorted(int(N) for N in levels)
    if not levels or levels[0] <= 0:
        raise ValueError("levels must be positive")
    pts = sample_points(system, samples, seed)
    mats = []
    out_levels = []
    for N in levels:
        famN = Truncated(fam, N)
        V = trajectory_matrix(famN, system, seq, schedule, pts)
        mats.append(V)
        out_levels.append({"N": N, "col_means": [float(v) for v in V.mean(axis=0)],
                           "terminal": _estimate(V[:, -1], seed).to_json(),
                           "floor_ok": bool((V >= -N - 1e-9).all())})
    monotone = all(bool((mats[i] >= mats[i + 1] - 1e-12).all())
                   for i in range(len(mats) - 1))
    mean_matrix = np.array([lvl["col_means"] for lvl in out_levels])
    inf_by_level = mean_matrix.min(axis=1)
    inf_by_index = mean_matrix.min(axis=0)
    double_inf_ok = bool(abs(inf_by_level.min() - inf_by_index.min()) <= 1e-12)
    level_infs_decreasing = bool(
        (np.diff(inf_by_level) <= 1e-12).all())
    ok = (monotone and double_inf_ok and level_infs_decreasing
          and all(lvl["floor_ok"] for lvl in out_levels))
    return {"levels": out_levels, "pointwise_monotone": monotone,
            "double_infimum_ok": double_inf_ok,
            "level_infs_decreasing": level_infs_decreasing,
            "inf_by_level": [float(v) for v in inf_by_level],
            "ok": bool(ok), "seed": seed}


def limsup_identity_check(fam: Family, seq: FolnerSeq, system: System,
                          mode: str, schedule, samples: int, seed: int = 13,
                          tol: float = 0.05,
                          budget: Optional[EnumBudget] = None,
                          report: Optional[ClassifyReport] = None) -> dict:
    """Tail running maximum of normalized values against the enumerated
    infimum of normalized mean values.

    mode "bi_invariant": needs bi-invariance + sub-additivity and a tempered
    tiling sequence; candidates are tiles.  mode "strongly_subadditive":
    needs strong sub-additivity + invariance and temperedness; candidates are
    arbitrary finite sets.
    """
    if mode not in ("bi_invariant", "strongly_subadditive"):
        raise ValueError(f"unknown mode {mode!r}")
    schedule = _validate_schedule(schedule)
    report = _require(fam, seq, system, report,
                      ("bi_invariant", "subadditive") if mode == "bi_invariant"
                      else ("strongly_subadditive", "invariant"))
    witness = _tempered_gate(seq, schedule)
    if mode == "bi_invariant":
        _require_tiling(seq, schedule)
        candidates = [c.tile for c in enumerate_tiles(seq.group, *_TILE_BUDGET)]
    else:
        if budget is None:
            budget = EnumBudget(max_card=4, lo=-2, hi=2, max_index=2,
                                max_sets=3000)
        # a list: each leaf of a mixture runs its own infimum over them
        candidates = list(enumerate_finsets(seq.group, budget))

    pts = sample_points(system, samples, seed)
    V = trajectory_matrix(fam, system, seq, schedule, pts)
    tail = max(2, len(schedule) // 2)
    tail_max = V[:, -tail:].max(axis=1)

    targets, leaf_infos, all_erg, all_stab = _leaf_targets(
        fam, system, pts, candidates, seed)
    within = float((np.abs(tail_max - targets) <= tol).mean())

    integral = _estimate(tail_max, seed)
    ref = nu_estimate(fam, seq, system, schedule[-1], min(samples, 1000),
                      seed + 101, report)
    int_gap = abs(integral.mean - ref.mean)
    int_sigma = math.sqrt(integral.stderr ** 2 + ref.stderr ** 2)
    integral_ok = int_gap <= 4.0 * int_sigma + tol / 2

    binding = all_erg and all_stab
    passed = (within >= 0.95 if binding else True) and integral_ok
    return {"mode": mode, "schedule": schedule,
            "tempered_witness": float(witness),
            "tail_max_mean": integral.mean, "tail_max_stderr": integral.stderr,
            "leaf_targets": leaf_infos, "within_frac": within, "tol": tol,
            "integral_reference": ref.to_json(), "integral_gap": int_gap,
            "integral_ok": bool(integral_ok),
            "inf_stabilized": bool(all_stab), "passed": bool(passed)}


def dprime_m_diagnostics(fam: Family, seq: FolnerSeq, system: System,
                         m_indices, n_index: int, samples: int,
                         seed: int = 19,
                         report: Optional[ClassifyReport] = None) -> dict:
    """Normalized means of the tile-composed defect refinements.

    For each tile index m the refined defect is evaluated at a fixed index
    set, normalized by both cardinalities; the sequence of estimates must
    trend to zero for the mean-deviation argument to close.  Each refinement
    is also classifier-checked (non-negative, sup-additive, invariant along
    the center subgroup).
    """
    _require(fam, seq, system, report, ("subadditive", "invariant"))
    m_indices = sorted(int(m) for m in m_indices)
    certs = _self_similar_certs(seq, m_indices)
    Fn = seq.generate(n_index)
    pts = sample_points(system, samples, seed)
    rows = []
    prev = None
    decreasing = True
    for m in m_indices:
        cert = certs[m]
        famm = DerivedPrimeM(fam, cert)
        vals = famm.sample_values(system, Fn, pts) / (len(cert.tile) * len(Fn))
        est = _estimate(vals, seed)
        rep = classify(famm, seq.group, system, trials=120,
                       properties=("nonnegative", "supadditive", "invariant"))
        rows.append({"m": m, "tile_card": len(cert.tile),
                     "estimate": est.to_json(),
                     "classify_ok": rep.declared_ok,
                     "verdicts": {p: rep.verdicts[p].verdict
                                  for p in ("nonnegative", "supadditive",
                                            "invariant")}})
        if prev is not None and est.mean > prev + 4.0 * est.stderr + 1e-9:
            decreasing = False
        prev = est.mean
    last = rows[-1]["estimate"]
    vanishing = abs(last["mean"]) <= max(0.05, 6.0 * last["stderr"])
    ok = decreasing and all(r["classify_ok"] for r in rows)
    return {"n_index": n_index, "rows": rows, "decreasing": decreasing,
            "vanishing_trend": bool(vanishing), "ok": bool(ok), "seed": seed}
