"""Pins of the set-function classifier's three verdicts, and checks that
its counterexamples are genuine.

The verdicts were taken from the per-trial ``FinSet`` classifier this one
replaced, on the registry's ten functions, four hand-rolled candidates and
three fixtures that fail each property (``card_sq``: sub-additivity;
``coord_sum`` and its float form: invariance), on six group kinds at seeds
5 and 6.  Each pin reads "invariant, subadditive, strongly_subadditive",
P for PASS and F for FAIL.
"""
import functools
from fractions import Fraction

import numpy as np
import pytest

from folnerlab.ergodic import SetFunction, _run_count, setfn_classify, setfn_registry
from folnerlab.groups import (CyclicSum, FinSet, ZPower, ZSum, intersect,
                              translate_right, union)

GROUPS = {"z1": ZPower(1), "z2": ZPower(2), "z3": ZPower(3),
          "cyclic2": CyclicSum((2,)), "cyclic32": CyclicSum((3, 2)), "zsum": ZSum()}
PROPS = ("invariant", "subadditive", "strongly_subadditive")
SEEDS = (5, 6)

# shapes beyond the registry, as in demos/07_separating_setfn_search.py
EXTRA = {
    "ceil_two_thirds": SetFunction(
        "ceil_two_thirds", lambda F: -((-2 * len(F)) // 3), exact=True),
    "card_capped_plateau": SetFunction(
        "card_capped_plateau", lambda F: min(len(F), 3) + min(len(F), 7), exact=True),
    "odd_penalty": SetFunction(
        "odd_penalty", lambda F: len(F) + (len(F) % 2), exact=True),
    "half_card_ceil": SetFunction(
        "half_card_ceil", lambda F: Fraction(len(F) + (len(F) % 2), 2), exact=True),
    "card_sq": SetFunction("card_sq", lambda F: float(len(F)) ** 2, True),
    "coord_sum": SetFunction("coord_sum", lambda F: int(F.rows().sum()), exact=True),
    "coord_sum_float": SetFunction("coord_sum_float",
                                   lambda F: float(F.rows().sum()) / 3),
}

PINS = {
    "z1": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPF", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "run_count": ("PPP", "PPP"),
        "sqrt_card": ("PPP", "PPP"),
    },
    "z2": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPF", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "sqrt_card": ("PPP", "PPP"),
    },
    "z3": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPP", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "sqrt_card": ("PPP", "PPP"),
    },
    "cyclic2": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPF", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "sqrt_card": ("PPP", "PPP"),
    },
    "cyclic32": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPF", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "sqrt_card": ("PPP", "PPP"),
    },
    "zsum": {
        "card": ("PPP", "PPP"),
        "card_capped_plateau": ("PPP", "PPP"),
        "card_plus_one": ("PPP", "PPP"),
        "card_plus_sqrt": ("PPP", "PPP"),
        "card_sq": ("PFF", "PFF"),
        "ceil_half_card": ("PPF", "PPF"),
        "ceil_two_thirds": ("PPP", "PPF"),
        "coord_sum": ("FPP", "FPP"),
        "coord_sum_float": ("FPP", "FPP"),
        "half_card": ("PPP", "PPP"),
        "half_card_ceil": ("PPF", "PPF"),
        "log1p_card": ("PPP", "PPP"),
        "min_card_5": ("PPP", "PPP"),
        "nonempty": ("PPP", "PPP"),
        "odd_penalty": ("PPF", "PPF"),
        "sqrt_card": ("PPP", "PPP"),
    },
}


CASES = {f"{g}-{n}": pins for g, fns in PINS.items() for n, pins in fns.items()}


def _functions(grp):
    return {**setfn_registry(grp), **EXTRA}


@functools.lru_cache(maxsize=None)
def _report(case: str, seed: int):
    gname, name = case.split("-", 1)
    grp = GROUPS[gname]
    f = _functions(grp)[name]
    return grp, f, setfn_classify(f, grp, seed=seed)


def test_pins_cover_every_function_on_every_group():
    for gname, grp in GROUPS.items():
        assert set(PINS[gname]) == set(_functions(grp)), gname


@pytest.mark.parametrize("case", CASES)
def test_setfn_verdicts_are_pinned(case):
    got = tuple("".join("P" if _report(case, s)[2].passed(p) else "F" for p in PROPS)
                for s in SEEDS)
    assert got == CASES[case]


def _finset(grp, sets_json) -> FinSet:
    if isinstance(grp, ZPower):
        return FinSet(grp, [tuple(e) for e in sets_json])
    return FinSet(grp, [tuple(map(tuple, e)) for e in sets_json])


def _elem(grp, g_json):
    return tuple(g_json) if isinstance(grp, ZPower) else tuple(map(tuple, g_json))


def _value(f, S: FinSet):
    return 0 if S.is_empty else (Fraction(f(S)) if f.exact else f(S))


@pytest.mark.parametrize("case", [c for c, pins in CASES.items() if "F" in "".join(pins)])
def test_counterexamples_are_genuine(case):
    # rebuild E, F and g from the JSON, evaluate f exactly, and check that
    # the named inequality fails with the reported lhs and rhs
    for seed in SEEDS:
        grp, f, rep = _report(case, seed)
        for p in PROPS:
            cex = rep.counterexample(p)
            assert (cex is None) == rep.passed(p), (p, seed)
            if cex is None:
                continue
            assert cex["seed"] == seed and 0 <= cex["trial"] < 200
            E, F, g = _finset(grp, cex["E"]), _finset(grp, cex["F"]), _elem(grp, cex["g"])
            tol = 0 if f.exact else 1e-12
            if p == "invariant":
                lhs, rhs = _value(f, translate_right(E, g)), _value(f, E)
                assert abs(lhs - rhs) > tol
            elif p == "subadditive":
                assert intersect(E, F).is_empty, "E and F overlap"
                lhs, rhs = _value(f, union(E, F)), _value(f, E) + _value(f, F)
                assert lhs > rhs + tol
            else:
                lhs = _value(f, union(E, F)) + _value(f, intersect(E, F))
                rhs = _value(f, E) + _value(f, F)
                assert lhs > rhs + tol
            assert (float(lhs), float(rhs)) == (cex["lhs"], cex["rhs"]), (p, seed)


def test_exact_functions_compare_in_fractions():
    # 3/10 + 6/10 == 9/10 exactly, but 0.3 + 0.6 < 0.9 in floats, so a float
    # comparison at tolerance 0 would fail this additive function
    assert 0.3 + 0.6 < 0.9
    tenth = SetFunction("tenth", lambda F: Fraction(len(F), 10), exact=True)
    rep = setfn_classify(tenth, ZPower(1))
    assert all(rep.passed(p) for p in PROPS), rep.verdicts


def _run_count_by_tuples(F: FinSet) -> int:
    cells = sorted(e[0] for e in F.elems)
    return sum(1 for i, c in enumerate(cells) if i == 0 or cells[i - 1] != c - 1)


def test_run_count_from_keys_matches_the_tuple_rule():
    rng = np.random.default_rng(7)
    z = ZPower(1)
    assert _run_count(FinSet(z, [])) == 0
    for _ in range(300):
        lo = int(rng.integers(-50, 50))
        cells = lo + rng.choice(40, size=int(rng.integers(1, 30)), replace=False)
        F = FinSet(z, [(int(c),) for c in cells])
        assert _run_count(F) == _run_count_by_tuples(F)
