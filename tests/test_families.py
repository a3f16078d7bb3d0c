"""Set-indexed families: the property classifier and exact decompositions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from folnerlab.families import (
    GAMMAS,
    PROPERTIES,
    AdditiveFamily,
    AdditivePlus,
    ConcaveCardinality,
    DerivedPrime,
    DerivedPrimeM,
    MaxFamily,
    MaxOfAdditives,
    MinusCardSquared,
    Truncated,
    classify,
    family_from_json,
)
from folnerlab.ergodic import sample_points, trajectory_matrix
from folnerlab.folner import make_folner
from folnerlab.groups import FinSet, ZPower, erode, multiplicity, product_set
from folnerlab.systems import (BernoulliShift, TorusRotation, indicator_symbol,
                               scaled, symbol_value, torus_coordinate)
from folnerlab.tiling import standard_cert
from lemma_checks import (box_core_decomposition, indicator_decomposition_check,
                          indicator_identity_holds)
from scalar_oracle import family_value, sample


def _group():
    return ZPower(1)


def _system():
    return BernoulliShift(_group(), (0.7, 0.3), seed=5)


def _seq():
    return make_folner(_group(), "z_boxes")


def _classify(fam, trials=150, seed=2024):
    return classify(fam, _group(), _system(), trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# classifier ground truths


def test_additive_family_satisfies_everything_exactly():
    rep = _classify(AdditiveFamily(symbol_value()))
    for prop in rep.verdicts:
        assert rep.passed(prop), prop
    # the additive identities hold to the last bit, not just within tolerance
    for prop in ("invariant", "bi_invariant", "subadditive",
                 "strongly_subadditive", "supadditive", "strongly_supadditive"):
        v = rep.verdicts[prop]
        assert v.passed and v.max_gap <= 1e-12, prop
    assert rep.declared_ok


def test_max_of_additives_is_subadditive_but_not_strongly():
    rep = _classify(MaxOfAdditives(symbol_value(), indicator_symbol(0)))
    assert rep.passed("subadditive")
    assert rep.passed("invariant")
    assert not rep.passed("strongly_subadditive")
    cex = rep.counterexample("strongly_subadditive")
    assert cex is not None and cex["lhs"] > cex["rhs"]
    assert rep.declared_ok  # the strong property was never declared


def test_sqrt_surcharge_keeps_strong_subadditivity():
    # concave cardinality surcharges preserve the submodular inequality
    rep = _classify(AdditivePlus(symbol_value(), math.sqrt, 1.0, "sqrt"))
    assert rep.passed("subadditive")
    assert rep.passed("strongly_subadditive")
    assert not rep.passed("supadditive")


def test_ceil_half_surcharge_breaks_strong_subadditivity():
    fam = AdditivePlus(symbol_value(), GAMMAS["ceil_half"], 1.0, "ceil_half")
    rep = _classify(fam)
    assert rep.passed("subadditive")
    assert not rep.passed("strongly_subadditive")
    cex = rep.counterexample("strongly_subadditive")
    assert set(cex) >= {"lhs", "rhs", "E", "F", "g", "seed"}
    assert rep.declared_ok


def test_concave_cardinality_verdicts():
    rep = _classify(ConcaveCardinality(math.sqrt, "sqrt"))
    assert rep.passed("strongly_subadditive") and rep.passed("monotone")
    assert not rep.passed("supadditive")


def test_minus_card_squared_stays_subadditive_but_unbounded_below():
    rep = _classify(MinusCardSquared(AdditiveFamily(symbol_value())))
    assert rep.passed("subadditive")
    assert rep.passed("invariant")
    assert not rep.passed("nonnegative")
    assert not rep.passed("monotone")
    assert not rep.passed("supadditive")
    assert rep.declared_ok


def test_derived_family_of_an_additive_base_vanishes():
    fam = DerivedPrime(AdditiveFamily(symbol_value()))
    system = _system()
    seq = _seq()
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        y = sample(system, [rng])
        assert fam.sample_values(system, seq.generate(n), y).tolist() == [0.0]
    rep = _classify(fam, trials=80)
    assert all(v.passed for v in rep.verdicts.values())


def test_classifier_is_deterministic():
    fam = MaxOfAdditives(symbol_value(), indicator_symbol(0))
    a = _classify(fam, trials=100, seed=7)
    b = _classify(fam, trials=100, seed=7)
    assert {p: v.verdict for p, v in a.verdicts.items()} == {
        p: v.verdict for p, v in b.verdicts.items()
    }
    assert a.counterexample("strongly_subadditive") == b.counterexample(
        "strongly_subadditive"
    )


def test_classifier_report_lists_declared():
    fam = AdditiveFamily(symbol_value())
    rep = _classify(fam, trials=30)
    assert rep.family == fam.name
    assert rep.declared == fam.declared
    assert tuple(rep.verdicts) == PROPERTIES


# ---------------------------------------------------------------------------
# tile-indexed derived families


def test_tile_derived_family_of_additive_base_vanishes():
    cert = standard_cert(_seq(), 3)
    fam = DerivedPrimeM(AdditiveFamily(symbol_value()), cert)
    rep = _classify(fam, trials=80)
    assert rep.passed("nonnegative") and rep.passed("supadditive")
    assert rep.passed("invariant")


def test_tile_derived_family_nonzero_base_is_invariant():
    cert = standard_cert(_seq(), 2)
    base = AdditivePlus(symbol_value(), math.sqrt, 1.0, "sqrt")
    fam = DerivedPrimeM(base, cert)
    rep = _classify(fam, trials=100)
    assert rep.passed("invariant")
    assert rep.passed("nonnegative")
    assert rep.passed("supadditive")
    assert rep.declared_ok


@pytest.mark.parametrize("system, observables", [
    (_system(), (indicator_symbol(1), indicator_symbol(0))),
    (TorusRotation(_group(), (0.3819660112501051,), seed=3),
     (torus_coordinate(0), scaled(torus_coordinate(0), 0.5))),
], ids=["bernoulli", "torus"])
def test_wrapped_tile_derived_family_samples_on_its_leaf_path(system, observables):
    # Truncated reaches DerivedPrimeM through leaf_values, on points with
    # different offsets, and matches the scalar oracle (on the torus the max
    # of two non-negative multiples is additive, so its values are all 0)
    cert = standard_cert(_seq(), 2)
    fam = Truncated(DerivedPrimeM(MaxOfAdditives(*observables), cert), 3)
    rng = np.random.default_rng(4)
    ys = sample(system, [rng] * 6)
    moves = np.asarray([[0]] * 6 + [[7]] * 6)
    pts = ys[np.arange(12) % 6].moved(system.group, moves)
    F = _seq().generate(4)
    vals = fam.sample_values(system, F, pts)
    ref = [family_value(fam, system, F, pts[i:i + 1]) for i in range(len(pts))]
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-12)
    assert any(v != 0 for v in ref) == isinstance(system, BernoulliShift)
    # a derived family over it reads its singleton values, which are 0
    outer = DerivedPrime(fam.base)
    np.testing.assert_allclose(outer.sample_values(system, F, pts),
                               [family_value(outer, system, F, pts[i:i + 1])
                                for i in range(len(pts))],
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# exact translate combinatorics


def test_translate_multiplicity_frozen():
    z = _group()
    T = FinSet(z, ((0,), (1,)))
    TT = product_set(T, T)
    assert dict(zip(TT.elems, multiplicity(T, T, TT).tolist())) == {
        (0,): 1, (1,): 2, (2,): 1}


def test_folner_core_shrinks_by_tile_width():
    z = _group()
    T = FinSet(z, ((0,), (1,)))
    core = erode(_seq().generate(10), T)
    assert core.elems == tuple((i,) for i in range(9))


def test_box_core_decomposition_covers_exactly():
    z = _group()
    T = FinSet(z, ((0,), (1,)))
    F = _seq().generate(10)
    terms = box_core_decomposition(F, T)
    assert len(terms) == 10
    assert all(c == Fraction(1, 2) for c, _ in terms)
    # interior translates plus one wrap-around remainder pair
    assert sorted(terms[-1][1].elems) == [(0,), (9,)]
    assert indicator_identity_holds(F, terms)


def test_box_core_decomposition_transfers_to_family_values():
    fam = AdditiveFamily(symbol_value())
    system = _system()
    F = _seq().generate(10)
    terms = box_core_decomposition(F, FinSet(_group(), ((0,), (1,))))
    out = indicator_decomposition_check(fam, system, F, terms)
    assert out["ok"] and out["max_violation"] == 0.0


def test_indicator_identity_detects_bad_terms():
    z = _group()
    F = _seq().generate(4)
    bad = [(Fraction(1, 1), FinSet(z, ((0,), (1,))))]
    assert not indicator_identity_holds(F, bad)


# ---------------------------------------------------------------------------
# truncation


def test_truncation_clips_at_linear_floor():
    system = _system()
    base = AdditivePlus(symbol_value(), lambda k: -3.0 * k, 1.0, "steep_drop")
    fam = Truncated(base, 1)
    F = _seq().generate(4)
    y = sample(system, [np.random.default_rng(0)])
    [raw] = base.sample_values(system, F, y)
    assert raw < -4.0
    assert fam.sample_values(system, F, y).tolist() == [-4.0]  # clipped at -N |F|
    loose = Truncated(base, 100)
    assert loose.sample_values(system, F, y).tolist() == [raw]


def test_truncation_level_must_be_positive():
    with pytest.raises(ValueError):
        Truncated(AdditiveFamily(symbol_value()), 0)


@pytest.mark.parametrize("N", [0.5, 2.0, True, -1, "3"])
def test_truncation_level_must_be_a_positive_integer(N):
    # 0.5 used to pass the sign check and clip at int(0.5) == 0
    with pytest.raises(ValueError, match="truncation level must be a positive integer"):
        Truncated(AdditiveFamily(symbol_value()), N)


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_additive_plus_beta_must_be_finite_and_nonnegative(beta):
    with pytest.raises(ValueError):
        AdditivePlus(symbol_value(), math.sqrt, beta, "sqrt")


# ---------------------------------------------------------------------------
# evaluation and serialization


def test_normalized_evaluation():
    # the runners' normalized values d_F(y) / |F| are the scalar values over |F|
    system = _system()
    fam = AdditiveFamily(symbol_value())
    F = _seq().generate(8)
    pts = sample_points(system, 5, seed=1)
    V = trajectory_matrix(fam, system, _seq(), [8], pts)
    assert V[:, 0].tolist() == [family_value(fam, system, F, pts[i:i + 1]) / 8
                                for i in range(len(pts))]
    assert fam.sample_values(system, FinSet(_group(), ()), pts).tolist() == [0.0] * 5


_ADDITIVE = {"kind": "additive", "observable": {"kind": "symbol_value"}}


def test_family_json_roundtrip():
    cases = [
        (_ADDITIVE, AdditiveFamily(symbol_value())),
        ({"kind": "max", "observable": {"kind": "symbol_value"}},
         MaxFamily(symbol_value())),
        ({"kind": "additive_plus", "gamma": "sqrt", "beta": 0.5,
          "observable": {"kind": "indicator_symbol", "symbol": 1}},
         AdditivePlus(indicator_symbol(1), math.sqrt, 0.5, "sqrt")),
        ({"kind": "concave_cardinality", "gamma": "log1p"},
         ConcaveCardinality(GAMMAS["log1p"], "log1p")),
        ({"kind": "max_of_additives",
          "observables": [{"kind": "symbol_value"},
                          {"kind": "indicator_symbol", "symbol": 0}]},
         MaxOfAdditives(symbol_value(), indicator_symbol(0))),
        ({"kind": "truncated", "base": _ADDITIVE, "N": 2},
         Truncated(AdditiveFamily(symbol_value()), 2)),
        ({"kind": "derived_prime", "base": _ADDITIVE},
         DerivedPrime(AdditiveFamily(symbol_value()))),
        ({"kind": "minus_card_squared", "base": _ADDITIVE},
         MinusCardSquared(AdditiveFamily(symbol_value()))),
    ]
    for d, fam in cases:
        back = family_from_json(d)
        assert back.name == fam.name
        assert back.declared == fam.declared


def test_family_json_errors():
    with pytest.raises(ValueError):
        family_from_json({"kind": "no_such_family"})
    # derived_prime_m needs a tiling certificate, which no config can give
    with pytest.raises(ValueError, match="kind must be one of"):
        family_from_json({"kind": "derived_prime_m", "base": _ADDITIVE})
