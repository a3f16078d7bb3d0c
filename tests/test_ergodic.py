"""Limit theorems: set-function infima, maximal bounds, and trajectory runs."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import ergodic
from folnerlab.ergodic import (
    GateRefusal,
    SetFunction,
    birkhoff_check,
    dprime_m_diagnostics,
    ergodic_decomposition_check,
    greedy_cover,
    kingman_run,
    limsup_identity_check,
    maximal_inequality_check,
    nu_estimate,
    sample_points,
    setfn_classify,
    setfn_limit_strong,
    setfn_limit_tiling,
    setfn_registry,
    trajectory_matrix,
    truncation_ladder,
)
from folnerlab.families import (
    GAMMAS,
    AdditiveFamily,
    AdditivePlus,
    PROPERTIES,
    ClassifyReport,
    DerivedPrime,
    Family,
    MaxOfAdditives,
    PropertyVerdict,
    Truncated,
)
from folnerlab.folner import make_folner
from folnerlab.groups import (CyclicSum, FinSet, ZPower, ZSum, intersect,
                              union)
from folnerlab.systems import (
    BernoulliShift,
    FiniteMixture,
    TorusRotation,
    indicator_symbol,
    neg_pow_run,
    scaled,
    symbol_value,
    torus_coordinate,
)
from folnerlab.tiling import standard_cert

GOLDEN = (math.sqrt(5) - 1) / 2


def _z():
    return ZPower(1)


def _seq():
    return make_folner(_z(), "z_boxes")


def _system():
    return BernoulliShift(_z(), (0.7, 0.3), seed=5)


def _additive():
    return AdditiveFamily(symbol_value())


def _sqrt_family():
    return AdditivePlus(symbol_value(), math.sqrt, 1.0, "sqrt")


def _two_bernoulli_mixture():
    return FiniteMixture(
        [
            (0.5, BernoulliShift(_z(), (0.75, 0.25), seed=1)),
            (0.5, BernoulliShift(_z(), (0.25, 0.75), seed=2)),
        ],
        seed=3,
    )


# ---------------------------------------------------------------------------
# set-function fixtures and exact limits


def test_setfn_registry_contents():
    reg = setfn_registry(_z())
    assert set(reg) == {
        "card", "card_plus_one", "card_plus_sqrt", "ceil_half_card",
        "half_card", "sqrt_card", "log1p_card", "min_card_5", "nonempty",
        "run_count",
    }
    # runs of consecutive integers only make sense on the line
    assert "run_count" not in setfn_registry(ZPower(2))


def test_setfn_classify_fixtures():
    reg = setfn_registry(_z())
    rep = setfn_classify(reg["card_plus_one"], _z())
    assert isinstance(rep, ClassifyReport) and rep.family == "card_plus_one"
    assert set(rep.verdicts) == {"invariant", "subadditive", "strongly_subadditive"}
    assert all(v.passed and v.counterexample is None for v in rep.verdicts.values())
    rep = setfn_classify(reg["ceil_half_card"], _z())
    assert rep.passed("invariant") and rep.passed("subadditive")
    assert not rep.passed("strongly_subadditive")
    cex = rep.counterexample("strongly_subadditive")
    assert set(cex) == {"lhs", "rhs", "trial", "E", "F", "g", "seed"}
    assert cex["lhs"] > cex["rhs"] and cex["E"] and cex["F"] and cex["seed"] == 5


def test_setfn_classify_is_deterministic():
    reg = setfn_registry(_z())
    a = setfn_classify(reg["ceil_half_card"], _z(), seed=5)
    b = setfn_classify(reg["ceil_half_card"], _z(), seed=5)
    assert a == b


def test_tiling_limit_card_plus_one():
    reg = setfn_registry(_z())
    rep = setfn_limit_tiling(reg["card_plus_one"], _seq(), [4, 8, 16, 32, 64])
    assert rep.seq_values[-1] == 1.015625  # (64 + 1) / 64
    assert rep.inf_value == pytest.approx(13 / 12)  # best tile within budget
    assert rep.status == "converged"
    assert rep.stabilized


def test_tiling_limit_run_count_needs_wide_tiles():
    reg = setfn_registry(_z())
    narrow = setfn_limit_tiling(reg["run_count"], _seq(), [4, 8, 16, 32, 64])
    assert narrow.status == "inconclusive"  # budget-limited infimum is 1/12
    wide = setfn_limit_tiling(reg["run_count"], _seq(), [4, 8, 16, 32, 64],
                              max_card=24)
    assert wide.status == "converged"
    assert wide.inf_value == pytest.approx(1 / 24)
    assert wide.seq_values[-1] == pytest.approx(1 / 64)


def test_strong_limit_sqrt_card_with_candidate_ladder():
    reg = setfn_registry(_z())
    seq = _seq()
    indices = [4, 16, 64, 256, 1024]
    ladder = [seq.generate(k) for k in indices]
    rep = setfn_limit_strong(reg["sqrt_card"], seq, indices, ladder_sets=ladder)
    # both routes land on sqrt(1024)/1024 exactly
    assert rep.limit_value == 0.03125
    assert rep.inf_value == 0.03125
    assert rep.gap == 0.0
    assert rep.status == "converged"
    assert not rep.stabilized  # the infimum was still falling at the budget edge


def test_strong_limit_exhaustive_budget_alone_is_inconclusive():
    reg = setfn_registry(_z())
    rep = setfn_limit_strong(reg["sqrt_card"], _seq(), [4, 16, 64, 256, 1024])
    assert rep.status == "inconclusive"
    assert rep.inf_value == 0.5  # best two-point set in the default budget


def test_strong_limit_agrees_across_sequences():
    reg = setfn_registry(_z())
    indices = [4, 16, 64, 256, 1024]
    ladder = [_seq().generate(k) for k in indices]
    plain = setfn_limit_strong(reg["sqrt_card"], _seq(), indices,
                               ladder_sets=ladder)
    anchored = setfn_limit_strong(
        reg["sqrt_card"], make_folner(_z(), "z_boxes", anchors="squares"),
        indices, ladder_sets=ladder)
    assert abs(plain.limit_value - anchored.limit_value) <= 1e-9


def test_setfn_limits_refuse_non_subadditive_input():
    bad = SetFunction("card_sq", lambda F: float(len(F)) ** 2, True)
    with pytest.raises(GateRefusal) as exc:
        setfn_limit_tiling(bad, _seq(), [2, 4, 8])
    assert exc.value.hypothesis == "setfn subadditive+invariant"
    with pytest.raises(GateRefusal):
        setfn_limit_strong(bad, _seq(), [2, 4, 8])


def test_inf_trend_is_monotone_nonincreasing():
    reg = setfn_registry(_z())
    rep = setfn_limit_tiling(reg["half_card"], _seq(), [4, 8, 16])
    trend = rep.inf_trend
    assert all(trend[i + 1] <= trend[i] + 1e-15 for i in range(len(trend) - 1))


# ---------------------------------------------------------------------------
# sampling infrastructure


def test_sample_points_prefix_stability():
    system = _system()
    a, b = sample_points(system, 5, 123), sample_points(system, 10, 123)[:5]
    for f in ("leaf", "offsets", "cfgs", "bases"):
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


def test_sample_points_peak_allocation_is_small():
    # 10^4 Bernoulli points peak near 1.8 MiB of traced allocations (the
    # seeding columns are freed before the generator states step); holding
    # one numpy generator per point would take near 10 MiB
    system = _system()
    tracemalloc.start()
    try:
        sample_points(system, 10_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_trajectory_matrix_bit_identity():
    fam = _additive()
    system = _system()
    pts = sample_points(system, 40, 3)
    a = trajectory_matrix(fam, system, _seq(), [2, 8, 32], pts)
    b = trajectory_matrix(fam, system, _seq(), [2, 8, 32], pts)
    assert a.shape == (40, 3)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# integral estimates


def test_nu_estimate_matches_exact_mean():
    est = nu_estimate(_additive(), _seq(), _system(), 64, 400, seed=99)
    assert est.stderr > 0
    assert abs(est.mean - 0.3) <= 4 * est.stderr


def test_nu_trend_decreases_for_concave_surcharge():
    # normalized means are 0.3 + 1/sqrt(n), strictly falling along the schedule
    trend = [nu_estimate(_sqrt_family(), _seq(), _system(), n, samples=200, seed=99)
             for n in (4, 16, 64, 256)]
    means = [t.mean for t in trend]
    assert all(b < a for a, b in zip(means, means[1:]))
    assert means[-1] == pytest.approx(0.3 + 1 / 16, abs=0.02)


# ---------------------------------------------------------------------------
# ergodic decomposition


def test_decomposition_splits_two_bernoulli_mixture():
    out = ergodic_decomposition_check(_additive(), _two_bernoulli_mixture(),
                                      _seq(), 64, 400, seed=17)
    assert out["ok"]
    assert out["gap"] <= 4 * out["combined_stderr"]
    means = sorted(c["estimate"]["mean"] for c in out["components"])
    assert means[0] == pytest.approx(0.25, abs=0.03)
    assert means[1] == pytest.approx(0.75, abs=0.03)
    assert out["weighted_components"] == pytest.approx(0.5, abs=0.03)


# ---------------------------------------------------------------------------
# covering lemma and maximal inequality


def test_greedy_cover_inequality_chain_random_points():
    fam = _additive()
    system = _system()
    pts = sample_points(system, 3, 41)
    for i in range(len(pts)):
        rep = greedy_cover(fam, system, pts[i:i + 1], _seq(), 40, 0.2, 4)
        assert rep.covered and rep.value_chain_ok, i
        assert rep.core_size == 37
        assert rep.exceed_count <= rep.union_bound <= rep.tempelman_bound
        assert isinstance(rep.union_bound, Fraction)
        assert isinstance(rep.tempelman_bound, Fraction)


def test_greedy_cover_trivial_when_threshold_clears_everything():
    y = sample_points(_system(), 1, 41)
    rep = greedy_cover(_additive(), _system(), y, _seq(), 30, 5.0, 3)
    assert rep.exceed_count == 0 and rep.union_bound == 0
    assert rep.inequality_ok


def test_greedy_cover_single_scale():
    y = sample_points(_system(), 1, 41)
    rep = greedy_cover(_additive(), _system(), y, _seq(), 30, 0.2, 1)
    # with one scale every exceedance point is its own tile
    assert rep.exceed_count == rep.union_bound == rep.tempelman_bound == 10


@pytest.mark.parametrize("grp, kind, anchors, n, N", [
    (ZPower(1), "z_boxes", None, 12, 4),
    (ZPower(2), "z_boxes", None, 6, 3),
    (ZPower(1), "z_boxes", "squares", 12, 3),
    (ZPower(2), "z_boxes", "squares", 9, 2),
    (ZPower(1), "z_boxes", "squares", 6, 3),  # empty core
    (CyclicSum((2,)), "cyclic_prefix", None, 6, 3),
    (CyclicSum((3, 2)), "cyclic_prefix", None, 4, 2),
    (ZSum(), "zsum_boxes", None, 3, 2),
], ids=["z1", "z2", "z1_anchored", "z2_anchored", "z1_anchored_empty", "cyclic2",
        "cyclic32", "zsum"])
def test_greedy_cover_core_is_the_tuple_core(monkeypatch, grp, kind, anchors, n, N):
    # {g in F_n : F_i g inside F_n for all i <= N}, from element tuples
    seq = make_folner(grp, kind, anchors)
    Fn = set(seq.generate(n).elems)
    expected = {g for g in Fn if all(grp.mul(t, g) in Fn for i in range(1, N + 1)
                                     for t in seq.generate(i).elems)}
    cores = []
    monkeypatch.setattr(ergodic, "intersect",
                        lambda *a: cores.append(intersect(*a)) or cores[-1])
    system = BernoulliShift(grp, (0.5, 0.5), seed=40)
    run = lambda: greedy_cover(AdditiveFamily(indicator_symbol(1)), system,
                               system.substream_points(0, [0]), seq, n, 0.45, N)
    if not expected:
        with pytest.raises(GateRefusal, match=f"non-empty core: index {n} too small "
                                              f"for N={N}"):
            run()
    else:
        assert run().core_size == len(expected)
    assert [C.elems for C in cores] == [tuple(sorted(expected))]


def test_maximal_inequality_vanishing_family():
    rep = maximal_inequality_check(DerivedPrime(_additive()), _seq(), _system(),
                                   alpha=0.5, N=3, samples=2000, seed=31)
    assert rep.empirical_mass == 0.0
    assert rep.ok


def test_maximal_inequality_additive_with_explicit_constant():
    rep = maximal_inequality_check(_additive(), _seq(), _system(),
                                   alpha=0.6, N=6, samples=3000, seed=31,
                                   M=2.0, nu_term=0.3)
    assert rep.ok
    assert rep.empirical_mass <= rep.bound
    assert rep.bound == pytest.approx(2.0 / 0.6 * 0.3, abs=0.05)
    assert len(rep.greedy_witness_stats) == 3
    for wit in rep.greedy_witness_stats:
        assert wit.exceed_count <= wit.union_bound <= wit.tempelman_bound


# ---------------------------------------------------------------------------
# pointwise averages: additive case


def test_birkhoff_bernoulli_line():
    rep = birkhoff_check(symbol_value(), _seq(), _system(),
                         [4, 16, 64, 256, 1024], samples=400, seed=7)
    assert rep.passed
    assert rep.within_frac >= 0.95
    assert rep.l1_decreasing
    assert abs(rep.terminal.mean - 0.3) <= 4 * rep.terminal.stderr + 0.01
    assert rep.gates["tempered_ok"]
    assert rep.gates["tempered_witness"] == pytest.approx(11 / 6)


def test_birkhoff_torus_rotation():
    tor = TorusRotation(_z(), (GOLDEN,), seed=2)
    rep = birkhoff_check(torus_coordinate(0), _seq(), tor,
                         [4, 16, 64, 256, 1024], samples=400, seed=7)
    assert rep.passed
    assert rep.within_frac == 1.0
    assert rep.converged_frac == 1.0
    assert rep.terminal.mean == pytest.approx(0.5, abs=0.01)


def test_birkhoff_is_bit_reproducible():
    args = (symbol_value(), _seq(), _system(), [4, 16, 64, 256])
    a = birkhoff_check(*args, samples=300, seed=7)
    b = birkhoff_check(*args, samples=300, seed=7)
    assert np.array_equal(a.col_means, b.col_means)
    assert a.terminal.mean == b.terminal.mean


def test_birkhoff_refuses_diagonal_cubes():
    zs = ZSum()
    seq = make_folner(zs, "zsum_boxes")
    system = BernoulliShift(zs, (0.7, 0.3), seed=5)
    with pytest.raises(GateRefusal) as exc:
        birkhoff_check(symbol_value(), seq, system, [1, 2, 3, 4, 5], samples=50)
    assert "tempered" in exc.value.hypothesis


# ---------------------------------------------------------------------------
# pointwise averages: subadditive case


def test_kingman_additive_on_lattice_passes():
    seq = make_folner(ZPower(2), "z_boxes")
    system = BernoulliShift(ZPower(2), (0.5, 0.5), seed=3)
    rep = kingman_run(_additive(), seq, system,
                      [2, 4, 8, 16, 32, 64, 128, 256], samples=200, seed=7)
    assert rep.passed
    assert rep.converged_frac >= 0.95
    assert rep.within_frac >= 0.95
    assert rep.terminal.mean == pytest.approx(0.5, abs=0.01)
    assert rep.gates["route"] == "bi_invariant"
    gaps = [row["gap"] for row in rep.gates["condition_b_gaps"]]
    assert gaps[-1] <= gaps[0]


def test_kingman_l1_chain_needs_each_set_composed_from_the_last():
    # F_5 = [0, 5) is no composition of the tile [0, 2) with a box
    rep = kingman_run(_additive(), _seq(), _system(), [2, 5], samples=20, seed=7)
    assert rep.gates["l1_chain"] is False


def test_kingman_mixture_splits_exact_leaf_targets():
    rep = kingman_run(_additive(), _seq(), _two_bernoulli_mixture(),
                      [4, 16, 64, 256, 1024], samples=300, seed=7)
    assert rep.within_frac == 1.0
    leaves = rep.target_summary["leaves"]
    assert sorted(leaf["inf"] for leaf in leaves) == [0.25, 0.75]
    assert all(leaf["stabilized"] and leaf["ergodic"] for leaf in leaves)


def test_kingman_refuses_diagonal_cubes():
    zs = ZSum()
    seq = make_folner(zs, "zsum_boxes")
    system = BernoulliShift(zs, (0.7, 0.3), seed=5)
    with pytest.raises(GateRefusal) as exc:
        kingman_run(AdditiveFamily(symbol_value()), seq, system,
                    [1, 2, 3, 4, 5], samples=30, seed=7)
    assert exc.value.hypothesis == "bounded inverse-union growth"


def test_kingman_refuses_non_subadditive_family_with_counterexample():
    class CardSquared(Family):
        name = "card_squared"
        declared = frozenset({"subadditive", "invariant"})
        exact_values = True

        def leaf_values(self, leaf, batch, F, mask=None):
            cards = np.full(len(batch), len(F)) if mask is None else mask.sum(axis=1)
            return cards.astype(np.float64) ** 2

    with pytest.raises(GateRefusal) as exc:
        kingman_run(CardSquared(), _seq(), _system(), [2, 4, 8], samples=50)
    assert exc.value.hypothesis == "family subadditive"
    assert "counterexample" in exc.value.extra


def test_kingman_col_means_bit_reproducible():
    args = (_additive(), _seq(), _two_bernoulli_mixture(), [4, 16, 64, 256])
    a = kingman_run(*args, samples=200, seed=7)
    b = kingman_run(*args, samples=200, seed=7)
    assert np.array_equal(a.col_means, b.col_means)


# ---------------------------------------------------------------------------
# unbounded-below families: truncation ladder


def _run_length_family():
    return AdditiveFamily(neg_pow_run(2.0, cap=30))


def _run_length_system():
    return BernoulliShift(_z(), (0.4, 0.6), seed=11)


def test_truncation_ladder_exact_structure():
    out = truncation_ladder(_run_length_family(), _seq(), _run_length_system(),
                            [2, 4, 8, 16, 32, 64], levels=(1, 2, 4, 8, 16),
                            samples=200, seed=7)
    assert out["ok"]
    assert out["pointwise_monotone"]
    assert out["level_infs_decreasing"]
    assert out["double_infimum_ok"]
    infs = out["inf_by_level"]
    # small levels clip almost every sampled point to the floor exactly
    assert infs[0] == -1.0
    assert -2.0 <= infs[1] == pytest.approx(-2.0, abs=0.01)
    assert all(b < a for a, b in zip(infs, infs[1:]))


@pytest.mark.parametrize("obs", [neg_pow_run(2.0, cap=30), scaled(neg_pow_run(3.0, cap=20), 0.37)],
                         ids=["neg_pow_run", "scaled"])
def test_truncation_ladder_levels_are_the_clipped_families(obs):
    # each level clips the one base trajectory at -N, which must be, float for
    # float, the trajectory of the clipped family max(-N|F|, d_F)
    fam, system, schedule = AdditiveFamily(obs), _run_length_system(), [2, 8, 32]
    out = truncation_ladder(fam, _seq(), system, schedule, levels=(1, 3, 16),
                            samples=150, seed=5)
    pts = sample_points(system, 150, 5)
    base = trajectory_matrix(fam, system, _seq(), schedule, pts)
    for lvl in out["levels"]:
        V = trajectory_matrix(Truncated(fam, lvl["N"]), system, _seq(), schedule, pts)
        assert np.array_equal(np.maximum(base, -lvl["N"]), V)
        assert lvl["col_means"] == [float(v) for v in V.mean(axis=0)]
    assert out["inf_by_level"][0] == -1.0 > out["inf_by_level"][-1]


def test_kingman_switches_to_ladder_on_divergent_floor():
    rep = kingman_run(_run_length_family(), _seq(), _run_length_system(),
                      [4, 16, 64], samples=120, seed=7)
    assert rep.kind == "truncation_ladder"
    assert rep.passed
    assert rep.extra["ladder"]["ok"]


# ---------------------------------------------------------------------------
# tail identity


def test_limsup_identity_bi_invariant_mode():
    fam = MaxOfAdditives(symbol_value(), indicator_symbol(0))
    out = limsup_identity_check(fam, _seq(), _system(), "bi_invariant",
                                [4, 16, 64, 256], samples=200, seed=13)
    assert out["mode"] == "bi_invariant"
    assert out["passed"]
    assert out["integral_ok"]
    assert out["tempered_witness"] == pytest.approx(11 / 6)


def test_limsup_identity_strong_mode_additive():
    out = limsup_identity_check(_additive(), _seq(), _system(),
                                "strongly_subadditive", [4, 16, 64, 256, 1024],
                                samples=200, seed=13)
    assert out["passed"]
    assert out["inf_stabilized"]  # exact per-leaf means freeze the infimum
    assert out["within_frac"] >= 0.95


def test_limsup_identity_reports_budget_drift_honestly():
    # the sqrt surcharge decays like n^(-1/2); at this budget the identity
    # is still out of reach and the check must say so rather than pass
    out = limsup_identity_check(_sqrt_family(), _seq(), _system(),
                                "strongly_subadditive", [4, 16, 64, 256],
                                samples=200, seed=13)
    assert not out["passed"]
    assert not out["inf_stabilized"]
    assert out["integral_gap"] > 0


def test_limsup_mode_requires_matching_properties():
    # max-of-additives is not strongly subadditive: strong mode must refuse
    fam = MaxOfAdditives(symbol_value(), indicator_symbol(0))
    with pytest.raises(GateRefusal):
        limsup_identity_check(fam, _seq(), _system(), "strongly_subadditive",
                              [4, 16, 64], samples=100, seed=13)


# ---------------------------------------------------------------------------
# tile-derived diagnostics


def test_dprime_diagnostics_closed_form():
    out = dprime_m_diagnostics(_sqrt_family(), _seq(), _system(),
                               [2, 4, 8, 16], 16, samples=200, seed=19)
    assert out["ok"] and out["decreasing"]
    for row in out["rows"]:
        m = row["m"]
        expect = (1 - 1 / 4) / math.sqrt(m)  # (1 - 1/sqrt(16)) / sqrt(m)
        assert row["estimate"]["mean"] == pytest.approx(expect, abs=1e-12)
        assert row["estimate"]["stderr"] <= 1e-12
        assert row["classify_ok"]
        assert set(row["verdicts"].values()) == {"PASS"}
    # the trend falls like 1/sqrt(m) but has not vanished at this budget
    assert not out["vanishing_trend"]


def test_dprime_diagnostics_flags_a_rising_trend():
    # with gamma(k) = ceil(k/2) the refined defect at F_n is
    # gamma(m)/m - gamma(mn)/(mn): 1/2 - 4/8 = 0 at m = 2, 2/3 - 6/12 at m = 3
    fam = AdditivePlus(symbol_value(), GAMMAS["ceil_half"], 1.0, "ceil_half")
    out = dprime_m_diagnostics(fam, _seq(), _system(), [2, 3], 4, samples=50)
    means = [row["estimate"]["mean"] for row in out["rows"]]
    assert means == pytest.approx([0.0, 1 / 6], abs=1e-12)
    assert not out["decreasing"] and not out["ok"]


# ---------------------------------------------------------------------------
# refusal strings: they reach the CLI summary verbatim


def _report(*failing):
    """A classifier report passing every property except `failing`."""
    verdicts = {p: PropertyVerdict(p, "FAIL" if p in failing else "PASS", 1,
                                   0.0, {"prop": p} if p in failing else None)
                for p in PROPERTIES}
    return ClassifyReport("fixture", verdicts, 0)


def _plain_report():
    """A report for an invariant family that is sub-additive but not
    strongly so: nu estimation then needs a tiling sequence."""
    return _report("strongly_subadditive", "strongly_supadditive")


def _anchored_boxes():
    """Boxes that tile but carry no self-similar isomorphism."""
    return make_folner(_z(), "z_boxes", anchors="squares")


def _diagonal_cubes():
    zs = ZSum()
    return make_folner(zs, "zsum_boxes"), BernoulliShift(zs, (0.7, 0.3), seed=5)


def _explicit_boxes():
    return make_folner(_z(), "explicit",
                       sets=[_seq().generate(n) for n in (1, 2, 3)])


_CARD_SQ = SetFunction("card_sq", lambda F: float(len(F)) ** 2, True)
_FAMILY_DETAIL = "classifier found a violation"
_MAXIMAL_DETAIL = ("maximal inequality needs a non-negative sup-additive "
                   "invariant family")
_DIVERGE_DETAIL = "growth ratios diverge at the budget"
_NU_DETAIL = ("need (sub/sup-additive + invariant) or strongly "
              "sub/sup-additive + invariant")

_REFUSALS = {
    "maximal-nonnegative": (
        lambda: maximal_inequality_check(
            _additive(), _seq(), _system(), 0.5, 2, 10,
            report=_report("nonnegative", "invariant")),
        "family nonnegative", _MAXIMAL_DETAIL, {"counterexample"}),
    "maximal-supadditive": (
        lambda: maximal_inequality_check(
            _additive(), _seq(), _system(), 0.5, 2, 10,
            report=_report("supadditive")),
        "family supadditive", _MAXIMAL_DETAIL, {"counterexample"}),
    "maximal-invariant": (
        lambda: maximal_inequality_check(
            _additive(), _seq(), _system(), 0.5, 2, 10,
            report=_report("invariant")),
        "family invariant", _MAXIMAL_DETAIL, {"counterexample"}),
    "maximal-core": (
        lambda: maximal_inequality_check(
            _additive(), _anchored_boxes(), _system(), 0.5, 3, 10,
            report=_report()),
        "non-empty core", "index 6 too small for N=3", set()),
    "kingman-subadditive": (
        lambda: kingman_run(_additive(), _seq(), _system(), [2, 4], 10,
                            report=_report("subadditive", "invariant")),
        "family subadditive", _FAMILY_DETAIL, {"counterexample"}),
    "kingman-invariant": (
        lambda: kingman_run(_additive(), _seq(), _system(), [2, 4], 10,
                            report=_report("invariant")),
        "family invariant", _FAMILY_DETAIL, {"counterexample"}),
    "kingman-self-similar": (
        lambda: kingman_run(_additive(), _anchored_boxes(), _system(), [2, 4],
                            10, report=_report()),
        "self-similar tiling sequence",
        "no self-similar certificate at indices [2, 4]", set()),
    "kingman-growth": (
        lambda: kingman_run(_additive(), *_diagonal_cubes(), [1, 2, 3, 4, 5],
                            10, report=_report()),
        "bounded inverse-union growth",
        "ratios diverge on the scheduled subsequence", {"ratios"}),
    "kingman-sandwich": (
        lambda: kingman_run(_additive(), _seq(), _system(), [2, 4, 5], 10,
                            report=_report()),
        "sandwich witnesses",
        "composition gap not shrinking along the schedule", {"gaps"}),
    "limsup-bi-invariant-family": (
        lambda: limsup_identity_check(
            _additive(), _seq(), _system(), "bi_invariant", [2, 4], 10,
            report=_report("bi_invariant", "subadditive")),
        "family bi_invariant", _FAMILY_DETAIL, {"counterexample"}),
    "limsup-strong-family": (
        lambda: limsup_identity_check(
            _additive(), _seq(), _system(), "strongly_subadditive", [2, 4],
            10, report=_report("invariant")),
        "family invariant", _FAMILY_DETAIL, {"counterexample"}),
    "dprime-subadditive": (
        lambda: dprime_m_diagnostics(_additive(), _seq(), _system(), [2], 4,
                                     10, report=_report("subadditive")),
        "family subadditive", _FAMILY_DETAIL, {"counterexample"}),
    "dprime-self-similar": (
        lambda: dprime_m_diagnostics(_additive(), _anchored_boxes(), _system(),
                                     [2], 4, 10, report=_report()),
        "self-similar tiling sequence",
        "no self-similar certificate at indices [2]", set()),
    "nu-family-properties": (
        lambda: nu_estimate(_additive(), _seq(), _system(), 2, 10,
                            report=_report("invariant")),
        "family properties", _NU_DETAIL, set()),
    "nu-tiling": (
        lambda: nu_estimate(_additive(), _explicit_boxes(), _system(), 2, 10,
                            report=_plain_report()),
        "tiling sequence",
        "plain sub/sup-additive families need a tiling Folner sequence", set()),
    "birkhoff-tempered": (
        lambda: birkhoff_check(symbol_value(), _diagonal_cubes()[0],
                               _diagonal_cubes()[1], [1, 2, 3, 4, 5], 10),
        "tempered sequence", _DIVERGE_DETAIL, {"witness"}),
    "limsup-tempered": (
        lambda: limsup_identity_check(
            _additive(), *_diagonal_cubes(), "bi_invariant", [1, 2, 3, 4, 5],
            10, report=_report()),
        "tempered sequence", _DIVERGE_DETAIL, {"witness"}),
    "limsup-tiling": (
        lambda: limsup_identity_check(
            _additive(), _explicit_boxes(), _system(), "bi_invariant",
            [1, 2, 3], 10, report=_report()),
        "tiling sequence", "no tiling certificate at index 1", set()),
    "setfn-tiling-precheck": (
        lambda: setfn_limit_tiling(_CARD_SQ, _seq(), [2, 4, 8]),
        "setfn subadditive+invariant", "set function failed exact checks",
        {"counterexample"}),
    "setfn-strong-precheck": (
        lambda: setfn_limit_strong(_CARD_SQ, _seq(), [2, 4, 8]),
        "setfn strongly_subadditive+invariant",
        "set function failed exact checks", {"counterexample"}),
    "setfn-tiling-certificate": (
        lambda: setfn_limit_tiling(setfn_registry(_z())["card"],
                                   _explicit_boxes(), [1, 2, 3]),
        "tiling sequence", "no tiling certificate at index 1", set()),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusal_strings_are_pinned(case):
    run, hypothesis, detail, extra_keys = _REFUSALS[case]
    with pytest.raises(GateRefusal) as exc:
        run()
    assert exc.value.hypothesis == hypothesis
    assert exc.value.detail == detail
    assert set(exc.value.extra) == extra_keys


def test_setfn_refusal_witnesses_the_failed_property():
    # card_sq fails sub-additivity and strong sub-additivity; the tiling
    # route needs only the former, so its witness is a disjoint pair
    with pytest.raises(GateRefusal) as exc:
        setfn_limit_tiling(_CARD_SQ, _seq(), [2, 4, 8])
    cex = exc.value.extra["counterexample"]
    E, F = (FinSet(_z(), [tuple(e) for e in cex[k]]) for k in "EF")
    assert intersect(E, F).is_empty
    assert _CARD_SQ(union(E, F)) > _CARD_SQ(E) + _CARD_SQ(F)
    assert (cex["lhs"], cex["rhs"]) == (_CARD_SQ(union(E, F)), _CARD_SQ(E) + _CARD_SQ(F))


# ---------------------------------------------------------------------------
# narrowed exception handling


def _raise_arithmetic(*args, **kwargs):
    raise ArithmeticError("injected")


def test_tempered_gate_lets_unexpected_errors_through(monkeypatch):
    monkeypatch.setattr(ergodic, "tempered_report", _raise_arithmetic)
    with pytest.raises(ArithmeticError):
        birkhoff_check(symbol_value(), _seq(), _system(), [2, 4], 10)


def test_composition_chain_lets_unexpected_errors_through(monkeypatch):
    schedule = [2, 4]
    certs = {n: standard_cert(_seq(), n) for n in schedule}
    assert ergodic._composition_chain_ok(_seq(), schedule, certs)
    monkeypatch.setattr(ergodic, "compose", _raise_arithmetic)
    with pytest.raises(ArithmeticError):
        ergodic._composition_chain_ok(_seq(), schedule, certs)


def test_tiling_probe_lets_unexpected_errors_through(monkeypatch):
    monkeypatch.setattr(ergodic, "standard_cert", _raise_arithmetic)
    with pytest.raises(ArithmeticError):
        nu_estimate(_additive(), _seq(), _system(), 2, 10,
                    report=_plain_report())
