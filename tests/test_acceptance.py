"""Acceptance suite: one numbered end-to-end check per release criterion.

Every test prints a single ``[criterion N] ...: PASS|FAIL`` line (visible via
the ``-rP`` report option) and asserts the same condition, so the suite
doubles as a human-readable checklist.  Combinatorial criteria are exact with
zero tolerance; statistical criteria state their tolerance inline.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from folnerlab.families import (
    AdditiveFamily,
    AdditivePlus,
    DerivedPrime,
    MaxFamily,
    MaxOfAdditives,
    classify,
)
from folnerlab.folner import make_folner, tempelman_report
from folnerlab.groups import CyclicSum, ZPower, ZSum, product_set, union, zsum_box
from folnerlab.systems import (
    BernoulliShift,
    FiniteMixture,
    indicator_symbol,
    neg_pow_run,
    scaled,
)
from folnerlab.ergodic import (
    ergodic_decomposition_check,
    greedy_cover,
    kingman_run,
    maximal_inequality_check,
    sample_points,
    setfn_classify,
    setfn_limit_strong,
    setfn_limit_tiling,
    setfn_registry,
    truncation_ladder,
)
from folnerlab.tiling import Iso, LatticeCenters, TilingCert, compose, standard_cert


def _line(tag: str, desc: str, ok: bool) -> None:
    print(f"[criterion {tag}] {desc}: {'PASS' if ok else 'FAIL'}")


def _bernoulli(group, p1: float, seed: int) -> BernoulliShift:
    return BernoulliShift(group, (1.0 - p1, p1), seed=seed)


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_growth_constants_exact():
    # boxes on Z / Z^d: witness (2n-1)^d / n^d stays under 2^d; prefix
    # subgroups give ratio exactly 1 at every index.
    checks = [tempelman_report(make_folner(ZPower(1), "z_boxes"), 50).witness <= 2]
    for d in (2, 3):
        b = tempelman_report(make_folner(ZPower(d), "z_boxes"), 50).witness
        checks.append(b <= Fraction(2) ** d)
    for periods in ((2,), (3,), (2, 3, 2)):
        rep = tempelman_report(make_folner(CyclicSum(periods), "cyclic_prefix"), 8)
        checks.append(all(r == 1 for r in rep.ratios))
    ok = all(checks)
    _line("1", "growth constants exact (Z<=2, Z^d<=2^d for d<=3, prefixes==1)", ok)
    assert ok


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_composition_identities_exact():
    # Z boxes: window * scaled image == product-size window, all m,n <= 30.
    z = ZPower(1)
    seq = make_folner(z, "z_boxes")
    ok_z = all(
        compose(standard_cert(seq, m), seq.generate(n)) == seq.generate(m * n)
        for m in range(1, 31)
        for n in range(1, 31)
    )

    # two-symbol sum: prefix * shifted image == longer prefix, m+n <= 10.
    c2 = CyclicSum((2,))
    cseq = make_folner(c2, "cyclic_prefix")
    ok_c = all(
        compose(standard_cert(cseq, m), cseq.generate(n)) == cseq.generate(m + n)
        for m in range(1, 10)
        for n in range(1, 10)
        if m + n <= 10
    )

    # integer sum: entrywise product / sum-minus-one / max identities for
    # tuple shapes of length <= 3 with entries <= 5 (shorter tuple padded
    # with ones).  The union identity needs entrywise domination -- a union
    # of two boxes is only a box when one contains the other.
    g = ZSum()
    shapes = [t for L in (1, 2, 3) for t in itertools.product(range(1, 6), repeat=L)]
    boxes = {s: zsum_box(g, s) for s in shapes}
    certs = {
        s: TilingCert(boxes[s], LatticeCenters(g, s), Iso(g, s))
        for s in shapes
    }
    ok_star = ok_prod = ok_union = True
    union_pairs = 0
    for a in shapes:
        for b in shapes:
            if len(a) > len(b):
                continue
            A = a + (1,) * (len(b) - len(a))
            scaled_shape = tuple(x * y for x, y in zip(A, b))
            summed_shape = tuple(x + y - 1 for x, y in zip(A, b))
            if compose(certs[a], boxes[b]) != zsum_box(g, scaled_shape):
                ok_star = False
            if product_set(boxes[a], boxes[b]) != zsum_box(g, summed_shape):
                ok_prod = False
            if all(x <= y for x, y in zip(A, b)):
                union_pairs += 1
                if union(boxes[a], boxes[b]) != boxes[b]:
                    ok_union = False
    ok = ok_z and ok_c and ok_star and ok_prod and ok_union and union_pairs > 5000
    _line("2", "self-similar composition identities exact on Z, sum of Z/2Z, sum of Z", ok)
    assert ok


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_setfn_limits_match_enumerated_infima():
    # ten classifier-passed deterministic set functions, two admissible box
    # sequences; |value at largest index - best enumerated inf| must stay
    # within 0.05 * (1 + |limit|) and the sequences agree to 1e-9.
    z = ZPower(1)
    seq_a = make_folner(z, "z_boxes")
    seq_b = make_folner(z, "z_boxes", anchors="squares")
    reg = setfn_registry(z)
    assert len(reg) == 10
    for required in ("card_plus_one", "sqrt_card", "half_card", "run_count"):
        assert required in reg
    indices = [4, 16, 64, 256, 1024]
    ladder = [seq_a.generate(k) for k in indices]
    ok = True
    for name in sorted(reg):
        f = reg[name]
        cls = setfn_classify(f, z)
        assert cls.passed("subadditive") and cls.passed("invariant"), name
        if cls.passed("strongly_subadditive"):
            r1 = setfn_limit_strong(f, seq_a, indices, ladder_sets=ladder, report=cls)
            r2 = setfn_limit_strong(f, seq_b, indices, ladder_sets=ladder, report=cls)
        else:
            r1 = setfn_limit_tiling(f, seq_a, indices, max_card=24, report=cls)
            r2 = setfn_limit_tiling(f, seq_b, indices, max_card=24, report=cls)
        tol = 0.05 * (1 + abs(r1.limit_value))
        ok &= r1.gap <= tol and r2.gap <= tol
        ok &= abs(r1.limit_value - r2.limit_value) <= 1e-9
    _line("3", "10 set-function limits vs enumerated infima, two sequences", ok)
    assert ok


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_greedy_cover_inequality_exact():
    # 100 randomized instances over Z and Z^2 with N <= 5, n <= 12: the
    # integer chain exceedances <= covered-union bound <= M * sum |F_i||C_i'|
    # must hold exactly on every instance.
    rng = np.random.default_rng(20260814)
    fams = [
        AdditiveFamily(indicator_symbol(1)),
        MaxOfAdditives(indicator_symbol(1), scaled(indicator_symbol(0), 0.8)),
    ]
    bad = 0
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        z = ZPower(d)
        seq = make_folner(z, "z_boxes")
        system = _bernoulli(z, 0.3, seed=100 + i)
        N = int(rng.integers(1, 6))
        n = int(rng.integers(N, 13))
        alpha = float(rng.uniform(0.05, 1.2))
        y = sample_points(system, 1, seed=500 + i)[:1]
        rep = greedy_cover(fams[i % 2], system, y, seq, n, alpha, N)
        if not (rep.inequality_ok and rep.covered):
            bad += 1
    ok = bad == 0
    _line("4", "greedy covering inequality exact on 100 randomized instances", ok)
    assert ok


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_maximal_inequality_mass_bound():
    # non-negative additive family, threshold alpha = 2 *(mean of f):
    # exceedance mass over 10^4 points stays below (M/alpha) * nu + 4 stderr.
    fam = AdditiveFamily(indicator_symbol(1))
    ok = True
    z = ZPower(1)
    sys_z = _bernoulli(z, 0.3, seed=5)
    seq_z = make_folner(z, "z_boxes")
    for N in (3, 6):
        rep = maximal_inequality_check(fam, seq_z, sys_z, alpha=0.6, N=N,
                                       samples=10_000, seed=31, M=2.0,
                                       nu_term=0.3)
        ok &= rep.ok
        ok &= rep.empirical_mass <= (rep.M / rep.alpha) * rep.nu_term + 4.0 * rep.mass_stderr
    c2 = CyclicSum((2,))
    sys_c = _bernoulli(c2, 0.3, seed=6)
    seq_c = make_folner(c2, "cyclic_prefix")
    for N in (3, 6):
        rep = maximal_inequality_check(fam, seq_c, sys_c, alpha=0.6, N=N,
                                       samples=10_000, seed=32, M=1.0,
                                       nu_term=0.3)
        ok &= rep.ok
        ok &= rep.empirical_mass <= (rep.M / rep.alpha) * rep.nu_term + 4.0 * rep.mass_stderr
    _line("5", "exceedance mass within covering bound (Z with M=2, two-symbol sum with M=1)", ok)
    assert ok


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_additive_averages_concentrate():
    # fair two-symbol shift over plane boxes, 10^3 points, dyadic schedule
    # 2..256: at least 95% of terminal averages within 0.05 of 0.5 and the
    # terminal mean within 4 standard errors of 0.5.
    z2 = ZPower(2)
    rep = kingman_run(AdditiveFamily(indicator_symbol(1)),
                      make_folner(z2, "z_boxes"),
                      _bernoulli(z2, 0.5, seed=3),
                      [2, 4, 8, 16, 32, 64, 128, 256],
                      samples=1000, seed=3, tol=0.05)
    ok = (rep.passed and rep.within_frac >= 0.95
          and abs(rep.terminal.mean - 0.5) <= 4.0 * rep.terminal.stderr)
    _line("6", "plane-box additive averages concentrate at 0.5 (95% within 0.05)", ok)
    assert ok


# -- 7 ----------------------------------------------------------------------


def test_criterion_07a_concave_correction_vanishes():
    # sum of f plus sqrt(|F|): the correction dies off like 1/sqrt(n), so the
    # terminal normalized mean must sit within 0.05 of the plain mean 0.3.
    z = ZPower(1)
    fam = AdditivePlus(indicator_symbol(1), math.sqrt, gamma_name="sqrt")
    rep = kingman_run(fam, make_folner(z, "z_boxes"), _bernoulli(z, 0.3, seed=5),
                      [4, 16, 64, 256, 1024, 4096], samples=400, seed=11)
    dev = abs(rep.terminal.mean - 0.3)
    ok = rep.kind == "subadditive_average" and dev <= 0.05
    _line("7a", f"concave cardinality correction vanishes (terminal dev {dev:.4f} <= 0.05)", ok)
    assert ok


def test_criterion_07b_max_of_averages_vs_direct_simulation():
    # direct-simulation oracle at window length 10^4: max(count of ones,
    # 0.8 * count of zeros) / n concentrates at max(0.3, 0.8*0.7) = 0.56.
    rng = np.random.default_rng(97)
    draws = rng.random((400, 10_000)) < 0.3
    ones = draws.sum(axis=1)
    vals = np.maximum(ones, 0.8 * (10_000 - ones)) / 10_000
    oracle_mean = float(vals.mean())
    oracle_sem = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    oracle_ok = abs(oracle_mean - 0.56) <= 4.0 * oracle_sem

    z = ZPower(1)
    fam = MaxOfAdditives(indicator_symbol(1), scaled(indicator_symbol(0), 0.8))
    rep = kingman_run(fam, make_folner(z, "z_boxes"), _bernoulli(z, 0.3, seed=5),
                      [4, 16, 64, 256, 1024, 4096], samples=300, seed=13)
    ok = (oracle_ok and abs(rep.terminal.mean - 0.56) <= 0.05
          and abs(rep.terminal.mean - oracle_mean) <= 0.05)
    _line("7b", "max-of-averages terminal within 0.05 of the direct-simulation oracle", ok)
    assert ok


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_mixture_splits_into_component_targets():
    # half/half mixture of two opposite-bias shifts: the mixture mean matches
    # the weighted component means within 4 combined stderr, and per-point
    # terminals are bimodal at 1/4 and 3/4 (95% within 0.05 of their own
    # component's target).
    z2 = ZPower(2)
    seq = make_folner(z2, "z_boxes")
    mix = FiniteMixture([(0.5, _bernoulli(z2, 0.25, seed=21)),
                         (0.5, _bernoulli(z2, 0.75, seed=22))], seed=23)
    fam = AdditiveFamily(indicator_symbol(1))
    dec = ergodic_decomposition_check(fam, mix, seq, n=64, samples=2000, seed=17)
    rep = kingman_run(fam, seq, mix, [2, 4, 8, 16, 32, 64, 128, 256],
                      samples=400, seed=29, tol=0.05)
    targets = sorted(round(l["inf"], 6) for l in rep.extra["leaf_targets"])
    buckets = [l["n_points"] for l in rep.extra["leaf_targets"]]
    ok = (dec["ok"] and rep.within_frac >= 0.95
          and targets == [0.25, 0.75] and min(buckets) > 0)
    _line("8", "mixture average splits; terminals bimodal at 1/4 and 3/4", ok)
    assert ok


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_classifier_ground_truths():
    z = ZPower(1)
    system = _bernoulli(z, 0.3, seed=5)

    additive = classify(AdditiveFamily(indicator_symbol(1)), z, system)
    v_add = additive.verdicts["strongly_subadditive"]
    ok = v_add.passed and v_add.max_gap <= 1e-12

    window_max = classify(MaxFamily(indicator_symbol(1)), z, system)
    ok &= window_max.passed("strongly_subadditive")

    base = MaxOfAdditives(indicator_symbol(1), scaled(indicator_symbol(0), 0.8))
    derived = classify(DerivedPrime(base), z, system, trials=10_000,
                       properties=("nonnegative", "supadditive", "invariant"))
    ok &= all(derived.passed(p) for p in ("nonnegative", "supadditive", "invariant"))

    _line("9", "classifier ground truths (additive exact, window max, derived defect over 1e4 draws)", ok)
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="sum-plus-concave-correction families satisfy the "
                          "quadrilateral inequality outright (concavity of the "
                          "correction under the cardinality identity "
                          "|E|+|F| = |E u F|+|E n F|), so no counterexample "
                          "exists for the classifier to emit")
def test_criterion_09_sqrt_correction_flagged_not_strongly_subadditive():
    z = ZPower(1)
    system = _bernoulli(z, 0.3, seed=5)
    rep = classify(AdditivePlus(indicator_symbol(1), math.sqrt, gamma_name="sqrt"),
                   z, system)
    v = rep.verdicts["strongly_subadditive"]
    ok = (not v.passed) and v.counterexample is not None
    _line("9x", "sqrt-correction family flagged not strongly subadditive with witness", ok)
    assert ok


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_truncation_ladder_monotone_with_exchangeable_infima():
    # family unbounded below (negative powers of the run length): clipped
    # versions at levels 1,2,4,8,16 share points; per-point values decrease
    # monotonically in the level, level means never increase, and the double
    # infimum over (level, index) is order-independent (exact, which is
    # tighter than the stated confidence-interval tolerance).
    z = ZPower(1)
    lad = truncation_ladder(AdditiveFamily(neg_pow_run(2.0)),
                            make_folner(z, "z_boxes"),
                            _bernoulli(z, 0.6, seed=41),
                            [4, 16, 64, 256], (1, 2, 4, 8, 16),
                            samples=400, seed=5)
    terms = [lvl["terminal"]["mean"] for lvl in lad["levels"]]
    ok = (lad["ok"] and lad["pointwise_monotone"]
          and lad["level_infs_decreasing"] and lad["double_infimum_ok"]
          and all(a >= b - 1e-12 for a, b in zip(terms, terms[1:]))
          and all(lvl["floor_ok"] for lvl in lad["levels"]))
    _line("10", "truncation ladder monotone in the level; infima exchange exactly", ok)
    assert ok
