"""Greedy covering construction and the resulting maximal-inequality bound.

One instance is walked through in detail: each core element is assigned to
the first window whose normalized family value exceeds alpha, then maximal
disjoint packings are chosen backwards.  The integer inequality
|exceedances| <= covered-union <= M * sum |F_i| |C_i'| is exact; averaging
it over sampled points gives the mass bound demonstrated second.
"""

from folnerlab.ergodic import greedy_cover, maximal_inequality_check, sample_points
from folnerlab.families import AdditiveFamily
from folnerlab.folner import make_folner
from folnerlab.groups import CyclicSum, ZPower
from folnerlab.systems import BernoulliShift, indicator_symbol


def main() -> None:
    z = ZPower(1)
    seq = make_folner(z, "z_boxes")
    system = BernoulliShift(z, (0.7, 0.3), seed=5)
    fam = AdditiveFamily(indicator_symbol(1))

    print("== one covering instance, narrated ==")
    y = sample_points(system, 1, seed=9)[:1]
    rep = greedy_cover(fam, system, y, seq, n=12, alpha=0.5, N=4)
    print(f"  core size |F_n*| = {rep.core_size} (n=12, N=4)")
    print(f"  exceedance classes per window: {[len(c) for c in rep.classes]}")
    print(f"  chosen disjoint centers:       {[len(c) for c in rep.chosen]}")
    print(f"  exceedances {rep.exceed_count} <= union bound {rep.union_bound} "
          f"<= M-bound {rep.tempelman_bound}: {rep.inequality_ok}")
    print(f"  every exceedance covered by a kept translate: {rep.covered}")

    print("\n== empirical exceedance mass vs the covering bound ==")
    print("  alpha = 2 * (mean of f) = 0.6, 10^4 sampled points")
    for group, seq_kind, M, label in [
        (z, "z_boxes", 2.0, "integer boxes (M=2)"),
        (CyclicSum((2,)), "cyclic_prefix", 1.0, "two-symbol prefixes (M=1)"),
    ]:
        s = make_folner(group, seq_kind)
        sysg = BernoulliShift(group, (0.7, 0.3), seed=6)
        for N in (3, 6):
            r = maximal_inequality_check(fam, s, sysg, alpha=0.6, N=N,
                                         samples=10_000, seed=32, M=M,
                                         nu_term=0.3)
            print(f"  {label:28s} N={N}: mass {r.empirical_mass:.4f} "
                  f"<= bound {r.bound:.4f}: {r.ok}")


if __name__ == "__main__":
    main()
