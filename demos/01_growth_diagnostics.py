"""Averaging-sequence diagnostics: defects, invariance, growth witnesses.

Everything printed here is exact rational arithmetic — no sampling.
"""

from fractions import Fraction

from folnerlab.folner import (
    folner_defect,
    invariance_check,
    make_folner,
    tempelman_report,
    tempered_report,
)
from folnerlab.groups import CyclicSum, FinSet, ZPower, ZSum


def main() -> None:
    z = ZPower(1)
    boxes = make_folner(z, "z_boxes")

    print("== boundary defects of integer boxes ==")
    K = FinSet(z, [(1,)])
    for n in (5, 10, 40):
        F = boxes.generate(n)
        print(f"  |F_{n} △ (K F_{n})| / |F_{n}| = {folner_defect(K, F)}"
              f"  (shrinks like 2/n)")

    print("\n== (K, delta)-invariance of a box ==")
    K2 = FinSet(z, [(-1,), (1,)])
    for n in (10, 100):
        ok, ratio = invariance_check(boxes.generate(n), K2, Fraction(1, 10))
        print(f"  n={n:4d}: boundary ratio {ratio} < 1/10: {ok}")

    print("\n== growth witnesses (bounded == usable for covering bounds) ==")
    rep = tempelman_report(boxes, 12)
    print(f"  Z boxes:      max |U F_k^-1 F_n|/|F_n| = {rep.witness} (<= 2)")
    rep2 = tempelman_report(make_folner(ZPower(2), "z_boxes"), 8)
    print(f"  Z^2 boxes:    witness {rep2.witness} (<= 4)")
    repc = tempelman_report(make_folner(CyclicSum((2,)), "cyclic_prefix"), 8)
    print(f"  prefix sums:  witness {repc.witness} (subgroups: exactly 1)")
    rept = tempered_report(boxes, 8)
    print(f"  tempered witness on Z boxes: {rept.witness} (2(m-1)/m ladder)")

    print("\n== a sequence the gates refuse ==")
    diag = make_folner(ZSum(), "zsum_boxes")
    repd = tempelman_report(diag, 5)
    print(f"  diagonal cubes on the integer sum: ratios "
          f"{[str(r) for r in repd.ratios]}")
    print(f"  looks divergent -> ok={repd.ok}; convergence engines refuse this"
          f" sequence rather than reporting a bogus limit")


if __name__ == "__main__":
    main()
