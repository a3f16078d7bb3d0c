"""Self-similar tilings: certificates, window checks, composition identities.

A tiling certificate = (tile, center set, optional scale isomorphism).  The
isomorphism is what lets one averaging window be refined by another; the
composition identities below are checked exactly, element by element.
"""

from folnerlab.folner import make_folner
from folnerlab.groups import CyclicSum, ZPower, ZSum, product_set, union, zsum_box
from folnerlab.tiling import (
    Iso,
    LatticeCenters,
    TilingCert,
    compose,
    condition_b_witness,
    enumerate_tiles,
    standard_cert,
    tiles_window_report,
    window_set,
)


def main() -> None:
    z = ZPower(1)
    seq = make_folner(z, "z_boxes")

    print("== certificates tile windows exactly ==")
    cert = standard_cert(seq, 4)
    win = window_set(z, 40)
    print(f"  F_4 with its lattice centers tiles a radius-40 window: "
          f"{tiles_window_report(cert, win)[0]}")

    print("\n== composition on Z: F_m * scaled(F_n) == F_mn ==")
    for m, n in [(3, 5), (4, 7)]:
        got = compose(standard_cert(seq, m), seq.generate(n))
        print(f"  m={m}, n={n}: composed == F_{m*n}: {got == seq.generate(m * n)}")

    print("\n== composition on the two-symbol sum: prefixes add ==")
    c2 = CyclicSum((2,))
    cseq = make_folner(c2, "cyclic_prefix")
    got = compose(standard_cert(cseq, 2), cseq.generate(3))
    print(f"  F_2 * shifted(F_3) == F_5: {got == cseq.generate(5)}")

    print("\n== composition on the integer sum: entrywise tuple formulas ==")
    g = ZSum()
    a, b = (2, 3), (4, 5, 2)
    Fa, Fb = zsum_box(g, a), zsum_box(g, b)
    cert_a = TilingCert(Fa, LatticeCenters(g, a), Iso(g, a))
    print(f"  shapes {a} and {b}:")
    print(f"    scaled composition -> box {(8, 15, 2)}: "
          f"{compose(cert_a, Fb) == zsum_box(g, (8, 15, 2))}")
    print(f"    plain product      -> box {(5, 7, 2)}: "
          f"{product_set(Fa, Fb) == zsum_box(g, (5, 7, 2))}")
    print(f"    union (dominated)  -> box {(4, 5, 2)}: "
          f"{union(zsum_box(g, (2, 3, 1)), Fb) == Fb}")

    print("\n== sandwich witnesses shrink along the schedule ==")
    for p in (16, 64, 256):
        w = condition_b_witness(seq, 4, p)
        print(f"  m=4, p={p:3d}: windows n1={w.n1}, n2={w.n2}, gap={w.gap}")

    print("\n== small tiles enumerable on Z ==")
    tiles = enumerate_tiles(z, 4)
    print(f"  {len(tiles)} certified tiles of card <= 4, e.g. "
          f"{[sorted(e[0] for e in c.tile.elems) for c in tiles[:5]]}")


if __name__ == "__main__":
    main()
