"""Deterministic set-function limits against enumerated infima.

Two routes, both hypothesis-gated by the exact classifier:
  * tiling route    -- subadditive + invariant, limit vs infimum over tiles;
  * strong route    -- strongly subadditive, infimum over arbitrary finite
                       sets (budgeted stream plus a caller ladder).
The reported `gap` is |value at the largest index - best enumerated inf|;
`stabilized` records whether the infimum trend flattened within budget.
"""

from folnerlab.ergodic import (
    setfn_classify,
    setfn_limit_strong,
    setfn_limit_tiling,
    setfn_registry,
)
from folnerlab.folner import make_folner
from folnerlab.groups import ZPower


def main() -> None:
    z = ZPower(1)
    plain = make_folner(z, "z_boxes")
    anchored = make_folner(z, "z_boxes", anchors="squares")
    indices = [4, 16, 64, 256, 1024]
    ladder = [plain.generate(k) for k in indices]
    reg = setfn_registry(z)

    print(f"registry: {sorted(reg)}\n")
    header = f"{'function':16s} {'route':7s} {'limit':>10s} {'inf':>10s} {'gap':>8s} status"
    print(header)
    print("-" * len(header))
    for name in sorted(reg):
        f = reg[name]
        cls = setfn_classify(f, z)
        if cls.passed("strongly_subadditive"):
            route = "strong"
            rep = setfn_limit_strong(f, plain, indices, ladder_sets=ladder, report=cls)
            rep_b = setfn_limit_strong(f, anchored, indices, ladder_sets=ladder, report=cls)
        else:
            route = "tiling"
            rep = setfn_limit_tiling(f, plain, indices, max_card=24, report=cls)
            rep_b = setfn_limit_tiling(f, anchored, indices, max_card=24, report=cls)
        agree = abs(rep.limit_value - rep_b.limit_value) <= 1e-9
        print(f"{name:16s} {route:7s} {rep.limit_value:10.6f} "
              f"{rep.inf_value:10.6f} {rep.gap:8.4f} {rep.status}"
              f"{'' if agree else '  (sequences disagree!)'}")

    print("\nanchored and plain boxes agree to 1e-9 on every function;")
    print("an undersized enumeration budget is reported as `inconclusive`")
    rep = setfn_limit_strong(reg["sqrt_card"], plain, indices)  # no ladder
    print(f"  sqrt_card without the ladder: inf={rep.inf_value}, "
          f"gap={rep.gap:.3f}, status={rep.status}")


if __name__ == "__main__":
    main()
