"""Empirical search for set functions separating the two limit routes.

The tiling route needs only subadditive + invariant; the strong route needs
the stronger quadrilateral inequality.  A function passing the former and
failing the latter witnesses that the second hypothesis is strictly stronger.
The search below is empirical (classifier verdicts at a fixed trial budget)
and makes no claim beyond the emitted counterexamples.
"""

from fractions import Fraction

from folnerlab.ergodic import SetFunction, setfn_classify, setfn_registry
from folnerlab.groups import ZPower


def _extra_candidates() -> dict:
    # hand-rolled shapes beyond the registry: ceilings, plateaus, mixtures
    return {
        "ceil_two_thirds": SetFunction(
            "ceil_two_thirds", lambda F: -((-2 * len(F)) // 3), exact=True),
        "card_capped_plateau": SetFunction(
            "card_capped_plateau", lambda F: min(len(F), 3) + min(len(F), 7),
            exact=True),
        "odd_penalty": SetFunction(
            "odd_penalty", lambda F: len(F) + (len(F) % 2), exact=True),
        "half_card_ceil": SetFunction(
            "half_card_ceil", lambda F: Fraction(len(F) + (len(F) % 2), 2),
            exact=True),
    }


def main() -> None:
    z = ZPower(1)
    candidates = dict(setfn_registry(z))
    candidates.update(_extra_candidates())

    separators = []
    print(f"{'function':22s} {'subadd':>7s} {'invar':>6s} {'strong':>7s}")
    print("-" * 46)
    for name in sorted(candidates):
        rep = setfn_classify(candidates[name], z)
        flags = tuple(map(rep.passed,
                          ("subadditive", "invariant", "strongly_subadditive")))
        print(f"{name:22s} {str(flags[0]):>7s} {str(flags[1]):>6s} "
              f"{str(flags[2]):>7s}")
        if flags[0] and flags[1] and not flags[2]:
            separators.append((name, rep.counterexample("strongly_subadditive")))

    print(f"\nseparating functions found: {[n for n, _ in separators]}")
    for name, cex in separators:
        print(f"  {name}: quadrilateral violation witness {cex}")
    print("\nthese pass the tiling-route hypotheses but are rejected by the")
    print("strong route's gate; no claim is made that any matches a known")
    print("construction -- the verdicts are exact only at this trial budget.")


if __name__ == "__main__":
    main()
