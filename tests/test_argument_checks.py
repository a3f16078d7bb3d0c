"""Library argument checks: each constructor and engine refuses an argument
outside its contract with a ``ValueError`` naming what is wrong, before any
work is done.  The CLI's config reader refuses most of these earlier; the
library callers meet them here."""

import re

import pytest

from folnerlab.ergodic import (birkhoff_check, limsup_identity_check, setfn_limit_strong,
                               setfn_registry, truncation_ladder)
from folnerlab.families import AdditiveFamily, AdditivePlus, ConcaveCardinality, MaxFamily
from folnerlab.folner import make_folner, tempered_report
from folnerlab.groups import CyclicSum, EnumBudget, ZPower, ZSum
from folnerlab.systems import (BernoulliShift, FiniteMixture, TorusRotation, neg_pow_run,
                               symbol_value)
from folnerlab.tiling import LatticeCenters

Z1, Z2, C2 = ZPower(1), ZPower(2), CyclicSum((2,))


def _boxes():
    return make_folner(Z1, "z_boxes")


def _bernoulli(grp=Z1):
    return BernoulliShift(grp, (0.5, 0.5), seed=1)


_CHECKS = {
    # groups
    "z-power-d": (lambda: ZPower(0), "d must be >= 1"),
    "cyclic-periods-empty": (lambda: CyclicSum(()), "periods must be a non-empty list"),
    "cyclic-period-one": (lambda: CyclicSum((2, 1)), "periods must be a non-empty list"),
    "dense-width": (lambda: C2.dense_rows([((3, 1),)], width=2),
                    "dense width too small for element support"),
    # sequences and growth reports
    "z-boxes-group": (lambda: make_folner(C2, "z_boxes"), "z_boxes requires a ZPower group"),
    "zsum-boxes-group": (lambda: make_folner(Z1, "zsum_boxes"),
                         "zsum_boxes requires a ZSum group"),
    "explicit-no-sets": (lambda: make_folner(Z1, "explicit"), "explicit sequence needs sets"),
    "unknown-kind": (lambda: make_folner(Z1, "spheres").generate(1),
                     "unknown sequence kind 'spheres'"),
    "unknown-anchors": (lambda: make_folner(Z1, "z_boxes", anchors="cubes").generate(1),
                        "unknown anchor rule 'cubes'"),
    "z-box-index": (lambda: _boxes().generate(0), "index must be >= 1"),
    "prefix-index": (lambda: make_folner(C2, "cyclic_prefix").generate(0),
                     "index must be >= 1"),
    "zsum-shape": (lambda: make_folner(ZSum(), "zsum_boxes").generate((2, 0)),
                   "zsum shape entries must be >= 1"),
    "tempered-upto": (lambda: tempered_report(_boxes(), 1), "need at least two indices"),
    # tiling
    "lattice-moduli": (lambda: LatticeCenters(Z1, (0,)), "moduli must be positive"),
    # systems
    "torus-frequency-count": (lambda: TorusRotation(Z2, [0.3]),
                              "torus rotation needs one frequency per Z^d coordinate"),
    "torus-group": (lambda: TorusRotation(C2, [0.3]),
                    "torus rotation needs one frequency per Z^d coordinate"),
    "torus-frequency-range": (lambda: TorusRotation(None, [1.5]),
                              "frequencies must lie in (0, 1)"),
    "mixture-empty": (lambda: FiniteMixture([]), "mixture needs at least one component"),
    "mixture-groups": (lambda: FiniteMixture([(0.5, _bernoulli()), (0.5, _bernoulli(Z2))]),
                       "mixture components must share the group"),
    # families
    "max-signed": (lambda: MaxFamily(neg_pow_run()),
                   "window max needs a non-negative observable"),
    "gamma-at-zero": (lambda: ConcaveCardinality(lambda k: k + 1.0),
                      "cardinality term must vanish at 0"),
    "gamma-convex": (lambda: ConcaveCardinality(lambda k: float(k * k)),
                     "cardinality term not concave at 1"),
    "gamma-superadditive": (lambda: AdditivePlus(symbol_value(), lambda k: float(k * k)),
                            "cardinality term not subadditive"),
    # engines
    "schedule-order": (lambda: birkhoff_check(symbol_value(), _boxes(), _bernoulli(),
                                              [4, 2], 10),
                       "schedule must be strictly increasing, length >= 2"),
    "ladder-levels": (lambda: truncation_ladder(AdditiveFamily(symbol_value()), _boxes(),
                                                _bernoulli(), [2, 4], [0, 1], 10),
                      "levels must be positive"),
    "limsup-mode": (lambda: limsup_identity_check(AdditiveFamily(symbol_value()), _boxes(),
                                                  _bernoulli(), "tiling", [2, 4], 10),
                    "unknown mode 'tiling'"),
    "no-candidate-sets": (lambda: setfn_limit_strong(setfn_registry(Z1)["card"], _boxes(),
                                                     [2, 4], EnumBudget(max_card=2, max_sets=0)),
                          "no candidate sets enumerated"),
}


@pytest.mark.parametrize("case", sorted(_CHECKS))
def test_bad_argument_is_refused_by_name(case):
    build, message = _CHECKS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
