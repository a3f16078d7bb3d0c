"""Pins of the greedy covering: SHA-256 over each ``GreedyCoverReport``'s
``to_json()`` and its exceedance classes and chosen packings, as element
tuples, on every group kind at three seeds.

The digests were taken from the packing that kept the occupied cells as a
``FinSet`` (one intersection and one union per candidate translate) and
hashed every translated window cell per offset, so the occupancy-array
packing and the key-arithmetic windows must reproduce every class, every
packing and every count.
"""
import hashlib
import json

import pytest

from folnerlab.ergodic import greedy_cover
from folnerlab.families import AdditiveFamily
from folnerlab.folner import make_folner
from folnerlab.groups import CyclicSum, ZPower, ZSum
from folnerlab.systems import BernoulliShift, indicator_symbol

# group, sequence kind, n, N
CASES = {
    "z1": (ZPower(1), "z_boxes", 30, 4),
    "z2": (ZPower(2), "z_boxes", 10, 3),
    "cyclic2": (CyclicSum((2,)), "cyclic_prefix", 8, 4),
    "cyclic3": (CyclicSum((3,)), "cyclic_prefix", 5, 3),
    "zsum": (ZSum(), "zsum_boxes", 5, 3),
}

DIGESTS = {
    "z1-0": "68e55ec3df13c706156b0d04ea473056aec8ba8527ec8c332ee176cbde739f7c",
    "z1-1": "c296c6b1c55fac40888386548c877395e101c1cd19e1067e1b8779872986f1d6",
    "z1-2": "9f71b962206194316febe935f3769708c60759713986a8ad285e7b1392a34c60",
    "z2-0": "25a4da20d1bda4b95af5a4af110685f6c61c9177b154fbd71b6f20e9613e3d9e",
    "z2-1": "3fc7218be2e6811c8990a92bff183afedfab9fec59cd0cea92eb78859669746a",
    "z2-2": "646f0bff469b7ef6ec6a26dd14cb87deb0743890ee0634bd33319ab8e136454b",
    "cyclic2-0": "bd41be240529f9ba06aef2919161a9f46540b235b16cd7b1fb0aeecaea0324ad",
    "cyclic2-1": "2cfebbefa266fb5c906550752cdf56473e22dbe4f1694dd8789abc1bb38a9401",
    "cyclic2-2": "f2e7251fc991564be69b4f54fe1e454619f2532cb13ee9368f3e563a7b929cfa",
    "cyclic3-0": "6456dc9aebfe6555f5925cfb33c2636c20fa6e28849edc092e409f99faa00ec9",
    "cyclic3-1": "3c35c100623379588980ceca8f5ecdb46638b75566f53bf5db1b6dd78cedae4d",
    "cyclic3-2": "3574549c06fd1ce8af2d134dd9c86fa9c5a3d115591c8a0298caa6122c965151",
    "zsum-0": "d39ea2910b392a0623bee7723272f226c01ca638e0ebcfd1928514db814e873f",
    "zsum-1": "045fc050653fd72aa2779455cd72a38351aebc2745acc61d03ebce98f6560178",
    "zsum-2": "0c4bddc22fb06ba76d2256112bb3b8bd7a5d2a3463c79da1578fd6e8ec87bd9f",
}


def _digest(name: str, seed: int) -> str:
    grp, kind, n, N = CASES[name]
    system = BernoulliShift(grp, (0.5, 0.5), seed=40 + seed)
    y = system.substream_points(seed, [0])
    rep = greedy_cover(AdditiveFamily(indicator_symbol(1)), system, y,
                       make_folner(grp, kind), n, 0.45, N)
    record = {"report": rep.to_json(),
              "classes": [C.to_json() for C in rep.classes],
              "chosen": [C.to_json() for C in rep.chosen]}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, seed", [(n, s) for n in CASES for s in range(3)])
def test_greedy_cover_pins(name, seed):
    assert _digest(name, seed) == DIGESTS[f"{name}-{seed}"]
