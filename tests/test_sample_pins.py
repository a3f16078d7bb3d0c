"""Pins of the sample points: SHA-256 over each point's leaf index,
configuration key (Bernoulli leaves), base point (torus leaves, as float
hex) and offset (as its group element's JSON, so the pins do not depend on
the width of the offset rows).

The digests were taken from the per-point records that ``Points`` replaced
(``sample_point`` and ``apply`` on ``ShiftPoint``, ``TorusPoint`` and
``MixturePoint``), so the batch draw and ``Points.moved`` must reproduce
every draw and every translation.
"""
import hashlib
import json
import math

import numpy as np
import pytest

from folnerlab.ergodic import sample_points
from folnerlab.groups import CyclicSum, ZPower, ZSum
from folnerlab.systems import BernoulliShift, FiniteMixture, TorusRotation
from scalar_oracle import random_elem, sample

ALPHA = (math.sqrt(5) - 1) / 2

DIGESTS = {
    "bernoulli-z1": "f9f61b1bd2ea234a66b789c504083083f90b954121b7acd7aa1a7415269cf42b",
    "bernoulli-z2": "5e5d20b681d718d2e5ec527b8faf83033d9a35cd27270ef9308e205ab0420acf",
    "bernoulli-cyclic": "a4c0a1c95395f2481efaace47701bcee1da08a9d51d6d0de8e8ed405e60e0ff3",
    "bernoulli-zsum": "ceac570a5b10c4faf5a22138532f224c69280d664f616db7a60b6d60775b8392",
    "torus-z2": "2048840a83372c0e6ed24df9fbc2b91ae02e8a526d3e79da026240921d3eeb38",
    "mixture-two-leaf": "bbedc1a133f64c43e0834ea28684e69b9721807354a180dfac126604fbdbe041",
    "mixture-nested": "2cde4155ff8234ad7007f254ad34afc2f6d14f09ad0ed9b5beb1eb4405b419c3",
    "mixture-bernoulli-torus":
        "bf7e79efbef662b094bd30a791a61985ce82800f1e50fb3ee6da229df1135756",
    "shared-generator": "4e08ca7efae77a87b6b0b3864dffb87bb14d0ff98c14c3e7e6e455a0ba5cd9d0",
    "translated-cyclic": "22d8e90933d965f8f44d8baa1d70455fb318d79b38e5a83e1652a83cc0aaa607",
    "translated-zsum": "d4127acfd68370040b203b02e553ec7b87f1b0c48b70965b77eef2c026149637",
}


def _bern(grp, seed):
    return BernoulliShift(grp, (0.6, 0.3, 0.1), seed=seed)


def _nested():
    z1 = ZPower(1)
    return FiniteMixture([(0.5, _bern(z1, 9)),
                          (0.5, FiniteMixture([(0.4, _bern(z1, 10)),
                                               (0.6, _bern(z1, 11))], seed=12))],
                         seed=13)


def _translated(grp):
    # two rounds of per-point translations: the sums wrap on CyclicSum, and
    # on ZSum the offset rows widen past the sampled width
    system = FiniteMixture([(0.5, _bern(grp, 16)), (0.5, _bern(grp, 17))], seed=18)
    pts = sample_points(system, 30, 5)
    rng = np.random.default_rng(19)
    for _ in range(2):
        gs = [random_elem(grp, rng, 3) for _ in range(len(pts))]
        pts = pts.moved(grp, grp.dense_rows(gs))
    return system, pts


def _case(case):
    """(system, points) of each pinned draw."""
    z1 = ZPower(1)
    kind, name = case.split("-", 1)
    if kind == "bernoulli":
        groups = {"z1": z1, "z2": ZPower(2), "cyclic": CyclicSum((2, 3)), "zsum": ZSum()}
        system = _bern(groups[name], 20 + list(groups).index(name))
        return system, sample_points(system, 40, 3)
    if kind == "torus":
        system = TorusRotation(ZPower(2), (ALPHA, math.sqrt(2) - 1), seed=4)
        return system, sample_points(system, 40, 3)
    if kind == "mixture":
        system = {
            "two-leaf": lambda: FiniteMixture([(0.3, _bern(z1, 5)), (0.7, _bern(z1, 6))],
                                              seed=8),
            "nested": _nested,
            "bernoulli-torus": lambda: FiniteMixture(
                [(0.45, _bern(z1, 14)), (0.55, TorusRotation(z1, (ALPHA,), seed=2))],
                seed=15),
        }[name]()
        return system, sample_points(system, 60, 21)
    if kind == "shared":
        # as lemma_checks.indicator_decomposition_check draws: one generator, in turn
        system = _nested()
        return system, sample(system, [np.random.default_rng(11)] * 50)
    return _translated({"cyclic": CyclicSum((2, 3)), "zsum": ZSum()}[name])


def canonical(system, pts) -> str:
    leaves = [leaf for _, leaf in system.components()]
    out = []
    for i in range(len(pts)):
        leaf = leaves[pts.leaf[i]]
        grp = leaf.group
        offset = grp.elem_to_json(grp.rows_to_elems(pts.offsets[i:i + 1])[0])
        if isinstance(leaf, BernoulliShift):
            out.append([int(pts.leaf[i]), int(pts.cfgs[i]), None, offset])
        else:
            base = [float(x).hex() for x in pts.bases[i, :grp.d]]
            out.append([int(pts.leaf[i]), None, base, offset])
    return json.dumps(out)


@pytest.mark.parametrize("case", DIGESTS)
def test_sample_points_are_pinned(case):
    system, pts = _case(case)
    assert hashlib.sha256(canonical(system, pts).encode()).hexdigest() == DIGESTS[case]

