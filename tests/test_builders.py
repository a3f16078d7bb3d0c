"""Pins of the finite-set builders: the element order of every box, prefix
subgroup, window, enumeration stream and tile, as SHA-256 over ``repr``.

The digests were taken before the builders were collapsed into one, so any
change in order, membership or certificate shape shows up here.
"""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import (CyclicSum, EnumBudget, FinSet, ZPower, ZSum,
                       enumerate_finsets, enumerate_tiles, make_folner,
                       window_set)
from folnerlab.groups import _box
from scalar_oracle import canon

Z1 = ZPower(1)
Z2 = ZPower(2)
K = CyclicSum((2, 3, 2))
ZS = ZSum()


def _stream(grp, **budget):
    return [s.elems for s in enumerate_finsets(grp, EnumBudget(**budget))]


def _tiles(grp, max_card, max_index=None):
    return [(c.tile.elems, c.centers, c.iso is not None)
            for c in enumerate_tiles(grp, max_card, max_index)]


def _generate(grp, kind, indices, anchors=None):
    seq = make_folner(grp, kind, anchors=anchors)
    return [seq.generate(n).elems for n in indices]


BUILDS = {
    "finsets-z1": lambda: _stream(Z1, max_card=3, lo=-1, hi=2),
    "finsets-z1-cut": lambda: _stream(Z1, max_card=3, lo=-3, hi=3, max_sets=10),
    "finsets-z2": lambda: _stream(Z2, max_card=2, lo=0, hi=1),
    "finsets-z2-cut": lambda: _stream(Z2, max_card=4, lo=-1, hi=1, max_sets=150),
    "finsets-cyclic": lambda: _stream(K, max_card=2, max_index=2),
    "finsets-cyclic-cut": lambda: _stream(K, max_card=12, max_index=3,
                                          max_sets=60),
    "finsets-zsum": lambda: _stream(ZS, max_card=2, lo=-1, hi=1, max_index=2),
    "finsets-zsum-cut": lambda: _stream(ZS, max_card=6, lo=0, hi=2, max_index=3,
                                        max_sets=120),
    "window-z2": lambda: window_set(Z2, 2).elems,
    "window-cyclic": lambda: window_set(K, 3).elems,
    "window-zsum": lambda: window_set(ZS, 1).elems,
    "window-zsum-wide": lambda: window_set(ZS, 2, 2).elems,
    "tiles-z1": lambda: _tiles(Z1, 8),
    "tiles-z2": lambda: _tiles(Z2, 6),
    "tiles-cyclic": lambda: _tiles(CyclicSum((2, 3)), 12),
    "tiles-zsum": lambda: _tiles(ZS, 6, 3),
    "generate-z-boxes": lambda: _generate(Z2, "z_boxes", [1, 2, 3, 4]),
    "generate-z-squares": lambda: _generate(Z2, "z_boxes", [1, 2, 3],
                                            anchors="squares"),
    "generate-cyclic-prefix": lambda: _generate(CyclicSum((2, 3, 5)),
                                                "cyclic_prefix", [1, 2, 3, 4]),
    "generate-zsum-boxes": lambda: _generate(ZS, "zsum_boxes",
                                             [1, 2, 3, (2, 3), (3, 1, 2)]),
}

DIGESTS = {
    "finsets-cyclic":
        "4ba058e3b7c79d1b8d88f52757d910c089e35c2eb8e99b485d64b362df67e3e4",
    "finsets-cyclic-cut":
        "1bb2d50e8b4bb32a0bf79305d95ce34cbce43dc3183b885eb36d8b7fee8f4d18",
    "finsets-z1":
        "c2fa1ad5a56fa5f5954415741547921ae186c3ea12584abfdcdd0a22d0100c0e",
    "finsets-z1-cut":
        "117d91b6f563137c968d5ed1a9af6dde141379a2adfbe885c7fed533ffc614cf",
    "finsets-z2":
        "43a12334c604b9a6de263d9727285bb5191fe9d46308deea44899ae78a2104d5",
    "finsets-z2-cut":
        "73a4a177d78a1594dca4204bc4bf53cf96214d1df5e9f0f15708861020ac568d",
    "finsets-zsum":
        "ca694503e0c172fa0e5f18ecc1de168cf86ee87b43eec30a0c4f98e79cac2660",
    "finsets-zsum-cut":
        "3873314da2d51948e348d1a69cd1edd83370c7468fe0b73e0cecefac157ebacf",
    "generate-cyclic-prefix":
        "c94011ba6c6462b4ec7831d48d49ddd490fd2ec89fe20e5ad59548bd4c4a2e13",
    "generate-z-boxes":
        "47ddf0e7bbb28b94cada6f24379733ea5608273bb6c47cf30965de8ccde52db7",
    "generate-z-squares":
        "d5fd97268ebd1f43d7dede48d29f26faa32b455302bbe3a32e66b11cf0828e70",
    "generate-zsum-boxes":
        "d5fb5dbcb8466b92738da85838fc610cb1e7aba589b37a1fc1c159b7007f2986",
    # tiles-cyclic and tiles-zsum were re-taken when the three center
    # descriptors became LatticeCenters: the repr names the new class, and
    # test_tiling checks that membership kept the old rules
    "tiles-cyclic":
        "b2c8394c2a5de0ddf7538f23736bfd5c0b412e4caf229839bd2e321dc399d025",
    "tiles-z1":
        "d570f99b8a5903125420b19ba2397592d6e475b9f85bc4cfa6df054d4c35293c",
    "tiles-z2":
        "95b74b8b034a6894e8fedee88989104de0b185fd95ad2e7823b7a70205fe5675",
    "tiles-zsum":
        "e8d9b1f70b75a3e5e7d5061035e4a900be5e960a8b470aaa881d9cc3cc7c234e",
    "window-cyclic":
        "46e7a8ae6669cbecf15541226ba0d1d40542eedf1fec2d8c643f254b7a4f9cd9",
    "window-z2":
        "d72bba578724fdaec0f90f6dcd6132944f942e3ced498019b6db0c829b287b26",
    "window-zsum":
        "50fc437ac578dd580786150c137d866b163a82815815e9a5b1e9b0fc3a869ac9",
    "window-zsum-wide":
        "8bcb39ca1b75d02d1a31da726cc0a494e350ea02fbe05375833063464107763a",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builder_order_is_pinned(name):
    digest = hashlib.sha256(repr(BUILDS[name]()).encode()).hexdigest()
    assert digest == DIGESTS[name]


def _sub_range(draw, lo, hi):
    a = draw(st.integers(lo, hi))
    return range(a, draw(st.integers(a, hi)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("grp", [Z1, Z2, ZPower(3), K, ZS],
                         ids=["z1", "z2", "z3", "cyclic", "zsum"])
def test_box_matches_naive_loop(grp, data):
    if isinstance(grp, ZPower):
        ranges = [_sub_range(data.draw, -3, 3) for _ in range(grp.d)]
    elif isinstance(grp, CyclicSum):
        width = data.draw(st.integers(0, 4))
        ranges = [_sub_range(data.draw, 0, grp.period(i)) for i in range(width)]
    else:
        width = data.draw(st.integers(0, 4))
        ranges = [_sub_range(data.draw, -2, 2) for _ in range(width)]
    rows = [()]
    for r in ranges:
        rows = [row + (v,) for row in rows for v in r]
    if isinstance(grp, ZPower):
        expected = FinSet(grp, rows)
    else:
        expected = FinSet(grp, [canon(grp, enumerate(row)) for row in rows])
    assert _box(grp, ranges) == expected
