"""Counted sums on nested schedules, the row-count helper, and the nu probe.

``trajectory_matrix`` evaluates a counted family (an additive family whose
observable counts its sums) on nested boxes shell by shell, each cell of the
last box once per point, and adds the counts up.  Every value must be
the one the per-set loop gives, bit for bit: ``sample_values`` on each F_n,
and the row sums of the observable's value matrix.
"""
import functools
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import cli, ergodic, systems
from folnerlab.ergodic import kingman_run, sample_points, trajectory_matrix
from folnerlab.families import AdditiveFamily, Family, MaxFamily
from folnerlab.folner import make_folner
from folnerlab.groups import (CyclicSum, FinSet, ZPower, ZSum, _box_shell,
                              is_subset, symdiff, union)
from folnerlab.systems import (BernoulliShift, FiniteMixture, _row_counts,
                               indicator_symbol, neg_pow_run, split_leaves,
                               symbol_value)

TOP = (1 << 64) - 1


class _Cells:
    """Counts the (point, cell) words hashed while active."""

    def __init__(self):
        self.sizes = []
        self._orig = systems.words_from_premixed

    def _hash(self, keys, cfg):
        out = self._orig(keys, cfg)
        self.sizes.append(out.size)
        return out

    def __enter__(self):
        self._patch = mock.patch.object(systems, "words_from_premixed", self._hash)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()

    @property
    def total(self) -> int:
        return sum(self.sizes)


def _per_set(fam, system, sets, pts):
    """The per-set loop: sample_values on each set, normalized."""
    return np.column_stack([fam.sample_values(system, F, pts) / len(F) for F in sets])


def _row_sums(obs, system, sets, pts):
    """The row sums of the observable's value matrix on each set, normalized."""
    out = np.empty((len(pts), len(sets)))
    for j, F in enumerate(sets):
        for leaf, idx, batch in split_leaves(system, pts):
            out[idx, j] = obs.window_values(leaf, batch, F).sum(axis=1) / len(F)
    return out


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (group, sequence kind, largest index): sets of at most a few thousand cells
CASES = [
    (ZPower(1), "z_boxes", 96),
    (ZPower(2), "z_boxes", 14),
    (CyclicSum((2,)), "cyclic_prefix", 9),
    (CyclicSum((2, 3)), "cyclic_prefix", 6),
    (ZSum(), "zsum_boxes", 4),
]


def _system(grp, probs, seed, mixture):
    if not mixture:
        return BernoulliShift(grp, probs, seed=seed)
    return FiniteMixture([(0.3, BernoulliShift(grp, probs, seed=seed)),
                          (0.7, BernoulliShift(grp, (0.2, 0.5, 0.3), seed=seed + 1))],
                         seed=seed + 2)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data(),
       npts=st.sampled_from([1, 3, 200]), mixture=st.booleans(),
       probs=st.sampled_from([(0.5, 0.5), (0.1, 0.6, 0.3), (0.0, 1.0)]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_nested_counts_match_the_per_set_loop(case, data, npts, mixture, probs, seed):
    grp, kind, top = case
    schedule = sorted(data.draw(st.sets(st.integers(1, top), min_size=2, max_size=4)))
    symbol = data.draw(st.integers(0, len(probs) - 1))
    seq = make_folner(grp, kind)
    system = _system(grp, probs, seed, mixture)
    obs = indicator_symbol(symbol)
    fam = AdditiveFamily(obs)
    pts = sample_points(system, npts, seed)
    with _Cells() as cells:
        V = trajectory_matrix(fam, system, seq, schedule, pts)
    sets = [seq.generate(n) for n in schedule]
    assert cells.total == npts * len(sets[-1])  # each (point, cell) once
    assert _same_bits(V, _per_set(fam, system, sets, pts))
    assert _same_bits(V, _row_sums(obs, system, sets, pts))


def test_nested_counts_on_one_row_slabs():
    # the last shell is [64, 256) x [0, 256), 49,152 cells, so each of its
    # slabs is one point, and [0, 64) x [64, 256), 12,288 cells
    grp = ZPower(2)
    seq, system = make_folner(grp, "z_boxes"), BernoulliShift(grp, (0.5, 0.5), seed=4)
    fam, pts = AdditiveFamily(indicator_symbol(1)), sample_points(system, 3, 8)
    with _Cells() as cells:
        V = trajectory_matrix(fam, system, seq, [3, 64, 256], pts)
    assert cells.sizes[-4:] == [49_152] * 3 + [3 * 12_288]
    assert cells.total == 3 * 256 ** 2
    sets = [seq.generate(n) for n in (3, 64, 256)]
    assert _same_bits(V, _per_set(fam, system, sets, pts))


@pytest.mark.parametrize("grp, kind, pairs", [
    (ZPower(1), "z_boxes", [(1, 2), (3, 9)]),
    (ZPower(2), "z_boxes", [(1, 1), (2, 7), (5, 6)]),
    (CyclicSum((2, 3)), "cyclic_prefix", [(1, 1), (1, 4), (2, 3)]),
    (ZSum(), "zsum_boxes", [(1, 3), (2, 4), ((2, 1), (3, 2, 2)), ((1,), (1, 3))]),
])
def test_box_shells_partition_the_difference(grp, kind, pairs):
    seq = make_folner(grp, kind)
    for m, n in pairs:
        E, F = seq.generate(m), seq.generate(n)
        shell = _box_shell(F, E)
        assert all(B.is_box and is_subset(B, F) for B in shell)
        assert sum(len(B) for B in shell) == len(F) - len(E)  # disjoint
        joined = functools.reduce(union, shell, FinSet(grp))
        assert is_subset(E, F) and joined == symdiff(F, E)  # F minus E


_CHAIN = [FinSet(ZPower(1), [(x,) for x in xs])
          for xs in ([0, 2], [0, 2, 5], [-3, 0, 1, 2, 5, 9])]


@pytest.mark.parametrize("seq, fam, schedule", [
    # anchored boxes are not nested
    (make_folner(ZPower(1), "z_boxes", "squares"), AdditiveFamily(indicator_symbol(1)),
     [1, 2, 3, 5]),
    (make_folner(ZPower(2), "z_boxes", "squares"), AdditiveFamily(indicator_symbol(0)),
     [2, 3, 6]),
    # nested sets, but no boxes
    (make_folner(ZPower(1), "explicit", sets=_CHAIN), AdditiveFamily(indicator_symbol(1)),
     [1, 2, 3]),
    # nested boxes, but the sums are not counted
    (make_folner(ZPower(2), "z_boxes"), AdditiveFamily(symbol_value()), [2, 4, 8]),
    (make_folner(CyclicSum((2, 3)), "cyclic_prefix"), MaxFamily(symbol_value()),
     [1, 2, 3]),
], ids=["z1-squares", "z2-squares", "explicit-chain", "symbol-value", "window-max"])
def test_other_schedules_and_families_keep_the_per_set_loop(seq, fam, schedule):
    system = BernoulliShift(seq.group, (0.3, 0.7), seed=6)
    pts = sample_points(system, 40, 2)
    with _Cells() as cells:
        V = trajectory_matrix(fam, system, seq, schedule, pts)
    sets = [seq.generate(n) for n in schedule]
    assert cells.total == 40 * sum(len(F) for F in sets)
    assert _same_bits(V, _per_set(fam, system, sets, pts))


# ---------------------------------------------------------------------------
# the row-count helper


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("width", [*range(1, 18), 63, 64, 65, 4096])
def test_row_counts_match_the_boolean_sum(rows, width):
    rng = np.random.default_rng(width * 10 + rows)
    for p in (0.0, 0.3, 1.0):
        mask = rng.random((rows, width)) < p
        assert np.array_equal(_row_counts(mask), mask.sum(axis=1))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 24, 31])
def test_row_counts_at_the_extreme_cuts(width):
    rng = np.random.default_rng(width)
    words = rng.integers(0, 1 << 63, size=(3, width), dtype=np.uint64) * np.uint64(2)
    words[:, ::3] = TOP
    words[:, 1::4] = 0
    for cut in (0, 1, TOP):
        mask = words >= np.uint64(cut)
        assert np.array_equal(_row_counts(mask), mask.sum(axis=1))
        assert np.array_equal(_row_counts(mask[:1]), mask[:1].sum(axis=1))


@pytest.mark.parametrize("cut", [0, TOP])
@pytest.mark.parametrize("n", [1, 5, 8, 13])
def test_counted_sums_at_the_extreme_cuts(cut, n):
    grp = ZPower(1)
    leaf = BernoulliShift(grp, (0.5, 0.5), seed=3)
    leaf._cuts = np.asarray([cut], dtype=np.uint64)  # symbol 1 from this word up
    F = make_folner(grp, "z_boxes").generate(n)
    for npts in (1, 20):
        batch = sample_points(leaf, npts, 5)
        for symbol in (0, 1):
            obs = indicator_symbol(symbol)
            want = obs.window_values(leaf, batch, F).sum(axis=1)
            assert _same_bits(obs.window_values(leaf, batch, F, summed=True), want)
            if cut == 0:  # every word reaches it
                assert (want == (n if symbol == 1 else 0)).all()


# ---------------------------------------------------------------------------
# the nu probe


def _nu_calls():
    """Wraps ergodic.nu_estimate, recording the (index, samples, seed) of each call."""
    calls, orig = [], ergodic.nu_estimate

    def wrapped(fam, seq, system, n, samples, seed=99, report=None):
        calls.append((n, samples, seed))
        return orig(fam, seq, system, n, samples, seed, report)

    return calls, mock.patch.object(ergodic, "nu_estimate", wrapped)


def _plane():
    grp = ZPower(2)
    return make_folner(grp, "z_boxes"), BernoulliShift(grp, (0.5, 0.5), seed=3)


@pytest.mark.parametrize("nu_floor, probed, kind", [
    (-25.0, False, "subadditive_average"),
    (0.0, False, "subadditive_average"),
    (0.1, True, "subadditive_average"),
    (0.9, True, "truncation_ladder"),
])
def test_probe_is_sampled_only_when_it_can_fire(nu_floor, probed, kind):
    seq, system = _plane()
    calls, patch = _nu_calls()
    with patch:
        rep = kingman_run(AdditiveFamily(indicator_symbol(1)), seq, system,
                          [2, 4, 8], samples=60, seed=5, nu_floor=nu_floor)
    assert rep.kind == kind
    assert ((8, 60, 5 + 211) in calls) == probed
    if kind == "truncation_ladder":
        assert rep.target_summary["nu_probe"]["n_samples"] == 60
        assert rep.gates["nu_floor_breached"] == rep.target_summary["nu_probe"]["mean"]


def test_ladder_family_still_takes_the_ladder():
    # a negative observable: the probe is sampled and reported
    seq = make_folner(ZPower(1), "z_boxes")
    system = BernoulliShift(ZPower(1), (0.4, 0.6), seed=11)
    calls, patch = _nu_calls()
    with patch:
        rep = kingman_run(AdditiveFamily(neg_pow_run(2.0, cap=30)), seq, system,
                          [4, 16, 64], samples=120, seed=7, nu_floor=-5.0)
    assert rep.kind == "truncation_ladder"
    assert calls == [(64, 120, 7 + 211)]
    assert rep.target_summary["nu_probe"]["mean"] < -5.0


@pytest.mark.parametrize("nu_floor", [-25.0, 0.1])
def test_probe_gate_refuses_before_any_sampling(monkeypatch, nu_floor):
    # the probe's gate runs where the probe did, sampled or not
    def refuse(report, seq, indices):
        assert indices == [8]
        raise ergodic.GateRefusal("family properties", "refused here")

    def sampled(*args, **kw):
        raise AssertionError("points were sampled")

    monkeypatch.setattr(ergodic, "_nu_gate", refuse)
    monkeypatch.setattr(Family, "sample_values", sampled)
    seq, system = _plane()
    with pytest.raises(ergodic.GateRefusal) as exc:
        kingman_run(AdditiveFamily(indicator_symbol(1)), seq, system, [2, 4, 8],
                    samples=60, seed=5, nu_floor=nu_floor)
    assert exc.value.detail == "refused here"


# converge summaries and CSVs at four floors, as the per-set loop with the
# probe always sampled wrote them
_CONVERGE = {"group": {"kind": "z_power", "d": 2}, "sequence": {"kind": "z_boxes"},
             "system": {"kind": "bernoulli", "probs": [0.5, 0.5], "seed": 3},
             "family": {"kind": "additive",
                        "observable": {"kind": "indicator_symbol", "symbol": 1}},
             "n_schedule": [2, 4, 8, 16, 32], "samples": 150, "seed": 5}
_AVERAGE = ("6c264f225e4579ef8076ecff783d30be83e1926e6a1400368a6913e6633f9c3c",
            "9776a676e7913f04048502528a42129be640c8a7678ea78121ba30d4ef957797")
_LADDER = ("3119e52a4db588a196de80d031f58426398d0b1c44866ee9e6f8f43e99b6fc8d",
           "a5a6cbadacec64e7677e6ff68fb7b880b89e2922051bb27819011d60a88a73b5")


@pytest.mark.parametrize("nu_floor, code, digests", [
    (None, 2, _AVERAGE), (0.0, 2, _AVERAGE), (0.1, 2, _AVERAGE), (0.9, 0, _LADDER),
], ids=["default", "zero", "positive", "ladder"])
def test_converge_outputs_keep_their_bytes(tmp_path, nu_floor, code, digests):
    cfg = dict(_CONVERGE) if nu_floor is None else {**_CONVERGE, "nu_floor": nu_floor}
    path, csv, summary = (tmp_path / name for name in ("c.json", "o.csv", "o.json"))
    path.write_text(json.dumps(cfg))
    assert cli.main(["converge", "--config", str(path), "--csv", str(csv),
                     "--summary", str(summary)]) == code
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (summary, csv))
    assert got == digests
