"""Work counts pinned as exact budgets: the closed-form box rules form no
Minkowski pair and compare no key, a nested trajectory hashes each
(point, cell) once, a batch of points is split by leaf once per set,
translated windows read one hashed box, the classifiers build no generator
per trial, and the maximal-cover bench ops hash a pinned number of words."""
import itertools
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

from folnerlab import cli, ergodic, families, groups, systems, tiling
from folnerlab.ergodic import (greedy_cover, kingman_run, nu_estimate, setfn_classify,
                               setfn_registry)
from folnerlab.families import AdditiveFamily, classify
from folnerlab.folner import make_folner, tempelman_report
from folnerlab.groups import CyclicSum, ZPower, ZSum, product_set, union, zsum_box
from folnerlab.systems import BernoulliShift, FiniteMixture, indicator_symbol
from folnerlab.tiling import Iso, LatticeCenters, TilingCert, compose

SHAPES = [t for n in (1, 2, 3) for t in itertools.product(range(1, 5), repeat=n)]


def test_zsum_box_identities_form_no_product_pair():
    # every shape pair (a, b) with len(a) <= len(b), a padded with ones:
    # tile(a) . iso_a(box b) is box(a * b), box a . box b is box(a + b - 1),
    # and box a u box b is box b itself when a <= b entrywise; a box is built
    # once per distinct (lo, ext) it is asked for, and no key array is built
    g = ZSum()
    groups._interned_box.cache_clear()
    boxes = {s: zsum_box(g, s) for s in SHAPES}
    certs = {s: TilingCert(boxes[s], LatticeCenters(g, s), Iso(g, s))
             for s in SHAPES}
    pairs = unions = 0
    with mock.patch.object(groups, "_product", wraps=groups._product) as products, \
            mock.patch.object(np, "array_equal", wraps=np.array_equal) as key_compares, \
            mock.patch.object(np, "arange", wraps=np.arange) as key_arrays:
        for a, b in itertools.product(SHAPES, SHAPES):
            if len(a) > len(b):
                continue
            A = a + (1,) * (len(b) - len(a))
            assert compose(certs[a], boxes[b]) == zsum_box(g, tuple(
                x * y for x, y in zip(A, b)))
            assert product_set(boxes[a], boxes[b]) == zsum_box(g, tuple(
                x + y - 1 for x, y in zip(A, b)))
            if all(x <= y for x, y in zip(A, b)):
                U = union(boxes[a], boxes[b])  # box a when the two are equal
                assert U is boxes[b] or (U is boxes[a] and U == boxes[b])
                unions += 1
            pairs += 1
        assert key_arrays.call_count == 0
        boxes[(2, 3)].keys  # the spy sees a box's keys built once they are read
        assert key_arrays.call_count == 1
    assert (pairs, unions) == (5712, 1710)
    assert products.call_count == 0 and key_compares.call_count == 0
    builds = groups._interned_box.cache_info()
    assert (builds.hits + builds.misses, builds.misses) == (22932, 1063)


def test_plane_tempelman_gate_builds_no_key_array():
    # the README plane schedule: each F_k^-1, each inverse union and each
    # U_n = [1 - n, n - 1]^2 is a box read off corners, and nothing decodes
    grp = ZPower(2)
    schedule = [2, 4, 8, 16, 32, 64, 128, 256]
    groups._interned_box.cache_clear()
    seq = make_folner(grp, "z_boxes")
    sub = make_folner(grp, "explicit", sets=tuple(seq.generate(n) for n in schedule))
    with mock.patch.object(np, "arange", wraps=np.arange) as key_arrays, \
            mock.patch.object(groups, "_decode", wraps=groups._decode) as decodes, \
            mock.patch.object(groups, "_product", wraps=groups._product) as products:
        report = tempelman_report(sub, len(schedule))
    assert (key_arrays.call_count, decodes.call_count, products.call_count) == (0, 0, 0)
    assert report.ratios == tuple(Fraction((2 * n - 1) ** 2, n * n) for n in schedule)
    # the eight boxes, their inverses and the eight products U_n
    assert groups._interned_box.cache_info().misses == 24


def test_box_certificates_compose_without_a_product():
    # every certificate read from a box tile composes a box F as the closed
    # form: an Iso that read its shift or scale wrong would still compose
    # correctly, through product_set, but no longer for free
    cases = [(ZPower(1), "z_boxes"), (ZPower(2), "z_boxes"),
             (CyclicSum((2,)), "cyclic_prefix"), (CyclicSum((3,)), "cyclic_prefix"),
             (ZSum(), "zsum_boxes")]
    composed = 0
    for grp, kind in cases:
        seq = make_folner(grp, kind)
        certs = [tiling.standard_cert(seq, n) for n in range(1, 5)]
        certs += tiling.enumerate_tiles(grp, 6, 3)
        Fs = [seq.generate(n) for n in range(1, 5)]
        Fs += [c.tile for c in tiling.enumerate_tiles(grp, 6, 3) if c.tile.is_box]
        with mock.patch.object(tiling, "product_set", wraps=tiling.product_set) as products:
            for cert in certs:
                if cert.iso is None:
                    continue
                for F in Fs:
                    out = compose(cert, F)
                    assert out.is_box and len(out) == len(cert.tile) * len(F)
                    composed += 1
        assert products.call_count == 0, (grp, kind)
    assert composed == 1326


def test_nested_kingman_run_hashes_each_cell_once(monkeypatch):
    # a counted family on a nested schedule: the trajectory hashes each
    # (point, cell) of F_max once, the nu probe (which a non-negative family
    # cannot fire at the default floor) hashes nothing, and the nu reference
    # takes its own points; the leaf targets are exact, so they hash nothing
    grp = ZPower(2)
    seq = make_folner(grp, "z_boxes")
    system = BernoulliShift(grp, (0.5, 0.5), seed=3)
    fam = AdditiveFamily(indicator_symbol(1))
    hashed, stage = {}, ["other"]

    def words(keys, cfg, _orig=systems.words_from_premixed):
        out = _orig(keys, cfg)
        hashed[stage[-1]] = hashed.get(stage[-1], 0) + out.size
        return out

    def staged(name, fn):
        def run(*args, **kw):
            stage.append(name)
            try:
                return fn(*args, **kw)
            finally:
                stage.pop()
        return run

    def nu(fam, seq, system, n, samples, seed=99, report=None,
           _orig=ergodic.nu_estimate, _seed=7):
        name = {_seed + 211: "probe", _seed + 101: "reference"}[seed]
        return staged(name, _orig)(fam, seq, system, n, samples, seed, report)

    monkeypatch.setattr(systems, "words_from_premixed", words)
    monkeypatch.setattr(ergodic, "nu_estimate", nu)
    monkeypatch.setattr(ergodic, "trajectory_matrix",
                        staged("trajectory", ergodic.trajectory_matrix))
    monkeypatch.setattr(ergodic, "classify", staged("classify", ergodic.classify))
    stages = ("classify", "probe", "trajectory", "reference", "other")
    for nu_floor, probe in ((-25.0, 0), (0.1, 150 * 256)):
        hashed.clear()
        rep = kingman_run(fam, seq, system, [2, 4, 8, 16], samples=150, seed=7,
                          nu_floor=nu_floor)
        assert rep.kind == "subadditive_average"
        assert {k: hashed.get(k, 0) for k in stages} == {
            "classify": 300 * 567, "probe": probe, "trajectory": 150 * 256,
            "reference": 150 * 256, "other": 0}


def test_nu_estimate_splits_each_set_once():
    # 1,000 points on the 16 x 16 box of a two-leaf mixture: one split by
    # leaf for the whole batch, and one slab loop per leaf
    grp = ZPower(2)
    seq = make_folner(grp, "z_boxes")
    system = FiniteMixture([(0.5, BernoulliShift(grp, (0.75, 0.25), seed=21)),
                            (0.5, BernoulliShift(grp, (0.25, 0.75), seed=22))], seed=23)
    fam = AdditiveFamily(indicator_symbol(1))
    report = classify(fam, grp, system)
    splits, loops = [], []

    def split(system, points, _orig=families.split_leaves):
        splits.append(len(points))
        return _orig(system, points)

    def slabs(n, cells, _orig=families._slabs):
        loops.append((n, cells))
        return _orig(n, cells)

    with mock.patch.object(families, "split_leaves", split), \
            mock.patch.object(families, "_slabs", slabs):
        est = nu_estimate(fam, seq, system, 16, 1000, seed=5, report=report)
    assert est.n_samples == 1000
    assert splits == [1000]
    assert len(loops) == 2 and sum(n for n, _ in loops) == 1000
    assert all(cells == 256 for _, cells in loops)


def test_greedy_cover_reads_one_hashed_box_per_window():
    # the 64 core translates of F_1, F_2, F_3 on the sum of Z/2s: each window
    # is one batch of the points still free, whose sum box has 64 cells, no
    # more than its (point, cell) pairs, so it hashes that box once and
    # gathers from it, with no sort of distinct cells and no searchsorted;
    # its points share one configuration key, so the box is hashed into 64
    # words once.  The value at F_6 of the untranslated point reads F_6's
    # own keys
    grp = CyclicSum((2,))
    seq = make_folner(grp, "cyclic_prefix")
    system = BernoulliShift(grp, (0.7, 0.3), seed=5)
    fam = AdditiveFamily(indicator_symbol(1))
    y = system.substream_points(3, np.arange(1))
    inside, box_cells, words, sparse = [False], [], [], []

    def window(self, batch, F, _orig=BernoulliShift.window_uniforms):
        inside[0] = True
        try:
            return _orig(self, batch, F)
        finally:
            inside[0] = False

    def count(fn, out, name=None):
        def run(*args, **kw):
            res = fn(*args, **kw)
            if inside[0]:
                out.append(res.size if name is None else name)
            return res
        return run

    with mock.patch.object(BernoulliShift, "window_uniforms", window), \
            mock.patch.object(systems, "_box_keys",
                              count(systems._box_keys, box_cells)), \
            mock.patch.object(systems, "words_from_premixed",
                              count(systems.words_from_premixed, words)), \
            mock.patch.object(systems, "_unique", count(systems._unique, sparse, "sort")), \
            mock.patch.object(np, "searchsorted", count(np.searchsorted, sparse, "search")):
        rep = greedy_cover(fam, system, y, seq, 6, 0.6, 3)
    assert rep.covered
    assert sparse == []
    assert box_cells == [64] * 3
    assert words == [64] * 4


def test_classifiers_build_no_generator_per_trial():
    # classify and setfn_classify draw every trial from one _bits._Streams,
    # with no numpy generator at all
    grp = ZPower(1)
    system = BernoulliShift(grp, (0.5, 0.5), seed=1)
    with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as built, \
            mock.patch.object(np.random, "Generator", wraps=np.random.Generator) as made:
        classify(AdditiveFamily(indicator_symbol(1)), grp, system)
        setfn_classify(setfn_registry(grp)["card"], grp)
    assert built.call_count == 0 and made.call_count == 0


# op -> (words hashed, (point, cell) pairs of translated batches) at seed 0
_MAXIMAL_COVER = {
    "maximal-cyclic2": (1_321_856, 444_408),
    "maximal-line": (228_949, 2_737),
    "maximal-plane": (326_202, 24_411),
    "check-family-ceil-half": (18_900, 2_700),
    "check-family-max-cyclic2": (16_800, 2_400),
}


def test_maximal_cover_ops_hash_pinned_words(tmp_path, monkeypatch):
    # greedy windows are sampled only at the core points still free, and a
    # one-key batch hashes its box into words once (2,422,611 words and
    # 550,967 translated pairs before both; 1,947,207 words while classify
    # evaluated the translate E.g twice)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    counts = {}

    def words(keys, cfg, _orig=systems.words_from_premixed):
        out = _orig(keys, cfg)
        counts["words"] += out.size
        return out

    def window(self, batch, F, _orig=BernoulliShift.window_uniforms):
        if batch.offsets.any() and not F.is_empty:
            counts["pairs"] += len(batch) * len(F)
        return _orig(self, batch, F)

    monkeypatch.setattr(systems, "words_from_premixed", words)
    monkeypatch.setattr(BernoulliShift, "window_uniforms", window)
    got = {}
    for op in workloads.ops_for("maximal-cover", 0):
        counts.update(words=0, pairs=0)
        cfg = tmp_path / f"{op.name}.json"
        cfg.write_text(json.dumps(op.config))
        code = cli.main([op.command, "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
                         "--summary", str(tmp_path / "o.json")])
        assert code == op.expect, op.name
        got[op.name] = (counts["words"], counts["pairs"])
    assert got == _MAXIMAL_COVER
