"""Pins of the property classifier: SHA-256 over each ``ClassifyReport``'s
verdicts, trial counts, ``max_gap`` and full counterexample dicts, on every
family kind x group kind x system kind.

The digests were taken from the scalar classifier (one scalar family value
per set and trial), so the batch classifier must reproduce its reports: the
same sets and points per trial, the same first counterexample, the same
trial counts.  Families whose values are not exactly-represented floats pin
everything but ``max_gap``, which is compared within 1e-12.  On the same
grid, the masked ``leaf_values`` are checked against the scalar oracle.
"""
import hashlib
import json
import math

import numpy as np
import pytest

from folnerlab.families import (GAMMAS, AdditiveFamily, AdditivePlus,
                                ConcaveCardinality, DerivedPrime,
                                DerivedPrimeM, MaxFamily, MaxOfAdditives,
                                MinusCardSquared, Truncated, classify)
from folnerlab.folner import make_folner
from folnerlab.groups import CyclicSum, ZPower, ZSum
from folnerlab.systems import (BernoulliShift, FiniteMixture, TorusRotation,
                               indicator_symbol, neg_pow_run, scaled,
                               split_leaves, symbol_value, torus_coordinate)
from folnerlab.tiling import standard_cert, window_set
from scalar_oracle import family_value, random_elem, sample

TRIALS = 60
GROUPS = {"z1": ZPower(1), "z2": ZPower(2), "cyclic2": CyclicSum((2,)),
          "zsum": ZSum()}
_SEQ = {"z_power": "z_boxes", "cyclic_sum": "cyclic_prefix", "z_sum": "zsum_boxes"}


def _system(grp, kind):
    if kind == "bernoulli":
        return BernoulliShift(grp, (0.5, 0.3, 0.2), seed=5)
    if kind == "mixture":
        return FiniteMixture([(0.4, BernoulliShift(grp, (0.7, 0.2, 0.1), seed=6)),
                              (0.6, BernoulliShift(grp, (0.2, 0.3, 0.5), seed=7))],
                             seed=8)
    return TorusRotation(grp, (0.6180339887498949, 0.4142135623730951)[:grp.d], seed=3)


def _observables(grp, kind):
    """(a, b, signed): two non-negative observables and a non-positive one."""
    if kind == "torus":
        return (torus_coordinate(0), scaled(torus_coordinate(grp.d - 1), 0.75),
                scaled(torus_coordinate(0), -1.5))
    return symbol_value(), indicator_symbol(0), scaled(symbol_value(), -0.5)


def _families(grp, kind):
    a, b, signed = _observables(grp, kind)
    cert = standard_cert(make_folner(grp, _SEQ[grp.kind]), 2)
    fams = {
        "additive": AdditiveFamily(a),
        "additive-signed": AdditiveFamily(signed),
        "max": MaxFamily(a),
        "concave_cardinality": ConcaveCardinality(math.sqrt, "sqrt"),
        "additive_plus": AdditivePlus(a, GAMMAS["ceil_half"], 1.0, "ceil_half"),
        "max_of_additives": MaxOfAdditives(a, b),
        "truncated": Truncated(MinusCardSquared(AdditiveFamily(a)), 2),
        "derived_prime": DerivedPrime(MaxFamily(a)),
        "derived_prime_m": DerivedPrimeM(MaxOfAdditives(a, b), cert),
        "minus_card_squared": MinusCardSquared(AdditiveFamily(signed)),
    }
    if grp == ZPower(1) and kind != "torus":
        fams["additive-neg_pow_run"] = AdditiveFamily(neg_pow_run(2.0, cap=12))
    return fams


def _grid():
    for gname, grp in GROUPS.items():
        kinds = ("bernoulli", "mixture") + (("torus",) if isinstance(grp, ZPower) else ())
        for kind in kinds:
            for fname in _families(grp, kind):
                yield f"{gname}-{kind}-{fname}"


CASES = list(_grid())


def _case(case):
    gname, kind, fname = case.split("-", 2)
    grp = GROUPS[gname]
    return grp, _system(grp, kind), _families(grp, kind)[fname]


def _num(x):
    return repr(float(x))


def _canonical(report, with_gaps: bool) -> str:
    out = {}
    for prop, v in report.verdicts.items():
        cex = v.counterexample
        if cex is not None:
            cex = {k: (_num(x) if k in ("lhs", "rhs") else x) for k, x in cex.items()}
        out[prop] = [v.verdict, v.trials, _num(v.max_gap) if with_gaps else None, cex]
    return json.dumps(out, sort_keys=True)


def report_pins(case):
    """(digest, max_gaps or None): the gaps stand apart for inexact families."""
    grp, system, fam = _case(case)
    rep = classify(fam, grp, system, trials=TRIALS, seed=2024)
    digest = hashlib.sha256(_canonical(rep, fam.exact_values).encode()).hexdigest()
    gaps = None if fam.exact_values else {p: v.max_gap for p, v in rep.verdicts.items()}
    return digest, gaps, rep


@pytest.mark.parametrize("case", CASES)
def test_classify_report_is_pinned(case):
    digest, gaps, _ = report_pins(case)
    assert digest == DIGESTS[case]
    if gaps is not None:
        for prop, gap in gaps.items():
            assert abs(gap - MAX_GAPS[case][prop]) <= 1e-12, prop


@pytest.mark.parametrize("case", CASES)
def test_masked_leaf_values_match_the_oracle(case):
    # each point's masked subset of a window, at sampled and translated
    # points: bit for bit on exact families, within 1e-12 otherwise
    grp, system, fam = _case(case)
    W = window_set(grp, 2, 2)
    rng = np.random.default_rng(17)
    ys = sample(system, [rng] * 4)
    gs = [grp.identity()] * 4 + [random_elem(grp, rng, 2) for _ in range(4)]
    pts = ys[np.tile(np.arange(4), 2)].moved(grp, grp.dense_rows(gs))
    mask = rng.random((len(pts), len(W))) < 0.5
    mask[0] = True
    mask[1] = False
    mask[1, -1] = True
    for leaf, idx, batch in split_leaves(system, pts):
        got = fam.leaf_values(leaf, batch, W, mask[idx])
        for v, i in zip(got.tolist(), idx):
            sub = W.take(np.flatnonzero(mask[i]))
            if sub.is_empty:  # the caller reads an empty subset as 0
                continue
            want = family_value(fam, system, sub, pts[i:i + 1])
            if fam.exact_values:
                assert v == want, i
            else:
                assert abs(v - want) <= 1e-12, i


def test_every_family_kind_fails_somewhere():
    # so that the pins hold a counterexample of every kind
    fails = {}
    for case in (c for c in CASES if c.startswith("z1-")):
        kind = case.split("-", 2)[2].split("-")[0]
        rep = report_pins(case)[2]
        fails[kind] = fails.get(kind, False) or not all(
            v.passed for v in rep.verdicts.values())
    assert len(fails) == 9 and all(fails.values()), fails


DIGESTS = {
    "z1-bernoulli-additive":
        "cbccbd4150514740a7f0de93ba11580f2004c1a566f98cbddeffa1ce2cd8350b",
    "z1-bernoulli-additive-signed":
        "12c704272432ea5d6363b4cea81266c0268b69224eecaa886bf408b93914a339",
    "z1-bernoulli-max":
        "2b5023f6fd4ff075090e8905fce7644d8626744d4e3d8c18dc161cbbb7e7543e",
    "z1-bernoulli-concave_cardinality":
        "e3c631aed4061c38c7f31c9e09268f4cc97a1a8597718c0a7868cfec6d9665a6",
    "z1-bernoulli-additive_plus":
        "d581f6ccd3dbcb27853c7931457bce0a8ddd356f6363ffd4040488c04e0102ee",
    "z1-bernoulli-max_of_additives":
        "f6e62393e60bcc927b3c24192901c272d2f16de834854e3fbaca8e8a42eaff25",
    "z1-bernoulli-truncated":
        "86ca81f6b7ce380b1789ad42b3ae2d3e50d57a36aa44ae8ab1a7a6e97bce45d6",
    "z1-bernoulli-derived_prime":
        "05c55e86ec180c06f90b51d6f3ba8c36228df7ec8a680633de40ba33915dfa6e",
    "z1-bernoulli-derived_prime_m":
        "d9692b08d9b450282078c3e53aeedeb4fee237dcb5a40ce85347709c64863d65",
    "z1-bernoulli-minus_card_squared":
        "f2f425ede2e4cf368c29953e08ed5293d4edc116a59d8f234865927f5ef8af40",
    "z1-bernoulli-additive-neg_pow_run":
        "aebda98da39facefd9cbd41a484d13ce6f787f7e148bbbe770b5c33220fe007b",
    "z1-mixture-additive":
        "b70166a44038a92a7a21c65203a760f5c7269d13716bfa49b5f965871540e4fc",
    "z1-mixture-additive-signed":
        "bc4266165e8c7b8afe43e0c51003fe7999bea50c7ff19daae5437b65baff25f9",
    "z1-mixture-max":
        "a22d6d3881799831ec4c00a1567cfdaddc3d188abd67ca8f23080c3c28df4e6b",
    "z1-mixture-concave_cardinality":
        "e3c631aed4061c38c7f31c9e09268f4cc97a1a8597718c0a7868cfec6d9665a6",
    "z1-mixture-additive_plus":
        "15ccb39d6db98180a7b1730a64250638ef9f4e906169f9bb2080bead10fbc3b2",
    "z1-mixture-max_of_additives":
        "e418ee3defded94709d72b9bdaaacf54bb03f62e26bcf12de2a760b9c31db940",
    "z1-mixture-truncated":
        "13776682e1108865386822e5a56f64f2771232d10e02524baffda43da4184ca4",
    "z1-mixture-derived_prime":
        "40136149414f2ac067355d1ca8d8c9a8f7eb691d2d7665ddc87f996920e3ba6c",
    "z1-mixture-derived_prime_m":
        "1f07d02c2edab63e1b04b2867ea75c20f4b9d3f415f4f591713675b95dd2a2ce",
    "z1-mixture-minus_card_squared":
        "c8be09865917de2c799c143393098eb63b5e4999093efdef304acbc266dd3e19",
    "z1-mixture-additive-neg_pow_run":
        "4a71c5d4dd2d7e6061a34f7651ff01cacdeda40b500bb3e2ed885cf77dfae6d7",
    "z1-torus-additive":
        "521a35e6014f60eb128a2334f2fc7bac48f96c771e0f7c029130110c947cd801",
    "z1-torus-additive-signed":
        "3078ea8ffa29ef818c2178874d3aa8c6a55ebac3632376f3c59f1d482dc07949",
    "z1-torus-max":
        "8bb5646c3160bcf1dcf23b1e487f6a5972837d9152165310c767b38950d69c70",
    "z1-torus-concave_cardinality":
        "e3c631aed4061c38c7f31c9e09268f4cc97a1a8597718c0a7868cfec6d9665a6",
    "z1-torus-additive_plus":
        "41d363a399d27c75c6e65b84be3aeec2d9db7a2e5818db6e4bd7c9e253cd3183",
    "z1-torus-max_of_additives":
        "521a35e6014f60eb128a2334f2fc7bac48f96c771e0f7c029130110c947cd801",
    "z1-torus-truncated":
        "22cdff12a050121a78a0f12ab3483179285c4fb101219bbe4e1696b21a355995",
    "z1-torus-derived_prime":
        "6b194f30323c5764bdcd94359726087fdc5ec3ecc7f3397a20a3b574d9899c0f",
    "z1-torus-derived_prime_m":
        "521a35e6014f60eb128a2334f2fc7bac48f96c771e0f7c029130110c947cd801",
    "z1-torus-minus_card_squared":
        "278c9387685db243dd959d760ba493319fd66dd9e48b0a3a1f44c782603de0dd",
    "z2-bernoulli-additive":
        "bc0d5908aec6dd969b671bb4635462228dfc52e99ae010ad41752db482dc91e5",
    "z2-bernoulli-additive-signed":
        "78b7cfbab12037dc445afeb760e17b660e83a6acde36d69e855dd8d1c88de245",
    "z2-bernoulli-max":
        "594a4ee478820c4631f218cf4f80461f8caab74341a23a49c06280c603a7d29d",
    "z2-bernoulli-concave_cardinality":
        "6f5d336b351413fb933200dbdb56c8577a43a8e534010c9ca38e32830125ef14",
    "z2-bernoulli-additive_plus":
        "b156f6755b0a37e5060c870560b1afdcbcaf52d04742b196dd95c471b9720e11",
    "z2-bernoulli-max_of_additives":
        "1a0d49c3d12b6d41520908b38d8b0b150f4c8e29c22079d0b1531b0347499569",
    "z2-bernoulli-truncated":
        "bf9bf421f34e922b6dd2f95c66334aa499f66af034269b09cf566cc49d2c171d",
    "z2-bernoulli-derived_prime":
        "68a3398450e8438ea5f141caec2f5c72541fccbacccbc5d317f50246dc3939c9",
    "z2-bernoulli-derived_prime_m":
        "35886f639644fd367c533c33fc154261261ed1c14e23193c7fa7b31927d5288f",
    "z2-bernoulli-minus_card_squared":
        "9d509c6569abb08d3f6a77943f5e6131d6d997ec3406587fd0d1f3a19473d195",
    "z2-mixture-additive":
        "f304e9948d7f765640567a15ce1d5083a4b6a8026372bd50ba4f77a6fabc48a5",
    "z2-mixture-additive-signed":
        "4fc57825fe0a09a6553100165eaaa40047183aa1d281a56d40673ca181f72531",
    "z2-mixture-max":
        "a24259bb208d81acb6a59d42de50295e0549c221687310c699e580358bfafdcb",
    "z2-mixture-concave_cardinality":
        "6f5d336b351413fb933200dbdb56c8577a43a8e534010c9ca38e32830125ef14",
    "z2-mixture-additive_plus":
        "6db75c27254d82d5e6d81b5ce866cd487db1be05183c63c93fc093ef0c30c1fc",
    "z2-mixture-max_of_additives":
        "b519ee4ff463d61650d520524d8c42abecd92a4d9ccdb94a568f71122113b33c",
    "z2-mixture-truncated":
        "9f926fb2b9004000c065816c8b686e97bc7b7ccf18ab7d188acb178c16f5b6f1",
    "z2-mixture-derived_prime":
        "ff9dc38d95a0163f12ad6a83d2195a87b68d3ed3b0c6d3808130212c1241b256",
    "z2-mixture-derived_prime_m":
        "e7ea35cd26a6c250da8d1a7d905daec8fdfe1ba8c8c2f7fe056d04d2cbe15657",
    "z2-mixture-minus_card_squared":
        "ee0aa4c785137a91eb4414f53209c7965d1a2e5708d50ed142274ad005aec34d",
    "z2-torus-additive":
        "8e5fd1f4ba03c92f74187260687e9195e197664dbbfc34d8af6c2a6221a900eb",
    "z2-torus-additive-signed":
        "58dfd0fd2e0b6e156d3d98b87731a407d9a8a2a273f33d2fb520e0d617c7c9a7",
    "z2-torus-max":
        "460c76e56270b3a55d7420110b458031b36a164811fbfd94b062920869405121",
    "z2-torus-concave_cardinality":
        "6f5d336b351413fb933200dbdb56c8577a43a8e534010c9ca38e32830125ef14",
    "z2-torus-additive_plus":
        "1365f4783bbaa6be3c41b2bcdccc16cfb7d0e3defec0ee50db7d10c2c6834345",
    "z2-torus-max_of_additives":
        "505c6198530bfd94149893c684c0dad2add061fc6b4dc60cf79d2a867ea04b69",
    "z2-torus-truncated":
        "97f7689d1531532aa2f4e028ce6a1395835917201a7fee9c44b476c089a87fdb",
    "z2-torus-derived_prime":
        "e698f4efea58de70f9f08c88795d17acafcc8b5fbfd02888fa569f9d548b291d",
    "z2-torus-derived_prime_m":
        "90664d6389b4b1ee6d6e5f9b0bccccfd6b367ccd8d1faf367c7e777b094681d7",
    "z2-torus-minus_card_squared":
        "478fa1d96921697ecb37e20c9860482f0fb7733b6471479d9ab5329d14b334a0",
    "cyclic2-bernoulli-additive":
        "5b4cd8ae767a86c7db33920239f4f34937e28fc4a804d7d26d06abdccb09892e",
    "cyclic2-bernoulli-additive-signed":
        "bd41d81d5a12e8b97d71f550f3e6b724f31756e9560761ea8f3a27146c48b3f8",
    "cyclic2-bernoulli-max":
        "0cffd43540dc262ff0feb7c68ccaaebd6eb19fdfabd353e18c0c1660cfbdff2c",
    "cyclic2-bernoulli-concave_cardinality":
        "af2a02919b12cac171dc614a39e35d7f726e292d224bc760327e1066a4fbe53a",
    "cyclic2-bernoulli-additive_plus":
        "44e9ec1d3a2b8390b746579984104a15c1643d7e44623c344d06f177729bde08",
    "cyclic2-bernoulli-max_of_additives":
        "5541361be2640f66d3efc1e18a14319e2d1f0723524f007d65575c23c5a12a8a",
    "cyclic2-bernoulli-truncated":
        "feb9040789d02e305ee3ccfc893754265fa063ce9e115de0390f37d3a9f27c41",
    "cyclic2-bernoulli-derived_prime":
        "2d1f86d1e8b44ef557cd12ad48316144e606158af0670d3743d97ecb7b76b6a2",
    "cyclic2-bernoulli-derived_prime_m":
        "9031b28d312887625e0e969ce872fbf4c1cf70b013b2c4b5ba440044b053d68c",
    "cyclic2-bernoulli-minus_card_squared":
        "9bd4760ceea4c913beb0ab502551d97986c6189690145ebae950f676971ca0ab",
    "cyclic2-mixture-additive":
        "56cf53d69df5c65fe055651e86d9a6e9f74c06b48c8812a93c7eb0fc6fc428b6",
    "cyclic2-mixture-additive-signed":
        "29f6b203b5b074a1472828e91c159a04f1e3318593ef5f9f38a932417c63b1bc",
    "cyclic2-mixture-max":
        "8438a3f7158a658525c92e7b27c62de8370aee64904315af1cca74aff219ec78",
    "cyclic2-mixture-concave_cardinality":
        "af2a02919b12cac171dc614a39e35d7f726e292d224bc760327e1066a4fbe53a",
    "cyclic2-mixture-additive_plus":
        "ec146878baa2b191fb92e216fd707950880ae873cf3f3e4936387502a7877034",
    "cyclic2-mixture-max_of_additives":
        "632610f77b3b689fc55b416a379ebffc05adf51d431358cf48462ad254d7c221",
    "cyclic2-mixture-truncated":
        "7a6907306a0fc1c3a539d16b3ce061c32b9af17519b0ae31fcfa21c8da1345ee",
    "cyclic2-mixture-derived_prime":
        "021da4d3830d9a43ff0848afc1ef3dbd815d6a63d60e2c00c3a6fed663d00a49",
    "cyclic2-mixture-derived_prime_m":
        "ed324ae4f7399b551b33e4c6236e298e754d5e8e61651c5260712034c8ec5ea3",
    "cyclic2-mixture-minus_card_squared":
        "ab465accbd76a4d0dbe5bb290fc959a03056cc8321b0e7db20ee033ab7ea82a7",
    "zsum-bernoulli-additive":
        "0007db20ab25acd2492fbb660d21034420f50890340337d211b5cac68d84e51b",
    "zsum-bernoulli-additive-signed":
        "bc2e7b42b6c3d0196c063d17cb4dab9e8f21f7b3bec45c8b493180813965220f",
    "zsum-bernoulli-max":
        "4b6d454d9ded00fbfebc7857884fe8ff73c66fe8d8dfa7aab588f8b08643e902",
    "zsum-bernoulli-concave_cardinality":
        "dac8507f21f8e85ecb607011cbc7caa072f663ab7f4c3d200f32802ee6b504dd",
    "zsum-bernoulli-additive_plus":
        "f2dd1377d53446a9cb32afe0bc16163c4c455620cc8312bd25931e8e159b2cad",
    "zsum-bernoulli-max_of_additives":
        "2370584abb85e40f09743bda358f7e6f79e73faf594fcadb442ab4238df4d593",
    "zsum-bernoulli-truncated":
        "16c86b3ca5ca7a1efcce9945aa9b9ccc2996155536ce34fce436387a9b314317",
    "zsum-bernoulli-derived_prime":
        "0e3da7efb7483abf3fc8fb54272b23914a01da1aff01033ff0938d8ad71bd93c",
    "zsum-bernoulli-derived_prime_m":
        "424eade1c4cb6bec57d9ef4d57ec576a0a2592a99ec4390c3bd694afa85b3066",
    "zsum-bernoulli-minus_card_squared":
        "fea251df36385a27937671bb0cc996374ee3e7207c3e625121bb6885eaa4af15",
    "zsum-mixture-additive":
        "8bd6089318f6cd2a28272cc23e5f8f295daba24d3513507ada4a8d667c1c9795",
    "zsum-mixture-additive-signed":
        "33f580968d1db5bd9c40b740604313f30c7147aa9f7d22a3b6a933b3ea5e0886",
    "zsum-mixture-max":
        "ae967fe3ee919c486cf589cd56dd9bf9e625dd34ffe9d683908c0bf2c8347014",
    "zsum-mixture-concave_cardinality":
        "dac8507f21f8e85ecb607011cbc7caa072f663ab7f4c3d200f32802ee6b504dd",
    "zsum-mixture-additive_plus":
        "a26ab0d3feb6c3127374006d7b5b803d0951ec2c727c2a66741d9ddcd997987d",
    "zsum-mixture-max_of_additives":
        "bd332400544e873cfe424dcc39bdf845e8c63c533b10329f6bb5aebbb7fa6873",
    "zsum-mixture-truncated":
        "1f84ad0d1500696504e4b47d540e274141cc00c0508b47da953f42d2a5448314",
    "zsum-mixture-derived_prime":
        "8ce6fd414de2d439ecf3b54c9b9fea05a0364f9173cd4159577f512d2789272d",
    "zsum-mixture-derived_prime_m":
        "8e389291221b4f18418f5df187c3aacc2c1fb0e6f3567ee9f4787bf1de15a505",
    "zsum-mixture-minus_card_squared":
        "a40d43f5a19a76a6f33aada7bc4d015fd9bb347ac7867a72ddea0d1d78204ca9",
}
MAX_GAPS = {
    "z1-bernoulli-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-bernoulli-concave_cardinality": {"nonnegative": 2.23606797749979, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.2360679774997898, "subadditive": 0.9101963924421828, "strongly_subadditive": 0.8284271247461903, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-bernoulli-additive_plus": {"nonnegative": 9.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 7.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "z1-bernoulli-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 12.0, "strongly_subadditive": 8.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-bernoulli-additive-neg_pow_run": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-mixture-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-mixture-concave_cardinality": {"nonnegative": 2.23606797749979, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.2360679774997898, "subadditive": 0.9101963924421828, "strongly_subadditive": 0.8284271247461903, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-mixture-additive_plus": {"nonnegative": 13.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 9.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "z1-mixture-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 12.0, "strongly_subadditive": 8.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-mixture-additive-neg_pow_run": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-torus-additive": {"nonnegative": 3.0894814605739467, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 2.547642956414254, "subadditive": 4.440892098500626e-16, "strongly_subadditive": 4.440892098500626e-16, "supadditive": 4.440892098500626e-16, "strongly_supadditive": 4.440892098500626e-16},
    "z1-torus-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 4.440892098500626e-16, "strongly_subadditive": 4.440892098500626e-16, "supadditive": 4.440892098500626e-16, "strongly_supadditive": 4.440892098500626e-16},
    "z1-torus-max": {"nonnegative": 0.9990116659936548, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.8541019662496848, "subadditive": 0.7658090083059905, "strongly_subadditive": 0.7658090083059905, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-torus-concave_cardinality": {"nonnegative": 2.23606797749979, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.2360679774997898, "subadditive": 0.9101963924421828, "strongly_subadditive": 0.8284271247461903, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-torus-additive_plus": {"nonnegative": 6.089481460573946, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 4.547642956414254, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 8.881784197001252e-16, "strongly_supadditive": 1.0000000000000009},
    "z1-torus-max_of_additives": {"nonnegative": 3.0894814605739467, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 2.547642956414254, "subadditive": 4.440892098500626e-16, "strongly_subadditive": 4.440892098500626e-16, "supadditive": 4.440892098500626e-16, "strongly_supadditive": 4.440892098500626e-16},
    "z1-torus-truncated": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 2.804560292393414, "strongly_subadditive": 2.804560292393414, "supadditive": 0.0, "strongly_supadditive": 0.8671202865716445},
    "z1-torus-derived_prime": {"nonnegative": 2.107653145958947, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.8412366330454115, "subadditive": 0.0, "strongly_subadditive": 2.220446049250313e-16, "supadditive": 0.7658090083059905, "strongly_supadditive": 0.7658090083059905},
    "z1-torus-derived_prime_m": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z1-torus-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 12.000000000000004, "strongly_subadditive": 8.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-bernoulli-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-bernoulli-concave_cardinality": {"nonnegative": 2.449489742783178, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.6457513110645907, "subadditive": 1.3689329299275679, "strongly_subadditive": 1.3689329299275679, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-bernoulli-additive_plus": {"nonnegative": 11.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 9.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "z2-bernoulli-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 60.0, "strongly_subadditive": 60.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-mixture-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-mixture-concave_cardinality": {"nonnegative": 2.449489742783178, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.6457513110645907, "subadditive": 1.3689329299275679, "strongly_subadditive": 1.3689329299275679, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-mixture-additive_plus": {"nonnegative": 15.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 13.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "z2-mixture-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 60.0, "strongly_subadditive": 60.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-torus-additive": {"nonnegative": 4.17317650080081, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 4.11805364005774, "subadditive": 1.7763568394002505e-15, "strongly_subadditive": 1.7763568394002505e-15, "supadditive": 1.7763568394002505e-15, "strongly_supadditive": 1.7763568394002505e-15},
    "z2-torus-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 1.7763568394002505e-15, "strongly_subadditive": 1.7763568394002505e-15, "supadditive": 1.7763568394002505e-15, "strongly_supadditive": 1.7763568394002505e-15},
    "z2-torus-max": {"nonnegative": 0.9829493025837422, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.7639320225002103, "subadditive": 0.9315366072987724, "strongly_subadditive": 0.9141316453036561, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-torus-concave_cardinality": {"nonnegative": 2.449489742783178, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.6457513110645907, "subadditive": 1.3689329299275679, "strongly_subadditive": 1.3689329299275679, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "z2-torus-additive_plus": {"nonnegative": 7.17317650080081, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 7.11805364005774, "subadditive": 1.0000000000000018, "strongly_subadditive": 1.0000000000000009, "supadditive": 1.7763568394002505e-15, "strongly_supadditive": 1.0},
    "z2-torus-max_of_additives": {"nonnegative": 4.17317650080081, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 4.11805364005774, "subadditive": 0.6420664106687326, "strongly_subadditive": 0.6420664106687326, "supadditive": 8.881784197001252e-16, "strongly_supadditive": 0.1521474093471693},
    "z2-torus-truncated": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 2.804560292393414, "strongly_subadditive": 2.804560292393414, "supadditive": 0.0, "strongly_supadditive": 1.7630705479755058},
    "z2-torus-derived_prime": {"nonnegative": 3.2566074304591313, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 4.11805364005774, "subadditive": 0.0, "strongly_subadditive": 8.881784197001252e-16, "supadditive": 0.931536607298773, "strongly_supadditive": 0.9141316453036561},
    "z2-torus-derived_prime_m": {"nonnegative": 2.1915762347046437, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.8516245292940003, "subadditive": 5.551115123125783e-15, "strongly_subadditive": 0.6105798115966699, "supadditive": 0.8979397877759026, "strongly_supadditive": 0.6077071428731022},
    "z2-torus-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 60.0, "strongly_subadditive": 60.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-bernoulli-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-bernoulli-concave_cardinality": {"nonnegative": 2.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.0, "subadditive": 0.8284271247461903, "strongly_subadditive": 0.8284271247461903, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-bernoulli-additive_plus": {"nonnegative": 9.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 6.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "cyclic2-bernoulli-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 8.0, "strongly_subadditive": 8.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-mixture-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-mixture-concave_cardinality": {"nonnegative": 2.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.0, "subadditive": 0.8284271247461903, "strongly_subadditive": 0.8284271247461903, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "cyclic2-mixture-additive_plus": {"nonnegative": 10.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 6.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "cyclic2-mixture-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 8.0, "strongly_subadditive": 8.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-bernoulli-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-bernoulli-concave_cardinality": {"nonnegative": 2.449489742783178, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.6457513110645907, "subadditive": 1.4348778704286014, "strongly_subadditive": 1.4348778704286014, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-bernoulli-additive_plus": {"nonnegative": 11.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 11.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "zsum-bernoulli-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 72.0, "strongly_subadditive": 72.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-mixture-additive-signed": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 0.0, "strongly_subadditive": 0.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-mixture-concave_cardinality": {"nonnegative": 2.449489742783178, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 1.6457513110645907, "subadditive": 1.4348778704286014, "strongly_subadditive": 1.4348778704286014, "supadditive": 0.0, "strongly_supadditive": 0.0},
    "zsum-mixture-additive_plus": {"nonnegative": 15.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 15.0, "subadditive": 1.0, "strongly_subadditive": 1.0, "supadditive": 0.0, "strongly_supadditive": 1.0},
    "zsum-mixture-minus_card_squared": {"nonnegative": 0.0, "invariant": 0.0, "bi_invariant": 0.0, "monotone": 0.0, "subadditive": 72.0, "strongly_subadditive": 72.0, "supadditive": 0.0, "strongly_supadditive": 0.0},
}
