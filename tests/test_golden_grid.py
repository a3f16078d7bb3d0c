"""Golden CLI grid: the CSV and summary bytes of small `maximal` runs on
ℤ, ℤ², ⊕ℤ/2 and ⊕ℤ (additive indicator, symbol_value and scaled(0.37)
families, and one defect family that has no counted sums), one `maximal`
run on the anchored `squares` boxes, and one `converge` run that breaches
its `nu_floor` and reports the truncation ladder.  Each digest is the
SHA-256 of the CSV bytes, a NUL byte and the summary bytes; they pin the
exceedance mass, the greedy classes and packings, and the ladder."""
import hashlib
import json

import pytest

from folnerlab.cli import main

_GROUPS = {
    "z1": ({"kind": "z_power", "d": 1}, {"kind": "z_boxes"}),
    "z2": ({"kind": "z_power", "d": 2}, {"kind": "z_boxes"}),
    "cyclic2": ({"kind": "cyclic_sum", "periods": [2]}, {"kind": "cyclic_prefix"}),
    "zsum": ({"kind": "z_sum"}, {"kind": "zsum_boxes"}),
}
_INDICATOR = {"kind": "indicator_symbol", "symbol": 1}
# each family with a level its normalized values cross at small indices
_FAMILIES = {
    "indicator": ({"kind": "additive", "observable": _INDICATOR}, 0.5),
    "symbol_value": ({"kind": "additive", "observable": {"kind": "symbol_value"}}, 0.9),
    "scaled": ({"kind": "additive",
                "observable": {"kind": "scaled", "base": _INDICATOR, "c": 0.37}}, 0.18),
}


def _maximal(group, sequence, family, alpha, **over):
    return {"group": group, "sequence": sequence,
            "system": {"kind": "bernoulli", "probs": [0.4, 0.35, 0.25], "seed": 11},
            "family": family, "alpha": alpha, "N": 3, "samples": 300,
            "greedy_instances": 2, "seed": 5, **over}


# ⊕ℤ's boxes have n^n cells, so its ν term is given rather than estimated
# at index 8
_CONFIGS = {
    f"maximal-{g}-{f}": ("maximal", _maximal(*_GROUPS[g], *_FAMILIES[f],
                                             **({"nu_term": 0.5, "N": 2}
                                                if g == "zsum" else {})))
    for g in _GROUPS for f in _FAMILIES
}
_CONFIGS["maximal-z1-derived-prime"] = ("maximal", _maximal(
    *_GROUPS["z1"], {"kind": "derived_prime",
                     "base": {"kind": "max", "observable": _INDICATOR}}, 0.3))
# the squares' core at index 6 is empty for N = 3
_CONFIGS["maximal-z2-squares"] = ("maximal", _maximal(
    {"kind": "z_power", "d": 2}, {"kind": "z_boxes", "anchors": "squares"},
    *_FAMILIES["indicator"], N=2))
_CONFIGS["converge-ladder"] = ("converge", {
    "group": {"kind": "z_power", "d": 1}, "sequence": {"kind": "z_boxes"},
    "system": {"kind": "bernoulli", "probs": [0.4, 0.6], "seed": 13},
    "family": {"kind": "additive",
               "observable": {"kind": "neg_pow_run", "base": 2.0, "cap": 30}},
    "n_schedule": [4, 16, 64], "nu_floor": -5.0, "samples": 120, "seed": 9})

_DIGESTS = {
    "converge-ladder": (0, "b85c60de3d65bb786eca8368864d05374f64dc9d8a75fed7f06354f67abfd8d9"),
    "maximal-cyclic2-indicator": (0, "b494ad0493da164d627e89aab8de83db051221a07ed596b728fcc5015b673bb9"),
    "maximal-cyclic2-scaled": (0, "c05914de32622d977746d52874c89213548360e7c648cf9efa4b51fd754c2948"),
    "maximal-cyclic2-symbol_value": (0, "77ddec036cf06a26b468ca9d31dfa72eba072c6bdf74537c1834c491153203f2"),
    "maximal-z1-derived-prime": (0, "16233a6b2a7becdd266969bbb52133f76266112d87472feb2eebec43a4ca80ba"),
    "maximal-z1-indicator": (0, "730c02f9ba090420c96ec7bb6fd69d79f64f5462f338a5cc8df5b87fee6390f2"),
    "maximal-z1-scaled": (0, "e13a71f37fc72bc6ab7c36af60fe10e81c8625a098e11d20cd7406b5ed47a1d7"),
    "maximal-z1-symbol_value": (0, "2024d8d5da7361b7309234de9d79e29a617ead1e40d8aeef159e177304e5fa20"),
    "maximal-z2-indicator": (0, "8f881f047f31ffb22d4895fb8861f4dc80d59537f6a4c0151b980d608e8506ce"),
    "maximal-z2-scaled": (0, "4783ef29523d7009ceeecf20fc94b1b7c9cfcd117b9d42d8234996afcc77afaf"),
    "maximal-z2-squares": (0, "c4f2121eb84b86774be98f15a47ec8ff4f3cab17dce90e7f6accf5599b1a9c8f"),
    "maximal-z2-symbol_value": (0, "fda4ad182fe2558c0f689f7b9f254e0fafabc38c8618806f9e914122ea00e99a"),
    "maximal-zsum-indicator": (0, "3c8b95f99d1533486fd030fcd87c8569f9643e149be2e463a47c4eba2a252c1d"),
    "maximal-zsum-scaled": (0, "aa9e11b26e0aca7befeb284ec1d66645c88d0a5cf744cdd218858a63b48a82a4"),
    "maximal-zsum-symbol_value": (0, "39ba8b10563377b09e62df7d1d749fc607f3beecf7ca7f653b6b5af0d38350e7"),
}


def _digest(tmp_path, cmd, cfg) -> tuple:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    csv, summary = tmp_path / "out.csv", tmp_path / "out.json"
    code = main([cmd, "--config", str(path), "--csv", str(csv), "--summary", str(summary)])
    data = csv.read_bytes() + b"\0" + summary.read_bytes()
    return code, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_golden_grid_bytes_are_pinned(tmp_path, name):
    cmd, cfg = _CONFIGS[name]
    assert _digest(tmp_path, cmd, cfg) == _DIGESTS[name]
