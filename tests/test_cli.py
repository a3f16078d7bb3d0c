"""End-to-end runner contract: exit codes, CSV/JSON artifacts, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from folnerlab import cli, families, systems
from folnerlab._bits import HASH_VERSION
from folnerlab.cli import _COMMANDS, _THEOREM_TABLE, VERSION, main
from folnerlab.folner import _CARD_CAP

GOLDEN = (math.sqrt(5) - 1) / 2


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _z_group():
    return {"kind": "z_power", "d": 1}


def _bernoulli_system(probs=(0.7, 0.3), seed=5):
    return {"kind": "bernoulli", "probs": list(probs), "seed": seed}


def _torus_cfg():
    return {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "system": {"kind": "torus", "alphas": [GOLDEN], "seed": 2},
        "observable": {"kind": "torus_coordinate", "index": 0},
        "n_schedule": [4, 16, 64, 256, 1024],
        "samples": 300,
        "seed": 7,
    }


def _run(cmd, cfg_path, tmp_path, tag=""):
    csv = tmp_path / f"out{tag}.csv"
    summary = tmp_path / f"out{tag}.json"
    code = main([cmd, "--config", cfg_path, "--csv", str(csv),
                 "--summary", str(summary)])
    data = json.loads(summary.read_text()) if summary.exists() else None
    text = csv.read_text() if csv.exists() else None
    return code, data, text


# ---------------------------------------------------------------------------
# exit code 0: a certified pass


def test_birkhoff_pass_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _torus_cfg())
    code, summary, csv = _run("birkhoff", cfg, tmp_path)
    assert code == 0
    assert summary["verdict"] == "pass"
    assert summary["exit_code"] == 0
    assert summary["version"] == VERSION
    assert summary["seeds"]["hash"] == HASH_VERSION
    header, columns = csv.splitlines()[:2]
    assert header == f"# folner-lab csv version={VERSION} hash={HASH_VERSION}"
    assert columns == "index,statistic,value"
    assert any(line.split(",")[1] == "within_frac" for line in csv.splitlines()[2:])


def test_converge_ladder_switch_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "system": _bernoulli_system((0.4, 0.6), seed=11),
        "family": {"kind": "additive",
                   "observable": {"kind": "neg_pow_run", "base": 2.0, "cap": 30}},
        "n_schedule": [4, 16, 64],
        "samples": 120,
        "seed": 7,
    })
    code, summary, _ = _run("converge", cfg, tmp_path)
    assert code == 0
    assert summary["kind"] == "truncation_ladder"
    assert summary["ladder"]["ok"]


def test_verify_folner_exit_zero(tmp_path):
    # on the sum groups the defects are along the base generator e_0
    for group, kind, indices in [
            (_z_group(), "z_boxes", [2, 4, 8, 16]),
            ({"kind": "cyclic_sum", "periods": [2]}, "cyclic_prefix", [1, 2, 3]),
            ({"kind": "z_sum"}, "zsum_boxes", [1, 2, 3])]:
        cfg = _write(tmp_path, "cfg.json", {
            "group": group, "sequence": {"kind": kind}, "indices": indices})
        code, summary, csv = _run("verify-folner", cfg, tmp_path)
        assert code == 0, kind
        assert not summary["ratios_divergent"]
        stats = {line.split(",")[1] for line in csv.splitlines()[2:]}
        assert {"defect_0", "tempelman_ratio", "tempered_ratio"} <= stats


def test_verify_tiling_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "indices": [1, 2, 3],
        "window_radius": 8,
    })
    code, summary, csv = _run("verify-tiling", cfg, tmp_path)
    assert code == 0
    assert summary["windows_checked"] == 3


def test_limit_setfn_tiling_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "setfn": "card_plus_one",
        "n_schedule": [4, 8, 16, 32, 64],
    })
    code, summary, _ = _run("limit-setfn", cfg, tmp_path)
    assert code == 0
    assert summary["limit"] == 1.015625


# ---------------------------------------------------------------------------
# exit code 1: configuration errors


def test_malformed_json_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["converge", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_missing_key_exit_one(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        # no system / family / schedule
    })
    assert main(["converge", "--config", cfg]) == 1


def test_bad_schedule_exit_one(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "system": _bernoulli_system(),
        "family": {"kind": "additive", "observable": {"kind": "symbol_value"}},
        "n_schedule": [8, 4],
        "samples": 50,
    })
    assert main(["converge", "--config", cfg]) == 1


def test_unknown_setfn_exit_one(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "setfn": "no_such_fn",
        "n_schedule": [2, 4],
    })
    assert main(["limit-setfn", "--config", cfg]) == 1


def test_oversized_window_exit_one(tmp_path, capsys):
    # diagonal cubes on the integer direct sum blow past the enumeration
    # budget at index 8; that must surface as a clean config error, not a
    # traceback
    cfg = _write(tmp_path, "cfg.json", {
        "group": {"kind": "z_sum"},
        "sequence": {"kind": "zsum_boxes"},
        "system": {"kind": "bernoulli", "probs": [0.5, 0.5], "seed": 1},
        "family": {"kind": "additive",
                   "observable": {"kind": "indicator_symbol", "symbol": 1}},
        "n_schedule": [2, 4, 8],
        "samples": 50,
        "seed": 1,
    })
    assert main(["converge", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


_INDICATOR = {"kind": "additive",
              "observable": {"kind": "indicator_symbol", "symbol": 1}}


@pytest.mark.parametrize("inner", [
    {"kind": "minus_card_squared", "base": _INDICATOR},
    {"kind": "derived_prime", "base": _INDICATOR},
    {"kind": "concave_cardinality", "gamma": "sqrt"},
    {"kind": "truncated", "N": 2, "base": _INDICATOR},
], ids=["minus_card_squared", "derived_prime", "concave_cardinality", "truncated"])
def test_nested_defect_family_runs(tmp_path, inner):
    # the defect of a family needs that family's singleton window
    cfg = _maximal_cfg(family={"kind": "derived_prime", "base": inner})
    code, summary, _ = _run("maximal", _write(tmp_path, "cfg.json", cfg), tmp_path)
    assert code in (0, 4), summary


# ---------------------------------------------------------------------------
# exit code 2: honest inconclusive


def test_short_noisy_schedule_exit_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "system": _bernoulli_system(),
        "family": {"kind": "additive", "observable": {"kind": "symbol_value"}},
        "n_schedule": [4, 16, 64],
        "samples": 100,
        "seed": 7,
    })
    code, summary, _ = _run("converge", cfg, tmp_path)
    assert code == 2
    assert summary["verdict"] == "inconclusive"


def test_budget_limited_setfn_exit_two(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "setfn": "sqrt_card",
        "route": "strong",
        "n_schedule": [4, 16, 64, 256, 1024],
    })
    code, summary, _ = _run("limit-setfn", cfg, tmp_path)
    assert code == 2
    assert summary["verdict"] == "inconclusive"
    assert summary["gaps"]["limit_vs_inf"] > 0.05


def test_strong_setfn_max_card_past_the_ground_set_changes_nothing(tmp_path):
    # the enumeration ends at the 5-element ground set: the largest bound
    # the config takes reads as the ground set's size
    out = []
    for max_card in (5, _CARD_CAP):
        cfg = _write(tmp_path, f"cfg{max_card}.json", _setfn_cfg(
            route="strong", budget={"max_card": max_card, "max_sets": 50}))
        out.append(_run("limit-setfn", cfg, tmp_path, tag=max_card))
    assert out[0][0] == 0 and out[0] == out[1]


def test_limsup_strong_mode_on_mixture_runs(tmp_path):
    # each leaf of the mixture takes its infimum over the same enumerated
    # candidate sets, so the second leaf must not find them used up
    cfg = _write(tmp_path, "cfg.json", _converge_cfg(
        mode="strongly_subadditive", n_schedule=[4, 16, 64], samples=100,
        system={"kind": "mixture", "seed": 23, "components": [
            {"weight": 0.5, "system": _bernoulli_system((0.75, 0.25), seed=21)},
            {"weight": 0.5, "system": _bernoulli_system((0.25, 0.75), seed=22)}]},
        family={"kind": "max_of_additives", "observables": [
            {"kind": "indicator_symbol", "symbol": 1}, {"kind": "symbol_value"}]}))
    code, summary, _ = _run("limsup", cfg, tmp_path)
    assert code in (0, 2), summary
    assert summary["inf_stabilized"]


# ---------------------------------------------------------------------------
# exit code 3: hypothesis-gate refusal


def test_divergent_growth_exit_three(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": {"kind": "z_sum"},
        "sequence": {"kind": "zsum_boxes"},
        "system": _bernoulli_system(),
        "family": {"kind": "additive", "observable": {"kind": "symbol_value"}},
        "n_schedule": [1, 2, 3, 4, 5],
        "samples": 30,
        "seed": 7,
    })
    code, summary, _ = _run("converge", cfg, tmp_path)
    assert code == 3
    assert summary["verdict"] == "gate_refusal"
    assert summary["refused_hypothesis"] == "bounded inverse-union growth"


# ---------------------------------------------------------------------------
# exit code 4: counterexample


def test_failed_expectation_exit_four(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "system": _bernoulli_system(),
        "family": {"kind": "additive_plus",
                   "observable": {"kind": "symbol_value"},
                   "gamma": "ceil_half", "beta": 1.0},
        "expect": ["subadditive", "strongly_subadditive"],
        "trials": 200,
        "seed": 2024,
    })
    code, summary, _ = _run("check-family", cfg, tmp_path)
    assert code == 4
    assert summary["verdict"] == "counterexample"
    assert summary["failed_property"] == "strongly_subadditive"
    assert summary["counterexample"] is not None


def test_setfn_refusal_exit_four_carries_the_classifier_witness(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(), "sequence": {"kind": "z_boxes"},
        "setfn": "ceil_half_card", "route": "strong", "n_schedule": [4, 16]})
    code, summary, _ = _run("limit-setfn", cfg, tmp_path)
    assert code == 4
    assert summary["refused_hypothesis"] == "setfn strongly_subadditive+invariant"
    cex = summary["extra"]["counterexample"]
    assert set(cex) == {"lhs", "rhs", "trial", "E", "F", "g", "seed"}
    assert cex["lhs"] > cex["rhs"]


def test_declared_properties_pass_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "system": _bernoulli_system(),
        "family": {"kind": "additive_plus",
                   "observable": {"kind": "symbol_value"},
                   "gamma": "ceil_half", "beta": 1.0},
        "trials": 200,
        "seed": 2024,
    })
    code, summary, csv = _run("check-family", cfg, tmp_path)
    assert code == 0  # the declared set omits the strong property
    assert any(line.startswith("0,passed_subadditive,1")
               for line in csv.splitlines()[2:])


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _torus_cfg())
    _, _, csv_a = _run("birkhoff", cfg, tmp_path, tag="a")
    _, _, csv_b = _run("birkhoff", cfg, tmp_path, tag="b")
    assert csv_a == csv_b
    sa = (tmp_path / "outa.json").read_text()
    sb = (tmp_path / "outb.json").read_text()
    assert sa == sb


def test_results_independent_of_slab_size(tmp_path, monkeypatch):
    # the criterion-08 mixture; at 1,000 cells a slab on the 16 x 16 box
    # holds 3 points, and each leaf's last slab is ragged
    cfg = _write(tmp_path, "cfg.json", {
        "group": {"kind": "z_power", "d": 2},
        "sequence": {"kind": "z_boxes"},
        "system": {"kind": "mixture", "seed": 23, "components": [
            {"weight": 0.5, "system": _bernoulli_system((0.75, 0.25), seed=21)},
            {"weight": 0.5, "system": _bernoulli_system((0.25, 0.75), seed=22)}]},
        "family": {"kind": "additive",
                   "observable": {"kind": "indicator_symbol", "symbol": 1}},
        "n": 16, "samples": 300, "seed": 17,
    })
    outputs = []
    for cells in (families._SLAB_CELLS, 1000):
        monkeypatch.setattr(families, "_SLAB_CELLS", cells)
        code, _, csv = _run("decompose", cfg, tmp_path, tag=str(cells))
        assert code == 0
        outputs.append((csv, (tmp_path / f"out{cells}.json").read_text()))
    assert outputs[0] == outputs[1]


def test_maximal_results_independent_of_the_window_branch(tmp_path, monkeypatch):
    # greedy_cover on the sum of Z/2s reads 64 core translates of F_1..F_3 in a
    # 64-cell box: the default slabs gather from a table over the box, and
    # slabs of 32 cells form fewer pairs than the box has cells, so some take
    # the distinct-cell path; both write the same bytes
    cfg = _write(tmp_path, "cfg.json", {
        "group": {"kind": "cyclic_sum", "periods": [2]},
        "sequence": {"kind": "cyclic_prefix"}, "system": _bernoulli_system(),
        "family": {"kind": "additive",
                   "observable": {"kind": "indicator_symbol", "symbol": 1}},
        "alpha": 0.6, "N": 3, "samples": 200, "greedy_instances": 1, "seed": 3,
    })
    outputs, sparse = [], []
    for cells in (families._SLAB_CELLS, 32):
        monkeypatch.setattr(families, "_SLAB_CELLS", cells)
        with mock.patch.object(systems, "_unique", wraps=systems._unique) as distinct:
            code, _, csv = _run("maximal", cfg, tmp_path, tag=str(cells))
        assert code == 0
        outputs.append((csv, (tmp_path / f"out{cells}.json").read_text()))
        sparse.append(distinct.call_count)
    assert sparse[0] == 0 and sparse[1] > 0
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# discovery table


def test_theorem_table_lists_real_subcommands(capsys):
    assert main(["list-theorems"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(_THEOREM_TABLE) == 13
    for _, cmd, _ in _THEOREM_TABLE:
        assert cmd.split()[0] in _COMMANDS


def test_main_calls_share_nothing_but_the_parser(tmp_path, capsys):
    # one process, several calls: the cached parser must not carry a command,
    # a flag or a path from one call into the next
    seq = {"group": _z_group(), "sequence": {"kind": "z_boxes"}}
    folner = _write(tmp_path, "folner.json", {**seq, "indices": [2, 4]})
    code, summary, csv = _run("verify-folner", folner, tmp_path, "-a")
    assert code == 0 and csv is not None and summary is not None
    capsys.readouterr()
    tiling = _write(tmp_path, "tiling.json", {**seq, "indices": [1, 2], "window_radius": 4})
    assert main(["verify-tiling", "--config", tiling]) == 0  # no --csv, no --summary
    out = capsys.readouterr().out
    assert json.loads(out)["windows_checked"] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "folner.json", "out-a.csv", "out-a.json", "tiling.json"]
    assert main(["list-theorems"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(_THEOREM_TABLE)
    with pytest.raises(SystemExit):  # --config is still required
        main(["verify-folner", "--csv", str(tmp_path / "x.csv")])
    assert "--config" in capsys.readouterr().err
    assert cli._parser() is cli._parser()


def test_module_entry_point_writes_nothing_to_stderr():
    # the package must not import folnerlab.cli, or `python -m` warns that
    # the module was imported before it ran
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-m", "folnerlab.cli", "list-theorems"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stderr == ""
    assert len(out.stdout.splitlines()) == len(_THEOREM_TABLE)


# ---------------------------------------------------------------------------
# exit code 1: malformed values caught at the boundary, not as tracebacks


def _sampled_cfg(**over):
    return {"group": _z_group(), "sequence": {"kind": "z_boxes"},
            "system": _bernoulli_system(),
            "family": {"kind": "additive",
                       "observable": {"kind": "indicator_symbol", "symbol": 1}},
            "samples": 20, "seed": 3, **over}


def _maximal_cfg(**over):
    return _sampled_cfg(**{"alpha": 0.6, "N": 2, **over})


def _folner_cfg(**over):
    return {"group": _z_group(), "sequence": {"kind": "z_boxes"},
            "indices": [1, 2], **over}


def _family_cfg(**over):
    return {"group": _z_group(), "system": _bernoulli_system(),
            "family": {"kind": "additive", "observable": {"kind": "symbol_value"}},
            "trials": 5, **over}


def _setfn_cfg(**over):
    return {"group": _z_group(), "sequence": {"kind": "z_boxes"},
            "setfn": "card", "n_schedule": [2, 4], **over}


def _converge_cfg(**over):
    return _sampled_cfg(**{"n_schedule": [2, 4], **over})


@pytest.mark.parametrize("cmd, cfg, message", [
    ("verify-folner",
     {"group": _z_group(), "sequence": {"kind": "z_boxes"},
      "indices": [1, 2, "x"]},
     "indices must be a non-empty list of positive integers"),
    ("maximal", _maximal_cfg(N=0), "N must be a positive integer"),
    ("maximal",
     _maximal_cfg(family={"kind": "additive",
                          "observable": {"kind": "indicator_symbol",
                                         "symbol": 5}}),
     "symbol 5 is outside the 2-symbol alphabet"),
    ("birkhoff",
     {**_torus_cfg(), "observable": {"kind": "indicator_symbol", "symbol": 1}},
     "indicator_symbol needs a Bernoulli shift"),
    ("verify-tiling",
     {"group": _z_group(), "sequence": {"kind": "z_boxes"}, "indices": [1, "x"]},
     "indices must be a non-empty list of positive integers"),
    ("limit-setfn",
     {"group": _z_group(), "sequence": {"kind": "z_boxes"}, "setfn": "card",
      "n_schedule": [2, 4], "route": "strong", "budget": [1]},
     "budget must be an object"),
    ("check-family",
     {"group": _z_group(), "system": _bernoulli_system(),
      "family": {"kind": "additive", "observable": {"kind": "symbol_value"}},
      "trials": "x"},
     "trials must be a positive integer"),
    ("decompose", _sampled_cfg(n="x"), "n must be a positive integer"),
    ("verify-folner", _folner_cfg(growth_upto="x"),
     "growth_upto must be an integer >= 2"),
    ("verify-folner", _folner_cfg(growth_upto=True),
     "growth_upto must be an integer >= 2"),
    ("verify-folner", _folner_cfg(growth_upto=1),
     "growth_upto must be an integer >= 2"),
    ("verify-tiling", _folner_cfg(window_radius="x"),
     "window_radius must be a non-negative integer"),
    ("check-family", _family_cfg(max_card="x"),
     "max_card must be a positive integer"),
    # |E| and |F| are drawn as 64-bit integers, and no window is this large
    ("check-family", _family_cfg(max_card=2 ** 63),
     "max_card must be a positive integer <= 5000000"),
    ("check-family", _family_cfg(max_card=2 ** 64 + 1),
     "max_card must be a positive integer <= 5000000"),
    ("check-family", _family_cfg(expect=3), "expect must be a list of properties"),
    ("limit-setfn", _setfn_cfg(max_card="x"), "max_card must be a positive integer"),
    ("limit-setfn", _setfn_cfg(max_card=2 ** 64 + 1),
     "max_card must be a positive integer <= 5000000"),
    ("limit-setfn", _setfn_cfg(route="strong", budget={"max_card": "x"}),
     "budget.max_card must be a positive integer"),
    ("limit-setfn", _setfn_cfg(route="strong", budget={"max_card": 2 ** 64 + 1}),
     "budget.max_card must be a positive integer <= 5000000"),
    ("limit-setfn", _setfn_cfg(setfn=["x"]), "setfn must be one of"),
    ("converge", _converge_cfg(tolerances={"tol": "x"}),
     "tolerances.tol must be a non-negative number"),
    ("converge", _converge_cfg(nu_floor="x"), "nu_floor must be a finite number"),
    ("birkhoff", {**_torus_cfg(), "tolerances": {"tail": "x"}},
     "tolerances.tail must be a positive integer"),
    ("maximal", _maximal_cfg(M="x"), "M must be a positive number or null"),
    ("maximal", _maximal_cfg(greedy_instances="x"),
     "greedy_instances must be a non-negative integer"),
    ("maximal", _maximal_cfg(output="x"), "output must be an object"),
    ("verify-tiling",
     {"group": {"kind": "cyclic_sum", "periods": [2]},
      "sequence": {"kind": "cyclic_prefix"}, "indices": [1], "window_radius": 23},
     "window of radius 23 has more than 5000000 cells"),
    ("verify-tiling",
     {"group": {"kind": "z_power", "d": 2}, "sequence": {"kind": "z_boxes"},
      "indices": [1], "window_radius": 1200},
     "window of radius 1200 has more than 5000000 cells"),
    ("verify-folner", _folner_cfg(group={"kind": "z_power", "d": True}),
     "bad group: d must be an integer"),
    ("verify-folner",
     _folner_cfg(group={"kind": "cyclic_sum", "periods": [2, 2.0]},
                 sequence={"kind": "cyclic_prefix"}),
     "bad group: periods must be a list of integers"),
    ("check-family", _family_cfg(system=_bernoulli_system(seed=True)),
     "bad system: seed must be an integer"),
    ("birkhoff",
     {**_torus_cfg(), "system": _bernoulli_system(),
      "observable": {"kind": "indicator_symbol", "symbol": True}},
     "bad observable: symbol must be an integer"),
    ("check-family", _family_cfg(system=_bernoulli_system(probs=(True, 0))),
     "bad system: probs must be a list of finite numbers"),
    ("check-family", _family_cfg(system=_bernoulli_system(probs=("0.5", 0.5))),
     "bad system: probs must be a list of finite numbers"),
    ("check-family",
     _family_cfg(system={"kind": "mixture", "components": [
         {"weight": True, "system": _bernoulli_system()}]}),
     "bad system: weight must be a finite number"),
    ("birkhoff", {**_torus_cfg(), "system": {"kind": "torus", "alphas": ["0.6"]}},
     "bad system: alphas must be a list of finite numbers"),
    ("check-family",
     _family_cfg(family={"kind": "additive", "observable": {
         "kind": "scaled", "base": {"kind": "symbol_value"}, "c": True}}),
     "bad family: c must be a finite number"),
    ("check-family",
     _family_cfg(family={"kind": "additive", "observable": {
         "kind": "neg_pow_run", "base": "2"}}),
     "bad family: base must be a finite number"),
    ("check-family",
     _family_cfg(family={"kind": "additive", "observable": {"kind": True}}),
     "bad family: kind must be one of ['indicator_symbol', 'neg_pow_run'"),
    ("check-family", _family_cfg(family={"kind": "additive", "observable": 1}),
     "bad family: observable must be an object"),
    ("check-family",
     _family_cfg(family={"kind": "max_of_additives", "observables": [1, 2]}),
     "bad family: observables must be a list of two objects"),
    ("check-family",
     _family_cfg(family={"kind": "truncated", "N": True, "base": {
         "kind": "additive", "observable": {"kind": "symbol_value"}}}),
     "bad family: N must be an integer"),
    ("check-family",
     _family_cfg(family={"kind": "additive_plus", "beta": "2",
                         "observable": {"kind": "symbol_value"}}),
     "bad family: beta must be a finite number"),
    ("check-family",
     _family_cfg(system={"kind": "mixture", "components": [1]}),
     "bad system: components must be a list of objects"),
    ("birkhoff",
     {**_torus_cfg(), "system": _bernoulli_system(),
      "observable": {"kind": "indicator_symbolXYZ", "symbol": 1}},
     "bad observable: kind must be one of ['indicator_symbol', 'neg_pow_run'"),
    ("limit-setfn", _setfn_cfg(route="strong", budget={"lo": 2, "hi": -2}),
     "budget.hi must be an integer >= budget.lo"),
    ("birkhoff", {**_torus_cfg(), "observable": {"kind": "torus_coordinate",
                                                 "index": 1}},
     "torus_coordinate: index 1 is outside the 1-coordinate torus"),
    ("birkhoff", {**_torus_cfg(), "observable": {"kind": "torus_coordinate",
                                                 "index": -1}},
     "bad observable: index must be a non-negative integer"),
    ("check-family",
     _family_cfg(family={"kind": "additive", "observable": {
         "kind": "neg_pow_run", "cap": -5}}),
     "bad family: cap must be a non-negative integer"),
    ("check-family",
     _family_cfg(family={"kind": "additive", "observable": {
         "kind": "neg_pow_run", "base": 1e300}}),
     "bad family: neg_pow_run: base**cap = 1e+300**40 is not a finite float"),
    ("maximal", _maximal_cfg(M=-1.0), "M must be a positive number or null"),
    ("maximal", _maximal_cfg(M=0), "M must be a positive number or null"),
    ("maximal", _maximal_cfg(nu_term=-0.5),
     "nu_term must be a non-negative number or null"),
    ("birkhoff", {**_torus_cfg(), "tolerances": {"tol": -0.1}},
     "tolerances.tol must be a non-negative number"),
    ("limsup", _converge_cfg(tolerances={"tol": -0.1}),
     "tolerances.tol must be a non-negative number"),
    ("converge", _converge_cfg(tolerances={"osc_tol": -1}),
     "tolerances.osc_tol must be a non-negative number or null"),
    # a budget blow-up inside the tiling probe of a plain sub-additive family
    ("decompose", _sampled_cfg(n=10_000_000, family={
        "kind": "max_of_additives", "observables": [
            {"kind": "symbol_value"},
            {"kind": "indicator_symbol", "symbol": 0}]}),
     "box too large"),
    # a budget blow-up inside the tempered gate
    ("birkhoff", {"group": {"kind": "cyclic_sum", "periods": [2, 10_000_000]},
                  "sequence": {"kind": "cyclic_prefix"},
                  "system": _bernoulli_system((0.5, 0.5), seed=1),
                  "observable": {"kind": "symbol_value"},
                  "n_schedule": [1, 2], "samples": 10},
     "prefix set too large"),
    # JSON NaN and Infinity are not finite numbers
    ("check-family", _family_cfg(system=_bernoulli_system(probs=(math.nan, 0.3))),
     "bad system: probs must be a list of finite numbers"),
    ("check-family",
     _family_cfg(family={"kind": "additive_plus", "beta": math.nan,
                         "observable": {"kind": "symbol_value"}}),
     "bad family: beta must be a finite number"),
    ("check-family",
     _family_cfg(family={"kind": "additive_plus", "beta": math.inf,
                         "observable": {"kind": "symbol_value"}}),
     "bad family: beta must be a finite number"),
    ("maximal", _maximal_cfg(alpha=math.inf), "alpha must be a positive number"),
    ("maximal", _maximal_cfg(alpha=10**400), "alpha must be a positive number"),
    ("maximal", _maximal_cfg(M=math.inf), "M must be a positive number or null"),
    ("maximal", _maximal_cfg(nu_term=math.inf),
     "nu_term must be a non-negative number or null"),
    # only z_boxes reads an anchor rule
    ("verify-folner", _folner_cfg(group={"kind": "cyclic_sum", "periods": [2]},
                                  sequence={"kind": "cyclic_prefix",
                                            "anchors": "squares"}),
     "bad sequence: cyclic_prefix takes no anchors"),
    ("verify-folner", _folner_cfg(group={"kind": "z_sum"},
                                  sequence={"kind": "zsum_boxes", "anchors": "squares"}),
     "bad sequence: zsum_boxes takes no anchors"),
    # a config cannot carry the tiling certificate that derived_prime_m needs
    ("check-family",
     _family_cfg(family={"kind": "derived_prime_m",
                         "base": {"kind": "additive", "observable": {"kind": "symbol_value"}}}),
     "bad family: kind must be one of"),
    ("verify-folner", [_folner_cfg()], "config root must be a JSON object"),
    # 5^8 ground cells on the integer sum, once the boxes of the stream run out
    ("limit-setfn", _setfn_cfg(group={"kind": "z_sum"}, sequence={"kind": "zsum_boxes"},
                               route="strong", budget={"max_index": 8}),
     "enumeration ground set too large"),
], ids=["folner-indices", "maximal-N", "symbol-range", "symbol-on-torus",
        "tiling-indices", "setfn-budget", "family-trials", "decompose-n",
        "folner-growth-str", "folner-growth-bool", "folner-growth-one",
        "tiling-radius",
        "family-max-card", "family-max-card-2^63", "family-max-card-2^64+1",
        "family-expect", "setfn-max-card", "setfn-max-card-2^64+1",
        "setfn-budget-max-card", "setfn-budget-max-card-2^64+1", "setfn-name-list", "converge-tol",
        "converge-nu-floor", "birkhoff-tail", "maximal-M",
        "maximal-greedy-instances", "output-not-object", "tiling-window-cyclic",
        "tiling-window-plane", "group-d-bool", "group-periods-float",
        "system-seed-bool", "observable-symbol-bool", "system-probs-bool",
        "system-probs-str", "system-weight-bool", "system-alphas-str",
        "observable-c-bool", "observable-base-str", "observable-kind-bool",
        "observable-not-object", "max-of-additives-not-objects",
        "truncated-N-bool", "additive-plus-beta-str", "mixture-component-int",
        "observable-kind-suffix", "setfn-budget-hi-below-lo",
        "torus-index-range", "torus-index-negative", "neg-pow-cap-negative",
        "neg-pow-base-overflow", "maximal-M-negative", "maximal-M-zero",
        "maximal-nu-term-negative", "birkhoff-tol-negative",
        "limsup-tol-negative", "converge-osc-tol-negative",
        "decompose-plain-family-box-budget", "birkhoff-tempered-budget",
        "system-probs-nan", "additive-plus-beta-nan", "additive-plus-beta-inf",
        "maximal-alpha-inf", "maximal-alpha-past-float", "maximal-M-inf",
        "maximal-nu-term-inf", "cyclic-prefix-anchors", "zsum-boxes-anchors",
        "family-derived-prime-m", "config-root-array", "setfn-ground-set-budget"])
def test_boundary_errors_exit_one(tmp_path, capsys, cmd, cfg, message):
    code, summary, csv = _run(cmd, _write(tmp_path, "cfg.json", cfg), tmp_path)
    assert code == 1
    assert summary is None and csv is None
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


# the typo config: `tolerance` for `tolerances`, `nu_flor`, and a system `sed`
_TYPOS = _converge_cfg(tolerance={"tol": 0.0}, nu_flor=1e9,
                       system={**_bernoulli_system(), "sed": 9})


@pytest.mark.parametrize("cmd, cfg, key", [
    ("converge", _TYPOS, "nu_flor"),
    ("converge", {k: v for k, v in _TYPOS.items() if k != "nu_flor"},
     "system.sed"),
    ("limsup", _converge_cfg(tolerances={"tail": 3}), "tolerances.tail"),
    ("limit-setfn", _setfn_cfg(budget={"max_card": 2}), "budget"),
    ("limit-setfn", _setfn_cfg(route="strong", max_card=3), "max_card"),
    ("decompose", _sampled_cfg(n=4, alpha=0.6), "alpha"),
    ("check-family", _family_cfg(system={**_bernoulli_system(), "group": _z_group()}),
     "system.group"),
    ("decompose", _sampled_cfg(n=4, system={
        "kind": "mixture", "components": [
            {"weight": 1.0, "wieght": 1.0, "system": _bernoulli_system()}]}),
     "system.components.0.wieght"),
    ("verify-folner", _folner_cfg(output={"csv": None, "sumary": None}),
     "output.sumary"),
], ids=["typo-first", "typo-nested", "limsup-tail", "setfn-budget-on-tiling",
        "setfn-max-card-on-strong", "decompose-alpha", "system-group",
        "mixture-component", "output"])
def test_unread_key_exit_one(tmp_path, capsys, monkeypatch, cmd, cfg, key):
    def ran(*args, **kw):
        raise AssertionError("an experiment ran")

    for name in ("kingman_run", "limsup_identity_check", "setfn_limit_tiling",
                 "setfn_limit_strong", "ergodic_decomposition_check", "classify",
                 "defect_profile"):
        monkeypatch.setattr(cli, name, ran)
    code, summary, _ = _run(cmd, _write(tmp_path, "cfg.json", cfg), tmp_path)
    assert (code, summary) == (1, None)
    assert capsys.readouterr().err == f"config error: unknown key {key!r}\n"


@pytest.mark.parametrize("flag", ["--csv", "--summary"])
def test_unwritable_output_exit_one(tmp_path, capsys, flag):
    cfg = _write(tmp_path, "cfg.json", _folner_cfg())
    code = main(["verify-folner", "--config", cfg,
                 flag, str(tmp_path / "missing" / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# exit code 5: a bug in a handler still writes a summary


def test_internal_error_exit_five(tmp_path, capsys, monkeypatch):
    def broken(**values):
        raise RuntimeError("boom")

    parts, keys, _ = _COMMANDS["converge"]
    monkeypatch.setitem(_COMMANDS, "converge", (parts, keys, broken))
    code, summary, _ = _run("converge", _write(tmp_path, "cfg.json", _converge_cfg()),
                            tmp_path)
    assert code == 5
    assert summary["verdict"] == "internal_error"
    assert summary["error"] == "RuntimeError: boom"
    assert summary["exit_code"] == 5
    assert summary["seeds"]["hash"] == HASH_VERSION
    assert "Traceback" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every key a subcommand reads rejects a string, a JSON boolean and NaN


def _read_paths(v, path=""):
    """The dotted path of each key the config reader asked for, present or
    not, in a config that ``cli._load_config`` loaded."""
    if isinstance(v, list):
        for i, x in enumerate(v):
            yield from _read_paths(x, f"{path}{i}.")
    elif isinstance(v, dict):
        for key in v.read:
            yield path + key
            yield from _read_paths(v.get(key), f"{path}{key}.")


def _set_path(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    *outer, last = path.split(".")
    node = cfg
    for key in outer:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[last] = value
    return cfg


# valid configs, small enough to run in well under a second each; the
# nested objects are present (if empty) so that their keys get recorded
_KEY_CASES = [
    ("verify-folner", _folner_cfg()),
    ("verify-tiling", _folner_cfg(window_radius=2)),
    ("check-family", _family_cfg(max_card=3)),
    ("limit-setfn", _setfn_cfg(setfn="card_plus_one", max_card=3, max_index=2)),
    ("limit-setfn", _setfn_cfg(route="strong",
                               budget={"max_card": 2, "lo": -1, "hi": 1,
                                       "max_sets": 50})),
    ("converge", _converge_cfg(tolerances={})),
    ("limsup", _converge_cfg(tolerances={})),
    ("maximal", _maximal_cfg(greedy_instances=1)),
    ("decompose", _sampled_cfg(n=4)),
    ("birkhoff", {**_torus_cfg(), "n_schedule": [4, 16], "samples": 10,
                  "tolerances": {}}),
    ("decompose", _sampled_cfg(n=4, system={
        "kind": "mixture", "seed": 1, "components": [
            {"weight": 0.5, "system": _bernoulli_system((0.75, 0.25), seed=2)},
            {"weight": 0.5, "system": _bernoulli_system((0.25, 0.75), seed=3)}]})),
    ("check-family", _family_cfg(max_card=3, family={
        "kind": "additive", "observable": {
            "kind": "scaled", "c": 2.0,
            "base": {"kind": "indicator_symbol", "symbol": 0}}})),
    ("check-family", _family_cfg(max_card=3, family={
        "kind": "truncated", "N": 2, "base": {
            "kind": "max_of_additives", "observables": [
                {"kind": "symbol_value"},
                {"kind": "neg_pow_run", "base": 2.0, "cap": 4}]}})),
    ("check-family", _family_cfg(max_card=3, family={
        "kind": "additive_plus", "gamma": "log1p", "beta": 0.5,
        "observable": {"kind": "symbol_value"}})),
]

_PARTS = ("group", "sequence", "system", "family", "observable")

# a string is a valid output path, so those keys are probed with a number
_PATH_KEYS = {"output.csv", "output.summary"}


@pytest.mark.parametrize("cmd, cfg", _KEY_CASES,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(_KEY_CASES)])
def test_every_read_key_is_checked(tmp_path, capsys, monkeypatch, cmd, cfg):
    cfg = {**cfg, "output": {}}
    loaded = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_load_config",
                  lambda path, load=cli._load_config: loaded.append(load(path))
                  or loaded[0])
        code, _, _ = _run(cmd, _write(tmp_path, "cfg.json", cfg), tmp_path,
                          tag="base")
    assert code not in (1, 5)
    reads = set(_read_paths(loaded[0]))
    assert {"group", "output.csv", "output.summary"} <= reads
    # the parts' own keys are read through the reader too
    assert {f"{part}.kind" for part in _PARTS if part in cfg} <= reads
    if cfg.get("system", {}).get("kind") == "mixture":
        assert "system.components.1.system.probs" in reads
    for key in sorted(reads):
        for bad in ((3, True, math.nan) if key in _PATH_KEYS
                    else ("x", True, math.nan)):
            path = _write(tmp_path, "cfg.json", _set_path(cfg, key, bad))
            capsys.readouterr()
            code, summary, _ = _run(cmd, path, tmp_path, tag="probe")
            err = capsys.readouterr().err
            assert (code, summary is None) == (1, True), (key, bad, err)
            assert err.startswith("config error:"), (key, bad, err)


# ---------------------------------------------------------------------------
# the README's key tables are the schema the code reads

_ROOT = Path(__file__).resolve().parent.parent


def _readme_table(heading: str) -> list:
    """The body rows, as lists of cells, of the first markdown table after the
    README line that starts with ``heading``."""
    lines = _ROOT.joinpath("README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("|"))
    rows = []
    for line in lines[first + 2:]:
        if not line.startswith("|"):
            break
        rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows


def _names(cell: str) -> list:
    return [n.strip().replace("`", "") for n in cell.split(",") if n.strip()]


_COMPUTED = object()  # a default computed from other keys, given as a rule


def _schema_rows(label, keys):
    """(key, subcommand label, default) of each key, route keys included."""
    for name, default, *check in keys:
        yield name, label, _COMPUTED if callable(default) else default
        if isinstance(check[0], dict):
            for route, route_keys in check[0].items():
                yield from _schema_rows(f"{label} ({route})", route_keys)


def _readme_default(cell: str):
    text = cell.replace("`", "")
    if text == "required":
        return ...
    try:
        return json.loads(text)
    except ValueError:
        return _COMPUTED


def test_readme_scalar_keys_are_the_subcommand_table():
    schema = {(name, label, repr(default))
              for cmd, (_, keys, _) in _COMMANDS.items()
              for name, label, default in _schema_rows(cmd, keys)}
    schema |= {(name, "all", repr(default))
               for name, _, default in _schema_rows("all", cli._OUTPUT)}
    readme = {(key.replace("`", ""), label, repr(_readme_default(default)))
              for key, labels, default, _ in _readme_table("Scalar keys")
              for label in _names(labels)}
    assert readme == schema


# the parent object of each nested object, by the key that holds it
_CHILD = {("system", "components"): "mixture component",
          ("mixture component", "system"): "system",
          ("family", "observable"): "observable",
          ("family", "observables"): "observable",
          ("family", "base"): "family", ("observable", "base"): "observable"}


def _kind_reads(obj, what: str, out: dict) -> None:
    """Add, for ``obj`` (a ``what``) and each object nested in it, the keys
    its parser read under (what, kind)."""
    if isinstance(obj, list):
        for x in obj:
            _kind_reads(x, what, out)
    elif isinstance(obj, dict):
        out.setdefault((what, obj.get("kind", "")), set()).update(obj.read - {"kind"})
        for key, x in obj.items():
            if (what, key) in _CHILD:
                _kind_reads(x, _CHILD[what, key], out)


def _load(tmp_path, cfg):
    return cli._load_config(_write(tmp_path, "cfg.json", cfg))


_ADDITIVE = {"kind": "additive", "observable": {"kind": "symbol_value"}}

# valid examples of the kinds that no `_KEY_CASES` config holds
_MORE_KINDS = [
    ("verify-folner", {"group": {"kind": "cyclic_sum", "periods": [2]},
                       "sequence": {"kind": "cyclic_prefix", "anchors": None}}),
    ("verify-folner", {"group": {"kind": "z_sum"},
                       "sequence": {"kind": "zsum_boxes"}}),
    ("check-family", _family_cfg(family={"kind": "max",
                                         "observable": {"kind": "symbol_value"}})),
    ("check-family", _family_cfg(family={"kind": "concave_cardinality",
                                         "gamma": "sqrt"})),
    ("check-family", _family_cfg(family={"kind": "derived_prime", "base": _ADDITIVE})),
    ("check-family", _family_cfg(family={"kind": "minus_card_squared",
                                         "base": _ADDITIVE})),
]


def test_readme_nested_keys_are_what_the_parsers_read(tmp_path):
    reads = {}
    for cmd, cfg in _KEY_CASES + _MORE_KINDS:
        parts, keys, _ = _COMMANDS[cmd]
        cfg = _load(tmp_path, cfg)
        cli._values(cfg, parts, keys)
        for part in ("group", "sequence", "system", "family", "observable"):
            if part in cfg:
                _kind_reads(cfg[part], part, reads)

    readme = {}
    for obj, kinds, keys, _, _ in _readme_table("Nested keys"):
        for kind in _names(kinds) or [""]:
            readme.setdefault((obj.replace("`", ""), kind), set()).update(_names(keys))
    assert readme == reads


@pytest.mark.parametrize("seed", [0, 7])
def test_bench_configs_read_every_key(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(_ROOT / "bench"))
    import workloads

    ops = [op for name in workloads.WORKLOADS
           for op in workloads.ops_for(name, seed) if hasattr(op, "command")]
    assert ops
    for op in ops:
        cfg = _load(tmp_path, op.config)
        cli._read(cfg, cli._OUTPUT, {})
        parts, keys, _ = _COMMANDS[op.command]
        cli._values(cfg, parts, keys)
