"""End-to-end runner contract: exit codes, CSV/JSON artifacts, determinism."""

import json
import math

import pytest

from folnerlab._bits import HASH_VERSION
from folnerlab.cli import _HANDLERS, _THEOREM_TABLE, VERSION, main

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
    cfg = _write(tmp_path, "cfg.json", {
        "group": _z_group(),
        "sequence": {"kind": "z_boxes"},
        "indices": [2, 4, 8, 16],
    })
    code, summary, csv = _run("verify-folner", cfg, tmp_path)
    assert code == 0
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


# ---------------------------------------------------------------------------
# discovery table


def test_theorem_table_lists_real_subcommands(capsys):
    assert main(["list-theorems"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(_THEOREM_TABLE) == 13
    for _, cmd, _ in _THEOREM_TABLE:
        assert cmd.split()[0] in _HANDLERS


# ---------------------------------------------------------------------------
# exit code 1: malformed values caught at the boundary, not as tracebacks


def _maximal_cfg(**over):
    cfg = {"group": _z_group(), "sequence": {"kind": "z_boxes"},
           "system": _bernoulli_system(),
           "family": {"kind": "additive",
                      "observable": {"kind": "indicator_symbol", "symbol": 1}},
           "alpha": 0.6, "N": 2, "samples": 20, "seed": 3}
    cfg.update(over)
    return cfg


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
    ("decompose", _maximal_cfg(n="x"), "n must be a positive integer"),
], ids=["folner-indices", "maximal-N", "symbol-range", "symbol-on-torus",
        "tiling-indices", "setfn-budget", "family-trials", "decompose-n"])
def test_boundary_errors_exit_one(tmp_path, capsys, cmd, cfg, message):
    code, summary, _ = _run(cmd, _write(tmp_path, "cfg.json", cfg), tmp_path)
    assert code == 1
    assert summary is None
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
