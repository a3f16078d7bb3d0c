"""End-to-end runner contract: exit codes, CSV/JSON artifacts, determinism."""

import copy
import json
import math
import sys

import pytest

from folnerlab import cli
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


@pytest.mark.parametrize("inner", ["minus_card_squared", "derived_prime"])
def test_nested_defect_family_runs(tmp_path, inner):
    # the defect of a family needs that family's singleton window
    additive = {"kind": "additive",
                "observable": {"kind": "indicator_symbol", "symbol": 1}}
    cfg = _maximal_cfg(family={"kind": "derived_prime",
                               "base": {"kind": inner, "base": additive}})
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


def test_results_independent_of_thread_count(tmp_path, monkeypatch):
    # the criterion-08 mixture; 300 samples make three blocks, so two
    # threads split the work
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
    for threads in ("1", "2"):
        monkeypatch.setenv("FOLNER_LAB_THREADS", threads)
        code, _, csv = _run("decompose", cfg, tmp_path, tag=threads)
        assert code == 0
        outputs.append((csv, (tmp_path / f"out{threads}.json").read_text()))
    assert outputs[0] == outputs[1]


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
    return {**_maximal_cfg(), "n_schedule": [2, 4], **over}


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
    ("verify-folner", _folner_cfg(growth_upto="x"),
     "growth_upto must be a positive integer"),
    ("verify-folner", _folner_cfg(growth_upto=True),
     "growth_upto must be a positive integer"),
    ("verify-tiling", _folner_cfg(window_radius="x"),
     "window_radius must be a non-negative integer"),
    ("check-family", _family_cfg(max_card="x"),
     "max_card must be a positive integer"),
    ("check-family", _family_cfg(expect=3), "expect must be a list of properties"),
    ("limit-setfn", _setfn_cfg(max_card="x"), "max_card must be a positive integer"),
    ("limit-setfn", _setfn_cfg(route="strong", budget={"max_card": "x"}),
     "budget.max_card must be a positive integer"),
    ("limit-setfn", _setfn_cfg(setfn=["x"]), "setfn must be one of"),
    ("converge", _converge_cfg(tolerances={"tol": "x"}),
     "tolerances.tol must be a number"),
    ("converge", _converge_cfg(nu_floor="x"), "nu_floor must be a number"),
    ("birkhoff", {**_torus_cfg(), "tolerances": {"tail": "x"}},
     "tolerances.tail must be a positive integer"),
    ("maximal", _maximal_cfg(M="x"), "M must be a number or null"),
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
], ids=["folner-indices", "maximal-N", "symbol-range", "symbol-on-torus",
        "tiling-indices", "setfn-budget", "family-trials", "decompose-n",
        "folner-growth-str", "folner-growth-bool", "tiling-radius",
        "family-max-card", "family-expect", "setfn-max-card",
        "setfn-budget-max-card", "setfn-name-list", "converge-tol",
        "converge-nu-floor", "birkhoff-tail", "maximal-M",
        "maximal-greedy-instances", "output-not-object", "tiling-window-cyclic",
        "tiling-window-plane", "group-d-bool", "group-periods-float",
        "system-seed-bool", "observable-symbol-bool"])
def test_boundary_errors_exit_one(tmp_path, capsys, cmd, cfg, message):
    code, summary, _ = _run(cmd, _write(tmp_path, "cfg.json", cfg), tmp_path)
    assert code == 1
    assert summary is None
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


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
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(_HANDLERS, "converge", broken)
    code, summary, _ = _run("converge", _write(tmp_path, "cfg.json", {}),
                            tmp_path)
    assert code == 5
    assert summary["verdict"] == "internal_error"
    assert summary["error"] == "RuntimeError: boom"
    assert summary["exit_code"] == 5
    assert summary["seeds"]["hash"] == HASH_VERSION
    assert "Traceback" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every key a handler reads rejects a string and a JSON boolean


class _Recorder(dict):
    """A config object that records each key `folnerlab.cli` reads from it.

    Nested objects are wrapped too, so `budget.max_card` or `output.csv` is
    recorded under its dotted path.  Reads made by the library (for example
    `Group.from_json` reading `group.kind`) are not recorded.
    """

    def __init__(self, data, reads, prefix=""):
        super().__init__({k: _Recorder(v, reads, f"{prefix}{k}.")
                          if isinstance(v, dict) else v
                          for k, v in data.items()})
        self.reads, self.prefix = reads, prefix

    def _note(self, key):
        if sys._getframe(2).f_globals.get("__name__") == cli.__name__:
            self.reads.add(self.prefix + key)

    def __contains__(self, key):
        self._note(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self._note(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._note(key)
        return super().get(key, default)


def _set_path(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    *outer, last = path.split(".")
    node = cfg
    for key in outer:
        node = node.setdefault(key, {})
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
    ("decompose", _maximal_cfg(n=4)),
    ("birkhoff", {**_torus_cfg(), "n_schedule": [4, 16], "samples": 10,
                  "tolerances": {}}),
]

# a string is a valid output path, so those keys are probed with a number
_PATH_KEYS = {"output.csv", "output.summary"}


@pytest.mark.parametrize("cmd, cfg", _KEY_CASES,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(_KEY_CASES)])
def test_every_read_key_is_checked(tmp_path, capsys, monkeypatch, cmd, cfg):
    cfg = {**cfg, "output": {}}
    reads = set()
    with monkeypatch.context() as m:
        m.setattr(cli, "_load_config", lambda path: _Recorder(cfg, reads))
        code, _, _ = _run(cmd, "unused.json", tmp_path, tag="base")
    assert code not in (1, 5)
    assert {"group", "output.csv", "output.summary"} <= reads
    for key in sorted(reads):
        for bad in ((3, True) if key in _PATH_KEYS else ("x", True)):
            path = _write(tmp_path, "cfg.json", _set_path(cfg, key, bad))
            capsys.readouterr()
            code, summary, _ = _run(cmd, path, tmp_path, tag="probe")
            err = capsys.readouterr().err
            assert (code, summary is None) == (1, True), (key, bad, err)
            assert err.startswith("config error:"), (key, bad, err)
