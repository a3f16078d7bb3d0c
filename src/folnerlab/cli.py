"""Batch experiment runner.

Each subcommand reads one JSON config, runs a single experiment, writes a
CSV of per-index statistics plus a JSON summary, and exits with a verdict
code:

    0  pass
    1  config/schema error, an observable the system does not support, or
       an enumeration budget exceeded before any gate runs
    2  inconclusive (statistics did not certify the claim)
    3  hypothesis-gate refusal
    4  counterexample found

Reruns with the same config are byte-identical: the version lives in the
header, and all sampling is derived from the config seed.  FOLNER_LAB_THREADS
caps worker threads without changing results.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ._bits import HASH_VERSION
from .ergodic import (GateRefusal, birkhoff_check, ergodic_decomposition_check,
                      kingman_run, limsup_identity_check,
                      maximal_inequality_check, setfn_limit_strong,
                      setfn_limit_tiling, setfn_registry)
from .families import classify, family_from_json
from .folner import (defect_profile, make_folner, ratios_look_divergent,
                     tempelman_report, tempered_report)
from .groups import BudgetError, EnumBudget, Group
from .systems import System, UnsupportedObservable, observable_from_json
from .tiling import standard_cert, tiles_window_report, window_set

VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    return cfg[key]


def _build_group(cfg: dict) -> Group:
    try:
        return Group.from_json(_require(cfg, "group"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad group: {exc}")


def _build_seq(group: Group, cfg: dict):
    sd = _require(cfg, "sequence")
    try:
        return make_folner(group, sd["kind"], anchors=sd.get("anchors"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sequence: {exc}")


def _build_system(cfg: dict, group: Group) -> System:
    try:
        return System.from_json(_require(cfg, "system"), group)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad system: {exc}")


def _build_family(cfg: dict):
    try:
        return family_from_json(_require(cfg, "family"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad family: {exc}")


def _schedule(cfg: dict) -> list:
    sched = _require(cfg, "n_schedule")
    if (not isinstance(sched, list) or len(sched) < 2
            or not all(isinstance(n, int) and n >= 1 for n in sched)
            or any(b <= a for a, b in zip(sched, sched[1:]))):
        raise ConfigError("n_schedule must be a strictly increasing list of "
                          "positive integers, length >= 2")
    return sched


def _indices(cfg: dict, default: list) -> list:
    idx = cfg.get("indices", default)
    if (not isinstance(idx, list) or not idx
            or not all(isinstance(n, int) and n >= 1 for n in idx)):
        raise ConfigError("indices must be a non-empty list of positive integers")
    return idx


def _positive_int(cfg: dict, key: str, default: int) -> int:
    v = cfg.get(key, default)
    if not isinstance(v, int) or v < 1:
        raise ConfigError(f"{key} must be a positive integer")
    return v


def _samples(cfg: dict) -> int:
    s = _require(cfg, "samples")
    if not isinstance(s, int) or s < 2:
        raise ConfigError("samples must be an integer >= 2")
    return s


def _seed(cfg: dict) -> int:
    s = cfg.get("seed", 7)
    if not isinstance(s, int) or s < 0:
        raise ConfigError("seed must be a non-negative integer")
    return s


def _tolerances(cfg: dict) -> dict:
    t = cfg.get("tolerances", {})
    if not isinstance(t, dict):
        raise ConfigError("tolerances must be an object")
    return t


# ---------------------------------------------------------------------------
# Result emission


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _emit(cfg: dict, args, rows: list, summary: dict, exit_code: int) -> int:
    out = cfg.get("output", {})
    csv_path = args.csv or out.get("csv")
    summary_path = args.summary or out.get("summary")
    summary = dict(summary)
    summary.setdefault("gaps", {})
    summary["version"] = VERSION
    summary["exit_code"] = exit_code
    summary.setdefault("seeds", {})["hash"] = HASH_VERSION
    text = json.dumps(summary, sort_keys=True, indent=2, default=float)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(f"# folner-lab csv version={VERSION} hash={HASH_VERSION}\n")
            fh.write("index,statistic,value\n")
            for idx, stat, val in rows:
                fh.write(f"{idx},{stat},{_fmt(val)}\n")
    if summary_path:
        with open(summary_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _verdict(code: int) -> str:
    return {0: "pass", 1: "config_error", 2: "inconclusive",
            3: "gate_refusal", 4: "counterexample"}[code]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, rows, summary)


def _cmd_verify_folner(cfg: dict):
    group = _build_group(cfg)
    seq = _build_seq(group, cfg)
    indices = _indices(cfg, [1, 2, 4, 8, 16])
    upto = cfg.get("growth_upto", max(4, min(12, max(indices))))
    rows = []
    profile = defect_profile(seq, indices)
    for row in profile:
        for key, val in row.items():
            if key.startswith("defect_"):
                rows.append((row["index"], key, float(val)))
    temp = tempered_report(seq, upto)
    tpl = tempelman_report(seq, upto)
    for i, r in enumerate(tpl.ratios, start=1):
        rows.append((i, "tempelman_ratio", float(r)))
    for i, r in enumerate(temp.ratios, start=1):
        rows.append((i, "tempered_ratio", float(r)))
    first = max(v for k, v in profile[0].items() if k.startswith("defect_"))
    last = max(v for k, v in profile[-1].items() if k.startswith("defect_"))
    shrinking = last < first or (first == 0 and last == 0)
    divergent = ratios_look_divergent(temp.ratios)
    code = 0 if (shrinking and not divergent) else 4
    summary = {"verdict": _verdict(code),
               "gaps": {"first_defect": float(first), "last_defect": float(last)},
               "tempered_witness": float(temp.witness),
               "tempelman_witness": float(tpl.witness),
               "ratios_divergent": divergent,
               "seeds": {}}
    return code, rows, summary


def _cmd_verify_tiling(cfg: dict):
    group = _build_group(cfg)
    seq = _build_seq(group, cfg)
    indices = _indices(cfg, [1, 2, 3, 4])
    radius = cfg.get("window_radius", 6)
    rows = []
    all_ok = True
    windows_checked = 0
    for n in indices:
        cert = standard_cert(seq, n)
        if cert is None:
            all_ok = False
            rows.append((n, "tiles_window", 0))
            continue
        window = window_set(group, radius, cfg.get("window_max_index", 3))
        ok, uncovered, multi = tiles_window_report(cert, window)
        windows_checked += 1
        all_ok &= ok
        rows.append((n, "tiles_window", ok))
        rows.append((n, "uncovered_cells", len(uncovered)))
        rows.append((n, "multicovered_cells", len(multi)))
    code = 0 if all_ok else 4
    summary = {"verdict": _verdict(code), "windows_checked": windows_checked,
               "gaps": {}, "seeds": {}}
    return code, rows, summary


def _cmd_check_family(cfg: dict):
    group = _build_group(cfg)
    system = _build_system(cfg, group)
    fam = _build_family(cfg)
    seed = _seed(cfg)
    trials = _positive_int(cfg, "trials", 300)
    report = classify(fam, group, system, trials=trials, seed=seed,
                      max_card=cfg.get("max_card", 6))
    expect = cfg.get("expect", sorted(fam.declared))
    rows = []
    bad = None
    for prop, pv in sorted(report.verdicts.items()):
        rows.append((0, f"passed_{prop}", pv.passed))
        rows.append((0, f"max_gap_{prop}", float(pv.max_gap)))
    for prop in expect:
        if prop not in report.verdicts:
            raise ConfigError(f"unknown property {prop!r} in expect")
        if not report.passed(prop):
            bad = prop
    code = 0 if bad is None else 4
    summary = {"verdict": _verdict(code), "family": fam.name,
               "expected": expect, "failed_property": bad,
               "counterexample": report.counterexample(bad) if bad else None,
               "gaps": {p: float(report.verdicts[p].max_gap)
                        for p in report.verdicts},
               "seeds": {"seed": seed}}
    return code, rows, summary


def _cmd_limit_setfn(cfg: dict):
    group = _build_group(cfg)
    seq = _build_seq(group, cfg)
    name = _require(cfg, "setfn")
    reg = setfn_registry(group)
    if name not in reg:
        raise ConfigError(f"unknown set function {name!r}; "
                          f"choices: {sorted(reg)}")
    f = reg[name]
    indices = _schedule(cfg)
    route = cfg.get("route", "tiling")
    if route == "tiling":
        rep = setfn_limit_tiling(f, seq, indices,
                                 max_card=cfg.get("max_card", 12),
                                 max_index=cfg.get("max_index", 4))
    elif route == "strong":
        b = cfg.get("budget", {})
        if not isinstance(b, dict):
            raise ConfigError("budget must be an object")
        budget = EnumBudget(max_card=b.get("max_card", 4),
                            lo=b.get("lo", -2), hi=b.get("hi", 2),
                            max_index=b.get("max_index", 2),
                            max_sets=b.get("max_sets", 4000))
        rep = setfn_limit_strong(f, seq, indices, budget=budget)
    else:
        raise ConfigError("route must be 'tiling' or 'strong'")
    rows = [(n, "normalized_value", v)
            for n, v in zip(indices, rep.seq_values)]
    rows += [(k, "inf_trend", v) for k, v in enumerate(rep.inf_trend)]
    code = 0 if rep.status == "converged" else 2
    summary = {"verdict": _verdict(code), "setfn": name, "route": route,
               "limit": rep.limit_value, "inf": rep.inf_value,
               "stabilized": rep.stabilized,
               "gaps": {"limit_vs_inf": rep.gap}, "seeds": {}}
    return code, rows, summary


def _common_run_parts(cfg: dict):
    group = _build_group(cfg)
    seq = _build_seq(group, cfg)
    system = _build_system(cfg, group)
    return seq, system, _samples(cfg), _seed(cfg)


def _cmd_converge(cfg: dict):
    seq, system, samples, seed = _common_run_parts(cfg)
    schedule = _schedule(cfg)
    fam = _build_family(cfg)
    tols = _tolerances(cfg)
    rep = kingman_run(fam, seq, system, schedule, samples, seed=seed,
                      tol=tols.get("tol", 0.05),
                      tail=tols.get("tail", 3),
                      osc_tol=tols.get("osc_tol"),
                      nu_floor=cfg.get("nu_floor", -25.0))
    rows = [(n, "mean_normalized_value", v)
            for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "terminal_mean", rep.terminal.mean))
    rows.append((rep.schedule[-1], "terminal_stderr", rep.terminal.stderr))
    rows.append((rep.schedule[-1], "converged_frac", rep.converged_frac))
    if rep.within_frac is not None:
        rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    code = 0 if rep.passed else 2
    summary = {"verdict": _verdict(code), "kind": rep.kind,
               "family": fam.name, "gates": rep.gates,
               "terminal": rep.terminal.to_json(),
               "converged_frac": rep.converged_frac,
               "within_frac": rep.within_frac,
               "l1_decreasing": rep.l1_decreasing,
               "gaps": {"nu_gap": rep.extra.get("nu_gap")},
               "inf_not_stabilized": rep.extra.get("inf_not_stabilized", False),
               "seeds": {"seed": seed}}
    if rep.kind == "truncation_ladder":
        summary["ladder"] = rep.extra["ladder"]
    return code, rows, summary


def _cmd_limsup(cfg: dict):
    seq, system, samples, seed = _common_run_parts(cfg)
    schedule = _schedule(cfg)
    fam = _build_family(cfg)
    mode = cfg.get("mode", "bi_invariant")
    tols = _tolerances(cfg)
    try:
        rep = limsup_identity_check(fam, seq, system, mode, schedule, samples,
                                    seed=seed, tol=tols.get("tol", 0.05))
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = [(0, "tail_max_mean", rep["tail_max_mean"]),
            (0, "within_frac", rep["within_frac"]),
            (0, "integral_gap", rep["integral_gap"])]
    code = 0 if rep["passed"] else 2
    summary = {"verdict": _verdict(code), "mode": mode,
               "within_frac": rep["within_frac"],
               "integral_ok": rep["integral_ok"],
               "inf_stabilized": rep["inf_stabilized"],
               "gaps": {"integral": rep["integral_gap"]},
               "seeds": {"seed": seed}}
    return code, rows, summary


def _cmd_maximal(cfg: dict):
    seq, system, samples, seed = _common_run_parts(cfg)
    fam = _build_family(cfg)
    alpha = _require(cfg, "alpha")
    if not isinstance(alpha, (int, float)) or alpha <= 0:
        raise ConfigError("alpha must be positive")
    N = _positive_int(cfg, "N", 3)
    rep = maximal_inequality_check(fam, seq, system, float(alpha), N,
                                   samples, seed=seed,
                                   M=cfg.get("M"),
                                   nu_term=cfg.get("nu_term"),
                                   greedy_instances=cfg.get("greedy_instances", 3))
    rows = [(N, "empirical_mass", rep.empirical_mass),
            (N, "bound", rep.bound),
            (N, "mass_stderr", rep.mass_stderr)]
    for k, g in enumerate(rep.greedy_witness_stats):
        rows.append((k, "greedy_exceed_count", g.exceed_count))
        rows.append((k, "greedy_tempelman_bound", float(g.tempelman_bound)))
    code = 0 if rep.ok else 4
    summary = {"verdict": _verdict(code), "report": rep.to_json(),
               "gaps": {"mass_minus_bound": rep.empirical_mass - rep.bound},
               "seeds": {"seed": seed}}
    return code, rows, summary


def _cmd_decompose(cfg: dict):
    seq, system, samples, seed = _common_run_parts(cfg)
    fam = _build_family(cfg)
    n = _positive_int(cfg, "n", 32)
    rep = ergodic_decomposition_check(fam, system, seq, n, samples, seed=seed)
    rows = [(n, "mixture_mean", rep["mixture"]["mean"]),
            (n, "weighted_component_mean", rep["weighted_components"]),
            (n, "gap", rep["gap"])]
    code = 0 if rep["ok"] else 2
    summary = {"verdict": _verdict(code),
               "gaps": {"decomposition": rep["gap"]},
               "combined_stderr": rep["combined_stderr"],
               "seeds": {"seed": seed}}
    return code, rows, summary


def _cmd_birkhoff(cfg: dict):
    seq, system, samples, seed = _common_run_parts(cfg)
    schedule = _schedule(cfg)
    try:
        obs = observable_from_json(_require(cfg, "observable"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad observable: {exc}")
    tols = _tolerances(cfg)
    rep = birkhoff_check(obs, seq, system, schedule, samples, seed=seed,
                         tol=tols.get("tol", 0.05),
                         tail=tols.get("tail", 3),
                         osc_tol=tols.get("osc_tol"))
    rows = [(n, "mean_average", v) for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    code = 0 if rep.passed else 2
    summary = {"verdict": _verdict(code),
               "terminal": rep.terminal.to_json(),
               "within_frac": rep.within_frac,
               "target": rep.target_summary,
               "gaps": {"terminal_vs_target":
                        abs(rep.terminal.mean - rep.target_summary["mean"])},
               "seeds": {"seed": seed}}
    return code, rows, summary


_THEOREM_TABLE = [
    ("pointwise-average-convergence", "birkhoff",
     "tempered sequence"),
    ("setfn-limit-over-tiles", "limit-setfn --route tiling",
     "setfn subadditive + invariant; tiling certificates"),
    ("setfn-limit-over-finite-sets", "limit-setfn --route strong",
     "setfn strongly subadditive + invariant"),
    ("normalized-mean-limit", "converge",
     "family subadditive + invariant; tiling sequence"),
    ("mean-value-mixture-decomposition", "decompose",
     "finite mixture; family gates as in converge"),
    ("covering-packing-inequality", "maximal",
     "family nonneg + supadditive + invariant; exact integer inequality"),
    ("exceedance-mass-bound", "maximal",
     "family nonneg + supadditive + invariant; tiling or strong supadditivity"),
    ("limsup-identity-over-tiles", "limsup --mode bi_invariant",
     "family bi-invariant + subadditive; tempered tiling sequence"),
    ("limsup-identity-over-finite-sets", "limsup --mode strongly_subadditive",
     "family strongly subadditive + invariant; tempered sequence"),
    ("subadditive-pointwise-limit", "converge",
     "self-similar tiling schedule; bounded inverse-union growth; shrinking "
     "sandwich gaps; one of bi-invariance / strong subadditivity / "
     "subgroup-product"),
    ("mean-deviation-convergence", "converge",
     "as subadditive-pointwise-limit plus composition chain along schedule"),
    ("unbounded-below-truncation-ladder", "converge",
     "as subadditive-pointwise-limit; auto-switch when the normalized mean "
     "falls below the floor"),
    ("integer-line-maximal-constant-one", "maximal",
     "nonneg + supadditive + invariant on integer boxes; constant override M=1"),
]


def _cmd_list_theorems():
    width = max(len(r[0]) for r in _THEOREM_TABLE)
    cmdw = max(len(r[1]) for r in _THEOREM_TABLE)
    for name, cmd, gates in _THEOREM_TABLE:
        print(f"{name:<{width}}  {cmd:<{cmdw}}  {gates}")
    return 0


_HANDLERS = {
    "verify-folner": _cmd_verify_folner,
    "verify-tiling": _cmd_verify_tiling,
    "check-family": _cmd_check_family,
    "limit-setfn": _cmd_limit_setfn,
    "converge": _cmd_converge,
    "limsup": _cmd_limsup,
    "maximal": _cmd_maximal,
    "decompose": _cmd_decompose,
    "birkhoff": _cmd_birkhoff,
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="folner-lab",
        description="Averaging-theorem experiments on amenable groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--csv", default=None)
        p.add_argument("--summary", default=None)
    sub.add_parser("list-theorems")
    args = parser.parse_args(argv)

    if args.command == "list-theorems":
        return _cmd_list_theorems()

    try:
        cfg = _load_config(args.config)
        code, rows, summary = _HANDLERS[args.command](cfg)
    except (ConfigError, BudgetError, UnsupportedObservable) as exc:
        # a budget blow-up here means the requested windows exceed the
        # enumeration budget before any gate runs
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GateRefusal as exc:
        code = 4 if exc.extra.get("counterexample") else 3
        summary = {"verdict": _verdict(code), "refused_hypothesis": exc.hypothesis,
                   "detail": exc.detail, "extra": exc.extra, "gaps": {},
                   "seeds": {}}
        return _emit(cfg, args, [], summary, code)
    return _emit(cfg, args, rows, summary, code)


if __name__ == "__main__":
    sys.exit(main())
