"""Batch experiment runner.

Each subcommand reads one JSON config, runs a single experiment, writes a
CSV of per-index statistics plus a JSON summary, and exits with a verdict
code:

    0  pass
    1  config/schema error, an observable the system does not support, an
       enumeration budget exceeded before any gate runs, or an output file
       that cannot be written
    2  inconclusive (statistics did not certify the claim)
    3  hypothesis-gate refusal
    4  counterexample found
    5  internal error: the summary names the exception, the traceback goes
       to stderr

Handlers read the config only through ``_get`` (one type-checked value) and
``_parts`` (the group and the objects built on it), so a malformed value
exits 1 before any experiment runs.

Reruns with the same config are byte-identical: the version lives in the
header, and all sampling is derived from the config seed.  FOLNER_LAB_THREADS
caps worker threads without changing results.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Optional

from ._bits import HASH_VERSION
from .ergodic import (GateRefusal, birkhoff_check, ergodic_decomposition_check,
                      kingman_run, limsup_identity_check,
                      maximal_inequality_check, setfn_limit_strong,
                      setfn_limit_tiling, setfn_registry)
from .families import PROPERTIES, classify, family_from_json
from .folner import (defect_profile, make_folner, ratios_look_divergent,
                     tempelman_report, tempered_report)
from .groups import BudgetError, EnumBudget, Group
from .systems import System, UnsupportedObservable, observable_from_json
from .tiling import standard_cert, tiles_window_report, window_set

VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config reading


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _pos_ints(v) -> bool:
    return (isinstance(v, list) and bool(v)
            and all(type(n) is int and n >= 1 for n in v))


# (ok, what) pairs for `_get`.  `type(v) is int` keeps JSON true/false out.
_INT = (lambda v: type(v) is int, "an integer")
_POS_INT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_OPT_POS_INT = (lambda v: v is None or (type(v) is int and v >= 1),
                "a positive integer or null")
_NONNEG_INT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_SAMPLES = (lambda v: type(v) is int and v >= 2, "an integer >= 2")
_NUM = (lambda v: type(v) in (int, float), "a number")
_OPT_NUM = (lambda v: v is None or type(v) in (int, float), "a number or null")
_POS_NUM = (lambda v: type(v) in (int, float) and v > 0, "a positive number")
_OBJ = (lambda v: isinstance(v, dict), "an object")
_SEQ_KIND = (lambda v: v in ("z_boxes", "cyclic_prefix", "zsum_boxes"),
             "'z_boxes', 'cyclic_prefix' or 'zsum_boxes'")
_ANCHORS = (lambda v: v in (None, "squares"), "'squares' or null")
_PATH = (lambda v: v is None or isinstance(v, str), "a path or null")
_INDICES = (_pos_ints, "a non-empty list of positive integers")
_SCHEDULE = (lambda v: (_pos_ints(v) and len(v) >= 2
                        and all(a < b for a, b in zip(v, v[1:]))),
             "a strictly increasing list of positive integers, length >= 2")


def _get(cfg: dict, key: str, default, ok, what: str):
    """``cfg[key]``, or ``default`` when absent (``...`` = required).

    A dotted key reads inside a nested object; a value failing ``ok`` is a
    config error naming the key and ``what`` it must be.
    """
    outer, _, name = key.rpartition(".")
    obj = _get(cfg, outer, {}, *_OBJ) if outer else cfg
    if name not in obj:
        if default is ...:
            raise ConfigError(f"missing config key {key!r}")
        return default
    v = obj[name]
    if not ok(v):
        raise ConfigError(f"{key} must be {what}")
    return v


_PARTS = {
    "group": lambda g, d: Group.from_json(d),
    "sequence": lambda g, d: make_folner(
        g, _get(d, "kind", ..., *_SEQ_KIND), _get(d, "anchors", None, *_ANCHORS)),
    "system": lambda g, d: System.from_json(d, g),
    "family": lambda g, d: family_from_json(d),
    "observable": lambda g, d: observable_from_json(d),
}


def _parts(cfg: dict, *names: str) -> list:
    """[group, *parts]: the group, then each named part built on it."""
    built = []
    for name in ("group",) + names:
        spec = _get(cfg, name, ..., *_OBJ)
        try:
            built.append(_PARTS[name](built[0] if built else None, spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}")
    return built


# ---------------------------------------------------------------------------
# Result emission


_VERDICT = {0: "pass", 1: "config_error", 2: "inconclusive",
            3: "gate_refusal", 4: "counterexample", 5: "internal_error"}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _emit(args, output: tuple, rows, summary: dict, exit_code: int) -> int:
    csv_path, summary_path = args.csv or output[0], args.summary or output[1]
    summary = {"gaps": {}, **summary, "verdict": _VERDICT[exit_code],
               "version": VERSION, "exit_code": exit_code,
               "seeds": {**summary.get("seeds", {}), "hash": HASH_VERSION}}
    text = json.dumps(summary, sort_keys=True, indent=2, default=float)
    try:
        if csv_path:
            with open(csv_path, "w") as fh:
                fh.write(f"# folner-lab csv version={VERSION} hash={HASH_VERSION}\n")
                fh.write("index,statistic,value\n")
                for idx, stat, val in rows:
                    fh.write(f"{idx},{stat},{_fmt(val)}\n")
        if summary_path:
            with open(summary_path, "w") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    if not summary_path:
        print(text)
    return exit_code


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, rows, summary); `_emit` adds
# the verdict, and empty `gaps` / `seeds` when a handler has none


def _cmd_verify_folner(cfg: dict):
    _, seq = _parts(cfg, "sequence")
    indices = _get(cfg, "indices", [1, 2, 4, 8, 16], *_INDICES)
    upto = _get(cfg, "growth_upto", max(4, min(12, max(indices))), *_POS_INT)
    profile = defect_profile(seq, indices)
    rows = [(row["index"], key, float(val)) for row in profile
            for key, val in row.items() if key.startswith("defect_")]
    temp = tempered_report(seq, upto)
    tpl = tempelman_report(seq, upto)
    rows += [(i, "tempelman_ratio", float(r))
             for i, r in enumerate(tpl.ratios, start=1)]
    rows += [(i, "tempered_ratio", float(r))
             for i, r in enumerate(temp.ratios, start=1)]
    first = max(v for k, v in profile[0].items() if k.startswith("defect_"))
    last = max(v for k, v in profile[-1].items() if k.startswith("defect_"))
    shrinking = last < first or (first == 0 and last == 0)
    divergent = ratios_look_divergent(temp.ratios)
    return (0 if shrinking and not divergent else 4), rows, {
        "gaps": {"first_defect": float(first), "last_defect": float(last)},
        "tempered_witness": float(temp.witness),
        "tempelman_witness": float(tpl.witness),
        "ratios_divergent": divergent}


def _cmd_verify_tiling(cfg: dict):
    group, seq = _parts(cfg, "sequence")
    indices = _get(cfg, "indices", [1, 2, 3, 4], *_INDICES)
    radius = _get(cfg, "window_radius", 6, *_NONNEG_INT)
    max_index = _get(cfg, "window_max_index", 3, *_POS_INT)
    rows = []
    all_ok = True
    windows_checked = 0
    for n in indices:
        cert = standard_cert(seq, n)
        if cert is None:
            all_ok = False
            rows.append((n, "tiles_window", 0))
            continue
        window = window_set(group, radius, max_index)
        ok, uncovered, multi = tiles_window_report(cert, window)
        windows_checked += 1
        all_ok &= ok
        rows.append((n, "tiles_window", ok))
        rows.append((n, "uncovered_cells", len(uncovered)))
        rows.append((n, "multicovered_cells", len(multi)))
    return (0 if all_ok else 4), rows, {"windows_checked": windows_checked}


def _cmd_check_family(cfg: dict):
    group, system, fam = _parts(cfg, "system", "family")
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    trials = _get(cfg, "trials", 300, *_POS_INT)
    max_card = _get(cfg, "max_card", 6, *_POS_INT)
    expect = _get(cfg, "expect", sorted(fam.declared),
                  lambda v: isinstance(v, list)
                  and all(p in PROPERTIES for p in v),
                  f"a list of properties from {', '.join(PROPERTIES)}")
    report = classify(fam, group, system, trials=trials, seed=seed,
                      max_card=max_card)
    rows = []
    for prop, pv in sorted(report.verdicts.items()):
        rows.append((0, f"passed_{prop}", pv.passed))
        rows.append((0, f"max_gap_{prop}", float(pv.max_gap)))
    failed = [p for p in expect if not report.passed(p)]
    bad = failed[-1] if failed else None
    return (0 if bad is None else 4), rows, {
        "family": fam.name, "expected": expect, "failed_property": bad,
        "counterexample": report.counterexample(bad) if bad else None,
        "gaps": {p: float(report.verdicts[p].max_gap)
                 for p in report.verdicts},
        "seeds": {"seed": seed}}


def _cmd_limit_setfn(cfg: dict):
    group, seq = _parts(cfg, "sequence")
    reg = setfn_registry(group)
    name = _get(cfg, "setfn", ..., lambda v: isinstance(v, str) and v in reg,
                f"one of {sorted(reg)}")
    indices = _get(cfg, "n_schedule", ..., *_SCHEDULE)
    route = _get(cfg, "route", "tiling", lambda v: v in ("tiling", "strong"),
                 "'tiling' or 'strong'")
    if route == "tiling":
        rep = setfn_limit_tiling(
            reg[name], seq, indices,
            max_card=_get(cfg, "max_card", 12, *_POS_INT),
            max_index=_get(cfg, "max_index", 4, *_POS_INT))
    else:
        budget = EnumBudget(
            max_card=_get(cfg, "budget.max_card", 4, *_POS_INT),
            lo=_get(cfg, "budget.lo", -2, *_INT),
            hi=_get(cfg, "budget.hi", 2, *_INT),
            max_index=_get(cfg, "budget.max_index", 2, *_OPT_POS_INT),
            max_sets=_get(cfg, "budget.max_sets", 4000, *_OPT_POS_INT))
        rep = setfn_limit_strong(reg[name], seq, indices, budget=budget)
    rows = [(n, "normalized_value", v) for n, v in zip(indices, rep.seq_values)]
    rows += [(k, "inf_trend", v) for k, v in enumerate(rep.inf_trend)]
    return (0 if rep.status == "converged" else 2), rows, {
        "setfn": name, "route": route, "limit": rep.limit_value,
        "inf": rep.inf_value, "stabilized": rep.stabilized,
        "gaps": {"limit_vs_inf": rep.gap}}


def _cmd_converge(cfg: dict):
    _, seq, system, fam = _parts(cfg, "sequence", "system", "family")
    samples = _get(cfg, "samples", ..., *_SAMPLES)
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    rep = kingman_run(
        fam, seq, system, _get(cfg, "n_schedule", ..., *_SCHEDULE),
        samples, seed=seed,
        tol=_get(cfg, "tolerances.tol", 0.05, *_NUM),
        tail=_get(cfg, "tolerances.tail", 3, *_POS_INT),
        osc_tol=_get(cfg, "tolerances.osc_tol", None, *_OPT_NUM),
        nu_floor=_get(cfg, "nu_floor", -25.0, *_NUM))
    rows = [(n, "mean_normalized_value", v)
            for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "terminal_mean", rep.terminal.mean))
    rows.append((rep.schedule[-1], "terminal_stderr", rep.terminal.stderr))
    rows.append((rep.schedule[-1], "converged_frac", rep.converged_frac))
    if rep.within_frac is not None:
        rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    summary = {"kind": rep.kind, "family": fam.name, "gates": rep.gates,
               "terminal": rep.terminal.to_json(),
               "converged_frac": rep.converged_frac,
               "within_frac": rep.within_frac,
               "l1_decreasing": rep.l1_decreasing,
               "gaps": {"nu_gap": rep.extra.get("nu_gap")},
               "inf_not_stabilized": rep.extra.get("inf_not_stabilized", False),
               "seeds": {"seed": seed}}
    if rep.kind == "truncation_ladder":
        summary["ladder"] = rep.extra["ladder"]
    return (0 if rep.passed else 2), rows, summary


def _cmd_limsup(cfg: dict):
    _, seq, system, fam = _parts(cfg, "sequence", "system", "family")
    samples = _get(cfg, "samples", ..., *_SAMPLES)
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    schedule = _get(cfg, "n_schedule", ..., *_SCHEDULE)
    mode = _get(cfg, "mode", "bi_invariant",
                lambda v: v in ("bi_invariant", "strongly_subadditive"),
                "'bi_invariant' or 'strongly_subadditive'")
    tol = _get(cfg, "tolerances.tol", 0.05, *_NUM)
    try:
        rep = limsup_identity_check(fam, seq, system, mode, schedule, samples,
                                    seed=seed, tol=tol)
    except ValueError as exc:
        raise ConfigError(str(exc))
    rows = [(0, "tail_max_mean", rep["tail_max_mean"]),
            (0, "within_frac", rep["within_frac"]),
            (0, "integral_gap", rep["integral_gap"])]
    return (0 if rep["passed"] else 2), rows, {
        "mode": mode, "within_frac": rep["within_frac"],
        "integral_ok": rep["integral_ok"],
        "inf_stabilized": rep["inf_stabilized"],
        "gaps": {"integral": rep["integral_gap"]}, "seeds": {"seed": seed}}


def _cmd_maximal(cfg: dict):
    _, seq, system, fam = _parts(cfg, "sequence", "system", "family")
    samples = _get(cfg, "samples", ..., *_SAMPLES)
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    alpha = _get(cfg, "alpha", ..., *_POS_NUM)
    N = _get(cfg, "N", 3, *_POS_INT)
    rep = maximal_inequality_check(
        fam, seq, system, float(alpha), N, samples, seed=seed,
        M=_get(cfg, "M", None, *_OPT_NUM),
        nu_term=_get(cfg, "nu_term", None, *_OPT_NUM),
        greedy_instances=_get(cfg, "greedy_instances", 3, *_NONNEG_INT))
    rows = [(N, "empirical_mass", rep.empirical_mass), (N, "bound", rep.bound),
            (N, "mass_stderr", rep.mass_stderr)]
    for k, g in enumerate(rep.greedy_witness_stats):
        rows.append((k, "greedy_exceed_count", g.exceed_count))
        rows.append((k, "greedy_tempelman_bound", float(g.tempelman_bound)))
    return (0 if rep.ok else 4), rows, {
        "report": rep.to_json(),
        "gaps": {"mass_minus_bound": rep.empirical_mass - rep.bound},
        "seeds": {"seed": seed}}


def _cmd_decompose(cfg: dict):
    _, seq, system, fam = _parts(cfg, "sequence", "system", "family")
    samples = _get(cfg, "samples", ..., *_SAMPLES)
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    n = _get(cfg, "n", 32, *_POS_INT)
    rep = ergodic_decomposition_check(fam, system, seq, n, samples, seed=seed)
    rows = [(n, "mixture_mean", rep["mixture"]["mean"]),
            (n, "weighted_component_mean", rep["weighted_components"]),
            (n, "gap", rep["gap"])]
    return (0 if rep["ok"] else 2), rows, {
        "gaps": {"decomposition": rep["gap"]},
        "combined_stderr": rep["combined_stderr"], "seeds": {"seed": seed}}


def _cmd_birkhoff(cfg: dict):
    _, seq, system, obs = _parts(cfg, "sequence", "system", "observable")
    samples = _get(cfg, "samples", ..., *_SAMPLES)
    seed = _get(cfg, "seed", 7, *_NONNEG_INT)
    rep = birkhoff_check(
        obs, seq, system, _get(cfg, "n_schedule", ..., *_SCHEDULE),
        samples, seed=seed,
        tol=_get(cfg, "tolerances.tol", 0.05, *_NUM),
        tail=_get(cfg, "tolerances.tail", 3, *_POS_INT),
        osc_tol=_get(cfg, "tolerances.osc_tol", None, *_OPT_NUM))
    rows = [(n, "mean_average", v) for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    return (0 if rep.passed else 2), rows, {
        "terminal": rep.terminal.to_json(), "within_frac": rep.within_frac,
        "target": rep.target_summary,
        "gaps": {"terminal_vs_target":
                 abs(rep.terminal.mean - rep.target_summary["mean"])},
        "seeds": {"seed": seed}}


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
        width = max(len(r[0]) for r in _THEOREM_TABLE)
        cmdw = max(len(r[1]) for r in _THEOREM_TABLE)
        for name, cmd, gates in _THEOREM_TABLE:
            print(f"{name:<{width}}  {cmd:<{cmdw}}  {gates}")
        return 0

    try:
        cfg = _load_config(args.config)
        output = (_get(cfg, "output.csv", None, *_PATH),
                  _get(cfg, "output.summary", None, *_PATH))
        code, rows, summary = _HANDLERS[args.command](cfg)
    except (ConfigError, BudgetError, UnsupportedObservable) as exc:
        # a budget blow-up here means the requested windows exceed the
        # enumeration budget before any gate runs
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GateRefusal as exc:
        code, rows = (4 if exc.extra.get("counterexample") else 3), []
        summary = {"refused_hypothesis": exc.hypothesis, "detail": exc.detail,
                   "extra": exc.extra}
    except Exception as exc:  # a bug: keep the traceback, still summarise
        traceback.print_exc()
        code, rows, summary = 5, [], {"error": f"{type(exc).__name__}: {exc}"}
    return _emit(args, output, rows, summary, code)


if __name__ == "__main__":
    sys.exit(main())
