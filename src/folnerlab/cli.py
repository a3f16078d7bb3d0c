"""Batch experiment runner.

Each subcommand reads one JSON config, runs a single experiment, writes a
CSV of per-index statistics plus a JSON summary, and exits with a verdict
code:

    0  pass
    1  config/schema error (a malformed or non-finite value, or a key that
       no reader reads), an observable the system does not support, an
       enumeration budget exceeded (inside any gate too, the tempered one
       included), or an output file that cannot be written
    2  inconclusive (statistics did not certify the claim)
    3  hypothesis-gate refusal
    4  counterexample found
    5  internal error: the summary names the exception, the traceback goes
       to stderr

Each subcommand is one row of ``_COMMANDS``: its parts, its scalar keys and
its run.  ``main`` reads ``output.*``, then the row's parts and keys, all
through ``_get``, the one checked reader of ``folnerlab._config``, and
refuses any key that no reader read, before any experiment runs.

Reruns with the same config are byte-identical: the version lives in the
header, and all sampling is derived from the config seed.  Sampling runs on
the calling thread.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from typing import Optional

from ._bits import HASH_VERSION, VERSION
from ._config import (_ANCHORS, _INDICES, _INT, _INT_GE_2, _NONNEG_INT,
                      _NONNEG_NUM, _NUM, _OBJ, _OPT_NONNEG_NUM, _OPT_POS_INT,
                      _OPT_POS_NUM, _PATH, _POS_INT, _POS_NUM, _SCHEDULE,
                      _SEQ_KIND, ConfigError, _get, _one_of, _Obj, _unread)
from .ergodic import (GateRefusal, birkhoff_check, ergodic_decomposition_check,
                      kingman_run, limsup_identity_check,
                      maximal_inequality_check, setfn_limit_strong,
                      setfn_limit_tiling, setfn_registry)
from .families import PROPERTIES, classify, family_from_json
from .folner import (_CARD_CAP, defect_profile, make_folner, ratios_look_divergent,
                     tempelman_report, tempered_report)
from .groups import BudgetError, EnumBudget, Group
from .systems import System, UnsupportedObservable, observable_from_json
from .tiling import standard_cert, tiles_window_report, window_set


# ---------------------------------------------------------------------------
# The read phase


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_Obj)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_PARTS = {
    "group": lambda g, d: Group.from_json(d),
    "sequence": lambda g, d: make_folner(
        g, _get(d, "kind", ..., *_SEQ_KIND), _get(d, "anchors", None, *_ANCHORS)),
    "system": lambda g, d: System.from_json(d, g),
    "family": lambda g, d: family_from_json(d),
    "observable": lambda g, d: observable_from_json(d),
}


def _read(cfg: dict, keys: tuple, v: dict) -> dict:
    """Read ``keys`` into ``v`` under the last part of each name; return ``v``.
    A key is ``(name, default, ok, what)``, ``...`` marking a required one and
    a callable default being computed from ``v``; in ``(name, default, check)``
    ``check`` computes ``(ok, what)`` from ``v``, or is a dict whose entry under
    the value read holds the keys read next."""
    for name, default, *check in keys:
        short = name.rpartition(".")[2]
        if callable(default):
            default = default(v)
        if isinstance(check[0], dict):
            v[short] = _get(cfg, name, default, *_one_of(check[0]))
            _read(cfg, check[0][v[short]], v)
        else:
            v[short] = _get(cfg, name, default,
                            *(check[0](v) if len(check) == 1 else check))
    return v


def _values(cfg: dict, parts: tuple, keys: tuple) -> dict:
    """The values of a row's parts and keys; any key left unread is refused."""
    v = {}
    for name in ("group",) + parts:
        spec = _get(cfg, name, ..., *_OBJ)
        try:
            v[name] = _PARTS[name](v.get("group"), spec)
        except ValueError as exc:
            raise ConfigError(f"bad {name}: {exc}")
    _read(cfg, keys, v)
    unread = min(_unread(cfg), default=None)  # the first, for a stable message
    if unread is not None:
        raise ConfigError(f"unknown key {unread!r}")
    return v


# ---------------------------------------------------------------------------
# Result emission


_VERDICT = {0: "pass", 1: "config_error", 2: "inconclusive",
            3: "gate_refusal", 4: "counterexample", 5: "internal_error"}


def _fmt(v) -> str:
    return str(int(v)) if isinstance(v, int) else repr(float(v))  # bools as 1/0


def _emit(args, out: dict, rows, summary: dict, exit_code: int) -> int:
    csv_path, summary_path = args.csv or out["csv"], args.summary or out["summary"]
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
# Subcommand runs: each takes its row's values (`opts`: keyword arguments of
# the library call) and returns (exit_code, rows, summary); `_emit` adds the
# verdict, and empty `gaps` / `seeds` when a run has none


def _verify_folner(group, sequence, indices, growth_upto):
    profile = defect_profile(sequence, indices)
    rows = [(row["index"], key, float(val)) for row in profile
            for key, val in row.items() if key.startswith("defect_")]
    temp = tempered_report(sequence, growth_upto)
    tpl = tempelman_report(sequence, growth_upto)
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


def _verify_tiling(group, sequence, indices, window_radius, window_max_index):
    # every sequence kind a config can name has a certificate at each index
    rows = []
    all_ok = True
    for n in indices:
        cert = standard_cert(sequence, n)
        window = window_set(group, window_radius, window_max_index)
        ok, uncovered, multi = tiles_window_report(cert, window)
        all_ok &= ok
        rows.append((n, "tiles_window", ok))
        rows.append((n, "uncovered_cells", len(uncovered)))
        rows.append((n, "multicovered_cells", len(multi)))
    return (0 if all_ok else 4), rows, {"windows_checked": len(indices)}


def _check_family(group, system, family, seed, expect, **opts):
    report = classify(family, group, system, seed=seed, **opts)
    rows = []
    for prop, pv in sorted(report.verdicts.items()):
        rows.append((0, f"passed_{prop}", pv.passed))
        rows.append((0, f"max_gap_{prop}", float(pv.max_gap)))
    failed = [p for p in expect if not report.passed(p)]
    bad = failed[-1] if failed else None
    return (0 if bad is None else 4), rows, {
        "family": family.name, "expected": expect, "failed_property": bad,
        "counterexample": report.counterexample(bad) if bad else None,
        "gaps": {p: float(report.verdicts[p].max_gap)
                 for p in report.verdicts},
        "seeds": {"seed": seed}}


def _limit_setfn(group, sequence, setfn, n_schedule, route, **opts):
    f = setfn_registry(group)[setfn]
    if route == "tiling":
        rep = setfn_limit_tiling(f, sequence, n_schedule, **opts)
    else:
        rep = setfn_limit_strong(f, sequence, n_schedule, budget=EnumBudget(**opts))
    rows = [(n, "normalized_value", v) for n, v in zip(n_schedule, rep.seq_values)]
    rows += [(k, "inf_trend", v) for k, v in enumerate(rep.inf_trend)]
    return (0 if rep.status == "converged" else 2), rows, {
        "setfn": setfn, "route": route, "limit": rep.limit_value,
        "inf": rep.inf_value, "stabilized": rep.stabilized,
        "gaps": {"limit_vs_inf": rep.gap}}


def _converge(group, sequence, system, family, samples, seed, n_schedule, **opts):
    rep = kingman_run(family, sequence, system, n_schedule, samples, seed=seed, **opts)
    rows = [(n, "mean_normalized_value", v)
            for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "terminal_mean", rep.terminal.mean))
    rows.append((rep.schedule[-1], "terminal_stderr", rep.terminal.stderr))
    rows.append((rep.schedule[-1], "converged_frac", rep.converged_frac))
    if rep.within_frac is not None:
        rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    summary = {"kind": rep.kind, "family": family.name, "gates": rep.gates,
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


def _limsup(group, sequence, system, family, samples, seed, n_schedule, mode, tol):
    rep = limsup_identity_check(family, sequence, system, mode, n_schedule,
                                samples, seed=seed, tol=tol)
    rows = [(0, "tail_max_mean", rep["tail_max_mean"]),
            (0, "within_frac", rep["within_frac"]),
            (0, "integral_gap", rep["integral_gap"])]
    return (0 if rep["passed"] else 2), rows, {
        "mode": mode, "within_frac": rep["within_frac"],
        "integral_ok": rep["integral_ok"],
        "inf_stabilized": rep["inf_stabilized"],
        "gaps": {"integral": rep["integral_gap"]}, "seeds": {"seed": seed}}


def _maximal(group, sequence, system, family, samples, seed, alpha, N, **opts):
    rep = maximal_inequality_check(family, sequence, system, float(alpha), N,
                                   samples, seed=seed, **opts)
    rows = [(N, "empirical_mass", rep.empirical_mass), (N, "bound", rep.bound),
            (N, "mass_stderr", rep.mass_stderr)]
    for k, g in enumerate(rep.greedy_witness_stats):
        rows.append((k, "greedy_exceed_count", g.exceed_count))
        rows.append((k, "greedy_tempelman_bound", float(g.tempelman_bound)))
    return (0 if rep.ok else 4), rows, {
        "report": rep.to_json(),
        "gaps": {"mass_minus_bound": rep.empirical_mass - rep.bound},
        "seeds": {"seed": seed}}


def _decompose(group, sequence, system, family, samples, seed, n):
    rep = ergodic_decomposition_check(family, system, sequence, n, samples, seed=seed)
    rows = [(n, "mixture_mean", rep["mixture"]["mean"]),
            (n, "weighted_component_mean", rep["weighted_components"]),
            (n, "gap", rep["gap"])]
    return (0 if rep["ok"] else 2), rows, {
        "gaps": {"decomposition": rep["gap"]},
        "combined_stderr": rep["combined_stderr"], "seeds": {"seed": seed}}


def _birkhoff(group, sequence, system, observable, samples, seed, n_schedule, **opts):
    rep = birkhoff_check(observable, sequence, system, n_schedule, samples,
                         seed=seed, **opts)
    rows = [(n, "mean_average", v) for n, v in zip(rep.schedule, rep.col_means)]
    rows += [(n, "l1_deviation", v) for n, v in zip(rep.schedule, rep.l1)]
    rows.append((rep.schedule[-1], "within_frac", rep.within_frac))
    return (0 if rep.passed else 2), rows, {
        "terminal": rep.terminal.to_json(), "within_frac": rep.within_frac,
        "target": rep.target_summary,
        "gaps": {"terminal_vs_target":
                 abs(rep.terminal.mean - rep.target_summary["mean"])},
        "seeds": {"seed": seed}}


# ---------------------------------------------------------------------------
# Subcommands: (parts built on the group, keys as `_read` reads them, run)


def _at_most(spec: tuple, cap: int, what: str = "") -> tuple:
    """``spec``'s check, bounded above by ``cap``."""
    check = spec[0]
    return (lambda x: check(x) and x <= cap, what or f"{spec[1]} <= {cap}")


_OUTPUT = (("output.csv", None, *_PATH), ("output.summary", None, *_PATH))
_SAMPLED = ("sequence", "system", "family")
_SEED = ("seed", 7, *_NONNEG_INT)
# run sizes are capped far above every shipped config (10,000 samples and
# trials, 3 greedy instances), so a huge one is a config error, not a crash
_SAMPLES_CAP, _TRIALS_CAP, _GREEDY_CAP = 1_000_000, 100_000, 1_000
_SAMPLES = (("samples", ..., *_at_most(_INT_GE_2, _SAMPLES_CAP,
                                       f"an integer from 2 to {_SAMPLES_CAP}")), _SEED)
_SCHEDULED = ("n_schedule", ..., *_SCHEDULE)
# no window or enumerated set holds more cells
_CARD = _at_most(_POS_INT, _CARD_CAP)
_TOL = ("tolerances.tol", 0.05, *_NONNEG_NUM)
_TAIL = (("tolerances.tail", 3, *_POS_INT),
         ("tolerances.osc_tol", None, *_OPT_NONNEG_NUM))

_COMMANDS = {
    "verify-folner": (("sequence",), (
        ("indices", [1, 2, 4, 8, 16], *_INDICES),
        ("growth_upto", lambda v: max(4, min(12, max(v["indices"]))), *_INT_GE_2)),
     _verify_folner),
    "verify-tiling": (("sequence",), (
        ("indices", [1, 2, 3, 4], *_INDICES), ("window_radius", 6, *_NONNEG_INT),
        ("window_max_index", 3, *_POS_INT)), _verify_tiling),
    "check-family": (("system", "family"), (
        _SEED, ("trials", 300, *_at_most(_POS_INT, _TRIALS_CAP)),
        # |E|, |F| are drawn as 64-bit integers
        ("max_card", 6, *_CARD),
        ("expect", lambda v: sorted(v["family"].declared),
         lambda x: isinstance(x, list) and all(p in PROPERTIES for p in x),
         f"a list of properties from {', '.join(PROPERTIES)}")), _check_family),
    "limit-setfn": (("sequence",), (
        ("setfn", ..., lambda v: _one_of(setfn_registry(v["group"]))),
        _SCHEDULED,
        ("route", "tiling", {
            "tiling": (("max_card", 12, *_CARD), ("max_index", 4, *_POS_INT)),
            "strong": (("budget.lo", -2, *_INT), ("budget.max_card", 4, *_CARD),
                       ("budget.hi", 2, lambda v: (
                           lambda x: type(x) is int and x >= v["lo"],
                           "an integer >= budget.lo")),
                       ("budget.max_index", 2, *_OPT_POS_INT),
                       ("budget.max_sets", 4000, *_OPT_POS_INT))})), _limit_setfn),
    "converge": (_SAMPLED, (*_SAMPLES, _SCHEDULED, _TOL, *_TAIL,
                            ("nu_floor", -25.0, *_NUM)), _converge),
    "limsup": (_SAMPLED, (
        *_SAMPLES, _SCHEDULED,
        ("mode", "bi_invariant",
         *_one_of(("bi_invariant", "strongly_subadditive"))), _TOL), _limsup),
    "maximal": (_SAMPLED, (
        *_SAMPLES, ("alpha", ..., *_POS_NUM), ("N", 3, *_POS_INT),
        ("M", None, *_OPT_POS_NUM), ("nu_term", None, *_OPT_NONNEG_NUM),
        ("greedy_instances", 3, *_at_most(_NONNEG_INT, _GREEDY_CAP))), _maximal),
    "decompose": (_SAMPLED, (*_SAMPLES, ("n", 32, *_POS_INT)), _decompose),
    "birkhoff": (("sequence", "system", "observable"),
                 (*_SAMPLES, _SCHEDULED, _TOL, *_TAIL), _birkhoff),
}


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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folner-lab",
        description="Averaging-theorem experiments on amenable groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag in ("--config", "--csv", "--summary"):
            p.add_argument(flag, required=flag == "--config")
    sub.add_parser("list-theorems")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "list-theorems":
        width = max(len(r[0]) for r in _THEOREM_TABLE)
        cmdw = max(len(r[1]) for r in _THEOREM_TABLE)
        for name, cmd, gates in _THEOREM_TABLE:
            print(f"{name:<{width}}  {cmd:<{cmdw}}  {gates}")
        return 0

    try:
        cfg = _load_config(args.config)
        output = _read(cfg, _OUTPUT, {})
        parts, keys, run = _COMMANDS[args.command]
        code, rows, summary = run(**_values(cfg, parts, keys))
    except (ConfigError, BudgetError, UnsupportedObservable) as exc:
        # a budget blow-up means the requested sets exceed the enumeration
        # budget, before any gate runs or inside one: no gate can decide
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
