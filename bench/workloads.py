"""Workload definitions: each workload is a fixed batch of operations.

An operation (op) is one experiment.  CLI ops run a ``folner-lab``
subcommand on a config that is generated here from the workload seed; the
program only ever sees those configs.  Sweep ops check the exact
composition / product / union identities of the integer direct sum on one
left box shape.  The amount of work does not depend on the seed: the seed
moves every sampling seed and the order of the sweep, nothing else.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class CliOp:
    name: str
    command: str
    config: dict
    expect: int  # expected exit code
    threads_check: bool = False  # re-run once with FOLNER_LAB_THREADS=1


@dataclass(frozen=True)
class SweepOp:
    name: str
    left: tuple  # left box shape a
    rights: tuple  # right shapes b with len(b) >= len(a)


def derive(seed: int, tag: str) -> int:
    """Stable 31-bit config seed from the workload seed and an op tag."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _z(d: int) -> dict:
    return {"kind": "z_power", "d": d}


def _bernoulli(p1: float, seed: int) -> dict:
    return {"kind": "bernoulli", "probs": [1.0 - p1, p1], "seed": seed}


def _indicator(symbol: int = 1) -> dict:
    return {"kind": "indicator_symbol", "symbol": symbol}


# ---------------------------------------------------------------------------
# exact-compose: exact set algebra, no sampling


SWEEP_MAX_ENTRY = 4


def sweep_shapes() -> list:
    return [t for L in (1, 2, 3)
            for t in itertools.product(range(1, SWEEP_MAX_ENTRY + 1), repeat=L)]


def exact_compose(seed: int) -> list:
    rng = random.Random(derive(seed, "sweep-order"))
    shapes = sweep_shapes()
    ops = []
    for a in rng.sample(shapes, len(shapes)):
        rights = [b for b in shapes if len(a) <= len(b)]
        rng.shuffle(rights)
        ops.append(SweepOp(f"sweep{a}", a, tuple(rights)))
    ops += [
        CliOp("verify-folner-z2", "verify-folner",
              {"group": _z(2), "sequence": {"kind": "z_boxes"},
               "indices": [1, 2, 4, 8, 16]}, 0),
        CliOp("verify-folner-z3", "verify-folner",
              {"group": _z(3), "sequence": {"kind": "z_boxes"},
               "indices": [1, 2, 4, 8], "growth_upto": 8}, 0),
        CliOp("verify-folner-cyclic2", "verify-folner",
              {"group": {"kind": "cyclic_sum", "periods": [2]},
               "sequence": {"kind": "cyclic_prefix"},
               "indices": [1, 2, 4, 8], "growth_upto": 8}, 0),
        CliOp("verify-folner-zsum", "verify-folner",
              {"group": {"kind": "z_sum"}, "sequence": {"kind": "zsum_boxes"},
               "indices": [1, 2, 3, 4], "growth_upto": 5}, 4),
        CliOp("verify-tiling-z2", "verify-tiling",
              {"group": _z(2), "sequence": {"kind": "z_boxes"},
               "indices": [1, 2, 3, 4], "window_radius": 6}, 0),
        CliOp("verify-tiling-zsum", "verify-tiling",
              {"group": {"kind": "z_sum"}, "sequence": {"kind": "zsum_boxes"},
               "indices": [1, 2, 3], "window_radius": 2,
               "window_max_index": 3}, 0),
        CliOp("limit-setfn-tiling", "limit-setfn",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "setfn": "card_plus_one", "route": "tiling",
               "n_schedule": [4, 16, 64, 256, 1024], "max_card": 12}, 0),
        CliOp("limit-setfn-strong", "limit-setfn",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "setfn": "card", "route": "strong",
               "n_schedule": [4, 16, 64, 256]}, 0),
    ]
    return ops


# ---------------------------------------------------------------------------
# converge-plane: gates plus vectorised sampling through the thread pool


def converge_plane(seed: int) -> list:
    s = lambda tag: derive(seed, tag)  # noqa: E731
    plane_seq = {"kind": "z_boxes"}
    return [
        # the README example (criterion 06)
        CliOp("converge-readme", "converge",
              {"group": _z(2), "sequence": plane_seq,
               "system": _bernoulli(0.5, s("readme-system")),
               "family": {"kind": "additive", "observable": _indicator(1)},
               "n_schedule": [2, 4, 8, 16, 32, 64, 128, 256],
               "samples": 1000, "seed": s("readme")}, 0),
        # the criterion-08 mixture
        CliOp("decompose-mixture", "decompose",
              {"group": _z(2), "sequence": plane_seq,
               "system": {"kind": "mixture", "seed": s("mixture"),
                          "components": [
                              {"weight": 0.5,
                               "system": _bernoulli(0.25, s("mixture-a"))},
                              {"weight": 0.5,
                               "system": _bernoulli(0.75, s("mixture-b"))}]},
               "family": {"kind": "additive", "observable": _indicator(1)},
               "n": 64, "samples": 2000, "seed": s("decompose")}, 0,
              threads_check=True),
        CliOp("birkhoff-torus", "birkhoff",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "system": {"kind": "torus", "alphas": [GOLDEN],
                          "seed": s("torus")},
               "observable": {"kind": "torus_coordinate", "index": 0},
               "n_schedule": [4, 16, 64, 256, 1024],
               "samples": 300, "seed": s("birkhoff")}, 0),
        CliOp("limsup-line", "limsup",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "system": _bernoulli(0.3, s("limsup-system")),
               "family": {"kind": "additive", "observable": _indicator(1)},
               "mode": "bi_invariant",
               "n_schedule": [16, 64, 256, 1024, 4096],
               "samples": 200, "seed": s("limsup")}, 0),
        CliOp("converge-ladder", "converge",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "system": _bernoulli(0.6, s("ladder-system")),
               "family": {"kind": "additive",
                          "observable": {"kind": "neg_pow_run",
                                         "base": 2.0, "cap": 30}},
               "n_schedule": [4, 16, 64], "nu_floor": -5.0,
               "samples": 120, "seed": s("ladder")}, 0),
    ]


# ---------------------------------------------------------------------------
# maximal-cover: greedy covering on the scalar sampling path


def maximal_cover(seed: int) -> list:
    s = lambda tag: derive(seed, tag)  # noqa: E731
    add1 = {"kind": "additive", "observable": _indicator(1)}
    return [
        # criterion-05 two-symbol sum, one greedy instance
        CliOp("maximal-cyclic2", "maximal",
              {"group": {"kind": "cyclic_sum", "periods": [2]},
               "sequence": {"kind": "cyclic_prefix"},
               "system": _bernoulli(0.3, s("cyclic-system")), "family": add1,
               "alpha": 0.6, "N": 6, "samples": 10_000, "M": 1.0,
               "nu_term": 0.3, "greedy_instances": 1,
               "seed": s("cyclic")}, 0),
        CliOp("maximal-line", "maximal",
              {"group": _z(1), "sequence": {"kind": "z_boxes"},
               "system": _bernoulli(0.3, s("line-system")), "family": add1,
               "alpha": 0.6, "N": 6, "samples": 10_000, "M": 2.0,
               "nu_term": 0.3, "greedy_instances": 1,
               "seed": s("line")}, 0),
        CliOp("maximal-plane", "maximal",
              {"group": _z(2), "sequence": {"kind": "z_boxes"},
               "system": _bernoulli(0.3, s("plane-system")), "family": add1,
               "alpha": 0.6, "N": 3, "samples": 2_000,
               "greedy_instances": 1, "seed": s("plane")}, 0),
        CliOp("check-family-ceil-half", "check-family",
              {"group": _z(1), "system": _bernoulli(0.3, s("ceil-system")),
               "family": {"kind": "additive_plus",
                          "observable": {"kind": "symbol_value"},
                          "gamma": "ceil_half", "beta": 1.0},
               "trials": 300, "seed": s("ceil")}, 0),
        CliOp("check-family-max-cyclic2", "check-family",
              {"group": {"kind": "cyclic_sum", "periods": [2]},
               "system": _bernoulli(0.3, s("max-system")),
               "family": {"kind": "max", "observable": _indicator(1)},
               "trials": 300, "seed": s("max")}, 0),
    ]


WORKLOADS = {
    "exact-compose": exact_compose,
    "converge-plane": converge_plane,
    "maximal-cover": maximal_cover,
}


def ops_for(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
