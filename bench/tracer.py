"""Outside-in tracing of folnerlab: wrap each layer's public entry points.

Every module of ``folnerlab`` is a layer.  ``Tracer.install`` wraps the
public module-level functions defined in each layer, plus a few public
methods that carry the hot work, and rebinds every alias of a wrapped
function across ``folnerlab.*`` (the ``from .x import y`` names), so calls
between layers go through the wrappers.  Nothing under ``src/`` changes.

A span is (id, name, start, end, parent id, thread id, work, work2), kept in
memory and written out by ``write_spans``.  Spans opened on ``pmap_blocks``
worker threads take the running ``pmap_blocks`` span as their parent.
``BernoulliShift.uniform_at`` runs ~10^6 times per batch, so it is counted,
not timed.  A layer's self time is the sum over its spans of the span's
duration minus the union of its child spans.
"""
from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("groups", "folner", "tiling", "systems", "families", "ergodic", "cli")


def _product_work(args, kw, result):
    K, F = args[0], args[1]
    return len(K) * len(F), (len(result) if not isinstance(result, int) else result)


def _cells(args, kw, result):
    return len(result), 0


def _window_work(args, kw, result):
    # Observable.window_values(self, leaf, batch, F) and
    # BernoulliShift.window_uniforms(self, batch, F): cells = points x |F|
    from folnerlab.systems import GenericBatch

    batch, F = args[-2], args[-1]
    cells = len(batch) * len(F)
    return cells, (cells if isinstance(batch, GenericBatch) else 0)


# (layer, class name, method name, work function)
_METHODS = (
    ("folner", "FolnerSeq", "generate", _cells),
    ("systems", "BernoulliShift", "window_uniforms", _window_work),
    ("systems", "Observable", "window_values", _window_work),
    ("families", "Family", "sample_values", None),
)

_WORK = {
    "groups.product_set": _product_work,
    "groups.product_count": _product_work,
    "groups.zsum_box": _cells,
}

# entry points reported with their own self time
_SELF_TIMED = (
    "groups.product_set", "groups.product_count", "groups.zsum_box",
    "folner.generate", "tiling.compose", "tiling.condition_b_witness",
    "tiling.standard_cert", "tiling.enumerate_tiles", "systems.window_uniforms",
    "families.classify", "families.sample_values", "ergodic.greedy_cover",
    "ergodic.trajectory_matrix", "ergodic.sample_points",
)

# metric -> (span name, per-name total)
_COUNTED = {
    "groups.product_set.calls": ("groups.product_set", "calls"),
    "groups.product_set.pairs": ("groups.product_set", "work"),
    "groups.product_set.out_cells": ("groups.product_set", "work2"),
    "groups.product_count.pairs": ("groups.product_count", "work"),
    "groups.zsum_box.cells": ("groups.zsum_box", "work"),
    "folner.generate.cells": ("folner.generate", "work"),
    "families.classify.calls": ("families.classify", "calls"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = -1
        self._counts: list = []  # one [n] cell per thread for counted calls
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _timed(self, name: str, fn, work=None, pool: bool = False):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kw):
            stack = stack_of()
            parent = stack[-1] if stack else self._pool_parent
            sid = next(ids)
            stack.append(sid)
            if pool:
                saved, self._pool_parent = self._pool_parent, sid
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                if pool:
                    self._pool_parent = saved
            w = work(args, kw, result) if work is not None else (0, 0)
            spans.append((sid, name, t0, t1, parent, ident(), w[0], w[1]))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, fn):
        local, cells = self._local, self._counts

        def wrapper(*args, **kw):
            c = getattr(local, "count", None)
            if c is None:
                c = local.count = [0]
                cells.append(c)
            c[0] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import folnerlab.cli  # noqa: F401  (imports every layer)

        modules = {name: sys.modules[f"folnerlab.{name}"] for name in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self._timed(name, obj, _WORK.get(name),
                                                pool=(name == "ergodic.pmap_blocks"))
        for layer, cls_name, meth, work in _METHODS:
            cls = getattr(modules[layer], cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, self._timed(f"{layer}.{meth}", orig, work))
        shift = modules["systems"].BernoulliShift
        self._set(shift, "uniform_at", self._counted(shift.__dict__["uniform_at"]))
        # rebind the function in its own module and every alias elsewhere
        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "folnerlab" or n.startswith("folnerlab."))]
        for mod in pkg:
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._set(mod, attr, w)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> self time (duration minus the union of its children)."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, *_ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self) -> dict:
        """Per-layer and per-entry-point figures, as named in bench/README.md."""
        self_t = self.self_times()
        by_name = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0,
                                       "work2": 0, "wall_s": 0.0})
        layer_self = defaultdict(float)
        busy = 0.0  # summed duration of spans run on pmap_blocks workers
        pool_ids = {s[0] for s in self.spans if s[1] == "ergodic.pmap_blocks"}
        for sid, name, t0, t1, parent, _, w, w2 in self.spans:
            e = by_name[name]
            e["self_s"] += self_t[sid]
            e["calls"] += 1
            e["work"] += w
            e["work2"] += w2
            e["wall_s"] += t1 - t0
            layer_self[name.split(".", 1)[0]] += self_t[sid]
            if parent in pool_ids:
                busy += t1 - t0
        n = lambda name, key: by_name[name][key] if name in by_name else 0  # noqa: E731
        window_cells = n("systems.window_values", "work")
        generic_cells = n("systems.window_values", "work2")
        m = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
        m.update({f"{name}.self_s": n(name, "self_s") for name in _SELF_TIMED})
        m.update({metric: n(name, key) for metric, (name, key) in _COUNTED.items()})
        m.update({
            "folner.growth.self_s": (n("folner.tempelman_report", "self_s")
                                     + n("folner.tempered_report", "self_s")),
            "systems.window_cells": window_cells,
            "systems.generic_cells": generic_cells,
            "systems.scalar_calls": sum(c[0] for c in self._counts),
            "systems.vector_cell_frac": ((window_cells - generic_cells) / window_cells
                                         if window_cells else 0.0),
            "ergodic.pmap_blocks.wall_s": n("ergodic.pmap_blocks", "wall_s"),
            "ergodic.pmap_blocks.busy_s": busy,
            "trace.spans": len(self.spans),
        })
        return m

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent, thread, work, work2."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
