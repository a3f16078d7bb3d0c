"""Run one batch of a workload in this (fresh) process.

    python3 bench/batch.py --workload NAME --seed N --out FILE
                           [--trace SPANS_FILE] [--threads-check]

Imports ``folnerlab`` from ``src/`` next to this directory, runs every op of the workload in a
closed loop (each op starts when the previous one ends), and writes one JSON
document to FILE: per-op exit codes, output digests and identity checks, the
batch's wall and CPU time (the sum over its ops; each op also records its
monotonic start time, for calibrate.py), the process's peak resident
memory and, when traced, the per-layer metrics.  CLI outputs go to
a scratch directory next to FILE that is removed before exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class Runner:
    """Executes ops against the (possibly traced) folnerlab modules."""

    def __init__(self, scratch: Path):
        from folnerlab import cli, groups, tiling

        self.cli, self.groups, self.tiling = cli, groups, tiling
        self.scratch = scratch
        self._boxes: dict = {}
        self._certs: dict = {}

    def run(self, op, tag: str = "") -> dict:
        if hasattr(op, "command"):
            return self._run_cli(op, tag)
        return self._run_sweep(op)

    def _run_cli(self, op, tag: str) -> dict:
        stem = self.scratch / f"{op.name}{tag}"
        cfg, csv, summary = (stem.with_suffix(s) for s in (".cfg.json", ".csv",
                                                           ".summary.json"))
        cfg.write_text(json.dumps(op.config, sort_keys=True))
        code = self.cli.main([op.command, "--config", str(cfg), "--csv", str(csv),
                              "--summary", str(summary)])
        return {"exit": code, "csv": _digest(csv), "summary": _digest(summary)}

    # Exact identities on the integer direct sum, as in acceptance criterion 2:
    # tile(a) . iso_a(box b) == box(a*b), box a . box b == box(a+b-1), and
    # box a u box b == box b when a <= b entrywise.
    def _box(self, shape: tuple):
        box = self._boxes.get(shape)
        if box is None:
            box = self._boxes[shape] = self.groups.zsum_box(self.groups.ZSum(), shape)
        return box

    def _cert(self, shape: tuple):
        cert = self._certs.get(shape)
        if cert is None:
            t, g = self.tiling, self.groups.ZSum()
            cert = self._certs[shape] = t.TilingCert(
                self._box(shape), t.ZSumLatticeCenters(g, shape),
                t.ZSumScaleIso(g, shape))
        return cert

    def _run_sweep(self, op) -> dict:
        G, T = self.groups, self.tiling
        g = G.ZSum()
        a = op.left
        bad = 0
        for b in op.rights:
            A = a + (1,) * (len(b) - len(a))
            scaled = tuple(x * y for x, y in zip(A, b))
            summed = tuple(x + y - 1 for x, y in zip(A, b))
            if T.compose(self._cert(a), self._box(b)) != G.zsum_box(g, scaled):
                bad += 1
            if G.product_set(self._box(a), self._box(b)) != G.zsum_box(g, summed):
                bad += 1
            if all(x <= y for x, y in zip(A, b)):
                if G.union(self._box(a), self._box(b)) != self._box(b):
                    bad += 1
        return {"exit": 0, "identities_failed": bad, "pairs": len(op.rights)}


def _run_op(runner: Runner, op, tag: str = "") -> dict:
    try:
        return runner.run(op, tag)
    except Exception as exc:  # a crashing op fails; the batch goes on
        traceback.print_exc()
        return {"exit": None, "error": repr(exc)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--threads-check", action="store_true")
    args = ap.parse_args(argv)

    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench.parent / "src"))
    sys.path.insert(0, str(bench))
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    out = Path(args.out)
    scratch = out.with_suffix(".d")
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        from folnerlab import ergodic

        runner = Runner(scratch)
        ops = workloads.ops_for(args.workload, args.seed)
        results = []
        for op in ops:
            c0, s0 = time.process_time(), time.monotonic()
            res = _run_op(runner, op)
            res.update(name=op.name, start=s0, seconds=time.monotonic() - s0,
                       cpu_s=time.process_time() - c0)
            results.append(res)
        if tracer is not None:
            tracer.uninstall()

        checks = []
        if args.threads_check:
            for op in ops:
                if getattr(op, "threads_check", False):
                    old = os.environ.get("FOLNER_LAB_THREADS")
                    os.environ["FOLNER_LAB_THREADS"] = "1"
                    try:
                        res = _run_op(runner, op, tag="-threads1")
                    finally:
                        if old is None:
                            del os.environ["FOLNER_LAB_THREADS"]
                        else:
                            os.environ["FOLNER_LAB_THREADS"] = old
                    res.update(name=f"{op.name}@threads=1", of=op.name)
                    checks.append(res)

        doc = {
            "workload": args.workload, "seed": args.seed,
            "wall_s": sum(r["seconds"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "thread_cap": ergodic.thread_cap(),
            "ops": results, "threads_checks": checks,
        }
        if tracer is not None:
            doc["layers"] = tracer.metrics()
            tracer.write_spans(Path(args.trace))
        out.write_text(json.dumps(doc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
