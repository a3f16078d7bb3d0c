"""folner-lab benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the repository root (any directory works; paths are resolved from
this file).  The program is imported from ``src/``.  Each batch of the
workload runs in a fresh Python process (``bench/batch.py``); batches repeat
in a closed loop until about ``--seconds`` have passed, at least twice.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` one untraced and one traced batch give the per-layer metrics.
A fuller record (machine, per-batch figures, failures) goes to
``bench/out/``.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 9

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "ops_ok_frac": "ratio"}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# set-up time: fresh interpreter until folnerlab.cli is imported


_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import folnerlab.cli; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")
_BARE = "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
# Set-up time is scaled by a bare interpreter start taken just before each
# probe, not by calibrate.py's kernel: on a shared 2-CPU machine the ratio
# probe / bare start varied about half as much as the raw probe time, while
# the kernel did not track start-up cost at all.
REF_START_S = 0.05  # a bare interpreter start at the reference speed
# Probes may write bytecode even where PYTHONDONTWRITEBYTECODE is set, so that
# set-up time is the import of a byte-compiled package, as when installed.
_PROBE_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _start_time(code: str) -> float:
    t0 = time.monotonic()
    with subprocess.Popen([sys.executable, "-c", code, str(ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, env=_PROBE_ENV) as proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - t0
        proc.wait(timeout=30)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("start-up probe failed")
    return elapsed


def measure_setup() -> tuple:
    """Raw times of SETUP_PROBES fresh starts, and each at the reference speed."""
    _start_time(_PROBE)  # warm-up: byte-compiles src/ once, as an installed package would be
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        bare = _start_time(_BARE)
        raw.append(_start_time(_PROBE))
        ref.append(raw[-1] * REF_START_S / bare)
    return raw, ref


# ---------------------------------------------------------------------------
# batches


def run_batch(workload: str, seed: int, tag: str, deadline: float,
              trace: bool = False, threads_check: bool = False):
    """Run one batch in a fresh process; its JSON record, or None on failure."""
    out = OUT / f"{workload}-seed{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd += ["--trace", str(OUT / f"{workload}-seed{seed}-spans.jsonl")]
    if threads_check:
        cmd.append("--threads-check")
    try:
        proc = subprocess.run(cmd, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"batch {tag} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"batch {tag} exited with {proc.returncode}", file=sys.stderr)
        return None
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def normalise(doc: dict, samples: list) -> None:
    """Add the batch's wall and CPU time at the reference speed (calibrate.py)."""
    factors = [calibrate.speed_factor(samples, r["start"], r["start"] + r["seconds"])
               for r in doc["ops"]]
    doc["wall_ref_s"] = math.fsum(r["seconds"] * f for r, f in zip(doc["ops"], factors))
    doc["cpu_ref_s"] = math.fsum(r["cpu_s"] * f for r, f in zip(doc["ops"], factors))


def check_batches(ops: list, batches: list, reference) -> list:
    """Failure messages, one per failed op instance (never raises)."""
    failures = []
    first: dict = {}
    for b, doc in enumerate(batches):
        if doc is None:
            failures += [f"batch {b}: {op.name}: batch process failed" for op in ops]
            continue
        results = {r["name"]: r for r in doc["ops"]}
        for op in ops:
            r = results.get(op.name)
            if r is None:
                failures.append(f"batch {b}: {op.name}: missing")
                continue
            expect = getattr(op, "expect", 0)
            if r["exit"] != expect:
                failures.append(f"batch {b}: {op.name}: exit {r['exit']} != {expect}"
                                + (f" ({r['error']})" if "error" in r else ""))
                continue
            if "identities_failed" in r:
                if r["identities_failed"]:
                    failures.append(f"batch {b}: {op.name}: "
                                    f"{r['identities_failed']} identities failed")
                continue
            digests = (r["csv"], r["summary"])
            if reference is not None and digests != tuple(reference.get(op.name, ())):
                failures.append(f"batch {b}: {op.name}: outputs differ from reference")
            elif first.setdefault(op.name, digests) != digests:
                failures.append(f"batch {b}: {op.name}: outputs differ from the "
                                f"first batch")
        for chk in doc.get("threads_checks", ()):
            r = results.get(chk["of"], {})
            keys = ("exit", "csv", "summary")
            same = [chk.get(k) for k in keys] == [r.get(k) for k in keys]
            if not same:
                failures.append(f"batch {b}: {chk['name']}: outputs differ from "
                                f"the threaded run")
    return failures


def attempted(ops: list, batches: list) -> int:
    return sum(len(ops) + (len(d.get("threads_checks", ())) if d else 0)
               for d in batches)


# ---------------------------------------------------------------------------
# machine and program details


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def machine_info(workload: str, seed: int, ops: list) -> dict:
    return {
        "workload": workload, "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "FOLNER_LAB_THREADS": os.environ.get("FOLNER_LAB_THREADS"),
        "samples": {op.name: op.config["samples"] for op in ops
                    if getattr(op, "config", {}).get("samples") is not None},
    }


# ---------------------------------------------------------------------------


def _load_reference(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    ops = workloads.ops_for(workload, seed)
    batches = []
    with calibrate.Sampler() as sampler:
        setup, setup_ref = measure_setup()
        if trace:
            plain = run_batch(workload, seed, "plain", deadline, threads_check=True)
            traced = run_batch(workload, seed, "traced", deadline, trace=True)
            batches = [plain, traced]
        else:
            # closed loop of batches: at least two, then while another one is
            # expected to end by about --seconds
            start = time.monotonic()
            durations = []
            while len(batches) < 2 or (time.monotonic() - start
                                       + 0.5 * statistics.median(durations) < seconds):
                t0 = time.monotonic()
                doc = run_batch(workload, seed, f"b{len(batches)}", deadline,
                                threads_check=not batches)
                durations.append(time.monotonic() - t0)
                batches.append(doc)
                if doc is None or time.monotonic() > deadline:
                    break
        samples = sampler.stop()
    failures = check_batches(ops, batches, _load_reference(workload, seed))
    total = attempted(ops, batches)
    good = [d for d in batches if d is not None]
    for doc in good:
        normalise(doc, samples)
    record = {"info": machine_info(workload, seed, ops),
              "thread_cap": sorted({d["thread_cap"] for d in good}),
              "batches": len(batches), "ops_total": total,
              "ops_failed": len(failures), "failures": failures,
              "setup_probes_s": setup, "setup_probes_ref_s": setup_ref,
              "calibration_samples": len(samples),
              "kernel_mean_s": math.fsum(k for _, k in samples) / len(samples)}
    if trace:
        # self times at the reference speed, like the end-to-end timings
        layers = {}
        if traced:
            factor = traced["wall_ref_s"] / traced["wall_s"]
            layers = {k: v * factor if k.endswith("_s") else v
                      for k, v in traced["layers"].items()}
        if plain and traced:
            untraced_s, traced_s = plain["wall_ref_s"], traced["wall_ref_s"]
            layers["trace.untraced_wall_s"] = untraced_s
            layers["trace.traced_wall_s"] = traced_s
            layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics = {k: {"value": v, "unit": _per_layer_unit(k)}
                   for k, v in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(d["wall_ref_s"] for d in good) if good else 0.0,
            "cpu_s": statistics.median(d["cpu_ref_s"] for d in good) if good else 0.0,
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": statistics.median([d["peak_rss_mb"] for d in good])
            if good else 0.0,
            "ops_ok_frac": 1.0 - len(failures) / total,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    record["metrics"] = metrics
    record["per_batch"] = [None if d is None else
                           {k: d[k] for k in ("wall_s", "cpu_s", "wall_ref_s",
                                              "cpu_ref_s", "peak_rss_mb")}
                           for d in batches]
    return record


def record_reference() -> int:
    """Write bench/reference.json: output digests of every CLI op at the
    default seed, after checking that two batches agree."""
    ref = {}
    deadline = time.monotonic() + 3600
    for workload in workloads.WORKLOADS:
        ops = workloads.ops_for(workload, workloads.DEFAULT_SEED)
        batches = [run_batch(workload, workloads.DEFAULT_SEED, f"ref{i}", deadline,
                             threads_check=(i == 0)) for i in range(2)]
        failures = check_batches(ops, batches, None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        ref[workload] = {r["name"]: [r["csv"], r["summary"]]
                         for r in batches[0]["ops"] if "csv" in r}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def print_all(seed: int, seconds: float) -> int:
    """Every metric of every workload, one 'workload metric value unit' line each."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            record = bench(workload, seed, seconds, trace)
            ok &= not record["failures"]
            for msg in record["failures"]:
                print(f"FAILED {workload}: {msg}", file=sys.stderr)
            for name, m in record["metrics"].items():
                print(f"{workload:15s} {name:34s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # lets subprocess.run kill and reap its child


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="folner-lab benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced; print a table")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "folnerlab" / "cli.py").is_file():
        print(f"no folnerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.workload is None and not args.all:
        ap.error("--workload or --all is required")

    if args.all:
        return print_all(args.seed, args.seconds)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for msg in record["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"info": record["info"], "thread_cap": record["thread_cap"],
                      "batches": record["batches"], "record": str(path.relative_to(ROOT))}))
    print(json.dumps({"correct": not record["failures"],
                      "attempted": record["ops_total"],
                      "failed": record["ops_failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
