"""The lab runs on one OS thread.  Importing ``folnerlab`` sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads, unless the caller set it: the
lab never calls BLAS, and an idle OpenBLAS worker only spins.  Each check
runs in a fresh interpreter and counts the entries of ``/proc/self/task``."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# OpenBLAS reads its thread count from the first of these that is set
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="no /proc/self/task to count threads in")


def _python(code: str, **env) -> list:
    """The stdout words of ``python -c code`` run on ``src/``, with no BLAS
    thread variable set unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env={**base, "PYTHONPATH": str(SRC), **env},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_a_cli_run_keeps_one_thread(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"kind": "z_power", "d": 2}, "sequence": {"kind": "z_boxes"},
        "system": {"kind": "bernoulli", "probs": [0.7, 0.3], "seed": 5},
        "family": {"kind": "additive",
                   "observable": {"kind": "indicator_symbol", "symbol": 1}},
        "n_schedule": [2, 4, 8], "samples": 200, "seed": 3}))
    words = _python(f"""
        import os
        import folnerlab.cli
        print(len(os.listdir("/proc/self/task")))
        code = folnerlab.cli.main(["converge", "--config", {str(cfg)!r},
                                   "--summary", {str(tmp_path / "out.json")!r}])
        print(code, len(os.listdir("/proc/self/task")))
    """)
    # exit 2: 200 points on boxes this small leave the limit undecided, after
    # the gates and the sampling have run
    assert words == ["1", "2", "1"]
    assert "converged_frac" in json.loads((tmp_path / "out.json").read_text())


def test_a_thread_count_the_caller_set_is_kept():
    words = _python("""
        import os
        import folnerlab
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """, OPENBLAS_NUM_THREADS="2")
    assert words == ["2"]


def _openblas_cpus() -> int:
    """The CPUs this process may run on, 0 when numpy's BLAS is no OpenBLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in blas.get("name", "") or not hasattr(os, "sched_getaffinity"):
        return 0
    return len(os.sched_getaffinity(0))


@pytest.mark.skipif(_openblas_cpus() < 2,
                    reason="OpenBLAS starts a worker only with two CPUs or more")
def test_numpy_loaded_first_keeps_its_worker():
    # the power check: numpy imported before folnerlab starts OpenBLAS's pool,
    # so the one-thread counts above can fail
    words = _python("""
        import os
        import numpy
        import folnerlab.cli
        print(len(os.listdir("/proc/self/task")))
    """)
    assert int(words[0]) > 1
