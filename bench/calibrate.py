"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same batch can take 25-40 % longer from one minute
to the next, and the speed also moves within one long op.  So while a run
lasts, a separate process (this file, run as a script) times a fixed
interpreter-bound kernel every ``INTERVAL_S`` and reports
(monotonic time, kernel seconds) samples.  An op's time at the reference
speed is its measured time × REF_KERNEL_S / (mean kernel time of the
samples taken while it ran, widened by ``MARGIN_S`` on each side); see
``speed_factor``.  A mean, not a median, because an op's time integrates
the machine's speed over its whole interval.

The kernel is timed by the CPU time of its own thread, not by wall time.
Its wall time doubles while the program's threads hold both CPUs, because
it waits for one, and that would let the program set its own factor.  Its
CPU time does not move with the program's load (2-CPU machine: idle
1.59-1.63 ms, two threads of numpy matrix products 1.54-1.62 ms), yet it
rises when other tenants slow the machine.  The kernel never changes with
the program, so a faster program still shows as a smaller normalised time.
The sampler costs about 1.5 % of one CPU.
"""
from __future__ import annotations

import json
import math
import select
import subprocess
import sys
import time

REF_KERNEL_S = 0.0012
INTERVAL_S = 0.1
MARGIN_S = 0.5


def kernel() -> float:
    t0 = time.thread_time()
    acc: dict = {}
    for i in range(2_500):
        key = ((i * 7919) % 10007, i & 7)
        acc[key] = acc.get(key, 0) + 1
    sorted(acc)
    return time.thread_time() - t0


class Sampler:
    """Runs the sampling process from ``__enter__`` until ``stop``."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def stop(self) -> list:
        """The samples, as (monotonic time, kernel seconds) pairs."""
        out, _ = self._proc.communicate(timeout=30)
        if self._proc.returncode != 0:
            raise RuntimeError("calibration sampler failed")
        return json.loads(out)

    def __exit__(self, *exc):
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()


def speed_factor(samples: list, start: float, end: float) -> float:
    window = [k for t, k in samples if start - MARGIN_S <= t <= end + MARGIN_S]
    if not window:
        raise ValueError(f"no calibration samples in [{start}, {end}]")
    return REF_KERNEL_S * len(window) / math.fsum(window)


def _sample_until_eof() -> None:
    """Sample until stdin is closed, then print the samples as JSON."""
    samples = []
    while True:
        samples.append((time.monotonic(), kernel()))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    _sample_until_eof()
