"""Machine-speed calibration for the benchmark's time metrics.

Shared virtual machines change speed by up to half for tens of seconds
at a time as their neighbours come and go, which moves every wall-clock
figure alike.  :func:`speed_index` times a fixed pure-Python loop and
divides its reference time by the time it took now; each timed figure
is multiplied by the index measured next to it, which restates it at
the reference speed of the machine.  The raw figures and the index are
printed beside the scaled ones.

The batch workloads run one busy process, so the median wall time of
a few loops right before each call measures the machine as that call
sees it.  The service workload's own processes compete for the cores,
so its probe (``python3 perfbench/speed.py PERIOD_S``) keeps the
fastest of a few loops — the machine's speed while the probe runs —
and scales it by the share of runnable CPU time the host did not steal
(:func:`cpu_ticks`).  The probe prints ``<perf_counter> <loop seconds>
<busy ticks> <steal ticks>`` every *PERIOD_S* until it is killed.
"""

from __future__ import annotations

import statistics
import sys
import time

#: Seconds the calibration loop takes at the reference speed (about
#: the fast state of a 2-vCPU Xeon virtual machine with CPython 3.11).
REFERENCE_S = 0.0035
_ITERATIONS = 50_000


def _loop() -> int:
    total = 0
    for i in range(_ITERATIONS):
        total += i * i % 7
    return total


def _loop_times() -> list:
    samples = []
    for _ in range(3):
        began = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - began)
    return samples


def speed_index() -> float:
    """Reference time ÷ median current time of the loop (above 1:
    faster than the reference)."""
    return REFERENCE_S / statistics.median(_loop_times())


def cpu_ticks() -> tuple:
    """``(busy, steal)`` jiffies of all CPUs since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple, after: tuple) -> float:
    """Share of the runnable CPU time between two :func:`cpu_ticks`
    readings that the host did not steal."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    return busy / (busy + steal) if busy + steal > 0 else 1.0


def probe(period_s: float) -> None:
    while True:
        time.sleep(period_s)
        loop = min(_loop_times())
        busy, steal = cpu_ticks()
        print(f"{time.perf_counter()} {loop} {busy} {steal}", flush=True)


if __name__ == "__main__":
    probe(float(sys.argv[1]))
