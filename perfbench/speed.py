"""Machine-speed reference for the benchmark's times.

The 2-vCPU KVM guest this benchmark was written on changes speed by up to
1.6x, both from one 100 ms slice to the next and in regimes that last a
minute or more (NOTES.md, "Machine speed").  A raw time cannot tell that
from a regression.  So every timed sample (a pass, a cold start) is paired
with a reference time (``reference``) of a fixed kernel run right next to
it, in the same process where possible, and scaled to reference seconds:

    raw seconds x REF_NOMINAL_S / reference time

A run reports the median of the scaled samples.

REF_NOMINAL_S is the reference time typical of that machine, so reference
seconds read close to its raw seconds.  The kernel is independent of ldpmean,
so a change to the package moves the raw time and leaves the reference alone.
Raw values stay in the report line.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.017


def kernel_s() -> list[float]:
    """One run of a fixed kernel, as the times of its two parts.

    The first part is an interpreter loop plus large numpy draws.  The second
    is many small numpy calls, each on a freshly seeded generator, as in a
    loop of small-n replicates; pool passes of such replicates follow it
    more closely than the first part (NOTES.md, "Machine speed").
    """
    rng = np.random.default_rng(20240207)
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(8):
        acc += int(np.count_nonzero(rng.standard_normal(100_000) >= 0.0))
    middle = time.perf_counter()
    for i in range(150):
        x = np.random.default_rng(np.random.SeedSequence(i)).standard_normal(2000)
        acc += float(np.mean(np.where(x >= 0.0, 1.0, -1.0)))
    return [middle - start, time.perf_counter() - middle]


def reference(runs: list[list[float]]) -> float:
    """Reference time of kernel runs: the geometric mean of the parts' medians."""
    return math.sqrt(statistics.median(r[0] for r in runs)
                     * statistics.median(r[1] for r in runs))


def samples(runs: int = 2) -> list[list[float]]:
    """Kernel runs: ``runs`` on each CPU in turn, then ``runs`` on all CPUs at once.

    The vCPUs slow down independently of each other, and a pool pass runs on
    all of them, so the reference samples every one.  The concurrent runs
    catch the slowdown that only shows while every vCPU is busy; with them
    the scaled pass times spread 15-20% less than with the serial runs alone
    (NOTES.md, "Machine speed").
    """
    cpus = sorted(os.sched_getaffinity(0))
    out = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            out += [kernel_s() for _ in range(runs)]
        out += _concurrent(cpus, runs)
    finally:
        os.sched_setaffinity(0, set(cpus))
    return out


def _concurrent(cpus: list[int], runs: int) -> list[list[float]]:
    """``runs`` kernel runs on every CPU at once: this process on the
    first CPU, one forked child pinned to each other CPU."""
    children = []
    for cpu in cpus[1:]:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child times the kernel, sends the times, exits
            code = 1
            try:
                os.close(read_end)
                os.sched_setaffinity(0, {cpu})
                os.write(write_end, json.dumps([kernel_s() for _ in range(runs)]).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        children.append((pid, read_end))
    out, replies = [], []
    try:
        os.sched_setaffinity(0, {cpus[0]})
        out += [kernel_s() for _ in range(runs)]
    finally:
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as fh:
                replies.append(fh.read())
            os.waitpid(pid, 0)
    for reply in replies:
        out += json.loads(reply)
    return out
