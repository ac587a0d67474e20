"""A fixed pure-Python reference kernel, timed in a forked child of the caller.

The host's speed drifts by up to a third over seconds to minutes.  A
worker pins itself to one CPU and calls ``reference_s`` before each CLI run
and after each batch.
The forked child inherits the pin, so the kernel runs on the same CPU at
the same moment as the runs around it, and the batch time over the kernel
time cancels most of the drift.

The kernel does not touch stokeslab, so a change to the program cannot
move it.  It fills a dict of 400,000 tuple keys, which exercises the
interpreter's dict, tuple and allocator paths and a working set of tens of
MiB, as the workloads do.  It runs in a child so that its memory never
counts towards the worker's peak RSS, with the garbage collector off so
that its time does not depend on the size of the worker's heap.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter

ITERATIONS = 400_000


def kernel() -> int:
    table = {}
    for i in range(ITERATIONS):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + len(key)
    return len(table)


def pin_to_current_cpu() -> int:
    """Restrict this process, and the children it forks, to the CPU it is on."""
    with open("/proc/self/stat") as f:
        cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_s() -> float:
    """Wall time of one kernel pass in a forked child."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            gc.disable()
            t0 = perf_counter()
            kernel()
            os.write(write_fd, repr(perf_counter() - t0).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"reference kernel child failed with status {status}")
    return float(data)
