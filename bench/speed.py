"""Machine speed, measured with a fixed reference kernel.

The benchmark's reference machine is a shared VM whose CPU speed
drifts: the same code runs up to 10% faster or slower from one minute to
the next, which is as wide as the bounds in ``BENCHMARK.json``.  So every
wall time the benchmark reports is taken next to timings of
:func:`reference_kernel`, in the same process, and scaled to what it
would read at the reference machine's speed.  The kernel is the
benchmark's own code, so no change to the program under test moves it;
a drift of the machine moves both and cancels out.

The kernel does the kinds of work the simulated data path does: heap
pushes and pops of tuples, a generator resumed per item, ``struct``
packing, slicing, SHA-256 and dict stores.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import struct
import time
from statistics import median
from typing import Iterable

#: wall seconds of one :func:`time_reference` on the reference machine
#: (2-vCPU VM, Python 3.11.7; see ``BASELINE.md``)
REFERENCE_S = 5.5e-3
_RECORD = struct.Struct(">qd")


def reference_kernel(steps: int = 3000) -> int:
    """A fixed amount of interpreter work; returns a checksum."""

    def consumer(box):
        while True:
            box.append((yield))

    box: list = []
    sink = consumer(box)
    next(sink)
    heap: list = []
    table = {}
    block = bytes(range(64))
    pack = _RECORD.pack
    sha256 = hashlib.sha256
    checksum = 0
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 1009, step, block))
        if len(heap) > 32:
            due, seq, body = heapq.heappop(heap)
            record = pack(seq, due) + body[16:]
            checksum ^= sha256(record).digest()[0]
            table[seq & 511] = memoryview(record)[4:]
            sink.send(record)
            if len(box) > 64:
                box.clear()
    return checksum


def time_reference() -> float:
    """Wall seconds of one kernel run.

    The cyclic collector is held off meanwhile, so the size of the
    program's heap cannot change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: Iterable[float]) -> float:
    """How many times slower than the reference machine kernel timings
    say this one ran (1.0: the same speed).  Divide a wall time by it."""
    return median(samples) / REFERENCE_S
