"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its CPUs with other tenants, and their load changes how
fast the same Python code runs by up to a factor of two, from one millisecond
to the next and from one minute to the next.  The workload process therefore
times a fixed block of interpreter work (dict stores, float math, tuple
allocation -- the mix fracgrow's layers spend their time on) twice just
before each operation and once per ``BLOCK_EVERY_NS`` of operation time just
after it, and each operation's time is reported at the reference speed at
which one block takes ``REF_NS``:

    reported = measured * REF_NS / median(blocks timed around that operation)

The blocks are benchmark code that no change to fracgrow can speed up or slow
down, so the scaling cancels the machine's speed and keeps the program's.
"""

from __future__ import annotations

import math
import statistics
import time

REF_NS = 1_000_000
BLOCK_EVERY_NS = 20_000_000
_N = 2500


def block():
    table = {}
    x = 0.0
    for i in range(_N):
        x += math.exp(-(i & 63) * 0.01)
        table[i & 255] = (x, i)
    return len(table), x


def sample_ns():
    t0 = time.perf_counter_ns()
    block()
    return time.perf_counter_ns() - t0


def samples(count):
    return [sample_ns() for _ in range(count)]


def samples_after(op_ns):
    """Block times to take after an operation that ran ``op_ns``."""
    return samples(max(1, round(op_ns / BLOCK_EVERY_NS)))


def scale(samples_ns):
    """Factor that converts a time measured next to these blocks to reference speed."""
    return REF_NS / statistics.median(samples_ns)
