"""Machine speed, from a fixed reference loop timed between measurements.

The shared 2-vCPU virtual machines this benchmark was written on change
CPU speed by up to half, for seconds to minutes at a time, and nothing in
the guest controls that. Raw timings of unchanged code then drift by more
than any bound worth setting. A short fixed loop (pure-Python arithmetic,
dict inserts and a small matrix-vector product, none of it library code)
timed next to each measured operation slows down with the machine.

Every bounded timing is therefore scaled by ``REF_LOOP_S`` over the
median time of the loops run around it. It reads as the time the
operation would take on a machine where one loop takes ``REF_LOOP_S``.
The raw timings are printed and recorded alongside.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

clock = time.perf_counter

# About the loop's time on the 2-vCPU machine the baseline was taken on,
# so scaled and raw timings read alike there.
REF_LOOP_S = 0.004
PHASE_LOOPS = 3           # loops run before and after a timed phase
WINDOW = 5                # loops each side of a query that scale it
WARMUP_LOOPS = 3

_MATRIX = np.random.default_rng(0).standard_normal((2000, 128))
_VECTOR = np.ones(128)


def reference_loop() -> float:
    """Seconds one run of the fixed loop takes right now."""
    start = clock()
    total = 0
    for i in range(30000):
        total += i * i
    table = {}
    for i in range(6000):
        table[str(i)] = i
    for _ in range(6):
        _MATRIX @ _VECTOR
    return clock() - start


class Speedometer:
    """Reference-loop times, taken between the operations being measured."""

    def __init__(self) -> None:
        # The first loops of a process run slow; they are not kept.
        for _ in range(WARMUP_LOOPS):
            reference_loop()
        self.loops: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            self.loops.append(reference_loop())

    def scale(self, first: int = 0, stop: int | None = None) -> float:
        """REF_LOOP_S over the median of ``loops[first:stop]``."""
        return REF_LOOP_S / statistics.median(self.loops[first:stop])

    def phase(self, fn: Callable, *args) -> tuple[object, float, float]:
        """Run fn between loops: its result, raw seconds and scaled seconds."""
        first = len(self.loops)
        self.probe(PHASE_LOOPS)
        start = clock()
        result = fn(*args)
        raw = clock() - start
        self.probe(PHASE_LOOPS)
        return result, raw, raw * self.scale(first)

    def query_scales(self, first: int, count: int) -> list[float]:
        """Scales for ``count`` queries, each run after loop ``first + i``.

        A query is scaled by the loops within WINDOW of it, so a change of
        machine speed within a run moves only the queries it overlaps.
        """
        return [self.scale(max(first, first + i - WINDOW),
                           first + i + WINDOW + 1) for i in range(count)]
