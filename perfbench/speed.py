"""The machine's speed, tracked by timing a fixed block of the benchmark's
own code between the calls it measures.

On a shared virtual machine the same single-threaded Python code can run
1.6x to 1.9x slower for a few seconds or for minutes together, as the
host's other tenants come and go; the process's own CPU time slows just as
much as its wall-clock time, so no clock of the process sees it.  A block
of fixed work that runs right before and right after a call slows with it.
The benchmark divides each call's time by the block's time around it and
multiplies by the block's nominal time, which gives the call's time at the
nominal speed.

The block uses only ``gate.py``, never the package, so a change to the
package cannot move it.  It mixes the kinds of work the package does:
integer arithmetic and list updates (the reference generator), string
building and parsing (DIMACS text), set and list bookkeeping (the profile
check) and recursive search over tuples (the reference DPLL).
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import gate

# The block's fastest time on the machine the benchmark was tuned on (a
# 2-vCPU Intel Xeon virtual machine, Python 3.11).  It only sets the scale
# of the normalised times; it does not have to match the machine it runs on.
NOMINAL_S = 0.0125
TICK_INTERVAL_S = 0.2  # at most this much measured work between two blocks
# A single block is short and its time jitters by up to 2x from one block
# to the next, so a call is scaled by the median block over this much time
# on either side of it, which follows the slow spells but not the jitter.
WINDOW_S = 1.0
WARMUP_TICKS = 3

_VARS, _CLAUSES, _SEED = 500, 666, 20240607
_SEARCH = [
    (1, 2), (-1, 3), (-2, -3), (2, 4), (-4, 5), (3, -5, 6), (-6, 7), (1, -7, 8), (-8, 9),
    (4, -9, 10), (-10, 11), (5, -11, 12), (-12, -1, 13), (-13, 14), (2, -14), (6, 9, -11),
    (7, 10, 12), (-3, 8, 13), (-5, -9, 14), (11, -13, 1),
]


def block() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    clauses = gate.reference_instance(_VARS, _CLAUSES, _SEED)
    total = 0
    for _ in range(2):
        text = gate.dimacs_text(_VARS, clauses)
        num_vars, parsed = gate.read_dimacs(text)
        total += len(parsed) + len(gate.profile_problems(num_vars, parsed, "3sat4"))
    for _ in range(3):
        for flip in range(1, 15):
            model = gate.reference_model([tuple(-l if abs(l) == flip else l for l in c) for c in _SEARCH])
            total += model is not False
    return total


class SpeedClock:
    """Blocks timed between measured calls.  ``tick`` times one block;
    ``maybe_tick`` does so when more than ``TICK_INTERVAL_S`` went by since
    the last one; ``nominal`` turns a call's time into its time at the
    nominal speed from the blocks around it."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each block
        self.seconds: list[float] = []
        for _ in range(WARMUP_TICKS):
            block()

    def tick(self) -> None:
        # the workload's heap must not make the block slower: with the
        # collector on, the block's allocations trigger passes over it
        gc.disable()
        start = time.perf_counter()
        block()
        end = time.perf_counter()
        gc.enable()
        self.ends.append(end)
        self.seconds.append(end - start)

    def maybe_tick(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] > TICK_INTERVAL_S:
            self.tick()

    def around(self, start: float, end: float) -> float:
        """The median block time from ``WINDOW_S`` before ``start`` to
        ``WINDOW_S`` after ``end``, always counting the last block before
        the call and the first one after it."""
        first = min(bisect.bisect_left(self.ends, start - WINDOW_S), bisect.bisect_right(self.ends, start) - 1)
        last = max(bisect.bisect_right(self.ends, end + WINDOW_S), bisect.bisect_left(self.ends, end) + 1)
        return statistics.median(self.seconds[max(first, 0) : last])

    def nominal(self, seconds: float, start: float, end: float) -> float:
        return seconds * NOMINAL_S / self.around(start, end)

    def blocks(self) -> dict:
        return {
            "count": len(self.seconds),
            "min_s": min(self.seconds, default=0.0),
            "median_s": statistics.median(self.seconds) if self.seconds else 0.0,
            "max_s": max(self.seconds, default=0.0),
        }
