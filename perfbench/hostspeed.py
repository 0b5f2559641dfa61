"""Host-speed reference for normalising host times.

On a shared machine the same Python work runs up to ~1.7x slower for
seconds at a time, whenever a neighbour loads the physical core (no
steal time is reported, and CPU time grows with wall time).  The
benchmark therefore times a fixed pure-Python reference loop (dict and
integer work, like the simulator's) right before and right after each
timed unit, and scales the unit's time by ``REF_NOMINAL_S / reference``.
The result reads as seconds on the host in its uncontended state; the
raw times are kept in the run record beside it.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 40_000

#: Seconds the reference takes on an uncontended core (measured on a
#: 2-vCPU x86_64 VM with Python 3.11: 5.4-5.7 ms fast state, 8-9 ms slow).
REF_NOMINAL_S = 0.0055


def _reference() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(REF_ITERATIONS):
        table[i % 1000] = i
        total += table.get((i * 7) % 1000, 0)
    return total


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


def normalised(seconds: float, refs: list[float]) -> float:
    """``seconds`` scaled to the uncontended host, from bracketing references."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)
