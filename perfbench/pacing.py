"""Time-boxing of a closed loop in whole workload cycles."""

from __future__ import annotations

from collections.abc import Iterator
from time import perf_counter


def cycles_within(seconds: float) -> Iterator[int]:
    """Yield cycle numbers 0, 1, ... while the loop body runs one cycle per number.

    Stops when one more cycle, at the mean cycle time so far, would end further
    from ``seconds`` after the first cycle began than the loop is now. Every run
    thus holds whole cycles, so the op mix is the same in each, and lasts about
    ``seconds`` however fast the machine is. At least one cycle runs.
    """
    t0 = perf_counter()
    cycle = 0
    while True:
        yield cycle
        cycle += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / cycle / 2 >= seconds:
            return
