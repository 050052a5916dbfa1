"""A fixed pure-Python reference loop that tracks the machine's current speed.

On a shared machine the CPU speed changes from second to second, and every
command slows by about the same factor at the same moment. Timing this loop
next to each command and scaling the command's wall time by
NOMINAL_S / (the loop's time) gives the command's wall time on a machine
that runs the loop in NOMINAL_S, which is what the end-to-end metrics
report. The loop allocates, indexes and sorts small objects the way the
program does; a loop of plain dict and integer work tracked the program's
slow-downs less closely.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.02  # the loop's time that the reported seconds are scaled to


class _Row:
    __slots__ = ("key", "pair", "fields")

    def __init__(self, key: str, pair: tuple[int, int], fields: dict[str, str]) -> None:
        self.key = key
        self.pair = pair
        self.fields = fields


def calibrate() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    rows = []
    index: dict[str, list[_Row]] = {}
    for i in range(8000):
        key = f"n{i % 997}.{i % 13}"
        row = _Row(key, (i, i * 3), {"k": key})
        rows.append(row)
        index.setdefault(key[:3], []).append(row)
    sum(len(r.key) + r.pair[1] for r in rows if r.fields["k"][0] == "n")
    rows.sort(key=lambda r: (r.pair[1] % 101, r.key))
    return time.perf_counter() - start
