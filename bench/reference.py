"""A fixed piece of pure-Python work, timed next to every CLI run.

The host this benchmark was written on changes speed by up to a factor
of about 1.8 over minutes, and the change shows in CPU time as well as
wall time. The driver times this reference work right before and right
after each CLI run and reports the run's times as multiples of it
(unit `ref`): a slow stretch of the machine slows both, and the ratio
keeps what the program itself costs. The work is of the engines' kind
and 40 to 70 ms long: small frozensets, an index of them, subset tests
and formatted output lines, with a working set of a few hundred
kilobytes. It never changes with the package under test.
"""

from __future__ import annotations

import time
from itertools import combinations


def _work() -> int:
    """Build 1,540 small frozensets, index them by vertex, test subset
    relations through the index and format them as output lines."""
    edges = [frozenset(c) for c in combinations(range(22), 3)]
    by_vertex: dict[int, list[frozenset]] = {}
    for e in edges:
        for v in e:
            by_vertex.setdefault(v, []).append(e)
    contained = 0
    for e in edges[:600]:
        for v in e:
            for f in by_vertex[v]:
                if not e - f:
                    contained += 1
    lines = [" ".join(map(str, sorted(e))) for e in edges]
    return contained + len("\n".join(lines))


def timed() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the reference work."""
    wall, cpu = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - wall, time.process_time() - cpu
