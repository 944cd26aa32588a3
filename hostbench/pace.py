"""A fixed pure-Python reference loop that paces the host.

On a shared host the core this process runs on slows by up to 2x for
stretches from a fraction of a second to many minutes.  The runner
times :func:`pace` right before every span of the timed window and
expresses the span's host time in units of it, so a span measured while
the host was slow counts about as much as one measured while it was
fast (see ``README.md``, "Pacing").

The loop is a small discrete-event core of its own: a heap of pending
events, generator processes that yield delays, a dict they update and
byte slices.  That is the kind of work the simulator does, so both slow
down alike when the host does.  It touches none of the program's code,
so no change to the program can speed it up or slow it down, and it
runs with the garbage collector off, so the program's heap does not
weigh on it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, Generator

#: Events one call of :func:`pace` dispatches.
EVENTS = 400
#: Host seconds :func:`pace` takes on an unshared core of the 2-core VM
#: the benchmark was defined on.  Paced host times are scaled by it, so
#: the paced throughput reads in requests per host-second on that core.
NOMINAL_S = 0.00035

_BUF = bytes(range(256)) * 2


def _worker(seed: int, table: Dict[int, int]) -> Generator[int, None, None]:
    x = seed + 1
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 511
        table[key] = table.get(key, 0) + len(_BUF[x & 255:(x & 255) + 48])
        yield (x & 0xFFF) + 1


def pace() -> float:
    """Run the reference loop once; return the host seconds it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        workers = [_worker(i, table) for i in range(16)]
        queue = [(0, i) for i in range(16)]
        for _ in range(EVENTS):
            when, i = heapq.heappop(queue)
            heapq.heappush(queue, (when + next(workers[i]), i))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
