"""A fixed reference workload that measures how fast the host is right now.

The benchmark's host is a shared VM.  For minutes at a time, neighbouring
guests slow it down by up to 2x in CPU time, not only in wall time: they
share the physical cores and caches, which the guest kernel does not
report as stolen time.  The benchmark therefore scales each time it
measures by :data:`REFERENCE_S` over the CPU seconds of probe passes
taken right beside it, which gives seconds at the reference host's speed.

The probe is frozen code in the benchmark's own directory, so no change
to the simulator can speed it up.  It does the kinds of work the
simulator's hot path does in pure Python: a pointer chase through
megabytes of small objects with ``__slots__`` (its machines, lines and
processes), dict probes, generator resumes and a binary heap (its event
queue).
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Generator, List

#: CPU seconds of one :meth:`HostProbe.seconds` pass at the reference
#: host's speed.  On a 2-vCPU Xeon VM (2.0 GHz, CPython 3.11) a long-cs
#: repetition took 7.2-7.4 probe passes whether the host ran it in 0.8 s
#: or 1.1 s of CPU time, and 0.605 s when the host was idle; 0.605 / 7.3
#: makes the scaled times read as CPU seconds on the idle host.
REFERENCE_S = 0.083

#: objects in the probe's graph and entries in its dict: about 12 MB,
#: which spills out of the per-core L2 as the simulator's heap does
NODES = 100_000


class _Node:
    __slots__ = ("weight", "next")


class HostProbe:
    """Builds the probe's object graph once; :meth:`seconds` times a pass."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self.nodes: List[_Node] = [_Node() for _ in range(NODES)]
        order = list(range(NODES))
        rng.shuffle(order)
        self.table = {i: rng.randrange(1 << 16) for i in range(NODES)}
        for node in self.nodes:
            node.weight = rng.randrange(NODES)
            node.next = None
        for a, b in zip(order, order[1:]):
            self.nodes[a].next = self.nodes[b]
        self.head = self.nodes[order[0]]

    def _walk(self) -> Generator[int, None, None]:
        node = self.head
        while node is not None:
            yield self.table[node.weight]
            node = node.next

    def seconds(self) -> float:
        """CPU seconds for one fixed pass over the graph."""
        t0 = time.process_time()
        heap: List[int] = []
        total = 0
        for value in self._walk():
            heapq.heappush(heap, value)
            if len(heap) > 64:
                total += heapq.heappop(heap)
        elapsed = time.process_time() - t0
        assert total >= 0
        return elapsed
