"""The microbenchmark objects of Section 5.3.

:class:`LockedCounter` is the concurrent counter of Figures 3 and 4a/4b:
one shared 64-bit word, fetch-and-increment in a critical section.

:class:`ArrayCS` is the variable-length critical section of Figure 4c:
"a CS in which the elements of an array are incremented in a loop (one
increment per iteration)"; the iteration count is the operation
argument, so one registered opcode covers the whole sweep.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.api import SyncPrimitive
from repro.machine.machine import ThreadCtx

__all__ = ["LockedCounter", "ArrayCS"]


class LockedCounter:
    """A linearizable counter on top of any synchronization approach.

    ``increment`` returns the pre-increment value, so concurrent
    increments return a permutation of ``0..N-1`` -- the property the
    test-suite uses as its linearizability probe.
    """

    def __init__(self, prim: SyncPrimitive):
        self.prim = prim
        machine = prim.machine
        self.addr = machine.mem.alloc(1, isolated=True)
        self._op_inc = prim.optable.register(self._inc_body, "counter_inc")
        self._op_read = prim.optable.register(self._read_body, "counter_read")

    def _inc_body(self, ctx: ThreadCtx, arg: int) -> Generator[Any, Any, int]:
        v = yield from ctx.load(self.addr)
        yield from ctx.store(self.addr, v + 1)
        return v

    def _read_body(self, ctx: ThreadCtx, arg: int) -> Generator[Any, Any, int]:
        v = yield from ctx.load(self.addr)
        return v

    def increment(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        """Atomically increment; returns the previous value."""
        return self.prim.apply_op(ctx, self._op_inc)

    def read(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        """Linearizable read of the current value."""
        return self.prim.apply_op(ctx, self._op_read)

    def value(self) -> int:
        """Zero-cost debug peek (outside simulated time)."""
        return self.prim.machine.mem.peek(self.addr)


class ArrayCS:
    """Figure 4c's critical section: increment ``k`` array elements.

    The array is sized to a handful of cache lines and stays resident in
    the servicing thread's cache, so the CS body cost is pure local work
    -- the "ideal" line of the figure is this body executed with no
    synchronization at all.
    """

    def __init__(self, prim: SyncPrimitive, array_words: int = 16):
        if array_words < 1:
            raise ValueError("array_words must be >= 1")
        self.prim = prim
        self.array_words = array_words
        machine = prim.machine
        self.base = machine.mem.alloc(array_words, isolated=True)
        self._op = prim.optable.register(self._body, "array_inc")

    def _body(self, ctx: ThreadCtx, iterations: int) -> Generator[Any, Any, int]:
        for i in range(iterations):
            a = self.base + (i % self.array_words)
            v = yield from ctx.load(a)
            yield from ctx.store(a, v + 1)
        return iterations

    def run(self, ctx: ThreadCtx, iterations: int) -> Generator[Any, Any, int]:
        """Execute one CS of ``iterations`` loop iterations."""
        return self.prim.apply_op(ctx, self._op, iterations)

    def total_increments(self) -> int:
        """Zero-cost debug sum of all array elements."""
        mem = self.prim.machine.mem
        return sum(mem.peek(self.base + i) for i in range(self.array_words))
