"""Michael & Scott's blocking queue [21], one-lock and two-lock variants.

The MS two-lock queue keeps a dummy-headed linked list with separate
head and tail locks so enqueues and dequeues proceed in parallel.  On
the TILE-Gx the paper finds that "the necessity of inserting fences far
outweighs the benefit from fine-grained access" (Section 5.4), so the
*one-lock* variant -- the same list under a single critical section --
wins, and that is what Figure 5a's best curves are built on.

Node layout: word 0 = value, word 1 = next pointer.

* :class:`OneLockMSQueue` -- enqueue and dequeue are each one CS of a
  single :class:`~repro.core.api.SyncPrimitive`; no fences needed inside
  the CS bodies because a single servicing thread totally orders them.
* :class:`TwoLockMSQueue` -- two primitives (two dedicated servers when
  used with MP-SERVER, as in the paper's "mp-server-2").  Because the
  two CSes run on *different* cores concurrently, the enqueue body must
  fence between initializing a node and publishing it, and the dequeue
  body between reading the link and releasing the node -- the fence cost
  the paper blames for the two-lock variant's defeat.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.api import SyncPrimitive
from repro.machine.machine import ThreadCtx
from repro.objects.base import EMPTY
from repro.objects.pool import NodePool

__all__ = ["OneLockMSQueue", "TwoLockMSQueue"]

_VALUE = 0
_NEXT = 1


class _MSQueueBase:
    """Shared list representation: dummy-headed singly-linked list."""

    def __init__(self, machine):
        self.machine = machine
        self.pool = NodePool(machine, node_words=2)
        mem = machine.mem
        dummy = mem.alloc(2, isolated=True)
        self.head_addr = mem.alloc(1, isolated=True)
        self.tail_addr = mem.alloc(1, isolated=True)
        mem.poke(self.head_addr, dummy)
        mem.poke(self.tail_addr, dummy)

    # -- debug helpers (zero simulated cost) --------------------------------
    def drain_to_list(self) -> list:
        """Read out the queue contents outside simulated time."""
        mem = self.machine.mem
        out = []
        node = mem.peek(mem.peek(self.head_addr) + _NEXT)
        while node != 0:
            out.append(mem.peek(node + _VALUE))
            node = mem.peek(node + _NEXT)
        return out


class OneLockMSQueue(_MSQueueBase):
    """The MS list under a single coarse critical section."""

    def __init__(self, prim: SyncPrimitive):
        super().__init__(prim.machine)
        self.prim = prim
        self._op_enq = prim.optable.register(self._enq_body, "q_enqueue")
        self._op_deq = prim.optable.register(self._deq_body, "q_dequeue")

    def _enq_body(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        node = yield from self.pool.alloc(ctx)
        yield from ctx.store(node + _VALUE, value)
        yield from ctx.store(node + _NEXT, 0)
        tail = yield from ctx.load(self.tail_addr)
        yield from ctx.store(tail + _NEXT, node)
        yield from ctx.store(self.tail_addr, node)
        return 0

    def _deq_body(self, ctx: ThreadCtx, arg: int) -> Generator[Any, Any, int]:
        head = yield from ctx.load(self.head_addr)
        nxt = yield from ctx.load(head + _NEXT)
        if nxt == 0:
            return EMPTY
        value = yield from ctx.load(nxt + _VALUE)
        yield from ctx.store(self.head_addr, nxt)
        yield from self.pool.free(ctx, head)  # old dummy retires
        return value

    def enqueue(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        return self.prim.apply_op(ctx, self._op_enq, value)

    def dequeue(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        """Returns the oldest value, or EMPTY."""
        return self.prim.apply_op(ctx, self._op_deq)


class TwoLockMSQueue(_MSQueueBase):
    """The classic two-lock MS queue: separate head and tail CSes.

    ``enq_prim`` guards the tail, ``deq_prim`` the head.  With server
    approaches this consumes two dedicated cores per queue instance
    (the paper's "mp-server-2").
    """

    def __init__(self, enq_prim: SyncPrimitive, deq_prim: SyncPrimitive):
        if enq_prim.machine is not deq_prim.machine:
            raise ValueError("both primitives must live on the same machine")
        super().__init__(enq_prim.machine)
        self.enq_prim = enq_prim
        self.deq_prim = deq_prim
        self._op_enq = enq_prim.optable.register(self._enq_body, "q2_enqueue")
        self._op_deq = deq_prim.optable.register(self._deq_body, "q2_dequeue")

    def _enq_body(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        node = yield from self.pool.alloc(ctx)
        yield from ctx.store(node + _VALUE, value)
        yield from ctx.store(node + _NEXT, 0)
        # publish only after the node is fully initialized: a concurrent
        # dequeuer (running under the *other* lock) may follow the link
        # immediately (Section 5.4's fence cost)
        yield from ctx.fence()
        tail = yield from ctx.load(self.tail_addr)
        yield from ctx.store(tail + _NEXT, node)
        yield from ctx.fence()
        yield from ctx.store(self.tail_addr, node)
        return 0

    def _deq_body(self, ctx: ThreadCtx, arg: int) -> Generator[Any, Any, int]:
        head = yield from ctx.load(self.head_addr)
        nxt = yield from ctx.load(head + _NEXT)
        if nxt == 0:
            return EMPTY
        value = yield from ctx.load(nxt + _VALUE)
        # order the value read before unlinking: the node becomes the new
        # dummy and its value word may be recycled by a parallel enqueue
        yield from ctx.fence()
        yield from ctx.store(self.head_addr, nxt)
        yield from self.pool.free(ctx, head)
        return value

    def enqueue(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        return self.enq_prim.apply_op(ctx, self._op_enq, value)

    def dequeue(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        return self.deq_prim.apply_op(ctx, self._op_deq)
