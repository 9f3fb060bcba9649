"""Coarse-lock stack: "a sequential linked-list based stack, turned
concurrent using MP-SERVER, HYBCOMB, CC-SYNCH and SHM-SERVER" (§5.4).

Node layout: word 0 = value, word 1 = next.  Push and pop are each one
critical section; since a single servicing thread totally orders them,
no fences are needed in the bodies and the stack data stays resident in
the servicing core's cache -- which is why Figure 5b's numbers "nearly
match those given in Figure 5a for the single-lock MS queue".
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.api import SyncPrimitive
from repro.machine.machine import ThreadCtx
from repro.objects.base import EMPTY
from repro.objects.pool import NodePool

__all__ = ["LockedStack"]

_VALUE = 0
_NEXT = 1


class LockedStack:
    """A sequential linked stack under one critical section."""

    def __init__(self, prim: SyncPrimitive):
        self.prim = prim
        machine = prim.machine
        self.pool = NodePool(machine, node_words=2)
        self.top_addr = machine.mem.alloc(1, isolated=True)
        self._op_push = prim.optable.register(self._push_body, "s_push")
        self._op_pop = prim.optable.register(self._pop_body, "s_pop")

    def _push_body(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        node = yield from self.pool.alloc(ctx)
        yield from ctx.store(node + _VALUE, value)
        top = yield from ctx.load(self.top_addr)
        yield from ctx.store(node + _NEXT, top)
        yield from ctx.store(self.top_addr, node)
        return 0

    def _pop_body(self, ctx: ThreadCtx, arg: int) -> Generator[Any, Any, int]:
        top = yield from ctx.load(self.top_addr)
        if top == 0:
            return EMPTY
        value = yield from ctx.load(top + _VALUE)
        nxt = yield from ctx.load(top + _NEXT)
        yield from ctx.store(self.top_addr, nxt)
        yield from self.pool.free(ctx, top)
        return value

    def push(self, ctx: ThreadCtx, value: int) -> Generator[Any, Any, int]:
        return self.prim.apply_op(ctx, self._op_push, value)

    def pop(self, ctx: ThreadCtx) -> Generator[Any, Any, int]:
        """Returns the newest value, or EMPTY."""
        return self.prim.apply_op(ctx, self._op_pop)

    def drain_to_list(self) -> list:
        """Top-to-bottom contents, read outside simulated time."""
        mem = self.prim.machine.mem
        out = []
        node = mem.peek(self.top_addr)
        while node != 0:
            out.append(mem.peek(node + _VALUE))
            node = mem.peek(node + _NEXT)
        return out
