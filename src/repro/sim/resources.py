"""Coordination primitives built on the two-effect engine.

Everything here is a thin composition of :class:`~repro.sim.engine.Event`
waits, so the engine stays agnostic.  These primitives model *hardware*
arbitration points in the machine model:

* :class:`Resource` -- a FIFO server with limited capacity; used for
  memory-controller atomics, per-cache-line directory transactions and
  (in contended-NoC mode) mesh links.
* :class:`Condition` -- a re-armable broadcast wakeup; used for cache-line
  invalidation notifications that wake spinning cores.
* :class:`Channel` -- an unbounded FIFO of items with blocking ``get``;
  a convenience for tests and simple producer/consumer processes (the
  real hardware message queues live in :mod:`repro.udn` and add capacity
  and word-level accounting).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from repro.sim.engine import Event, Interrupt, Simulator, WaitTimer

__all__ = ["Resource", "Condition", "Semaphore", "Barrier", "Channel"]


class Resource:
    """A FIFO-ordered server with ``capacity`` concurrent slots.

    Usage from a process::

        yield from res.acquire()
        try:
            yield service_time
        finally:
            res.release()

    Or the common acquire-hold-release pattern in one call::

        yield from res.use(service_time)

    Fairness is strict FIFO: waiters are granted slots in arrival order,
    which models a hardware arbitration queue.
    """

    __slots__ = ("sim", "capacity", "in_use", "_waiters", "total_acquisitions", "total_wait_cycles")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        #: total number of successful acquisitions (for utilization stats)
        self.total_acquisitions = 0
        #: total cycles processes spent queued for this resource
        self.total_wait_cycles = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator[Any, Any, None]:
        self.total_acquisitions += 1
        if self.in_use < self.capacity and not self._waiters:
            self.in_use += 1
            return
        ev = Event(self.sim)
        self._waiters.append(ev)
        t0 = self.sim.now
        yield ev
        self.total_wait_cycles += self.sim.now - t0
        # the releaser transferred the slot to us; in_use stays balanced

    def acquire_timeout(self, timeout: int) -> Generator[Any, Any, bool]:
        """Acquire with a deadline: True on success, False on timeout.

        On timeout the queued request is withdrawn (later waiters keep
        their FIFO positions) and nothing is held.  The race at the
        deadline cycle is deterministic, with the same rule as UDN
        receive timeouts: a slot granted in the very cycle the timeout
        expires wins, because :class:`~repro.sim.engine.WaitTimer` only
        interrupts a process still genuinely parked after every wakeup
        already queued for that cycle has landed.
        """
        if timeout < 1:
            raise ValueError("timeout must be >= 1 cycle")
        if self.in_use < self.capacity and not self._waiters:
            self.total_acquisitions += 1
            self.in_use += 1
            return True
        ev = Event(self.sim)
        self._waiters.append(ev)
        t0 = self.sim.now
        timer = WaitTimer(self.sim, self.sim.current, self.sim.now + timeout)
        try:
            yield ev
        except Interrupt as exc:
            if exc.cause is timer:
                self.total_wait_cycles += self.sim.now - t0
                self._waiters.remove(ev)
                return False
            raise
        finally:
            timer.disarm()
        self.total_acquisitions += 1
        self.total_wait_cycles += self.sim.now - t0
        return True

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release without matching acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter (in_use unchanged).
            self._waiters.popleft().trigger()
        else:
            self.in_use -= 1

    def use(self, hold_cycles: int) -> Generator[Any, Any, None]:
        """Acquire, hold for ``hold_cycles``, release."""
        yield from self.acquire()
        try:
            if hold_cycles:
                yield hold_cycles
        finally:
            self.release()


class Condition:
    """A re-armable broadcast notification (no stored value, no memory).

    ``yield cond.wait()`` blocks until the *next* ``notify_all()``.  Unlike
    :class:`~repro.sim.engine.Event`, a condition can be signalled many
    times; each signal wakes exactly the processes waiting at that
    moment.  This models invalidation wakeups for spinning cores.
    """

    __slots__ = ("sim", "label", "_waiters")

    def __init__(self, sim: Simulator, label: Optional[str] = None):
        self.sim = sim
        #: free-form description surfaced by deadlock diagnostics
        self.label = label
        self._waiters: List[Event] = []

    @property
    def num_waiters(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        """The event of the next ``notify_all()`` (``yield cond.wait()``)."""
        ev = Event(self.sim, label=self.label)
        self._waiters.append(ev)
        return ev

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.trigger()


class Semaphore:
    """A counting semaphore over simulated time.

    ``down()`` blocks while the count is zero; ``up()`` releases one
    waiter (FIFO) or increments the count.  Used by test harnesses and
    examples to coordinate simulated phases; the hardware models use
    the lower-level :class:`Resource`/:class:`Condition` directly.
    """

    __slots__ = ("sim", "count", "_waiters")

    def __init__(self, sim: Simulator, initial: int = 0):
        if initial < 0:
            raise ValueError("initial count must be >= 0")
        self.sim = sim
        self.count = initial
        self._waiters: Deque[Event] = deque()

    def down(self) -> Generator[Any, Any, None]:
        if self.count > 0 and not self._waiters:
            self.count -= 1
            return
        ev = Event(self.sim)
        self._waiters.append(ev)
        yield ev

    def up(self) -> None:
        if self._waiters:
            self._waiters.popleft().trigger()
        else:
            self.count += 1


class Barrier:
    """An N-party reusable barrier.

    The first N-1 arrivals block; the Nth releases everyone and re-arms
    the barrier for the next round.  ``wait()`` returns the arrival
    index within the round (0-based), so one party per round can be
    elected (e.g. to reset shared state between benchmark phases).
    """

    __slots__ = ("sim", "parties", "_arrived", "_event")

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise ValueError("parties must be >= 1")
        self.sim = sim
        self.parties = parties
        self._arrived = 0
        self._event = Event(sim)

    def wait(self) -> Generator[Any, Any, int]:
        index = self._arrived
        self._arrived += 1
        if self._arrived == self.parties:
            # release this round and re-arm
            ev, self._event = self._event, Event(self.sim)
            self._arrived = 0
            ev.trigger()
            return index
        ev = self._event
        yield ev
        return index


class Channel:
    """Unbounded FIFO of Python objects with blocking ``get``.

    ``put`` is immediate (zero cycles); ``get`` blocks while empty.
    Multiple blocked getters are served in FIFO order, one item each.
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Generator[Any, Any, Any]:
        if self._items:
            return self._items.popleft()
        ev = Event(self.sim)
        self._getters.append(ev)
        item = yield ev
        return item
