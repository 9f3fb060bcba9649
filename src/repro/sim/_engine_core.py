"""Engine v3 hot core: batched cycle advancement + table-free dispatch.

This module is the compiled-friendly inner loop behind
:mod:`repro.sim.engine` (which re-exports everything here and adds the
cold helpers -- :class:`WaitTimer`, ``all_of``).  It is written to run
unchanged under CPython and to stay clean under ``mypyc``/PyPy: typed
throughout, no closures over mutable globals, ``__slots__`` everywhere
hot, and module-level constants only.  ``IS_COMPILED`` reports whether
the interpreter imported a compiled extension instead of this source
file; the CI compiled leg asserts that both flavours produce
bit-identical golden fingerprints.

What changed relative to the PR 4 engine (frozen verbatim as
``benchmarks/_pr4_engine.py``; see DESIGN.md §16 for the equivalence
argument):

**Batched cycle advancement.**  Future work is kept in per-cycle
*buckets* (``dict[when] -> list`` in FIFO append order) with a heap of
distinct due cycles, so advancing the clock drains one whole cycle in a
single pass -- one heap pop per *cycle*, not per *event* -- and the
clock jumps idle gaps in O(1).  Sample-hook due points are reconciled
at the jump (the first live entry of a bucket advances the clock and
fires the hook), and timeout/admission deadlines are ordinary bucket
entries so they need no special casing.  The per-entry ``(when, seq)``
tuples and the global sequence counter are gone: bucket position *is*
the FIFO order.

**Entry protocol instead of kind tags.**  Lane and bucket entries are
the schedulable objects themselves -- a :class:`Process`, or one of two
rare wrappers (:class:`_Callback`, :class:`_Throw`).  Every entry
exposes ``_bare`` (live-entry flag), ``_slow``, ``_val`` (payload
slot), ``pinned`` (exploration may not move it) and ``_send``
(deliver).  Dispatch in the run loop is a handful of identity checks on
the yielded effect (interned ``0`` first, then exact ``int``/``Event``
class checks) with attribute loads hoisted per chunk; wrappers deliver
themselves and return the :data:`_HANDLED`/:data:`_STALE` sentinels.

**Staleness via one flag, not per-entry generations.**  A process has
at most one live entry at any time, so "this entry is stale" collapses
to a boolean on the process: parking, finishing, killing and
interrupting clear ``_bare`` and thereby zombie any queued entry.
``_resume_gen`` survives for the two consumers that need *step
counting* rather than liveness -- :class:`_Throw` wrappers (an
interrupt must supersede older interrupts) and ``WaitTimer``'s
parked-re-check protocol, which is why a consume bumps the generation
only when ``_watch`` says a timer is armed (see ``_resume_slow``).

The public semantics -- FIFO same-cycle order, resume-generation fault
model, crash shields, suspension, deadlock detection, the sample hook's
idle-gap collapse, ``max_events`` accounting -- are unchanged; golden
fingerprints (tests/test_parallel.py, tests/test_engine_v3.py) pin this
bit-for-bit against the frozen PR 4 engine.
"""

from __future__ import annotations

import heapq
import operator
from typing import (Any, Callable, ClassVar, Dict, Generator, List,
                    Optional, Set, Tuple)

__all__ = [
    "DeadlockError",
    "Event",
    "Interrupt",
    "IS_COMPILED",
    "Process",
    "Simulator",
]

#: True when this module was imported as a compiled extension (mypyc
#: build); False under plain CPython / PyPy source import.  The CI
#: compiled leg asserts fingerprint equality across both values.
IS_COMPILED: bool = not __file__.endswith(".py")

#: sentinel for "no horizon"
_NEVER = float("inf")

#: sentinel event cap for "unlimited" (int, so the per-event compare in
#: the run loop stays int-vs-int)
_NO_CAP: int = 1 << 63

#: wrapper-entry return sentinels: the wrapper delivered itself
#: (counted), or found itself stale (dropped, uncounted)
_HANDLED: object = object()
_STALE: object = object()


class Interrupt(Exception):
    """Raised inside a process that is interrupted via :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class DeadlockError(RuntimeError):
    """The pending-event set drained while live processes were still blocked.

    ``blocked`` holds the deadlocked :class:`Process` objects (daemon
    processes -- e.g. server loops that legitimately idle forever -- are
    excluded).  The message names every blocked process and the event or
    condition it waits on, which turns a silent hang into a diagnosis.
    """

    def __init__(self, message: str, blocked: List["Process"]):
        super().__init__(message)
        self.blocked = blocked


class Event:
    """A one-shot condition that processes can wait on.

    An event starts un-triggered.  Any number of processes may wait on it
    (by yielding it); when :meth:`trigger` is called, all waiters are
    resumed at the current simulation time and receive ``value``.
    Processes that yield an already-triggered event resume immediately
    (zero-cycle delay) with the stored value.  ``label`` is a free-form
    description used by deadlock diagnostics.
    """

    __slots__ = ("sim", "triggered", "value", "label", "_waiters")

    def __init__(self, sim: "Simulator", label: Optional[str] = None):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.label = label
        self._waiters: List[Process] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current cycle."""
        if self.triggered:
            raise RuntimeError("Event triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        n = len(waiters)
        if n == 1:
            # single-waiter fast path: no list swap, one direct resume
            proc = waiters[0]
            waiters.clear()
            proc._waiting_on = None
            if proc._throw_pending:
                return  # a queued interrupt supersedes this wakeup
            proc._val = value
            proc._bare = True
            self.sim._fast.append(proc)
        elif n:
            self._waiters = []
            fappend = self.sim._fast.append
            for proc in waiters:
                proc._waiting_on = None
                if proc._throw_pending:
                    continue  # a queued interrupt supersedes this wakeup
                proc._val = value
                proc._bare = True
                fappend(proc)

    def describe(self) -> str:
        return self.label or "anonymous event"

    # -- engine internal -------------------------------------------------
    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass


class Process:
    """A running generator inside the simulator.

    Created via :meth:`Simulator.spawn`.  The generator's ``return``
    value (carried by ``StopIteration``) becomes :attr:`result` and is
    delivered to anything waiting on :meth:`join`.  An uncaught exception
    in a process aborts the whole simulation run -- silent failures would
    otherwise corrupt benchmark results.

    A process doubles as its own scheduler entry (see the module
    docstring): ``_bare`` is the live-entry flag, ``_val`` the payload
    slot for the pending wakeup, ``_send`` the bound resume callable.
    """

    #: exploration seam: lane entries with ``pinned`` set keep their
    #: relative order under ``policy.reorder_lane`` (only plain
    #: callbacks -- model-internal machinery -- are pinned)
    pinned: ClassVar[bool] = False

    __slots__ = (
        "sim",
        "gen",
        "_send",
        "name",
        "alive",
        "daemon",
        "killed",
        "result",
        "_done_event",
        "_waiting_on",
        "_resume_gen",
        "_shield",
        "_pending_kill",
        "_suspended_until",
        "_slow",
        "_bare",
        "_val",
        "_watch",
        "_throw_pending",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "?",
                 daemon: bool = False):
        self.sim = sim
        self.gen = gen
        self._send: Callable[[Any], Any] = gen.send  # bound once per process
        self.name = name
        self.alive = True
        #: daemon processes (server loops etc.) may legitimately remain
        #: blocked forever; they are exempt from deadlock detection
        self.daemon = daemon
        #: set when the process was removed via :meth:`kill` (crash model)
        self.killed = False
        self.result: Any = None
        #: lazily created on first :meth:`join` (most processes are
        #: never joined; finish/kill only trigger it when it exists)
        self._done_event: Optional[Event] = None
        self._waiting_on: Optional[Event] = None
        #: resume *step counter*: bumped on every delivery that a
        #: watcher could care about (interrupt, kill, finish, throw
        #: delivery, and -- while ``_watch`` is non-zero -- ordinary
        #: consumes).  Liveness of queued entries is ``_bare``, not this.
        self._resume_gen = 0
        #: depth of crash-shielded (atomic-commit) regions
        self._shield = 0
        self._pending_kill: Any = None
        self._suspended_until = 0
        #: one-flag summary of "needs the slow resume path" (suspended,
        #: kill pending, or a WaitTimer watches this process)
        self._slow = False
        #: live-entry flag: True while a wakeup for this process sits in
        #: the lane or a bucket (or is being delivered right now);
        #: cleared when parking, finishing, being killed or interrupted,
        #: which zombies any queued entry
        self._bare = False
        #: payload slot for the pending wakeup (event value); read and
        #: reset by the run loop at delivery
        self._val: Any = None
        #: count of armed WaitTimers watching this process; while
        #: non-zero, consumes route through the slow path and bump
        #: ``_resume_gen`` so the timer can tell "stepped" from "parked"
        self._watch = 0
        #: count of queued :class:`_Throw` entries.  While non-zero, a
        #: wakeup produced by ``Event.trigger`` must lose to the throw
        #: (the per-entry-generation engine staled it at throw consume);
        #: with liveness collapsed onto one flag, the race is resolved at
        #: trigger time instead.  Only a process that interrupts itself
        #: and re-parks in the same step can ever see this non-zero.
        self._throw_pending = 0

    def join(self) -> Generator[Any, Any, Any]:
        """``yield from proc.join()`` waits for termination, returns its result."""
        if self.alive:
            ev = self._done_event
            if ev is None:
                ev = self._done_event = Event(self.sim)
            yield ev
        return self.result

    def blocked_event(self) -> Optional[Event]:
        """The event this process is genuinely parked on, else ``None``.

        ``None`` also when a wakeup is already scheduled (the awaited
        event has triggered but the process has not stepped yet) -- used
        by ``WaitTimer`` so a timeout racing a same-cycle arrival
        deterministically loses to the arrival.
        """
        ev = self._waiting_on
        if ev is not None and self in ev._waiters:
            return ev
        return None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current cycle.

        Safe in every blocked state: waiting on an event, sleeping on an
        ``int`` delay, or already scheduled to resume.  Any previously
        scheduled wakeup is invalidated (``_bare`` cleared), so the
        process is stepped exactly once -- with the interrupt.
        """
        if not self.alive:
            return
        ev = self._waiting_on
        if ev is not None:
            ev._discard_waiter(self)
            self._waiting_on = None
        if self._bare:
            self._bare = False  # zombie any queued wakeup
            self._val = None
        self._resume_gen += 1  # supersede older throws / timer checks
        self._throw_pending += 1
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            obs.emit("proc.interrupt", name=self.name)
        sim._fast.append(_Throw(sim, self, Interrupt(cause), self._resume_gen))

    def kill(self, cause: Any = None) -> None:
        """Fail-stop crash: the process stops executing, immediately.

        Unlike :meth:`interrupt`, no exception is delivered and no
        ``finally`` blocks run -- a crashed hardware thread executes
        nothing.  Anything blocked on :meth:`join` is released with a
        ``None`` result and :attr:`killed` is set.  Inside a shielded
        region (:meth:`shield_begin`) the crash is deferred to the end of
        the region, modelling an atomic commit.
        """
        if not self.alive:
            return
        if self._shield > 0:
            self._pending_kill = cause if cause is not None else True
            self._slow = True  # land the deferred crash at the next resume
            return
        self._do_kill(cause)

    # -- crash shields ---------------------------------------------------
    def shield_begin(self) -> None:
        """Enter a region in which :meth:`kill` is deferred (atomic commit)."""
        self._shield += 1

    def shield_end(self) -> None:
        """Leave a shielded region; a deferred kill lands at the next resume."""
        if self._shield <= 0:
            raise RuntimeError("shield_end without matching shield_begin")
        self._shield -= 1

    def suspend_until(self, when: int) -> None:
        """Defer any resumption of this process until cycle ``when``.

        Models preemption / a descheduled hardware context: pending
        wakeups (message arrivals, sleep expiries) are delivered only
        once the process is scheduled again.  Safe in every state.
        """
        if when > self._suspended_until:
            self._suspended_until = when
            self._slow = True  # route wakeups through the slow resume path

    # -- engine internal -------------------------------------------------
    def _do_kill(self, cause: Any) -> None:
        ev = self._waiting_on
        if ev is not None:
            ev._discard_waiter(self)
            self._waiting_on = None
        self._resume_gen += 1  # supersede queued throws / timer checks
        self._bare = False  # zombie any queued wakeup
        self._val = None
        self.alive = False
        self.killed = True
        self._pending_kill = None
        self.result = None
        # Keep the generator referenced so CPython never runs its
        # ``finally`` blocks at GC time mid-simulation: a crashed thread
        # must execute nothing, not even cleanup.
        sim = self.sim
        sim._corpses.append(self.gen)
        sim._forget(self)
        obs = sim.obs
        if obs is not None:
            obs.emit("proc.kill", name=self.name)
        done = self._done_event
        if done is not None:
            done.trigger(None)

    def _finish(self, result: Any) -> None:
        self._resume_gen += 1  # supersede queued throws / timer checks
        self._bare = False     # zombie any queued wakeup
        self._val = None
        self.alive = False
        self.result = result
        sim = self.sim
        sim._forget(self)
        obs = sim.obs
        if obs is not None:
            obs.emit("proc.exit", name=self.name)
        done = self._done_event
        if done is not None:
            done.trigger(result)

    def describe_wait(self) -> str:
        """Human-readable description of what this process waits on."""
        ev = self.blocked_event()
        if ev is not None:
            return ev.describe()
        if self._waiting_on is not None:
            return f"{self._waiting_on.describe()} (wakeup pending)"
        if self._suspended_until > self.sim.now:
            return f"suspended until cycle {self._suspended_until}"
        return "no pending wakeup"


class _Callback:
    """Scheduler entry for a plain callback (``call_at``/``call_after``).

    Model-internal machinery (UDN deliveries, store-buffer drains, link
    releases, timer watchdogs): always live, always counted, pinned in
    place under schedule exploration -- exactly the old ``_CALLBACK``
    kind.  The callback's arguments ride in ``args``, so a caller needs
    no closure per scheduled call.
    """

    pinned: ClassVar[bool] = True
    _bare: ClassVar[bool] = True
    _slow: ClassVar[bool] = False
    _val: ClassVar[None] = None

    __slots__ = ("sim", "fn", "args")

    def __init__(self, sim: "Simulator", fn: Callable[..., None],
                 args: Tuple[Any, ...]):
        self.sim = sim
        self.fn = fn
        self.args = args

    def _send(self, _val: Any) -> Any:
        # callbacks run between process steps: no current process
        self.sim._current = None
        self.fn(*self.args)
        return _HANDLED


class _Throw:
    """Scheduler entry delivering an exception into a process.

    Carries the target's ``_resume_gen`` at scheduling time: a newer
    interrupt/kill/finish supersedes this one, making it report itself
    :data:`_STALE` (dropped uncounted) instead of delivering.
    """

    pinned: ClassVar[bool] = False
    _bare: ClassVar[bool] = True
    _slow: ClassVar[bool] = False
    _val: ClassVar[None] = None

    __slots__ = ("sim", "proc", "exc", "gen")

    def __init__(self, sim: "Simulator", proc: Process, exc: BaseException,
                 gen: int):
        self.sim = sim
        self.proc = proc
        self.exc = exc
        self.gen = gen

    def _send(self, _val: Any) -> Any:
        proc = self.proc
        if self.gen != proc._resume_gen:
            proc._throw_pending -= 1
            return _STALE  # superseded: drop, uncounted
        sim = self.sim
        if proc._suspended_until > sim.now:
            # preempted: deliver once the context is rescheduled
            # (still pending: triggers keep losing to it meanwhile)
            sim._bucket_push(proc._suspended_until, self)
            return _HANDLED
        proc._throw_pending -= 1
        if proc._pending_kill is not None and proc._shield == 0:
            proc._do_kill(proc._pending_kill)  # deferred crash lands
            return _HANDLED
        proc._resume_gen += 1  # consume: older throws become stale
        proc._waiting_on = None
        proc._bare = True  # schedulable again unless the body invalidates
        sim._current = proc
        try:
            effect = proc.gen.throw(self.exc)
        except StopIteration as stop:
            proc._finish(stop.value)
            return _HANDLED
        sim._dispatch(proc, effect)
        return _HANDLED


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(my_generator())
        sim.run()
        print(sim.now, proc.result)
    """

    __slots__ = ("now", "obs", "policy", "_heap", "_buckets", "_fast",
                 "_nevents", "max_events", "detect_deadlock", "_processes",
                 "_corpses", "_current", "_sample_due", "_sample_every",
                 "_sample_fn")

    def __init__(self, max_events: Optional[int] = None):
        self.now: int = 0
        #: observability event bus (:mod:`repro.obs`); ``None`` = off.
        #: Publishers guard every emit with ``if sim.obs is not None``,
        #: so a run without observability pays only that comparison.
        self.obs: Any = None
        #: schedule-exploration policy (:mod:`repro.explore`); ``None`` =
        #: off.  When set, same-cycle lane chunks are offered to
        #: ``policy.reorder_lane`` and higher layers consult
        #: ``policy.udn_delay`` / ``policy.preempt`` at their own seams.
        #: Must be installed before :meth:`run` (it is read once per call).
        self.policy: Any = None
        #: distinct future due cycles (ints); each has a bucket
        self._heap: List[int] = []
        #: per-cycle FIFO buckets of scheduler entries (future work)
        self._buckets: Dict[int, List[Any]] = {}
        #: same-cycle fast lane: entries due at cycle ``now``, in FIFO
        #: order (consumed in grabbed chunks inside :meth:`run`)
        self._fast: List[Any] = []
        self._nevents: int = 0
        #: hard safety cap on processed events (None = unlimited)
        self.max_events = max_events
        #: raise :class:`DeadlockError` when the pending set drains with
        #: live non-daemon processes still blocked (set False to restore
        #: the old silent-return behaviour)
        self.detect_deadlock = True
        self._processes: Set[Process] = set()
        self._corpses: List[Generator] = []
        self._current: Optional[Process] = None
        #: continuous-telemetry sample hook (:mod:`repro.obs.timeseries`).
        #: ``_sample_due`` is an int sentinel compared against the clock
        #: wherever it advances; with no hook installed it is ``_NO_CAP``
        #: and the whole feature costs one integer compare per advance.
        self._sample_due: int = _NO_CAP
        self._sample_every: int = 0
        self._sample_fn: Optional[Callable[[int], None]] = None

    # -- public API ------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self._nevents

    @property
    def current(self) -> Optional[Process]:
        """The process being stepped right now (None outside a step)."""
        return self._current

    def live_processes(self) -> List["Process"]:
        """All processes that have not yet finished (diagnostics)."""
        return sorted(self._processes, key=lambda p: p.name)

    def spawn(self, gen: Generator, name: str = "?", daemon: bool = False) -> Process:
        """Register ``gen`` as a process; it starts at the current cycle.

        ``daemon`` marks processes (server loops, fault controllers) that
        may legitimately stay blocked forever: they are exempt from
        deadlock detection.
        """
        proc = Process(self, gen, name, daemon=daemon)
        self._processes.add(proc)
        if self.obs is not None:
            self.obs.emit("proc.spawn", name=name)
        proc._bare = True
        self._fast.append(proc)
        return proc

    def event(self, label: Optional[str] = None) -> Event:
        """Create a fresh (un-triggered) event bound to this simulator."""
        return Event(self, label)

    def call_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``when`` (>= now)."""
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past ({when} < {now})")
        cb = _Callback(self, fn, args)
        if when == now:
            self._fast.append(cb)
            return
        # _bucket_push inlined: this is the per-message delivery path
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [cb]
            heapq.heappush(self._heap, when)
        else:
            b.append(cb)

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles."""
        self.call_at(self.now + delay, fn, *args)

    def set_sample_hook(self, every: int, fn: Callable[[int], None]) -> None:
        """Call ``fn(cycle)`` whenever the clock crosses an ``every``-cycle
        boundary (continuous telemetry; see :mod:`repro.obs.timeseries`).

        The hook runs *between* events -- after everything before the
        boundary has executed, before anything at or past it does -- so
        it may only observe: it must not touch simulated state or
        schedule events.  Idle gaps fire the hook once (at the first
        clock advance past the boundary), not once per skipped period.
        """
        if every < 1:
            raise ValueError(f"sample interval must be >= 1 cycle, got {every}")
        self._sample_every = every
        self._sample_fn = fn
        self._sample_due = self.now - (self.now % every) + every

    def clear_sample_hook(self) -> None:
        """Remove the sample hook (restores the off-cost: one compare)."""
        self._sample_every = 0
        self._sample_fn = None
        self._sample_due = _NO_CAP

    def _sample_tick(self, now: int) -> None:
        # out of line from run(): only entered when a sample is due
        self._current = None  # the hook runs between events
        fn = self._sample_fn
        if fn is None:  # pragma: no cover - defensive (sentinel says due)
            self._sample_due = _NO_CAP
            return
        fn(now)
        every = self._sample_every
        due = self._sample_due + every
        if due <= now:
            # the clock jumped an idle gap: collapse it to this one sample
            due = now - (now % every) + every
        self._sample_due = due

    def run(self, until: Optional[int] = None) -> None:
        """Process events until none are pending or ``now`` passes ``until``.

        With ``until`` given, the clock is left exactly at ``until`` when
        the horizon is hit (events at later cycles stay queued and can be
        processed by a subsequent :meth:`run` call).

        Raises :class:`DeadlockError` if the pending-event set drains
        while live non-daemon processes remain blocked (see
        ``detect_deadlock``).
        """
        heap = self._heap
        buckets = self._buckets
        fast = self._fast
        fappend = fast.append
        pop = heapq.heappop
        push = heapq.heappush
        INT = int
        EVENT = Event
        PROCESS = Process
        THROW = _Throw
        HANDLED = _HANDLED
        STALE = _STALE
        ZERO = 0
        max_events = self.max_events if self.max_events is not None else _NO_CAP
        policy = self.policy  # read once per run() call (None = off)
        horizon = until if until is not None else _NEVER
        if horizon < self.now:
            # pathological but defined: a horizon in the past processes
            # nothing and (with work pending) parks the clock at it
            if fast or heap:
                self.now = until
                return
        # The lane is consumed in *chunks*: grab the current list, hand
        # the simulator a fresh one, and sweep the grabbed chunk while
        # entries scheduled during the sweep accumulate in the new list.
        # FIFO is preserved (everything in the chunk was scheduled before
        # anything appended while sweeping it).  A bucket drain is the
        # same sweep over the popped per-cycle list, with the clock
        # advanced lazily at its first *live* entry so that a bucket of
        # zombies moves neither the clock nor the sample hook -- exactly
        # the old per-entry heap behaviour, minus the per-entry pops.
        #
        # Accounting: chunks are pre-counted in bulk (``pre``/``nevents``)
        # and zombies/stale throws refunded via ``dropped``; when a chunk
        # would cross ``max_events`` the *careful* twin loops count
        # per-event so the cap lands on exactly the same event as the
        # per-entry engine.  ``nevents`` shadows ``self._nevents``.
        chunk = iter(())
        nevents = self._nevents
        now = self.now
        dropped = 0
        pre = 0
        try:
            while True:
                if fast:
                    # ---- lane sweep: the hot path ------------------------
                    grabbed = fast
                    self._fast = fast = []
                    fappend = fast.append
                    if policy is not None and len(grabbed) > 1:
                        # exploration seam: the policy may permute the
                        # same-cycle tie-break order (all entries are due
                        # at ``now``; zombies still drop via ``_bare``)
                        grabbed = policy.reorder_lane(grabbed, now)
                    n = len(grabbed)
                    chunk = iter(grabbed)
                    if nevents + n > max_events:
                        # -- careful twin: per-event count, exact cap ------
                        for e in chunk:
                            if e.__class__ is THROW:
                                if e.gen != e.proc._resume_gen:
                                    continue  # stale: drop, uncounted
                            elif not e._bare:
                                continue  # zombie: drop, uncounted
                            nevents += 1
                            if nevents > max_events:
                                raise RuntimeError(
                                    "simulation exceeded "
                                    f"{self.max_events} events")
                            if e._slow:
                                if self._resume_slow(e):
                                    continue
                            val = e._val
                            if val is not None:
                                e._val = None
                            self._current = e
                            try:
                                effect = e._send(val)
                            except StopIteration as stop:
                                if e.__class__ is PROCESS:
                                    e._finish(stop.value)
                                    continue
                                raise
                            if effect is HANDLED:
                                continue
                            if effect is STALE:
                                nevents -= 1
                                continue
                            self._dispatch(e, effect)
                        self._current = None
                        continue
                    pre = n
                    nevents += n
                    for e in chunk:
                        if not e._bare:
                            dropped += 1
                            continue  # zombie wakeup: drop
                        if e._slow:
                            # suspended, kill pending or watched: out of line
                            if self._resume_slow(e):
                                continue
                        val = e._val
                        if val is not None:
                            e._val = None
                        self._current = e
                        try:
                            effect = e._send(val)
                        except StopIteration as stop:
                            if e.__class__ is PROCESS:
                                e._finish(stop.value)
                                continue
                            raise
                        # Dispatch on the yielded effect; ``_bare`` still
                        # set means the body did not invalidate itself
                        # (self-interrupt/kill), so reschedule.
                        if effect is ZERO:
                            if e._bare:
                                fappend(e)
                            continue
                        cls = effect.__class__
                        if cls is INT:
                            if effect:
                                if e._bare:
                                    when2 = now + effect
                                    b = buckets.get(when2)
                                    if b is None:
                                        buckets[when2] = [e]
                                        push(heap, when2)
                                    else:
                                        b.append(e)
                            elif e._bare:
                                fappend(e)
                        elif cls is EVENT:
                            if effect.triggered:
                                if e._bare:
                                    e._val = effect.value
                                    fappend(e)
                            else:
                                e._bare = False  # park: entry goes dead
                                e._waiting_on = effect
                                effect._waiters.append(e)
                        elif effect is HANDLED:
                            pass
                        elif effect is STALE:
                            dropped += 1
                        else:
                            self._dispatch(e, effect)
                    self._current = None
                    if dropped:
                        nevents -= dropped
                        dropped = 0
                    pre = 0
                    continue
                if not heap:
                    break
                when = heap[0]
                if when > horizon:
                    self.now = until
                    if until >= self._sample_due:
                        self._sample_tick(until)
                    return
                # ---- bucket drain: advance the clock one whole cycle ----
                pop(heap)
                batch = buckets.pop(when)
                n = len(batch)
                chunk = iter(batch)
                if nevents + n > max_events:
                    # -- careful twin: per-event count, exact cap ----------
                    for e in chunk:
                        if e.__class__ is THROW:
                            if e.gen != e.proc._resume_gen:
                                continue  # stale: no clock advance
                        elif not e._bare:
                            continue  # zombie: no clock advance
                        if now != when:
                            self.now = now = when
                            if when >= self._sample_due:
                                self._sample_tick(when)
                        nevents += 1
                        if nevents > max_events:
                            raise RuntimeError(
                                "simulation exceeded "
                                f"{self.max_events} events")
                        if e._slow:
                            if self._resume_slow(e):
                                continue
                        val = e._val
                        if val is not None:
                            e._val = None
                        self._current = e
                        try:
                            effect = e._send(val)
                        except StopIteration as stop:
                            if e.__class__ is PROCESS:
                                e._finish(stop.value)
                                continue
                            raise
                        if effect is HANDLED:
                            continue
                        if effect is STALE:
                            nevents -= 1
                            continue
                        self._dispatch(e, effect)
                    self._current = None
                    continue
                pre = n
                nevents += n
                for e in chunk:
                    if now != when:
                        # clock not yet at this cycle: only a live entry
                        # advances it (and fires a due sample) -- zombies
                        # and stale throws leave both untouched
                        cls_e = e.__class__
                        if cls_e is PROCESS:
                            if not e._bare:
                                dropped += 1
                                continue
                        elif cls_e is THROW:
                            if e.gen != e.proc._resume_gen:
                                dropped += 1
                                continue
                        self.now = now = when
                        if when >= self._sample_due:
                            self._sample_tick(when)
                    elif not e._bare:
                        dropped += 1
                        continue  # zombie wakeup: drop
                    if e._slow:
                        if self._resume_slow(e):
                            continue
                    val = e._val
                    if val is not None:
                        e._val = None
                    self._current = e
                    try:
                        effect = e._send(val)
                    except StopIteration as stop:
                        if e.__class__ is PROCESS:
                            e._finish(stop.value)
                            continue
                        raise
                    if effect is ZERO:
                        if e._bare:
                            fappend(e)
                        continue
                    cls = effect.__class__
                    if cls is INT:
                        if effect:
                            if e._bare:
                                when2 = now + effect
                                b = buckets.get(when2)
                                if b is None:
                                    buckets[when2] = [e]
                                    push(heap, when2)
                                else:
                                    b.append(e)
                        elif e._bare:
                            fappend(e)
                    elif cls is EVENT:
                        if effect.triggered:
                            if e._bare:
                                e._val = effect.value
                                fappend(e)
                        else:
                            e._bare = False  # park: entry goes dead
                            e._waiting_on = effect
                            effect._waiters.append(e)
                    elif effect is HANDLED:
                        pass
                    elif effect is STALE:
                        dropped += 1
                    else:
                        self._dispatch(e, effect)
                self._current = None
                if dropped:
                    nevents -= dropped
                    dropped = 0
                pre = 0
        finally:
            # keep state consistent when an exception propagates out of a
            # process body mid-chunk (max_events, user errors): unconsumed
            # chunk entries were scheduled before everything in the
            # current lane list, so they go back in front of it.  (For a
            # bucket chunk the clock has already advanced to its cycle --
            # nothing that raises can precede the advance -- so the lane
            # is where its remainder belongs.)  Pre-counted but not yet
            # delivered events are refunded.
            self._current = None
            rest = list(chunk)
            self._nevents = nevents - dropped - (len(rest) if pre else 0)
            if rest:
                self._fast[:0] = rest
        if until is not None and self.now < until:
            self.now = until
        if self.now >= self._sample_due:
            self._sample_tick(self.now)
        if self.detect_deadlock:
            blocked = [p for p in self._processes if p.alive and not p.daemon]
            if blocked:
                blocked.sort(key=lambda p: p.name)
                lines = "\n".join(
                    f"  - process {p.name!r} blocked on {p.describe_wait()}"
                    for p in blocked
                )
                raise DeadlockError(
                    f"deadlock at cycle {self.now}: no events are pending but "
                    f"{len(blocked)} live process(es) are still blocked:\n{lines}",
                    blocked,
                )

    # -- internals ---------------------------------------------------------
    def _forget(self, proc: Process) -> None:
        self._processes.discard(proc)

    def _bucket_push(self, when: int, e: Any) -> None:
        """Queue entry ``e`` for future cycle ``when`` (> now)."""
        b = self._buckets.get(when)
        if b is None:
            self._buckets[when] = [e]
            heapq.heappush(self._heap, when)
        else:
            b.append(e)

    def _schedule_resume(self, proc: Process, value: Any, delay: int = 0) -> None:
        """Schedule a wakeup delivering ``value`` to ``proc`` after ``delay``."""
        if proc._throw_pending:
            return  # a queued interrupt supersedes this wakeup
        proc._val = value
        proc._bare = True
        if delay:
            self._bucket_push(self.now + delay, proc)
        else:
            self._fast.append(proc)

    def _resume_slow(self, proc: Process) -> bool:
        """Out-of-line half of the lane fast path (``proc._slow`` set):
        handle a suspended, kill-pending or timer-watched process.
        Returns True when the wakeup was consumed (re-queued or the
        process crashed), False when the process should resume normally.
        """
        if proc._suspended_until > self.now:
            # preempted: deliver this wakeup once the context reschedules
            # (the entry keeps its flag and payload)
            self._bucket_push(proc._suspended_until, proc)
            return True
        pk = proc._pending_kill
        if pk is not None:
            if proc._shield == 0:
                proc._do_kill(pk)  # deferred crash lands
                return True
            # shielded: execute; the crash lands after commit (_slow stays)
        elif not proc._watch:
            proc._slow = False  # suspension expired and nothing pending
        if proc._watch:
            # an armed WaitTimer distinguishes "stepped since I looked"
            # from "still parked" by this counter
            proc._resume_gen += 1
        return False

    def _dispatch(self, proc: Process, effect: Any) -> None:
        """Cold twin of the inline effect dispatch (throw deliveries,
        non-plain-int effects): reschedule ``proc`` per ``effect``."""
        cls = effect.__class__
        if cls is int:
            delay = effect
        elif isinstance(effect, Event):
            if effect.triggered:
                if proc._bare:
                    proc._val = effect.value
                    self._fast.append(proc)
            else:
                proc._bare = False  # park: entry goes dead
                proc._waiting_on = effect
                effect._waiters.append(proc)
            return
        else:
            delay = _coerce_delay(proc, effect)
        if proc._bare:
            if delay:
                self._bucket_push(self.now + delay, proc)
            else:
                self._fast.append(proc)


def _coerce_delay(proc: Process, effect: Any) -> int:
    """Coerce a non-plain-``int`` yielded effect to a delay, or raise.

    ``bool`` (``True`` is a 1-cycle sleep) and numpy integer scalars are
    accepted through ``__index__``, which rejects floats and arbitrary
    objects -- the explicit form of the old ``isinstance(effect, int)``
    fallback, which silently missed numpy scalars entirely.
    """
    try:
        return operator.index(effect)
    except TypeError:
        raise TypeError(
            f"process {proc.name!r} yielded unsupported effect {effect!r}; "
            "yield an int (delay) or an Event"
        ) from None
