"""The User Dynamic Network: per-core hardware message queues.

Semantics follow Sections 2 and 5.1 of the paper precisely:

* Each core owns a hardware message buffer of ``udn_buffer_words`` 64-bit
  words (118 on the TILE-Gx), 4-way demultiplexed into independent FIFO
  queues, so up to four threads can share a core and still have an
  exclusive queue (oversubscription, Section 6).
* ``send(dst, words)`` is **asynchronous**: the sender pays only a small
  injection cost and continues; the words appear in the destination
  queue after the mesh transit delay, *in order* (``v1 .. vn``).
  Messages between the same (src, dst) pair never reorder.
* Messages are never dropped.  If the destination buffer is full the
  message backs up into the network and **the sender blocks** until
  space frees (Section 5.1 / Section 6).  We model this by reserving
  destination buffer space at send time; an unavailable reservation
  queues the sender on a strict-FIFO per-destination-core reservation
  list, so buffer space is granted in arrival order (a late sender can
  never barge past an earlier blocked one).
* ``receive(k)`` blocks until ``k`` words are available in the caller's
  own queue and returns them; popping a non-empty local queue costs a
  couple of cycles and **no coherence stalls** -- this locality is the
  core of the paper's performance argument.
* ``is_queue_empty()`` is a cheap local probe.

Robustness extensions (fault-injection layer):

* ``send`` and ``receive`` accept ``timeout=`` (cycles).  A timed
  operation that cannot complete in time raises :class:`SendTimeout` /
  :class:`ReceiveTimeout` without side effects (no space reserved, no
  words popped).  The timers are built on generation-guarded interrupts
  (:class:`~repro.sim.engine.WaitTimer`), so a timeout racing a
  same-cycle message arrival deterministically loses to the arrival.
* ``transit_jitter`` (installed by :class:`repro.faults.FaultInjector`)
  adds bounded, seeded jitter to per-message transit delays.

Endpoints are *thread ids*; the fabric keeps the tid -> (core, demux
queue) registration, mirroring the TILE-Gx requirement that a thread be
pinned and registered to use the UDN.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.machine.config import MachineConfig
from repro.machine.core import Core
from repro.noc.topology import Mesh
from repro.sim.engine import Event, Interrupt, Simulator, WaitTimer
from repro.sim.resources import Condition

__all__ = ["UdnFabric", "UdnTimeout", "SendTimeout", "ReceiveTimeout"]


class UdnTimeout(Exception):
    """Base class of timed-operation expiries; ``waited`` is in cycles."""

    def __init__(self, message: str, waited: int):
        super().__init__(message)
        self.waited = waited


class SendTimeout(UdnTimeout):
    """A timed ``send`` could not reserve destination buffer space in time."""


class ReceiveTimeout(UdnTimeout):
    """A timed ``receive`` did not see enough words arrive in time."""


class _CoreBuffer:
    """The hardware message buffer of one core (shared by its demux queues).

    Space is granted to blocked senders in strict FIFO order: a
    reservation that cannot be satisfied immediately joins ``_waiters``
    and all later reservations queue behind it, even if they are smaller
    than the currently free space.
    """

    __slots__ = ("sim", "free_words", "label", "_waiters")

    def __init__(self, sim: Simulator, capacity: int, label: str):
        self.sim = sim
        self.free_words = capacity
        self.label = label
        # each entry: [event, words_needed, granted?]
        self._waiters: Deque[list] = deque()

    def try_take(self, n: int) -> bool:
        """Take ``n`` words at once if no sender is queued and they fit."""
        if not self._waiters and self.free_words >= n:
            self.free_words -= n
            return True
        return False

    def reserve(self, n: int) -> Generator[Any, Any, None]:
        """Acquire ``n`` words of buffer space, FIFO among blocked senders."""
        if self.try_take(n):
            return
        entry = [Event(self.sim, label=self.label), n, False]
        self._waiters.append(entry)
        try:
            yield entry[0]
        except BaseException:
            # Interrupted (timeout / fault) while queued: withdraw without
            # side effects; if the grant already happened, give it back.
            if entry[2]:
                self.release(n)
            else:
                self._waiters.remove(entry)
            raise

    def release(self, k: int) -> None:
        """Return ``k`` words and hand freed space to queued senders in order."""
        self.free_words += k
        while self._waiters and self._waiters[0][1] <= self.free_words:
            entry = self._waiters.popleft()
            self.free_words -= entry[1]
            entry[2] = True
            entry[0].trigger()


class _Queue:
    """One demultiplexed FIFO of 64-bit words."""

    __slots__ = ("words", "arrival_cond")

    def __init__(self, sim: Simulator, label: str):
        self.words: Deque[int] = deque()
        self.arrival_cond = Condition(sim, label=label)


class UdnFabric:
    """All hardware message queues of the chip plus the transit network."""

    def __init__(self, sim: Simulator, cfg: MachineConfig, mesh: Mesh, cores: List[Core],
                 contended_mesh=None):
        if not cfg.has_udn:
            raise ValueError(f"machine profile {cfg.name!r} has no hardware message passing")
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.cores = cores
        self.contended = contended_mesh  # optional ContendedMesh
        self._buffers = [
            _CoreBuffer(sim, cfg.udn_buffer_words, label=f"udn buffer space of core {c.cid}")
            for c in cores
        ]
        self._queues = [
            [
                _Queue(sim, label=f"udn message arrival at core {c.cid} queue {d}")
                for d in range(cfg.udn_demux_queues)
            ]
            for c in cores
        ]
        #: route table: thread id -> (core id, demux queue index, its
        #: queue, its core's buffer), resolved once per operation
        self._routes: Dict[int, Tuple[int, int, _Queue, _CoreBuffer]] = {}
        #: (core id, demux queue index) -> registered thread id
        self._owners: Dict[Tuple[int, int], int] = {}
        #: monotonically increasing message id (tags ``udn.send`` /
        #: ``udn.deliver`` events so the causal tracer can match a send to
        #: its delivery -- pure observability, never read by protocols)
        self._next_msg_id = 0
        #: total messages delivered (stats)
        self.messages_delivered = 0
        #: cycles each *sender core* spent blocked on backpressure,
        #: indexed by core id.  Overload blame attribution needs to name
        #: the congested sender, not just know that congestion existed;
        #: the machine-global aggregate survives as the
        #: :attr:`backpressure_cycles` property.
        self.backpressure_by_core: List[int] = [0] * len(cores)
        #: optional per-message transit-delay jitter (src_node, dst_node,
        #: n_words) -> extra cycles; installed by the fault injector
        self.transit_jitter: Optional[Callable[[int, int, int], int]] = None
        #: exploration seam bookkeeping: last scheduled arrival cycle per
        #: (src_node, dst_core, demux) stream.  Policy-chosen extra delays
        #: are clamped so a message never arrives before an earlier one of
        #: the same stream -- the per-pair FIFO guarantee survives any
        #: policy (used only when ``sim.policy`` is installed).
        self._policy_last_arrival: Dict[Tuple[int, int, int], int] = {}
        #: spatial-atlas hot-path hooks (see repro.obs.spatial): when an
        #: atlas is attached these are its accumulator dicts and sends /
        #: deliveries are counted inline -- one dict update, no Python
        #: call per event, which is what keeps the atlas inside the
        #: sampling-overhead budget.  ``None`` (the default) costs one
        #: attribute load + is-None test per send/deliver.  Pure
        #: observation: never read by the fabric itself.
        self.spatial_sends: Optional[Dict[Tuple[int, int], List[int]]] = None
        self.spatial_delivers: Optional[Dict[int, List[int]]] = None

    @property
    def backpressure_cycles(self) -> int:
        """Total cycles all senders spent blocked on backpressure.

        Aggregate view of :attr:`backpressure_by_core`, kept for
        backward compatibility with pre-existing stats consumers.
        """
        return sum(self.backpressure_by_core)

    def buffer_occupancy_words(self) -> int:
        """Words currently occupying (or reserved in) receive buffers.

        The UDN-occupancy telemetry gauge: buffer space is reserved at
        send time and released as words are popped, so this is the
        chip-wide count of message words in flight or waiting to be
        received.  O(cores) arithmetic, no queue walking.
        """
        cap = self.cfg.udn_buffer_words
        return sum(cap - b.free_words for b in self._buffers)

    # -- registration -------------------------------------------------------
    def register(self, tid: int, core_id: int, demux: int = 0) -> None:
        """Pin thread ``tid``'s receive endpoint to (core, demux queue)."""
        if not (0 <= core_id < len(self.cores)):
            raise ValueError(f"no core {core_id}")
        if not (0 <= demux < self.cfg.udn_demux_queues):
            raise ValueError(f"demux queue {demux} out of range")
        other_tid = self._owners.get((core_id, demux))
        if other_tid is not None and other_tid != tid:
            raise ValueError(f"queue ({core_id},{demux}) already registered to thread {other_tid}")
        old = self._routes.get(tid)
        if old is not None:
            del self._owners[old[0], old[1]]
        self._owners[core_id, demux] = tid
        self._routes[tid] = (core_id, demux, self._queues[core_id][demux],
                             self._buffers[core_id])

    def unregister(self, tid: int) -> None:
        core_id, demux, q, _ = self._route(tid)
        if q.words:
            raise RuntimeError(f"thread {tid} unregistering with {len(q.words)} words pending")
        del self._routes[tid]
        del self._owners[core_id, demux]

    def endpoint(self, tid: int) -> Tuple[int, int]:
        r = self._route(tid)
        return r[0], r[1]

    def _route(self, tid: int) -> Tuple[int, int, _Queue, _CoreBuffer]:
        try:
            return self._routes[tid]
        except KeyError:
            raise KeyError(f"thread {tid} is not registered with the UDN") from None

    def queue_depth(self, tid: int) -> int:
        """Words currently queued for ``tid`` (test/debug hook)."""
        return len(self._route(tid)[2].words)

    # -- operations ----------------------------------------------------------
    def send(self, core: Core, dst_tid: int, words: Sequence[int],
             timeout: Optional[int] = None) -> Generator[Any, Any, None]:
        """Asynchronous send of ``words`` to thread ``dst_tid``.

        Returns as soon as the message is injected; blocks only when the
        destination buffer has no room (backpressure).  With ``timeout``
        given, raises :class:`SendTimeout` if buffer space cannot be
        reserved within that many cycles (nothing is sent and no space
        is held).
        """
        if not words:
            raise ValueError("empty message")
        n = len(words)
        cfg = self.cfg
        sim = self.sim
        dst_core_id, demux, _, buf = self._routes.get(dst_tid) or self._route(dst_tid)
        if n > cfg.udn_buffer_words:
            raise ValueError(
                f"{n}-word message can never fit a {cfg.udn_buffer_words}-word buffer (deadlock)"
            )
        # Reserve space; block while the buffer is full (messages back up
        # into the network and stall the sender).  FIFO among senders.
        t0 = sim.now
        if timeout is None:
            if not buf.try_take(n):
                yield from buf.reserve(n)
        else:
            if timeout < 1:
                raise ValueError("timeout must be >= 1 cycle")
            timer = WaitTimer(sim, sim.current, sim.now + timeout)
            try:
                yield from buf.reserve(n)
            except Interrupt as exc:
                if exc.cause is timer:
                    waited = sim.now - t0
                    core.wait += waited
                    self.backpressure_by_core[core.cid] += waited
                    obs = sim.obs
                    if obs is not None:
                        obs.emit("udn.timeout", core=core.cid, op="send",
                                 waited=waited)
                    raise SendTimeout(
                        f"send of {n} words to thread {dst_tid} timed out after "
                        f"{waited} cycles of backpressure", waited
                    ) from None
                raise
            finally:
                timer.disarm()
        blocked = sim.now - t0
        if blocked:
            core.wait += blocked
            self.backpressure_by_core[core.cid] += blocked
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        sp = self.spatial_sends
        if sp is not None:
            e = sp.get((core.cid, dst_core_id))
            if e is None:
                sp[(core.cid, dst_core_id)] = [1, n]
            else:
                e[0] += 1
                e[1] += n
        obs = sim.obs
        if obs is not None:
            if blocked:
                obs.emit("udn.backpressure", core=core.cid, cycles=blocked,
                         dst_core=dst_core_id, start=t0)
            obs.emit("udn.send", core=core.cid, dst_tid=dst_tid,
                     dst_core=dst_core_id, words=n, msg_id=msg_id)
        inject = cfg.udn_send_base + cfg.udn_send_per_word * n
        core.busy += inject
        core.msgs_sent += 1
        yield inject

        payload = list(words)
        sent_at = sim.now
        if self.contended is not None:
            sim.spawn(
                self._contended_delivery(core.node, dst_core_id, demux, payload,
                                         sent_at, msg_id),
                name=f"udn-pkt->{dst_tid}",
            )
        else:
            dst_node = self.cores[dst_core_id].node
            transit = self.mesh.latency(core.node, dst_node, n)
            if self.transit_jitter is not None:
                transit += int(self.transit_jitter(core.node, dst_node, n))
            policy = sim.policy
            if policy is not None:
                # exploration seam: the policy may stretch this message's
                # transit, reordering deliveries *across* streams while the
                # clamp below keeps each (src, dst-queue) stream FIFO --
                # exactly the reorderings real mesh contention can produce.
                extra = int(policy.udn_delay(core.node, dst_core_id, demux,
                                             n, sent_at))
                key = (core.node, dst_core_id, demux)
                arrive = sent_at + transit + extra
                prev = self._policy_last_arrival.get(key, 0)
                if arrive < prev:
                    arrive = prev
                self._policy_last_arrival[key] = arrive
                transit = arrive - sent_at
            sim.call_at(sent_at + transit, self._deliver, dst_core_id, demux,
                        payload, sent_at, msg_id)

    def _contended_delivery(self, src_node: int, dst_core_id: int, demux: int,
                            payload: List[int], sent_at: int,
                            msg_id: Optional[int] = None) -> Generator[Any, Any, None]:
        yield from self.contended.transit(src_node, self.cores[dst_core_id].node,
                                          len(payload), msg_id=msg_id)
        if self.transit_jitter is not None:
            extra = int(self.transit_jitter(src_node, self.cores[dst_core_id].node, len(payload)))
            if extra:
                yield extra
        self._deliver(dst_core_id, demux, payload, sent_at, msg_id)

    def _deliver(self, dst_core_id: int, demux: int, payload: List[int],
                 sent_at: Optional[int] = None,
                 msg_id: Optional[int] = None) -> None:
        q = self._queues[dst_core_id][demux]
        q.words.extend(payload)
        self.messages_delivered += 1
        sp = self.spatial_delivers
        if sp is not None:
            e = sp.get(dst_core_id)
            lat = self.sim.now - (sent_at if sent_at is not None
                                  else self.sim.now)
            if e is None:
                sp[dst_core_id] = [1, len(payload), lat]
            else:
                e[0] += 1
                e[1] += len(payload)
                e[2] += lat
        obs = self.sim.obs
        if obs is not None:
            obs.emit("udn.deliver", core=dst_core_id, demux=demux,
                     words=len(payload),
                     latency=self.sim.now - (sent_at if sent_at is not None
                                             else self.sim.now),
                     msg_id=msg_id)
        cond = q.arrival_cond
        if cond._waiters:  # wake only a receiver parked on this queue
            cond.notify_all()

    def receive(self, core: Core, tid: int, k: int = 1,
                timeout: Optional[int] = None) -> Generator[Any, Any, List[int]]:
        """Blocking receive of ``k`` words from ``tid``'s own queue.

        Time spent blocked on an empty queue is ``wait`` (idle), not
        stall; draining a non-empty queue costs a few busy cycles per
        word and touches no shared memory.  With ``timeout`` given,
        raises :class:`ReceiveTimeout` if fewer than ``k`` words are
        available after that many cycles (no words are consumed).  A
        message arriving in the very cycle the timeout expires wins.
        """
        if k < 1:
            raise ValueError("must receive at least one word")
        _, _, q, buf = self._routes.get(tid) or self._route(tid)
        t0 = self.sim.now
        if timeout is None:
            while len(q.words) < k:
                yield q.arrival_cond.wait()
        else:
            if timeout < 1:
                raise ValueError("timeout must be >= 1 cycle")
            timer = WaitTimer(self.sim, self.sim.current, self.sim.now + timeout)
            try:
                while len(q.words) < k:
                    yield q.arrival_cond.wait()
            except Interrupt as exc:
                if exc.cause is timer:
                    waited = self.sim.now - t0
                    core.wait += waited
                    obs = self.sim.obs
                    if obs is not None:
                        obs.emit("udn.timeout", core=core.cid, op="receive",
                                 waited=waited)
                    raise ReceiveTimeout(
                        f"receive of {k} words by thread {tid} timed out after "
                        f"{waited} cycles ({len(q.words)} words queued)", waited
                    ) from None
                raise
            finally:
                timer.disarm()
        waited = self.sim.now - t0
        if waited:
            core.wait += waited
        obs = self.sim.obs
        if obs is not None:
            obs.emit("udn.recv", core=core.cid, tid=tid, words=k,
                     waited=waited, start=t0)
        cost = self.cfg.udn_recv_base + self.cfg.udn_recv_per_word * k
        core.busy += cost
        core.msgs_received += 1
        yield cost
        out = [q.words.popleft() for _ in range(k)]
        # space frees at the *core buffer* of the receiving endpoint and is
        # handed to blocked senders in FIFO order
        buf.release(k)
        return out

    def is_queue_empty(self, core: Core, tid: int) -> Generator[Any, Any, bool]:
        """Local probe of ``tid``'s queue (cheap, no blocking)."""
        cost = self.cfg.udn_probe_cost
        core.busy += cost
        yield cost
        return not (self._routes.get(tid) or self._route(tid))[2].words
