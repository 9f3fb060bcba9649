"""Directory-based coherence protocol with cycle-cost and stall accounting.

Model (Section 2 of the paper, after Sorin et al.):

* every core has a private write-back cache; lines are ``line_words``
  words;
* a directory maintains the single-writer / multiple-reader (SWMR)
  invariant: per line, either one core holds it Modified or any number
  hold it Shared;
* an access that needs a directory transaction over the mesh is a
  *Remote Memory Reference* (RMR): the issuing core stalls for the
  transfer and the per-core ``rmr`` counter increments.

Two deliberate simplifications, both documented in DESIGN.md:

* **Values are always stored in the global backing store** at the moment
  an operation completes; cache state drives *timing only*.  Because all
  conflicting transactions serialize on a per-line FIFO resource and the
  engine is deterministic, executions are sequentially consistent --
  matching the paper's system model.
* **No capacity evictions.**  Synchronization structures are a few lines
  per thread; they never approach the 32 KB+ private caches of the
  TILE-Gx.

Spinning uses :meth:`CoherentMemory.spin_until`: semantically a local
spin loop (first read installs the line Shared; polling is then free
until a writer invalidates, which wakes the spinner and charges it the
re-fetch RMR) implemented in O(1) events per invalidation instead of one
event per poll iteration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.machine.config import MachineConfig
from repro.machine.core import Core
from repro.mem.memory import Allocator, BackingStore, WORD_MASK
from repro.mem.sharers import ENTRY_BASE_BYTES, MeshGeometry, SparseSharerSet
from repro.noc.topology import Mesh
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Condition, Resource

__all__ = ["CoherentMemory", "LineState"]


class LineState:
    """Symbolic cache-line states (E is folded into M; I is absence)."""

    M = "M"
    S = "S"


class _Line:
    """Directory entry for one cache line.

    Entries are lazy in two ways: the entry itself materializes on
    first touch and is reclaimed when an invalidation leaves it clean
    and idle (see :meth:`CoherentMemory.invalidate_all`), and the
    spinner-wakeup :class:`Condition` is only built when a core
    actually waits on the line -- most lines never host a spinner.
    """

    __slots__ = ("owner", "sharers", "res", "line_no", "_cond")

    def __init__(self, sim: Simulator, line_no: int, geo: MeshGeometry):
        self.owner: Optional[int] = None          # core id holding M
        self.sharers = SparseSharerSet(geo)       # core ids holding S
        self.res = Resource(sim, capacity=1)      # serializes transactions
        self.line_no = line_no
        self._cond: Optional[Condition] = None

    def wait_cond(self, sim: Simulator) -> Condition:
        """The invalidation-wakeup condition (built on first wait)."""
        cond = self._cond
        if cond is None:
            # labelled for deadlock diagnostics
            cond = self._cond = Condition(
                sim, label=f"invalidation of cache line {self.line_no}")
        return cond

    def notify(self) -> None:
        """Wake any spinners; a no-op when no core ever waited here."""
        cond = self._cond
        if cond is not None:
            cond.notify_all()

    @property
    def idle(self) -> bool:
        """No transaction holds or awaits this entry (reclamation guard)."""
        return (self.res.in_use == 0 and self.res.queue_length == 0
                and (self._cond is None or self._cond.num_waiters == 0))


class CoherentMemory:
    """The coherent shared-memory fabric of the simulated chip."""

    def __init__(self, sim: Simulator, cfg: MachineConfig, mesh: Mesh, cores: List[Core]):
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.cores = cores
        self.store_backing = BackingStore()
        # hit-path constants (the config is fixed once the machine is built)
        self._words = self.store_backing.words
        self._line_words = cfg.line_words
        self._c_hit = cfg.c_hit
        self._coherent = cfg.has_coherent_shm
        self.allocator = Allocator(line_words=cfg.line_words)
        self._lines: Dict[int, _Line] = {}
        # shared coordinate geometry for every line's sparse sharer set
        self._geo = MeshGeometry(mesh.width, [c.node for c in cores],
                                 mesh.num_nodes)
        #: high-water mark of live directory entries (footprint metric)
        self.peak_entries = 0
        # atomics executor is attached by the Machine (controller or cache mode)
        self.atomics = None
        #: number of mesh nodes, for line homing
        self._num_nodes = mesh.num_nodes
        # in-flight software prefetches: (core id, line) -> completion Event
        self._prefetches: Dict[Tuple[int, int], Event] = {}
        # one-entry store buffers: core id -> draining line / completion Event
        self._sb_line: Dict[int, int] = {}
        self._sb_event: Dict[int, Event] = {}
        # private-memory ownership (message-passing-only profiles):
        # line -> the single core allowed to touch it
        self._private_owner: Dict[int, int] = {}

    # -- stall accounting --------------------------------------------------
    # Every coherence stall charged to a core flows through these two
    # helpers, which keep the core's hardware register and the obs event
    # stream in lockstep -- the counter-derived Figure 4a breakdown must
    # match the register-derived one exactly (guarded by a test).
    def _charge_stall_mem(self, core: Core, cycles: int, line_no: int, why: str) -> None:
        if cycles <= 0:
            return
        core.stall_mem += cycles
        obs = self.sim.obs
        if obs is not None:
            obs.emit("cache.stall", core=core.cid, cycles=cycles, line=line_no,
                     why=why, start=self.sim.now - cycles)

    def _charge_stall_fence(self, core: Core, cycles: int, why: str) -> None:
        if cycles <= 0:
            return
        core.stall_fence += cycles
        obs = self.sim.obs
        if obs is not None:
            obs.emit("fence.stall", core=core.cid, cycles=cycles, why=why,
                     start=self.sim.now - cycles)

    def _load_transition(self, entry: _Line, cid: int) -> str:
        if entry.owner is not None and entry.owner != cid:
            return "M->S"
        if entry.sharers:
            return "S->S"
        return "mem->S"

    def _store_transition(self, entry: _Line, cid: int) -> str:
        if entry.owner is not None and entry.owner != cid:
            return "M->M"
        if entry.sharers.others(cid):
            return "inv"
        if cid in entry.sharers:
            return "upgrade"
        return "mem->M"

    def _emit_invals(self, obs, entry: _Line, line_no: int, by) -> None:
        """Publish one ``cache.inval`` per core losing its copy."""
        if entry.owner is not None and entry.owner != by:
            obs.emit("cache.inval", core=entry.owner, line=line_no, by=by)
        for s in entry.sharers:
            if s != by:
                obs.emit("cache.inval", core=s, line=line_no, by=by)

    # -- address helpers ---------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self._line_words

    def home_node(self, line: int) -> int:
        """The mesh node homing this line's directory entry (hashed)."""
        return line % self._num_nodes

    def _line(self, line: int) -> _Line:
        entry = self._lines.get(line)
        if entry is None:
            entry = _Line(self.sim, line, self._geo)
            self._lines[line] = entry
            if len(self._lines) > self.peak_entries:
                self.peak_entries = len(self._lines)
        return entry

    # -- raw value access (zero-cost; for setup and invariant checks) ------
    def peek(self, addr: int) -> int:
        return self.store_backing.read(addr)

    def poke(self, addr: int, value: int) -> None:
        """Initialize memory outside simulated time (setup only)."""
        self.store_backing.write(addr, value)

    def alloc(self, nwords: int, *, isolated: bool = False) -> int:
        return self.allocator.alloc(nwords, isolated=isolated)

    # -- private-memory discipline (message-passing-only profiles) ---------
    def _private_check(self, core: Core, line_no: int, what: str) -> None:
        owner = self._private_owner.setdefault(line_no, core.cid)
        if owner != core.cid:
            raise RuntimeError(
                f"no coherent shared memory on {self.cfg.name!r}: line "
                f"{line_no} is private to core {owner}, but core "
                f"{core.cid} issued a {what}; use message passing instead"
            )

    # -- core operations (generators; drive with ``yield from``) -----------
    def load(self, core: Core, addr: int) -> Generator[Any, Any, int]:
        """Coherent 64-bit load; returns the value."""
        core.loads += 1
        line_no = addr // self._line_words
        if not self._coherent:
            self._private_check(core, line_no, "load")
            c = self._c_hit
            core.busy += c
            yield c
            return self._words.get(addr, 0)
        entry = self._lines.get(line_no)
        cid = core.cid
        # join an in-flight prefetch for this line, if any (MSHR hit):
        # stall only for the remaining transfer time
        if self._prefetches:
            pending = self._prefetches.get((cid, line_no))
            if pending is not None and not pending.triggered:
                t0 = self.sim.now
                yield pending
                self._charge_stall_mem(core, self.sim.now - t0, line_no, "mshr")
                entry = self._lines.get(line_no)
        if entry is not None and (entry.owner == cid or cid in entry.sharers):
            # cache hit
            c = self._c_hit
            core.busy += c
            yield c
            return self._words.get(addr, 0)
        # miss: RMR
        entry = self._line(line_no)
        core.rmr += 1
        t0 = self.sim.now
        yield from entry.res.acquire()
        try:
            # recheck: an own in-flight store transaction queued ahead of
            # us may have taken ownership while we waited
            if entry.owner == cid or cid in entry.sharers:
                latency = occupancy = 0
            else:
                latency = self._load_latency(entry, line_no, cid)
                obs = self.sim.obs
                if obs is not None:
                    obs.emit("cache.miss", core=cid, line=line_no, op="load",
                             transition=self._load_transition(entry, cid),
                             latency=latency)
                # The directory orders the read and answers quickly; the
                # data transfer itself is pipelined, so the read holds
                # the entry only briefly and concurrent readers do not
                # serialize for the full transfer.
                occupancy = min(self.cfg.c_dir_read_occupancy, latency)
                if occupancy:
                    yield occupancy
                # downgrade an owner, install as sharer
                if entry.owner is not None and entry.owner != cid:
                    entry.sharers.add(entry.owner)
                    entry.owner = None
                entry.sharers.add(cid)
        finally:
            entry.res.release()
        remainder = latency - occupancy
        if remainder > 0:
            yield remainder
        # the value is observed when the data arrives -- reading it at
        # completion (not at the ordering point) keeps the load's result
        # consistent with any wakeup notifications fired in between
        value = self.store_backing.read(addr)
        self._charge_stall_mem(core, self.sim.now - t0, line_no, "load")
        self._check_swmr(entry)
        return value

    def prefetch(self, core: Core, addr: int) -> Generator[Any, Any, None]:
        """Start fetching a line in the background (software prefetch).

        Costs one issue cycle and never stalls.  A later ``load`` of the
        same line joins the in-flight fetch (paying only the remaining
        transfer time), which is how the servicing loops overlap the
        next request's RMR with the current critical section -- the
        paper's explanation for Figure 4c's shrinking overhead.
        """
        core.busy += 1
        yield 1
        if not self.cfg.has_coherent_shm:
            return  # private memory is always local; nothing to fetch
        line_no = self.line_of(addr)
        entry = self._lines.get(line_no)
        cid = core.cid
        if entry is not None and (entry.owner == cid or cid in entry.sharers):
            return  # already cached
        if (cid, line_no) in self._prefetches:
            return  # already in flight
        done = Event(self.sim)
        self._prefetches[(cid, line_no)] = done
        self.sim.spawn(self._prefetch_txn(core, line_no, cid, done),
                       name=f"prefetch-c{cid}-l{line_no}")

    def _prefetch_txn(self, core: Core, line_no: int, cid: int, done) -> Generator:
        entry = self._line(line_no)
        yield from entry.res.acquire()
        try:
            if entry.owner == cid or cid in entry.sharers:
                latency = occupancy = 0
            else:
                latency = self._load_latency(entry, line_no, cid)
                obs = self.sim.obs
                if obs is not None:
                    obs.emit("cache.miss", core=cid, line=line_no, op="prefetch",
                             transition=self._load_transition(entry, cid),
                             latency=latency)
                occupancy = min(self.cfg.c_dir_read_occupancy, latency)
                if occupancy:
                    yield occupancy
                if entry.owner is not None and entry.owner != cid:
                    entry.sharers.add(entry.owner)
                    entry.owner = None
                entry.sharers.add(cid)
        finally:
            entry.res.release()
        remainder = latency - occupancy
        if remainder > 0:
            yield remainder
        del self._prefetches[(cid, line_no)]
        done.trigger()

    def _load_latency(self, entry: _Line, line_no: int, cid: int) -> int:
        cfg = self.cfg
        mesh = self.mesh
        node = self.cores[cid].node
        home = self.home_node(line_no)
        if entry.owner is not None and entry.owner != cid:
            # 3-hop: requester -> home -> owner -> requester
            owner_node = self.cores[entry.owner].node
            hops = mesh.hops(node, home) + mesh.hops(home, owner_node) + mesh.hops(owner_node, node)
            return cfg.c_remote_base + cfg.noc_per_hop * hops
        if entry.sharers:
            # clean copy at home/L3
            return cfg.c_remote_base + cfg.noc_per_hop * 2 * mesh.hops(node, home)
        # from memory
        return cfg.c_mem_base + cfg.noc_per_hop * 2 * mesh.hops(node, home)

    def store(self, core: Core, addr: int, value: int) -> Generator[Any, Any, None]:
        """Coherent 64-bit store through a one-entry merging store buffer.

        A store hit in an owned line is immediate.  A store miss issues
        in one cycle, commits its value, and drains in the background
        (the ownership transaction runs as a separate simulator
        process); the core only stalls when the buffer is still draining
        a *different* line -- further stores to the draining line merge
        for free.  This is what lets a servicing thread's response write
        (W(i) of Figure 1) overlap the next critical section, and what a
        fence has to wait for.
        """
        core.stores += 1
        line_no = addr // self._line_words
        if not self._coherent:
            self._private_check(core, line_no, "store")
            c = self._c_hit
            core.busy += c
            yield c
            self._words[addr] = value & WORD_MASK
            self.wake_line(line_no)  # wake same-core siblings
            return
        entry = self._lines.get(line_no)
        cid = core.cid
        if entry is not None and entry.owner == cid:
            # write hit in M (entry.notify() inlined: wake any spinners)
            c = self._c_hit
            core.busy += c
            yield c
            self._words[addr] = value & WORD_MASK
            cond = entry._cond
            if cond is not None:
                cond.notify_all()
            return
        while True:
            pending = self._sb_event.get(cid)
            if pending is None or pending.triggered:
                break
            if self._sb_line.get(cid) == line_no:
                # merge into the draining entry (its transaction will
                # publish this value's visibility when it completes)
                c = self._c_hit
                core.busy += c
                yield c
                self._words[addr] = value & WORD_MASK
                return
            # buffer full with another line: wait for the drain, then
            # re-check -- an oversubscribed sibling thread sharing this
            # core may have refilled the buffer in the meantime
            t0 = self.sim.now
            yield pending
            self._charge_stall_mem(core, self.sim.now - t0, line_no, "store_buffer")
        core.rmr += 1
        c = self._c_hit
        core.busy += c
        yield c
        self._words[addr] = value & WORD_MASK
        done = Event(self.sim)
        self._sb_line[cid] = line_no
        self._sb_event[cid] = done
        self.sim.spawn(self._store_txn(line_no, cid, done),
                       name=f"store-txn-c{cid}-l{line_no}")

    def _store_txn(self, line_no: int, cid: int, done) -> Generator:
        """Background ownership acquisition for a buffered store miss.

        Looks the entry up at transaction start (not at issue time): a
        remote atomic may have invalidated-to-clean and reclaimed the
        entry in the issue->drain window, and mutating a reclaimed
        orphan would lose the ownership this transaction installs.
        """
        entry = self._line(line_no)
        yield from entry.res.acquire()
        try:
            if entry.owner != cid:
                latency = self._store_latency(entry, line_no, cid)
                obs = self.sim.obs
                if obs is not None:
                    obs.emit("cache.miss", core=cid, line=line_no, op="store",
                             transition=self._store_transition(entry, cid),
                             latency=latency)
                    self._emit_invals(obs, entry, line_no, cid)
                if latency:
                    yield latency
                entry.sharers.clear()
                entry.owner = cid
        finally:
            entry.res.release()
        done.trigger()
        entry.notify()
        self._check_swmr(entry)

    def drain_store_buffer(self, core: Core) -> Generator[Any, Any, None]:
        """Block until the core's store buffer is empty (fence helper)."""
        pending = self._sb_event.get(core.cid)
        if pending is not None and not pending.triggered:
            t0 = self.sim.now
            yield pending
            self._charge_stall_fence(core, self.sim.now - t0, "drain")

    def _store_latency(self, entry: _Line, line_no: int, cid: int) -> int:
        cfg = self.cfg
        mesh = self.mesh
        node = self.cores[cid].node
        home = self.home_node(line_no)
        if entry.owner is not None and entry.owner != cid:
            owner_node = self.cores[entry.owner].node
            hops = mesh.hops(node, home) + mesh.hops(home, owner_node) + mesh.hops(owner_node, node)
            return cfg.c_remote_base + cfg.noc_per_hop * hops
        if entry.sharers.others(cid):
            # invalidate sharers: round trip to home + farthest sharer ack
            far = entry.sharers.farthest_hop(home, exclude=cid)
            return cfg.c_remote_base + cfg.noc_per_hop * (2 * mesh.hops(node, home) + far)
        if cid in entry.sharers:
            # upgrade S -> M: permission round trip to home only
            return cfg.c_remote_base + cfg.noc_per_hop * 2 * mesh.hops(node, home)
        return cfg.c_mem_base + cfg.noc_per_hop * 2 * mesh.hops(node, home)

    def fence(self, core: Core) -> Generator[Any, Any, None]:
        """Memory fence: fixed pipeline cost plus a store-buffer drain."""
        if not self.cfg.has_coherent_shm:
            yield self.cfg.c_fence
            self._charge_stall_fence(core, self.cfg.c_fence, "fence")
            return
        c = self.cfg.c_fence
        yield c
        self._charge_stall_fence(core, c, "fence")
        yield from self.drain_store_buffer(core)

    def spin_until(
        self, core: Core, addr: int, pred: Callable[[int], bool]
    ) -> Generator[Any, Any, int]:
        """Local spinning: block until ``pred(value_at(addr))`` holds.

        Charges one load (possibly an RMR) up front, then sleeps until a
        writer invalidates the line, re-fetches (another RMR) and
        re-checks.  Time asleep counts as ``wait`` (the core is polling
        its own cache -- no interconnect traffic, no stall).
        """
        value = yield from self.load(core, addr)
        while not pred(value):
            entry = self._line(self.line_of(addr))
            t0 = self.sim.now
            yield entry.wait_cond(self.sim).wait()
            core.wait += self.sim.now - t0
            value = yield from self.load(core, addr)
        return value

    # -- atomics (delegated to the attached executor) -----------------------
    # faa/swap only count and forward: they return the executor's generator
    def faa(self, core: Core, addr: int, delta: int) -> Generator[Any, Any, int]:
        """Fetch-and-add; returns the previous value."""
        core.faa_ops += 1
        return self.atomics.rmw(core, addr, lambda v: (v + delta) & WORD_MASK)

    def swap(self, core: Core, addr: int, value: int) -> Generator[Any, Any, int]:
        """Atomic exchange; returns the previous value."""
        core.swap_ops += 1
        return self.atomics.rmw(core, addr, lambda v: value & WORD_MASK)

    def cas(self, core: Core, addr: int, expected: int, new: int) -> Generator[Any, Any, bool]:
        """Compare-and-set; returns True on success (the boolean variant)."""
        core.cas_ops += 1
        box = {}

        def op(v: int) -> int:
            if v == (expected & WORD_MASK):
                box["ok"] = True
                return new & WORD_MASK
            box["ok"] = False
            return v

        yield from self.atomics.rmw(core, addr, op)
        if not box["ok"]:
            core.cas_failures += 1
            obs = self.sim.obs
            if obs is not None:
                obs.emit("atomic.cas_fail", core=core.cid, line=self.line_of(addr))
        return box["ok"]

    # -- hooks used by the atomics executor ---------------------------------
    def invalidate_all(self, line_no: int) -> None:
        """Drop every cached copy of a line (atomic executed remotely).

        Invalidate-to-clean is also the reclamation point of the lazy
        directory: a clean entry with no transaction holding or queued
        on its resource and no spinner registered is indistinguishable
        from an absent one (a later touch rematerializes the identical
        empty state), so it is dropped to keep the live directory
        proportional to the *hot* working set, not to every line ever
        touched.
        """
        entry = self._lines.get(line_no)
        if entry is not None:
            obs = self.sim.obs
            if obs is not None and (entry.owner is not None or entry.sharers):
                self._emit_invals(obs, entry, line_no, None)
            entry.owner = None
            entry.sharers.clear()
            entry.notify()  # empties the waiter list before the idle check
            if entry.idle:
                del self._lines[line_no]

    def wake_line(self, line_no: int) -> None:
        entry = self._lines.get(line_no)
        if entry is not None:
            entry.notify()

    def line_resource(self, line_no: int) -> Resource:
        return self._line(line_no).res

    def cached_state(self, cid: int, addr: int) -> Optional[str]:
        """This core's state for the line of ``addr`` (None = Invalid)."""
        entry = self._lines.get(self.line_of(addr))
        if entry is None:
            return None
        if entry.owner == cid:
            return LineState.M
        if cid in entry.sharers:
            return LineState.S
        return None

    # -- footprint accounting ------------------------------------------------
    def directory_stats(self) -> Dict[str, int]:
        """Model-level directory bookkeeping sizes (deterministic).

        Byte figures use the nominal cost model of
        :mod:`repro.mem.sharers` rather than ``sys.getsizeof`` so the
        footprint benchmarks gate identically across Python versions.
        """
        entries = len(self._lines)
        sharer_bytes = 0
        max_line_bytes = 0
        for entry in self._lines.values():
            b = entry.sharers.nominal_bytes()
            sharer_bytes += b
            line_bytes = ENTRY_BASE_BYTES + b
            if line_bytes > max_line_bytes:
                max_line_bytes = line_bytes
        return {
            "entries": entries,
            "peak_entries": self.peak_entries,
            "nominal_bytes": entries * ENTRY_BASE_BYTES + sharer_bytes,
            "max_line_bytes": max_line_bytes,
        }

    # -- invariants ----------------------------------------------------------
    def _check_swmr(self, entry: _Line) -> None:
        if self.cfg.debug_checks:
            assert not (entry.owner is not None and entry.sharers), (
                "SWMR violated: owner and sharers coexist"
            )

    def check_all_swmr(self) -> None:
        """Assert the SWMR invariant over every line (test hook)."""
        for line_no, entry in self._lines.items():
            assert not (entry.owner is not None and entry.sharers), (
                f"SWMR violated on line {line_no}: owner={entry.owner}, sharers={entry.sharers}"
            )
