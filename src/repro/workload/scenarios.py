"""Assembled benchmark scenarios: counter, variable-length CS, queue, stack.

These are the entry points behind every figure and the public
quickstart.  Each function builds a fresh machine with the requested
profile, instantiates the approach and the concurrent object, applies
the paper's thread-placement rules (server thread = thread 0 on core 0,
application threads pinned in ascending core order) and runs the
Section 5.2 loop via :func:`~repro.workload.driver.run_workload`.

Implementation labels follow the paper's legends:

* counter / CS-length: ``mp-server``, ``HybComb``, ``shm-server``,
  ``CC-Synch``;
* queue (Figure 5a): ``mp-server-1``, ``HybComb-1``, ``shm-server-1``,
  ``CC-Synch-1`` (one-lock MS-Queue), ``mp-server-2`` (two-lock, two
  dedicated servers) and ``LCRQ``;
* stack (Figure 5b): the four approaches plus ``Treiber``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import CCSynch, HybComb, MPServer, OpTable, ShmServer
from repro.core.api import SyncPrimitive
from repro.faults import FaultInjector, FaultPlan
from repro.machine import Machine, MachineConfig, tile_gx
from repro.machine.machine import ThreadCtx
from repro.objects import (
    EMPTY,
    LCRQ,
    ArrayCS,
    LockedCounter,
    LockedStack,
    OneLockMSQueue,
    TreiberStack,
    TwoLockMSQueue,
)
from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.metrics import RunResult

__all__ = [
    "APPROACH_BUILDERS",
    "QUEUE_IMPLS",
    "STACK_IMPLS",
    "build_approach",
    "run_counter_benchmark",
    "run_cs_length_benchmark",
    "run_fault_recovery_benchmark",
    "run_queue_benchmark",
    "run_stack_benchmark",
]

def build_approach(
    name: str,
    machine: Machine,
    optable: OpTable,
    num_threads: int,
    *,
    max_ops: int = 200,
) -> Tuple[SyncPrimitive, List[int]]:
    """Create an approach by its paper label; returns (prim, app_tids).

    Placement per Section 5.2: "thread i is pinned to core i.  With
    server-based approaches the server code is executed by thread 0, and
    other threads execute application code."
    """
    limit = machine.cfg.num_cores
    if name == "mp-server":
        if num_threads + 1 > limit:
            raise ValueError(f"{num_threads} clients + server exceed {limit} cores")
        prim = MPServer(machine, optable, server_tid=0)
        tids = list(range(1, num_threads + 1))
    elif name == "shm-server":
        if num_threads + 1 > limit:
            raise ValueError(f"{num_threads} clients + server exceed {limit} cores")
        prim = ShmServer(machine, optable, server_tid=0,
                         client_tids=range(1, num_threads + 1))
        tids = list(range(1, num_threads + 1))
    elif name == "HybComb":
        if num_threads > limit:
            raise ValueError(f"{num_threads} threads exceed {limit} cores")
        prim = HybComb(machine, optable, max_ops=max_ops)
        tids = list(range(num_threads))
    elif name == "CC-Synch":
        if num_threads > limit:
            raise ValueError(f"{num_threads} threads exceed {limit} cores")
        prim = CCSynch(machine, optable, max_ops=max_ops)
        tids = list(range(num_threads))
    else:
        raise ValueError(f"unknown approach {name!r}; pick one of "
                         "mp-server / HybComb / shm-server / CC-Synch")
    return prim, tids


APPROACH_BUILDERS = ("mp-server", "HybComb", "shm-server", "CC-Synch")
QUEUE_IMPLS = ("mp-server-1", "HybComb-1", "shm-server-1", "CC-Synch-1",
               "mp-server-2", "LCRQ")
STACK_IMPLS = ("mp-server", "HybComb", "shm-server", "CC-Synch", "Treiber")


def _fresh_machine(cfg: Optional[MachineConfig]) -> Machine:
    return Machine(cfg if cfg is not None else tile_gx())


# ---------------------------------------------------------------------------
# counter (Figures 3a, 3b, 3c, 4a, 4b)
# ---------------------------------------------------------------------------

def run_counter_benchmark(
    approach: str = "mp-server",
    num_threads: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
    fixed_combiner: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """The Section 5.3 microbenchmark: a contended concurrent counter.

    ``fixed_combiner=True`` reproduces the Figure 4a methodology
    (MAX_OPS effectively infinite, so one thread keeps the combiner role
    and its core's counters isolate the servicing critical path).

    ``fault_plan`` injects faults (see :mod:`repro.faults`) into the run;
    an empty plan leaves the run bit-for-bit unchanged.
    """
    spec = spec or WorkloadSpec()
    machine = _fresh_machine(cfg)
    optable = OpTable()
    if fixed_combiner and approach in ("HybComb", "CC-Synch"):
        # footnote 4: a permanent combiner on thread 0 (= MAX_OPS inf);
        # application threads are 1..T, like the server approaches
        cls = HybComb if approach == "HybComb" else CCSynch
        prim = cls(machine, optable, fixed_combiner_tid=0)
        tids = list(range(1, num_threads + 1))
    else:
        prim, tids = build_approach(approach, machine, optable, num_threads,
                                    max_ops=max_ops)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    if fault_plan is not None and fault_plan:
        FaultInjector(machine, fault_plan).install()

    def make_op(ctx: ThreadCtx):
        return lambda k: counter.increment(ctx)

    return run_workload(machine, ctxs, make_op, spec, name=approach, prim=prim)


# ---------------------------------------------------------------------------
# fault recovery (robustness extension; the disc-faults experiment)
# ---------------------------------------------------------------------------

def run_fault_recovery_benchmark(
    num_clients: int = 8,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    request_timeout: int = 2_000,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """Contended counter on fault-tolerant MP-SERVER with a hot standby.

    Thread 0 / core 0 run the primary server, thread 1 / core 1 the
    backup; clients occupy threads 2..  ``fault_plan`` typically crashes
    the primary mid-window: clients time out, back off, fail over to the
    backup, and the run completes with recovery metrics in the result.
    """
    spec = spec or WorkloadSpec()
    machine = _fresh_machine(cfg)
    if num_clients + 2 > machine.cfg.num_cores:
        raise ValueError(
            f"{num_clients} clients + two servers exceed "
            f"{machine.cfg.num_cores} cores"
        )
    optable = OpTable()
    prim = MPServer(machine, optable, server_tid=0, server_core=0,
                    backup_tid=1, backup_core=1,
                    request_timeout=request_timeout)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in range(2, num_clients + 2)]
    if fault_plan is not None and fault_plan:
        FaultInjector(machine, fault_plan).install()

    def make_op(ctx: ThreadCtx):
        return lambda k: counter.increment(ctx)

    name = "mp-server-ft" + ("-faulty" if fault_plan else "")
    return run_workload(machine, ctxs, make_op, spec, name=name, prim=prim)


def run_cs_length_benchmark(
    approach: str,
    num_threads: int,
    cs_iterations: int,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 4c: a CS that increments array elements in a loop."""
    spec = spec or WorkloadSpec()
    machine = _fresh_machine(cfg)
    optable = OpTable()
    prim, tids = build_approach(approach, machine, optable, num_threads, max_ops=max_ops)
    arr = ArrayCS(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]

    def make_op(ctx: ThreadCtx):
        return lambda k: arr.run(ctx, cs_iterations)

    result = run_workload(machine, ctxs, make_op, spec, name=approach, prim=prim)
    result.extra["cs_iterations"] = cs_iterations
    return result


# ---------------------------------------------------------------------------
# queue (Figure 5a)
# ---------------------------------------------------------------------------

def run_queue_benchmark(
    impl: str = "mp-server-1",
    num_clients: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 5a: 64-bit-value queues under balanced load.

    Balanced load: every client alternates enqueue and dequeue, so over
    any window enqueues and dequeues are issued in equal numbers.
    Values are kept below 2^31 so the same workload drives LCRQ (the
    paper's 32-bit port).
    """
    spec = spec or WorkloadSpec()
    machine = _fresh_machine(cfg)
    prim = None
    limit = machine.cfg.num_cores

    if impl == "mp-server-2":
        if num_clients + 2 > limit:
            raise ValueError(f"{num_clients} clients + two servers exceed {limit} cores")
        enq_prim = MPServer(machine, OpTable(), server_tid=0, server_core=0)
        deq_prim = MPServer(machine, OpTable(), server_tid=1, server_core=1)
        queue = TwoLockMSQueue(enq_prim, deq_prim)
        enq_prim.start()
        deq_prim.start()
        tids = list(range(2, num_clients + 2))
    elif impl == "LCRQ":
        if num_clients > limit:
            raise ValueError(f"{num_clients} clients exceed {limit} cores")
        queue = LCRQ(machine)
        tids = list(range(num_clients))
    else:
        base = impl[:-2] if impl.endswith("-1") else impl
        optable = OpTable()
        prim, tids = build_approach(base, machine, optable, num_clients, max_ops=max_ops)
        queue = OneLockMSQueue(prim)
        prim.start()

    ctxs = [machine.thread(tid) for tid in tids]
    empties = {"n": 0}

    def make_op(ctx: ThreadCtx):
        state = {"k": 0}
        vbase = (ctx.tid + 1) << 16

        def op(k: int):
            if state["k"] % 2 == 0:
                yield from queue.enqueue(ctx, vbase | (state["k"] // 2 & 0xFFFF))
            else:
                v = yield from queue.dequeue(ctx)
                if v == EMPTY:
                    empties["n"] += 1
            state["k"] += 1
        return op

    result = run_workload(machine, ctxs, make_op, spec, name=impl, prim=prim)
    result.extra["empty_dequeues"] = empties["n"]
    return result


# ---------------------------------------------------------------------------
# stack (Figure 5b)
# ---------------------------------------------------------------------------

def run_stack_benchmark(
    impl: str = "mp-server",
    num_clients: int = 16,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    max_ops: int = 200,
) -> RunResult:
    """Figure 5b: coarse-lock stacks vs Treiber under balanced load."""
    spec = spec or WorkloadSpec()
    machine = _fresh_machine(cfg)
    prim = None

    if impl == "Treiber":
        if num_clients > machine.cfg.num_cores:
            raise ValueError("too many clients")
        stack = TreiberStack(machine)
        tids = list(range(num_clients))
    else:
        optable = OpTable()
        prim, tids = build_approach(impl, machine, optable, num_clients, max_ops=max_ops)
        stack = LockedStack(prim)
        prim.start()

    ctxs = [machine.thread(tid) for tid in tids]
    empties = {"n": 0}

    def make_op(ctx: ThreadCtx):
        state = {"k": 0}
        vbase = (ctx.tid + 1) << 16

        def op(k: int):
            if state["k"] % 2 == 0:
                yield from stack.push(ctx, vbase | (state["k"] // 2 & 0xFFFF))
            else:
                v = yield from stack.pop(ctx)
                if v == EMPTY:
                    empties["n"] += 1
            state["k"] += 1
        return op

    result = run_workload(machine, ctxs, make_op, spec, name=impl, prim=prim)
    result.extra["empty_pops"] = empties["n"]
    return result
