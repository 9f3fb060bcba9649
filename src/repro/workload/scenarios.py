"""Assembled benchmark scenarios: counter, variable-length CS, queue, stack.

These are the entry points behind every figure and the public
quickstart.  Each function builds a fresh machine with the requested
profile, builds the approach and its client placement from the one
approach table (:data:`APPROACH_TABLE`, via :func:`build_approach`),
instantiates the concurrent object and runs the Section 5.2 loop via
:func:`~repro.workload.driver.run_workload`.

Implementation labels follow the paper's legends:

* counter / CS-length: ``mp-server``, ``HybComb``, ``shm-server``,
  ``CC-Synch``;
* queue (Figure 5a): ``mp-server-1``, ``HybComb-1``, ``shm-server-1``,
  ``CC-Synch-1`` (one-lock MS-Queue), ``mp-server-2`` (two-lock, two
  dedicated servers) and ``LCRQ``;
* stack (Figure 5b): the four approaches plus ``Treiber``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.core import CCSynch, FlatCombining, HybComb, MPServer, OpTable, ShmServer
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
    "APPROACH_TABLE",
    "QUEUE_IMPLS",
    "STACK_IMPLS",
    "build_approach",
    "num_servers",
    "run_counter_benchmark",
    "run_cs_length_benchmark",
    "run_fault_recovery_benchmark",
    "run_queue_benchmark",
    "run_stack_benchmark",
]


class Approach(NamedTuple):
    """One row of the approach table."""

    ctor: Callable[..., SyncPrimitive]
    #: constructor arguments fixed for this label
    kwargs: Mapping[str, Any]
    #: low tids the label's server threads reserve (0 for combiners)
    servers: int


#: Every approach label and how to build it.  Placement per Section 5.2:
#: "thread i is pinned to core i.  With server-based approaches the
#: server code is executed by thread 0, and other threads execute
#: application code" -- so servers take tids 0..servers-1 and clients
#: the tids right above them.
APPROACH_TABLE: Dict[str, Approach] = {
    "mp-server": Approach(MPServer, {"server_tid": 0}, 1),
    # fault-tolerant mode: hot standby on thread/core 1 (repro.core.mp_server)
    "mp-server-ft": Approach(MPServer, {
        "server_tid": 0, "server_core": 0, "backup_tid": 1, "backup_core": 1,
        "request_timeout": 2_000}, 2),
    "shm-server": Approach(ShmServer, {"server_tid": 0}, 1),
    # the withdrawable-request protocol: timed dispatches race the server
    # for the claim word (repro.core.shm_server)
    "shm-server-cancel": Approach(ShmServer, {"server_tid": 0,
                                              "cancellable": True}, 1),
    "HybComb": Approach(HybComb, {}, 0),
    # combiner leases with takeover (repro.core.hybcomb)
    "HybComb-lease": Approach(HybComb, {"lease_cycles": 3_000,
                                        "request_timeout": 6_000}, 0),
    "CC-Synch": Approach(CCSynch, {}, 0),
    "flat-combining": Approach(FlatCombining, {}, 0),
}

#: the constructors that take MAX_OPS (and a permanent combiner)
_COMBINERS = (HybComb, CCSynch)


def _approach(name: str) -> Approach:
    try:
        return APPROACH_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown approach {name!r}; pick one of "
                         f"{', '.join(APPROACH_TABLE)}") from None


def num_servers(name: str) -> int:
    """Low tids the servers of approach ``name`` reserve (0 for combiners)."""
    return _approach(name).servers


def build_approach(
    name: str,
    machine: Machine,
    optable: OpTable,
    num_threads: int,
    *,
    max_ops: Optional[int] = 200,
    request_timeout: Optional[int] = None,
) -> Tuple[SyncPrimitive, List[int]]:
    """Create an approach by its label; returns (prim, app_tids).

    ``max_ops`` applies to HybComb and CC-Synch; ``None`` makes thread 0
    a permanent combiner (footnote 4: "equivalent to setting MAX_OPS =
    inf") that reserves tid 0 like a server.  ``request_timeout``, when
    given, replaces the table's client timeout on the labels that have
    one.  Other labels ignore both.
    """
    ctor, fixed, servers = _approach(name)
    kwargs = dict(fixed)
    if ctor in _COMBINERS:
        if max_ops is None:
            kwargs["fixed_combiner_tid"] = 0
            servers = 1
        else:
            kwargs["max_ops"] = max_ops
    if request_timeout is not None and "request_timeout" in kwargs:
        kwargs["request_timeout"] = request_timeout
    limit = machine.cfg.num_cores
    if servers + num_threads > limit:
        raise ValueError(f"{num_threads} threads + {servers} server(s) "
                         f"exceed {limit} cores")
    tids = list(range(servers, servers + num_threads))
    if ctor is ShmServer:
        kwargs["client_tids"] = tids
    return ctor(machine, optable, **kwargs), tids


#: the four approaches of the evaluation, in the paper's legend order
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
    machine = _fresh_machine(cfg)
    prim, tids = build_approach(approach, machine, OpTable(), num_threads,
                                max_ops=None if fixed_combiner else max_ops)
    return _counter_run(machine, prim, tids, spec, fault_plan, approach)


def _counter_run(machine: Machine, prim: SyncPrimitive, tids: List[int],
                 spec: Optional[WorkloadSpec], fault_plan: Optional[FaultPlan],
                 name: str) -> RunResult:
    """The counter loop on a built approach, with optional faults."""
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    if fault_plan:
        FaultInjector(machine, fault_plan).install()

    def make_op(ctx: ThreadCtx):
        return lambda k: counter.increment(ctx)

    return run_workload(machine, ctxs, make_op, spec or WorkloadSpec(),
                        name=name, prim=prim)


# ---------------------------------------------------------------------------
# fault recovery (robustness extension; the disc-faults experiment)
# ---------------------------------------------------------------------------

def run_fault_recovery_benchmark(
    num_clients: int = 8,
    *,
    spec: Optional[WorkloadSpec] = None,
    cfg: Optional[MachineConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> RunResult:
    """Contended counter on fault-tolerant MP-SERVER with a hot standby.

    The table's ``mp-server-ft`` row: thread 0 / core 0 run the primary
    server, thread 1 / core 1 the backup, clients occupy threads 2.. and
    time out after 2 000 cycles.  ``fault_plan`` typically crashes
    the primary mid-window: clients time out, back off, fail over to the
    backup, and the run completes with recovery metrics in the result.
    """
    machine = _fresh_machine(cfg)
    prim, tids = build_approach("mp-server-ft", machine, OpTable(), num_clients)
    name = "mp-server-ft" + ("-faulty" if fault_plan else "")
    return _counter_run(machine, prim, tids, spec, fault_plan, name)


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
