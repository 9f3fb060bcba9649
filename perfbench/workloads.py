"""The benchmark's workloads, assembled from the library's public constructors.

Each workload is a list of *points*.  A point is built in two steps so
set-up and simulation are timed apart:

1. ``build_*(...)`` constructs the machine, the synchronization
   approach, the object and the threads (the benchmark's set-up);
2. ``point.drive()`` simulates warm-up plus measurement window through
   :func:`~repro.workload.driver.run_workload` or
   :func:`~repro.workload.openloop.run_openloop_workload`;
3. ``point.finish(result)`` checks the outputs and reads the public
   counters (untimed).

Every point uses the 1.2 GHz TILE-Gx cost model (``tile_gx()``, or the
same calibration on a 16x16 mesh via ``mesh_profile``).  The windows are
sized so that every point completes at least 1000 ops in its
measurement window, which puts at least ten samples above the p99.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core import OpTable
from repro.core.locks import MCSLock
from repro.experiments.overload import (
    DISPATCH_TIMEOUT,
    NUM_CLIENTS,
    QUEUE_CAPACITY,
    SLO_CYCLES,
    overload_slos,
)
from repro.experiments.scale import run_scale_point
from repro.machine import Machine, MachineConfig, mesh_profile, tile_gx
from repro.machine.core import COUNTERS
from repro.machine.machine import ThreadCtx
from repro.objects import ArrayCS, LockedCounter
from repro.workload import (
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    RunResult,
    WorkloadSpec,
    run_counter_benchmark,
    run_cs_length_benchmark,
    run_openloop_workload,
    run_workload,
)
from repro.workload.scenarios import build_approach

__all__ = ["WORKLOADS", "Outcome", "Point", "Workload"]

#: Figure 4c's longest quick point: iterations per critical section
CS_ITERATIONS = 15


@dataclass
class Outcome:
    """What one simulated point produced, checked and summarized."""

    label: str
    result: RunResult
    #: ops completed over the whole run, warm-up included
    ops_total: int
    #: ops attempted in the measurement window, and those the workload
    #: itself failed (shed or timed out)
    attempted: int
    shed: int
    errors: List[str]
    #: whole-run totals of the public counters (cores, UDN, directory)
    counters: Dict[str, float]

    @property
    def failed(self) -> int:
        """A failed correctness check fails every op of the point."""
        return self.attempted if self.errors else self.shed

    def fingerprint(self) -> str:
        """Digest of every simulated result; equal runs give equal digests."""
        r = self.result
        parts = [r.ops, r.per_thread_ops, r.latency_samples,
                 r.service_cycles_per_op, r.combining_rate,
                 sorted(r.extra.items()), self.ops_total,
                 sorted(self.counters.items())]
        return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class Point:
    """One built benchmark point: call :meth:`drive`, then :meth:`finish`."""

    label: str
    machine: Machine
    drive: Callable[[], RunResult]
    #: correctness checks after the run; returns error strings
    check: Callable[[], List[str]]
    #: ops completed so far over the whole run
    ops_total: Callable[[], int]
    open_loop: bool = False

    def finish(self, result: RunResult) -> Outcome:
        machine = self.machine
        errors = list(self.check())
        try:
            machine.mem.check_all_swmr()
        except AssertionError as exc:
            errors.append(f"SWMR: {exc}")
        if self.open_loop:
            attempted = round(result.offered_mops * result.window_cycles
                              / result.clock_mhz)
            shed = result.shed_ops
        else:
            attempted, shed = result.ops, 0
        return Outcome(self.label, result, self.ops_total(), attempted,
                       shed, errors, _counters(machine))


def _counters(machine: Machine) -> Dict[str, float]:
    totals: Dict[str, float] = {name: 0 for name in COUNTERS}
    for core in machine.cores:
        for name in COUNTERS:
            totals[name] += getattr(core, name)
    totals["events"] = machine.sim.events_processed
    totals["udn_backpressure"] = (
        machine.udn.backpressure_cycles if machine.udn is not None else 0)
    directory = machine.mem.directory_stats()
    totals["dir_peak_entries"] = directory["peak_entries"]
    totals["dir_bytes"] = directory["nominal_bytes"]
    return totals


def within_one_per_thread(what: str, value: int, done: int, unit: int,
                           threads: int) -> List[str]:
    """``value`` must lie in ``[unit*done, unit*(done + threads)]``."""
    if unit * done <= value <= unit * (done + threads):
        return []
    return [f"{what} = {value}, expected {unit} x completed ops ({done}) "
            f"plus at most one op in flight per thread ({threads})"]


# ---------------------------------------------------------------------------
# closed-loop points
# ---------------------------------------------------------------------------

def _closed(label: str, machine: Machine, ctxs: List[ThreadCtx],
            body: Callable[[ThreadCtx], Generator], spec: WorkloadSpec,
            prim: Any, name: str,
            check: Callable[[int, int], List[str]]) -> Point:
    """A closed-loop point whose op closure counts its completions."""
    done = [0] * len(ctxs)
    slot = {ctx.tid: i for i, ctx in enumerate(ctxs)}

    def make_op(ctx: ThreadCtx):
        i = slot[ctx.tid]

        def op(k: int):
            yield from body(ctx)
            done[i] += 1
        return op

    def drive() -> RunResult:
        return run_workload(machine, ctxs, make_op, spec, name=name,
                            prim=prim)

    return Point(label, machine, drive,
                 lambda: check(sum(done), len(ctxs)), lambda: sum(done))


def build_counter(approach: str, threads: int, cfg: MachineConfig,
                  spec: WorkloadSpec) -> Point:
    """The contended counter (Figure 3a) on ``approach``."""
    machine = Machine(cfg)
    prim, tids = build_approach(approach, machine, OpTable(), threads)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    return _closed(
        f"{approach}/{threads}", machine, ctxs, counter.increment, spec,
        prim, approach,
        lambda done, n: within_one_per_thread(
            "counter value", counter.value(), done, 1, n))


def build_mcs_counter(cfg: MachineConfig, spec: WorkloadSpec) -> Point:
    """The counter under an MCS lock on every core (the scaling figure's
    ``mcs-lock`` series, allocated in the same order)."""
    machine = Machine(cfg)
    lock = MCSLock(machine)
    addr = machine.mem.alloc(1, isolated=True)
    ctxs = [machine.thread(t) for t in range(cfg.num_cores)]

    def increment(ctx: ThreadCtx) -> Generator[Any, Any, None]:
        yield from lock.acquire(ctx)
        v = yield from ctx.load(addr)
        yield from ctx.store(addr, v + 1)
        yield from lock.release(ctx)

    return _closed(
        f"mcs-lock/{cfg.num_cores}", machine, ctxs, increment, spec, None,
        "mcs-lock",
        lambda done, n: within_one_per_thread(
            "counter value", machine.mem.peek(addr), done, 1, n))


def build_array_cs(approach: str, threads: int, spec: WorkloadSpec) -> Point:
    """Figure 4c's array-increment critical section on ``approach``."""
    machine = Machine(tile_gx())
    prim, tids = build_approach(approach, machine, OpTable(), threads)
    arr = ArrayCS(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    return _closed(
        f"{approach}/{threads}", machine, ctxs,
        lambda ctx: arr.run(ctx, CS_ITERATIONS), spec, prim, approach,
        lambda done, n: within_one_per_thread(
            "ArrayCS.total_increments()", arr.total_increments(), done,
            CS_ITERATIONS, n))


# ---------------------------------------------------------------------------
# open-loop points
# ---------------------------------------------------------------------------

def admission(policy: str) -> AdmissionSpec:
    """The overload figure's admission policies."""
    if policy == "unbounded":
        return AdmissionSpec(policy="unbounded", slo_cycles=SLO_CYCLES)
    if policy == "retry":
        return AdmissionSpec(policy="retry", capacity=QUEUE_CAPACITY,
                             dispatch_timeout_cycles=DISPATCH_TIMEOUT,
                             breaker_threshold=4, slo_cycles=SLO_CYCLES)
    return AdmissionSpec(policy="drop", capacity=QUEUE_CAPACITY,
                         slo_cycles=SLO_CYCLES)


def build_overload(approach: str, policy: str, offered_mops: float,
                   warmup_cycles: int, measure_cycles: int, seed: int) -> Point:
    """Poisson arrivals at ``offered_mops`` into ``NUM_CLIENTS`` clients.

    The increment records the id of every op it executes, so the checks
    can prove exactly-once: no op runs twice, the counter equals the
    executions, and every dispatched op either ran, was shed after
    timing out, or is still in flight at the horizon.
    """
    machine = Machine(tile_gx())
    obs = machine.enable_observability(timeseries=True, slos=overload_slos())
    prim, tids = build_approach(approach, machine, OpTable(), NUM_CLIENTS)
    counter = LockedCounter(prim)
    executed: Counter = Counter()
    dispatched: set = set()
    timeout_sheds = [0]

    def inc_body(ctx: ThreadCtx, op_id: int) -> Generator[Any, Any, int]:
        v = yield from ctx.load(counter.addr)
        yield from ctx.store(counter.addr, v + 1)
        executed[op_id] += 1
        return v

    opcode = prim.optable.register(inc_body, "bench_inc")
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]

    def arg_of(ctx: ThreadCtx, k: int) -> int:
        op_id = (ctx.tid << 32) | k
        dispatched.add(op_id)
        return op_id

    def on_shed(_t: int, _kind: str, fields: Dict[str, Any]) -> None:
        if fields["reason"] == "timeout":
            timeout_sheds[0] += 1

    obs.bus.subscribe_kinds(("admit.shed",), on_shed)
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(
            process="poisson",
            mean_gap_cycles=len(ctxs) * machine.cfg.clock_mhz / offered_mops),
        admission=admission(policy),
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
        seed=seed)

    def check() -> List[str]:
        errors = []
        twice = sum(1 for n in executed.values() if n != 1)
        if twice:
            errors.append(f"{twice} ops executed more than once")
        if not dispatched.issuperset(executed):
            errors.append("an op executed that was never dispatched")
        runs = sum(executed.values())
        if counter.value() != runs:
            errors.append(f"counter value {counter.value()} != "
                          f"{runs} executed increments")
        unresolved = len(dispatched) - len(executed) - timeout_sheds[0]
        if not 0 <= unresolved <= len(ctxs):
            errors.append(
                f"{unresolved} dispatched ops neither ran nor were shed "
                f"(at most {len(ctxs)} may be in flight)")
        return errors

    def drive() -> RunResult:
        return run_openloop_workload(machine, ctxs, prim, opcode, spec,
                                     name=f"{approach}/{policy}",
                                     arg_of=arg_of)

    return Point(f"{approach}/{policy}@{offered_mops:g}Mops", machine, drive,
                 check, lambda: sum(executed.values()), open_loop=True)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """A named list of point builders, all taking the workload seed.

    ``reference`` maps a point index to the library runner that must
    reproduce its simulated result (the differential check).
    """

    name: str
    builders: List[Callable[[int], Point]]
    reference: Dict[int, Callable[[int], RunResult]] = field(
        default_factory=dict)

    def check_against_figures(self, seed: int,
                              outcomes: List[Outcome]) -> None:
        """Flag each point the library's figure runner does not reproduce."""
        for i, runner in sorted(self.reference.items()):
            mismatch = reference_mismatch(runner(seed), outcomes[i].result)
            if mismatch:
                outcomes[i].errors.append(mismatch)
            gc.collect()


def _closed_spec(warmup: int, measure: int,
                 scale: float) -> Callable[[int], WorkloadSpec]:
    return lambda seed: WorkloadSpec(warmup_cycles=int(warmup * scale),
                                     measure_cycles=int(measure * scale),
                                     seed=seed)


def _mp_counter(scale: float) -> Workload:
    # HybComb's tail is set by its ~20-op combining sessions; a 240k-cycle
    # window spans ~80 sessions, which keeps its p99 steady across seeds
    spec = _closed_spec(20_000, 240_000, scale)
    return Workload("mp-counter", [
        lambda s: build_counter("mp-server", 35, tile_gx(), spec(s)),
        lambda s: build_counter("HybComb", 36, tile_gx(), spec(s)),
    ], {
        0: lambda s: run_counter_benchmark("mp-server", 35, spec=spec(s)),
        1: lambda s: run_counter_benchmark("HybComb", 36, spec=spec(s)),
    })


def _cc_counter_256(scale: float) -> Workload:
    # 256 threads queue behind one line: an MCS op waits ~60k cycles for
    # the other 255, so an 80k-cycle warm-up lets every thread finish an
    # op before the window, and 240k cycles give the MCS lock (~5 Mops/s)
    # over 1000 ops
    spec = _closed_spec(80_000, 240_000, scale)
    return Workload("cc-counter-256", [
        lambda s: build_counter("CC-Synch", 256, mesh_profile(16, 16),
                                spec(s)),
        lambda s: build_mcs_counter(mesh_profile(16, 16), spec(s)),
    ], {
        0: lambda s: run_scale_point("CC-Synch", 256, spec=spec(s)),
        1: lambda s: run_scale_point("mcs-lock", 256, spec=spec(s)),
    })


LONG_CS_APPROACHES = ("mp-server", "HybComb", "shm-server", "CC-Synch")


def _long_cs(scale: float) -> Workload:
    spec = _closed_spec(20_000, 80_000, scale)
    return Workload("long-cs", [
        (lambda s, a=a: build_array_cs(a, 30, spec(s)))
        for a in LONG_CS_APPROACHES
    ], {
        i: (lambda s, a=a: run_cs_length_benchmark(a, 30, CS_ITERATIONS,
                                                   spec=spec(s)))
        for i, a in enumerate(LONG_CS_APPROACHES)
    })


#: (approach, admission policy, offered Mops/s, measured cycles).  The
#: closed-loop capacity at 8 clients is ~100 Mops/s for mp-server and
#: ~16.5 Mops/s for HybComb.  Below capacity (~0.7x, ~0.5x) the bounded
#: policies (timeout-retry, bounded-drop) admit every op.  Above capacity a
#: bounded policy sheds by design, and the benchmark runs only workloads on
#: which no op fails, so the ~2x points use the overload figure's unbounded
#: arm: the queue grows through the window and the sojourn time with it.
#: The backlog grows as (offered - capacity), so a seed's small change in
#: capacity moves the sojourn time by capacity / (offered - capacity)
#: times as much: 2x capacity keeps that at 1x, where 1.5x would double it.
OVERLOAD_POINTS = (
    ("mp-server", "retry", 70.0, 60_000),
    ("mp-server", "unbounded", 200.0, 60_000),
    ("HybComb", "drop", 8.0, 300_000),
    ("HybComb", "unbounded", 33.0, 300_000),
)


def _overload(scale: float) -> Workload:
    return Workload("overload", [
        (lambda s, a=a, p=p, r=r, m=m: build_overload(
            a, p, r, int(20_000 * scale), int(m * scale), s))
        for a, p, r, m in OVERLOAD_POINTS
    ])


#: workload name -> factory; ``scale`` multiplies every simulated window
#: (1.0 is the benchmark; the smoke tests run smaller windows)
WORKLOADS: Dict[str, Callable[[float], Workload]] = {
    "mp-counter": _mp_counter,
    "cc-counter-256": _cc_counter_256,
    "long-cs": _long_cs,
    "overload": _overload,
}


def reference_mismatch(reference: RunResult, ours: RunResult) -> Optional[str]:
    """Compare a library runner's result with a benchmark point's."""
    for what in ("ops", "per_thread_ops", "latency_samples",
                 "service_cycles_per_op", "combining_rate", "cas_per_op"):
        if getattr(reference, what) != getattr(ours, what):
            return f"{what} differs from the library runner's result"
    return None
