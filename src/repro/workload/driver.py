"""The benchmark loop: warm-up window, measurement window, counters.

``run_workload`` drives a set of application threads through the
Section 5.2 loop (operation + up to 50 random empty loop iterations)
for ``warmup_cycles`` then ``measure_cycles`` of simulated time, and
assembles a :class:`~repro.workload.metrics.RunResult` from counter
deltas over the measurement window.

The op to execute is supplied as a factory ``make_op(ctx) ->
callable(k) -> generator`` so scenarios can give each thread its own
closure (e.g. alternating enqueue/dequeue with thread-unique values).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.workload.metrics import RunResult, finish_result

__all__ = ["WorkloadSpec", "run_ops", "run_workload"]


@dataclass
class WorkloadSpec:
    """Timing parameters of one benchmark run.

    The defaults are sized so one run finishes in well under a second of
    wall time while keeping tens of thousands of operations in the
    window; ``full()`` returns the larger windows used for the committed
    EXPERIMENTS.md numbers.
    """

    warmup_cycles: int = 60_000
    measure_cycles: int = 240_000
    think_max_iterations: int = 50   #: Section 5.2: "at most 50"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}")
        if self.measure_cycles < 1:
            raise ValueError(
                "measure_cycles must be >= 1 (an empty measurement window "
                f"measures nothing), got {self.measure_cycles}")
        if self.think_max_iterations < 0:
            raise ValueError(
                "think_max_iterations must be >= 0 (0 disables think time), "
                f"got {self.think_max_iterations}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def quick(cls) -> "WorkloadSpec":
        return cls(warmup_cycles=30_000, measure_cycles=120_000)

    @classmethod
    def full(cls) -> "WorkloadSpec":
        return cls(warmup_cycles=100_000, measure_cycles=600_000)


def run_ops(
    machine: Machine,
    scripts: "Sequence[Tuple[ThreadCtx, Generator]]",
    *,
    prims: Sequence[Any] = (),
) -> List[Any]:
    """Run bounded per-thread scripts to completion and join them all.

    The windowed loop above measures throughput over a time horizon; the
    correctness tools (history recording, schedule exploration) instead
    need every thread to perform a *fixed number* of operations and
    finish.  ``scripts`` is a sequence of ``(ctx, generator)`` pairs,
    spawned in order; a coordinator process joins them, then calls
    ``stop()`` on any primitive in ``prims`` that has one (polling
    server loops), and the machine runs until fully drained.

    Returns the finished client :class:`~repro.sim.engine.Process`
    objects; raises ``RuntimeError`` naming the first client that did
    not finish (e.g. wedged by an injected fault).
    """
    procs = [machine.spawn(ctx, gen) for ctx, gen in scripts]

    def coordinator() -> Generator:
        for p in procs:
            yield from p.join()
        for prim in prims:
            if hasattr(prim, "stop"):
                prim.stop()

    machine.sim.spawn(coordinator(), name="coordinator")
    machine.run()
    for p in procs:
        if p.alive:
            raise RuntimeError(f"client process {p.name!r} did not finish")
    return procs


def run_workload(
    machine: Machine,
    ctxs: Sequence[ThreadCtx],
    make_op: Callable[[ThreadCtx], Callable[[int], Generator[Any, Any, Any]]],
    spec: WorkloadSpec,
    *,
    name: str = "?",
    prim: Optional[SyncPrimitive] = None,
    service_core_ids: "Optional[Sequence[int] | str]" = None,
) -> RunResult:
    """Run the paper's benchmark loop and measure one window.

    ``prim`` (optional) contributes combining-session statistics and the
    default servicing-core set.  ``service_core_ids`` overrides which
    cores count as "the servicing thread" for the Figure 4a breakdown;
    the string ``"current"`` selects the combiner active at the end of
    warm-up (the fixed-combiner methodology of the paper's footnote 4).
    """
    host_t0 = time.perf_counter()
    host_ev0 = machine.sim.events_processed
    if not ctxs:
        raise ValueError("run_workload needs at least one application thread "
                         "(got an empty ctxs sequence)")
    rng = np.random.default_rng(spec.seed)
    think_unit = machine.cfg.work_cycles_per_iteration
    n = len(ctxs)

    ops_done = [0] * n
    latencies: List[int] = []
    in_window = {"on": False}
    # run-unique op ids shared by every app thread (tags ``op.begin`` /
    # ``op.end`` events so the causal tracer can follow one operation
    # across cores -- pure observability, no simulated cost)
    next_op_id = itertools.count()

    def app_thread(i: int, ctx: ThreadCtx, thinks: np.ndarray) -> Generator:
        op = make_op(ctx)
        k = 0
        nthinks = len(thinks)
        sim = machine.sim
        while True:
            obs = sim.obs
            t0 = sim.now
            if obs is not None:
                op_id = next(next_op_id)
                obs.emit("op.begin", core=ctx.core.cid, tid=ctx.tid,
                         op=op_id, prim=name)
            yield from op(k)
            if obs is not None:
                obs.emit("op.end", core=ctx.core.cid, tid=ctx.tid,
                         op=op_id, start=t0, measured=in_window["on"])
            if in_window["on"]:
                ops_done[i] += 1
                latencies.append(sim.now - t0)
            k += 1
            t = int(thinks[k % nthinks]) * think_unit
            if t:
                yield from ctx.work(t)

    for i, ctx in enumerate(ctxs):
        thinks = rng.integers(0, spec.think_max_iterations + 1, size=4096)
        machine.spawn(ctx, app_thread(i, ctx, thinks), name=f"app-{ctx.tid}")

    # continuous telemetry: completed-op counter for the goodput series
    # (registered only when the observability sampler is enabled); the
    # run label is set up front so incident bundles dumped mid-run
    # already carry it
    if machine.obs is not None:
        machine.obs.label = f"{name} T={n}"
    sampler = machine.obs.sampler if machine.obs is not None else None
    if sampler is not None:
        sampler.register("goodput", lambda: sum(ops_done), kind="counter",
                         unit="ops", replace=True)

    # warm up, then snapshot and measure
    machine.run(until=spec.warmup_cycles)
    in_window["on"] = True
    if service_core_ids == "current":
        # fixed-combiner measurement (Figure 4a): the thread combining at
        # the end of warm-up holds the role for the whole window when
        # MAX_OPS is effectively infinite
        service_ids = (
            [prim.current_combiner_core]
            if prim is not None and prim.current_combiner_core is not None
            else []
        )
    elif service_core_ids is not None:
        service_ids = list(service_core_ids)
    elif prim is not None and prim.service_threads > 0:
        # dedicated servers: their cores run nothing but service work
        service_ids = list(prim.servicing_cores())
    else:
        # combiner cores interleave app work with combining, so a default
        # per-op breakdown would be meaningless -- use "current" with a
        # fixed-combiner (MAX_OPS = inf) run instead (Figure 4a).
        service_ids = []
    snapshots = {cid: machine.cores[cid].snapshot() for cid in service_ids}
    app_snapshots = [ctx.core.snapshot() for ctx in ctxs]
    sessions_before = len(prim.combining_sessions) if prim is not None else 0
    obs = machine.obs
    obs_before = obs.counters.snapshot() if obs is not None else None

    machine.run(until=spec.warmup_cycles + spec.measure_cycles)
    in_window["on"] = False

    total_ops = sum(ops_done)
    result = RunResult(
        name=name,
        num_threads=n,
        window_cycles=spec.measure_cycles,
        ops=total_ops,
        clock_mhz=machine.cfg.clock_mhz,
        per_thread_ops=list(ops_done),
    )

    # servicing-thread breakdown (Figure 4a):  For server approaches the
    # service core set is fixed; for combiners it is every core that
    # combined -- but only combining work runs there beyond the app loop,
    # so the meaningful per-op number needs the fixed-combiner variant
    # (MAX_OPS = inf), exactly as the paper's footnote 4 does.
    if service_ids and total_ops:
        busy = stall = 0
        for cid in service_ids:
            delta = machine.cores[cid].delta(snapshots[cid])
            busy += delta["busy"]
            stall += delta["stall_mem"] + delta["stall_atomic"] + delta["stall_fence"]
        result.service_cycles_per_op = (busy + stall) / total_ops
        result.service_stall_per_op = stall / total_ops

    # atomic-instruction rates across application threads
    if total_ops:
        cas = cas_fail = atomics = 0
        for ctx, snap in zip(ctxs, app_snapshots):
            delta = ctx.core.delta(snap)
            cas += delta["cas_ops"]
            cas_fail += delta["cas_failures"]
            atomics += delta["atomic_ops"]
        result.cas_per_op = cas / total_ops
        result.cas_failures_per_op = cas_fail / total_ops
        result.atomics_per_op = atomics / total_ops

    # combining rate (Figure 4b): mean ops per session closed in-window
    if prim is not None:
        window_sessions = [
            ops for (t, ops) in prim.combining_sessions[sessions_before:]
        ]
        if window_sessions:
            result.combining_rate = float(np.mean(window_sessions))

    # observability: reconstruct the same numbers from the perf counter
    # file and attach window totals to the result (``obs.*`` extras)
    if obs is not None:
        obs.label = f"{name} T={n}"
        delta = obs.counters.delta(obs_before)
        if service_ids and total_ops:
            bd = obs.counters.service_breakdown(service_ids, obs_before)
            result.extra["obs.service_cycles_per_op"] = (
                (bd["busy"] + bd["stall"]) / total_ops)
            result.extra["obs.service_stall_per_op"] = bd["stall"] / total_ops
        cores = delta["core"].values()
        result.extra["obs.misses"] = float(
            sum(c.get("misses", 0) for c in cores))
        result.extra["obs.invalidations"] = float(
            sum(c.get("invalidations_received", 0) for c in cores))
        result.extra["obs.udn_words_sent"] = float(
            sum(c.get("udn_words_sent", 0) for c in cores))
        result.extra["obs.flit_cycles"] = float(
            sum(lk.get("flit_cycles", 0) for lk in delta["link"].values()))
        if delta["line"]:
            hot_line, hot = max(delta["line"].items(),
                                key=lambda kv: kv[1].get("stall_cycles", 0))
            result.extra["obs.hottest_line"] = float(hot_line)
            result.extra["obs.hottest_line_stall_cycles"] = float(
                hot.get("stall_cycles", 0))

    return finish_result(result, machine, prim, latencies, host_t0, host_ev0)
