"""Open-loop traffic, admission control, and graceful degradation.

The Section 5.2 loop is *closed*: each thread issues its next operation
only after the previous one completes, so offered load can never exceed
service capacity and the system self-clocks into its hockey-stick knee
without ever crossing it.  Production traffic is *open*: requests
arrive at a rate set by the outside world (the ROADMAP's "millions of
users"), indifferent to whether the delegation server is keeping up.
This module adds that regime on top of the unchanged machine model:

* **Arrival processes** (:class:`ArrivalSpec`) -- deterministic-rate,
  Poisson, or bursty (a 2-state MMPP: calm/burst phases with
  exponential dwell times), all driven by the seeded-RNG discipline so
  runs are bit-reproducible.
* **Admission queues** (:class:`AdmissionQueue`) -- a bounded FIFO in
  front of each delegation client.  Sources never block (open-loop
  arrivals do not wait for the system); when the bound is hit the
  policy decides: ``unbounded`` grows without limit (today's implicit
  behavior), ``drop`` sheds the arrival, ``retry`` additionally bounds
  each *dispatch* with a deadline and retries timed-out dispatches
  under capped exponential backoff, optionally behind a circuit
  breaker that trips the client to a local-spin fallback after
  consecutive timeouts and half-opens after a cooldown.
* **Degradation metrics** -- per-op queue-entry timestamps decompose
  sojourn time into admission wait + service time; the run reports
  p99.9 sojourn latency, goodput (admitted-and-completed ops/s),
  shed/timeout/retry counts, time-in-SLO, and a queue-depth-over-time
  series.  ``admit.enqueue`` / ``admit.shed`` / ``admit.retry`` events
  go to the observability bus so traces and critical-path blame can
  attribute overload stalls.

Shedding is *provably side-effect free*: a queue-full shed never
reaches the primitive at all, and a retry-shed only follows
:class:`~repro.core.api.DispatchTimeout`, whose contract is that the
abandoned dispatch executed nothing anywhere in the machine.  The
explore-matrix scenarios lean on exactly that to show shed ops never
appear in a linearization.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Generator, Iterator, List, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.core.api import NULL_ARG, DispatchTimeout, SyncPrimitive
from repro.machine.machine import Machine, ThreadCtx
from repro.obs.timeseries import TimeSeries
from repro.sim.resources import Condition
from repro.workload.metrics import RunResult

__all__ = [
    "AdmissionQueue",
    "AdmissionSpec",
    "ArrivalSpec",
    "OpenLoopSpec",
    "bounded_source",
    "bounded_worker",
    "run_openloop_workload",
]

_PROCESSES = ("deterministic", "poisson", "bursty")
_POLICIES = ("unbounded", "drop", "retry")

#: slices the measurement window is cut into for time-in-SLO accounting
_SLO_SLICES = 64


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

@dataclass
class ArrivalSpec:
    """One source's arrival process, parameterized by the mean gap.

    The offered rate of a source is ``1 / mean_gap_cycles`` arrivals per
    cycle (``bursty`` alternates between ``mean_gap_cycles`` in the calm
    state and ``burst_gap_cycles`` inside bursts; see
    :meth:`offered_rate` for the dwell-weighted average).
    """

    process: str = "poisson"
    mean_gap_cycles: float = 200.0
    #: bursty only: gap inside bursts (defaults to ``mean_gap_cycles/4``)
    burst_gap_cycles: Optional[float] = None
    #: bursty only: mean dwell time of the burst / calm states
    burst_dwell_cycles: float = 4_000.0
    calm_dwell_cycles: float = 16_000.0

    def __post_init__(self) -> None:
        if self.process not in _PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"pick one of {_PROCESSES}")
        if self.mean_gap_cycles <= 0:
            raise ValueError(
                f"mean_gap_cycles must be > 0, got {self.mean_gap_cycles}")
        if self.burst_gap_cycles is not None and self.burst_gap_cycles <= 0:
            raise ValueError(
                f"burst_gap_cycles must be > 0, got {self.burst_gap_cycles}")
        if self.burst_dwell_cycles <= 0 or self.calm_dwell_cycles <= 0:
            raise ValueError("dwell times must be > 0")

    @property
    def offered_rate(self) -> float:
        """Long-run arrivals per cycle from one source."""
        if self.process != "bursty":
            return 1.0 / self.mean_gap_cycles
        bg = self.burst_gap_cycles or self.mean_gap_cycles / 4
        wb, wc = self.burst_dwell_cycles, self.calm_dwell_cycles
        return (wb / bg + wc / self.mean_gap_cycles) / (wb + wc)

    def gaps(self, rng: np.random.Generator) -> Iterator[int]:
        """Infinite stream of inter-arrival gaps (integer cycles >= 1).

        Deterministic gaps use error diffusion so fractional rates
        average out exactly; the stochastic processes draw from ``rng``
        only, keeping runs reproducible under the seed discipline.
        """
        if self.process == "deterministic":
            acc = 0.0
            while True:
                acc += self.mean_gap_cycles
                g = int(acc)
                acc -= g
                yield max(1, g)
        elif self.process == "poisson":
            while True:
                yield max(1, int(round(rng.exponential(self.mean_gap_cycles))))
        else:  # bursty: 2-state MMPP with exponential dwells
            bg = self.burst_gap_cycles or self.mean_gap_cycles / 4
            phases = ((self.mean_gap_cycles, self.calm_dwell_cycles),
                      (bg, self.burst_dwell_cycles))
            while True:
                for mean_gap, dwell in phases:
                    t = 0.0
                    horizon = rng.exponential(dwell)
                    while t < horizon:
                        g = max(1, int(round(rng.exponential(mean_gap))))
                        t += g
                        yield g


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

@dataclass
class AdmissionSpec:
    """What happens when arrivals outpace service.

    ``unbounded`` reproduces the implicit pre-overload-layer behavior:
    the queue grows without limit and sojourn time diverges past the
    knee.  ``drop`` sheds arrivals that find the queue full.  ``retry``
    sheds on a full queue too, and additionally gives every *dispatch* a
    deadline: a dispatch the primitive cannot commit in
    ``dispatch_timeout_cycles`` is abandoned (side-effect free, see
    :class:`~repro.core.api.DispatchTimeout`) and retried after capped
    exponential backoff, up to ``max_retries`` times.  With
    ``breaker_threshold`` set, ``breaker_threshold`` *consecutive*
    timeouts trip the client to a local-spin fallback for
    ``breaker_cooldown_cycles``; the next dispatch is a half-open probe
    that closes the breaker on success or re-trips it on failure.
    """

    policy: str = "unbounded"
    #: queue bound; required for drop/retry, forbidden for unbounded
    capacity: Optional[int] = None
    #: retry only: per-dispatch deadline in cycles
    dispatch_timeout_cycles: Optional[int] = None
    max_retries: int = 3
    backoff_base_cycles: int = 256
    backoff_cap_cycles: int = 4_096
    #: consecutive timeouts that trip the circuit breaker (None = off)
    breaker_threshold: Optional[int] = None
    breaker_cooldown_cycles: int = 8_192
    #: sojourn-latency SLO target for time-in-SLO accounting (None = off)
    slo_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}; "
                             f"pick one of {_POLICIES}")
        if self.policy == "unbounded":
            if self.capacity is not None:
                raise ValueError("unbounded admission takes no capacity "
                                 "(use policy='drop' or 'retry' to bound)")
        elif self.capacity is None or self.capacity < 1:
            raise ValueError(f"policy {self.policy!r} needs capacity >= 1, "
                             f"got {self.capacity}")
        if self.policy == "retry":
            if (self.dispatch_timeout_cycles is None
                    or self.dispatch_timeout_cycles < 1):
                raise ValueError("policy 'retry' needs dispatch_timeout_cycles"
                                 f" >= 1, got {self.dispatch_timeout_cycles}")
            if self.max_retries < 0:
                raise ValueError(
                    f"max_retries must be >= 0, got {self.max_retries}")
            if self.backoff_base_cycles < 1:
                raise ValueError("backoff_base_cycles must be >= 1")
            if self.backoff_cap_cycles < self.backoff_base_cycles:
                raise ValueError("backoff_cap_cycles must be >= "
                                 "backoff_base_cycles")
        elif self.dispatch_timeout_cycles is not None:
            raise ValueError("dispatch_timeout_cycles only applies to "
                             "policy='retry'")
        if self.breaker_threshold is not None:
            if self.policy != "retry":
                raise ValueError("the circuit breaker rides on dispatch "
                                 "timeouts; it needs policy='retry'")
            if self.breaker_threshold < 1:
                raise ValueError("breaker_threshold must be >= 1")
            if self.breaker_cooldown_cycles < 1:
                raise ValueError("breaker_cooldown_cycles must be >= 1")
        if self.slo_cycles is not None and self.slo_cycles < 1:
            raise ValueError(f"slo_cycles must be >= 1, got {self.slo_cycles}")


@dataclass
class OpenLoopSpec:
    """Timing + traffic + admission parameters of one open-loop run."""

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    warmup_cycles: int = 30_000
    measure_cycles: int = 120_000
    seed: int = 42
    #: queue-depth sampling period for the depth-over-time series
    depth_sample_cycles: int = 1_000

    def __post_init__(self) -> None:
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}")
        if self.measure_cycles < 1:
            raise ValueError(
                f"measure_cycles must be >= 1, got {self.measure_cycles}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.depth_sample_cycles < 1:
            raise ValueError("depth_sample_cycles must be >= 1, got "
                             f"{self.depth_sample_cycles}")


class AdmissionQueue:
    """Bounded FIFO between one open-loop source and its client thread.

    Pure Python state plus a :class:`~repro.sim.resources.Condition` for
    worker wakeups -- the queue models client-local software (a request
    buffer in the client's own memory), so it costs no simulated shared
    traffic.  Items are ``(op_index, enqueue_cycle)``; the timestamp is
    what decomposes sojourn into admission wait + service time.
    """

    def __init__(self, machine: Machine, tid: int,
                 capacity: Optional[int] = None):
        self.sim = machine.sim
        self.tid = tid
        self.capacity = capacity
        self.items: Deque[Tuple[int, int]] = deque()
        self._cond = Condition(self.sim, label=f"admission-queue tid={tid}")
        self.closed = False
        self.enqueued = 0
        self.shed = 0
        self.depth_peak = 0

    def __len__(self) -> int:
        return len(self.items)

    def offer(self, k: int) -> bool:
        """Admit arrival ``k`` or shed it; never blocks (open loop)."""
        obs = self.sim.obs
        depth = len(self.items)
        if self.capacity is not None and depth >= self.capacity:
            self.shed += 1
            if obs is not None:
                obs.emit("admit.shed", tid=self.tid, op=k, depth=depth,
                         reason="queue-full")
            return False
        self.items.append((k, self.sim.now))
        self.enqueued += 1
        depth += 1
        if depth > self.depth_peak:
            self.depth_peak = depth
        if obs is not None:
            obs.emit("admit.enqueue", tid=self.tid, op=k, depth=depth)
        self._cond.notify_all()
        return True

    def take(self) -> Generator[Any, Any, Optional[Tuple[int, int]]]:
        """Block until an item is available; None once closed and drained."""
        while True:
            if self.items:
                return self.items.popleft()
            if self.closed:
                return None
            yield from self._cond.wait()

    def close(self) -> None:
        """No further arrivals; wakes workers so they can drain and exit."""
        self.closed = True
        self._cond.notify_all()


# ---------------------------------------------------------------------------
# dispatch under the admission policy (retry / backoff / circuit breaker)
# ---------------------------------------------------------------------------

def _breaker_state() -> Dict[str, Any]:
    return {"consecutive": 0, "open_until": None, "half_open": False}


def _dispatch(
    ctx: ThreadCtx,
    prim: SyncPrimitive,
    opcode: int,
    arg: int,
    adm: AdmissionSpec,
    state: Dict[str, Any],
    counters: Dict[str, int],
    inflight: List[int],
) -> Generator[Any, Any, Tuple[bool, Optional[int]]]:
    """One admitted op through the policy; returns ``(completed, retval)``.

    ``(False, None)`` means the op was dropped after exhausting its
    retries -- every attempt ended in a pre-commit
    :class:`DispatchTimeout`, so the op provably never executed.

    ``inflight[0]`` is the queue-depth gauge's in-service half: it is up
    by one for exactly the span of each ``apply_op``/``apply_op_timed``
    call.  Pure bookkeeping, no simulated cycles; a fail-stop crash leaks
    its caller's increment -- a stat, not an invariant.
    """
    if adm.policy != "retry":
        inflight[0] += 1
        try:
            retval = yield from prim.apply_op(ctx, opcode, arg)
        finally:
            inflight[0] -= 1
        return True, retval
    sim = ctx.sim
    attempt = 0
    while True:
        if state["open_until"] is not None:
            # breaker open: local-spin fallback -- burn the cooldown on
            # the client's own core instead of hammering the shared path,
            # then half-open with the next dispatch as the probe
            remaining = state["open_until"] - sim.now
            if remaining > 0:
                yield from ctx.work(remaining)
            state["open_until"] = None
            state["half_open"] = True
        inflight[0] += 1
        try:
            try:
                retval = yield from prim.apply_op_timed(
                    ctx, opcode, arg, timeout=adm.dispatch_timeout_cycles)
            finally:
                inflight[0] -= 1
        except DispatchTimeout:
            counters["timeouts"] += 1
            state["consecutive"] += 1
            tripped = adm.breaker_threshold is not None and (
                state["half_open"]
                or state["consecutive"] >= adm.breaker_threshold)
            if state["half_open"]:
                state["half_open"] = False
            obs = sim.obs
            if tripped:
                state["open_until"] = sim.now + adm.breaker_cooldown_cycles
                counters["breaker_trips"] += 1
                if obs is not None:
                    obs.emit("admit.breaker", tid=ctx.tid, state="open",
                             until=state["open_until"])
            if attempt >= adm.max_retries:
                counters["retry_shed"] += 1
                if obs is not None:
                    obs.emit("admit.shed", tid=ctx.tid, op=-1, depth=0,
                             reason="timeout")
                return False, None
            attempt += 1
            counters["retries"] += 1
            backoff = min(adm.backoff_cap_cycles,
                          adm.backoff_base_cycles << (attempt - 1))
            if obs is not None:
                obs.emit("admit.retry", tid=ctx.tid, attempt=attempt,
                         backoff=backoff)
            yield from ctx.work(backoff)
        else:
            state["consecutive"] = 0
            if state["half_open"]:
                state["half_open"] = False
                obs = sim.obs
                if obs is not None:
                    obs.emit("admit.breaker", tid=ctx.tid, state="closed",
                             until=0)
            return True, retval


# ---------------------------------------------------------------------------
# bounded scripts (correctness tools: history recording, exploration)
# ---------------------------------------------------------------------------

def bounded_source(
    ctx: ThreadCtx,
    queue: AdmissionQueue,
    arrivals: ArrivalSpec,
    rng: np.random.Generator,
    n_ops: int,
) -> Generator[Any, Any, None]:
    """Offer exactly ``n_ops`` arrivals, then close the queue.

    The gaps are pure simulated-time delays (``yield gap``), not core
    work: the source models the outside world, so it charges nothing to
    any core's counters.
    """
    for k, gap in zip(range(n_ops), arrivals.gaps(rng)):
        yield gap
        queue.offer(k)
    queue.close()


def bounded_worker(
    ctx: ThreadCtx,
    queue: AdmissionQueue,
    prim: SyncPrimitive,
    opcode: int,
    adm: AdmissionSpec,
    *,
    arg_of: Optional[Callable[[ThreadCtx, int], int]] = None,
    on_result: Optional[Callable[[ThreadCtx, int, int, int, int], None]] = None,
    on_shed: Optional[Callable[[ThreadCtx, int], None]] = None,
    inflight: Optional[List[int]] = None,
) -> Generator[Any, Any, None]:
    """Drain ``queue`` through ``prim`` until it closes.

    ``on_result(ctx, k, retval, invoke_t, response_t)`` fires for every
    completed op (the hook the linearizability scenarios use to record
    history); ``on_shed(ctx, k)`` for every retry-shed one.  ``inflight``
    is an optional one-element cell counting ops inside a dispatch.
    """
    state = _breaker_state()
    counters: Dict[str, int] = {"timeouts": 0, "retries": 0,
                                "retry_shed": 0, "breaker_trips": 0}
    if inflight is None:
        inflight = [0]
    while True:
        item = yield from queue.take()
        if item is None:
            return
        k, _t_arr = item
        arg = arg_of(ctx, k) if arg_of is not None else NULL_ARG
        t0 = ctx.sim.now
        ok, retval = yield from _dispatch(ctx, prim, opcode, arg, adm,
                                          state, counters, inflight)
        if ok and on_result is not None:
            on_result(ctx, k, retval, t0, ctx.sim.now)
        elif not ok and on_shed is not None:
            on_shed(ctx, k)


# ---------------------------------------------------------------------------
# the windowed open-loop driver
# ---------------------------------------------------------------------------

def run_openloop_workload(
    machine: Machine,
    ctxs: Sequence[ThreadCtx],
    prim: SyncPrimitive,
    opcode: int,
    spec: OpenLoopSpec,
    *,
    name: str = "?",
    arg_of: Optional[Callable[[ThreadCtx, int], int]] = None,
) -> RunResult:
    """Drive open-loop traffic through ``prim`` and measure one window.

    One source + one admission queue + one worker per client thread in
    ``ctxs``; each source offers arrivals per ``spec.arrivals`` (so the
    machine-wide offered rate is ``len(ctxs) * arrivals.offered_rate``).
    Returns a :class:`RunResult` whose throughput/latency fields are
    computed over *sojourn* (arrival to completion), with overload
    extras under ``ol.*`` keys and the queue-depth series attached.
    """
    host_t0 = time.perf_counter()
    host_ev0 = machine.sim.events_processed
    if not ctxs:
        raise ValueError("run_openloop_workload needs at least one client "
                         "thread (got an empty ctxs sequence)")
    adm = spec.admission
    sim = machine.sim
    n = len(ctxs)

    queues = [AdmissionQueue(machine, ctx.tid, adm.capacity) for ctx in ctxs]
    in_window = {"on": False}
    window_t0 = spec.warmup_cycles
    slice_len = max(1, spec.measure_cycles // _SLO_SLICES)

    ops_done = [0] * n
    latencies: List[int] = []          # sojourn = completion - arrival
    admit_waits: List[int] = []        # take - arrival
    offered_w = {"n": 0}
    counters: Dict[str, int] = {"timeouts": 0, "retries": 0,
                                "retry_shed": 0, "breaker_trips": 0}
    inflight = [0]                     # ops inside a dispatch right now
    # per-slice SLO accounting (completions, violations, max depth seen)
    slice_completions = [0] * _SLO_SLICES
    slice_violations = [0] * _SLO_SLICES
    slice_depth_max = [0] * _SLO_SLICES
    # the depth record is a shared-layer ring series (DESIGN.md §14), not
    # an unbounded list: per-bucket sum/count/max compose exactly under
    # downsample-on-wrap, so the fingerprinted ``ol.qdepth_*`` extras are
    # identical to the old list-based accounting at any run length
    depth_ts = TimeSeries("admit.qdepth", kind="gauge", buckets=512,
                          bucket_cycles=spec.depth_sample_cycles,
                          t0=window_t0, unit="reqs")
    next_op_id = itertools.count()

    def _slice_of(t: int) -> int:
        return min(_SLO_SLICES - 1, (t - window_t0) // slice_len)

    def source(i: int, ctx: ThreadCtx, q: AdmissionQueue) -> Generator:
        rng = np.random.default_rng([spec.seed, ctx.tid])
        k = 0
        for gap in spec.arrivals.gaps(rng):
            yield gap
            if in_window["on"]:
                offered_w["n"] += 1
            q.offer(k)
            k += 1

    def worker(i: int, ctx: ThreadCtx, q: AdmissionQueue) -> Generator:
        state = _breaker_state()
        while True:
            item = yield from q.take()
            if item is None:
                return
            k, t_arr = item
            t_take = sim.now
            obs = sim.obs
            if obs is not None:
                op_id = next(next_op_id)
                obs.emit("op.begin", core=ctx.core.cid, tid=ctx.tid,
                         op=op_id, prim=name)
            ok, _retval = yield from _dispatch(ctx, prim, opcode,
                                               arg_of(ctx, k) if arg_of
                                               else NULL_ARG,
                                               adm, state, counters,
                                               inflight)
            t_done = sim.now
            if obs is not None:
                obs.emit("op.end", core=ctx.core.cid, tid=ctx.tid,
                         op=op_id, start=t_arr, measured=in_window["on"])
            if ok and in_window["on"]:
                ops_done[i] += 1
                sojourn = t_done - t_arr
                latencies.append(sojourn)
                admit_waits.append(t_take - t_arr)
                s = _slice_of(t_done)
                slice_completions[s] += 1
                if adm.slo_cycles is not None and sojourn > adm.slo_cycles:
                    slice_violations[s] += 1

    def _depth() -> int:
        return sum(len(q) for q in queues) + inflight[0]

    def depth_sampler() -> Generator:
        while True:
            yield spec.depth_sample_cycles
            if in_window["on"]:
                depth = _depth()
                depth_ts.record(sim.now, depth)
                s = _slice_of(sim.now)
                if depth > slice_depth_max[s]:
                    slice_depth_max[s] = depth

    for i, (ctx, q) in enumerate(zip(ctxs, queues)):
        machine.spawn(ctx, source(i, ctx, q), name=f"source-{ctx.tid}")
        machine.spawn(ctx, worker(i, ctx, q), name=f"worker-{ctx.tid}")
    sim.spawn(depth_sampler(), name="qdepth-sampler", daemon=True)

    # continuous telemetry: expose the admission depth and completed-op
    # count to the machine's sampler (pure observation -- registered only
    # when an observability session enabled timeseries sampling); the
    # run label is set up front so incident bundles dumped mid-run
    # already carry it
    ob = machine.obs
    if ob is not None:
        ob.label = f"{name} T={len(ctxs)}"
    sampler = ob.sampler if ob is not None else None
    if sampler is not None:
        sampler.register("admit.qdepth", _depth, kind="gauge", unit="reqs",
                         replace=True)
        sampler.register("goodput", lambda: sum(ops_done), kind="counter",
                         unit="ops", replace=True)

    machine.run(until=spec.warmup_cycles)
    in_window["on"] = True
    shed0 = sum(q.shed for q in queues)
    enq0 = sum(q.enqueued for q in queues)
    counters0 = dict(counters)

    machine.run(until=spec.warmup_cycles + spec.measure_cycles)
    in_window["on"] = False

    total_ops = sum(ops_done)
    clock = machine.cfg.clock_mhz
    result = RunResult(
        name=name,
        num_threads=n,
        window_cycles=spec.measure_cycles,
        ops=total_ops,
        clock_mhz=clock,
        per_thread_ops=list(ops_done),
    )
    result.latency_samples = latencies
    if latencies:
        arr = np.asarray(latencies)
        result.mean_latency_cycles = float(arr.mean())
        result.p50_latency_cycles = float(np.percentile(arr, 50))
        result.p95_latency_cycles = float(np.percentile(arr, 95))
        result.p99_latency_cycles = float(np.percentile(arr, 99))
        result.extra["ol.p999_latency"] = float(np.percentile(arr, 99.9))
        result.extra["ol.mean_admit_wait"] = float(np.mean(admit_waits))

    queue_shed = sum(q.shed for q in queues) - shed0
    retry_shed = counters["retry_shed"] - counters0["retry_shed"]
    result.extra["ol.offered_mops"] = (
        offered_w["n"] * clock / spec.measure_cycles)
    result.extra["ol.goodput_mops"] = total_ops * clock / spec.measure_cycles
    result.extra["ol.admitted"] = float(sum(q.enqueued for q in queues) - enq0)
    result.extra["ol.shed"] = float(queue_shed + retry_shed)
    result.extra["ol.shed_queue"] = float(queue_shed)
    result.extra["ol.shed_timeout"] = float(retry_shed)
    result.extra["ol.timeouts"] = float(
        counters["timeouts"] - counters0["timeouts"])
    result.extra["ol.retries"] = float(
        counters["retries"] - counters0["retries"])
    result.extra["ol.breaker_trips"] = float(
        counters["breaker_trips"] - counters0["breaker_trips"])

    result.queue_depth_series = [[t, v] for t, v in depth_ts.points()]
    if depth_ts.samples:
        # exact under any number of ring wraps: max composes, the mean is
        # total-sum / total-count, and the final value is tracked directly
        result.extra["ol.qdepth_max"] = float(depth_ts.peak())
        result.extra["ol.qdepth_mean"] = float(depth_ts.mean())
        result.extra["ol.qdepth_final"] = float(depth_ts.last_value)
    if sampler is not None:
        result.telemetry = sampler.summary()
    if ob is not None and getattr(ob, "spatial", None) is not None:
        if result.telemetry is None:
            result.telemetry = {}
        result.telemetry["spatial"] = ob.spatial.summary()

    if adm.slo_cycles is not None:
        # a slice is in-SLO when nothing completed over target in it and
        # it was not silently starved (no completions while work queued)
        good = 0
        for s in range(_SLO_SLICES):
            if slice_violations[s]:
                continue
            if slice_completions[s] > 0 or slice_depth_max[s] == 0:
                good += 1
        result.extra["ol.time_in_slo"] = good / _SLO_SLICES

    # recovery metrics, as in the closed-loop driver (fault-injection runs)
    stats = getattr(prim, "recovery_stats", None)
    if stats:
        ttr = stats.get("time_to_recovery")
        result.time_to_recovery_cycles = (
            float(ttr) if ttr is not None else None)
        result.ops_retried = int(stats.get("ops_retried", 0))
        result.duplicates_suppressed = int(
            stats.get("duplicates_suppressed", 0))
        result.failovers = int(stats.get("failovers", 0))
        result.takeovers = int(stats.get("takeovers", 0))

    # host-perf provenance, as in run_workload (never feeds back into
    # simulated results)
    result.host_wall_seconds = time.perf_counter() - host_t0
    result.host_events_processed = machine.sim.events_processed - host_ev0

    return result
