"""Tests for the open-loop traffic / admission-control layer.

Covers the arrival processes, the spec validation, the bounded
admission queue, the retry/backoff/circuit-breaker dispatch policy
(driven by a server that never claims, so every dispatch times out),
and the windowed driver's unbounded-vs-bounded degradation contrast.
"""

import numpy as np
import pytest

from repro.core import MPServer, OpTable, ShmServer
from repro.core.api import DispatchTimeout
from repro.machine import Machine, tile_gx
from repro.objects import LockedCounter
from repro.workload.metrics import RunResult
from repro.workload.openloop import (
    AdmissionQueue,
    AdmissionSpec,
    ArrivalSpec,
    OpenLoopSpec,
    bounded_source,
    bounded_worker,
    run_openloop_workload,
)


# -- arrival processes ------------------------------------------------------

def test_arrival_spec_rejects_bad_process():
    with pytest.raises(ValueError, match="unknown arrival process"):
        ArrivalSpec(process="uniform")


@pytest.mark.parametrize("kw", [
    {"mean_gap_cycles": 0}, {"mean_gap_cycles": -5.0},
    {"process": "bursty", "burst_gap_cycles": 0},
    {"process": "bursty", "burst_dwell_cycles": 0},
    {"process": "bursty", "calm_dwell_cycles": -1},
])
def test_arrival_spec_rejects_bad_numbers(kw):
    with pytest.raises(ValueError):
        ArrivalSpec(**kw)


def test_deterministic_gaps_error_diffusion():
    """Fractional rates must average out exactly, with every gap >= 1."""
    spec = ArrivalSpec(process="deterministic", mean_gap_cycles=2.5)
    rng = np.random.default_rng(0)
    gaps = [g for g, _ in zip(spec.gaps(rng), range(1000))]
    assert all(g >= 1 for g in gaps)
    assert sum(gaps) == pytest.approx(2.5 * 1000, abs=3)
    assert set(gaps) == {2, 3}  # diffusion alternates, never drifts


def test_deterministic_gaps_ignore_rng():
    spec = ArrivalSpec(process="deterministic", mean_gap_cycles=7)
    a = [g for g, _ in zip(spec.gaps(np.random.default_rng(1)), range(50))]
    b = [g for g, _ in zip(spec.gaps(np.random.default_rng(2)), range(50))]
    assert a == b


def test_poisson_gaps_reproducible_and_positive():
    spec = ArrivalSpec(process="poisson", mean_gap_cycles=100)
    a = [g for g, _ in zip(spec.gaps(np.random.default_rng(7)), range(500))]
    b = [g for g, _ in zip(spec.gaps(np.random.default_rng(7)), range(500))]
    assert a == b
    assert min(a) >= 1
    assert np.mean(a) == pytest.approx(100, rel=0.15)


def test_bursty_gaps_mix_two_rates():
    spec = ArrivalSpec(process="bursty", mean_gap_cycles=400,
                       burst_gap_cycles=20, burst_dwell_cycles=2_000,
                       calm_dwell_cycles=2_000)
    rng = np.random.default_rng(3)
    gaps = [g for g, _ in zip(spec.gaps(rng), range(2000))]
    # both regimes must actually appear
    assert sum(1 for g in gaps if g <= 60) > 100
    assert sum(1 for g in gaps if g >= 200) > 10


def test_offered_rate():
    assert ArrivalSpec(mean_gap_cycles=200).offered_rate == pytest.approx(1 / 200)
    bursty = ArrivalSpec(process="bursty", mean_gap_cycles=100,
                         burst_gap_cycles=10, burst_dwell_cycles=1_000,
                         calm_dwell_cycles=3_000)
    # dwell-weighted: (1000/10 + 3000/100) / 4000
    assert bursty.offered_rate == pytest.approx((100 + 30) / 4_000)


# -- spec validation --------------------------------------------------------

def test_admission_unbounded_rejects_capacity():
    with pytest.raises(ValueError, match="no capacity"):
        AdmissionSpec(policy="unbounded", capacity=4)


def test_admission_bad_policy():
    with pytest.raises(ValueError, match="unknown admission policy"):
        AdmissionSpec(policy="reject")


@pytest.mark.parametrize("kw", [
    {"policy": "drop"},                       # missing capacity
    {"policy": "drop", "capacity": 0},
    {"policy": "retry", "capacity": 4},       # missing dispatch timeout
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 0},
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 100,
     "max_retries": -1},
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 100,
     "backoff_base_cycles": 0},
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 100,
     "backoff_base_cycles": 512, "backoff_cap_cycles": 256},
    {"policy": "drop", "capacity": 4, "dispatch_timeout_cycles": 100},
    {"policy": "drop", "capacity": 4, "breaker_threshold": 2},
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 100,
     "breaker_threshold": 0},
    {"policy": "retry", "capacity": 4, "dispatch_timeout_cycles": 100,
     "breaker_threshold": 2, "breaker_cooldown_cycles": 0},
    {"policy": "drop", "capacity": 4, "slo_cycles": 0},
])
def test_admission_spec_rejects_inconsistent_combos(kw):
    with pytest.raises(ValueError):
        AdmissionSpec(**kw)


@pytest.mark.parametrize("kw", [
    {"warmup_cycles": -1}, {"measure_cycles": 0}, {"seed": -1},
    {"seed": True}, {"seed": 1.5}, {"depth_sample_cycles": 0},
])
def test_openloop_spec_rejects_bad_timing(kw):
    with pytest.raises(ValueError):
        OpenLoopSpec(**kw)


# -- admission queue --------------------------------------------------------

def test_admission_queue_sheds_at_capacity_and_keeps_fifo():
    m = Machine(tile_gx())
    ctx = m.thread(0)
    q = AdmissionQueue(m, ctx.tid, capacity=2)
    taken = []

    def producer(c):
        yield 10
        assert q.offer(0)
        assert q.offer(1)
        assert not q.offer(2)        # full: shed, never blocks
        assert q.shed == 1
        yield 100                    # consumer drains in the meantime
        assert q.offer(3)
        q.close()

    def consumer(c):
        while True:
            item = yield from q.take()
            if item is None:
                return
            k, t_arr = item
            assert t_arr <= m.now
            taken.append(k)
            yield 30

    m.spawn(ctx, producer(ctx))
    p = m.spawn(ctx, consumer(ctx))
    m.run()
    assert not p.alive
    assert taken == [0, 1, 3]        # FIFO, shed op 2 never surfaces
    assert q.enqueued == 3 and q.shed == 1 and q.depth_peak == 2


def test_admission_queue_unbounded_never_sheds():
    m = Machine(tile_gx())
    ctx = m.thread(0)
    q = AdmissionQueue(m, ctx.tid, capacity=None)
    for k in range(100):
        assert q.offer(k)
    assert q.shed == 0 and len(q) == 100 and q.depth_peak == 100


def test_admission_queue_close_wakes_blocked_taker():
    m = Machine(tile_gx())
    ctx = m.thread(0)
    q = AdmissionQueue(m, ctx.tid, capacity=4)

    def taker(c):
        item = yield from q.take()   # blocks: queue empty
        return item, m.now

    def closer(c):
        yield 500
        q.close()

    p = m.spawn(ctx, taker(ctx))
    m.spawn(ctx, closer(ctx))
    m.run()
    item, t = p.result
    assert item is None and t >= 500


# -- bounded scripts + the retry policy -------------------------------------

def _mp_counter(n_clients):
    m = Machine(tile_gx())
    ot = OpTable()
    prim = MPServer(m, ot, server_tid=0)
    ctr = LockedCounter(prim)
    prim.start()
    ctxs = [m.thread(t) for t in range(1, n_clients + 1)]
    return m, prim, ctr, ctxs


def test_bounded_scripts_complete_exactly_once_unbounded():
    m, prim, ctr, ctxs = _mp_counter(3)
    adm = AdmissionSpec(policy="unbounded")
    arr = ArrivalSpec(process="deterministic", mean_gap_cycles=300)
    done = []
    scripts = []
    for ctx in ctxs:
        q = AdmissionQueue(m, ctx.tid, None)
        rng = np.random.default_rng([1, ctx.tid])
        scripts.append(m.spawn(ctx, bounded_source(ctx, q, arr, rng, 5)))
        scripts.append(m.spawn(
            ctx, bounded_worker(
                ctx, q, prim, ctr._op_inc, adm,
                on_result=lambda c, k, rv, t0, t1: done.append(rv))))

    def coordinator():
        for p in scripts:
            yield from p.join()
        if hasattr(prim, "stop"):
            prim.stop()

    m.sim.spawn(coordinator(), name="coordinator")
    m.run()
    # every arrival completed, and the tickets linearize with no holes
    assert sorted(done) == list(range(15))
    assert ctr.value() == 15


def test_bounded_drop_sheds_are_side_effect_free():
    m, prim, ctr, ctxs = _mp_counter(2)
    adm = AdmissionSpec(policy="drop", capacity=1)
    arr = ArrivalSpec(process="deterministic", mean_gap_cycles=40)
    done, procs = [], []
    queues = []
    for ctx in ctxs:
        q = AdmissionQueue(m, ctx.tid, adm.capacity)
        queues.append(q)
        rng = np.random.default_rng([1, ctx.tid])
        procs.append(m.spawn(ctx, bounded_source(ctx, q, arr, rng, 20)))
        procs.append(m.spawn(
            ctx, bounded_worker(
                ctx, q, prim, ctr._op_inc, adm,
                on_result=lambda c, k, rv, t0, t1: done.append(rv))))

    def coordinator():
        for p in procs:
            yield from p.join()
        if hasattr(prim, "stop"):
            prim.stop()

    m.sim.spawn(coordinator(), name="coordinator")
    m.run()
    shed = sum(q.shed for q in queues)
    assert shed > 0                          # overload actually happened
    assert len(done) + shed == 40            # every arrival accounted for
    assert ctr.value() == len(done)          # shed ops executed nothing
    assert sorted(done) == list(range(len(done)))


def _unclaimed_shm(n_clients=1):
    """Cancellable shm-server whose server thread never starts: every
    timed dispatch expires and is withdrawn (the pure-timeout regime)."""
    m = Machine(tile_gx())
    ot = OpTable()
    prim = ShmServer(m, ot, server_tid=0,
                     client_tids=range(1, n_clients + 1), cancellable=True)
    ctr = LockedCounter(prim)
    ctxs = [m.thread(t) for t in range(1, n_clients + 1)]
    return m, prim, ctr, ctxs


def test_dispatch_timeout_is_side_effect_free_and_restores_inflight():
    """A timed dispatch withdraws only after its full deadline and
    executes nothing; the open-loop driver, which owns the in-flight
    gauge, holds it up while the dispatch waits and restores it to 0
    once the timeout unwinds."""
    # the primitive alone: the deadline is honoured in full
    m, prim, ctr, (ctx,) = _unclaimed_shm()

    def client(c):
        try:
            yield from prim.apply_op_timed(c, ctr._op_inc, timeout=400)
        except DispatchTimeout as exc:
            return ("timeout", exc.waited >= 400)

    p = m.spawn(ctx, client(ctx))
    m.run()
    assert p.result == ("timeout", True)
    assert ctr.value() == 0

    # through the driver: the gauge is up mid-dispatch, 0 afterwards
    m, prim, ctr, (ctx,) = _unclaimed_shm()
    adm = AdmissionSpec(policy="retry", capacity=1,
                        dispatch_timeout_cycles=400, max_retries=0)
    q = AdmissionQueue(m, ctx.tid, adm.capacity)
    q.offer(0)
    q.close()
    inflight, shed, gauge = [0], [], []

    def probe():
        yield 200                   # mid-dispatch
        gauge.append(inflight[0])

    p = m.spawn(ctx, bounded_worker(ctx, q, prim, ctr._op_inc, adm,
                                    on_shed=lambda c, k: shed.append(k),
                                    inflight=inflight))
    m.sim.spawn(probe(), name="probe")
    m.run()
    assert not p.alive
    assert shed == [0]              # the one attempt timed out
    assert gauge == [1]
    assert inflight == [0]
    assert ctr.value() == 0


def test_retry_policy_exhausts_and_sheds_with_backoff():
    m, prim, ctr, (ctx,) = _unclaimed_shm()
    adm = AdmissionSpec(policy="retry", capacity=4,
                        dispatch_timeout_cycles=300, max_retries=2,
                        backoff_base_cycles=64, backoff_cap_cycles=128)
    q = AdmissionQueue(m, ctx.tid, adm.capacity)
    q.offer(0)
    q.close()
    shed = []
    p = m.spawn(ctx, bounded_worker(ctx, q, prim, ctr._op_inc, adm,
                                    on_shed=lambda c, k: shed.append(k)))
    m.run()
    assert not p.alive
    assert shed == [0]               # dropped after initial try + 2 retries
    assert ctr.value() == 0          # provably never executed
    # 3 attempts of >= 300 cycles plus backoffs 64 + 128
    assert m.now >= 3 * 300 + 64 + 128


def test_circuit_breaker_trips_and_half_open_reprobe_retrips():
    m, prim, ctr, (ctx,) = _unclaimed_shm()
    adm = AdmissionSpec(policy="retry", capacity=8,
                        dispatch_timeout_cycles=200, max_retries=1,
                        backoff_base_cycles=32, backoff_cap_cycles=32,
                        breaker_threshold=2, breaker_cooldown_cycles=5_000)
    q = AdmissionQueue(m, ctx.tid, adm.capacity)
    for k in range(3):
        q.offer(k)
    q.close()
    shed = []
    from repro.workload.openloop import _breaker_state, _dispatch
    counters = {"timeouts": 0, "retries": 0, "retry_shed": 0,
                "breaker_trips": 0}
    state = _breaker_state()

    def worker(c):
        while True:
            item = yield from q.take()
            if item is None:
                return
            ok, _ = yield from _dispatch(c, prim, ctr._op_inc, 0, adm,
                                         state, counters, [0])
            if not ok:
                shed.append(item[0])

    m.spawn(ctx, worker(ctx))
    m.run()
    assert shed == [0, 1, 2]
    assert counters["timeouts"] == 6           # 2 attempts per op
    # trips at the threshold, then every half-open probe re-trips
    assert counters["breaker_trips"] >= 3
    # cooldowns were actually served as local spin (no shared-path hammering)
    assert m.now >= 3 * adm.breaker_cooldown_cycles


def test_shm_cancellable_default_untimed_path_still_exact():
    """cancellable=True with a live server and no timeout must behave
    exactly like the plain protocol (claims all taken, none cancelled)."""
    m = Machine(tile_gx())
    ot = OpTable()
    prim = ShmServer(m, ot, server_tid=0, client_tids=range(1, 4),
                     cancellable=True)
    ctr = LockedCounter(prim)
    prim.start()
    ctxs = [m.thread(t) for t in range(1, 4)]
    got = []

    def client(c):
        for _ in range(10):
            v = yield from prim.apply_op(c, ctr._op_inc)
            got.append(v)

    procs = [m.spawn(c, client(c)) for c in ctxs]

    def coordinator():
        for p in procs:
            yield from p.join()
        if hasattr(prim, "stop"):
            prim.stop()

    m.sim.spawn(coordinator(), name="coordinator")
    m.run()
    assert sorted(got) == list(range(30))
    assert ctr.value() == 30
    assert prim.requests_cancelled == 0


def test_shm_cancellable_timeout_then_success_after_server_starts():
    """A request cancelled while the server is wedged must be retryable:
    the retry executes exactly once when the server comes back."""
    m = Machine(tile_gx())
    ot = OpTable()
    prim = ShmServer(m, ot, server_tid=0, client_tids=[1], cancellable=True)
    ctr = LockedCounter(prim)
    ctx = m.thread(1)

    def late_start():
        yield 2_000
        prim.start()

    def client(c):
        timeouts = 0
        while True:
            try:
                v = yield from prim.apply_op_timed(c, ctr._op_inc,
                                                   timeout=600)
                return timeouts, v
            except DispatchTimeout:
                timeouts += 1

    m.sim.spawn(late_start(), name="late-start")
    p = m.spawn(ctx, client(ctx))
    m.sim.run(until=20_000)
    timeouts, v = p.result
    assert timeouts >= 1             # the wedged period produced timeouts
    assert v == 0 and ctr.value() == 1   # ...but exactly one increment


def test_shm_server_skips_withdrawn_claim_of_abandoned_request():
    """A client that cancels and walks away leaves CLAIM=_GONE+seq in the
    channel; the late-starting server must lose the commit CAS and skip
    the request instead of executing it."""
    m = Machine(tile_gx())
    ot = OpTable()
    prim = ShmServer(m, ot, server_tid=0, client_tids=[1], cancellable=True)
    ctr = LockedCounter(prim)
    ctx = m.thread(1)

    def client(c):
        try:
            yield from prim.apply_op_timed(c, ctr._op_inc, timeout=600)
        except DispatchTimeout:
            return "gave-up"

    def late_start():
        yield 2_000                  # well after the client withdrew
        prim.start()

    p = m.spawn(ctx, client(ctx))
    m.sim.spawn(late_start(), name="late-start")
    m.sim.run(until=20_000)
    assert p.result == "gave-up"
    assert ctr.value() == 0              # the abandoned op never executed
    assert prim.requests_cancelled == 1  # and the server saw the withdrawal


# -- the windowed open-loop driver ------------------------------------------

def _run_point(policy, *, seed=42, n=4, gap=20.0):
    m, prim, ctr, ctxs = _mp_counter(n)
    adm = (AdmissionSpec(policy="unbounded", slo_cycles=3_000)
           if policy == "unbounded"
           else AdmissionSpec(policy="drop", capacity=8, slo_cycles=3_000))
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="deterministic", mean_gap_cycles=gap),
        admission=adm, warmup_cycles=5_000, measure_cycles=40_000,
        seed=seed, depth_sample_cycles=500)
    r = run_openloop_workload(m, ctxs, prim, ctr._op_inc, spec, name=policy)
    return r, ctr


def test_unbounded_past_capacity_diverges_bounded_stays_flat():
    """The acceptance criterion: past the knee, unbounded queue depth and
    tail latency grow without bound; bounded-drop pins both."""
    ru, _ = _run_point("unbounded")
    rd, _ = _run_point("drop")

    # unbounded: depth still climbing at window end, tail latency diverging
    assert ru.extra["ol.qdepth_final"] >= ru.extra["ol.qdepth_max"] * 0.9
    assert ru.extra["ol.qdepth_final"] > 10 * rd.extra["ol.qdepth_max"]
    assert ru.p99_latency_cycles > 5 * rd.p99_latency_cycles
    assert ru.extra["ol.shed"] == 0

    # bounded: sheds the excess, keeps the queue and the SLO
    assert rd.extra["ol.qdepth_max"] <= 4 * 8 + 16   # n*capacity + inflight
    # exact peak, queued plus in-flight: pinned across the move of the
    # in-flight gauge from the primitives into the open-loop driver
    assert rd.extra["ol.qdepth_max"] == 35.0
    assert rd.shed_ops > 0
    assert rd.time_in_slo == 1.0
    assert ru.time_in_slo < 0.5

    # shedding must not cost service capacity: bounded goodput matches
    # the unbounded service rate even though offered load far exceeds it
    assert rd.goodput_mops >= 0.8 * ru.goodput_mops
    assert rd.offered_mops > 1.5 * rd.goodput_mops


def test_openloop_driver_reports_host_perf():
    m, prim, ctr, ctxs = _mp_counter(2)
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(process="deterministic", mean_gap_cycles=200.0),
        admission=AdmissionSpec(policy="unbounded"),
        warmup_cycles=2_000, measure_cycles=10_000, seed=1)
    ev0 = m.sim.events_processed
    r = run_openloop_workload(m, ctxs, prim, ctr._op_inc, spec)
    assert r.host_events_processed == m.sim.events_processed - ev0 > 0
    assert r.host_wall_seconds > 0
    assert r.host_events_per_sec > 0


def test_openloop_driver_exactly_once_accounting():
    r, ctr = _run_point("drop")
    # ops counted in the window can never exceed the counter's ground
    # truth (warmup + in-flight ops also increment it)
    assert 0 < r.ops <= ctr.value()
    assert r.extra["ol.admitted"] + r.extra["ol.shed"] > 0


def test_openloop_driver_same_seed_bit_identical():
    a, _ = _run_point("drop", seed=7)
    b, _ = _run_point("drop", seed=7)
    assert a.ops == b.ops
    assert a.latency_samples == b.latency_samples
    assert a.extra == b.extra
    assert a.queue_depth_series == b.queue_depth_series


def test_openloop_driver_poisson_seed_changes_traffic():
    def poisson_point(seed):
        m, prim, ctr, ctxs = _mp_counter(2)
        spec = OpenLoopSpec(
            arrivals=ArrivalSpec(process="poisson", mean_gap_cycles=200),
            admission=AdmissionSpec(policy="drop", capacity=4),
            warmup_cycles=2_000, measure_cycles=20_000, seed=seed)
        return run_openloop_workload(m, ctxs, prim, ctr._op_inc, spec)
    a, b = poisson_point(1), poisson_point(2)
    assert a.latency_samples != b.latency_samples


def test_openloop_driver_rejects_empty_ctxs():
    m = Machine(tile_gx())
    ot = OpTable()
    prim = MPServer(m, ot, server_tid=0)
    ctr = LockedCounter(prim)
    prim.start()
    with pytest.raises(ValueError, match="at least one client"):
        run_openloop_workload(m, [], prim, ctr._op_inc, OpenLoopSpec())


# -- RunResult overload extras ----------------------------------------------

def test_runresult_overload_properties_read_extras():
    r = RunResult(name="x", num_threads=2, window_cycles=100_000, ops=500,
                  clock_mhz=1200)
    assert r.p999_latency_cycles == 0.0
    assert r.goodput_mops == r.throughput_mops   # closed-loop fallback
    assert r.offered_mops == 0.0
    assert r.time_in_slo is None
    r.extra.update({"ol.p999_latency": 9_000.0, "ol.offered_mops": 12.0,
                    "ol.goodput_mops": 6.0, "ol.shed": 41.0,
                    "ol.timeouts": 7.0, "ol.retries": 9.0,
                    "ol.time_in_slo": 0.75})
    assert r.p999_latency_cycles == 9_000.0
    assert r.offered_mops == 12.0 and r.goodput_mops == 6.0
    assert r.shed_ops == 41 and r.dispatch_timeouts == 7 and r.retries == 9
    assert r.time_in_slo == 0.75
    s = r.summary()
    assert "offered" in s and "goodput" in s and "shed" in s and "slo" in s


def test_runresult_p999_falls_back_to_samples():
    r = RunResult(name="x", num_threads=1, window_cycles=1_000, ops=1000,
                  clock_mhz=1200)
    r.latency_samples = list(range(1000))
    assert r.p999_latency_cycles == pytest.approx(
        float(np.percentile(np.asarray(r.latency_samples), 99.9)))
