"""Golden pin for the perf-counter file on the overload points.

``PerfCounters`` is the simulated chip's counter file (Figure 4a reads
its stall registers), and the open-loop overload runs are the one place
observability stays on under load.  This test replays the four overload
points of the repository benchmark at a reduced window, with the same
telemetry (sampler + SLOs), and hashes everything the observation path
reports: every counter register, every sampled series, the number of
bus events and the SLO breach count.  Every delivery on these points
takes at least 4 cycles, so a latency sweep fed straight to the bus
pins the low histogram buckets as well.  The digest was recorded before
the bus switched to per-kind routing and the UDN registers to plain
ints; it proves that neither change moved a single reported value.
"""

from __future__ import annotations

import hashlib
import json

from repro.core import OpTable
from repro.experiments.overload import NUM_CLIENTS, _admission, overload_slos
from repro.machine import Machine, tile_gx
from repro.objects import LockedCounter
from repro.workload import ArrivalSpec, OpenLoopSpec, run_openloop_workload
from repro.workload.scenarios import build_approach

#: (approach, admission policy, offered Mops/s, measure cycles): the
#: benchmark's overload points, windows cut to a quarter
POINTS = (
    ("mp-server", "retry", 70.0, 15_000),
    ("mp-server", "unbounded", 200.0, 15_000),
    ("HybComb", "drop", 8.0, 75_000),
    ("HybComb", "unbounded", 33.0, 75_000),
)

#: sha256 over every point's _observation() and the _latency_sweep(),
#: recorded before the switch
COUNTERS_DIGEST = (
    "b26604cca2e46794fc5edc53ec5be270c145eebb65212734b599540e7be27b74"
)


def _observation(approach: str, policy: str, offered_mops: float,
                 measure_cycles: int) -> list:
    machine = Machine(tile_gx())
    obs = machine.enable_observability(timeseries=True, slos=overload_slos())
    prim, tids = build_approach(approach, machine, OpTable(), NUM_CLIENTS)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    spec = OpenLoopSpec(
        arrivals=ArrivalSpec(
            process="poisson",
            mean_gap_cycles=len(ctxs) * machine.cfg.clock_mhz / offered_mops),
        admission=_admission(policy),
        warmup_cycles=5_000, measure_cycles=measure_cycles, seed=1)
    run_openloop_workload(machine, ctxs, prim, counter._op_inc, spec,
                          name=f"{approach}/{policy}")
    series = {name: list(s.points()) for name, s in obs.sampler.series.items()}
    return [obs.counters.snapshot(), series, obs.bus.events_emitted,
            obs.slo.breaches]


def _latency_sweep() -> dict:
    """udn_hist after one delivery at each latency around every 2**k."""
    machine = Machine(tile_gx())
    obs = machine.enable_observability()
    lats = sorted({0, 1, 2, 3, *(2**k + d for k in range(2, 41)
                                for d in (-1, 0, 1))})
    for lat in lats:
        obs.bus.emit("udn.deliver", core=0, demux=0, words=1, latency=lat,
                     msg_id=lat)
    return obs.counters.snapshot()["udn_hist"]


def _digest() -> str:
    h = hashlib.sha256()
    for doc in [_observation(*point) for point in POINTS] + [_latency_sweep()]:
        h.update(json.dumps(doc, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def test_overload_counter_file_is_pinned():
    assert _digest() == COUNTERS_DIGEST
