"""The repository benchmark: one workload per invocation, serially, in-process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mp-counter --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` of wall time.  Each
repetition builds every point (timed as set-up), simulates it (timed as
run) and checks it.  Both are timed in CPU seconds of this process, so
time the host gives to other processes or other guests does not count,
and scaled to the reference host's speed by the probe passes timed around
the repetition (:mod:`hostspeed`).  The end-to-end metrics are medians
over the repetitions.  Simulated results must repeat exactly in every
repetition.
After the timed loop, each closed-loop point is run once more through the
library's own figure runner, which must reproduce it exactly.

``--trace 1`` runs the workload once untraced and once under the layer
tracer (:mod:`layertrace`), checks that both runs simulate the same thing,
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any correctness check fails.  Metric definitions, and the end-to-end
metric each per-layer metric should move, are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import REFERENCE_S, HostProbe
from layertrace import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the packages under ``src/repro`` on the simulation's hot path
LAYERS = ("sim", "mem", "udn", "noc", "machine", "core", "objects",
          "workload", "obs")

#: set-up is short and noisy, so it is sampled at least this many times
SETUP_SAMPLES = 30

#: the clock for set-up and run times: CPU seconds of this single-threaded
#: process.  The kernel leaves out time the process waits for a CPU,
#: including time stolen by the hypervisor, which a wall clock would count.
clock = time.process_time


@dataclass
class Rep:
    """One repetition of a workload: CPU times and per-point outcomes."""

    setup_s: float
    run_s: float
    outcomes: list
    #: multiplies this repetition's times to the reference host's speed
    speed: float = 1.0


def run_rep(workload, seed: int, tracer=None) -> Rep:
    """Build, simulate and check every point of ``workload`` once.

    With a ``tracer``, only the simulation is traced, with the cyclic
    garbage collector paused so the entry counts are exact.
    """
    setup_s = run_s = 0.0
    outcomes = []
    for build in workload.builders:
        point, seconds = _timed_build(build, seed)
        setup_s += seconds
        gc.collect()
        if tracer is not None:
            gc.disable()
        try:
            with tracer if tracer is not None else nullcontext():
                t0 = clock()
                result = point.drive()
                run_s += clock() - t0
        finally:
            gc.enable()
        outcomes.append(point.finish(result))
        del point, result
    return Rep(setup_s, run_s, outcomes)


def _timed_build(build, seed: int):
    gc.collect()
    t0 = clock()
    point = build(seed)
    return point, clock() - t0


def setup_only(workload, seed: int) -> float:
    """Seconds to build every point of ``workload`` once, without running."""
    return sum(_timed_build(build, seed)[1] for build in workload.builders)


def _gmean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _sum(outcomes, key: str) -> float:
    return sum(o.counters[key] for o in outcomes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(reps: List[Rep], setups: List[float], probe_mb: float = 0.0
               ) -> Dict[str, Tuple[float, str]]:
    """The user-visible metrics: host medians plus simulated results.

    ``setups`` are set-up times already scaled to the reference host;
    ``probe_mb`` is the host probe's share of the peak memory.
    """
    outs = reps[0].outcomes
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs)
    return {
        "run_s": (statistics.median(r.run_s * r.speed for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb() - probe_mb, "MB"),
        "sim_mops": (_gmean([o.result.goodput_mops for o in outs]), "Mops/s"),
        "sim_p50_cycles": (
            _gmean([o.result.p50_latency_cycles for o in outs]), "cycles"),
        "sim_p99_cycles": (
            _gmean([o.result.p99_latency_cycles for o in outs]), "cycles"),
        "served_frac": (1 - failed / attempted, "fraction"),
    }


def counter_layers(rep: Rep) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics read from the public counters after a run."""
    outs = rep.outcomes
    ops = sum(o.ops_total for o in outs)
    window_ops = sum(o.result.ops for o in outs)
    cycles = _sum(outs, "busy") + _sum(outs, "wait") + sum(
        _sum(outs, k) for k in ("stall_mem", "stall_atomic", "stall_fence"))
    cas = _sum(outs, "cas_ops")
    served = [o.result.service_cycles_per_op for o in outs
              if o.result.service_cycles_per_op]
    combining = [o.result.combining_rate for o in outs
                 if o.result.combining_rate is not None]
    admit_wait = [o.result.extra["ol.mean_admit_wait"] for o in outs
                  if "ol.mean_admit_wait" in o.result.extra]
    attempted = sum(o.attempted for o in outs)

    def per_op(key: str) -> float:
        return _sum(outs, key) / ops

    return {
        "sim.events_per_op": (per_op("events"), "events/op"),
        "sim.events_per_s": (_sum(outs, "events") / rep.run_s, "events/s"),
        "machine.busy_share": (_sum(outs, "busy") / cycles, "fraction"),
        "machine.stall_share": (
            (_sum(outs, "stall_mem") + _sum(outs, "stall_atomic")
             + _sum(outs, "stall_fence")) / cycles, "fraction"),
        "machine.wait_share": (_sum(outs, "wait") / cycles, "fraction"),
        "machine.fairness": (
            _gmean([o.result.fairness_ratio for o in outs]), "max/min"),
        "mem.rmr_per_op": (per_op("rmr"), "rmr/op"),
        "mem.stall_mem_per_op": (per_op("stall_mem"), "cycles/op"),
        "mem.stall_atomic_per_op": (per_op("stall_atomic"), "cycles/op"),
        "mem.stall_fence_per_op": (per_op("stall_fence"), "cycles/op"),
        "mem.loads_per_op": (per_op("loads"), "loads/op"),
        "mem.stores_per_op": (per_op("stores"), "stores/op"),
        "mem.cas_success_ratio": (
            1 - _sum(outs, "cas_failures") / cas if cas else 1.0, "fraction"),
        "mem.dir_peak_entries": (
            max(o.counters["dir_peak_entries"] for o in outs), "count"),
        "mem.dir_bytes": (max(o.counters["dir_bytes"] for o in outs),
                          "bytes"),
        "udn.msgs_per_op": (per_op("msgs_sent"), "msgs/op"),
        "udn.backpressure_cycles_per_op": (
            per_op("udn_backpressure"), "cycles/op"),
        "core.service_cycles_per_op": (
            statistics.fmean(served) if served else 0.0, "cycles/op"),
        "core.combining_rate": (
            statistics.fmean(combining) if combining else 0.0, "ops/session"),
        "workload.admit_wait_cycles": (
            statistics.fmean(admit_wait) if admit_wait else 0.0, "cycles"),
        "workload.retries_per_op": (
            sum(o.result.retries for o in outs) / window_ops, "retries/op"),
        "workload.qdepth_max": (
            max(o.result.extra.get("ol.qdepth_max", 0.0) for o in outs),
            "reqs"),
        "workload.failed_frac": (
            sum(o.failed for o in outs) / attempted, "fraction"),
        "workload.latency_samples": (
            min(len(o.result.latency_samples) for o in outs), "count"),
    }


def traced_layers(tracer, untraced: Rep, traced: Rep
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer host cost from the traced run."""
    ops = sum(o.ops_total for o in traced.outcomes)
    share = tracer.self_share()
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.entries_per_op"] = (
            tracer.entries[layer] / ops, "entries/op")
        metrics[f"{layer}.self_share"] = (share.get(layer, 0.0), "fraction")
        metrics[f"{layer}.self_us_per_op"] = (
            tracer.self_ns[layer] / 1000 / ops, "us/op")
    metrics["trace.overhead"] = (traced.run_s / untraced.run_s, "x")
    return metrics


def check_repeats(reference: Rep, rep: Rep, what: str) -> None:
    """Flag each point of ``rep`` that simulated differently."""
    for a, b in zip(reference.outcomes, rep.outcomes):
        if a.fingerprint() != b.fingerprint():
            b.errors.append(f"{what} simulated a different result")


def report(reps: List[Rep], metrics: Dict[str, Tuple[float, str]],
           extra_lines: Sequence[str] = ()) -> bool:
    """Print the human-readable summary and the final JSON line."""
    print(f"{'point':28s} {'ops':>6s} {'Mops/s':>9s} {'p50 cyc':>9s} "
          f"{'p99 cyc':>9s} {'samples':>7s} {'attempted':>9s} {'failed':>6s}")
    for o in reps[0].outcomes:
        r = o.result
        print(f"{o.label:28s} {r.ops:6d} {r.goodput_mops:9.3f} "
              f"{r.p50_latency_cycles:9.1f} {r.p99_latency_cycles:9.1f} "
              f"{len(r.latency_samples):7d} {o.attempted:9d} {o.failed:6d}")
    print(f"repetitions: {len(reps)}; CPU s per repetition: "
          + ", ".join(f"{r.run_s:.3f}" for r in reps))
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    errors = [f"{o.label}: {e}" for rep in reps for o in rep.outcomes
              for e in o.errors]
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors
    attempted = sum(o.attempted for rep in reps for o in rep.outcomes)
    failed = sum(o.failed for rep in reps for o in rep.outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return correct


def timed_run(workload, seed: int, seconds: float) -> bool:
    """Repeat the workload for ``seconds`` of wall time.

    A probe pass runs before the first repetition and after each one;
    a repetition's times are scaled by the mean of the two passes around
    it, so a host that slows down for a while slows the probe alike.
    """
    # the process is at its peak memory here, so the probe's graph raises
    # the peak by exactly its own size
    before = peak_rss_mb()
    probe = HostProbe()
    probe_mb = peak_rss_mb() - before
    start = time.perf_counter()
    probes = [probe.seconds()]
    reps: List[Rep] = []
    while not reps or time.perf_counter() - start < seconds:
        rep = run_rep(workload, seed)
        probes.append(probe.seconds())
        rep.speed = 2 * REFERENCE_S / (probes[-2] + probes[-1])
        if reps:
            check_repeats(reps[0], rep, "a repetition")
            for o in rep.outcomes:
                # checked; drop the samples so memory does not grow with
                # the number of repetitions
                o.result.latency_samples = None
        reps.append(rep)
    setups = [rep.setup_s * rep.speed for rep in reps]
    extra = [setup_only(workload, seed)
             for _ in range(SETUP_SAMPLES - len(setups))]
    if extra:
        probes.append(probe.seconds())
        speed = 2 * REFERENCE_S / (probes[-2] + probes[-1])
        setups += [s * speed for s in extra]
    # read the peak memory before the differential check, whose library
    # runners build machines of their own
    metrics = end_to_end(reps, setups, probe_mb)
    workload.check_against_figures(seed, reps[0].outcomes)
    return report(reps, metrics, [
        "probe CPU s per pass: " + ", ".join(f"{p:.4f}" for p in probes),
        "run_s at the reference host's speed per repetition: "
        + ", ".join(f"{r.run_s * r.speed:.3f}" for r in reps)])


def traced_run(workload, seed: int) -> bool:
    untraced = run_rep(workload, seed)
    tracer = LayerTracer("repro")
    traced = run_rep(workload, seed, tracer)
    check_repeats(untraced, traced, "the traced run")
    metrics = counter_layers(untraced)
    metrics.update(traced_layers(tracer, untraced, traced))
    ops = sum(o.ops_total for o in traced.outcomes)
    edges = [f"  {a} -> {b}: {n / ops:.3f} entries/op"
             for a, b, n in tracer.edge_table()]
    return report([untraced, traced], metrics,
                  ["layer entries by caller (traced run):"] + edges)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     + ", ".join(WORKLOADS))
    workload = WORKLOADS[args.workload](1.0)
    ok = (traced_run(workload, args.seed) if args.trace
          else timed_run(workload, args.seed, args.seconds))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
