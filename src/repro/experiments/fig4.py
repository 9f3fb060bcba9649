"""Figure 4: where the performance difference comes from.

* 4a -- stalled vs total cycles per operation on the servicing thread,
  under maximum load.  Per the paper's footnote 4, the combiners run in
  fixed-combiner mode ("equivalent to setting MAX_OPS = inf") so the
  per-core event counters isolate the servicing critical path.
* 4b -- the actual combining rate vs thread count for HYBCOMB and
  CC-SYNCH (MAX_OPS = 200).
* 4c -- average cycles per CS execution as the CS body grows (array
  increments), including the "ideal" unsynchronized line.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.series import FigureData
from repro.core import OpTable
from repro.core.api import DirectExec
from repro.experiments.parallel import point, run_sweep
from repro.machine import Machine, tile_gx
from repro.objects import ArrayCS
from repro.workload.driver import WorkloadSpec, run_workload
from repro.workload.metrics import RunResult
from repro.workload.scenarios import (
    APPROACH_BUILDERS,
    run_counter_benchmark,
    run_cs_length_benchmark,
)

__all__ = ["run_fig4a", "run_fig4b", "run_fig4c"]


def _spec(quick: bool) -> WorkloadSpec:
    return WorkloadSpec.quick() if quick else WorkloadSpec.full()


def run_fig4a(quick: bool = True, num_threads: int = 30,
              jobs: Optional[int] = None) -> FigureData:
    """Stalled and total cycles per op on the servicing thread.

    x is categorical (the approach); each point carries the full
    RunResult, and the stall/total split is read from
    ``service_stall_per_op`` / ``service_cycles_per_op``.
    """
    spec = _spec(quick)
    fig = FigureData("fig4a", "CPU stalls on the servicing thread (Fig 4a)",
                     "approach", "cycles per operation")
    pts = [point(approach, i, run_counter_benchmark, approach, num_threads,
                 spec=spec, fixed_combiner=True)
           for i, approach in enumerate(APPROACH_BUILDERS)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig4a")):
        fig.add_point(p.label, p.x, r)
    fig.note("combiners measured in fixed-combiner mode (MAX_OPS = inf), "
             "per the paper's footnote 4")
    return fig


def run_fig4b(quick: bool = True,
              threads: Optional[Sequence[int]] = None,
              jobs: Optional[int] = None) -> FigureData:
    """Actual combining rate vs application threads (MAX_OPS = 200)."""
    from repro.experiments.fig3 import FULL_THREADS, QUICK_THREADS

    threads = tuple(threads if threads is not None else
                    (QUICK_THREADS if quick else FULL_THREADS))
    spec = _spec(quick)
    fig = FigureData("fig4b", "Actual combining rate (Fig 4b)",
                     "application threads", "ops per combining session")
    pts = [point(approach, t, run_counter_benchmark, approach, t, spec=spec)
           for approach in ("HybComb", "CC-Synch") for t in threads
           if t >= 2]  # no combining with a single thread
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig4b")):
        fig.add_point(p.label, p.x, r)
    return fig


def _ideal_cs_point(k: int, seed: int) -> RunResult:
    """One "ideal" point: the CS body alone, no synchronization.

    Module-level (not a closure inside :func:`run_fig4c`) so the
    parallel sweep runner can ship it to a worker process.
    """
    machine = Machine(tile_gx())
    table = OpTable()
    prim = DirectExec(machine, table)
    arr = ArrayCS(prim)
    prim.start()
    ctx = machine.thread(0)

    def make_op(c):
        return lambda _i: arr.run(c, k)

    ideal_spec = WorkloadSpec(warmup_cycles=2000,
                              measure_cycles=20_000,
                              think_max_iterations=0,
                              seed=seed)
    return run_workload(machine, [ctx], make_op, ideal_spec, name="ideal")


def run_fig4c(quick: bool = True,
              iterations: Optional[Sequence[int]] = None,
              num_threads: int = 30,
              jobs: Optional[int] = None) -> FigureData:
    """Cycles per CS execution vs CS body length, plus the ideal line.

    Under maximum load the servicing thread is saturated, so cycles per
    CS = machine clock / aggregate throughput.  The "ideal" series
    measures the body alone (DirectExec, single thread, no think time).
    """
    iters = tuple(iterations if iterations is not None else
                  ((0, 2, 5, 8, 11, 15) if quick else tuple(range(0, 16))))
    spec = _spec(quick)
    fig = FigureData("fig4c", "Long critical sections (Fig 4c)",
                     "CS length (iterations)", "cycles per CS execution")
    pts = [point(approach, k, run_cs_length_benchmark, approach, num_threads,
                 k, spec=spec)
           for approach in APPROACH_BUILDERS for k in iters]
    # ideal line: the body with no synchronization at all
    pts += [point("ideal", k, _ideal_cs_point, k, spec.seed) for k in iters]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig4c")):
        fig.add_point(p.label, p.x, r)
    fig.note("cycles per CS for the approaches = clock / throughput at "
             f"{num_threads} threads; ideal = single-thread DirectExec latency")
    return fig
