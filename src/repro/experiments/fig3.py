"""Figure 3: performance of a concurrent counter.

* 3a -- throughput (Mops/s) vs number of application threads, for the
  four approaches (MAX_OPS = 200).
* 3b -- average request latency (cycles) vs threads (same runs as 3a).
* 3c -- peak throughput vs the allowed combining rate (MAX_OPS sweep)
  for the two combining algorithms, at high concurrency.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.analysis.series import FigureData
from repro.experiments.parallel import point, run_sweep
from repro.machine import tile_gx
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import (
    APPROACH_BUILDERS,
    num_servers,
    run_counter_benchmark,
)

__all__ = ["run_fig3a_3b", "run_fig3a", "run_fig3b", "run_fig3c",
           "QUICK_THREADS", "FULL_THREADS"]

QUICK_THREADS = (1, 5, 10, 15, 20, 25, 30, 35)
FULL_THREADS = (1, 2, 4, 6, 8, 10, 12, 14, 17, 20, 22, 25, 28, 31, 33, 35)

QUICK_MAX_OPS = (1, 5, 20, 100, 500, 2000, 5000)
FULL_MAX_OPS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


def _spec(quick: bool) -> WorkloadSpec:
    return WorkloadSpec.quick() if quick else WorkloadSpec.full()


def run_fig3a_3b(quick: bool = True,
                 threads: Optional[Sequence[int]] = None,
                 approaches: Sequence[str] = APPROACH_BUILDERS,
                 jobs: Optional[int] = None,
                 ) -> Tuple[FigureData, FigureData]:
    """One sweep produces both the throughput and the latency figure."""
    threads = tuple(threads if threads is not None else
                    (QUICK_THREADS if quick else FULL_THREADS))
    spec = _spec(quick)
    cores = tile_gx().num_cores
    fig_a = FigureData("fig3a", "Counter throughput (Fig 3a)",
                       "application threads", "throughput (Mops/s)")
    fig_b = FigureData("fig3b", "Counter latency (Fig 3b)",
                       "application threads", "latency (cycles)")
    pts = [point(approach, t, run_counter_benchmark, approach, t, spec=spec)
           for approach in approaches for t in threads
           if t + num_servers(approach) <= cores]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig3a/3b")):
        fig_a.add_point(p.label, p.x, r)
        fig_b.add_point(p.label, p.x, r)
    return fig_a, fig_b


def run_fig3a(quick: bool = True, **kw) -> FigureData:
    return run_fig3a_3b(quick, **kw)[0]


def run_fig3b(quick: bool = True, **kw) -> FigureData:
    return run_fig3a_3b(quick, **kw)[1]


def run_fig3c(quick: bool = True,
              max_ops_values: Optional[Sequence[int]] = None,
              num_threads: int = 30,
              jobs: Optional[int] = None,
              ) -> FigureData:
    """Peak counter throughput vs MAX_OPS, for HYBCOMB and CC-SYNCH.

    The paper examines "how the maximum achievable throughput changes
    with MAX_OPS"; we run at a high concurrency level where throughput
    peaks.
    """
    values = tuple(max_ops_values if max_ops_values is not None else
                   (QUICK_MAX_OPS if quick else FULL_MAX_OPS))
    spec = _spec(quick)
    fig = FigureData("fig3c", "Impact of the allowed combining rate (Fig 3c)",
                     "MAX_OPS", "throughput (Mops/s)")
    pts = [point(approach, mo, run_counter_benchmark, approach, num_threads,
                 spec=spec, max_ops=mo)
           for approach in ("HybComb", "CC-Synch") for mo in values]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig3c")):
        fig.add_point(p.label, p.x, r)
    return fig
