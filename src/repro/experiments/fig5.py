"""Figure 5: concurrent queues and stacks under balanced load.

* 5a -- one-lock MS-Queue under the four approaches, the two-lock
  MS-Queue under MP-SERVER ("mp-server-2"), and LCRQ.
* 5b -- the coarse-lock stack under the four approaches and Treiber's
  nonblocking stack.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.series import FigureData
from repro.experiments.parallel import point, run_sweep
from repro.machine import tile_gx
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import (
    QUEUE_IMPLS,
    STACK_IMPLS,
    num_servers,
    run_queue_benchmark,
    run_stack_benchmark,
)

__all__ = ["run_fig5a", "run_fig5b"]

QUICK_CLIENTS = (2, 5, 10, 15, 20, 25, 30, 34)
FULL_CLIENTS = (2, 4, 6, 8, 10, 12, 14, 17, 20, 23, 26, 29, 32, 34)


def _spec(quick: bool) -> WorkloadSpec:
    return WorkloadSpec.quick() if quick else WorkloadSpec.full()


def _max_clients(impl: str) -> int:
    cores = tile_gx().num_cores
    if impl == "mp-server-2":
        return cores - 2  # two dedicated server cores
    if impl in ("LCRQ", "Treiber"):
        return cores
    return cores - num_servers(impl.removesuffix("-1"))


def run_fig5a(quick: bool = True,
              clients: Optional[Sequence[int]] = None,
              impls: Sequence[str] = QUEUE_IMPLS,
              jobs: Optional[int] = None) -> FigureData:
    clients = tuple(clients if clients is not None else
                    (QUICK_CLIENTS if quick else FULL_CLIENTS))
    spec = _spec(quick)
    fig = FigureData("fig5a", "Queue throughput under balanced load (Fig 5a)",
                     "clients", "throughput (Mops/s)")
    pts = [point(impl, c, run_queue_benchmark, impl, c, spec=spec)
           for impl in impls for c in clients if c <= _max_clients(impl)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig5a")):
        fig.add_point(p.label, p.x, r)
    return fig


def run_fig5b(quick: bool = True,
              clients: Optional[Sequence[int]] = None,
              impls: Sequence[str] = STACK_IMPLS,
              jobs: Optional[int] = None) -> FigureData:
    clients = tuple(clients if clients is not None else
                    (QUICK_CLIENTS if quick else FULL_CLIENTS))
    spec = _spec(quick)
    fig = FigureData("fig5b", "Stack throughput under balanced load (Fig 5b)",
                     "clients", "throughput (Mops/s)")
    pts = [point(impl, c, run_stack_benchmark, impl, c, spec=spec)
           for impl in impls for c in clients if c <= _max_clients(impl)]
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="fig5b")):
        fig.add_point(p.label, p.x, r)
    return fig
