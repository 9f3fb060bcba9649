"""Fault-recovery experiment (robustness extension): ``disc-faults``.

The paper's deadlock argument (Section 6) assumes healthy threads; this
experiment measures what the fault-tolerant MP-SERVER mode (sequence
numbers + dedup table + backup failover, see
:mod:`repro.core.mp_server`) costs and delivers when the primary server
actually dies:

* a **fault-free** series: the FT protocol with a hot standby but no
  injected fault -- its gap to the plain ``fig3a`` mp-server line is
  the steady-state overhead of the 4-word requests and dedup stores;
* a **primary-crash** series: the primary is killed mid-measurement;
  clients time out, back off, fail over to the backup, and the run
  completes.  Recovery metrics (time-to-recovery, ops retried,
  duplicates suppressed) ride along in each ``RunResult``.

Everything is seeded: two invocations produce identical numbers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.series import FigureData
from repro.experiments.parallel import point, run_sweep
from repro.faults import CrashThread, FaultPlan
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import APPROACH_TABLE, run_fault_recovery_benchmark

__all__ = ["run_fault_recovery"]


def run_fault_recovery(quick: bool = True,
                       clients: Sequence[int] = (2, 4, 8, 14),
                       jobs: Optional[int] = None) -> FigureData:
    spec = WorkloadSpec.quick() if quick else WorkloadSpec.full()
    # kill the primary one third into the measurement window so the
    # recovery transient and the post-failover steady state both land
    # inside the measured interval
    crash_at = spec.warmup_cycles + spec.measure_cycles // 3
    plan = FaultPlan(seed=1, faults=(CrashThread(tid=0, at_cycle=crash_at),))

    fig = FigureData(
        "disc-faults",
        "MP-SERVER failover under a primary crash (robustness extension)",
        "client threads", "throughput (Mops/s)",
    )
    pts = []
    for t in clients:
        pts.append(point("ft, fault-free", t, run_fault_recovery_benchmark,
                         t, spec=spec))
        pts.append(point("ft, primary crash", t, run_fault_recovery_benchmark,
                         t, spec=spec, fault_plan=plan))
    for p, r in zip(pts, run_sweep(pts, jobs=jobs, name="disc-faults")):
        fig.add_point(p.label, p.x, r)
    timeout = APPROACH_TABLE["mp-server-ft"].kwargs["request_timeout"]
    fig.note(f"primary server killed at cycle {crash_at} "
             f"(request timeout {timeout} cycles, backup on core 1)")
    fig.note("crash series: every client fails over; time-to-recovery and "
             "retry counts are in the per-point RunResult")
    return fig
