"""Golden pins for the run-construction paths the scale goldens miss.

``tests/test_scale_golden.py`` pins the fig3-family counters and one
``mp-server`` overload point.  Every other way a run is assembled --
the fault-tolerant and lease variants, fixed combiners, the hand-built
fault-recovery and backpressure runs, and the whole explore matrix --
is pinned here.  The digests were recorded before run construction
moved into the single approach table of
:mod:`repro.workload.scenarios`; they prove that every label still
builds the same primitive with the same arguments and the same client
placement, down to the last simulated cycle.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.series import FigureData
from repro.experiments.discussion import _backpressure_point
from repro.experiments.overload import run_overload_point
from repro.explore.policy import RandomWalkPolicy
from repro.explore.scenarios import FULL_MATRIX, MUTATION_SCENARIO, run_scenario
from repro.faults import CrashThread, FaultPlan
from repro.workload.driver import WorkloadSpec
from repro.workload.scenarios import (
    run_counter_benchmark,
    run_fault_recovery_benchmark,
)

_SPEC = WorkloadSpec(warmup_cycles=10_000, measure_cycles=40_000)

#: FigureData.fingerprint() of _construction_mini()
CONSTRUCTION_MINI_FINGERPRINT = (
    "2d4760fc1829c94fa163e5595806a89330a64bdf559d2069909a89d233b30ee4"
)

#: sha256 over every explore outcome under RandomWalkPolicy(_EXPLORE_SEED)
EXPLORE_MATRIX_DIGEST = (
    "ea602107f7e3d47ecbaf89b143c8133bb77d1c2c8dd291fdc62aa9909fa6ca0f"
)

_EXPLORE_SEED = 11


def _construction_mini() -> FigureData:
    fig = FigureData("approach-golden", "run-construction mini suite", "x", "y")
    for approach in ("HybComb", "CC-Synch"):
        fig.add_point(f"{approach}-fixed", 8,
                      run_counter_benchmark(approach, 8, spec=_SPEC,
                                            fixed_combiner=True))
    crash = FaultPlan(seed=1, faults=(CrashThread(tid=0, at_cycle=20_000),))
    fig.add_point("ft-crash", 4,
                  run_fault_recovery_benchmark(4, spec=_SPEC, fault_plan=crash))
    bp = _backpressure_point(10, 12, _SPEC)
    assert bp.extra["backpressure_cycles"] > 0
    fig.add_point("backpressure", 10, bp)
    fig.add_point("HybComb-lease drop", 1.5,
                  run_overload_point("HybComb-lease", 20.0, 1.5, "drop"))
    fig.add_point("HybComb-lease drop+crash", 1.5,
                  run_overload_point("HybComb-lease", 20.0, 1.5, "drop",
                                     crash_primary=True))
    fig.add_point("mp-server-ft drop+crash", 1.5,
                  run_overload_point("mp-server-ft", 60.0, 1.5, "drop",
                                     crash_primary=True))
    return fig


def _explore_digest() -> str:
    h = hashlib.sha256()
    for scn in FULL_MATRIX + [MUTATION_SCENARIO]:
        out = run_scenario(scn, RandomWalkPolicy(_EXPLORE_SEED))
        doc = [scn.sid, out.ok, out.kind, out.events, out.forced_choices,
               [list(op) for op in out.history],
               [list(step) for step in out.trace]]
        h.update(json.dumps(doc, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def test_construction_paths_fingerprint():
    assert _construction_mini().fingerprint() == CONSTRUCTION_MINI_FINGERPRINT


def test_explore_matrix_outcomes_pinned():
    assert _explore_digest() == EXPLORE_MATRIX_DIGEST
