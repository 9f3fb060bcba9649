"""Pin the generator-frame depth of the critical-section hot path.

Every yield inside a CS body resumes every generator frame between the
engine and the yield.  A frame that only forwards (``return (yield from
inner)``) costs one resume per yield and adds nothing, so forwarders
return the inner generator instead (DESIGN.md, "The per-op pipeline").

These tests run Figure 4c's array CS on each of the four approaches,
stop the simulation while the servicing thread's CS body is suspended
at a cache-hit load, and walk ``gi_yieldfrom`` from that thread's
process generator.  The pinned chains are the flattened ones; a new
forwarding frame anywhere on the path makes them longer and fails here.
"""

import pytest

from repro.core import OpTable
from repro.machine import Machine, tile_gx
from repro.mem.cache import CoherentMemory
from repro.objects import ArrayCS
from repro.workload import WorkloadSpec, run_workload
from repro.workload.scenarios import build_approach

_LOAD = CoherentMemory.load.__code__
_BODY = ArrayCS._body.__code__

#: frames from the process generator down to the memory model, per approach
EXPECTED = {
    "mp-server": ["MPServer._server_loop", "OpTable.execute",
                  "ArrayCS._body", "CoherentMemory.load"],
    "shm-server": ["ShmServer._server_loop", "OpTable.execute",
                   "ArrayCS._body", "CoherentMemory.load"],
    "HybComb": ["run_workload.<locals>.app_thread", "HybComb.apply_op",
                "OpTable.execute", "ArrayCS._body", "CoherentMemory.load"],
    "CC-Synch": ["run_workload.<locals>.app_thread", "CCSynch.apply_op",
                 "CCSynch._combine", "OpTable.execute", "ArrayCS._body",
                 "CoherentMemory.load"],
}


class _Found(Exception):
    pass


def _chain(gen):
    gens = []
    while gen is not None:
        gens.append(gen)
        gen = getattr(gen, "gi_yieldfrom", None)
    return gens


def _at_body_hit(gens):
    """The innermost frame is a load issued under the CS body, suspended
    on its hit path (a load that took the MSHR or miss path has bound
    ``t0`` to time its stall)."""
    load = gens[-1]
    return (getattr(load, "gi_code", None) is _LOAD
            and "t0" not in load.gi_frame.f_locals
            and any(getattr(g, "gi_code", None) is _BODY for g in gens))


def _hit_chain(approach):
    machine = Machine(tile_gx())
    prim, tids = build_approach(approach, machine, OpTable(), 6)
    arr = ArrayCS(prim)
    prim.start()
    ctxs = [machine.thread(tid) for tid in tids]
    sim = machine.sim

    def probe(_cycle):
        if sim.now < 5_000:   # past start-up: the array lines have settled
            return
        for proc in sim.live_processes():
            gens = _chain(proc.gen)
            if _at_body_hit(gens):
                raise _Found([g.__qualname__ for g in gens])

    sim.set_sample_hook(1, probe)
    with pytest.raises(_Found) as found:
        run_workload(machine, ctxs, lambda ctx: lambda k: arr.run(ctx, 15),
                     WorkloadSpec(warmup_cycles=10_000, measure_cycles=10_000))
    return found.value.args[0]


@pytest.mark.parametrize("approach", sorted(EXPECTED))
def test_cs_body_hit_resumes_only_working_frames(approach):
    assert _hit_chain(approach) == EXPECTED[approach]
