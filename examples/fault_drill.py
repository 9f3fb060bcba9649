#!/usr/bin/env python3
"""Fault drill: crash the MP-SERVER primary mid-run, keep linearizability.

The paper proves MP-SERVER deadlock-free for *healthy* threads; this
drill shows what the robustness extension adds when the server thread
actually dies.  A handful of clients hammer a shared counter through the
fault-tolerant MP-SERVER mode (per-client sequence numbers, a
shared-memory dedup table, a hot-standby backup).  One third into the
run a seeded FaultPlan fail-stop-kills the primary:

* each client's pending request times out, backs off, and is retried
  against the backup with the *same* sequence number;
* requests the primary committed before dying are answered from the
  dedup table, not re-executed -- so the recorded concurrent history
  still passes the Wing & Gong linearizability checker;
* time-to-recovery, retries and suppressed duplicates are reported.

With ``--no-recovery`` the same crash hits a plain (paper-faithful)
MP-SERVER instead: every client blocks forever on its response and the
engine's deadlock detector names each of them -- the diagnosis the
robustness layer exists to prevent.

Run:  python examples/fault_drill.py [--no-recovery]
"""

import sys

from repro.analysis.linearizability import CounterSpec, History, check_linearizable
from repro.core import MPServer, OpTable
from repro.faults import CrashThread, FaultInjector, FaultPlan
from repro.machine import Machine
from repro.objects import LockedCounter
from repro.sim.engine import DeadlockError
from repro.workload.scenarios import build_approach

NUM_CLIENTS = 4
OPS_PER_CLIENT = 12
CRASH_AT = 800


def main() -> None:
    recovery = "--no-recovery" not in sys.argv
    machine = Machine()
    if recovery:
        prim, tids = build_approach("mp-server-ft", machine, OpTable(),
                                    NUM_CLIENTS)
    else:
        # the same placement (clients from tid 2), minus the backup
        prim = MPServer(machine, OpTable(), server_tid=0, server_core=0)
        tids = range(2, 2 + NUM_CLIENTS)
    counter = LockedCounter(prim)
    prim.start()
    ctxs = [machine.thread(t) for t in tids]
    history = History()

    def client(ctx):
        for _ in range(OPS_PER_CLIENT):
            t0 = machine.now
            v = yield from counter.increment(ctx)
            history.record(ctx.tid, "inc", None, v, t0, machine.now)
            yield from ctx.work(100)

    for ctx in ctxs:
        machine.spawn(ctx, client(ctx), name=f"client-{ctx.tid}")

    plan = FaultPlan(seed=3, faults=(CrashThread(tid=0, at_cycle=CRASH_AT),))
    injector = FaultInjector(machine, plan).install()

    mode = "fault-tolerant (backup + timeouts)" if recovery else "plain (paper-faithful)"
    print(f"mode: {mode}; killing primary server at cycle {CRASH_AT}")
    try:
        machine.run()
    except DeadlockError as e:
        print("\nrun wedged -- the deadlock detector reports:\n")
        print(e)
        print(f"\n{len(history)} of {NUM_CLIENTS * OPS_PER_CLIENT} ops "
              "completed before the crash; re-run without --no-recovery.")
        return

    print(f"crashes injected: {injector.crashes}")
    print(f"all {len(history)} ops completed by cycle {machine.now}")

    ok = check_linearizable(history, CounterSpec())
    print(f"history linearizable: {ok}")
    stats = prim.recovery_stats
    print(f"time-to-recovery: {stats['time_to_recovery']} cycles")
    print(f"ops retried: {stats['ops_retried']}   "
          f"duplicates suppressed: {stats['duplicates_suppressed']}   "
          f"failovers: {stats['failovers']}")
    assert ok, "history must linearize despite the crash"
    assert len(history) == NUM_CLIENTS * OPS_PER_CLIENT


if __name__ == "__main__":
    main()
