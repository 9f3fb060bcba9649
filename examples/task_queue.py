#!/usr/bin/env python3
"""A parallelization-framework task queue (the paper's motivating use).

The introduction argues that "fast synchronization on simple concurrent
objects, such as queues, is key to the performance of parallelization
frameworks".  This example builds exactly that scenario: a pool of
worker threads pulls variable-sized tasks from one shared dispatch
queue, and we measure the *makespan* of the same task set with the
dispatch queue implemented on each synchronization approach.

Short tasks make the queue the bottleneck, so the queue implementation
dominates the makespan -- the message-passing approaches finish the
same work markedly earlier.

Run:  python examples/task_queue.py [num_workers] [num_tasks]
"""

import sys

import numpy as np

from repro.core import OpTable
from repro.machine import Machine, tile_gx
from repro.objects import EMPTY, OneLockMSQueue
from repro.workload.scenarios import build_approach


def run_pool(approach: str, num_workers: int, task_sizes) -> dict:
    """Dispatch all tasks to the pool; returns makespan statistics."""
    machine = Machine(tile_gx())
    prim, tids = build_approach(approach, machine, OpTable(), num_workers)
    queue = OneLockMSQueue(prim)
    prim.start()
    ctxs = [machine.thread(t) for t in tids]

    # the first worker feeds the task set (task value = size in cycles)
    # before the pool starts pulling
    seed_ctx = ctxs[0]

    done = {"count": 0, "work": 0}
    finished = machine.sim.event()

    def feeder():
        for size in task_sizes:
            yield from queue.enqueue(seed_ctx, int(size))

    def worker(ctx):
        while done["count"] < len(task_sizes):
            task = yield from queue.dequeue(ctx)
            if task == EMPTY:
                yield from ctx.work(20)  # brief poll backoff
                continue
            yield from ctx.work(task)   # execute the task
            done["count"] += 1
            done["work"] += task
            if done["count"] == len(task_sizes):
                finished.trigger(machine.now)

    feed = machine.spawn(ctxs[0], feeder(), name="feeder")

    def run_pool_to_completion():
        yield from feed.join()
        workers = [machine.spawn(ctx, worker(ctx), name=f"worker-{ctx.tid}")
                   for ctx in ctxs]
        for w in workers:
            yield from w.join()
        # every worker is out of the queue: stop a polling server so the
        # simulation drains instead of spinning on to the horizon
        if hasattr(prim, "stop"):
            prim.stop()

    machine.sim.spawn(run_pool_to_completion(), name="starter")
    machine.run(until=200_000_000)
    assert finished.triggered, f"{approach}: pool did not finish"
    makespan = finished.value
    return {
        "makespan": makespan,
        "total_work": done["work"],
        "efficiency": done["work"] / (makespan * num_workers),
    }


def main() -> None:
    num_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    num_tasks = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    rng = np.random.default_rng(7)
    # short tasks: 20..200 cycles, so dispatch overhead matters
    task_sizes = rng.integers(20, 200, size=num_tasks)

    print(f"{num_tasks} tasks (20-200 cycles each) on {num_workers} workers\n")
    print(f"{'queue on':>12s} {'makespan':>12s} {'pool efficiency':>16s}")
    base = None
    for approach in ("mp-server", "HybComb", "shm-server", "CC-Synch"):
        stats = run_pool(approach, num_workers, task_sizes)
        base = base or stats["makespan"]
        slowdown = stats["makespan"] / base
        print(f"{approach:>12s} {stats['makespan']:>9d} cy "
              f"{stats['efficiency']:>15.1%}   "
              f"{slowdown:.2f}x the mp-server makespan")
    print("\n(mp-server shines here: a dedicated dispatch core is exactly the")
    print(" delegation pattern.  HybComb prefers higher concurrency -- its")
    print(" combining snowball needs enough threads; see Figure 3a/4b.)")


if __name__ == "__main__":
    main()
