"""Unit tests for Resource / Condition / Channel (repro.sim.resources)."""

import pytest

from repro.sim import Channel, Condition, Resource, Simulator


def test_resource_uncontended_acquire_is_immediate():
    sim = Simulator()
    res = Resource(sim)

    def proc():
        yield from res.acquire()
        t = sim.now
        res.release()
        return t

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 0


def test_resource_serializes_fifo():
    sim = Simulator()
    res = Resource(sim)
    order = []

    def proc(name):
        yield from res.acquire()
        order.append((name, sim.now))
        yield 10
        res.release()

    for name in ("a", "b", "c"):
        sim.spawn(proc(name))
    sim.run()
    assert order == [("a", 0), ("b", 10), ("c", 20)]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def proc():
        yield from res.use(10)
        starts.append(sim.now)

    for _ in range(4):
        sim.spawn(proc())
    sim.run()
    # two run concurrently, the next two wait one service time
    assert starts == [10, 10, 20, 20]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_wait_stats():
    sim = Simulator()
    res = Resource(sim)

    def holder():
        yield from res.use(50)

    def waiter():
        yield from res.use(1)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert res.total_acquisitions == 2
    assert res.total_wait_cycles == 50


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_condition_wakes_only_current_waiters():
    sim = Simulator()
    cond = Condition(sim)
    woken = []

    def waiter(name, delay):
        yield delay
        yield cond.wait()
        woken.append((name, sim.now))

    def notifier():
        yield 10
        cond.notify_all()
        yield 10
        cond.notify_all()

    sim.spawn(waiter("early", 0))   # woken by first notify (t=10)
    sim.spawn(waiter("late", 15))   # woken by second notify (t=20)
    sim.spawn(notifier())
    sim.run()
    assert woken == [("early", 10), ("late", 20)]


def test_condition_is_rearmable():
    sim = Simulator()
    cond = Condition(sim)
    count = []

    def waiter():
        for _ in range(3):
            yield cond.wait()
            count.append(sim.now)

    def notifier():
        for t in (5, 9, 14):
            while sim.now < t:
                yield t - sim.now
            cond.notify_all()

    sim.spawn(waiter())
    sim.spawn(notifier())
    sim.run()
    assert count == [5, 9, 14]


def test_channel_put_then_get():
    sim = Simulator()
    ch = Channel(sim)
    ch.put("x")

    def getter():
        item = yield from ch.get()
        return item

    p = sim.spawn(getter())
    sim.run()
    assert p.result == "x"


def test_channel_get_blocks_until_put():
    sim = Simulator()
    ch = Channel(sim)

    def getter():
        item = yield from ch.get()
        return (item, sim.now)

    def putter():
        yield 30
        ch.put("late")

    g = sim.spawn(getter())
    sim.spawn(putter())
    sim.run()
    assert g.result == ("late", 30)


def test_channel_multiple_getters_fifo():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def getter(name):
        item = yield from ch.get()
        got.append((name, item))

    def putter():
        yield 1
        ch.put(1)
        yield 1
        ch.put(2)

    sim.spawn(getter("g1"))
    sim.spawn(getter("g2"))
    sim.spawn(putter())
    sim.run()
    assert got == [("g1", 1), ("g2", 2)]


def test_channel_len():
    sim = Simulator()
    ch = Channel(sim)
    assert len(ch) == 0
    ch.put(1)
    ch.put(2)
    assert len(ch) == 2


# -- Semaphore ---------------------------------------------------------------

def test_semaphore_down_with_credit_is_immediate():
    from repro.sim import Semaphore
    sim = Simulator()
    sem = Semaphore(sim, initial=2)

    def proc():
        yield from sem.down()
        yield from sem.down()
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 0
    assert sem.count == 0


def test_semaphore_blocks_until_up():
    from repro.sim import Semaphore
    sim = Simulator()
    sem = Semaphore(sim)

    def waiter():
        yield from sem.down()
        return sim.now

    def poster():
        yield 40
        sem.up()

    p = sim.spawn(waiter())
    sim.spawn(poster())
    sim.run()
    assert p.result == 40


def test_semaphore_fifo_wakeups():
    from repro.sim import Semaphore
    sim = Simulator()
    sem = Semaphore(sim)
    order = []

    def waiter(name, delay):
        yield delay
        yield from sem.down()
        order.append(name)

    def poster():
        yield 100
        sem.up()
        sem.up()

    sim.spawn(waiter("a", 1))
    sim.spawn(waiter("b", 2))
    sim.spawn(poster())
    sim.run()
    assert order == ["a", "b"]


def test_semaphore_validates_initial():
    from repro.sim import Semaphore
    with pytest.raises(ValueError):
        Semaphore(Simulator(), initial=-1)


# -- Barrier -------------------------------------------------------------------

def test_barrier_releases_all_at_once():
    from repro.sim import Barrier
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    done = []

    def party(delay):
        yield delay
        idx = yield from bar.wait()
        done.append((sim.now, idx))

    for d in (5, 10, 30):
        sim.spawn(party(d))
    sim.run()
    times = [t for t, _ in done]
    assert times == [30, 30, 30]
    assert sorted(idx for _, idx in done) == [0, 1, 2]


def test_barrier_is_reusable():
    from repro.sim import Barrier
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    rounds = []

    def party(name):
        for r in range(3):
            yield 10
            yield from bar.wait()
            rounds.append((name, r, sim.now))

    sim.spawn(party("x"))
    sim.spawn(party("y"))
    sim.run()
    assert len(rounds) == 6
    # both parties finish each round at the same instant
    for r in range(3):
        ts = [t for n, rr, t in rounds if rr == r]
        assert ts[0] == ts[1]


def test_barrier_single_party_never_blocks():
    from repro.sim import Barrier
    sim = Simulator()
    bar = Barrier(sim, parties=1)

    def proc():
        idx = yield from bar.wait()
        return idx, sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.result == (0, 0)


def test_barrier_validates_parties():
    from repro.sim import Barrier
    with pytest.raises(ValueError):
        Barrier(Simulator(), parties=0)
