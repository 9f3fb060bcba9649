"""Host cost of one UDN message: Python frames entered per send + receive.

The paper's argument is that a hardware message costs a few cycles; the
simulator should not make each one expensive on the host either.  These
tests count the Python frames (calls and generator resumes, as reported
by ``sys.setprofile``) that the library enters while one 3-word message
is sent, delivered and received, and pin the counts.  A change that puts
a closure, a generator or a pass-through call back on the message path
raises a count and fails here; a change that lowers one should lower
the pin with it.

Comprehension frames are left out of the count: CPython 3.12 inlines
them (PEP 709), so counting them would make the pin version-dependent.
"""

import sys
from pathlib import Path

import repro
from repro.machine import Machine, tile_gx
from repro.sim._engine_core import _Callback

REPRO_DIR = str(Path(repro.__file__).resolve().parent)
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}

#: frames entered by one 3-word send + delivery + receive whose receiver
#: parked on its empty queue before the message arrived
PARKED_CALLS = 18
#: the same message received after it was already queued
QUEUED_CALLS = 13


def _count_library_frames(machine: Machine) -> int:
    """Run ``machine`` to completion, counting frames entered in repro."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(REPRO_DIR)
                    and code.co_name not in COMPREHENSIONS):
                count += 1

    sys.setprofile(profile)
    try:
        machine.run()
    finally:
        sys.setprofile(None)
    return count


def _one_message(receiver_delay: int):
    """Thread 0 sends ``[1, 2, 3]`` to thread 35, which starts its
    receive after ``receiver_delay`` cycles (0: parked before arrival)."""
    m = Machine(tile_gx())
    src, dst = m.thread(0), m.thread(35)

    def sender(ctx):
        yield from ctx.send(35, [1, 2, 3])

    def receiver(ctx):
        if receiver_delay:
            yield receiver_delay
        return (yield from ctx.receive(3))

    p = m.spawn(dst, receiver(dst))
    m.spawn(src, sender(src))
    return m, p


def _baseline(receiver_delay: int) -> int:
    """Frames entered by the same two processes with no message at all."""
    m = Machine(tile_gx())
    a, b = m.thread(0), m.thread(35)

    def idle(_ctx):
        yield receiver_delay

    m.spawn(b, idle(b))
    m.spawn(a, idle(a))
    return _count_library_frames(m)


def test_parked_receiver_message_path_call_count():
    m, p = _one_message(receiver_delay=0)
    calls = _count_library_frames(m) - _baseline(0)
    assert p.result == [1, 2, 3]
    assert calls == PARKED_CALLS


def test_queued_words_message_path_call_count():
    m, p = _one_message(receiver_delay=500)
    calls = _count_library_frames(m) - _baseline(500)
    assert p.result == [1, 2, 3]
    assert m.udn.messages_delivered == 1
    assert calls == QUEUED_CALLS


def test_pending_delivery_is_one_pinned_callback():
    """In flight, a message is one pinned engine entry: exploration's
    ``reorder_lane`` permutes only unpinned entries, so it can never move
    a delivery, and the delivery counts as exactly one event."""
    m = Machine(tile_gx())
    src, dst = m.thread(0), m.thread(35)

    def sender(ctx):
        yield from ctx.send(35, [1, 2, 3])

    m.spawn(src, sender(src))
    cfg = m.cfg
    sent_at = cfg.udn_send_base + 3 * cfg.udn_send_per_word
    m.run(until=sent_at)
    entries = [e for bucket in m.sim._buckets.values() for e in bucket]
    assert len(entries) == 1
    (entry,) = entries
    assert type(entry) is _Callback
    assert entry.pinned
    assert m.udn.queue_depth(dst.tid) == 0
    before = m.sim.events_processed
    m.run()
    assert m.sim.events_processed == before + 1
    assert m.udn.queue_depth(dst.tid) == 3
