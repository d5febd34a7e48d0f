"""Hypothesis oracle: the event queue against a sorted-list reference model.

The reference keeps the *live* events as a sorted list of ``(time,
priority, push index)`` keys and always pops the smallest one — the
kernel's total order, written so plainly it is obviously right.  These
tests drive an :class:`EventQueue` and the model through the *same*
randomized interleavings of push / cancel / clear / peek / pop and assert
that every observable — pop sequence, peeked times, live counts — is
identical.  That pins the heap's lazy cancellation, whose ghosts stay in
storage until popped or peeked past:

* cancels through both entry points (``event.cancel()`` and
  ``queue.cancel(event)``), repeated cancels, and cancels of events that
  already fired,
* same-instant, same-priority bursts (FIFO by push index),
* clears, after which every stale handle's cancel must be a no-op.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import EventQueue


class _Reference:
    """Sorted list of live ``(time, priority, push index)`` keys."""

    def __init__(self):
        self.live = []
        self.pushes = 0

    def push(self, time, priority):
        key = (time, priority, self.pushes)
        self.pushes += 1
        bisect.insort(self.live, key)
        return key

    def cancel(self, key):
        index = bisect.bisect_left(self.live, key)
        if index < len(self.live) and self.live[index] == key:
            del self.live[index]

    def pop(self):
        return self.live.pop(0) if self.live else "empty"

    def peek_time(self):
        return self.live[0][0] if self.live else None

    def clear(self):
        self.live.clear()


def _key(event):
    return (event.time, event.priority, event.sequence)


def _drain(queue):
    popped = []
    while queue:
        popped.append(_key(queue.pop()))
    return popped


def _fill(items):
    queue, reference = EventQueue(), _Reference()
    pairs = [
        (
            queue.push(time, lambda: None, (), priority=priority),
            reference.push(time, priority),
        )
        for time, priority in items
    ]
    return queue, reference, pairs


# Times mix a narrow and a wide range with forced exact ties, so the heap
# sees dense same-instant bursts as well as sparse stretches.
event_times = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 100.0]),  # forced exact ties
)

pushes = st.lists(
    st.tuples(event_times, st.integers(-3, 3)),
    max_size=80,
)

# An op program: each entry drives one step of queue and model in lockstep.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), event_times, st.integers(-3, 3)),
        st.tuples(st.just("pop"), st.just(0.0), st.just(0)),
        st.tuples(st.just("peek"), st.just(0.0), st.just(0)),
        st.tuples(st.just("cancel"), st.floats(0.0, 1.0), st.integers(0, 1)),
        st.tuples(st.just("clear"), st.just(0.0), st.just(0)),
    ),
    max_size=120,
)


@given(pushes)
@settings(max_examples=150)
def test_drain_order_matches_reference(items):
    queue, reference, _ = _fill(items)
    assert _drain(queue) == [reference.pop() for _ in items]


@given(ops)
@settings(max_examples=150)
def test_interleaved_program_is_order_identical(program):
    queue, reference = EventQueue(), _Reference()
    handles = []  # (event, key) pairs, kept across pops and clears
    trace_q, trace_r = [], []
    for op, time, arg in program:
        if op == "push":
            handles.append(
                (
                    queue.push(time, lambda: None, (), priority=arg),
                    reference.push(time, arg),
                )
            )
        elif op == "pop":
            try:
                trace_q.append(_key(queue.pop()))
            except SimulationError:
                trace_q.append("empty")
            trace_r.append(reference.pop())
        elif op == "peek":
            trace_q.append(("peek", queue.peek_time()))
            trace_r.append(("peek", reference.peek_time()))
        elif op == "cancel" and handles:
            # May hit a live, already-cancelled, popped or cleared event.
            event, key = handles[int(time * (len(handles) - 1))]
            if arg:
                event.cancel()
            else:
                queue.cancel(event)
            reference.cancel(key)
        elif op == "clear":
            queue.clear()
            reference.clear()
            # Every stale handle's cancel must now be a no-op.
            for event, _ in handles:
                event.cancel()
        assert len(queue) == len(reference.live)
        assert bool(queue) == bool(reference.live)
        assert trace_q == trace_r
    trace_q.extend(_drain(queue))
    trace_r.extend(reference.live)
    assert trace_q == trace_r


@given(st.integers(2, 40), st.integers(-3, 3))
@settings(max_examples=60)
def test_same_instant_burst_is_fifo(burst, priority):
    queue, reference, pairs = _fill([(7.25, priority)] * burst)
    order = [queue.pop().sequence for _ in range(burst)]
    assert order == [event.sequence for event, _ in pairs]
    assert order == [reference.pop()[2] for _ in range(burst)]


@given(pushes, st.sets(st.integers(0, 79)))
@settings(max_examples=100)
def test_cancellation_removes_exactly_those_events(items, to_cancel):
    queue, reference, pairs = _fill(items)
    for index in to_cancel:
        if index < len(pairs):
            event, key = pairs[index]
            event.cancel()
            reference.cancel(key)
    assert len(queue) == len(reference.live)
    assert _drain(queue) == reference.live
