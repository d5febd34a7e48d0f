"""Unit tests for the simulator kernel."""

from contextlib import ExitStack

import pytest

from repro.errors import SimulationError
from repro.obs.fingerprint import fingerprinting
from repro.obs.kernelprof import KernelProfiler
from repro.sim.simulator import Simulator


@pytest.fixture(params=["plain", "profiled", "fingerprinted", "both"])
def mode_sim(request):
    """A fresh simulator run under each dispatch loop of ``Simulator.run``.

    ``plain`` takes the uninstrumented loop; the other modes take the
    instrumented loop with a kernel profiler, a fingerprint, or both
    active.  Run semantics must not depend on the loop.  Teardown checks
    that the instruments really saw every dispatched event.
    """
    with ExitStack() as stack:
        profiler = config = None
        if request.param in ("profiled", "both"):
            profiler = stack.enter_context(KernelProfiler().activate())
        if request.param in ("fingerprinted", "both"):
            config = stack.enter_context(fingerprinting(checkpoint_every=4))
        sim = Simulator()
        yield sim
    if profiler is not None:
        assert profiler.events == sim.events_processed
    if config is not None and sim.events_processed:
        assert [stream.index for stream in config.streams] == [
            sim.events_processed
        ]


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_schedule_nan_delay_rejected(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_at_nan_time_rejected(sim):
    with pytest.raises(SimulationError, match="NaN"):
        sim.at(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_run_advances_clock_to_event_times(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(0.5, lambda: times.append(sim.now))
    processed = sim.run()
    assert processed == 2
    assert times == [0.5, 1.5]
    assert sim.now == 1.5


def test_run_until_stops_before_later_events(mode_sim):
    sim = mode_sim
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    # Clock advanced to the until bound even though the queue has more.
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_run_until_advances_clock_when_queue_drains(mode_sim):
    sim = mode_sim
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_events_can_schedule_more_events(sim):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_processing(mode_sim):
    sim = mode_sim
    fired = []

    def first():
        fired.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_stop_before_run_is_discarded(mode_sim):
    """``run()`` clears the stop flag on entry: only a run in progress
    can be stopped."""
    sim = mode_sim
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.stop()
    assert sim.run() == 2
    assert fired == [1, 2]


def test_max_events_guard(mode_sim):
    sim = mode_sim

    def forever():
        sim.schedule(0.1, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match=r"processed=100, now="):
        sim.run(max_events=100)


def test_cancel_scheduled_event(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_run_not_reentrant(sim):
    def nested():
        sim.run()

    sim.schedule(0.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_reset_rewinds_clock_and_queue(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(4.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_same_time_priority_order(sim):
    order = []
    sim.schedule(1.0, lambda: order.append("normal"))
    sim.schedule(1.0, lambda: order.append("urgent"), priority=-1)
    sim.run()
    assert order == ["urgent", "normal"]


def test_pending_events_counts_active(mode_sim):
    sim = mode_sim
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.cancel(event)
    assert sim.pending_events == 2
    sim.run(until=2.5)
    assert sim.pending_events == 1


def test_past_event_guard(mode_sim):
    """A queue that yields an event before ``now`` is a kernel bug."""
    sim = mode_sim
    sim.run(until=5.0)
    sim._queue.push(1.0, lambda: None)  # bypasses Simulator.at's check
    with pytest.raises(SimulationError, match="past event"):
        sim.run()
    assert sim.now == 5.0


def test_peak_queue_depth_spans_runs(mode_sim):
    sim = mode_sim

    def fanout(n):
        for i in range(n):
            sim.schedule(1.0 + i, lambda: None)

    sim.schedule(1.0, fanout, 6)
    sim.run(until=1.5)
    assert sim.peak_queue_depth == 6
    sim.schedule(0.0, fanout, 3)
    sim.run()
    assert sim.events_processed == 11
    assert sim.peak_queue_depth == 9  # 6 pending + 3 new at t=1.5


def test_fingerprint_digest_identical_with_profiling_on_and_off():
    """The in-process form of the profile-on/off ``repro diverge`` gate."""
    from repro.experiments.figures.common import pdd_experiment

    def digests(profiled):
        with ExitStack() as stack:
            if profiled:
                stack.enter_context(KernelProfiler().activate())
            config = stack.enter_context(fingerprinting(checkpoint_every=64))
            pdd_experiment(seed=3, rows=4, cols=4, metadata_count=30)
        return [(stream.index, stream.digest) for stream in config.streams]

    plain = digests(profiled=False)
    assert plain and all(index > 0 for index, _ in plain)
    assert digests(profiled=True) == plain


def test_reset_zeroes_metrics_in_place():
    """Regression: reset() used to rewind the clock and queue but leave
    every counter/histogram at its previous value, so back-to-back runs
    on one simulator accumulated stale metrics."""
    sim = Simulator()
    counter = sim.metrics.counter("test.events")
    sim.schedule(0.1, lambda: counter.inc(3))
    sim.run()
    assert counter.value == 3
    sim.reset()
    assert counter.value == 0
    # the cached reference keeps feeding the registry after reset
    sim.schedule(0.1, lambda: counter.inc(2))
    sim.run()
    assert sim.metrics.counter("test.events").value == 2
