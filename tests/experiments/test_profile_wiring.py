"""Kernel-profile plumbing through run_trials: extras, columns, merging.

Trial functions live at module level so forked workers can resolve them
by reference; each runs a tiny real simulation so there are events to
attribute.
"""

import multiprocessing

import pytest

from repro.experiments.metrics import TrialMetrics
from repro.experiments.runner import run_trials
from repro.obs.kernelprof import KernelProfiler
from repro.sim.simulator import Simulator


def _sim_trial(seed):
    sim = Simulator()
    state = {"fired": 0}

    def tick():
        state["fired"] += 1

    for i in range(10 + seed):
        sim.schedule(float(i), tick)
    sim.run()
    return TrialMetrics(
        recall=1.0, latency_s=float(seed), overhead_bytes=100 * seed
    )


def test_unprofiled_trials_carry_no_profile_extras():
    agg = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    row = agg.as_row()
    assert agg.profiled_trials == 0
    assert "kernel_share" not in row
    assert "hot_subsystem" not in row


def test_serial_trials_attach_profile_and_fold_into_outer():
    outer = KernelProfiler()
    with outer.activate():
        agg = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    assert agg.profiled_trials == 2
    row = agg.as_row()
    assert 0.0 < row["kernel_share"] <= 1.0
    assert row["hot_subsystem"]
    # Per-trial handler stats folded upward into the CLI-level profiler.
    assert outer.events == (10 + 1) + (10 + 2)


def test_parallel_trials_profile_and_merge_snapshots():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    outer = KernelProfiler()
    with outer.activate():
        agg = run_trials(_sim_trial, seeds=[1, 2, 3], jobs=2)
    assert agg.profiled_trials == 3
    row = agg.as_row()
    assert 0.0 < row["kernel_share"] <= 1.0
    assert row["hot_subsystem"]
    # Worker snapshots merged into the parent's active profiler.
    assert outer.events == (10 + 1) + (10 + 2) + (10 + 3)


def test_parallel_without_parent_profiler_stays_unprofiled():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    agg = run_trials(_sim_trial, seeds=[1, 2], jobs=2)
    assert agg.profiled_trials == 0
    assert "kernel_share" not in agg.as_row()


def test_serial_and_parallel_profiles_agree_on_events():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    serial_profiler = KernelProfiler()
    with serial_profiler.activate():
        serial = run_trials(_sim_trial, seeds=[1, 2], jobs=1)
    parallel_profiler = KernelProfiler()
    with parallel_profiler.activate():
        parallel = run_trials(_sim_trial, seeds=[1, 2], jobs=2)

    def fired(profiler):
        # Per-handler event counts only: the nanosecond totals (and so
        # ``hot_subsystem``, their argmax) are host timing, not events.
        return {key: count for key, (count, _ns) in profiler.stats().items()}

    assert fired(serial_profiler) == fired(parallel_profiler)
    assert serial_profiler.events == (10 + 1) + (10 + 2)
    # The deterministic trial statistics are bit-identical either way.
    assert serial.recall_mean == parallel.recall_mean
