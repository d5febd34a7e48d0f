"""Self-tests of the benchmark: each workload loads the layer it claims,
outside tracing does not perturb the simulation, a slower layer
reaches the end-to-end metric, and a stalled session fails its trial.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
from time import perf_counter

import pytest

import run
from layertrace import RUN
from repro.core.consumer import DiscoverySession
from repro.net.medium import BroadcastMedium
from workloads import WORKLOADS, run_trial, trial_seeds

RUN_SEED = 1


def _bound(metric: str) -> float:
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as spec:
        end_to_end = json.load(spec)["end_to_end"]
    return next(entry["bound"] for entry in end_to_end if entry["name"] == metric)


@pytest.fixture(scope="module")
def layers():
    """Per workload: per-layer metrics plus each self time's share of the
    traced simulated phase, from one traced trial."""
    result = {}
    for workload in WORKLOADS:
        seeds = trial_seeds(RUN_SEED, 1)
        tracer, traced, plain, failed = run.traced_trials(workload, seeds)
        assert failed == 0, f"{workload}: a trial failed its gate or digests differ"
        assert [t.digest for t in traced] == [t.digest for t in plain]
        metrics = run.layer_metrics(tracer, traced, plain)
        run_s = tracer.totals[RUN][1]
        share = {
            name: value / run_s for name, value in metrics.items() if name.endswith("_s")
        }
        result[workload] = (metrics, share)
    return result


def _share(layers, workload, metric):
    return layers[workload][1][metric]


def _value(layers, workload, metric):
    return layers[workload][0][metric]


@pytest.mark.parametrize(
    "metric, heavy, light, factor",
    [
        ("medium.sense.self_s", "dense_pdd", "mobile_pdd", 3.0),
        ("topology.read_s", "dense_pdd", "mobile_pdd", 3.0),
        ("bloom.self_s", "mobile_pdd", "multi_pdr", 3.0),
        ("store.self_s", "mobile_pdd", "multi_pdr", 3.0),
        ("discovery.self_s", "mobile_pdd", "multi_pdr", 3.0),
        ("cdi.self_s", "multi_pdr", "dense_pdd", 3.0),
        ("retrieval.self_s", "multi_pdr", "dense_pdd", 3.0),
        ("link.self_s", "multi_pdr", "mobile_pdd", 2.0),
        ("sim.self_s", "multi_pdr", "mobile_pdd", 2.0),
    ],
)
def test_layer_contrast(layers, metric, heavy, light, factor):
    heavy_share = _share(layers, heavy, metric)
    light_share = _share(layers, light, metric)
    assert heavy_share > 0.0
    assert heavy_share >= factor * light_share, (
        f"{metric}: {heavy} share {heavy_share:.3f} vs {light} {light_share:.3f}"
    )


def test_topology_writes_only_under_mobility(layers):
    assert _value(layers, "dense_pdd", "topology.writes") == 0
    assert _value(layers, "multi_pdr", "topology.writes") == 0
    assert _value(layers, "mobile_pdd", "topology.writes") > 0
    mobile = layers["mobile_pdd"][0]
    assert mobile["topology.writes"] == (
        mobile["mobility.moves"] + mobile["mobility.joins"] + mobile["mobility.leaves"]
    )


def test_retrieval_code_idle_in_discovery(layers):
    for workload in ("dense_pdd", "mobile_pdd"):
        assert _value(layers, workload, "assignment.calls") == 0
        assert _value(layers, workload, "chunk.queries") == 0
    assert _value(layers, "multi_pdr", "assignment.calls") > 0


def _wall(workload, seeds):
    trials = [run_trial(workload, seed) for seed in seeds]
    assert all(trial.ok for trial in trials), [trial.problems for trial in trials]
    return sum(trial.wall_s for trial in trials)


def test_slower_carrier_sense_reaches_trial_wall():
    """A fixed host delay in ``BroadcastMedium.busy_until`` raises
    ``trial_wall_s`` on dense_pdd by more than its bound, and by a smaller
    proportion on mobile_pdd, where carrier sense is a small share.

    Plain and slowed passes alternate, and each side keeps its fastest
    of two, so a burst of load from elsewhere on the host cannot decide
    the outcome; mobile trials are short, so a pass there sums three."""
    delay_s = 50e-6
    original = BroadcastMedium.busy_until

    def slow_busy_until(self, node_id):
        until = perf_counter() + delay_s
        while perf_counter() < until:
            pass
        return original(self, node_id)

    rise = {}
    for workload, count in (("dense_pdd", 1), ("mobile_pdd", 3)):
        seeds = trial_seeds(RUN_SEED, count)
        plain, slowed = [], []
        for _ in range(2):
            plain.append(_wall(workload, seeds))
            BroadcastMedium.busy_until = slow_busy_until
            try:
                slowed.append(_wall(workload, seeds))
            finally:
                BroadcastMedium.busy_until = original
        rise[workload] = min(slowed) / min(plain) - 1.0
    print(f"trial_wall_s rise with busy_until slowed: {rise}")
    assert rise["dense_pdd"] > _bound("trial_wall_s"), rise
    assert rise["mobile_pdd"] < 0.75 * rise["dense_pdd"], rise


def test_stalled_session_fails_the_trial(monkeypatch):
    """A session that stops short of completion while the world goes
    quiet before the cap is a failed trial, not one that ran to the cap."""
    monkeypatch.setattr(DiscoverySession, "_round_ended", lambda self: None)
    trial = run_trial("dense_pdd", trial_seeds(RUN_SEED, 1)[0])
    assert not trial.cut_off
    assert not trial.ok
    assert any("neither completed nor ran to the cap" in p for p in trial.problems)
