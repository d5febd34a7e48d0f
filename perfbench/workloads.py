"""The benchmark's three workloads, their correctness gate and digests.

Each workload was chosen because it loads a different layer heavily
(see README.md):

* ``dense_pdd``  — 18x18 static grid, one centre consumer discovering
  3,240 entries: carrier sense and broadcast fan-out;
* ``multi_pdr``  — 10x10 grid, two simultaneous consumers retrieving a
  4 MB item with PDR: retrieval protocol, link layer, kernel dispatch;
* ``mobile_pdd`` — student-centre campus trace at 2x mobility, 5,000
  entries queried at t = 20 s by the most central node that stays: Bloom
  filters, metadata store, topology writes.

A run derives its trial seeds from the run seed alone, so the same run
seed always builds the same inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.rounds import RoundConfig
from repro.experiments.figures.common import (
    ExperimentOutcome,
    experiment_device_config,
    pdd_experiment,
    retrieval_experiment,
)
from repro.experiments.scenario import (
    Scenario,
    build_campus_scenario,
    build_grid_scenario,
)
from repro.experiments.validation import check_all
from repro.experiments.workload import generate_metadata, make_video_item
from repro.mobility.campus import STUDENT_CENTER
from repro.mobility.model import MobilityEventKind

MB = 1024 * 1024

#: Simulated start of the mobile query and length of the campus trace
#: (figs 9/10).
MOBILE_QUERY_AT_S = 20.0
MOBILE_TRACE_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``trials`` is the number of trial seeds a run of the declared length
    (40 s) covers, about 30 s of trials on the reference host (README.md).
    The trial set depends only on the command line, never on how fast a
    run happens to be.
    """

    name: str
    trials: int
    build: Callable[[int], Scenario]
    experiment: Callable[[int, Scenario], ExperimentOutcome]
    check: Callable[[ExperimentOutcome], List[str]]


def _build_dense(seed: int) -> Scenario:
    return build_grid_scenario(
        18, 18, seed=seed, device_config=experiment_device_config()
    )


def _run_dense(seed: int, scenario: Scenario) -> ExperimentOutcome:
    return pdd_experiment(
        seed,
        metadata_count=3240,
        round_config=RoundConfig(max_rounds=3),
        scenario=scenario,
        sim_cap_s=120.0,
    )


def _build_multi(seed: int) -> Scenario:
    return build_grid_scenario(
        10, 10, seed=seed, device_config=experiment_device_config(), n_consumers=2
    )


def _video():
    return make_video_item(4 * MB)


def _run_multi(seed: int, scenario: Scenario) -> ExperimentOutcome:
    return retrieval_experiment(
        seed,
        _video(),
        method="pdr",
        redundancy=1,
        mode="simultaneous",
        scenario=scenario,
        sim_cap_s=900.0,
    )


def _build_mobile(seed: int) -> Scenario:
    scenario = build_campus_scenario(
        STUDENT_CENTER, seed=seed, frequency_scale=2.0, duration_s=MOBILE_TRACE_S
    )
    scenario.consumers = [_central_stayer(scenario)]
    return scenario


def _central_stayer(scenario: Scenario) -> int:
    """The consumer: of the devices present from the start that never
    leave, the one nearest the centre of the area at query time.

    A consumer drawn at random from all nodes sits at the edge of the
    area in some trials, cut off when the query goes out: such a trial
    costs a quarter to four times the median, and one that leaves
    measures nothing.  The central stayer keeps every other source of
    randomness (trace, data placement, radio loss) while a trial's cost
    stays within about 17% of the mean.
    """
    trace = scenario.extras["trace"]
    positions = dict(trace.initial_positions)
    leavers = {e.node_id for e in trace.events if e.kind is MobilityEventKind.LEAVE}
    for event in trace.events:
        if event.time <= MOBILE_QUERY_AT_S and event.kind is MobilityEventKind.MOVE:
            positions[event.node_id] = event.position
    centre = (STUDENT_CENTER.area.width / 2, STUDENT_CENTER.area.height / 2)
    return min(
        (node for node in trace.initial_nodes if node not in leavers),
        key=lambda node: (math.dist(positions[node], centre), node),
    )


def _run_mobile(seed: int, scenario: Scenario) -> ExperimentOutcome:
    return pdd_experiment(
        seed,
        metadata_count=5000,
        round_config=RoundConfig(),
        scenario=scenario,
        start_at=MOBILE_QUERY_AT_S,
        sim_cap_s=MOBILE_TRACE_S - MOBILE_QUERY_AT_S,
    )


def _check_discovery(count: int) -> Callable[[ExperimentOutcome], List[str]]:
    def check(outcome: ExperimentOutcome) -> List[str]:
        entries = set(generate_metadata(count))
        problems = check_all(outcome.scenario)
        for consumer in outcome.consumers:
            device = outcome.scenario.devices.get(consumer.node_id)
            if device is None:
                problems.append(f"consumer {consumer.node_id} left the world")
                continue
            phantom = [d for d in device.store.all_metadata() if d not in entries]
            if phantom:
                problems.append(
                    f"consumer {consumer.node_id} holds {len(phantom)} entries "
                    "that were never produced"
                )
            if consumer.result.completed and consumer.result.received != round(
                consumer.recall * count
            ):
                problems.append(
                    f"consumer {consumer.node_id}: received "
                    f"{consumer.result.received} != recall x {count}"
                )
        return problems

    return check


def _check_retrieval(outcome: ExperimentOutcome) -> List[str]:
    item = _video()
    problems = check_all(outcome.scenario, item.descriptor)
    expected = set(item.chunks())
    for consumer in outcome.consumers:
        device = outcome.scenario.devices[consumer.node_id]
        held = set(device.store.chunks_of(item.descriptor))
        if not held <= expected:
            problems.append(f"consumer {consumer.node_id} holds foreign chunks")
        if consumer.result.completed and held != expected:
            problems.append(
                f"consumer {consumer.node_id} completed with "
                f"{len(held)}/{len(expected)} chunks stored"
            )
    return problems


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("dense_pdd", 6, _build_dense, _run_dense, _check_discovery(3240)),
        Workload("multi_pdr", 60, _build_multi, _run_multi, _check_retrieval),
        Workload(
            "mobile_pdd", 24, _build_mobile, _run_mobile, _check_discovery(5000)
        ),
    )
}


def trial_seeds(run_seed: int, count: int) -> List[int]:
    """The ``count`` trial seeds of one run: ``run_seed * 1000 + i``."""
    return [run_seed * 1000 + i for i in range(count)]


class _SetupDone(Exception):
    """Raised in place of ``Simulator.run`` to stop a set-up-only pass."""


@dataclass
class Trial:
    """One finished trial: host timings, modelled outputs and a digest."""

    workload: str
    seed: int
    wall_s: float = 0.0
    build_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    cut_off: bool = False
    events: int = 0
    sim_latency_s: float = 0.0
    recall: float = 0.0
    overhead_mb: float = 0.0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    outcome: Optional[ExperimentOutcome] = None
    world: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.problems


def fresh_process_state() -> None:
    """Empty the simulator's process-wide caches and collect garbage.

    Every trial then starts as it would in a fresh process: its timing
    does not depend on which trials ran before it in the same run, and
    memory held by one trial's cache entries does not carry into the
    next (the Bloom hashing caches alone hold up to 2 x 131,072 entries).
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("repro."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def measure_setup(workload: str, seed: int) -> float:
    """Host seconds from the start of the world build to the first run.

    The trial's own path runs up to its ``Simulator.run`` call, which is
    replaced by a stop, so this times exactly the set-up a trial does.
    """
    spec = WORKLOADS[workload]
    fresh_process_state()
    start = perf_counter()
    scenario = spec.build(seed)
    marks: List[float] = []

    def stop(*args, **kwargs):
        marks.append(perf_counter())
        raise _SetupDone

    scenario.sim.run = stop
    try:
        spec.experiment(seed, scenario)
    except _SetupDone:
        pass
    return marks[0] - start


def run_trial(workload: str, seed: int, keep_outcome: bool = False) -> Trial:
    """Build, run and check one trial; never raises for a program fault."""
    spec = WORKLOADS[workload]
    trial = Trial(workload, seed)
    fresh_process_state()
    try:
        start = perf_counter()
        scenario = spec.build(seed)
        trial.build_s = perf_counter() - start
        marks: List[float] = []
        run = scenario.sim.run

        def stamped_run(*args, **kwargs):
            marks.append(perf_counter())
            try:
                return run(*args, **kwargs)
            finally:
                marks.append(perf_counter())
                # Events left in the queue: the run stopped at its cap,
                # not because the world went quiet.
                trial.cut_off = scenario.sim.pending_events > 0

        scenario.sim.run = stamped_run
        outcome = spec.experiment(seed, scenario)
        trial.wall_s = perf_counter() - start
        trial.setup_s = marks[0] - start
        trial.run_s = marks[-1] - marks[0]
    except Exception as error:  # a fault of the program under test
        trial.problems.append(f"raised {type(error).__name__}: {error}")
        return trial
    sim = scenario.sim
    consumers = outcome.consumers
    trial.events = sim.events_processed
    trial.sim_latency_s = sum(c.result.latency for c in consumers) / len(consumers)
    trial.recall = sum(c.recall for c in consumers) / len(consumers)
    trial.overhead_mb = outcome.total_overhead_bytes / 1e6
    trial.digest = output_digest(outcome)
    for consumer in consumers:
        if not consumer.launched:
            trial.problems.append(f"consumer {consumer.node_id} never started")
        elif not (consumer.result.completed or trial.cut_off):
            trial.problems.append(
                f"consumer {consumer.node_id} neither completed nor ran to the cap"
            )
    trial.problems += spec.check(outcome)
    if keep_outcome:
        trial.outcome = outcome
    return trial


def output_digest(outcome: ExperimentOutcome) -> str:
    """Digest of every modelled output of a finished trial."""
    sim = outcome.scenario.sim
    payload = {
        "events": sim.events_processed,
        "peak_queue_depth": sim.peak_queue_depth,
        "now": repr(sim.now),
        "overhead_bytes": outcome.total_overhead_bytes,
        "counters": sim.metrics.snapshot()["counters"],
        "consumers": [
            [
                c.node_id,
                repr(c.recall),
                repr(c.result.latency),
                c.result.rounds,
                c.result.received,
                c.result.completed,
                c.overhead_bytes,
            ]
            for c in outcome.consumers
        ],
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(encoded, digest_size=12).hexdigest()
