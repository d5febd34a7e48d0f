"""Layer-resolved benchmark of the PDS simulator.

Run from the repository root::

    python3 perfbench/run.py --workload dense_pdd --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` runs untraced trials and reports the end-to-end metrics;
``--trace 1`` runs each trial untraced and then traced, checks that both
give the same output digest, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload in turn, each in a fresh process so that
``peak_rss_mb`` is per workload.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

#: ``--seconds`` that the workloads' trial counts are sized for.
DECLARED_SECONDS = 40.0
#: Set-up-only passes per trial seed, on top of each trial's own set-up.
SETUP_REPEATS = 3
#: Host time of a traced trial plus its untraced twin, in untraced trials.
TRACED_COST = 3.5
#: A trial still running after this many host seconds counts as failed.
TRIAL_DEADLINE_S = 60.0

#: Names, units and directions of the metrics, and their bounds.
#: ``fail_ratio`` is printed beside the end-to-end metrics but travels in
#: the JSON as attempted/failed: it is 0 on a healthy run, and a declared
#: metric must never be 0.
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

LINK_MODULES = ("net.radio", "net.leaky_bucket", "net.reliability", "net.faces")
SENSE = ("net.medium:BroadcastMedium.channel_busy", "net.medium:BroadcastMedium.busy_until")
TRANSMIT = "net.medium:BroadcastMedium.transmit"
DELIVER = "net.medium:BroadcastMedium._deliver_all"
TOPOLOGY_READS = tuple(
    f"net.topology:Topology.{name}"
    for name in ("within", "in_range", "nodes_within", "position", "distance")
)
TOPOLOGY_WRITES = tuple(
    f"net.topology:Topology.{name}" for name in ("add_node", "remove_node", "move")
)
PLACEMENT = (
    "experiments.workload:distribute_metadata",
    "experiments.workload:distribute_chunks",
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def trial_count(spec, seconds: float, cost: float = 1.0) -> int:
    """The workload's trial count, scaled from :data:`DECLARED_SECONDS`
    to ``seconds`` and divided by a trial's relative host ``cost``."""
    return max(1, int(spec.trials * seconds / (DECLARED_SECONDS * cost)))


def run_checked(
    workload: str,
    seed: int,
    deadline_s: float = TRIAL_DEADLINE_S,
    keep_outcome: bool = False,
):
    """One trial under the per-trial deadline."""
    from repro.experiments.runner import TrialTimeout, _trial_deadline
    from workloads import Trial, run_trial

    try:
        with _trial_deadline(deadline_s, f"{workload}/{seed}"):
            return run_trial(workload, seed, keep_outcome=keep_outcome)
    except TrialTimeout as error:
        return Trial(workload, seed, problems=[str(error)])


def report_trial(trial, label: str = "") -> None:
    status = "ok" if trial.ok else "FAILED: " + "; ".join(trial.problems)
    print(
        f"  trial {trial.seed}{label}: wall {trial.wall_s:.3f} s, "
        f"setup {trial.setup_s:.4f} s, events {trial.events}, "
        f"recall {trial.recall:.4f}, digest {trial.digest or '-'}, {status}",
        flush=True,
    )


def end_to_end(workload: str, seed: int, seconds: float) -> Tuple[dict, int, int]:
    """Untraced trials; returns (metrics, attempted, failed)."""
    from repro.bench import _peak_rss_kb
    from workloads import WORKLOADS, Trial, measure_setup, trial_seeds

    spec = WORKLOADS[workload]
    seeds = trial_seeds(seed, trial_count(spec, seconds))
    print(f"{workload}: run seed {seed}, {len(seeds)} trial seeds {seeds}", flush=True)
    stop_at = perf_counter() + max(2.5 * seconds, seconds + 30.0)
    trials: List[Trial] = []
    setups: List[float] = []
    for trial_seed in seeds:
        if perf_counter() > stop_at:
            trial = Trial(workload, trial_seed, problems=["run deadline passed"])
        else:
            setups += [measure_setup(workload, trial_seed) for _ in range(SETUP_REPEATS)]
            trial = run_checked(workload, trial_seed)
        report_trial(trial)
        trials.append(trial)
    good = [trial for trial in trials if trial.ok]
    failed = len(trials) - len(good)
    if not good:
        return {}, len(trials), failed
    setups += [trial.setup_s for trial in good]
    metrics = {
        "trial_wall_s": statistics.fmean(trial.wall_s for trial in good),
        "events_per_s": sum(t.events for t in good) / sum(t.run_s for t in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_kb() / 1024.0,
        "sim_latency_s": statistics.fmean(trial.sim_latency_s for trial in good),
        "recall": statistics.fmean(trial.recall for trial in good),
        "overhead_mb": statistics.fmean(trial.overhead_mb for trial in good),
    }
    print(
        f"  {len(good)} good trials; set-up is the median of {len(setups)} "
        "set-ups, every other metric a mean over trials",
        flush=True,
    )
    return metrics, len(trials), failed


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def world_state(outcome) -> Dict[str, object]:
    """The finished world's own counters that the per-layer metrics use."""
    scenario = outcome.scenario
    snapshot = scenario.sim.metrics.snapshot()
    player = scenario.trace_player
    return {
        "counters": snapshot["counters"],
        "radio_queue_twm": snapshot["gauges"]["net.radio_queue_frames"]["twm"],
        "peak_queue_depth": scenario.sim.peak_queue_depth,
        "cached_entries": sum(
            device.store.metadata_count() for device in scenario.devices.values()
        ),
        "moves": player.moves if player else 0,
        "joins": player.joins if player else 0,
        "leaves": player.leaves if player else 0,
    }


def layer_metrics(tracer, traced: List, plain: List) -> Dict[str, float]:
    """Per-layer metrics from the tracer plus each world's own counters.

    Counts and times are means per traced trial; ratios pool all trials.
    """
    n = len(traced)
    worlds = [t.world for t in traced]

    def counter(name: str) -> float:
        return sum(w["counters"].get(name, 0) for w in worlds) / n

    def per_trial(value: float) -> float:
        return value / n

    def world_mean(key: str) -> float:
        return statistics.fmean(w[key] for w in worlds)

    delivered = counter("net.frames_delivered")
    lost = {
        "collision": counter("net.frames_lost_collision"),
        "busy": counter("net.frames_lost_busy_receiver"),
        "random": counter("net.frames_lost_random"),
    }
    resolved = delivered + sum(lost.values())
    transmits = tracer.calls(TRANSMIT)
    attempts = tracer.calls(SENSE[0])
    bloom_tests = tracer.calls("bloom.bloom_filter:BloomFilter.__contains__")
    metrics = {
        "sim.events": statistics.fmean(t.events for t in traced),
        "sim.peak_queue_depth": world_mean("peak_queue_depth"),
        "sim.self_s": per_trial(tracer.self_s("sim.simulator:Simulator.run")),
        "medium.sense.calls": per_trial(tracer.calls(*SENSE)),
        "medium.sense.self_s": per_trial(tracer.self_s(*SENSE)),
        "medium.transmit.calls": per_trial(transmits),
        "medium.fanout_receivers": resolved * n / transmits if transmits else 0.0,
        "medium.deliver.self_s": per_trial(tracer.self_s(DELIVER)),
        "medium.delivered": delivered,
        "medium.lost.collision": lost["collision"],
        "medium.lost.busy": lost["busy"],
        "medium.lost.random": lost["random"],
        "medium.delivery_ratio": delivered / resolved if resolved else 0.0,
        "topology.reads": per_trial(tracer.calls(*TOPOLOGY_READS)),
        "topology.read_s": per_trial(tracer.self_s(*TOPOLOGY_READS)),
        "topology.writes": per_trial(tracer.calls(*TOPOLOGY_WRITES)),
        "topology.write_s": per_trial(tracer.self_s(*TOPOLOGY_WRITES)),
        "radio.attempts": per_trial(attempts),
        "radio.deferral_ratio": attempts / transmits if transmits else 0.0,
        "link.self_s": per_trial(tracer.module_self_s(*LINK_MODULES)),
        "link.retx_ratio": (
            tracer.tx_retransmissions / tracer.tx_frames if tracer.tx_frames else 0.0
        ),
        "link.queue_wait_s.p50": _quantile(tracer.queue_waits, 0.50),
        "link.queue_wait_s.p99": _quantile(tracer.queue_waits, 0.99),
        "link.radio_queue_twm": world_mean("radio_queue_twm"),
        "discovery.queries": per_trial(
            tracer.calls("core.discovery:DiscoveryEngine.handle_query")
        ),
        "discovery.responses": per_trial(
            tracer.calls("core.discovery:DiscoveryEngine.handle_response")
        ),
        "discovery.self_s": per_trial(tracer.module_self_s("core.discovery")),
        "bloom.tests": per_trial(bloom_tests),
        "bloom.inserts": per_trial(tracer.calls("bloom.bloom_filter:BloomFilter.insert")),
        "bloom.self_s": per_trial(tracer.module_self_s("bloom.bloom_filter")),
        "bloom.prune_ratio": tracer.bloom_hits / bloom_tests if bloom_tests else 0.0,
        "store.inserts": per_trial(
            tracer.calls(
                "data.store:DataStore.insert_metadata", "data.store:DataStore.insert_chunk"
            )
        ),
        "store.self_s": per_trial(tracer.module_self_s("data.store")),
        "store.cached_entries": world_mean("cached_entries"),
        "cdi.updates": per_trial(tracer.calls("core.cdi:CdiTable.update")),
        "cdi.self_s": per_trial(tracer.module_self_s("core.cdi")),
        "chunk.queries": per_trial(tracer.calls("core.retrieval:ChunkEngine.handle_query")),
        "chunk.responses": per_trial(
            tracer.calls("core.retrieval:ChunkEngine.handle_response")
        ),
        "retrieval.self_s": per_trial(tracer.module_self_s("core.retrieval")),
        "assignment.calls": per_trial(tracer.calls("core.assignment:assign_chunks")),
        "assignment.self_s": per_trial(tracer.self_s("core.assignment:assign_chunks")),
        "descriptor.created": per_trial(
            tracer.calls("data.descriptor:DataDescriptor.__init__")
        ),
        "mobility.moves": world_mean("moves"),
        "mobility.joins": world_mean("joins"),
        "mobility.leaves": world_mean("leaves"),
        "scenario.build_s": statistics.fmean(t.build_s for t in plain),
        "workload.place_s": per_trial(
            sum(tracer.totals.get(name, (0, 0.0, 0.0))[1] for name in PLACEMENT)
        ),
        "trace.overhead_ratio": statistics.median(
            t.wall_s / p.wall_s for t, p in zip(traced, plain)
        ),
    }
    return metrics


def traced_trials(workload: str, seeds: List[int]):
    """Each trial untraced, then traced; returns (tracer, traced, plain, failed).

    ``traced``/``plain`` hold the pairs where both trials passed the
    correctness gate and their output digests agree.
    """
    from layertrace import LayerTracer
    from workloads import Trial

    tracer = LayerTracer()
    traced: List[Trial] = []
    plain: List[Trial] = []
    failed = 0
    for trial_seed in seeds:
        twin = run_checked(workload, trial_seed)
        report_trial(twin, " untraced")
        tracer.trial = trial_seed
        tracer.install()
        try:
            trial = run_checked(
                workload, trial_seed, TRIAL_DEADLINE_S * TRACED_COST, keep_outcome=True
            )
        finally:
            tracer.uninstall()
        if twin.ok and trial.ok and trial.digest != twin.digest:
            trial.problems.append(
                f"traced digest {trial.digest} != untraced {twin.digest}"
            )
        report_trial(trial, " traced")
        if trial.outcome is not None:
            # Keep the counters, not the world: worlds are ~100 MB each.
            trial.world = world_state(trial.outcome)
            trial.outcome = None
        if twin.ok and trial.ok:
            traced.append(trial)
            plain.append(twin)
        else:
            failed += 1
    return tracer, traced, plain, failed


def per_layer(workload: str, seed: int, seconds: float) -> Tuple[dict, int, int]:
    """Traced trials; returns (per-layer metrics, attempted, failed)."""
    from layertrace import RUN
    from workloads import WORKLOADS, trial_seeds

    count = trial_count(WORKLOADS[workload], seconds, TRACED_COST)
    seeds = trial_seeds(seed, count)
    print(f"{workload}: traced run seed {seed}, trial seeds {seeds}", flush=True)
    tracer, traced, plain, failed = traced_trials(workload, seeds)
    if not traced:
        return {}, len(seeds), failed
    metrics = layer_metrics(tracer, traced, plain)
    run_s = tracer.totals[RUN][1]
    print(f"  self-time share of the traced simulated phase ({run_s:.3f} s):")
    for module, self_s in sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1]):
        if module != "experiments.workload":
            print(f"    {module:<26s} {100.0 * self_s / run_s:6.2f}%")
    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl.gz")
    tracer.write_spans(spans_path)
    print(f"  {tracer.span_count()} spans written to {os.path.relpath(spans_path)}")
    return metrics, len(seeds), failed


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own fresh process."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"{workload}: exited with {completed.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: no simulator sources at {os.path.relpath(SRC)}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Observability knobs in the caller's environment would change what
    # is measured; every trial runs with all of them off.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)} or all)",
            file=sys.stderr,
        )
        return 2
    with open(SPEC, encoding="utf-8") as spec_file:
        declared = json.load(spec_file)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics, attempted, failed = per_layer(args.workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
    if not metrics:
        print(f"perfbench: every trial of {args.workload} failed", file=sys.stderr)
        return 1
    reported = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        reported[name] = {"value": metrics[name], "unit": unit}
        print(f"metric {name} = {metrics[name]:.6g} {unit} ({entry['better']} is better)")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio (lower is better)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
