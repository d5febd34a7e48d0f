"""Outside-in layer tracing for the benchmark.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
patches the public entry points of each layer (and the upcall
registrations that wire the layers together) for the duration of one
traced trial, then restores them.  Three kinds of wrap:

* every callback passed to ``Simulator.schedule``/``at`` becomes an event
  span named after its handler;
* callbacks registered through ``BroadcastMedium.attach``,
  ``Radio.on_receive``, ``BroadcastFace.on_receive`` and the
  ``Timer``/``PeriodicTask`` constructors become spans too, so a delivery
  nests medium -> radio -> face -> device -> engine;
* listed public methods become spans (protocol handlers, kept as span
  records) or leaves (hot calls such as ``Topology.within`` and
  ``BloomFilter.__contains__``, kept only as calls + time).

Every wrap keeps an open-frame stack, so each name's *self* time (its
duration minus the time covered by wrapped children) is exact without
storing the leaves.  Accounting runs only inside ``Simulator.run``; the
set-up wraps (scenario build, data placement) always time.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bloom.bloom_filter import BloomFilter
from repro.core import retrieval as retrieval_module
from repro.core.cdi import CdiTable
from repro.core.discovery import DiscoveryEngine
from repro.core.retrieval import CdiEngine, ChunkEngine
from repro.data.descriptor import DataDescriptor
from repro.data.store import DataStore
from repro.experiments.figures import common as figures_common
from repro.net.faces import BroadcastFace
from repro.net.leaky_bucket import LeakyBucket
from repro.net.medium import BroadcastMedium
from repro.net.radio import Radio
from repro.net.reliability import ReliabilityReceiver, ReliabilitySender
from repro.net.topology import Topology
from repro.sim.event import DEFAULT_PRIORITY
from repro.sim.process import PeriodicTask, Timer
from repro.sim.simulator import Simulator

SPAN, LEAF, SETUP = "span", "leaf", "setup"

#: Methods wrapped per class: (owner, attribute, kind).  Spans keep a
#: record each; leaves are called too often for that and keep only
#: calls + time.
METHODS: Tuple[Tuple[Any, str, str], ...] = (
    (BroadcastMedium, "transmit", LEAF),
    (BroadcastMedium, "channel_busy", LEAF),
    (BroadcastMedium, "busy_until", LEAF),
    (Topology, "within", LEAF),
    (Topology, "in_range", LEAF),
    (Topology, "nodes_within", LEAF),
    (Topology, "position", LEAF),
    (Topology, "distance", LEAF),
    (Topology, "add_node", LEAF),
    (Topology, "remove_node", LEAF),
    (Topology, "move", LEAF),
    (Radio, "send", LEAF),
    (LeakyBucket, "offer", LEAF),
    (ReliabilitySender, "send", LEAF),
    (ReliabilitySender, "ack_received", LEAF),
    (ReliabilitySender, "frame_transmitted", LEAF),
    (ReliabilityReceiver, "accept", LEAF),
    (BroadcastFace, "send", LEAF),
    (DiscoveryEngine, "issue_query", SPAN),
    (DiscoveryEngine, "handle_query", SPAN),
    (DiscoveryEngine, "handle_response", SPAN),
    (DiscoveryEngine, "on_local_data", LEAF),
    (BloomFilter, "__contains__", LEAF),
    (BloomFilter, "insert", LEAF),
    (BloomFilter, "copy", LEAF),
    (BloomFilter, "union_update", LEAF),
    (DataStore, "insert_metadata", LEAF),
    (DataStore, "insert_chunk", LEAF),
    (DataStore, "match_metadata", LEAF),
    (DataStore, "match_chunks", LEAF),
    (DataStore, "has_metadata", LEAF),
    (DataStore, "has_chunk", LEAF),
    (CdiEngine, "issue_query", SPAN),
    (CdiEngine, "handle_query", SPAN),
    (CdiEngine, "handle_response", SPAN),
    (ChunkEngine, "request_chunks", SPAN),
    (ChunkEngine, "handle_query", SPAN),
    (ChunkEngine, "handle_response", SPAN),
    (CdiTable, "update", LEAF),
    (CdiTable, "best_entries", LEAF),
    (CdiTable, "best_hop", LEAF),
    (CdiTable, "known_chunks", LEAF),
    (DataDescriptor, "__init__", LEAF),
    # Bound by name where they are called from, so patched there.
    (retrieval_module, "assign_chunks", LEAF),
    (figures_common, "distribute_metadata", SETUP),
    (figures_common, "distribute_chunks", SETUP),
)

#: Upcall registrations: (owner, attribute, index of the callback among
#: the positional arguments after ``self``).
REGISTRATIONS: Tuple[Tuple[Any, str, int], ...] = (
    (BroadcastMedium, "attach", 1),
    (Radio, "on_receive", 0),
    (BroadcastFace, "on_receive", 0),
    (Timer, "__init__", 1),
    (PeriodicTask, "__init__", 2),
)

RUN = "sim.simulator:Simulator.run"


def handler_name(callback: Callable[..., Any]) -> str:
    """``module:qualname`` of a callback, without the ``repro.`` prefix."""
    fn = getattr(callback, "__func__", callback)
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{qualname}"


class LayerTracer:
    """Spans and per-name call/time totals of one or more traced trials.

    Attributes:
        totals: name -> ``[calls, total_s, self_s]``.
        names: span names; a span record refers to one by index.
        spans: flat ``(span_id, parent_id, name_index, start_s, end_s,
            trial)`` records of span-kind frames (event handlers, upcalls,
            protocol handlers, ``Simulator.run``), six doubles per span so
            a million spans stay under 50 MB.
        bloom_hits: Bloom membership tests that answered "present".
        tx_frames / tx_retransmissions: frames put on the air, and how
            many of them were retransmissions.
        queue_waits: simulated seconds from a frame's enqueue to air.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.names: List[str] = []
        self.spans = array("d")
        self.trial = 0
        self.active = False
        self.bloom_hits = 0
        self.tx_frames = 0
        self.tx_retransmissions = 0
        self.queue_waits: List[float] = []
        self._stack: List[List[float]] = []
        self._next_id = 1
        self._handler_names: Dict[Any, str] = {}
        self._name_index: Dict[str, int] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Frame accounting
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        kind: str,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a frame named ``name``."""
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        add_span = self.spans.extend
        record = kind != LEAF
        always = kind == SETUP
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not (tracer.active or always):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = int(parent[2]) if parent is not None else 0
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_id
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if record:
                    add_span((span_id, parent_id, index, start, end, tracer.trial))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def callback_span(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """A span around a scheduled or registered callback."""
        key = getattr(callback, "__func__", callback)
        name = self._handler_names.get(key)
        if name is None:
            name = self._handler_names[key] = handler_name(callback)
        return self.wrap(name, callback, SPAN)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point; :meth:`uninstall` restores them."""
        for owner, attr, kind in METHODS:
            original = owner.__dict__[attr]
            self._patch(
                owner,
                attr,
                self.wrap(handler_name(original), original, kind, self._observer(original)),
            )
        for owner, attr, index in REGISTRATIONS:
            self._patch(owner, attr, self._registration(owner.__dict__[attr], index))
        self._patch(Simulator, "run", self._run(Simulator.run))
        self._patch(Simulator, "schedule", self._scheduling(Simulator.schedule))
        self._patch(Simulator, "at", self._scheduling(Simulator.at))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = owner.__dict__[attr]
        functools.update_wrapper(wrapper, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _registration(self, original: Callable[..., Any], index: int):
        tracer = self

        def register(self_: Any, *args: Any, **kwargs: Any) -> Any:
            args = list(args)
            args[index] = tracer.callback_span(args[index])
            return original(self_, *args, **kwargs)

        return register

    def _scheduling(self, original: Callable[..., Any]):
        tracer = self

        def schedule(
            sim: Simulator,
            when: float,
            callback: Callable[..., Any],
            *args: Any,
            priority: int = DEFAULT_PRIORITY,
        ) -> Any:
            return original(
                sim, when, tracer.callback_span(callback), *args, priority=priority
            )

        return schedule

    def _run(self, original: Callable[..., Any]):
        tracer = self
        timed = self.wrap(RUN, original, SPAN)

        def run(sim: Simulator, *args: Any, **kwargs: Any) -> Any:
            tracer.active = True
            try:
                return timed(sim, *args, **kwargs)
            finally:
                tracer.active = False

        return run

    def _observer(self, original: Any) -> Optional[Callable[[tuple, Any], None]]:
        if original is BloomFilter.__dict__["__contains__"]:
            return self._observe_bloom
        if original is BroadcastMedium.__dict__["transmit"]:
            return self._observe_transmit
        return None

    def _observe_bloom(self, args: tuple, hit: Any) -> None:
        if hit:
            self.bloom_hits += 1

    def _observe_transmit(self, args: tuple, airtime: Any) -> None:
        medium, frame = args[0], args[1]
        self.tx_frames += 1
        if frame.retransmission:
            self.tx_retransmissions += 1
        if frame.enqueued_at is not None:
            self.queue_waits.append(medium.sim.now - frame.enqueued_at)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        """Summed call counts of the named frames."""
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0] for name in names))

    def self_s(self, *names: str) -> float:
        """Summed self time of the named frames."""
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per module."""
        shares: Dict[str, float] = {}
        for name, acc in self.totals.items():
            module = name.partition(":")[0]
            shares[module] = shares.get(module, 0.0) + acc[2]
        return shares

    def module_self_s(self, *modules: str) -> float:
        """Summed self time of every frame whose module is listed."""
        per_module = self.layer_self_s()
        return sum(per_module.get(module, 0.0) for module in modules)

    def span_count(self) -> int:
        """Number of span records held."""
        return len(self.spans) // 6

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: a name table, then one
        ``[span_id, parent_id, name_index, start_s, end_s, trial]`` per span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        spans = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            out.writelines(
                f"[{spans[i]:.0f},{spans[i + 1]:.0f},{spans[i + 2]:.0f},"
                f"{spans[i + 3]:.9f},{spans[i + 4]:.9f},{spans[i + 5]:.0f}]\n"
                for i in range(0, len(spans), 6)
            )
