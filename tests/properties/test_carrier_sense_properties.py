"""The medium's sensed-until index must answer carrier sense exactly like
a brute-force scan of the transmissions on the air — under any
interleaving of transmissions, moves, joins, leaves and clock advances,
including topology changes in the middle of an airtime.

The reference is the scan the index replaced: the latest ``end`` over
every transmission with ``end > now`` whose sender is the node itself or
lies within ``carrier_sense_factor × range`` of it (absent nodes sense
only their own transmissions)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.medium import BroadcastMedium
from repro.net.message import Frame
from repro.net.topology import Topology
from repro.sim.simulator import Simulator

RADIO_RANGE = 40.0
CS_FACTOR = 2.0
NODES = range(6)

# Multiples of 10 m land nodes exactly on the 80 m sense boundary.
coordinate = st.one_of(
    st.integers(min_value=0, max_value=16).map(lambda k: 10.0 * k),
    st.floats(min_value=0.0, max_value=160.0, allow_nan=False),
)

ops = st.lists(
    st.tuples(
        st.sampled_from(["transmit", "move", "add", "remove", "advance", "to_end"]),
        st.sampled_from(NODES),
        coordinate,
        coordinate,
        st.sampled_from([0.0, 1e-4, 1e-3, 4e-3, 2e-2]),
        st.integers(min_value=0, max_value=20_000),
    ),
    max_size=80,
)


def reference_busy_until(topology, transmissions, node, now):
    sense_range = topology.radio_range * CS_FACTOR
    latest = now
    for sender, end in transmissions:
        if end <= now:
            continue
        if node == sender or topology.within(node, sender, sense_range):
            latest = max(latest, end)
    return latest


def check_all(sim, topology, medium, transmissions):
    now = sim.now
    for node in NODES:
        expected = reference_busy_until(topology, transmissions, node, now)
        assert medium.busy_until(node) == expected, (node, now)
        assert medium.channel_busy(node) == (expected > now), (node, now)


@given(ops)
@settings(max_examples=80, deadline=None)
def test_sensed_until_index_matches_scan_under_mobility(batch):
    sim = Simulator()
    topology = Topology(RADIO_RANGE)
    for node in NODES[:3]:
        topology.add_node(node, (20.0 * node, 0.0))
    medium = BroadcastMedium(
        sim, topology, random.Random(1), base_loss=0.0, carrier_sense_factor=CS_FACTOR
    )
    transmissions = []
    check_all(sim, topology, medium, transmissions)
    for op, node, x, y, dt, size in batch:
        present = node in topology
        if op == "transmit":
            # Absent senders may transmit too: the medium keeps their
            # airtime, and only they sense it.
            payload = Frame(sender=node, payload="p", payload_size=size)
            duration = medium.transmit(payload)
            transmissions.append((node, sim.now + duration))
        elif op == "move" and present:
            topology.move(node, (x, y))
        elif op == "add" and not present:
            topology.add_node(node, (x, y))
        elif op == "remove" and present:
            topology.remove_node(node)
        elif op == "advance":
            sim.run(until=sim.now + dt)
        elif op == "to_end":
            # Land exactly on the earliest end still ahead, where that
            # transmission must already read as free.
            ends = [end for _, end in transmissions if end > sim.now]
            if ends:
                sim.run(until=min(ends))
        check_all(sim, topology, medium, transmissions)
