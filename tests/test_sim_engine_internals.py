"""White-box tests of the Section-7.1 engine mechanics.

These pin down the subtle parts of the node/link cycle: buffer-major
FIFO assignment, entry-time phase folding, one-packet-per-link
arbitration with class rotation, and the rotating input fairness.
"""

import pytest

from repro.core import Message, QueueId
from repro.routing import HypercubeAdaptiveRouting, Mesh2DAdaptiveRouting
from repro.sim import (
    ComplementTraffic,
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    TrafficPattern,
    make_rng,
)
from repro.sim.injection import InjectionModel
from repro.topology import Hypercube, Mesh2D


class NoInjection(InjectionModel):
    """Engine microscope: the test places messages by hand."""

    name = "none"

    def attempt(self, sim, cycle):
        pass

    def finished(self, sim, cycle):
        return sim.active == 0


def make_sim(n=3, **kw):
    alg = HypercubeAdaptiveRouting(Hypercube(n))
    return PacketSimulator(alg, NoInjection(), **kw)


def place(sim, node, kind, src, dst):
    msg = Message(src=src, dst=dst)
    msg.injected_cycle = sim.cycle
    sim.central[node][kind].append(msg)
    sim.active += 1
    sim.injected_count += 1
    return msg


def test_invalid_policy_and_service_rejected():
    # Output buffers fill low to high dimension: there is no policy knob.
    with pytest.raises(TypeError):
        make_sim(policy="paper")
    with pytest.raises(ValueError):
        make_sim(service="bogus")


def test_buffer_major_low_dimension_first():
    """A phase-A message with several eligible dims takes the lowest."""
    sim = make_sim()
    msg = place(sim, 0b000, "A", 0b000, 0b110)  # dims 1 and 2 eligible
    sim._node_fill_output_buffers(0b000)
    # The message should sit in the dim-1 output buffer (lowest).
    assert sim.out_buf[(0b000, 0b010, "A")] is msg
    assert sim.out_buf[(0b000, 0b100, "A")] is None


def test_fifo_head_wins_buffer_contention():
    """Two messages wanting the same buffer: queue head gets it, the
    second takes its other eligible dimension."""
    sim = make_sim()
    first = place(sim, 0b000, "A", 0b000, 0b010)  # only dim 1
    second = place(sim, 0b000, "A", 0b000, 0b110)  # dims 1 and 2
    sim._node_fill_output_buffers(0b000)
    assert sim.out_buf[(0b000, 0b010, "A")] is first
    assert sim.out_buf[(0b000, 0b100, "A")] is second


def test_adaptivity_routes_around_full_buffer():
    """If the preferred buffer is occupied, the message adapts."""
    sim = make_sim()
    blocker = place(sim, 0b000, "A", 0b000, 0b010)
    sim._node_fill_output_buffers(0b000)  # blocker takes dim-1 buffer
    assert sim.out_buf[(0b000, 0b010, "A")] is blocker
    mover = place(sim, 0b000, "A", 0b000, 0b110)
    sim._node_fill_output_buffers(0b000)
    assert sim.out_buf[(0b000, 0b100, "A")] is mover  # took dim 2 instead


def test_entry_folding_direct_to_phase_b():
    """A packet whose last 0->1 correction lands at an intermediate
    node enters qB directly (no extra cycle for the phase switch)."""
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, NoInjection())
    # Arrives at 011 with dst 001: no zeros to set, one 1 to clear.
    msg = Message(src=0b010, dst=0b001)
    msg.injected_cycle = 0
    msg.target = QueueId(0b011, "A")
    sim.in_buf[(0b010, 0b011, "A")] = msg
    sim.active += 1
    sim.injected_count += 1
    sim.step()
    assert msg in sim.central[0b011]["B"]
    assert msg not in sim.central[0b011]["A"]


def test_no_folding_at_destination():
    """Arriving at the destination stays in the sender-chosen queue
    (delivery happens next cycle: the 2h+1 accounting)."""
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, NoInjection())
    msg = Message(src=0b000, dst=0b001)
    msg.injected_cycle = 0
    msg.target = QueueId(0b001, "A")
    sim.in_buf[(0b000, 0b001, "A")] = msg
    sim.active += 1
    sim.injected_count += 1
    sim.step()
    assert msg in sim.central[0b001]["A"]
    sim.step()
    assert msg.delivered


def test_one_packet_per_link_direction_per_cycle():
    """B and dyn buffers on the same up-link alternate via rotation."""
    sim = make_sim()
    mb = Message(src=0, dst=0)
    md = Message(src=0, dst=0)
    key_b = (0b111, 0b110, "B")
    key_d = (0b111, 0b110, "dyn")
    sim.out_buf[key_b] = mb
    sim.out_buf[key_d] = md
    sim._link_cycle()
    transferred = [
        k for k in (key_b, key_d) if sim.in_buf[k] is not None
    ]
    assert len(transferred) == 1  # only one crossed
    sim.cycle += 1
    sim._link_cycle()
    assert sim.in_buf[key_b] is not None and sim.in_buf[key_d] is not None


def test_link_requires_empty_input_buffer():
    sim = make_sim()
    m1 = Message(src=0, dst=0)
    sim.out_buf[(0b000, 0b001, "A")] = m1
    sim.in_buf[(0b000, 0b001, "A")] = Message(src=1, dst=1)
    sim._link_cycle()
    assert sim.out_buf[(0b000, 0b001, "A")] is m1  # still waiting


def test_capacity_blocks_queue_entry():
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, NoInjection(), central_capacity=1)
    occupant = place(sim, 0b001, "A", 0b001, 0b111)
    waiting = Message(src=0b000, dst=0b111)
    waiting.injected_cycle = 0
    waiting.target = QueueId(0b001, "A")
    sim.in_buf[(0b000, 0b001, "A")] = waiting
    sim.active += 1
    sim.injected_count += 1
    # Run one node-read phase only: the queue is full, so the packet
    # must stay in the input buffer.
    sim._node_read_inputs(0b001)
    assert sim.in_buf[(0b000, 0b001, "A")] is waiting
    # After the occupant leaves, the packet gets in.
    sim.step()
    assert waiting in sim.central[0b001]["A"]


def test_mesh_engine_integration_small():
    mesh = Mesh2D(3)
    alg = Mesh2DAdaptiveRouting(mesh)
    inj = StaticInjection(1, ComplementTrafficLike(mesh), make_rng(1))
    res = PacketSimulator(alg, inj).run(max_cycles=10_000)
    assert res.delivered == res.injected


class ComplementTrafficLike(TrafficPattern):
    """Mesh analogue of the complement: mirror both coordinates."""

    name = "mesh-mirror"
    is_permutation = True

    def __init__(self, mesh):
        self.rows = mesh.shape[0]
        self.cols = mesh.shape[1]

    def draw(self, src, rng):
        return (self.rows - 1 - src[0], self.cols - 1 - src[1])
