"""Engine tests: Section-7.1 timing semantics and delivery guarantees."""

import numpy as np
import pytest

from repro.core.message import reset_message_ids, take_message_ids
from repro.experiments import build_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    Mesh2DAdaptiveRouting,
    ShuffleExchangeRouting,
    TorusRouting,
)
from repro.sim import (
    ComplementTraffic,
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    make_rng,
)
from repro.sim.injection import InjectionModel
from repro.sim.trace import PacketTrace
from repro.telemetry import TelemetryProbe
from repro.topology import Hypercube, Mesh2D, ShuffleExchange, Torus


class SingleMessage(InjectionModel):
    """Inject exactly one message at cycle 0 (timing microscope)."""

    name = "single"

    def __init__(self, src, dst):
        self.src, self.dst = src, dst
        self.sent = False

    def attempt(self, sim, cycle):
        src = np.array([sim.nodes.index(self.src)])
        if not self.sent and sim.injection_free(src)[0]:
            dst = np.array([sim.nodes.index(self.dst)])
            sim.place_batch(src, dst, np.array([take_message_ids(1)]), cycle)
            self.sent = True

    def finished(self, sim, cycle):
        return self.sent and sim.delivered_count == 1


def test_single_hop_latency_is_three():
    """1 hop = inject(0) -> queue(0) -> outbuf+link(1) -> queue(2)
    -> delivery(3): exactly 2h + 1 cycles."""
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, SingleMessage(0b000, 0b001))
    res = sim.run(max_cycles=50)
    assert res.delivered == 1
    assert res.l_avg == 3 and res.l_max == 3


@pytest.mark.parametrize("dst,hops", [(0b001, 1), (0b011, 2), (0b111, 3)])
def test_uncontended_latency_formula(dst, hops):
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, SingleMessage(0b000, dst))
    res = sim.run(max_cycles=50)
    assert res.l_max == 2 * hops + 1


def test_phase_change_costs_nothing():
    """A mixed route (one 0->1, one 1->0 correction) still follows the
    2h+1 law: the internal A->B move folds into queue entry."""
    alg = HypercubeAdaptiveRouting(Hypercube(3))
    sim = PacketSimulator(alg, SingleMessage(0b001, 0b010))
    res = sim.run(max_cycles=50)
    assert res.l_max == 2 * 2 + 1


def test_complement_static_reproduces_table2_exactly():
    """Table 2: complement with one packet per node is deterministic,
    conflict-free, and costs exactly 2n+1 for every packet."""
    for n in (3, 4, 5):
        cube = Hypercube(n)
        alg = HypercubeAdaptiveRouting(cube)
        inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
        res = PacketSimulator(alg, inj).run(max_cycles=10_000)
        assert res.delivered == cube.num_nodes
        assert res.l_avg == 2 * n + 1
        assert res.l_max == 2 * n + 1


def test_all_static_packets_delivered():
    cube = Hypercube(4)
    alg = HypercubeAdaptiveRouting(cube)
    inj = StaticInjection(4, RandomTraffic(cube), make_rng(2))
    res = PacketSimulator(alg, inj).run(max_cycles=20_000)
    assert res.delivered == res.injected == 4 * cube.num_nodes
    assert res.undelivered == 0


def test_static_latency_lower_bound():
    """No packet can beat 2*distance+1 cycles."""
    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    inj = StaticInjection(2, RandomTraffic(cube), make_rng(3))
    res = PacketSimulator(alg, inj).run(max_cycles=10_000)
    assert res.latency.minimum >= 3  # distance >= 1


def test_tracing_records_queue_paths():
    """Every delivered packet's node path in the event log starts at its
    source, steps only between adjacent nodes and ends at its
    destination, on both engines, and both engines log the same paths."""
    mesh = Mesh2D(4)
    by_engine = {}
    for engine in ("reference", "vector"):
        reset_message_ids()
        alg = Mesh2DAdaptiveRouting(mesh)
        inj = StaticInjection(3, RandomTraffic(mesh), make_rng(5))
        probe = TelemetryProbe()
        res = build_simulator(alg, inj, engine=engine, telemetry=probe).run(
            max_cycles=10_000
        )
        ends = {
            ev[2]: (ev[3], ev[4]) for ev in probe.log.raw if ev[0] == "inject"
        }
        paths = PacketTrace(probe.log).node_paths()
        assert len(paths) == res.delivered == 3 * mesh.num_nodes, engine
        for uid, path in paths.items():
            src, dst = ends[uid]
            assert path[0] == src and path[-1] == dst, (engine, uid, path)
            for a, b in zip(path, path[1:]):
                assert mesh.is_adjacent(a, b), (engine, uid, path)
        by_engine[engine] = paths
    assert by_engine["reference"] == by_engine["vector"]


def test_dynamic_run_fixed_duration():
    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    inj = DynamicInjection(
        0.5, RandomTraffic(cube), make_rng(4), duration=200, warmup=50
    )
    res = PacketSimulator(alg, inj).run()
    assert res.cycles == 200
    assert 0.0 < res.injection_rate <= 1.0
    assert res.latency.count > 0


def test_dynamic_low_rate_injection_rate_near_one():
    cube = Hypercube(4)
    alg = HypercubeAdaptiveRouting(cube)
    inj = DynamicInjection(
        0.05, RandomTraffic(cube), make_rng(5), duration=400, warmup=100
    )
    res = PacketSimulator(alg, inj).run()
    assert res.injection_rate > 0.95


def test_deterministic_reruns_identical():
    cube = Hypercube(4)

    def run():
        alg = HypercubeAdaptiveRouting(cube)
        inj = DynamicInjection(
            0.7, RandomTraffic(cube), make_rng(9), duration=150, warmup=30
        )
        return PacketSimulator(alg, inj).run()

    a, b = run(), run()
    assert a.l_avg == b.l_avg
    assert a.l_max == b.l_max
    assert a.injection_rate == b.injection_rate


def test_queue_capacity_respected():
    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    inj = DynamicInjection(
        1.0, ComplementTraffic(cube), make_rng(6), duration=150, warmup=10
    )
    sim = PacketSimulator(alg, inj, central_capacity=2)
    sim.run()
    for u in sim.nodes:
        for q in sim.central[u].values():
            assert len(q) <= 2


def test_occupancy_collection():
    cube = Hypercube(3)
    alg = HypercubeHungRouting(cube)
    inj = DynamicInjection(
        1.0, RandomTraffic(cube), make_rng(7), duration=100, warmup=10
    )
    sim = PacketSimulator(alg, inj, collect_occupancy=True)
    res = sim.run()
    assert res.occupancy["mean"]
    assert max(res.occupancy["peak"].values()) <= 5


@pytest.mark.parametrize(
    "make",
    [
        lambda: (HypercubeAdaptiveRouting(Hypercube(3)), Hypercube(3)),
        lambda: (Mesh2DAdaptiveRouting(Mesh2D(3)), Mesh2D(3)),
        lambda: (TorusRouting(Torus((3, 3))), Torus((3, 3))),
        lambda: (
            ShuffleExchangeRouting(ShuffleExchange(3)),
            ShuffleExchange(3),
        ),
    ],
    ids=["hypercube", "mesh", "torus", "shuffle-exchange"],
)
def test_every_topology_delivers_under_load(make):
    alg, topo = make()
    alg = type(alg)(topo) if False else alg
    inj = StaticInjection(3, RandomTraffic(alg.topology), make_rng(8))
    res = PacketSimulator(alg, inj).run(max_cycles=50_000)
    assert res.delivered == res.injected
    assert res.undelivered == 0
