"""Fault-harness validation against the healthy engines.

Two guarantees:

1. **Zero faults, zero footprint** — a healthy fault schedule wired
   through the full fault stack (adapter + injector + watchdog) on the
   reference engine is byte-identical to the un-instrumented reference
   and vector engines.
2. **Same schedule, same story** — a fault schedule replays
   packet-for-packet, including mid-run epoch changes, and route
   tracing does not perturb the run.
"""

import pytest

from repro.faults import FaultSchedule, link_down, link_stall, node_down
from repro.faults.experiments import make_fault_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    Mesh2DAdaptiveRouting,
)
from repro.sim import (
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    VectorSimulator,
    make_rng,
)
from repro.topology import Hypercube, Mesh2D

FAMILIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh2D(5), Mesh2DAdaptiveRouting),
}


def _static(topo, seed=0, packets=2):
    return StaticInjection(packets, RandomTraffic(topo), make_rng(seed))


def _faulted_result(key, make_schedule, seed=0, **kwargs):
    build, alg_cls = FAMILIES[key]
    topo = build()
    alg = alg_cls(topo)
    sim = make_fault_simulator(
        alg, _static(topo, seed), make_schedule(topo), **kwargs
    )
    return sim.run(max_cycles=500_000)


def assert_identical(a, b):
    assert sorted(a.latency.values) == sorted(b.latency.values)
    assert a.cycles == b.cycles
    assert a.injected == b.injected
    assert a.delivered == b.delivered
    assert a.undeliverable == b.undeliverable
    assert a.halt == b.halt


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_zero_faults_byte_identical_to_uninstrumented(key):
    """The full fault stack with a healthy schedule changes nothing."""
    build, alg_cls = FAMILIES[key]
    faulted = _faulted_result(key, FaultSchedule.healthy)
    assert faulted.halt is None and faulted.undeliverable == 0
    for engine_cls in (PacketSimulator, VectorSimulator):
        topo = build()
        baseline = engine_cls(alg_cls(topo), _static(topo)).run(
            max_cycles=500_000
        )
        assert_identical(baseline, faulted)


SCHEDULES = {
    "immediate-links": lambda topo: FaultSchedule.random_links(
        topo, 3, seed=13
    ),
    "onset-links": lambda topo: FaultSchedule.bernoulli_links(
        topo, 0.08, seed=5, onset_max=25
    ),
    "scripted-mixed": lambda topo: FaultSchedule.fixed(
        topo,
        [
            link_down(*_first_link(topo), at=4),
            link_stall(*_second_link(topo), at=6, until=60),
            node_down(_last_node(topo), at=15),
        ],
    ),
}


def _first_link(topo):
    return next(iter(sorted(topo.links(), key=repr)))


def _second_link(topo):
    links = sorted(topo.links(), key=repr)
    return links[len(links) // 2]


def _last_node(topo):
    return sorted(topo.nodes(), key=repr)[-1]


@pytest.mark.parametrize("key", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_identical_schedule_replays_identically(key, name):
    make_schedule = SCHEDULES[name]
    first = _faulted_result(key, make_schedule, seed=3)
    again = _faulted_result(key, make_schedule, seed=3)
    assert_identical(first, again)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_tracing_does_not_change_faulted_results(key):
    """Tracing (used by reroute-overhead accounting) leaves a faulted
    run unchanged, and every delivered route ends at its destination."""
    build, alg_cls = FAMILIES[key]
    topo = build()
    sim = make_fault_simulator(
        alg_cls(topo),
        _static(topo, seed=6),
        FaultSchedule.random_links(topo, 2, seed=21),
        trace=True,
    )
    sim.delivered_messages = []
    traced = sim.run(max_cycles=500_000)
    untraced = _faulted_result(
        key, lambda t: FaultSchedule.random_links(t, 2, seed=21), seed=6
    )
    assert_identical(traced, untraced)
    assert len(sim.delivered_messages) == traced.delivered
    for m in sim.delivered_messages:
        assert m.hops[-1].node == m.dst
