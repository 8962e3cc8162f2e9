"""Fault-harness validation against the healthy engines.

Two guarantees:

1. **Zero faults, zero footprint** — a healthy fault schedule wired
   through the full fault stack (adapter + injector + watchdog) on the
   reference engine is byte-identical to the un-instrumented reference
   and vector engines.
2. **Same schedule, same story** — a fault schedule replays
   packet-for-packet, including mid-run epoch changes, and recording
   the event log (which reroute overhead reads) does not perturb the
   run.
"""

import numpy as np
import pytest

from repro.core.message import take_message_ids
from repro.faults import FaultSchedule, link_down, link_stall, node_down
from repro.faults.experiments import make_fault_simulator, run_with_faults
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
from repro.sim.injection import InjectionModel
from repro.sim.trace import PacketTrace
from repro.telemetry import TelemetryProbe
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
    """Recording the event log (what reroute-overhead accounting reads)
    leaves a faulted run unchanged, and every delivered packet's node
    path in the log ends at its destination."""
    build, alg_cls = FAMILIES[key]
    topo = build()
    probe = TelemetryProbe()
    sim = make_fault_simulator(
        alg_cls(topo),
        _static(topo, seed=6),
        FaultSchedule.random_links(topo, 2, seed=21),
        telemetry=probe,
    )
    traced = sim.run(max_cycles=500_000)
    untraced = _faulted_result(
        key, lambda t: FaultSchedule.random_links(t, 2, seed=21), seed=6
    )
    assert_identical(traced, untraced)
    dst_of = {ev[2]: ev[4] for ev in probe.log.raw if ev[0] == "inject"}
    paths = PacketTrace(probe.log).node_paths()
    assert len(paths) == traced.delivered
    for uid, path in paths.items():
        assert path[-1] == dst_of[uid]


class _OnePacket(InjectionModel):
    """Inject one packet ``src -> dst`` at cycle 0."""

    name = "one-packet"

    def __init__(self, src, dst):
        self.src, self.dst = src, dst
        self.sent = False

    def attempt(self, sim, cycle):
        if not self.sent:
            src = np.array([sim.nodes.index(self.src)])
            dst = np.array([sim.nodes.index(self.dst)])
            sim.place_batch(src, dst, np.array([take_message_ids(1)]), cycle)
            self.sent = True

    def finished(self, sim, cycle):
        return self.sent and sim.active == 0


def test_retracted_hop_is_not_rerouting_overhead():
    """A link dies while a packet waits in its output buffer: the
    packet is retracted to its sender and detours.  The log keeps the
    retracted ``hop`` event, but the overhead counts only the hops the
    packet physically made: 0 -> 2 -> 3 -> 1 against a distance of 1."""
    cube = Hypercube(3)
    schedule = FaultSchedule.fixed(
        cube,
        [link_stall(0, 1, at=0, until=20), link_down(0, 1, at=5)],
    )
    probe = TelemetryProbe()
    rr = run_with_faults(
        HypercubeAdaptiveRouting(cube),
        _OnePacket(0, 1),
        schedule,
        measure_overhead=True,
        telemetry=probe,
    )
    assert rr.result.delivered == 1
    (path,) = PacketTrace(probe.log).node_paths().values()
    assert path == [0, 2, 3, 1]
    hops = [ev for ev in probe.log.raw if ev[0] == "hop"]
    assert [(ev[3], ev[4]) for ev in hops] == [(0, 1), (0, 2), (2, 3), (3, 1)]
    assert rr.reroute_overhead == 2.0  # counting hop events would say 3


def test_stalled_link_that_dies_is_a_new_epoch():
    """Stall 0-1 over [0, 20), with 0-1 down from 5: ``blocked_links``
    is the same three times over, but the installed fault set changes
    at 0, 5 and 20, and each change is an ``epoch``."""
    cube = Hypercube(3)
    schedule = FaultSchedule.fixed(
        cube,
        [link_stall(0, 1, at=0, until=20), link_down(0, 1, at=5)],
    )

    class _Until25(_OnePacket):
        def finished(self, sim, cycle):
            return cycle >= 25 and super().finished(sim, cycle)

    probe = TelemetryProbe()
    rr = run_with_faults(
        HypercubeAdaptiveRouting(cube), _Until25(0, 1), schedule,
        telemetry=probe,
    )
    assert rr.result.delivered == 1 and rr.result.cycles > 20
    epochs = [ev[1] for ev in probe.log.raw if ev[0] == "epoch"]
    assert epochs == [0, 5, 20]
    assert probe.summary["fault_epochs"] == 3
    assert probe.registry.counter("repro_fault_epochs_total").value == 3
