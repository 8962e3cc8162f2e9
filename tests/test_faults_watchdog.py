"""The deadlock/livelock watchdog and the engine's safety rails.

A degraded run must never hang and never die with an opaque error:
real wait-for cycles raise :class:`DeadlockDetected` with the cycle
attached, provably-undeliverable leftovers end the run gracefully with
an honest tally, transient stalls are waited out, and the hard
``max_cycles`` cap turns a runaway run into a clear exception.
"""

import pytest

from repro.core import QueueId, deliver
from repro.core.routing_function import RoutingAlgorithm
from repro.faults import (
    DeadlockDetected,
    DeadlockWatchdog,
    FaultSchedule,
    link_down,
    link_stall,
    node_down,
)
from repro.faults.experiments import make_fault_simulator
from repro.routing import HypercubeAdaptiveRouting
from repro.sim import (
    DynamicInjection,
    PacketSimulator,
    PermutationTraffic,
    RandomTraffic,
    ComplementTraffic,
    StaticInjection,
    VectorSimulator,
    make_rng,
)
from repro.sim.engine import CycleLimitExceeded
from repro.topology import Hypercube


class _GreedySwap(RoutingAlgorithm):
    """Single-queue greedy minimal routing: deadlocks under pressure."""

    name = "greedy-swap"

    def central_queue_kinds(self, node):
        return ("Q",)

    def injection_targets(self, src, dst, state=None):
        return frozenset({QueueId(src, "Q")})

    def static_hops(self, q, dst, state=None):
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        topo = self.topology
        du = topo.distance(u, dst)
        return frozenset(
            QueueId(v, "Q")
            for v in topo.neighbors(u)
            if topo.distance(v, dst) == du - 1
        )


class _RingForever(RoutingAlgorithm):
    """Packets circulate the 2-cube's Gray-code ring and never deliver:
    perpetual motion, zero progress — a pure livelock."""

    name = "ring-forever"
    _next = {0: 1, 1: 3, 3: 2, 2: 0}

    def central_queue_kinds(self, node):
        return ("Q",)

    def injection_targets(self, src, dst, state=None):
        return frozenset({QueueId(src, "Q")})

    def static_hops(self, q, dst, state=None):
        return frozenset({QueueId(self._next[q.node], "Q")})


def test_watchdog_reports_wait_for_cycle():
    """A real store-and-forward deadlock yields a structured report
    with the witness cycle over full queues."""
    cube = Hypercube(2)
    inj = DynamicInjection(
        1.0, ComplementTraffic(cube), make_rng(5), duration=100_000, warmup=10
    )
    sim = PacketSimulator(
        _GreedySwap(cube), inj, central_capacity=1, stall_limit=150
    )
    sim.add_observer(DeadlockWatchdog())
    with pytest.raises(DeadlockDetected) as exc:
        sim.run()
    report = exc.value.report
    assert report.kind == "deadlock"
    assert report.stuck_deliverable > 0
    assert report.wait_cycle, "deadlock witness missing"
    # the cycle is a closed walk over central queues
    assert all(q.is_central for q in report.wait_cycle)
    assert "wait-for cycle" in str(exc.value)


def test_disconnecting_fault_set_halts_instead_of_hanging():
    """Cut one node off entirely: the run terminates by itself with an
    honest undeliverable tally instead of hanging or raising."""
    topo = Hypercube(3)
    alg = HypercubeAdaptiveRouting(topo)
    faults = [link_down(0, v, at=0) for v in topo.neighbors(0)]
    schedule = FaultSchedule.fixed(topo, faults)
    model = StaticInjection(2, RandomTraffic(topo), make_rng(8))
    sim = make_fault_simulator(alg, model, schedule)
    result = sim.run(max_cycles=200_000)
    assert result.halt is not None and "undeliverable" in result.halt
    assert result.undeliverable > 0
    # everything that could be delivered was
    assert result.delivered + result.undeliverable >= model.total
    assert result.delivered_fraction < 1.0


def test_node_down_counts_frozen_and_unreachable():
    topo = Hypercube(3)
    alg = HypercubeAdaptiveRouting(topo)
    schedule = FaultSchedule.fixed(topo, [node_down(7, at=0)])
    model = StaticInjection(1, RandomTraffic(topo), make_rng(3))
    sim = make_fault_simulator(alg, model, schedule)
    result = sim.run(max_cycles=200_000)
    assert result.halt is not None
    # node 7's own packet never injects; packets headed to 7 park
    assert result.undeliverable > 0
    assert result.delivered == result.injected - result.undelivered


def test_transient_stall_is_waited_out_not_deadlock():
    """A link stall longer than the stall limit must not raise: the
    injector knows recovery is scheduled and suppresses the alarm."""
    topo = Hypercube(2)
    alg = HypercubeAdaptiveRouting(topo)
    schedule = FaultSchedule.fixed(topo, [link_stall(0, 1, at=0, until=300)])
    traffic = PermutationTraffic({0: 1, 1: 0, 2: 2, 3: 3}, name="swap01")
    model = StaticInjection(1, traffic, make_rng(0))
    sim = make_fault_simulator(alg, model, schedule, stall_limit=50)
    result = sim.run(max_cycles=10_000)
    assert result.delivered == 2
    assert result.cycles > 300, "must actually have waited out the stall"
    assert result.halt is None


def test_livelock_detected():
    cube = Hypercube(2)
    model = StaticInjection(1, ComplementTraffic(cube), make_rng(1))
    sim = PacketSimulator(_RingForever(cube), model)
    sim.add_observer(DeadlockWatchdog(livelock_limit=500))
    with pytest.raises(DeadlockDetected) as exc:
        sim.run(max_cycles=100_000)
    assert exc.value.report.kind == "livelock"


@pytest.mark.parametrize("engine_cls", [PacketSimulator, VectorSimulator])
def test_max_cycles_cap_raises_clear_error(engine_cls):
    """Satellite: the run cap turns an endless run into a clear error
    naming the in-flight packet count."""
    cube = Hypercube(2)
    model = StaticInjection(1, ComplementTraffic(cube), make_rng(1))
    sim = engine_cls(_RingForever(cube), model)
    with pytest.raises(CycleLimitExceeded) as exc:
        sim.run(max_cycles=2_000)
    msg = str(exc.value)
    assert "2000" in msg and "in flight" in msg


def test_healthy_run_unbothered_by_watchdog():
    """Attaching the watchdog to a healthy run changes nothing."""
    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    model = StaticInjection(2, RandomTraffic(cube), make_rng(2))
    plain = PacketSimulator(
        HypercubeAdaptiveRouting(Hypercube(3)),
        StaticInjection(2, RandomTraffic(Hypercube(3)), make_rng(2)),
    ).run()
    watched = PacketSimulator(alg, model)
    watched.add_observer(DeadlockWatchdog())
    res = watched.run()
    assert sorted(res.latency.values) == sorted(plain.latency.values)
    assert res.cycles == plain.cycles
