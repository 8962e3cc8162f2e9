"""Cross-engine validation under faults.

Two guarantees:

1. **Zero faults, zero footprint** — a healthy fault schedule wired
   through the full fault stack (adapter + injector + watchdog) leaves
   both engines byte-identical to the un-instrumented baseline.
2. **Same schedule, same story** — the reference and compiled engines
   agree packet-for-packet under any identical fault schedule,
   including mid-run epoch changes that force the compiled engine to
   drop its routing-plan cache.
"""

import pytest

from repro.faults import FaultSchedule, link_down, link_stall, node_down
from repro.faults.experiments import make_fault_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    Mesh2DAdaptiveRouting,
)
from repro.sim import (
    CompiledPacketSimulator,
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    make_rng,
)
from repro.topology import Hypercube, Mesh2D

FAMILIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh2D(5), Mesh2DAdaptiveRouting),
}


def _static(topo, seed=0, packets=2):
    return StaticInjection(packets, RandomTraffic(topo), make_rng(seed))


def _faulted_result(key, make_schedule, engine, seed=0, **kwargs):
    build, alg_cls = FAMILIES[key]
    topo = build()
    alg = alg_cls(topo)
    sim = make_fault_simulator(
        alg, _static(topo, seed), make_schedule(topo), engine=engine, **kwargs
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
    for engine_cls, engine in (
        (PacketSimulator, "reference"),
        (CompiledPacketSimulator, "compiled"),
    ):
        topo = build()
        baseline = engine_cls(alg_cls(topo), _static(topo)).run(
            max_cycles=500_000
        )
        faulted = _faulted_result(key, FaultSchedule.healthy, engine)
        assert_identical(baseline, faulted)
        assert faulted.halt is None and faulted.undeliverable == 0


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
def test_engines_identical_under_identical_schedule(key, name):
    make_schedule = SCHEDULES[name]
    ref = _faulted_result(key, make_schedule, "reference", seed=3)
    compiled = _faulted_result(key, make_schedule, "compiled", seed=3)
    assert_identical(ref, compiled)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_engines_identical_with_traced_overhead(key):
    """Tracing (used by reroute-overhead accounting) keeps the engines
    aligned too, and both record the same delivered routes."""
    build, alg_cls = FAMILIES[key]
    routes = {}
    for engine in ("reference", "compiled"):
        topo = build()
        sim = make_fault_simulator(
            alg_cls(topo),
            _static(topo, seed=6),
            FaultSchedule.random_links(topo, 2, seed=21),
            engine=engine,
            trace=True,
        )
        sim.delivered_messages = []
        sim.run(max_cycles=500_000)
        routes[engine] = sorted(
            (m.src, m.dst, tuple(m.hops)) for m in sim.delivered_messages
        )
    assert routes["reference"] == routes["compiled"]


def test_epoch_change_invalidates_compiled_plans():
    """A mid-run fault onset must flush the compiled plan cache: plans
    computed against the healthy epoch are wrong afterwards."""
    topo = Hypercube(4)
    alg = HypercubeAdaptiveRouting(topo)
    schedule = FaultSchedule.fixed(topo, [link_down(0, 1, at=8)])
    inj = DynamicInjection(
        0.5, RandomTraffic(topo), make_rng(9), duration=120, warmup=20
    )
    sim = make_fault_simulator(alg, inj, schedule, engine="compiled")
    before = None
    sim.injection.setup(sim)
    for _ in range(7):
        sim.step()
    before = sim.plan_cache
    for _ in range(5):
        sim.step()
    assert sim.plan_cache is not before, "epoch change must rebuild plans"
