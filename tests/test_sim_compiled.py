"""Cross-validation of the compiled generic engine against the reference.

:class:`CompiledPacketSimulator` must be *packet-for-packet identical*
to :class:`PacketSimulator` on every topology — same latency multiset,
same cycle counts, same injection statistics — for every engine
configuration (FIFO/LIFO service, paper/rotating buffer policy, any
central-queue capacity).  This mirrors the hypercube suite in
``tests/test_sim_fastcube.py`` on the other families: mesh, torus,
shuffle-exchange, and CCC.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import (
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    Mesh2DAdaptiveRouting,
    MeshAdaptiveRouting,
    ShuffleExchangeRouting,
    TorusRouting,
)
from repro.sim import (
    CompiledPacketSimulator,
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    RoutingPlanCache,
    StaticInjection,
    make_rng,
)
from repro.topology import (
    CubeConnectedCycles,
    Hypercube,
    Mesh,
    ShuffleExchange,
    Torus,
)

TOPOLOGIES = {
    "mesh": (lambda: Mesh((5, 5)), MeshAdaptiveRouting),
    "torus": (lambda: Torus((4, 4)), TorusRouting),
    "shuffle": (lambda: ShuffleExchange(4), ShuffleExchangeRouting),
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "ccc": (lambda: CubeConnectedCycles(3), CCCAdaptiveRouting),
}


def run_both(key, make_inj, **kw):
    build, alg_cls = TOPOLOGIES[key]
    topo = build()
    ref = PacketSimulator(alg_cls(topo), make_inj(topo), **kw).run(
        max_cycles=500_000
    )
    topo2 = build()
    compiled = CompiledPacketSimulator(
        alg_cls(topo2), make_inj(topo2), **kw
    ).run(max_cycles=500_000)
    return ref, compiled


def assert_identical(ref, compiled):
    assert sorted(ref.latency.values) == sorted(compiled.latency.values)
    assert ref.cycles == compiled.cycles
    assert ref.injected == compiled.injected
    assert ref.delivered == compiled.delivered
    assert ref.attempts == compiled.attempts
    assert ref.successes == compiled.successes


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_static_random_identical(key):
    ref, compiled = run_both(
        key, lambda t: StaticInjection(2, RandomTraffic(t), make_rng(0))
    )
    assert_identical(ref, compiled)


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_dynamic_saturated_identical(key):
    ref, compiled = run_both(
        key,
        lambda t: DynamicInjection(
            1.0, RandomTraffic(t), make_rng(1), duration=200, warmup=50
        ),
    )
    assert_identical(ref, compiled)


@pytest.mark.parametrize("key", ["mesh", "torus", "shuffle"])
def test_lifo_service_identical(key):
    ref, compiled = run_both(
        key,
        lambda t: StaticInjection(4, RandomTraffic(t), make_rng(2)),
        service="lifo",
        central_capacity=2,
    )
    assert_identical(ref, compiled)


@pytest.mark.parametrize("key", ["mesh", "torus", "shuffle"])
def test_rotating_policy_identical(key):
    ref, compiled = run_both(
        key,
        lambda t: DynamicInjection(
            0.7, RandomTraffic(t), make_rng(3), duration=200, warmup=50
        ),
        policy="rotating",
    )
    assert_identical(ref, compiled)


def test_small_capacity_identical():
    ref, compiled = run_both(
        "torus",
        lambda t: StaticInjection(5, RandomTraffic(t), make_rng(4)),
        central_capacity=1,
    )
    assert_identical(ref, compiled)


def test_shared_plan_cache_across_runs():
    """One RoutingPlanCache can back a whole sweep of simulators."""
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    alg = alg_cls(topo)
    cache = RoutingPlanCache(alg)
    results = []
    for seed in (0, 1):
        inj = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
        sim = CompiledPacketSimulator(alg, inj, plan_cache=cache)
        results.append(sim.run(max_cycles=500_000))
    assert cache.size > 0
    # The second run reuses (and possibly extends) the first run's plans.
    ref = PacketSimulator(
        alg, StaticInjection(2, RandomTraffic(topo), make_rng(1))
    ).run(max_cycles=500_000)
    assert sorted(results[1].latency.values) == sorted(ref.latency.values)


def test_plan_cache_algorithm_mismatch_rejected():
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    cache = RoutingPlanCache(alg_cls(topo))
    other = alg_cls(build())
    inj = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    with pytest.raises(ValueError):
        CompiledPacketSimulator(other, inj, plan_cache=cache)


def test_engine_env_override(monkeypatch):
    """REPRO_ENGINE selects the engine in the experiment harness."""
    from repro.experiments import HypercubeExperiment, build_simulator
    from repro.sim import VectorSimulator

    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert type(exp.build(4)) is CompiledPacketSimulator
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert type(exp.build(4)) is PacketSimulator
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    assert type(exp.build(4)) is VectorSimulator
    monkeypatch.setenv("REPRO_ENGINE", "auto")
    assert type(exp.build(4)) is VectorSimulator
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        exp.build(4)
    monkeypatch.delenv("REPRO_ENGINE")
    # auto + a non-hypercube algorithm -> compiled generic engine.
    topo = Mesh((4, 4))
    sim = build_simulator(
        MeshAdaptiveRouting(topo),
        StaticInjection(1, RandomTraffic(topo), make_rng(0)),
    )
    assert type(sim) is CompiledPacketSimulator


def test_engine_argument_beats_environment(monkeypatch):
    from repro.experiments import HypercubeExperiment

    monkeypatch.setenv("REPRO_ENGINE", "reference")
    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    assert type(exp.build(4, engine="compiled")) is CompiledPacketSimulator


def test_auto_with_occupancy_uses_generic_engine():
    from repro.experiments import HypercubeExperiment

    sim = HypercubeExperiment(
        pattern="random", injection="static", seed=1, collect_occupancy=True
    ).build(4)
    assert isinstance(sim, PacketSimulator)
    assert isinstance(sim, CompiledPacketSimulator)


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    key=st.sampled_from(sorted(TOPOLOGIES)),
    packets=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    capacity=st.integers(1, 5),
    service=st.sampled_from(["fifo", "lifo"]),
)
def test_property_identical_static(key, packets, seed, capacity, service):
    ref, compiled = run_both(
        key,
        lambda t: StaticInjection(packets, RandomTraffic(t), make_rng(seed)),
        central_capacity=capacity,
        service=service,
    )
    assert_identical(ref, compiled)


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    key=st.sampled_from(["mesh", "torus", "shuffle"]),
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.3, 0.7, 1.0]),
    policy=st.sampled_from(["paper", "rotating"]),
)
def test_property_identical_dynamic(key, seed, rate, policy):
    ref, compiled = run_both(
        key,
        lambda t: DynamicInjection(
            rate, RandomTraffic(t), make_rng(seed), duration=120, warmup=30
        ),
        policy=policy,
    )
    assert_identical(ref, compiled)
