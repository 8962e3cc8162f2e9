"""Cross-validation of the compiled routing-plan path against the reference.

Every key an algorithm's integer hop kernel declines (fault epochs,
Beneš, the buffer-pool schemes) is served by rows that
:class:`~repro.sim.tables.RoutingTables` lowers from the symbolic
:class:`~repro.sim.plans.RoutingPlanCache` and packed behind the one
sorted key index.  This suite runs the vector engine on exactly that
path — no kernel (``use_kernel=False``) — and requires it to be
*packet-for-packet identical* to :class:`PacketSimulator` on the mesh,
torus, shuffle-exchange, hypercube and CCC: same latency multiset, same
cycle counts, same injection statistics, for FIFO/LIFO service,
paper/rotating buffer policy and any central-queue capacity.
``tests/test_sim_vector.py`` runs the same cases on the kernel rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import (
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    MeshAdaptiveRouting,
    ShuffleExchangeRouting,
    TorusRouting,
)
from repro.sim import (
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    RoutingTables,
    StaticInjection,
    VectorSimulator,
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


def run_plans(alg, inj, tables=None, **kw):
    """Run the vector engine on packed plan-cache rows; check that path
    was the one taken."""
    if tables is None:
        tables = RoutingTables(alg, use_kernel=False)
    result = VectorSimulator(alg, inj, tables=tables, **kw).run(
        max_cycles=500_000
    )
    assert tables.kernel is None and tables.plans.size > 0
    assert tables.rows_packed > 0
    return result


def run_both(key, make_inj, **kw):
    build, alg_cls = TOPOLOGIES[key]
    topo = build()
    ref = PacketSimulator(alg_cls(topo), make_inj(topo), **kw).run(
        max_cycles=500_000
    )
    topo2 = build()
    compiled = run_plans(alg_cls(topo2), make_inj(topo2), **kw)
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
    """One plan-cache-backed RoutingTables can back a whole sweep."""
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    alg = alg_cls(topo)
    tables = RoutingTables(alg, use_kernel=False)
    results = []
    for seed in (0, 1):
        inj = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
        results.append(run_plans(alg, inj, tables=tables))
    assert tables.plans.size > 0
    # The second run reuses (and possibly extends) the first run's plans.
    ref = PacketSimulator(
        alg, StaticInjection(2, RandomTraffic(topo), make_rng(1))
    ).run(max_cycles=500_000)
    assert sorted(results[1].latency.values) == sorted(ref.latency.values)


def test_plan_cache_algorithm_mismatch_rejected():
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    tables = RoutingTables(alg_cls(topo), use_kernel=False)
    assert tables.plans.algorithm is tables.algorithm
    other = alg_cls(build())
    inj = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    with pytest.raises(ValueError):
        VectorSimulator(other, inj, tables=tables)


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
