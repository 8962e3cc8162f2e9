"""Cross-validation of the symbolic row path against the reference.

Every key an algorithm's integer hop kernel declines (fault epochs,
exhausted shuffle counters, off-network Beneš keys), and every key of
an algorithm without a kernel, is served by rows the row assembler
(:class:`~repro.core.hops.HopKernel`) builds from the symbolic routing
function and :class:`~repro.sim.tables.RoutingTables` packs behind the
one sorted key index.  This suite runs the vector engine on exactly
that path — no kernel (``use_kernel=False``) — and requires it to be
*packet-for-packet identical* to :class:`PacketSimulator` on the mesh,
torus, shuffle-exchange, hypercube and CCC: same latency multiset, same
cycle counts, same injection statistics, for FIFO/LIFO service and
any central-queue capacity.
``tests/test_sim_vector.py`` runs the same cases on the kernel rows.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hops import HopKernel
from repro.core.message import reset_message_ids
from repro.core.queues import QueueId
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
from repro.statics import synthesize_routing
from repro.telemetry import TelemetryProbe
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
    """Run the vector engine on packed symbolic rows; check that path
    was the one taken."""
    if tables is None:
        tables = RoutingTables(alg, use_kernel=False)
    result = VectorSimulator(alg, inj, tables=tables, **kw).run(
        max_cycles=500_000
    )
    assert tables.kernel is None and type(tables.assembler) is HopKernel
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


def test_small_capacity_identical():
    ref, compiled = run_both(
        "torus",
        lambda t: StaticInjection(5, RandomTraffic(t), make_rng(4)),
        central_capacity=1,
    )
    assert_identical(ref, compiled)


def test_shared_plan_cache_across_runs():
    """One kernel-less RoutingTables can back a whole sweep."""
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    alg = alg_cls(topo)
    tables = RoutingTables(alg, use_kernel=False)
    results = []
    packed = []
    for seed in (0, 1):
        inj = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
        results.append(run_plans(alg, inj, tables=tables))
        packed.append(tables.rows_packed)
    # The second run reuses (and possibly extends) the first run's rows.
    assert 0 < packed[0] <= packed[1]
    ref = PacketSimulator(
        alg, StaticInjection(2, RandomTraffic(topo), make_rng(1))
    ).run(max_cycles=500_000)
    assert sorted(results[1].latency.values) == sorted(ref.latency.values)


def test_plan_cache_algorithm_mismatch_rejected():
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    tables = RoutingTables(alg_cls(topo), use_kernel=False)
    assert tables.assembler.t is tables
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
)
def test_property_identical_dynamic(key, seed, rate):
    ref, compiled = run_both(
        key,
        lambda t: DynamicInjection(
            rate, RandomTraffic(t), make_rng(seed), duration=120, warmup=30
        ),
    )
    assert_identical(ref, compiled)


class _EchoedHopsRouting(MeshAdaptiveRouting):
    """Offers every static hop again as a dynamic hop over the same
    buffer class, so each external candidate has a twin for the same
    buffer: first-wins must keep the static one."""

    def dynamic_hops(self, q, dst, state=None):
        return self.static_hops(q, dst, state)

    def buffer_class(self, q_from, q_to, dynamic):
        return q_to.kind


class _GhostTwinRouting(_EchoedHopsRouting):
    """Each static hop's dynamic twin targets a queue kind no node
    declares, over the static hop's buffer: the twin loses first-wins,
    so neither engine may look its queue up."""

    def dynamic_hops(self, q, dst, state=None):
        return [
            QueueId(q2.node, "ghost-" + q2.kind)
            for q2 in self.static_hops(q, dst, state)
            if q2.node != q.node
        ]

    def buffer_class(self, q_from, q_to, dynamic):
        return q_to.kind.removeprefix("ghost-")


def test_first_wins_keeps_the_static_twin():
    topo = Mesh((3, 3))
    for cls in (_EchoedHopsRouting, _GhostTwinRouting):
        tables = RoutingTables(cls(topo), use_kernel=False)
        sid = tables.state_id(None)
        externals = 0
        for qid in range(tables.n_queues):
            for dst in range(len(tables.nodes)):
                slots, queues, _states, dyn, _steps = tables.central_row(
                    qid, dst, sid
                )
                assert len(set(slots)) == len(slots) and not any(dyn)
                assert all(q >= 0 for q in queues)
                externals += len(slots)
        assert externals > 0
        inj = lambda t: StaticInjection(3, RandomTraffic(t), make_rng(2))
        ref = PacketSimulator(cls(topo), inj(topo)).run(max_cycles=500_000)
        assert_identical(ref, run_plans(cls(topo), inj(topo)))


@st.composite
def strongly_connected_digraphs(draw):
    """Edge lists of small strongly connected digraphs: a random
    Hamiltonian cycle plus random chords."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges.update(
        (u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v
    )
    return sorted(edges)


def _logged_run(alg, seed, engine_cls, **kw):
    reset_message_ids()
    model = DynamicInjection(
        1.0, RandomTraffic(alg.topology), make_rng(seed), duration=40
    )
    probe = TelemetryProbe()
    sim = engine_cls(alg, model, **kw)
    probe.attach(sim)
    result = sim.run(max_cycles=20_000)
    return probe.log.to_jsonl(), result


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(edges=strongly_connected_digraphs(), seed=st.integers(0, 10_000))
def test_property_synthesized_routing_logs_identical(edges, seed):
    """Generated digraphs routed by ``synthesize_routing`` (no kernel,
    so every row comes from the symbolic candidates) give byte-identical
    canonical event logs on both engines at lambda = 1."""
    ref_log, ref = _logged_run(
        synthesize_routing(edges), seed, PacketSimulator
    )
    alg = synthesize_routing(edges)
    tables = RoutingTables(alg, use_kernel=False)
    vec_log, vec = _logged_run(alg, seed, VectorSimulator, tables=tables)
    assert ref.delivered > 0
    assert vec_log == ref_log
    assert vec.cycles == ref.cycles
    assert tables.rows_packed > 0
