"""Cross-validation of the table-driven vector engine.

:class:`VectorSimulator` must be *packet-for-packet identical* to the
reference :class:`PacketSimulator` on every topology — same latency
multiset, same cycle counts, same injection statistics — for every
engine configuration the vector engine supports (FIFO/LIFO service,
paper/rotating buffer policy, any central-queue capacity).  This
mirrors ``tests/test_sim_compiled.py``, plus the table-compilation
edge cases: single-node networks, packets injected at their own
destination, dynamic-link transitions mid-cycle, and the capability
errors the engine raises instead of silently degrading.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.message import Message, reset_message_ids
from repro.core.queues import QueueId, deliver
from repro.core.routing_function import RoutingAlgorithm
from repro.topology.base import Topology
from repro.routing import (
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    MeshAdaptiveRouting,
    ShuffleExchangeRouting,
    TorusRouting,
)
from repro.sim import (
    ComplementTraffic,
    DynamicInjection,
    EngineCapabilityError,
    HotspotTraffic,
    InjectionModel,
    LeveledPermutationTraffic,
    MeshTransposeTraffic,
    PacketSimulator,
    RandomTraffic,
    RoutingTables,
    StaticInjection,
    TornadoTraffic,
    TransposeTraffic,
    VectorSimulator,
    make_rng,
)
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


def run_both(key, make_inj, **kw):
    build, alg_cls = TOPOLOGIES[key]
    topo = build()
    ref = PacketSimulator(alg_cls(topo), make_inj(topo), **kw).run(
        max_cycles=500_000
    )
    topo2 = build()
    vec = VectorSimulator(alg_cls(topo2), make_inj(topo2), **kw).run(
        max_cycles=500_000
    )
    return ref, vec


def assert_identical(ref, vec):
    assert sorted(ref.latency.values) == sorted(vec.latency.values)
    assert ref.cycles == vec.cycles
    assert ref.injected == vec.injected
    assert ref.delivered == vec.delivered
    assert ref.attempts == vec.attempts
    assert ref.successes == vec.successes


# ----------------------------------------------------------------------
# Identity on every topology / engine configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_static_random_identical(key):
    ref, vec = run_both(
        key, lambda t: StaticInjection(2, RandomTraffic(t), make_rng(0))
    )
    assert_identical(ref, vec)


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_dynamic_saturated_identical(key):
    ref, vec = run_both(
        key,
        lambda t: DynamicInjection(
            1.0, RandomTraffic(t), make_rng(1), duration=200, warmup=50
        ),
    )
    assert_identical(ref, vec)


@pytest.mark.parametrize("key", ["mesh", "torus", "shuffle"])
def test_lifo_service_identical(key):
    ref, vec = run_both(
        key,
        lambda t: StaticInjection(4, RandomTraffic(t), make_rng(2)),
        service="lifo",
        central_capacity=2,
    )
    assert_identical(ref, vec)


@pytest.mark.parametrize("key", ["mesh", "torus", "shuffle"])
def test_rotating_policy_identical(key):
    ref, vec = run_both(
        key,
        lambda t: DynamicInjection(
            0.7, RandomTraffic(t), make_rng(3), duration=200, warmup=50
        ),
        policy="rotating",
    )
    assert_identical(ref, vec)


def test_small_capacity_identical():
    ref, vec = run_both(
        "torus",
        lambda t: StaticInjection(5, RandomTraffic(t), make_rng(4)),
        central_capacity=1,
    )
    assert_identical(ref, vec)


def test_occupancy_sampling_identical():
    kw = dict(collect_occupancy=True, occupancy_sample_every=2)
    ref, vec = run_both(
        "mesh",
        lambda t: StaticInjection(3, RandomTraffic(t), make_rng(5)),
        **kw,
    )
    assert_identical(ref, vec)
    assert ref.occupancy["peak"] == vec.occupancy["peak"]
    assert ref.occupancy["mean"].keys() == vec.occupancy["mean"].keys()
    for k, v in ref.occupancy["mean"].items():
        assert vec.occupancy["mean"][k] == pytest.approx(v)


# ----------------------------------------------------------------------
# Table-compilation edge cases
# ----------------------------------------------------------------------
class _SingleNode(Topology):
    """One node, zero links (the built-in topologies require >= 2)."""

    name = "single"

    @property
    def num_nodes(self):
        return 1

    def nodes(self):
        return iter((0,))

    def neighbors(self, u):
        return ()

    def link_index(self, u, v):
        raise KeyError((u, v))

    def distance(self, u, v):
        return 0


class _SingleNodeRouting(RoutingAlgorithm):
    """Degenerate algorithm: inject into the one central queue, whose
    only static hop is delivery (no physical links exist)."""

    name = "single-node"

    def central_queue_kinds(self, node):
        return ("A",)

    def injection_targets(self, src, dst, state=None):
        return frozenset({QueueId(src, "A")})

    def static_hops(self, q, dst, state=None):
        if q.node == dst and q.kind == "A":
            return frozenset({deliver(dst)})
        return frozenset()


def test_single_node_network():
    """Table compilation of a one-node, zero-link network must not
    degenerate; a self-addressed packet delivers identically."""
    results = []
    for engine_cls in (PacketSimulator, VectorSimulator):
        topo = _SingleNode()
        sim = engine_cls(_SingleNodeRouting(topo), _AtDestination(0))
        results.append(sim.run(max_cycles=100))
    ref, vec = results
    assert_identical(ref, vec)
    assert vec.delivered == 1
    tables = RoutingTables(_SingleNodeRouting(_SingleNode()))
    assert tables.nodes == [0]
    assert len(tables.slot_src) == 0  # no links -> no output slots


class _AtDestination(InjectionModel):
    """Places one packet whose destination *is* its source node.

    The stock injection models never generate ``dst == src`` draws, so
    this exercises the entry path where a packet is deliverable the
    moment it leaves the injection queue.
    """

    def __init__(self, node):
        self.node = node
        self.placed = False

    def attempt(self, sim, cycle):
        if not self.placed:
            alg = sim.algorithm
            msg = Message(
                src=self.node,
                dst=self.node,
                state=alg.initial_state(self.node, self.node),
            )
            sim.place_in_injection_queue(self.node, msg, cycle)
            self.placed = True

    def finished(self, sim, cycle):
        return self.placed and sim.active == 0


@pytest.mark.parametrize("key", ["mesh", "hypercube"])
def test_injected_at_destination(key):
    build, alg_cls = TOPOLOGIES[key]
    results = []
    for engine_cls in (PacketSimulator, VectorSimulator):
        topo = build()
        node = next(iter(topo.nodes()))
        sim = engine_cls(alg_cls(topo), _AtDestination(node))
        results.append(sim.run(max_cycles=100))
    ref, vec = results
    assert_identical(ref, vec)
    assert vec.delivered == 1
    # h = 0 hops: delivered the cycle after injection (L = 2h + 1).
    assert vec.latency.values == [1]


def test_dynamic_link_transitions_mid_cycle():
    """Seeded congestion on a capacity-1 hypercube forces packets onto
    dynamic links, whose table rows flip per-message state mid-cycle;
    the event logs (which record the dynamic flag per hop) must stay
    byte-identical."""
    logs, saw_dynamic = {}, False
    for engine_cls in (PacketSimulator, VectorSimulator):
        reset_message_ids()
        topo = Hypercube(4)
        probe = TelemetryProbe()
        sim = engine_cls(
            HypercubeAdaptiveRouting(topo),
            StaticInjection(3, RandomTraffic(topo), make_rng(6)),
            central_capacity=1,
        )
        probe.attach(sim)
        sim.run(max_cycles=500_000)
        logs[engine_cls.__name__] = probe.log.to_jsonl()
        saw_dynamic = saw_dynamic or any(
            r["kind"] == "hop" and r["dyn"] for r in probe.log.records()
        )
    assert saw_dynamic, "workload never used a dynamic link"
    assert logs["PacketSimulator"] == logs["VectorSimulator"]


def test_shared_tables_across_runs():
    """One RoutingTables can back a whole sweep of vector simulators."""
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    alg = alg_cls(topo)
    tables = RoutingTables(alg)
    results = []
    for seed in (0, 1):
        inj = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
        sim = VectorSimulator(alg, inj, tables=tables)
        results.append(sim.run(max_cycles=500_000))
    assert tables.size > 0
    ref = PacketSimulator(
        alg, StaticInjection(2, RandomTraffic(topo), make_rng(1))
    ).run(max_cycles=500_000)
    assert sorted(results[1].latency.values) == sorted(ref.latency.values)


def test_tables_algorithm_mismatch_rejected():
    build, alg_cls = TOPOLOGIES["mesh"]
    topo = build()
    tables = RoutingTables(alg_cls(topo))
    other = alg_cls(build())
    inj = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    with pytest.raises(ValueError):
        VectorSimulator(other, inj, tables=tables)


def test_unhashable_state_rejected():
    """Table compilation interns routing states by hash; an algorithm
    whose states are unhashable gets a capability error naming the
    engines that still work."""
    topo = Mesh((3, 3))
    tables = RoutingTables(MeshAdaptiveRouting(topo))
    with pytest.raises(EngineCapabilityError, match="reference|compiled"):
        tables.state_id(["not", "hashable"])


# ----------------------------------------------------------------------
# Capability errors and engine selection
# ----------------------------------------------------------------------
def test_trace_rejected():
    topo = Mesh((3, 3))
    inj = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    with pytest.raises(EngineCapabilityError):
        VectorSimulator(MeshAdaptiveRouting(topo), inj, trace=True)


def test_fault_observer_rejected():
    from repro.faults import DeadlockWatchdog

    topo = Mesh((3, 3))
    inj = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    sim = VectorSimulator(MeshAdaptiveRouting(topo), inj)
    with pytest.raises(EngineCapabilityError):
        sim.add_observer(DeadlockWatchdog())


def test_engine_env_override_vector(monkeypatch):
    from repro.experiments import HypercubeExperiment

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    assert type(exp.build(4)) is VectorSimulator


def test_build_simulator_vector_engine():
    from repro.experiments import build_simulator

    topo = Mesh((4, 4))
    sim = build_simulator(
        MeshAdaptiveRouting(topo),
        StaticInjection(1, RandomTraffic(topo), make_rng(0)),
        engine="vector",
    )
    assert type(sim) is VectorSimulator


def test_fault_harness_falls_back_from_vector():
    """make_fault_simulator honors REPRO_ENGINE=vector by falling back
    to a fault-capable engine instead of raising."""
    from repro.faults import FaultSchedule
    from repro.faults.experiments import make_fault_simulator
    from repro.sim import CompiledPacketSimulator

    topo = Hypercube(4)
    sim = make_fault_simulator(
        HypercubeAdaptiveRouting(topo),
        StaticInjection(1, RandomTraffic(topo), make_rng(0)),
        FaultSchedule.healthy(topo),
        engine="vector",
    )
    assert type(sim) is CompiledPacketSimulator


# ----------------------------------------------------------------------
# Batched dynamic injection (place_batch) identity
# ----------------------------------------------------------------------
class _RedundantInjectionRouting(HypercubeAdaptiveRouting):
    """Adaptive cube routing whose phase-B injections also list ``A``.

    ``A`` with no zero left folds into ``B`` on entry, so routing is
    unchanged, but every such injection row has two targets: the vector
    engine must fall back to the per-key multi-target read path.
    """

    def injection_targets(self, src, dst, state=None):
        targets = super().injection_targets(src, dst, state)
        if QueueId(src, "B") in targets:
            return frozenset({QueueId(src, "A"), QueueId(src, "B")})
        return targets


BATCH_INJECTION_CASES = {
    "complement": (
        lambda: Hypercube(4), HypercubeAdaptiveRouting, ComplementTraffic
    ),
    "transpose": (
        lambda: Hypercube(5), HypercubeAdaptiveRouting, TransposeTraffic
    ),
    "leveled": (
        lambda: Hypercube(4),
        HypercubeAdaptiveRouting,
        lambda t: LeveledPermutationTraffic(t, make_rng(8, "leveled")),
    ),
    "mesh-transpose": (
        lambda: Mesh((5, 5)), MeshAdaptiveRouting, MeshTransposeTraffic
    ),
    "tornado": (lambda: Torus((5, 4)), TorusRouting, TornadoTraffic),
    "hotspot": (
        lambda: Mesh((4, 4)),
        MeshAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=0.3),
    ),
    "shuffle-random": (
        lambda: ShuffleExchange(4), ShuffleExchangeRouting, RandomTraffic
    ),
    "multi-target": (
        lambda: Hypercube(4), _RedundantInjectionRouting, RandomTraffic
    ),
}


def _dynamic_log(case, engine_cls, rate, **kw):
    build, alg_cls, make_pattern = BATCH_INJECTION_CASES[case]
    reset_message_ids()
    topo = build()
    model = DynamicInjection(
        rate, make_pattern(topo), make_rng(21), duration=90, warmup=20
    )
    sim = engine_cls(alg_cls(topo), model, **kw)
    probe = TelemetryProbe()
    probe.attach(sim)
    result = sim.run(max_cycles=100_000)
    return probe.log.to_jsonl(), result, sim, Message(0, 0).uid


@pytest.mark.parametrize("rate", [0.4, 1.0])
@pytest.mark.parametrize("case", sorted(BATCH_INJECTION_CASES))
def test_batched_injection_event_logs_byte_identical(case, rate):
    ref_log, ref, _, ref_uid = _dynamic_log(case, PacketSimulator, rate)
    vec_log, vec, sim, vec_uid = _dynamic_log(case, VectorSimulator, rate)
    assert vec.injected > 0
    assert ref_log == vec_log
    assert_identical(ref, vec)
    assert ref_uid == vec_uid  # both engines took the same uids
    assert sim._inj_multi == (case == "multi-target")


def test_vector_dynamic_injection_builds_no_message(monkeypatch):
    built = []
    init = Message.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", counting_init)
    _, result, _, _ = _dynamic_log("complement", VectorSimulator, 1.0)
    assert result.injected > 0
    assert len(built) == 1  # only the uid probe after the run
    _, result, _, _ = _dynamic_log("complement", PacketSimulator, 1.0)
    assert len(built) == 2 + result.injected


# ----------------------------------------------------------------------
# Property-style seeded identity
# ----------------------------------------------------------------------
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
    ref, vec = run_both(
        key,
        lambda t: StaticInjection(packets, RandomTraffic(t), make_rng(seed)),
        central_capacity=capacity,
        service=service,
    )
    assert_identical(ref, vec)


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
    ref, vec = run_both(
        key,
        lambda t: DynamicInjection(
            rate, RandomTraffic(t), make_rng(seed), duration=120, warmup=30
        ),
        policy=policy,
    )
    assert_identical(ref, vec)
