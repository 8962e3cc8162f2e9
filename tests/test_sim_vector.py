"""Cross-validation of the table-driven vector engine.

:class:`VectorSimulator` must be *packet-for-packet identical* to the
reference :class:`PacketSimulator` on every topology — same latency
multiset, same cycle counts, same injection statistics — for every
engine configuration the vector engine supports (FIFO/LIFO service,
paper/rotating buffer policy, any central-queue capacity) — plus the
table-compilation edge cases: single-node networks, packets injected at
their own destination, dynamic-link transitions mid-cycle, the
capability errors the engine raises instead of silently degrading, and
engine selection (``REPRO_ENGINE`` and ``auto``).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hops import MOVE_STEP, SELF_STEP
from repro.core.message import Message, reset_message_ids, take_message_ids
from repro.core.queues import QueueId, deliver
from repro.core.routing_function import RoutingAlgorithm
from repro.topology.base import Topology
from repro.routing import (
    BenesAdaptiveRouting,
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    MeshAdaptiveRouting,
    ShuffleExchangeRouting,
    StructuredBufferPoolRouting,
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
    BenesNetwork,
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
            ui = np.array([sim.nodes.index(self.node)])
            sim.place_batch(ui, ui, np.array([take_message_ids(1)]), cycle)
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
        assert sim.tables is tables
    # The mesh kernel answers every fill and injection row in batch, so
    # the shared tables memoize no per-key row.
    assert tables.size == 0
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
    with pytest.raises(EngineCapabilityError, match="reference"):
        tables.state_id(["not", "hashable"])


# ----------------------------------------------------------------------
# Capability errors and engine selection
# ----------------------------------------------------------------------
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


def test_engine_env_override(monkeypatch):
    """REPRO_ENGINE selects the engine in the experiment harness."""
    from repro.experiments import HypercubeExperiment

    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert type(exp.build(4)) is PacketSimulator
    monkeypatch.setenv("REPRO_ENGINE", "auto")
    assert type(exp.build(4)) is VectorSimulator
    for retired in ("compiled", "warp"):
        monkeypatch.setenv("REPRO_ENGINE", retired)
        with pytest.raises(ValueError):
            exp.build(4)


def test_engine_argument_beats_environment(monkeypatch):
    from repro.experiments import HypercubeExperiment

    monkeypatch.setenv("REPRO_ENGINE", "reference")
    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    assert type(exp.build(4, engine="vector")) is VectorSimulator


def test_auto_with_occupancy_uses_vector_engine():
    from repro.experiments import HypercubeExperiment

    sim = HypercubeExperiment(
        pattern="random", injection="static", seed=1, collect_occupancy=True
    ).build(4)
    assert type(sim) is VectorSimulator
    assert sim.collect_occupancy


AUTO_SCHEMES = {
    "hypercube": lambda: HypercubeAdaptiveRouting(Hypercube(3)),
    "mesh": lambda: MeshAdaptiveRouting(Mesh((3, 3))),
    "torus": lambda: TorusRouting(Torus((3, 3))),
    "shuffle-exchange": lambda: ShuffleExchangeRouting(ShuffleExchange(3)),
    "ccc": lambda: CCCAdaptiveRouting(CubeConnectedCycles(3)),
    "benes": lambda: BenesAdaptiveRouting(BenesNetwork(2)),
}


@pytest.mark.parametrize("scheme", sorted(AUTO_SCHEMES))
def test_auto_is_vector_for_every_scheme_and_reference_for_trace(scheme):
    """``auto`` is the vector engine for every scheme; per-packet
    traces are a view over either engine's event log, so they no
    longer send ``auto`` to the reference engine."""
    from repro.experiments import build_simulator

    def build(**kwargs):
        alg = AUTO_SCHEMES[scheme]()
        inj = StaticInjection(1, RandomTraffic(alg.topology), make_rng(0))
        return build_simulator(alg, inj, engine="auto", **kwargs)

    assert type(build()) is VectorSimulator


def test_build_simulator_vector_engine():
    from repro.experiments import build_simulator

    topo = Mesh((4, 4))
    sim = build_simulator(
        MeshAdaptiveRouting(topo),
        StaticInjection(1, RandomTraffic(topo), make_rng(0)),
        engine="vector",
    )
    assert type(sim) is VectorSimulator


def test_fault_harness_falls_back_from_vector(monkeypatch):
    """make_fault_simulator always builds the reference engine, the one
    with an observer loop, whatever REPRO_ENGINE says."""
    from repro.faults import FaultSchedule
    from repro.faults.experiments import make_fault_simulator

    monkeypatch.setenv("REPRO_ENGINE", "vector")
    topo = Hypercube(4)
    sim = make_fault_simulator(
        HypercubeAdaptiveRouting(topo),
        StaticInjection(1, RandomTraffic(topo), make_rng(0)),
        FaultSchedule.healthy(topo),
    )
    assert type(sim) is PacketSimulator


# ----------------------------------------------------------------------
# Batched dynamic injection (place_batch) identity
# ----------------------------------------------------------------------
class _RedundantInjectionRouting(HypercubeAdaptiveRouting):
    """Adaptive cube routing whose phase-B injections also list ``A``.

    ``A`` with no zero left folds into ``B`` on entry, so routing is
    unchanged, but every such injection row has two targets, which the
    vector engine's read phase resolves in row order.
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
def test_batched_injection_event_logs_byte_identical(case, rate, monkeypatch):
    entries = []  # entry queue of every placed packet
    place_batch = VectorSimulator.place_batch

    def recording_place_batch(sim, src_ids, dst_ids, uids, cycle):
        place_batch(sim, src_ids, dst_ids, uids, cycle)
        entries.extend(sim._ment_q[sim._inj[src_ids]].tolist())

    monkeypatch.setattr(VectorSimulator, "place_batch", recording_place_batch)
    ref_log, ref, _, ref_uid = _dynamic_log(case, PacketSimulator, rate)
    vec_log, vec, sim, vec_uid = _dynamic_log(case, VectorSimulator, rate)
    assert vec.injected > 0
    assert ref_log == vec_log
    assert_identical(ref, vec)
    assert ref_uid == vec_uid  # both engines took the same uids
    assert len(entries) == vec.injected
    # Queue -1 marks a multi-target row, resolved in the read phase.
    assert (min(entries) < 0) == (case == "multi-target")


def _count_built_messages(monkeypatch) -> list:
    """A list that grows by one per :class:`Message` constructed."""
    built = []
    init = Message.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", counting_init)
    return built


def test_vector_dynamic_injection_builds_no_message(monkeypatch):
    built = _count_built_messages(monkeypatch)
    _, result, _, _ = _dynamic_log("complement", VectorSimulator, 1.0)
    assert result.injected > 0
    assert len(built) == 1  # only the uid probe after the run
    _, result, _, _ = _dynamic_log("complement", PacketSimulator, 1.0)
    assert len(built) == 2 + result.injected


def test_vector_static_injection_builds_no_message(monkeypatch):
    """A static backlog is id arrays: the vector engine builds no
    :class:`Message`, the reference engine one per injected packet."""
    built = _count_built_messages(monkeypatch)
    for engine_cls in (VectorSimulator, PacketSimulator):
        topo = Torus((4, 4))
        model = StaticInjection(3, RandomTraffic(topo), make_rng(4))
        result = engine_cls(TorusRouting(topo), model).run(max_cycles=10_000)
        assert result.delivered == result.injected == 48
        assert len(built) == (0 if engine_cls is VectorSimulator else 48)


def test_vector_serve_admission_builds_no_message(monkeypatch):
    """Admitted serve offers are placed as id arrays too: the vector
    engine builds no :class:`Message`, the reference engine one per
    admitted packet."""
    from repro.serve import TrafficService, load_scenario

    raw = {
        "name": "no-message",
        "seed": 5,
        "topology": {"family": "mesh", "size": 4},
        "populations": [
            {"name": "a", "qos": "a", "users": {"mean": 30},
             "rate_per_user": 0.05},
        ],
        "service": {
            "duration_cycles": 80,
            "record": True,
            "admission": {"policy": "defer"},
        },
    }
    built = _count_built_messages(monkeypatch)
    for engine in ("vector", "reference"):
        del built[:]
        svc = TrafficService(load_scenario(raw), engine=engine)
        svc.serve()
        injected = svc.result.injected
        assert injected > 0
        assert len(built) == (0 if engine == "vector" else injected)


@pytest.mark.parametrize("engine_cls", [PacketSimulator, VectorSimulator])
def test_static_uids_number_each_nodes_packets_in_generation_order(
    engine_cls,
):
    """``StaticInjection(3)`` reserves its uids at setup, node by node
    and each node's packets in the order their destinations were drawn,
    and a node injects its packets in that same order."""
    topo = Hypercube(4)
    pattern = RandomTraffic(topo)
    rng = make_rng(9)
    drawn = [(u, pattern.draw(u, rng)) for u in topo.nodes() for _ in range(3)]
    reset_message_ids()
    model = StaticInjection(3, RandomTraffic(topo), make_rng(9))
    sim = engine_cls(HypercubeAdaptiveRouting(topo), model)
    probe = TelemetryProbe().attach(sim)
    sim.run(max_cycles=10_000)
    injects = sorted(
        (r["uid"], r["cycle"], r["node"], r["dst"])
        for r in probe.log.records()
        if r["kind"] == "inject"
    )
    assert [uid for uid, _, _, _ in injects] == list(range(len(drawn)))
    assert [(u, d) for _, _, u, d in injects] == drawn
    for u in topo.nodes():
        cycles = [c for _, c, node, _ in injects if node == u]
        assert cycles == sorted(cycles) and len(set(cycles)) == 3


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
    key=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(0, 10_000),
    # 0.02: a few busy nodes per cycle, the sparsest regime.
    rate=st.sampled_from([0.02, 0.3, 0.7, 1.0]),
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


# ----------------------------------------------------------------------
# Internal steps against central-queue capacity, within one cycle
# ----------------------------------------------------------------------
class _Pair(Topology):
    """Two nodes joined by one link each way."""

    name = "pair"

    @property
    def num_nodes(self):
        return 2

    def nodes(self):
        return iter((0, 1))

    def neighbors(self, u):
        return (1 - u,)

    def link_index(self, u, v):
        return 0

    def distance(self, u, v):
        return int(u != v)


class _ScriptedRouting(RoutingAlgorithm):
    """Queues ``A`` and ``B`` per node, driven by the packet's state.

    A state is ``(tag, wait)``.  While ``wait > 0`` the packet takes a
    self-step (its wait counts down); then tag ``a`` in ``A`` switches
    to ``B`` (the two-phase schemes' qA -> qB move, which the wait keeps
    out of the entry fold), tag ``f`` in ``A`` does the same but falls
    back to a self-step while ``B`` is full, tag ``h`` hops to the other
    node, and anything else is delivered at its destination.
    ``kinds`` sets the queue order, so whether a ``B`` delivery is swept
    before or after an ``A`` switch at the same position is a choice.
    """

    name = "scripted"

    def __init__(self, topology, kinds):
        super().__init__(topology)
        self.kinds = kinds
        #: The scripted models queue each packet's state here; the
        #: engines take it, in placement order, as its initial state.
        self.next_states = deque()

    def central_queue_kinds(self, node):
        return self.kinds

    def initial_state(self, src, dst):
        return self.next_states.popleft()

    def update_state(self, state, q_from, q_to):
        tag, wait = state
        if q_from == q_to:
            return (tag, max(wait - 1, 0))
        if q_from.kind == "inj":
            return state
        return ("d", 0)

    def injection_targets(self, src, dst, state=None):
        return frozenset({QueueId(src, "A" if state[0] in "afh" else "B")})

    def static_hops(self, q, dst, state=None):
        tag, wait = state
        if wait:
            return frozenset({q})
        if q.kind == "A" and tag in "af":
            return frozenset({QueueId(q.node, "B")})
        if q.node == dst:
            return frozenset({deliver(dst)})
        return frozenset({QueueId(dst, "A"), QueueId(dst, "B")})

    def dynamic_hops(self, q, dst, state=None):
        if state == ("f", 0) and q.kind == "A":
            return frozenset({q})
        return frozenset()


def _place_scripted(sim, packets, cycle):
    """Place ``(node, dst, state)`` packets in order, with fresh uids.

    The pair's node labels are its node ids; each state reaches the
    engine through the scripted algorithm's ``initial_state``.
    """
    if not packets:
        return
    src, dst, states = zip(*packets)
    sim.algorithm.next_states.extend(states)
    first = take_message_ids(len(packets))
    sim.place_batch(
        np.array(src), np.array(dst),
        np.arange(first, first + len(packets)), cycle,
    )


class _Script(InjectionModel):
    """Places ``(cycle, node, dst, state)`` packets at their cycles."""

    def __init__(self, plan):
        self.plan = plan

    def attempt(self, sim, cycle):
        _place_scripted(
            sim, [(u, d, st) for c, u, d, st in self.plan if c == cycle], cycle
        )

    def finished(self, sim, cycle):
        return cycle >= self.plan[-1][0] and sim.active == 0


class _Backlog(InjectionModel):
    """Offers each ``(cycle, node, dst, state)`` packet from its cycle
    on, each node's in plan order, once its injection buffer is free."""

    def __init__(self, plan):
        self.waiting = list(plan)

    def attempt(self, sim, cycle):
        heads = {}  # node -> its first due item, in plan order
        for item in self.waiting:
            if item[0] <= cycle:
                heads.setdefault(item[1], item)
        heads = list(heads.values())
        src = np.array([u for _, u, _, _ in heads], dtype=np.int64)
        free = sim.injection_free(src)
        go = [item for item, ok in zip(heads, free.tolist()) if ok]
        _place_scripted(sim, [(u, d, st) for _, u, d, st in go], cycle)
        for item in go:
            self.waiting.remove(item)

    def finished(self, sim, cycle):
        return not self.waiting and sim.active == 0


def _scripted_logs(
    kinds, plan, alg_cls=_ScriptedRouting, model_cls=_Script, **kw
):
    """Reference and vector event logs of one scripted run."""
    logs = []
    for engine_cls in (PacketSimulator, VectorSimulator):
        reset_message_ids()
        alg = alg_cls(_Pair(), kinds)
        sim = engine_cls(alg, model_cls(plan), **kw)
        probe = TelemetryProbe().attach(sim)
        sim.run(max_cycles=1000)
        logs.append(probe.log)
    return logs


def _enqueues(log, uid):
    return [
        (r["cycle"], r["queue"])
        for r in log.records()
        if r["kind"] == "enqueue" and r["uid"] == uid
    ]


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("policy", ["paper", "rotating"])
@pytest.mark.parametrize("service", ["fifo", "lifo"])
@pytest.mark.parametrize("delivery", ["ahead", "behind"])
def test_switch_sees_same_cycle_delivery_in_sweep_order(
    delivery, service, policy, capacity
):
    """Node 0's ``B`` is full at cycle 4 while its head delivers and
    ``A``'s head switches to ``B``.  The switch finds room only when
    the delivery is swept first: queue order (B, A) puts it ahead,
    (A, B) behind.  Hop traffic afterwards runs through the output
    slot policy."""
    kinds = ("B", "A") if delivery == "ahead" else ("A", "B")
    plan = [(0, 0, 0, ("b", 3))]  # y: delivers at cycle 4
    if capacity == 2:
        plan.append((1, 0, 0, ("b", 3)))  # fills B, delivers at 5
    plan.append((2, 0, 0, ("a", 1)))  # x: switches from cycle 4 on
    plan += [(c, 0, 1, ("h", 0)) for c in range(8, 14)]
    ref, vec = _scripted_logs(
        kinds, plan, central_capacity=capacity, service=service,
        policy=policy,
    )
    assert vec.to_jsonl() == ref.to_jsonl()
    x = capacity  # uids count from 0 in plan order
    switch = 4 if delivery == "ahead" else 5
    assert _enqueues(vec, x) == [(2, "A"), (3, "A"), (switch, "B")]
    delivered = {
        r["uid"]: r["cycle"] for r in vec.records() if r["kind"] == "deliver"
    }
    assert delivered[0] == 4


def test_failed_move_falls_through_to_the_next_step():
    """A row whose ``MOVE_STEP`` finds its sibling queue full takes its
    next internal step (a self-step here), cycle after cycle, until the
    move fits: the packed rows carry two internal steps (w > 1)."""
    plan = [
        (0, 0, 0, ("b", 4)),  # delivers at cycle 5
        (1, 0, 0, ("b", 4)),  # delivers at cycle 6
        (2, 0, 0, ("f", 0)),
    ]
    ref, vec = _scripted_logs(("A", "B"), plan, central_capacity=2)
    assert vec.to_jsonl() == ref.to_jsonl()
    assert _enqueues(vec, 2) == [
        (2, "A"), (3, "A"), (4, "A"), (5, "A"), (6, "B")
    ]
    tables = RoutingTables(_ScriptedRouting(_Pair(), ("A", "B")))
    nid = tables.nid
    sid = tables.state_id(("f", 0))
    rid = tables.central_rid(tables.qid_of[(nid[0], "A")], nid[0], sid)
    assert tables.row_int_act[rid, :2].tolist() == [MOVE_STEP, SELF_STEP]


class _UnevenRouting(_ScriptedRouting):
    """:class:`_ScriptedRouting` on a queue layout that differs per
    node: node 1 owns an extra, unused ``C`` queue ahead of the scripted
    kinds, so the nodes differ in kind count and in kind offsets.  Tag
    ``m`` injects with two targets, ``A`` before ``B``, and then travels
    like tag ``h``."""

    name = "scripted-uneven"

    def central_queue_kinds(self, node):
        return self.kinds if node == 0 else ("C",) + self.kinds

    def injection_targets(self, src, dst, state=None):
        if state[0] == "m":
            return frozenset({QueueId(src, "A"), QueueId(src, "B")})
        return super().injection_targets(src, dst, state)


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("policy", ["paper", "rotating"])
@pytest.mark.parametrize("service", ["fifo", "lifo"])
def test_uneven_queue_layout_event_logs_byte_identical(
    service, policy, capacity
):
    """Nodes with two and three central queues share one batched fill.
    At each node, ``B``'s head delivers at cycle 4 and ``A``'s head
    moves to ``B`` in the same cycle; then two-target injections
    compete with arrivals for ``A`` and fall back to ``B``."""
    assert RoutingTables(
        _UnevenRouting(_Pair(), ("B", "A"))
    ).node_q_count.tolist() == [2, 3]
    plan = []
    for u in (0, 1):
        plan.append((0, u, u, ("b", 3)))  # delivers at cycle 4
        if capacity == 2:
            plan.append((1, u, u, ("b", 3)))  # fills B, delivers at 5
        plan.append((2, u, u, ("a", 1)))  # moves A -> B at cycle 4
    # Hop traffic both ways: tag h waits two cycles in A first.
    plan += [(c, u, 1 - u, ("h", 2)) for c in range(6, 10) for u in (0, 1)]
    plan += [(c, u, 1 - u, ("m", 0)) for c in range(6, 14) for u in (0, 1)]
    ref, vec = _scripted_logs(
        ("B", "A"), plan, alg_cls=_UnevenRouting, model_cls=_Backlog,
        central_capacity=capacity, service=service, policy=policy,
    )
    assert vec.to_jsonl() == ref.to_jsonl()
    records = vec.records()
    movers = [
        r["uid"] for r in records if r["kind"] == "inject" and r["cycle"] == 2
    ]
    assert len(movers) == 2
    for uid in movers:
        assert _enqueues(vec, uid) == [(2, "A"), (3, "A"), (4, "B")]
    delivered = [
        r["node"] for r in records if r["kind"] == "deliver" and r["cycle"] == 4
    ]
    assert sorted(delivered) == [0, 1]
    # Some two-target injection found A full and entered B.
    injected = {r["uid"] for r in records if r["kind"] == "inject"}
    first = {}
    for r in records:
        if r["kind"] == "enqueue" and r["uid"] in injected:
            first.setdefault(r["uid"], r["queue"])
    assert "B" in {first[uid] for uid in injected if uid > max(movers)}


@pytest.mark.parametrize("service", ["fifo", "lifo"])
def test_refused_two_target_injections_at_both_nodes_retry(service):
    """At capacity 1 both nodes' two-target injections find ``A`` and
    ``B`` full in the same cycles, so their unresolved read entries
    share a sort key below every queue's.  Each waits in its injection
    buffer and enters on a later cycle; afterwards the injections
    compete with arrivals ranked ahead of and behind them, which only
    the (node, rank) resolution order gets right."""
    plan = []
    for u in (0, 1):
        plan.append((0, u, u, ("b", 6)))  # holds B, delivers at cycle 7
        plan.append((1, u, u, ("a", 8)))  # holds A, then moves to B
    plan += [(c, u, 1 - u, ("m", 0)) for c in range(2, 14) for u in (0, 1)]
    ref, vec = _scripted_logs(
        ("A", "B"), plan, alg_cls=_UnevenRouting, model_cls=_Backlog,
        central_capacity=1, service=service,
    )
    assert vec.to_jsonl() == ref.to_jsonl()
    records = vec.records()
    injected = {
        r["uid"]: (r["cycle"], r["node"])
        for r in records
        if r["kind"] == "inject"
    }
    entered = {}
    for r in records:
        if r["kind"] == "enqueue":
            entered.setdefault(r["uid"], r["cycle"])
    assert set(entered) == set(injected) == {
        r["uid"] for r in records if r["kind"] == "deliver"
    }
    # Cycles in which each node held a refused injection.
    refused = {0: set(), 1: set()}
    for uid, (cycle, node) in injected.items():
        assert entered[uid] >= cycle
        refused[node].update(range(cycle, entered[uid]))
    assert set(range(2, 7)) <= refused[0] & refused[1]
    assert refused[0] ^ refused[1]  # and some refusals at one node only


@pytest.mark.parametrize("key", ["hypercube", "shuffle"])
def test_batched_cycle_gathers_rows_once(key, monkeypatch):
    """A batched fill makes one ``fill_rows`` call for every queued
    message and at most one ``chosen`` and one ``internal`` call (the
    hypercube on kernel batch rows, the shuffle-exchange on packed
    rows)."""
    build, alg_cls = TOPOLOGIES[key]
    topo = build()
    sim = VectorSimulator(
        alg_cls(topo),
        DynamicInjection(1.0, RandomTraffic(topo), make_rng(8), duration=60),
    )
    calls = {"fill_rows": 0, "chosen": 0, "internal": 0}
    tables = sim.tables
    fill_rows = tables.fill_rows

    def counted(rows, name):
        method = getattr(rows, name)

        def call(*args):
            calls[name] += 1
            return method(*args)

        return call

    class _Counted:
        def __init__(self, rows):
            self.slots = rows.slots
            self.hasint = rows.hasint
            self.chosen = counted(rows, "chosen")
            self.internal = counted(rows, "internal")

    def counting_fill_rows(qids, dsts, sids):
        calls["fill_rows"] += 1
        queued = int(sim._qcount.sum())
        assert qids.size == queued  # every queued message, at once
        return _Counted(fill_rows(qids, dsts, sids))

    monkeypatch.setattr(tables, "fill_rows", counting_fill_rows)
    fill_batch = sim._fill_batch
    per_cycle = []

    def counting_fill_batch(busy, cycle):
        before = dict(calls)
        fill_batch(busy, cycle)
        per_cycle.append({k: calls[k] - before[k] for k in calls})

    monkeypatch.setattr(sim, "_fill_batch", counting_fill_batch)
    sim.run(max_cycles=100_000)
    assert per_cycle
    assert all(c["fill_rows"] == 1 for c in per_cycle)
    assert all(c["chosen"] <= 1 and c["internal"] <= 1 for c in per_cycle)
    assert sum(c["chosen"] for c in per_cycle) > 0
    assert sum(c["internal"] for c in per_cycle) > 0


# ----------------------------------------------------------------------
# Occupied link slots: the link and read phases' working sets
# ----------------------------------------------------------------------
#: ``(topology, injection, capacity, service, policy)``: per topology two
#: runs between them cover both capacities, services, buffer policies
#: and injection models (static, and dynamic at lambda = 1).
OCCUPIED_CASES = [
    ("hypercube", "static", 1, "fifo", "paper"),
    ("hypercube", "dynamic", 5, "lifo", "rotating"),
    ("mesh", "dynamic", 1, "lifo", "paper"),
    ("mesh", "static", 5, "fifo", "rotating"),
    ("torus", "dynamic", 5, "fifo", "paper"),
    ("torus", "static", 1, "lifo", "rotating"),
    ("shuffle", "dynamic", 1, "fifo", "rotating"),
    ("shuffle", "static", 5, "lifo", "paper"),
    ("ccc", "dynamic", 5, "lifo", "paper"),
    ("ccc", "static", 1, "fifo", "rotating"),
]


def _contested_links(sim) -> int:
    """Links with two or more classes ready to move (output buffer
    occupied, input buffer free), from the dense buffers."""
    t = sim.tables
    ready = np.flatnonzero((sim._out[:-1] != -1) & (sim._in == -1))
    first = ready - t.slot_class_pos[ready]
    return int(np.count_nonzero(np.bincount(first) > 1)) if first.size else 0


def _assert_occupied_arrays(sim) -> None:
    for occ, dense in (
        (sim._occ_out, sim._out[:-1]),
        (sim._occ_in, sim._in),
    ):
        assert occ.dtype == np.int64
        assert np.unique(occ).size == occ.size  # no duplicates
        assert np.array_equal(np.sort(occ), np.flatnonzero(dense != -1))


def _occupancy_checked_logs(network, injection, seed, **kw):
    """Reference and vector event logs of one run on ``network``, a
    ``(build, algorithm class)`` pair; the vector run's occupied arrays
    are checked after every step, and the contested links seen just
    before each link cycle are counted."""
    build, alg_cls = network
    logs, contested = [], [0]
    for engine_cls in (PacketSimulator, VectorSimulator):
        reset_message_ids()
        topo = build()
        if injection == "static":
            model = StaticInjection(3, RandomTraffic(topo), make_rng(seed))
        else:
            model = DynamicInjection(
                1.0, RandomTraffic(topo), make_rng(seed), duration=80
            )
        sim = engine_cls(alg_cls(topo), model, **kw)
        probe = TelemetryProbe().attach(sim)
        if engine_cls is VectorSimulator:
            step, link_cycle = sim.step, sim._link_cycle

            def checked_step():
                step()
                _assert_occupied_arrays(sim)

            def counted_link_cycle(cycle):
                contested[0] += _contested_links(sim)
                link_cycle(cycle)

            sim.step = checked_step
            sim._link_cycle = counted_link_cycle
        sim.run(max_cycles=200_000)
        logs.append(probe.log.to_jsonl())
    return logs, contested[0]


@pytest.mark.parametrize(
    "case", OCCUPIED_CASES, ids=lambda c: "-".join(map(str, c))
)
def test_occupied_slot_arrays_track_the_buffers(case):
    key, injection, capacity, service, policy = case
    (ref, vec), contested = _occupancy_checked_logs(
        TOPOLOGIES[key], injection, seed=len(key) * 7 + capacity,
        central_capacity=capacity, service=service, policy=policy,
    )
    assert vec == ref
    if injection == "dynamic":
        # Multi-class links whose classes were ready together: the
        # class rotation chose which one moved.
        assert contested > 0


def test_links_with_over_255_classes_rotate_like_the_reference():
    """A 300-level buffer pool has 302 buffer classes per link, so the
    per-slot class columns widen past uint8; the ``cycle % 302``
    rotation still picks the class the reference engine moves."""
    network = (
        lambda: Hypercube(3),
        lambda topo: StructuredBufferPoolRouting(topo, levels=300),
    )
    t = RoutingTables(network[1](network[0]()))
    assert t.slot_class_count.max() == 302
    assert t.slot_class_pos.dtype == t.slot_class_count.dtype == np.uint16
    (ref, vec), contested = _occupancy_checked_logs(
        network, "dynamic", seed=3, central_capacity=1
    )
    assert vec == ref
    assert contested > 0


@pytest.mark.parametrize("key", ["hypercube", "mesh", "torus", "ccc"])
def test_link_rotation_moves_one_ready_class_per_link(key):
    """Every class of one link holds a packet: at each cycle the class
    ``cycle % k`` moves, and the next one in rotation when that class's
    input buffer is taken; a one-class link beside it moves as well."""
    build, alg_cls = TOPOLOGIES[key]
    topo = build()
    t = RoutingTables(alg_cls(topo))
    count = t.slot_class_count
    (multi,) = np.flatnonzero((count > 1) & (t.slot_class_pos == 0))[:1]
    k = int(count[multi])
    link = np.arange(multi, multi + k)
    single = np.flatnonzero(count == 1)[:1]
    for cycle in range(2 * k):
        for taken in (False, True):
            sim = VectorSimulator(
                t.algorithm,
                StaticInjection(1, RandomTraffic(topo), make_rng(0)),
                tables=t,
            )
            occ = np.concatenate((link, single))
            sim._out[occ] = np.arange(occ.size)
            sim._occ_out = occ[::-1].copy()  # any order
            first = multi + cycle % k
            if taken:
                sim._in[first] = 99
                sim._occ_in = np.array([first])
            sim._link_cycle(cycle)
            moved = multi + (cycle + taken) % k
            want_in = {moved, *single.tolist()} | ({first} if taken else set())
            assert set(sim._occ_in.tolist()) == want_in
            assert set(sim._occ_out.tolist()) == set(link.tolist()) - {moved}
            assert sim._in[moved] == moved - multi
            assert sim._out[moved] == -1
            _assert_occupied_arrays(sim)


# ----------------------------------------------------------------------
# Recycled message rows: memory grows with the packets in flight
# ----------------------------------------------------------------------
#: Networks of 100-160 nodes, where lambda = 1 keeps more than the
#: columns' initial 1,024 rows in flight.
CAPACITY_NETWORKS = {
    "mesh": (lambda: Mesh((12, 12)), MeshAdaptiveRouting),
    "torus": (lambda: Torus((10, 10)), TorusRouting),
    "shuffle": (lambda: ShuffleExchange(7), ShuffleExchangeRouting),
    "hypercube": (lambda: Hypercube(7), HypercubeAdaptiveRouting),
    "ccc": (lambda: CubeConnectedCycles(5), CCCAdaptiveRouting),
}

MESSAGE_COLUMNS = (
    "_muid", "_mdst", "_mstate", "_minj", "_ment_q", "_ment_st", "_mkind",
)


@pytest.mark.parametrize("key", sorted(CAPACITY_NETWORKS))
def test_message_columns_grow_with_packets_in_flight(key):
    """At lambda = 1 the rows ever handed out are the peak of (packets
    in flight + the cycle's injections), far below the packets
    injected, and the columns are at most one doubling past it."""
    build, alg_cls = CAPACITY_NETWORKS[key]
    topo = build()
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(5), duration=300
    )
    sim = VectorSimulator(alg_cls(topo), model)
    peak = [0]
    place_batch = sim.place_batch

    def tracking_place_batch(*args):
        place_batch(*args)
        peak[0] = max(peak[0], sim.active)

    sim.place_batch = tracking_place_batch
    result = sim.run(max_cycles=100_000)
    assert peak[0] > 1024  # past the initial capacity
    assert sim._mn == peak[0]
    assert sim._mn < result.injected
    cap = sim._mdst.size
    assert peak[0] <= cap < 2 * peak[0]
    assert all(getattr(sim, c).size == cap for c in MESSAGE_COLUMNS)
    assert sim._free.size <= cap
    # Every row handed out is held by a buffer or a queue, or is on
    # the free stack, exactly once.
    held = np.concatenate(
        (sim._inj, sim._in, sim._out[:-1], sim._qbuf.ravel())
    )
    rows = np.concatenate((held[held >= 0], sim._free[: sim._nfree]))
    assert rows.size == sim._mn == sim._nfree + result.undelivered
    assert np.array_equal(np.sort(rows), np.arange(sim._mn))


def _registry_traffic(probe) -> dict:
    return {
        name: value
        for name, value in probe.registry.snapshot().items()
        if not name.startswith("repro_tables_")
    }


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_recycled_rows_keep_logs_and_metrics_identical(key):
    """Rows are reused many times over at lambda = 1, and both probes
    see what the reference engine writes: a byte-identical event log,
    and equal metrics-only registries (a reused row's queue-kind
    column restarts at "no kind yet", or a packet's first enqueue
    would count as a phase transition)."""
    build, alg_cls = TOPOLOGIES[key]
    logs, metrics = {}, {}
    for engine_cls in (PacketSimulator, VectorSimulator):
        for events in (True, False):
            reset_message_ids()
            topo = build()
            model = DynamicInjection(
                1.0, RandomTraffic(topo), make_rng(17), duration=150,
                warmup=10,
            )
            sim = engine_cls(alg_cls(topo), model)
            probe = TelemetryProbe(events=events).attach(sim)
            result = sim.run(max_cycles=100_000)
            if events:
                logs[engine_cls] = probe.log.to_jsonl()
            else:
                metrics[engine_cls] = _registry_traffic(probe)
        if engine_cls is VectorSimulator:
            assert sim._mn < result.injected  # rows were reused
    assert logs[VectorSimulator] == logs[PacketSimulator]
    assert metrics[VectorSimulator] == metrics[PacketSimulator]
    assert metrics[VectorSimulator]["repro_phase_transitions_total"][
        "value"
    ] > 0


def test_long_service_stores_stop_growing_after_warmup():
    """A vector service run ten times as long as the 1,200-cycle
    serve-mesh16 benchmark, on a 6x6 mesh: after the first 1,200
    cycles the message columns, the free stack and the latency store
    keep their size (measured in bytes, not as process RSS)."""
    from repro.serve import TrafficService, load_scenario

    duration = 12_000
    raw = {
        "name": "bounded",
        "seed": 3,
        "topology": {"family": "mesh", "size": 6},
        "algorithm": "adaptive",
        "populations": [
            {
                "name": "gold", "qos": "gold",
                "users": {"mean": 60, "distribution": "poisson"},
                "rate_per_user": 0.04, "pattern": "random",
                "resample_every": 50,
                "load_shape": {
                    "kind": "diurnal", "period": 1200, "amplitude": 0.8,
                },
            },
            {
                "name": "bronze", "qos": "bronze",
                "users": {"mean": 20, "distribution": "poisson"},
                "rate_per_user": 0.04, "pattern": "hotspot",
                "pattern_params": {"fraction": 0.2},
                "load_shape": {
                    "kind": "bursty", "period": 600, "multiplier": 4.0,
                    "burst_cycles": 60,
                },
            },
        ],
        "service": {
            "tick_cycles": 100,
            "duration_cycles": duration,
            "admission": {"policy": "defer", "max_deferred_per_node": 8},
        },
    }
    svc = TrafficService(load_scenario(raw), engine="vector")
    sim = svc.sim
    sizes = []
    step = sim.step

    def measured_step():
        step()
        if sim.cycle % 100 == 0:
            sizes.append((
                sim.cycle,
                sum(getattr(sim, c).nbytes for c in MESSAGE_COLUMNS),
                sim._free.nbytes,
                sim.latency._counts.nbytes,
            ))

    sim.step = measured_step
    assert svc.serve() == 0
    assert svc.result.injected > 20 * sim._mn  # rows were reused
    assert sizes[-1][0] >= duration
    warm = [s[1:] for s in sizes if s[0] >= 1200]
    assert len(set(warm)) == 1, sorted(set(warm))
    assert sim.latency.count == svc.result.delivered


#: Runs a command and prints its stdout, then the peak RSS (KiB) of
#: its process tree alone (not of the test process's other children).
_PEAK_RSS_PROBE = """
import resource, subprocess, sys
out = subprocess.run(sys.argv[1:], check=True, capture_output=True, text=True)
print(out.stdout)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.slow
def test_table_12_at_n14_stays_under_260_mb():
    """``repro table 12 --ns 14 --seed 1`` (a 16,384-node cube at
    lambda = 1) peaks at 260 MB or less in a fresh process and prints
    the same row: memory follows the packets in flight, not the
    packets injected."""
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "repro", "table", "12", "--ns", "14",
           "--seed", "1"]
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, *cmd],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    peak_kib = int(out[-1])
    text = " ".join(out[:-1])
    assert "14 16384 28.33 363 64 | 18.46 57 75" in text, text
    assert peak_kib <= 260 * 1024, peak_kib / 1024
