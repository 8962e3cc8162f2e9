"""Integer hop kernels: row equivalence and saturated-traffic identity.

Two layers of guarantees for ``compile_hops()`` (the integer-kernel
compilation hook, ``docs/ARCHITECTURE.md``):

* **Row equivalence** — for every shipped algorithm, the kernel-built
  :class:`~repro.sim.tables.RoutingTables` rows must be *identical* to
  the symbolic ``RoutingPlanCache`` translation (``use_kernel=False``)
  over random ``(queue, destination, state)`` triples — including keys
  whose symbolic evaluation raises (declined keys fall back to the
  symbolic path, so exception type and message match too).
* **Batch-row equivalence** — a kernel's ``fill_rows`` batch rows, and
  the packed-row fallback behind ``RoutingTables.fill_rows``, must
  equal the scalar ``central_row`` / ``entry_row`` on every key of
  small hypercubes and meshes, reachable or not.
* **Saturated identity** — at ``lambda = 1`` the batched vector node
  cycle (fill sweep + lexsort read admission forced on) must produce
  byte-identical canonical event logs and equal latency multisets
  against the reference engine on all five topology families, and the
  batch/sparse dispatch itself must be output-invariant.
"""

import itertools
import zlib

import numpy as np
import pytest

from repro.core.message import reset_message_ids
from repro.faults import FaultAwareRouting
from repro.routing import (
    BenesAdaptiveRouting,
    BenesObliviousRouting,
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
    Mesh2DAdaptiveRouting,
    Mesh2DRestrictedRouting,
    MeshAdaptiveRouting,
    MeshObliviousRouting,
    MeshRestrictedRouting,
    ShuffleExchangeRouting,
    StructuredBufferPoolRouting,
    TorusRouting,
)
from repro.sim import (
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    RoutingTables,
    VectorSimulator,
    make_rng,
)
from repro.telemetry import TelemetryProbe
from repro.topology import (
    BenesNetwork,
    CubeConnectedCycles,
    Hypercube,
    Mesh,
    Mesh2D,
    ShuffleExchange,
    Torus,
)

# ----------------------------------------------------------------------
# Row equivalence: kernel vs symbolic plan-cache translation
# ----------------------------------------------------------------------
KERNEL_ALGS = {
    "hypercube-adaptive": lambda: HypercubeAdaptiveRouting(Hypercube(4)),
    "hypercube-hung": lambda: HypercubeHungRouting(Hypercube(4)),
    "mesh": lambda: MeshAdaptiveRouting(Mesh((4, 4))),
    "torus": lambda: TorusRouting(Torus((4, 4))),
    "shuffle-adaptive": lambda: ShuffleExchangeRouting(ShuffleExchange(3)),
    "shuffle-static": lambda: ShuffleExchangeRouting(
        ShuffleExchange(4), adaptive=False
    ),
    "ccc": lambda: CCCAdaptiveRouting(CubeConnectedCycles(3)),
    "benes-adaptive": lambda: BenesAdaptiveRouting(BenesNetwork(2)),
    "benes-oblivious": lambda: BenesObliviousRouting(BenesNetwork(2)),
    "buffer-pool": lambda: StructuredBufferPoolRouting(Hypercube(3)),
    "fault-adapter": lambda: FaultAwareRouting(
        HypercubeAdaptiveRouting(Hypercube(3))
    ),
}


def _call(fn, *args):
    """Outcome wrapper so raising keys compare by type + message."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - equivalence includes errors
        return ("err", type(exc).__name__, str(exc))


def _seed_states(alg, tabs):
    """Intern the same states in the same order into every table.

    Initial states for a spread of (src, dst) pairs, plus — for the
    shuffle-exchange scheme, whose state is the shuffle count — every
    count a message can carry (including the exhausted ones, which the
    kernel declines back to the symbolic error path).
    """
    nodes = tabs[0].nodes
    step = max(1, len(nodes) // 7)
    for src in nodes[::step]:
        for dst in nodes[:: step + 1]:
            state = alg.initial_state(src, dst)
            for tab in tabs:
                tab.state_id(state)
    if isinstance(alg, ShuffleExchangeRouting):
        for k in range(2 * alg.n + 2):
            for tab in tabs:
                tab.state_id(k)


@pytest.mark.parametrize("name", sorted(KERNEL_ALGS))
def test_kernel_rows_match_plan_cache(name):
    alg = KERNEL_ALGS[name]()
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    assert kern.kernel is not None, f"{name}: compile_hops declined"
    assert fall.kernel is None
    _seed_states(alg, (kern, fall))
    assert kern.states == fall.states

    rng = np.random.default_rng(zlib.crc32(name.encode()))
    n_q = kern.n_queues
    n_nodes = len(kern.nodes)
    n_states = len(kern.states)
    for _ in range(250):
        qid = int(rng.integers(n_q))
        dst = int(rng.integers(n_nodes))
        sid = int(rng.integers(n_states))
        assert _call(kern.central_row, qid, dst, sid) == _call(
            fall.central_row, qid, dst, sid
        ), (name, "central", qid, dst, sid)
        assert _call(kern.entry_row, qid, dst, sid) == _call(
            fall.entry_row, qid, dst, sid
        ), (name, "entry", qid, dst, sid)
        ui = int(rng.integers(n_nodes))
        assert _call(kern.injection_row, ui, dst, sid) == _call(
            fall.injection_row, ui, dst, sid
        ), (name, "inject", ui, dst, sid)


def test_packed_rid_rows_match_row_tuples():
    """central_rid's packed arrays re-encode central_row faithfully."""
    alg = HypercubeAdaptiveRouting(Hypercube(4))
    tab = RoutingTables(alg)
    rng = np.random.default_rng(7)
    pad = tab.n_slots
    for _ in range(200):
        qid = int(rng.integers(tab.n_queues))
        dst = int(rng.integers(len(tab.nodes)))
        rid = tab.central_rid(qid, dst, 0)
        ext, tqs, sts, dyn, internal = tab.central_row(qid, dst, 0)
        width = len(tab.row_slots[rid])
        assert tuple(tab.row_slots[rid][: len(ext)]) == ext
        assert all(s == pad for s in tab.row_slots[rid][len(ext) :])
        assert tuple(tab.row_queues[rid][: len(tqs)]) == tqs
        assert tuple(tab.row_states[rid][: len(sts)]) == sts
        assert tuple(tab.row_dyn[rid][: len(dyn)]) == dyn
        assert bool(tab.row_hasint[rid]) == bool(internal)
        assert tab.row_internal[rid] == internal
        assert len(ext) <= width


def test_vectorized_rid_gather_matches_scalar():
    """central_rids (batch gather) == central_rid, dense and dict mode."""
    alg = MeshAdaptiveRouting(Mesh((4, 4)))
    tab = RoutingTables(alg)
    rng = np.random.default_rng(11)
    qids = rng.integers(tab.n_queues, size=64)
    dsts = rng.integers(len(tab.nodes), size=64)
    sids = np.zeros(64, dtype=np.int64)
    batch = tab.central_rids(qids, dsts, sids)
    scalar = [
        tab.central_rid(int(q), int(d), 0) for q, d in zip(qids, dsts)
    ]
    assert batch.tolist() == scalar
    # Dict mode: force the non-dense row-id path and re-check.
    tab2 = RoutingTables(alg)
    tab2._rowid_dense = None
    tab2._rowid_map = {}
    batch2 = tab2.central_rids(qids, dsts, sids)
    assert batch2.tolist() == scalar


# ----------------------------------------------------------------------
# Batch rows: fill_rows vs the scalar central_row / entry_row
# ----------------------------------------------------------------------
CUBE_VARIANTS = {
    "hung": HypercubeHungRouting,
    "adaptive": HypercubeAdaptiveRouting,
    "oblivious": HypercubeObliviousRouting,
}


def _all_keys(tab):
    """Every ``(qid, dst, sid)`` key as three int arrays."""
    ranges = (
        range(tab.n_queues), range(len(tab.nodes)), range(len(tab.states))
    )
    keys = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    return keys[:, 0].copy(), keys[:, 1].copy(), keys[:, 2].copy()


def _batch_row(rows, i, pad):
    """Row ``i`` of a HopRows batch in ``central_row`` form, plus the
    entry-resolved landing pair of each candidate."""
    slots = rows.slots[i].tolist()
    k = sum(1 for s in slots if s != pad)
    assert slots[k:] == [pad] * (len(slots) - k), "padding not on the right"
    rr = np.full(k, i, dtype=np.int64)
    nq, nst, eq, est, dyn = rows.chosen(
        rr, np.arange(k, dtype=np.int64), rows.slots[i, :k]
    )
    (internal,) = rows.internal(np.array([i], dtype=np.int64))
    assert bool(rows.hasint[i]) == bool(internal)
    row = (
        tuple(slots[:k]),
        tuple(nq.tolist()),
        tuple(nst.tolist()),
        tuple(dyn.tolist()),
        internal,
    )
    return row, list(zip(eq.tolist(), est.tolist()))


def _assert_batch_rows_match_scalar_rows(alg):
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    assert kern.kernel is not None
    # Extra states check that the state passes through unchanged.
    for tab in (kern, fall):
        for state in (None, "s1", 7):
            tab.state_id(state)
    qids, dsts, sids = _all_keys(kern)
    batch = kern.kernel.fill_rows(qids, dsts, sids)
    gathered = fall.fill_rows(qids, dsts, sids)
    for i, key in enumerate(zip(qids.tolist(), dsts.tolist(), sids.tolist())):
        want = kern.central_row(*key)
        entries = [kern.entry_row(q, key[1], st) for q, st in zip(*want[1:3])]
        assert _batch_row(batch, i, kern.n_slots) == (want, entries), key
        assert _batch_row(gathered, i, fall.n_slots) == (want, entries), key
    # The kernel batch packed nothing and allocated no row-id index.
    assert kern.rows_packed == 0
    assert not kern.has_rowid_index


@pytest.mark.parametrize("variant", sorted(CUBE_VARIANTS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cube_batch_rows_match_scalar_rows_on_every_key(n, variant):
    _assert_batch_rows_match_scalar_rows(CUBE_VARIANTS[variant](Hypercube(n)))


MESH_VARIANTS = {
    "restricted": MeshRestrictedRouting,
    "adaptive": MeshAdaptiveRouting,
    "oblivious": MeshObliviousRouting,
}


@pytest.mark.parametrize("variant", sorted(MESH_VARIANTS))
@pytest.mark.parametrize(
    "shape",
    [(2,), (4,), (2, 3), (3, 3), (4, 5), (2, 3, 2), (3, 2, 3)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_mesh_batch_rows_match_scalar_rows_on_every_key(shape, variant):
    _assert_batch_rows_match_scalar_rows(MESH_VARIANTS[variant](Mesh(shape)))


@pytest.mark.parametrize(
    "alg_cls", [Mesh2DRestrictedRouting, Mesh2DAdaptiveRouting]
)
def test_mesh2d_batch_rows_match_scalar_rows_on_every_key(alg_cls):
    _assert_batch_rows_match_scalar_rows(alg_cls(Mesh2D(3, 4)))


# ----------------------------------------------------------------------
# Batch injection rows: injection_rows vs scalar injection_row
# ----------------------------------------------------------------------
def _assert_injection_rows_match_scalar_rows(alg):
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    for tab in (kern, fall):
        for state in (None, "s1", 7):
            tab.state_id(state)
    n = len(kern.nodes)
    keys = np.array(
        list(itertools.product(range(n), range(n), range(len(kern.states)))),
        dtype=np.int64,
    )
    srcs, dsts, sids = (keys[:, j].copy() for j in range(3))
    batch = kern.kernel.injection_rows(srcs, dsts, sids)
    assert batch is not None
    tabled = kern.injection_rows(srcs, dsts, sids)
    assert kern.size == 0  # no per-key row was memoized
    for i, key in enumerate(keys.tolist()):
        want = fall.injection_row(*key)
        assert want == kern.injection_row(*key), key
        assert len(want) == 1, key
        got = (int(batch[0][i]), int(batch[1][i]))
        assert got == want[0], key
        assert (int(tabled[0][i]), int(tabled[1][i])) == want[0], key


@pytest.mark.parametrize("variant", sorted(CUBE_VARIANTS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cube_injection_rows_match_scalar_rows_on_every_key(n, variant):
    _assert_injection_rows_match_scalar_rows(
        CUBE_VARIANTS[variant](Hypercube(n))
    )


@pytest.mark.parametrize("variant", sorted(MESH_VARIANTS))
@pytest.mark.parametrize(
    "shape",
    [(2,), (4,), (2, 3), (3, 3), (4, 5), (2, 3, 2)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_mesh_injection_rows_match_scalar_rows_on_every_key(shape, variant):
    _assert_injection_rows_match_scalar_rows(
        MESH_VARIANTS[variant](Mesh(shape))
    )


def test_kernelless_injection_rows_resolve_key_by_key():
    """A kernel without the batch hook (the torus) declines it, and the
    tables resolve the batch through the per-key rows."""
    alg = TorusRouting(Torus((4, 3)))
    tab = RoutingTables(alg)
    one = np.zeros(1, dtype=np.int64)
    assert tab.kernel is not None
    assert tab.kernel.injection_rows(one, one + 1, one) is None
    nodes = tab.nodes
    pairs = [(s, d) for s in range(len(nodes)) for d in range(len(nodes))]
    srcs = np.array([s for s, _ in pairs], dtype=np.int64)
    dsts = np.array([d for _, d in pairs], dtype=np.int64)
    sids = np.array(
        [
            tab.state_id(alg.initial_state(nodes[s], nodes[d]))
            for s, d in pairs
        ],
        dtype=np.int64,
    )
    queues, states = tab.injection_rows(srcs, dsts, sids)
    for i, key in enumerate(zip(srcs.tolist(), dsts.tolist(), sids.tolist())):
        (want,) = tab.injection_row(*key)
        assert (int(queues[i]), int(states[i])) == want


def test_oblivious_mesh_tie_break_keeps_the_lowest_node():
    """Oblivious mesh hops go to the lowest node, which is not the
    lowest dimension in phase A.

    Node indices are lexicographic, so dimension ``i`` has the larger
    stride the lower ``i`` is.  Phase A (steps ``+e_i``) therefore
    keeps the *highest* pending up-dimension and phase B (steps
    ``-e_i``) the *lowest* pending down-dimension.
    """
    tab = RoutingTables(MeshObliviousRouting(Mesh((3, 3))))
    nid = tab.nid
    for src, dst, phase, nxt in (
        ((0, 0), (2, 2), 0, (0, 1)),  # phase A: dimension 1, not 0
        ((2, 2), (0, 0), 1, (1, 2)),  # phase B: dimension 0, not 1
    ):
        qid = (nid[src] << 1) | phase
        want = (nid[nxt] << 1) | phase
        row = tab.central_row(qid, nid[dst], 0)
        assert row[1] == (want,)
        rows = tab.fill_rows(
            np.array([qid]), np.array([nid[dst]]), np.array([0])
        )
        assert (rows.slots[0, 1:] == tab.n_slots).all()
        nq, _, _, _, _ = rows.chosen(
            np.array([0]), np.array([0]), rows.slots[0, :1]
        )
        assert nq.tolist() == [want]


def test_oblivious_phase_b_with_zeros_left_has_no_candidate():
    """Phase B keeps the lowest differing dimension, even a zero.

    From ``qB`` at node 0b10 towards 0b01 the oblivious scheme's only
    static hop sets bit 0 through a down-link, which carries no ``qB``
    class: the row is empty, not the bit-1 up-link a "lowest one" rule
    would pick.
    """
    tab = RoutingTables(HypercubeObliviousRouting(Hypercube(2)))
    qid, dst = (0b10 << 1) | 1, 0b01
    assert tab.central_row(qid, dst, 0) == ((), (), (), (), ())
    rows = tab.fill_rows(
        np.array([qid]), np.array([dst]), np.array([0])
    )
    assert (rows.slots == tab.n_slots).all()
    assert not rows.hasint.any()


# ----------------------------------------------------------------------
# Saturated-traffic identity: batched node cycle vs reference engine
# ----------------------------------------------------------------------
TOPOLOGIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh((5, 5)), MeshAdaptiveRouting),
    "torus": (lambda: Torus((4, 4)), TorusRouting),
    "shuffle": (lambda: ShuffleExchange(4), ShuffleExchangeRouting),
    "ccc": (lambda: CubeConnectedCycles(3), CCCAdaptiveRouting),
}


def _instrumented_run(
    key, engine, batch: bool | None = None, seed=11, alg_cls=None, **sim_kw
):
    build, default_cls = TOPOLOGIES[key]
    reset_message_ids()
    topo = build()
    alg = (alg_cls or default_cls)(topo)
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(seed), duration=80
    )
    probe = TelemetryProbe()
    if engine == "reference":
        sim = PacketSimulator(alg, model, **sim_kw)
    else:
        sim = VectorSimulator(alg, model, **sim_kw)
        if batch is True:  # force the batched fill + read paths
            sim.batch_fill_min = 1
            sim.batch_read_min = 1
        elif batch is False:  # force the sparse per-node paths
            sim.batch_fill_min = 10**9
            sim.batch_read_min = 10**9
    probe.attach(sim)
    result = sim.run(max_cycles=200_000)
    return probe, result, sim


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_saturated_batched_event_logs_byte_identical(key):
    ref_p, ref_r, _ = _instrumented_run(key, "reference")
    vec_p, vec_r, _ = _instrumented_run(key, "vector", batch=True)
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.injected == vec_r.injected
    assert ref_r.delivered == vec_r.delivered


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_batch_sparse_dispatch_invariant(key):
    """The hybrid dispatch threshold never changes observable output."""
    a_p, a_r, _ = _instrumented_run(key, "vector", batch=True)
    b_p, b_r, _ = _instrumented_run(key, "vector", batch=False)
    assert a_p.log.to_jsonl() == b_p.log.to_jsonl()
    assert a_r.latency.values == b_r.latency.values or sorted(
        a_r.latency.values
    ) == sorted(b_r.latency.values)
    assert a_r.cycles == b_r.cycles


CUBE_CASES = {
    "hung": dict(alg_cls=HypercubeHungRouting),
    "oblivious": dict(alg_cls=HypercubeObliviousRouting),
    "rotating": dict(policy="rotating"),
    "lifo": dict(service="lifo"),
    "capacity-1": dict(central_capacity=1),
    "oblivious-rotating-lifo": dict(
        alg_cls=HypercubeObliviousRouting, policy="rotating", service="lifo"
    ),
}


@pytest.mark.parametrize("case", sorted(CUBE_CASES))
def test_saturated_cube_batch_rows_byte_identical(case):
    """Kernel batch rows under every hypercube variant and engine knob."""
    kw = CUBE_CASES[case]
    ref_p, ref_r, _ = _instrumented_run("hypercube", "reference", **kw)
    vec_p, vec_r, sim = _instrumented_run(
        "hypercube", "vector", batch=True, **kw
    )
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.delivered == vec_r.delivered
    assert sim.tables.rows_packed == 0


@pytest.mark.parametrize("case", ["oblivious", "restricted"])
def test_saturated_mesh_batch_rows_byte_identical(case):
    """Mesh kernel batch rows under the static-only variants."""
    kw = dict(alg_cls=MESH_VARIANTS[case])
    ref_p, ref_r, _ = _instrumented_run("mesh", "reference", **kw)
    vec_p, vec_r, sim = _instrumented_run("mesh", "vector", batch=True, **kw)
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.delivered == vec_r.delivered
    assert sim.tables.rows_packed == 0
    assert not sim.tables.has_rowid_index


def test_saturated_adaptive_cube_packs_no_rows():
    """Batch fills read the kernel's rows: nothing packed, no index."""
    _, result, sim = _instrumented_run("hypercube", "vector", batch=True)
    assert result.delivered > 0
    assert sim.tables.rows_packed == 0
    assert not sim.tables.has_rowid_index
    assert sim.tables.row_slots is None
