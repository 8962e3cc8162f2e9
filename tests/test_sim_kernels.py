"""Integer hop kernels: row equivalence and saturated-traffic identity.

Every row comes from one assembler, :class:`~repro.core.hops.HopKernel`,
with two candidate sources: a kernel's integer primitives, or the
symbolic routing function (``use_kernel=False``, and every key a kernel
declines).  The guarantees for ``compile_hops()`` (the integer-kernel
compilation hook, ``docs/ARCHITECTURE.md``):

* **Row equivalence** — for every shipped algorithm, the kernel's
  :class:`~repro.sim.tables.RoutingTables` rows must be *identical* to
  the symbolic rows over random ``(queue, destination, state)``
  triples — including keys whose symbolic evaluation raises (declined
  keys fall back to the symbolic candidates, so exception type and
  message match too) — and must intern new states in the same order.
  Kernels with batch rows are checked through them.
* **Batch-row equivalence** — a kernel's ``fill_rows`` batch rows, and
  the packed rows behind ``RoutingTables.fill_rows``, must equal the
  symbolic ``central_row`` / ``entry_row`` on every key of small
  hypercubes, meshes and tori, reachable or not (on a torus, in every
  ring-direction state); batch injection rows likewise.
* **Saturated identity** — at ``lambda = 1`` the vector engine's
  batched node cycle (fill sweep + one-sort read admission) must produce
  byte-identical canonical event logs and equal latency multisets
  against the reference engine on all five topology families, with no
  packed row on the kernels that compute batch rows.
"""

import itertools
import zlib

import numpy as np
import pytest

from repro.core.hops import DELIVER_STEP, NO_STEP, SELF_STEP
from repro.core.message import reset_message_ids
from repro.faults import FaultAwareRouting, FaultSet
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
from repro.sim.tables import _RidRows
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
# Row equivalence: kernel vs symbolic candidates
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


def _seed_states(alg, tabs, every_count=True):
    """Intern the same states in the same order into every table.

    Initial states for a spread of (src, dst) pairs, plus — for the
    shuffle-exchange scheme, whose state is the shuffle count — the
    exhausted counts (which the kernel declines back to the symbolic
    error path) and, with ``every_count``, every count a message can
    carry.
    """
    nodes = tabs[0].nodes
    step = max(1, len(nodes) // 7)
    for src in nodes[::step]:
        for dst in nodes[:: step + 1]:
            state = alg.initial_state(src, dst)
            for tab in tabs:
                tab.state_id(state)
    if isinstance(alg, ShuffleExchangeRouting):
        n2 = 2 * alg.n
        for k in range(n2 + 2) if every_count else (n2, n2 + 1):
            for tab in tabs:
                tab.state_id(k)


@pytest.mark.parametrize("name", sorted(KERNEL_ALGS))
def test_kernel_rows_match_plan_cache(name):
    """A kernel's rows equal the symbolic rows (``use_kernel=False``)
    on 250 random ``(queue, destination, state)`` keys, raising keys
    included.  Kernels with batch rows (the two-phase kernels, and the
    fault adapter over one) are checked through ``fill_rows`` and
    ``injection_rows``, since their scalar rows are the symbolic ones;
    the others through the scalar rows, with the state table interned
    in the same order on both sides after every row."""
    alg = KERNEL_ALGS[name]()
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    assert kern.kernel is not None, f"{name}: compile_hops declined"
    assert fall.kernel is None
    _seed_states(alg, (kern, fall), every_count=False)
    assert kern.states == fall.states

    rng = np.random.default_rng(zlib.crc32(name.encode()))
    n_q = kern.n_queues
    n_nodes = len(kern.nodes)
    qids = rng.integers(n_q, size=250)
    dsts = rng.integers(n_nodes, size=250)
    srcs = rng.integers(n_nodes, size=250)
    sids = rng.integers(len(kern.states), size=250)
    batch = kern.kernel.fill_rows(qids, dsts, sids)
    if batch is not None:
        batch = _batch_rows(batch, kern.n_slots)
        queues, states = kern.kernel.injection_rows(srcs, dsts, sids)
        keys = zip(qids.tolist(), dsts.tolist(), sids.tolist(), srcs.tolist())
        for i, (qid, dst, sid, ui) in enumerate(keys):
            want = fall.central_row(qid, dst, sid)
            entries = [fall.entry_row(q, dst, st) for q, st in zip(*want[1:3])]
            assert batch[i] == (want, entries), (name, qid, dst, sid)
            got = ((int(queues[i]), int(states[i])),)
            assert got == fall.injection_row(ui, dst, sid), (name, ui, dst)
        return
    for qid, dst, ui in zip(qids.tolist(), dsts.tolist(), srcs.tolist()):
        sid = int(rng.integers(len(kern.states)))
        assert _call(kern.central_row, qid, dst, sid) == _call(
            fall.central_row, qid, dst, sid
        ), (name, "central", qid, dst, sid)
        assert kern.states == fall.states, (name, "central", qid, dst, sid)
        assert _call(kern.entry_row, qid, dst, sid) == _call(
            fall.entry_row, qid, dst, sid
        ), (name, "entry", qid, dst, sid)
        assert kern.states == fall.states, (name, "entry", qid, dst, sid)
        assert _call(kern.injection_row, ui, dst, sid) == _call(
            fall.injection_row, ui, dst, sid
        ), (name, "inject", ui, dst, sid)
        assert kern.states == fall.states, (name, "inject", ui, dst, sid)


def _decode_internal(act, queue, state):
    """One row of internal steps (int lists) as ``central_row``'s tuple
    of ``(action, queue, state)`` steps; padding only on the right."""
    n = sum(1 for a in act if a != NO_STEP)
    assert act[n:] == [NO_STEP] * (len(act) - n), "padding not on the right"
    return tuple(zip(act[:n], queue[:n], state[:n]))


def test_packed_rid_rows_match_row_tuples():
    """central_rid's packed arrays, and the fill_rows view over them,
    re-encode central_row faithfully for every kernel on every key that
    packs (the symbolic path raises on unreachable keys: exhausted
    shuffle counters, off-network Benes entries)."""
    for name in sorted(KERNEL_ALGS):
        alg = KERNEL_ALGS[name]()
        tab = RoutingTables(alg)
        _seed_states(alg, (tab,))
        pad = tab.n_slots
        keys = []
        steps = set()
        for key in itertools.product(
            range(tab.n_queues), range(len(tab.nodes)), range(len(tab.states))
        ):
            packed = _call(tab.central_rid, *key)
            if packed[0] == "err":
                continue
            rid = packed[1]
            ext, tqs, sts, dyn, internal = tab.central_row(*key)
            width = len(tab.row_slots[rid])
            assert len(ext) <= width
            assert tuple(tab.row_slots[rid][: len(ext)]) == ext
            assert all(s == pad for s in tab.row_slots[rid][len(ext) :])
            assert tuple(tab.row_queues[rid][: len(tqs)]) == tqs
            assert tuple(tab.row_states[rid][: len(sts)]) == sts
            assert tuple(tab.row_dyn[rid][: len(dyn)]) == dyn
            assert _decode_internal(
                tab.row_int_act[rid].tolist(),
                tab.row_int_q[rid].tolist(),
                tab.row_int_st[rid].tolist(),
            ) == internal, (name, key)
            steps.update(step[0] for step in internal)
            keys.append(key)
        assert DELIVER_STEP in steps, name
        if name.startswith("shuffle"):
            assert SELF_STEP in steps, name
        # The batched fill's view over the same packed rows.
        qids, dsts, sids = (np.array(c, dtype=np.int64) for c in zip(*keys))
        rows = _RidRows(tab, tab.central_rids(qids, dsts, sids))
        for key, got in zip(keys, _batch_rows(rows, pad)):
            want = tab.central_row(*key)
            entries = [
                tab.entry_row(q, key[1], st) for q, st in zip(*want[1:3])
            ]
            assert got == (want, entries), (name, key)


def _states_interned_by(alg, states, key):
    """States a fresh table holding ``states`` interns while building
    ``key``'s central row (``None`` if the build raises)."""
    tab = RoutingTables(alg)
    for state in states:
        tab.state_id(state)
    if _call(tab.central_row, *key)[0] != "ok":
        return None
    return tab.states[len(states):]


def test_vectorized_rid_gather_matches_scalar():
    """One central_rids batch mixing hits, misses, duplicate keys and a
    state id first interned by the batch's own row builds: every key
    gets the rid central_rid gives it, each new key is packed once, and
    the packed rows re-encode central_row."""
    alg = ShuffleExchangeRouting(ShuffleExchange(4))
    tab = RoutingTables(alg)
    init = alg.initial_state(tab.nodes[1], tab.nodes[6])
    keys = list(
        itertools.product(range(tab.n_queues), range(len(tab.nodes)), [0])
    )
    interned = {key: _states_interned_by(alg, [init], key) for key in keys}
    grower = next(key for key in keys if interned[key])
    plain = [key for key in keys if interned[key] == []]
    hits, miss = plain[:2], plain[2]
    new_state = interned[grower][0]
    born = next(
        key
        for key in itertools.product(
            range(tab.n_queues), range(len(tab.nodes)), [1]
        )
        if _states_interned_by(alg, [init, new_state], key) is not None
    )
    assert tab.state_id(init) == 0
    for key in hits:
        tab.central_rid(*key)
    assert len(tab.states) == 1
    batch = [hits[0], grower, born, hits[1], grower, miss, born, hits[0]]
    before = tab.rows_packed
    qids, dsts, sids = (np.array(c, dtype=np.int64) for c in zip(*batch))
    rids = tab.central_rids(qids, dsts, sids)
    assert tab.states[1] == new_state
    assert tab.rows_packed == before + 3
    assert rids.tolist() == [tab.central_rid(*key) for key in batch]
    assert tab.rows_packed == before + 3
    rows = _RidRows(tab, rids)
    for key, got in zip(batch, _batch_rows(rows, tab.n_slots)):
        want = tab.central_row(*key)
        entries = [tab.entry_row(q, key[1], st) for q, st in zip(*want[1:3])]
        assert got == (want, entries), key


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


def _batch_rows(rows, pad):
    """Every row of a HopRows batch in ``central_row`` form, plus the
    entry-resolved landing pair of each candidate: one ``chosen`` call
    over every candidate, one ``internal`` call over every row."""
    slots = rows.slots
    real = slots != pad
    width = real.sum(axis=1)
    assert (
        real == (np.arange(slots.shape[1]) < width[:, None])
    ).all(), "padding not on the right"
    rr, cc = np.nonzero(real)
    nq, nst, eq, est, dyn = (
        a.tolist() for a in rows.chosen(rr, cc, slots[rr, cc])
    )
    act, queue, state = (
        a.tolist() for a in rows.internal(np.arange(len(slots)))
    )
    out = []
    a = 0
    for i, (row, w) in enumerate(zip(slots.tolist(), width.tolist())):
        b = a + w
        internal = _decode_internal(act[i], queue[i], state[i])
        assert bool(rows.hasint[i]) == bool(internal)
        row = (
            tuple(row[:w]),
            tuple(nq[a:b]),
            tuple(nst[a:b]),
            tuple(dyn[a:b]),
            internal,
        )
        out.append((row, list(zip(eq[a:b], est[a:b]))))
        a = b
    return out


def _key_states(alg):
    """The states every key is checked in: each ring-direction vector a
    torus message can carry, plus ``None`` (directions from the current
    node); elsewhere ``None`` and states the scheme ignores, which must
    pass through unchanged."""
    alg = getattr(alg, "inner", alg)  # a fault adapter's states
    if isinstance(alg, TorusRouting):
        return [None, *itertools.product((-1, 0, 1), repeat=alg.k)]
    return [None, "s1", 7]


def _assert_batch_rows_match_scalar_rows(alg):
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    assert kern.kernel is not None
    for tab in (kern, fall):
        for state in _key_states(alg):
            tab.state_id(state)
    qids, dsts, sids = _all_keys(kern)
    batch = _batch_rows(kern.kernel.fill_rows(qids, dsts, sids), kern.n_slots)
    gathered = _batch_rows(fall.fill_rows(qids, dsts, sids), fall.n_slots)
    keys = zip(qids.tolist(), dsts.tolist(), sids.tolist())
    for key, got, packed in zip(keys, batch, gathered):
        # Both tables' scalar rows come from the symbolic candidates,
        # which the gather just packed.
        want = fall.central_row(*key)
        entries = [fall.entry_row(q, key[1], st) for q, st in zip(*want[1:3])]
        assert got == (want, entries), key
        assert packed == (want, entries), key
    # The kernel batch packed nothing: the row arrays were never allocated.
    assert kern.rows_packed == 0
    assert kern.row_slots is None


@pytest.mark.parametrize("variant", sorted(CUBE_VARIANTS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cube_batch_rows_match_scalar_rows_on_every_key(n, variant):
    _assert_batch_rows_match_scalar_rows(CUBE_VARIANTS[variant](Hypercube(n)))


def _sorted_cube_slots(alg, tab, qids, dsts):
    """The cube kernel's slot rows built the sort-based way: each
    queue's per-dimension slots, the pad written where the candidate
    mask has no bit, then sorted so the padding lands on the right."""
    n = alg.topology.n
    nodes = np.arange(len(tab.nodes), dtype=np.int64)
    bits = (nodes[:, None] >> np.arange(n)) & 1 == 1  # row m: bits of m
    base = tab.link_first_slot
    table = np.empty((2 * nodes.size, n), dtype=np.int64)
    adaptive = type(alg) is HypercubeAdaptiveRouting
    table[0::2] = base + bits if adaptive else base
    table[1::2] = base
    u = qids >> 1
    phase_a = (qids & 1) == 0
    x = u ^ dsts
    ones = u & x
    zeros = x ^ ones
    if type(alg) is HypercubeObliviousRouting:
        cand = np.where(phase_a, zeros & -zeros, x & -x & ones)
    elif adaptive:
        cand = np.where(phase_a, np.where(zeros != 0, x, 0), ones)
    else:
        cand = np.where(phase_a, zeros, ones)
    slots = table[qids]
    slots[~bits[cand]] = tab.n_slots
    slots.sort(axis=1)
    return slots


@pytest.mark.parametrize("variant", sorted(CUBE_VARIANTS))
@pytest.mark.parametrize("n", [9, 13])
def test_cube_gathered_rows_equal_sorted_rows(n, variant):
    """The kernel's one-gather slot rows equal the sort-based rows on
    10k random keys of a large cube (the exhaustive scalar-row check
    above stops at n = 5)."""
    alg = CUBE_VARIANTS[variant](Hypercube(n))
    tab = RoutingTables(alg)
    rng = np.random.default_rng(n)
    qids = rng.integers(0, tab.n_queues, size=10_000)
    dsts = rng.integers(0, len(tab.nodes), size=10_000)
    rows = tab.kernel.fill_rows(qids, dsts, np.zeros_like(qids))
    want = _sorted_cube_slots(alg, tab, qids, dsts)
    assert rows.slots.dtype == want.dtype
    np.testing.assert_array_equal(rows.slots, want)
    # Both sides agree on a fair share of non-empty and padded rows.
    assert 0 < (rows.slots[:, 0] < tab.n_slots).mean() < 1
    assert (rows.slots[:, -1] == tab.n_slots).mean() > 0.5


@pytest.mark.parametrize("variant", sorted(CUBE_VARIANTS))
@pytest.mark.parametrize("n", [4, 9])
def test_cube_kernel_memory_bytes_are_its_arrays(n, variant):
    """``memory_bytes()`` is the measured size of every array the cube
    kernel owns (arrays it shares with the tables are theirs)."""
    tab = RoutingTables(CUBE_VARIANTS[variant](Hypercube(n)))
    kern = tab.kernel
    shared = {id(a) for a in vars(tab).values() if isinstance(a, np.ndarray)}

    def owned():
        return [
            a for a in vars(kern).values()
            if isinstance(a, np.ndarray) and id(a) not in shared
        ]

    # Slot table, dimension table, dynamic flags, gathered-row buffer.
    assert len(owned()) == 4
    assert kern.memory_bytes() == sum(a.nbytes for a in owned())
    assert kern._dims.nbytes == n << n  # one byte per (mask, dimension)
    # The rows are gathered into a buffer that grows to the largest
    # batch and is counted.
    keys = np.arange(tab.n_queues, dtype=np.int64)
    rows = kern.fill_rows(keys, keys % len(tab.nodes), np.zeros_like(keys))
    assert kern._rows.shape == (tab.n_queues, n)
    assert np.shares_memory(rows.slots, kern._rows)
    assert kern.memory_bytes() == sum(a.nbytes for a in owned())


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


def test_grid_kernel_tables_stay_linear_on_a_side_two_mesh():
    """A 4,096-node mesh of side 2 has k = 12 dimensions, so N = 2^k:
    a table over every mask of the 2k link columns (4^k rows) would be
    quadratic in N.  The dimension table has 2^k rows, and the kernel's
    bytes stay within twice its (N * nk, 2k + 1) slot table."""
    k = 12
    kern = RoutingTables(MeshAdaptiveRouting(Mesh((2,) * k))).kernel
    assert kern._dims.shape == (1 << k, k)  # per (mask, dimension)
    assert kern._slot_flat.nbytes == 8 * (2 << k) * (2 * k + 1)
    assert kern.memory_bytes() < 2 * kern._slot_flat.nbytes


TORUS_SHAPES = [(3,), (5,), (3, 3), (4, 3), (4, 4), (3, 4, 3)]


def _shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("classes", [None, 2, 1], ids=str)
@pytest.mark.parametrize("shape", TORUS_SHAPES, ids=_shape_id)
def test_torus_batch_rows_match_scalar_rows_on_every_key(shape, classes):
    """The grid kernel's torus rows: every dateline class, every ring
    direction a state can fix, crosses into the next class (saturating
    at the last) and the phase-A entry fold."""
    _assert_batch_rows_match_scalar_rows(TorusRouting(Torus(shape), classes))


# ----------------------------------------------------------------------
# Batch injection rows: injection_rows vs scalar injection_row
# ----------------------------------------------------------------------
def _assert_injection_rows_match_scalar_rows(alg):
    kern = RoutingTables(alg)
    fall = RoutingTables(alg, use_kernel=False)
    for tab in (kern, fall):
        for state in _key_states(alg):
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


@pytest.mark.parametrize("classes", [None, 2, 1], ids=str)
@pytest.mark.parametrize("shape", TORUS_SHAPES, ids=_shape_id)
def test_torus_injection_rows_match_scalar_rows_on_every_key(shape, classes):
    _assert_injection_rows_match_scalar_rows(
        TorusRouting(Torus(shape), classes)
    )


@pytest.mark.parametrize(
    "inner",
    [
        HypercubeAdaptiveRouting(Hypercube(3)),
        MeshAdaptiveRouting(Mesh((3, 3))),
        TorusRouting(Torus((3, 3))),
    ],
    ids=lambda alg: alg.name,
)
def test_fault_adapter_forwards_batch_rows_while_healthy(inner):
    """A healthy fault adapter answers its inner kernel's batch rows on
    every key; under a dead link its kernel declines every batch."""
    alg = FaultAwareRouting(inner)
    _assert_batch_rows_match_scalar_rows(alg)
    _assert_injection_rows_match_scalar_rows(alg)
    tab = RoutingTables(alg)
    u = tab.nodes[0]
    v = inner.topology.neighbors(u)[0]
    alg.set_active(FaultSet(dead_links=[(u, v), (v, u)]))
    one = np.zeros(1, dtype=np.int64)
    assert tab.kernel.fill_rows(one, one + 1, one) is None
    assert tab.kernel.injection_rows(one, one + 1, one) is None


def test_kernelless_injection_rows_resolve_key_by_key():
    """A kernel without the batch hook (the shuffle-exchange's) declines
    it, and the tables resolve the batch through the per-key rows."""
    alg = ShuffleExchangeRouting(ShuffleExchange(4))
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


def _shuffle_run_rows():
    """Kernel-less shuffle-exchange tables and a lambda = 1 run over
    them; returns the number of central rows evaluated."""
    topo = ShuffleExchange(5)
    alg = ShuffleExchangeRouting(topo)
    tables = RoutingTables(alg, use_kernel=False)

    def drive():
        model = DynamicInjection(
            1.0, RandomTraffic(topo), make_rng(5), duration=60
        )
        result = VectorSimulator(alg, model, tables=tables).run(
            max_cycles=100_000
        )
        assert result.delivered > 0
        return tables.rows_packed

    return alg, tables, drive


def _fault_gated_cube_rows():
    """A healthy fault adapter over a hypercube: its gated kernel
    forwards scalar keys to the batch-only hypercube kernel, which
    declines them.  Every ``(queue, destination)`` key's central and
    entry row is evaluated; returns the number of central rows."""
    alg = FaultAwareRouting(HypercubeAdaptiveRouting(Hypercube(3)))
    tables = RoutingTables(alg)

    def drive():
        keys = [
            (qid, di, tables.state_id(alg.initial_state(u, d)))
            for qid, u in enumerate(tables.queue_labels)
            for di, d in enumerate(tables.nodes)
        ]
        for key in keys:
            tables.assembler.central_row(*key)
            tables.assembler.entry_row(*key)
        return len(keys)

    return alg, tables, drive


@pytest.mark.parametrize(
    "setup",
    [_shuffle_run_rows, _fault_gated_cube_rows],
    ids=["kernelless-shuffle-run", "fault-gated-cube-keys"],
)
def test_symbolic_entry_fold_asks_what_the_reference_fold_asks(setup):
    """On symbolic keys the entry fold asks ``dynamic_hops`` first,
    stops when it is non-empty, and never asks ``buffer_class`` (the
    reference engine's ``_fold_entry_queue`` order); ``buffer_class`` is
    asked only for the external candidates of central rows."""
    alg, tables, drive = setup()
    calls = {
        (fold, name): 0
        for fold in (False, True)
        for name in ("static", "dynamic", "empty_dynamic", "external", "cls")
    }
    folding = [False]

    def counted(name, method):
        def call(q, dst, state):
            hops = method(q, dst, state)
            fold = folding[0]
            calls[(fold, name)] += 1
            calls[(fold, "external")] += sum(h.node != q.node for h in hops)
            if name == "dynamic" and not hops:
                calls[(fold, "empty_dynamic")] += 1
            return hops

        return call

    alg.static_hops = counted("static", alg.static_hops)
    alg.dynamic_hops = counted("dynamic", alg.dynamic_hops)
    buffer_class = alg.buffer_class

    def counted_class(*args):
        calls[(folding[0], "cls")] += 1
        return buffer_class(*args)

    alg.buffer_class = counted_class
    entry_row = tables.assembler.entry_row

    def folding_entry_row(*args):
        folding[0] = True
        try:
            return entry_row(*args)
        finally:
            folding[0] = False

    tables.assembler.entry_row = folding_entry_row
    rows = drive()
    assert rows > 0
    # The fold: no buffer class, statics only behind an empty dynamic.
    assert calls[(True, "dynamic")] > calls[(True, "static")] > 0
    assert calls[(True, "static")] == calls[(True, "empty_dynamic")]
    assert calls[(True, "cls")] == 0
    # Central rows: both hop lists once per row, and one buffer class
    # per external candidate.
    assert calls[(False, "static")] == calls[(False, "dynamic")] == rows
    assert calls[(False, "cls")] == calls[(False, "external")] > 0


def test_oblivious_mesh_tie_break_keeps_the_lowest_node():
    """Oblivious mesh hops go to the lowest node, which is not the
    lowest dimension in phase A.

    Node indices are lexicographic, so dimension ``i`` has the larger
    stride the lower ``i`` is.  Phase A (steps ``+e_i``) therefore
    keeps the *highest* pending up-dimension and phase B (steps
    ``-e_i``) the *lowest* pending down-dimension.
    """
    tab = RoutingTables(MeshObliviousRouting(Mesh((3, 3))))
    assert tab.state_id(None) == 0  # scalar rows are the symbolic ones
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
    assert tab.state_id(None) == 0  # scalar rows are the symbolic ones
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
    "torus-3d": (lambda: Torus((3, 4, 3)), TorusRouting),
    "torus-4q": (
        lambda: Torus((4, 5)),
        lambda topo: TorusRouting(topo, classes=2),
    ),
    "shuffle": (lambda: ShuffleExchange(4), ShuffleExchangeRouting),
    "ccc": (lambda: CubeConnectedCycles(3), CCCAdaptiveRouting),
}


def _instrumented_run(key, engine, seed=11, alg_cls=None, **sim_kw):
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
    probe.attach(sim)
    result = sim.run(max_cycles=200_000)
    return probe, result, sim


@pytest.mark.parametrize("key", sorted(TOPOLOGIES))
def test_saturated_batched_event_logs_byte_identical(key):
    ref_p, ref_r, _ = _instrumented_run(key, "reference")
    vec_p, vec_r, sim = _instrumented_run(key, "vector")
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.injected == vec_r.injected
    assert ref_r.delivered == vec_r.delivered
    if key.startswith("torus"):
        # The grid kernel's batch rows: nothing packed, no row index.
        assert sim.tables.rows_packed == 0
        assert sim.tables.row_slots is None


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
    vec_p, vec_r, sim = _instrumented_run("hypercube", "vector", **kw)
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
    vec_p, vec_r, sim = _instrumented_run("mesh", "vector", **kw)
    assert ref_p.log.to_jsonl() == vec_p.log.to_jsonl()
    assert sorted(ref_r.latency.values) == sorted(vec_r.latency.values)
    assert ref_r.cycles == vec_r.cycles
    assert ref_r.delivered == vec_r.delivered
    assert sim.tables.rows_packed == 0
    assert sim.tables.row_slots is None


def test_saturated_adaptive_cube_packs_no_rows():
    """Batch fills read the kernel's rows: nothing packed, no index."""
    _, result, sim = _instrumented_run("hypercube", "vector")
    assert result.delivered > 0
    assert sim.tables.rows_packed == 0
    assert sim.tables.row_slots is None
