"""Integer routing tables: the vector engine's compilation layer.

:class:`RoutingTables` lowers one
:class:`~repro.core.routing_function.RoutingAlgorithm` — *any*
algorithm, on any topology — onto dense integer identifiers so an
engine can run the paper's node cycle without hashing a single label
object on the hot path:

* nodes are interned ``0..N-1`` in ``topology.nodes()`` order (the
  reference engine's node order);
* central queues get global ids ``0..n_queues-1``, node-major in
  ``central_queue_kinds`` order;
* link buffers get global *slot* ids, node-major and low-to-high
  ``link_index`` within a node, classes in ``buffer_classes`` order —
  so slot-ascending order **is** the reference engine's output-buffer
  fill order, and slot-ascending order per receiving node **is** the
  reference engine's input-buffer rotation order;
* routing states are interned lazily to small ints (states must be
  hashable; :class:`EngineCapabilityError` otherwise — the reference
  and compiled engines remain available for unhashable-state
  algorithms).

On top of the static structure, three lazily-memoized row tables mirror
:class:`~repro.sim.plans.RoutingPlanCache` (which this class wraps, so
the first-wins external-candidate semantics, statics-before-dynamics
order and the forced-phase-switch entry fold are *the same code* the
compiled engine trusts):

* :meth:`central_row` — ``(queue, dst, state) ->`` parallel tuples of
  external candidates (slot / next queue / next state / dynamic flag,
  slot-ascending) plus internal ``(action, queue, state)`` steps;
* :meth:`entry_row` — where a packet nominally heading for a queue
  actually lands after the entry fold;
* :meth:`injection_row` — resolved injection targets in the reference
  engine's ``sorted(targets)`` order.

Rows contain only ints, so the engine's per-message work is integer
compares and array indexing; identity with the reference engine is
established by ``tests/test_sim_vector.py``.

The batched fill phase asks for whole steps of central rows at once
through :meth:`RoutingTables.fill_rows`.  When the hop kernel computes
batch rows (:meth:`~repro.core.hops.HopKernel.fill_rows`; the hypercube
and mesh schemes), they come straight from numpy arithmetic and nothing
is stored.  Otherwise :meth:`RoutingTables.central_rids` builds each
missing row once, packs it into parallel ``(row id, candidate)`` numpy
arrays, and gathers by row id.  The packed arrays and the row-id index
are allocated on first use, so a run on batch rows never holds them.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Hashable

import numpy as np

from ..core.hops import HopRows
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm
from .plans import DELIVER_STEP, RoutingPlanCache

__all__ = ["EngineCapabilityError", "RoutingTables"]

#: Ceiling on the dense ``(queue, dst)`` row-id index (cells); larger
#: networks fall back to a dict-keyed row-id map.
_DENSE_ROWID_CELLS = 16_777_216


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a bulk build.

    The structure of a 64K-node network is millions of small tuples,
    lists and dict entries; each allocation burst re-triggers
    generational collections that walk the whole growing heap, a large
    share of the build time.  A build that allocated more than one
    full-collection period (the product of the thresholds) gets the one
    full collection it deferred at the end, so the run that follows does
    not walk the new objects again in its first collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            t0, t1, t2 = gc.get_threshold()
            deferred = gc.get_count()[0] > t0 * t1 * t2
            gc.enable()
            if deferred:
                gc.collect()


class EngineCapabilityError(TypeError):
    """A requested engine cannot run the requested configuration.

    Raised with a message that names the limitation and the engines
    that do support the configuration (see the engine matrix in
    ``docs/ARCHITECTURE.md``).
    """


class RoutingTables:
    """Dense integer lowering of one routing algorithm + topology.

    One instance may be shared by several
    :class:`~repro.sim.vector.VectorSimulator` objects built around the
    *same* algorithm instance (rows are pure functions of
    ``(queue, dst, state)``), mirroring how
    :class:`~repro.sim.plans.RoutingPlanCache` is shared by compiled
    simulators.
    """

    def __init__(self, algorithm: RoutingAlgorithm, use_kernel: bool = True):
        with _collector_paused():
            self._build(algorithm, use_kernel)

    def _build(self, algorithm: RoutingAlgorithm, use_kernel: bool) -> None:
        t_start = time.perf_counter()
        self.algorithm = algorithm
        self.plans = RoutingPlanCache(algorithm)
        topo = algorithm.topology

        # ---- node interning (reference engine node order) -------------
        self.nodes: list[Hashable] = list(topo.nodes())
        self.nid: dict[Hashable, int] = {u: i for i, u in enumerate(self.nodes)}
        n = len(self.nodes)

        # ---- central queues: global ids, node-major ----------------------
        self.node_qids: list[list[int]] = []
        self.queue_node: list[int] = []
        self.queue_kind: list[str] = []
        self.qid_of: dict[tuple[int, str], int] = {}
        for ui, u in enumerate(self.nodes):
            ids = []
            for kind in algorithm.central_queue_kinds(u):
                qid = len(self.queue_node)
                self.qid_of[(ui, kind)] = qid
                self.queue_node.append(ui)
                self.queue_kind.append(kind)
                ids.append(qid)
            self.node_qids.append(ids)
        self.n_queues = len(self.queue_node)
        #: Interned QueueId per global queue id (for row construction).
        self.queue_objs: list[QueueId] = [
            QueueId(self.nodes[self.queue_node[q]], self.queue_kind[q])
            for q in range(self.n_queues)
        ]

        # ---- link buffer slots: global ids, node-major, low-to-high ----
        self.slot_src: list[int] = []
        self.slot_dst: list[int] = []
        self.slot_cls: list[str] = []
        self.slot_of: dict[tuple[int, int, str], int] = {}
        self.node_out_start: list[int] = []
        self.node_out_count: list[int] = []
        #: ``(u_label, v_label) -> classes`` in reference insertion order
        #: (telemetry probes read ``len(sim.link_classes)``).
        self.link_classes: dict[tuple, tuple[str, ...]] = {}
        link_slot_lists: dict[int, list[list[int]]] = {}
        for ui, u in enumerate(self.nodes):
            self.node_out_start.append(len(self.slot_src))
            nbrs = sorted(
                topo.neighbors(u), key=lambda v: topo.link_index(u, v)
            )
            for v in nbrs:
                classes = algorithm.buffer_classes(u, v)
                self.link_classes[(u, v)] = classes
                vi = self.nid[v]
                slots = []
                for cls in classes:
                    s = len(self.slot_src)
                    self.slot_of[(ui, vi, cls)] = s
                    self.slot_src.append(ui)
                    self.slot_dst.append(vi)
                    self.slot_cls.append(cls)
                    slots.append(s)
                link_slot_lists.setdefault(len(slots), []).append(slots)
            self.node_out_count.append(
                len(self.slot_src) - self.node_out_start[-1]
            )
        self.n_slots = len(self.slot_src)

        # Input-side view: reference ``in_keys[v]`` appends in outer
        # sender-node order, so it equals "slots with slot_dst == v,
        # ascending global slot id".
        self.node_in_slots: list[list[int]] = [[] for _ in range(n)]
        self.slot_in_pos: list[int] = [0] * self.n_slots
        for s in range(self.n_slots):
            vi = self.slot_dst[s]
            self.slot_in_pos[s] = len(self.node_in_slots[vi])
            self.node_in_slots[vi].append(s)

        #: Directed links grouped by class count ``k``: an ``(L, k)``
        #: int array of slot ids per group.  Per-link class rotation is
        #: ``cycle % k``, exactly the reference engine's ``rotated``.
        self.link_groups: dict[int, np.ndarray] = {
            k: np.asarray(v, dtype=np.int64)
            for k, v in link_slot_lists.items()
        }

        # ---- state interning + row memos -------------------------------
        self.states: list[Any] = []
        self._state_ids: dict[Any, int] = {}
        self._central: dict[tuple[int, int, int], tuple] = {}
        self._entry: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._inject: dict[tuple[int, int, int], tuple] = {}
        self._init_rows()

        # ---- compiled hop kernel (optional fast path) ------------------
        #: The algorithm's integer hop kernel, or ``None`` (plan-cache
        #: translation only).  See :mod:`repro.core.hops`.
        self.kernel = None
        if use_kernel:
            hook = getattr(algorithm, "compile_hops", None)
            if hook is not None:
                self.kernel = hook(self)
        #: Wall-clock seconds to build the structure + compile the
        #: kernel (telemetry gauge ``repro_tables_compile_seconds``).
        self.compile_seconds = time.perf_counter() - t_start

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def state_id(self, state: Any) -> int:
        """Small-int id of a routing state (interned on first use)."""
        try:
            sid = self._state_ids.get(state)
        except TypeError as exc:
            raise EngineCapabilityError(
                f"the vector engine requires hashable routing states; "
                f"{self.algorithm.name} produced {state!r} — use "
                "engine='reference' or engine='compiled' "
                "(see docs/ARCHITECTURE.md)"
            ) from exc
        if sid is None:
            sid = self._state_ids[state] = len(self.states)
            self.states.append(state)
        return sid

    @property
    def size(self) -> int:
        """Total number of memoized rows (all three tables)."""
        return len(self._central) + len(self._entry) + len(self._inject)

    # ------------------------------------------------------------------
    # Packed row ids (the batched engine's central-row representation)
    # ------------------------------------------------------------------
    def _init_rows(self) -> None:
        """Forget the packed central-row arrays + row-id index.

        A *row id* (rid) names one built central row; the candidate
        data lives in parallel ``(rid, candidate)`` numpy arrays so the
        batched fill phase gathers whole batches of rows without
        touching Python objects.  ``row_entq``/``row_entst`` hold the
        *entry-resolved* landing queue/state per candidate, so the read
        phase needs no further lookups.

        Both are allocated on the first :meth:`central_rid` call
        (:meth:`_alloc_rows`): engines whose kernel computes batch rows
        (:meth:`fill_rows`) never pack a row, and the dense index grows
        with ``queues x nodes``.
        """
        self._row_n = 0
        self.row_slots: np.ndarray | None = None
        self._rowid_dense: np.ndarray | None = None
        self._rowid_map: dict[tuple[int, int, int], int] | None = None

    def _alloc_rows(self) -> None:
        cap = 256
        width = 4
        self.row_slots = np.full((cap, width), self.n_slots, dtype=np.int64)
        self.row_queues = np.full((cap, width), -1, dtype=np.int64)
        self.row_states = np.zeros((cap, width), dtype=np.int64)
        self.row_dyn = np.zeros((cap, width), dtype=np.int64)
        self.row_entq = np.full((cap, width), -1, dtype=np.int64)
        self.row_entst = np.zeros((cap, width), dtype=np.int64)
        self.row_hasint = np.zeros(cap, dtype=np.int64)
        #: Internal steps per rid (python tuples; only walked on stalls).
        self.row_internal: list[tuple] = []
        if self.has_rowid_index:
            return
        if self.has_dense_rowids:
            self._rowid_dense = np.full(
                (self.n_queues, len(self.nodes), 1), -1, dtype=np.int64
            )
        else:
            self._rowid_map = {}

    @property
    def has_dense_rowids(self) -> bool:
        """Whether row ids are (or will be) indexed by a dense numpy
        gather table rather than a dict."""
        if self.has_rowid_index:
            return self._rowid_dense is not None
        return 0 < self.n_queues * len(self.nodes) <= _DENSE_ROWID_CELLS

    @property
    def has_rowid_index(self) -> bool:
        """Whether the row-id index has been allocated."""
        return self._rowid_dense is not None or self._rowid_map is not None

    @property
    def rows_packed(self) -> int:
        """Number of central rows packed into the rid arrays."""
        return self._row_n

    def _grow_rows(self, width: int) -> None:
        cap, w = self.row_slots.shape
        new_cap = cap if self._row_n < cap else cap * 2
        new_w = w
        while new_w < width:
            new_w *= 2
        pads = {
            "row_slots": self.n_slots,
            "row_queues": -1,
            "row_states": 0,
            "row_dyn": 0,
            "row_entq": -1,
            "row_entst": 0,
        }
        for name, pad in pads.items():
            old = getattr(self, name)
            arr = np.full((new_cap, new_w), pad, dtype=np.int64)
            arr[:cap, :w] = old
            setattr(self, name, arr)
        if new_cap != cap:
            hasint = np.zeros(new_cap, dtype=np.int64)
            hasint[:cap] = self.row_hasint
            self.row_hasint = hasint

    def _grow_rowid_states(self, sid: int) -> None:
        tab = self._rowid_dense
        depth = max(sid + 1, len(self.states), tab.shape[2] * 2)
        new = np.full((tab.shape[0], tab.shape[1], depth), -1, dtype=np.int64)
        new[:, :, : tab.shape[2]] = tab
        self._rowid_dense = new

    def _pack_row(self, dst_i: int, row: tuple) -> int:
        slots, queues, states, dyn, internal = row
        nc = len(slots)
        if self._row_n >= self.row_slots.shape[0] or nc > self.row_slots.shape[1]:
            self._grow_rows(nc)
        rid = self._row_n
        self._row_n = rid + 1
        if nc:
            self.row_slots[rid, :nc] = slots
            self.row_queues[rid, :nc] = queues
            self.row_states[rid, :nc] = states
            self.row_dyn[rid, :nc] = dyn
            for j in range(nc):
                eq, est = self.entry_row(queues[j], dst_i, states[j])
                self.row_entq[rid, j] = eq
                self.row_entst[rid, j] = est
        self.row_hasint[rid] = 1 if internal else 0
        self.row_internal.append(internal)
        return rid

    def central_rid(self, qid: int, dst_i: int, sid: int) -> int:
        """Packed row id for ``(qid, dst_i, sid)`` (built on first use)."""
        if self.row_slots is None:
            self._alloc_rows()
        tab = self._rowid_dense
        if tab is not None:
            if sid >= tab.shape[2]:
                self._grow_rowid_states(sid)
                tab = self._rowid_dense
            rid = int(tab[qid, dst_i, sid])
            if rid >= 0:
                return rid
        else:
            rid = self._rowid_map.get((qid, dst_i, sid), -1)
            if rid >= 0:
                return rid
        rid = self._pack_row(dst_i, self.central_row(qid, dst_i, sid))
        if self._rowid_dense is not None:
            self._rowid_dense[qid, dst_i, sid] = rid
        else:
            self._rowid_map[(qid, dst_i, sid)] = rid
        return rid

    def central_rids(
        self, qids: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`central_rid`.

        One numpy gather + a python miss loop in dense row-id mode; an
        all-python loop in dict mode (networks past the dense ceiling),
        where the candidate-selection math downstream still vectorizes.
        """
        if self.row_slots is None:
            self._alloc_rows()
        tab = self._rowid_dense
        if tab is None:
            get = self._rowid_map.get
            out = np.empty(len(qids), dtype=np.int64)
            for i in range(len(qids)):
                key = (int(qids[i]), int(dsts[i]), int(sids[i]))
                rid = get(key, -1)
                if rid < 0:
                    rid = self.central_rid(*key)
                out[i] = rid
            return out
        if len(self.states) > tab.shape[2]:
            self._grow_rowid_states(len(self.states) - 1)
            tab = self._rowid_dense
        rids = tab[qids, dsts, sids]
        misses = np.flatnonzero(rids < 0)
        if misses.size:
            for i in misses.tolist():
                rids[i] = self.central_rid(
                    int(qids[i]), int(dsts[i]), int(sids[i])
                )
        return rids

    def fill_rows(
        self, qids: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> HopRows:
        """Central rows for one batched fill step, as a :class:`HopRows`.

        The kernel's batch rows when it computes them (no memo, no
        packed storage); otherwise a view over packed rows gathered by
        :meth:`central_rids`.  Both are identical on every key.
        """
        if self.kernel is not None:
            rows = self.kernel.fill_rows(qids, dsts, sids)
            if rows is not None:
                return rows
        return _RidRows(self, self.central_rids(qids, dsts, sids))

    def clear_rows(self) -> None:
        """Drop every memoized/packed row (structure + kernel stay).

        Used by the fault adapter's epoch-gated kernel: rows depend on
        the live fault set, so an epoch flip invalidates them all.
        Engines must not hold row references across a call (the vector
        engine never runs fault epochs; the analyzer rebuilds per
        epoch).
        """
        self._central.clear()
        self._entry.clear()
        self._inject.clear()
        self.plans.central_memo.clear()
        self.plans.entry_memo.clear()
        self.plans.inject_memo.clear()
        self._init_rows()

    def memory_bytes(self) -> int:
        """Estimated bytes of rows, row index and kernel tables
        (telemetry).

        Numpy arrays (packed rows, row-id index, kernel tables) are
        counted exactly; the per-entry cost of the three memo dicts (key
        tuple + value tuples) is estimated at a flat 200 bytes.  The
        static structure (queue and slot maps) is not counted.
        """
        total = 200 * self.size
        if self.kernel is not None:
            total += self.kernel.memory_bytes()
        if self.row_slots is not None:
            total += (
                self.row_slots.nbytes
                + self.row_queues.nbytes
                + self.row_states.nbytes
                + self.row_dyn.nbytes
                + self.row_entq.nbytes
                + self.row_entst.nbytes
                + self.row_hasint.nbytes
            )
        if self._rowid_dense is not None:
            total += self._rowid_dense.nbytes
        elif self._rowid_map is not None:
            total += 100 * len(self._rowid_map)
        return total

    # ------------------------------------------------------------------
    # Row tables
    # ------------------------------------------------------------------
    def central_row(self, qid: int, dst_i: int, sid: int) -> tuple:
        """Fill-phase row for a message in central queue ``qid``.

        Returns ``(ext_slots, ext_queues, ext_states, ext_dyn,
        internal)`` — four parallel tuples of external candidates
        sorted slot-ascending (first-wins per physical buffer, statics
        before dynamics, exactly :class:`RoutingPlanCache`), plus the
        internal ``(action, queue_id, state_id)`` steps in reference
        order (``queue_id`` is -1 for delivery).
        """
        key = (qid, dst_i, sid)
        row = self._central.get(key)
        if row is None:
            row = self._central[key] = self._build_central(qid, dst_i, sid)
        return row

    def _build_central(self, qid: int, dst_i: int, sid: int) -> tuple:
        if self.kernel is not None:
            row = self.kernel.central_row(qid, dst_i, sid)
            if row is not None:
                return row
        plan = self.plans.central_plan(
            self.queue_objs[qid], self.nodes[dst_i], self.states[sid]
        )
        ui = self.queue_node[qid]
        ext = []
        for (v, cls), (q2, new_state, dyn) in plan.external.items():
            # Candidates without a physical buffer are unreachable in
            # the reference engine too; drop them (after first-wins).
            s = self.slot_of.get((ui, self.nid[v], cls))
            if s is not None:
                ext.append(
                    (
                        s,
                        self.qid_of[(self.nid[q2.node], q2.kind)],
                        self.state_id(new_state),
                        1 if dyn else 0,
                    )
                )
        ext.sort()
        internal = tuple(
            (
                action,
                -1
                if action == DELIVER_STEP
                else self.qid_of[(ui, q2.kind)],
                sid if action == DELIVER_STEP else self.state_id(st),
            )
            for action, q2, st in plan.internal
        )
        return (
            tuple(c[0] for c in ext),
            tuple(c[1] for c in ext),
            tuple(c[2] for c in ext),
            tuple(c[3] for c in ext),
            internal,
        )

    def entry_row(self, qid: int, dst_i: int, sid: int) -> tuple[int, int]:
        """Where a packet nominally targeting ``qid`` actually lands.

        The forced-phase-switch fold of
        ``PacketSimulator._resolve_entry_queue``, on ints.
        """
        key = (qid, dst_i, sid)
        row = self._entry.get(key)
        if row is None:
            if self.kernel is not None:
                row = self.kernel.entry_row(qid, dst_i, sid)
            if row is None:
                q2, st = self.plans.entry(
                    self.queue_objs[qid], self.nodes[dst_i], self.states[sid]
                )
                row = (
                    self.qid_of[(self.nid[q2.node], q2.kind)],
                    self.state_id(st),
                )
            self._entry[key] = row
        return row

    def injection_row(self, ui: int, dst_i: int, sid: int) -> tuple:
        """Resolved injection targets: ``((queue_id, state_id), ...)``
        in the reference engine's ``sorted(targets)`` order."""
        key = (ui, dst_i, sid)
        row = self._inject.get(key)
        if row is None:
            if self.kernel is not None:
                row = self.kernel.injection_row(ui, dst_i, sid)
            if row is None:
                plan = self.plans.injection_plan(
                    self.nodes[ui], self.nodes[dst_i], self.states[sid]
                )
                row = tuple(
                    (
                        self.qid_of[(self.nid[q2.node], q2.kind)],
                        self.state_id(st),
                    )
                    for _kind, q2, st in plan
                )
            self._inject[key] = row
        return row


class _RidRows(HopRows):
    """:class:`HopRows` over packed rows gathered by row id."""

    __slots__ = ("t", "rids")

    def __init__(self, tables: RoutingTables, rids: np.ndarray):
        # The arrays are read after the gather: its misses may have
        # grown (reallocated) them.
        self.t = tables
        self.rids = rids
        self.slots = tables.row_slots[rids]
        self.hasint = tables.row_hasint[rids] != 0

    def chosen(self, rows, cols, slots):
        t = self.t
        r = self.rids[rows]
        return (
            t.row_queues[r, cols],
            t.row_states[r, cols],
            t.row_entq[r, cols],
            t.row_entst[r, cols],
            t.row_dyn[r, cols],
        )

    def internal(self, rows) -> list:
        row_internal = self.t.row_internal
        return [row_internal[r] for r in self.rids[rows].tolist()]
