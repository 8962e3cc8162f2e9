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

The static structure is a handful of int arrays (``queue_node``,
``slot_src`` / ``slot_dst`` / ``slot_cls``, ``node_out_start`` /
``node_out_count``, ``node_in_count``, ``slot_in_pos``,
``link_first_slot``, ``link_groups``), computed with ``repeat`` /
``cumsum`` / ``bincount`` and one stable sort from two closed-form
hooks: :meth:`~repro.topology.base.Topology.link_table` (neighbour ids
per node, ``link_index`` order, ``-1`` for no link) and
:meth:`~repro.core.routing_function.RoutingAlgorithm.link_class_table`
(each link's ``buffer_classes`` as a code into a short vocabulary).
Python lists remain where sparse loops index them (``queue_kind``,
``node_qids``).  The label-keyed views — ``nid``, ``qid_of``,
``queue_objs``, ``queue_labels``, ``slot_labels``, ``node_in_slots``,
``link_classes`` — are built on first use, and :meth:`RoutingTables.slot_id` indexes one sending
node's slots on its first lookup.

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
  engine's ``sorted(targets)`` order (:meth:`injection_rows` resolves
  a whole cycle's injections at once, from the kernel's batch rows
  where it has them).

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

import sys
import time
from functools import cached_property
from itertools import chain
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


class EngineCapabilityError(TypeError):
    """A requested engine cannot run the requested configuration.

    Raised with a message that names the limitation and the engines
    that do support the configuration (see the engine matrix in
    ``docs/ARCHITECTURE.md``).
    """


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive runs of the given lengths."""
    return np.cumsum(counts) - counts


def _measured_bytes(obj, depth: int) -> int:
    """``sys.getsizeof`` of ``obj`` and, ``depth`` levels down, of the
    items of each list, tuple or dict (keys and values) it holds.

    Walks without bookkeeping, so measuring allocates nothing; the
    depth stops it above objects shared with the topology and the
    algorithm (labels inside tuples, kind names).
    """
    total = sys.getsizeof(obj)
    if depth:
        if isinstance(obj, dict):
            total += sum(
                _measured_bytes(k, depth - 1) + _measured_bytes(v, depth - 1)
                for k, v in obj.items()
            )
        elif isinstance(obj, (list, tuple)):
            total += sum(_measured_bytes(x, depth - 1) for x in obj)
    return total


class RoutingTables:
    """Dense integer lowering of one routing algorithm + topology.

    One instance may be shared by several
    :class:`~repro.sim.vector.VectorSimulator` objects built around the
    *same* algorithm instance (rows are pure functions of
    ``(queue, dst, state)``), mirroring how
    :class:`~repro.sim.plans.RoutingPlanCache` is shared by compiled
    simulators.
    """

    #: Label-keyed views built on first use -> the depth to which
    #: :meth:`memory_bytes` measures them.
    _VIEWS = {
        "nid": 1,
        "qid_of": 2,
        "queue_objs": 1,
        "queue_labels": 0,
        "slot_labels": 1,
        "node_in_slots": 2,
        "link_classes": 1,
    }

    def __init__(self, algorithm: RoutingAlgorithm, use_kernel: bool = True):
        t_start = time.perf_counter()
        self.algorithm = algorithm
        self.plans = RoutingPlanCache(algorithm)
        topo = algorithm.topology

        # ---- node interning (reference engine node order) -------------
        self.nodes: list[Hashable] = list(topo.nodes())
        n = len(self.nodes)
        ids = np.arange(n, dtype=np.int64)

        # ---- central queues: global ids, node-major ----------------------
        kinds = [algorithm.central_queue_kinds(u) for u in self.nodes]
        qcount = np.fromiter(map(len, kinds), dtype=np.int64, count=n)
        #: Owning node id per global queue id.
        self.queue_node = np.repeat(ids, qcount)
        self.queue_kind: list[str] = list(chain.from_iterable(kinds))
        self.n_queues = len(self.queue_kind)
        if n and (qcount == qcount[0]).all():
            width = int(qcount[0])
            qids = np.arange(self.n_queues).reshape(n, width).tolist()
        else:
            flat = list(range(self.n_queues))
            qids = [
                flat[a : a + c]
                for a, c in zip(
                    _exclusive_cumsum(qcount).tolist(), qcount.tolist()
                )
            ]
        self.node_qids: list[list[int]] = qids

        # ---- links: the topology's and algorithm's closed forms --------
        nbr = topo.link_table()
        codes, vocab = algorithm.link_class_table(self.nodes, nbr)
        has = nbr >= 0
        self.n_links = int(has.sum())
        link_dst = nbr[has]  # node-major, link_index ascending
        link_code = codes[has]
        class_id: dict[str, int] = {}
        vocab_ids = [
            [class_id.setdefault(c, len(class_id)) for c in classes]
            for classes in vocab
        ]
        #: Buffer class names; ``slot_cls`` holds indices into this.
        self.class_names: list[str] = list(class_id)
        vocab_k = np.array([len(v) for v in vocab_ids], dtype=np.int64)
        vocab_flat = np.array(
            list(chain.from_iterable(vocab_ids)), dtype=np.int64
        )
        link_k = vocab_k[link_code]
        link_first = _exclusive_cumsum(link_k)

        # ---- link buffer slots: global ids, node-major, low-to-high ----
        self.n_slots = int(link_k.sum())
        #: First slot of each link, indexed like the link table
        #: (``-1`` where there is no link); a link's classes occupy
        #: consecutive slots in ``buffer_classes`` order.
        self.link_first_slot = np.full(nbr.shape, -1, dtype=np.int64)
        self.link_first_slot[has] = link_first
        self.slot_src = np.repeat(np.repeat(ids, has.sum(axis=1)), link_k)
        self.slot_dst = np.repeat(link_dst, link_k)
        within = np.arange(self.n_slots) - np.repeat(link_first, link_k)
        self.slot_cls = vocab_flat[
            np.repeat(_exclusive_cumsum(vocab_k)[link_code], link_k) + within
        ]
        self.node_out_count = np.bincount(self.slot_src, minlength=n)
        self.node_out_start = _exclusive_cumsum(self.node_out_count)
        self._slot_index: dict[int, dict[tuple[int, str], int]] = {}

        # Input-side view: reference ``in_keys[v]`` appends in outer
        # sender-node order, so it equals "slots with slot_dst == v,
        # ascending global slot id" -- a stable sort by receiver.
        self.node_in_count = np.bincount(self.slot_dst, minlength=n)
        self.slot_in_pos = np.empty(self.n_slots, dtype=np.int64)
        in_start = _exclusive_cumsum(self.node_in_count)
        self.slot_in_pos[self._in_order()] = np.arange(
            self.n_slots
        ) - np.repeat(in_start, self.node_in_count)

        #: Directed links grouped by class count ``k``: an ``(L, k)``
        #: int array of slot ids per group, groups in order of their
        #: first link.  Per-link class rotation is ``cycle % k``,
        #: exactly the reference engine's ``rotated``.
        firsts = []
        for k in dict.fromkeys(vocab_k.tolist()):
            mask = link_k == k
            if mask.any():
                firsts.append((int(mask.argmax()), k, mask))
        self.link_groups: dict[int, np.ndarray] = {
            k: link_first[mask][:, None] + np.arange(k, dtype=np.int64)
            for _, k, mask in sorted(firsts, key=lambda f: f[0])
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
    # Label-keyed views (built on first use)
    # ------------------------------------------------------------------
    @cached_property
    def nid(self) -> dict[Hashable, int]:
        """Node label -> node id."""
        return {u: i for i, u in enumerate(self.nodes)}

    @cached_property
    def qid_of(self) -> dict[tuple[int, str], int]:
        """``(node id, kind) ->`` global queue id."""
        keys = zip(self.queue_node.tolist(), self.queue_kind)
        return {key: q for q, key in enumerate(keys)}

    @cached_property
    def queue_objs(self) -> list[QueueId]:
        """Interned :class:`QueueId` per global queue id."""
        return list(map(QueueId, self.queue_labels, self.queue_kind))

    @cached_property
    def queue_labels(self) -> list[Hashable]:
        """Owning node label per global queue id (event logs)."""
        nodes = self.nodes
        return [nodes[ui] for ui in self.queue_node.tolist()]

    @cached_property
    def slot_labels(self) -> list[tuple[Hashable, Hashable, str]]:
        """``(u_label, v_label, class)`` per slot (event logs)."""
        nodes = self.nodes
        names = self.class_names
        return [
            (nodes[u], nodes[v], names[c])
            for u, v, c in zip(
                self.slot_src.tolist(),
                self.slot_dst.tolist(),
                self.slot_cls.tolist(),
            )
        ]

    @cached_property
    def node_in_slots(self) -> list[list[int]]:
        """Slots into each node, ascending (the reference engine's
        input-buffer rotation order)."""
        order = self._in_order().tolist()
        ends = np.cumsum(self.node_in_count).tolist()
        return [order[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @cached_property
    def link_classes(self) -> dict[tuple, tuple[str, ...]]:
        """``(u_label, v_label) -> classes`` in reference insertion
        order (node-major, ``link_index`` ascending)."""
        nbr = self.algorithm.topology.link_table()
        codes, vocab = self.algorithm.link_class_table(self.nodes, nbr)
        has = nbr >= 0
        nodes = self.nodes
        return {
            (nodes[u], nodes[v]): vocab[c]
            for u, v, c in zip(
                np.nonzero(has)[0].tolist(),
                nbr[has].tolist(),
                codes[has].tolist(),
            )
        }

    def _in_order(self) -> np.ndarray:
        """Slot ids stably sorted by receiving node.  Up to 65,536
        nodes the ids fit 16-bit keys, which numpy radix-sorts."""
        keys = self.slot_dst
        if len(self.nodes) <= 1 << 16:
            keys = keys.astype(np.uint16)
        return np.argsort(keys, kind="stable")

    def slot_id(self, ui: int, vi: int, cls: str) -> int | None:
        """Slot of class ``cls`` on link ``ui -> vi`` (node ids), or
        ``None`` where the link or the class is absent.

        Each sending node's ``(vi, cls) -> slot`` index is built on its
        first lookup, so sparse row builds pay dict speed without a
        network-wide map.
        """
        index = self._slot_index.get(ui)
        if index is None:
            a = int(self.node_out_start[ui])
            b = a + int(self.node_out_count[ui])
            names = self.class_names
            index = self._slot_index[ui] = {
                (v, names[c]): s
                for s, v, c in zip(
                    range(a, b),
                    self.slot_dst[a:b].tolist(),
                    self.slot_cls[a:b].tolist(),
                )
            }
        return index.get((vi, cls))

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
        """Bytes of the structure, rows, row index and kernel tables
        (telemetry).

        Numpy arrays (structure, packed rows, row-id index, kernel
        tables) are counted by ``nbytes``; the structure's lists, the
        per-node slot indices and whichever label-keyed views have been
        built by their measured size.  The per-entry cost of the three
        memo dicts (key tuple + value tuples) is estimated at a flat
        200 bytes.
        """
        total = 200 * self.size + self._structure_bytes()
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

    def _structure_bytes(self) -> int:
        """Measured bytes of the static structure and its built views."""
        arrays = (
            self.queue_node, self.slot_src, self.slot_dst, self.slot_cls,
            self.slot_in_pos, self.node_out_start, self.node_out_count,
            self.node_in_count, self.link_first_slot,
            *self.link_groups.values(),
        )
        held = [
            (self.nodes, 1),
            (self.queue_kind, 0),
            (self.class_names, 0),
            (self.node_qids, 2),
            (self._slot_index, 2),
        ]
        held += [
            (self.__dict__[name], depth)
            for name, depth in self._VIEWS.items()
            if name in self.__dict__
        ]
        return sum(a.nbytes for a in arrays) + sum(
            _measured_bytes(obj, depth) for obj, depth in held
        )

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
        ui = int(self.queue_node[qid])
        ext = []
        for (v, cls), (q2, new_state, dyn) in plan.external.items():
            # Candidates without a physical buffer are unreachable in
            # the reference engine too; drop them (after first-wins).
            s = self.slot_id(ui, self.nid[v], cls)
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

    def injection_rows(
        self, srcs: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry queue and state of a batch of injections.

        ``(queues, states)`` int arrays: each key's single
        :meth:`injection_row` target, or queue ``-1`` where that row
        has no or several targets.  The kernel's batch rows when it
        computes them (no memo); otherwise resolved key by key.
        """
        if self.kernel is not None:
            rows = self.kernel.injection_rows(srcs, dsts, sids)
            if rows is not None:
                return rows
        queues = np.full(len(srcs), -1, dtype=np.int64)
        states = np.zeros(len(srcs), dtype=np.int64)
        keys = zip(srcs.tolist(), dsts.tolist(), sids.tolist())
        for i, key in enumerate(keys):
            row = self.injection_row(*key)
            if len(row) == 1:
                queues[i], states[i] = row[0]
        return queues, states


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
