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
  engine remains available for unhashable-state algorithms).

The static structure is a handful of int arrays (``queue_node``,
``node_q_start`` / ``node_q_count``, ``slot_src`` / ``slot_dst`` /
``slot_cls``, ``node_out_start`` / ``node_out_count``,
``node_in_count``, ``slot_in_pos``, ``link_first_slot``,
``slot_class_pos`` / ``slot_class_count``), computed with ``repeat`` /
``cumsum`` / ``bincount`` and one stable sort from two closed-form
hooks:
:meth:`~repro.topology.base.Topology.link_table` (neighbour ids per
node, ``link_index`` order, ``-1`` for no link) and
:meth:`~repro.core.routing_function.RoutingAlgorithm.link_class_table`
(each link's ``buffer_classes`` as a code into a short vocabulary).
Queue kinds stay a list of names (``queue_kind``).  The label-keyed
views — ``nid``, ``qid_of``, ``queue_objs``, ``queue_labels``,
``slot_labels``, ``node_in_slots``, ``link_classes`` — are built on
first use, and :meth:`RoutingTables.slot_id` indexes one sending node's
slots on its first lookup.

On top of the static structure sit three row tables, all built by
one row assembler, :class:`~repro.core.hops.HopKernel`: the
algorithm's hop kernel when ``compile_hops()`` gives one, a plain
``HopKernel`` otherwise.  Either way first-wins per physical buffer,
statics-before-dynamics order, the forced-phase-switch entry fold and
injection resolution are one piece of code; only the candidates come
from a kernel's integer arithmetic or from the symbolic routing
function.

* :meth:`central_row` — ``(queue, dst, state) ->`` parallel tuples of
  external candidates (slot / next queue / next state / dynamic flag,
  slot-ascending) plus internal ``(action, queue, state)`` steps; built
  on demand and stored only in packed form (below);
* :meth:`entry_row` — where a packet nominally heading for a queue
  actually lands after the entry fold (memoized);
* :meth:`injection_row` — resolved injection targets in the reference
  engine's ``sorted(targets)`` order, memoized (:meth:`injection_rows`
  resolves a whole cycle's injections at once, from the kernel's batch
  rows where it has them).

Rows contain only ints, so the engine's per-message work is integer
compares and array indexing; identity with the reference engine is
established by ``tests/test_sim_vector.py``.

The batched fill phase asks for whole steps of central rows at once
through :meth:`RoutingTables.fill_rows`.  When the hop kernel computes
batch rows (:meth:`~repro.core.hops.HopKernel.fill_rows`; the hypercube
and mesh schemes), they come straight from numpy arithmetic and nothing
is stored.  Otherwise :meth:`RoutingTables.central_rids` looks the
batch's keys up in one sorted int64 key index, builds each missing row
once, packs it into parallel ``(row id, candidate)`` numpy arrays, and
gathers by row id; these arrays are the only store of central rows.
They and the index are allocated on first use, so a run on batch rows
never holds them.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property
from itertools import chain
from typing import Any, Hashable

import numpy as np

from ..core.hops import NO_STEP, HopKernel, HopRows
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm

__all__ = ["EngineCapabilityError", "RoutingTables"]


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
    algorithm (labels inside tuples, kind names).  Small ints
    (-5..256) are interpreter-wide singletons and count nothing.
    """
    if type(obj) is int and -5 <= obj <= 256:
        return 0
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
    ``(queue, dst, state)``).
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
        topo = algorithm.topology

        # ---- node interning (reference engine node order) -------------
        self.nodes: list[Hashable] = list(topo.nodes())
        n = len(self.nodes)
        ids = np.arange(n, dtype=np.int64)

        # ---- central queues: global ids, node-major ----------------------
        kinds = [algorithm.central_queue_kinds(u) for u in self.nodes]
        #: Each node's queues are ``node_q_start + 0..node_q_count-1``.
        self.node_q_count = np.fromiter(
            map(len, kinds), dtype=np.int64, count=n
        )
        self.node_q_start = _exclusive_cumsum(self.node_q_count)
        #: Owning node id per global queue id.
        self.queue_node = np.repeat(ids, self.node_q_count)
        self.queue_kind: list[str] = list(chain.from_iterable(kinds))
        self.n_queues = len(self.queue_kind)

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

        #: Each slot's class position within its link and its link's
        #: class count, in the smallest unsigned dtype that holds the
        #: widest link's count (uint8 unless a link has over 255
        #: classes).  The link cycle rotates a ``k``-class link's
        #: classes by ``cycle % k`` -- exactly the reference engine's
        #: ``rotated`` -- and finds the link's first slot as ``slot -
        #: slot_class_pos``.
        class_dtype = np.min_scalar_type(int(link_k.max(initial=1)))
        self.slot_class_pos = within.astype(class_dtype)
        self.slot_class_count = np.repeat(link_k, link_k).astype(class_dtype)

        # ---- state interning + row memos -------------------------------
        self.states: list[Any] = []
        self._state_ids: dict[Any, int] = {}
        self._entry: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._inject: dict[tuple[int, int, int], tuple] = {}
        self._init_rows()

        # ---- the row assembler -----------------------------------------
        #: The algorithm's integer hop kernel, or ``None`` (symbolic
        #: candidates only).  See :mod:`repro.core.hops`.
        self.kernel = None
        if use_kernel:
            hook = getattr(algorithm, "compile_hops", None)
            if hook is not None:
                self.kernel = hook(self)
        #: The one object every row comes from.
        self.assembler = (
            self.kernel if self.kernel is not None else HopKernel(self)
        )
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
                "engine='reference' (see docs/ARCHITECTURE.md)"
            ) from exc
        if sid is None:
            sid = self._state_ids[state] = len(self.states)
            self.states.append(state)
        return sid

    @property
    def size(self) -> int:
        """Total number of stored rows: packed central rows plus the
        entry and injection memos."""
        return self._row_n + len(self._entry) + len(self._inject)

    # ------------------------------------------------------------------
    # Packed row ids (the batched engine's central-row representation)
    # ------------------------------------------------------------------
    def _init_rows(self) -> None:
        """Forget the packed central rows and their key index.

        A *row id* (rid) names one built central row; the candidate
        data lives in parallel ``(rid, candidate)`` numpy arrays so the
        batched fill phase gathers whole batches of rows without
        touching Python objects.  ``row_entq``/``row_entst`` hold the
        *entry-resolved* landing queue/state per candidate, so the read
        phase needs no further lookups; ``row_int_*`` hold the internal
        steps, so blocked rows move as array steps too.

        The index is one sorted int64 key column, ``_row_keys``, with
        each key's rid in ``_row_ids``.  A key is
        ``(sid * n_queues + qid) * n_nodes + dst``: the state id is
        outermost, so interning new states never re-keys it.  Both the
        rows and the index are allocated on the first
        :meth:`central_rids` call (:meth:`_alloc_rows`): engines whose
        kernel computes batch rows (:meth:`fill_rows`) never pack a row.
        """
        self._row_n = 0
        self.row_slots: np.ndarray | None = None
        self._row_keys: np.ndarray | None = None
        self._row_ids: np.ndarray | None = None

    #: Packed row arrays, candidate columns then internal-step columns,
    #: each -> its padding (``None``: the sentinel slot ``n_slots``).
    #: Internal steps are ``(action, queue, state)`` in reference order,
    #: right-padded with action ``NO_STEP``.
    _ROW_COLUMNS = (
        {
            "row_slots": None,
            "row_queues": -1,
            "row_states": 0,
            "row_dyn": 0,
            "row_entq": -1,
            "row_entst": 0,
        },
        {"row_int_act": NO_STEP, "row_int_q": -1, "row_int_st": 0},
    )

    def _alloc_rows(self) -> None:
        for pads, width in zip(self._ROW_COLUMNS, (4, 1)):
            for name, pad in pads.items():
                fill = self.n_slots if pad is None else pad
                setattr(
                    self, name, np.full((256, width), fill, dtype=np.int64)
                )
        # One sentinel key above every real key, so ``searchsorted``
        # always lands on an entry.
        self._row_keys = np.array([np.iinfo(np.int64).max], dtype=np.int64)
        self._row_ids = np.array([-1], dtype=np.int64)

    @property
    def rows_packed(self) -> int:
        """Number of central rows packed into the rid arrays."""
        return self._row_n

    def _grow_rows(self, width: int, int_width: int) -> None:
        """Double the row capacity when full and widen the candidate
        (``width``) and internal-step (``int_width``) columns to fit."""
        cap = self.row_slots.shape[0]
        new_cap = cap if self._row_n < cap else cap * 2
        for pads, need in zip(self._ROW_COLUMNS, (width, int_width)):
            for name, pad in pads.items():
                old = getattr(self, name)
                w = new_w = old.shape[1]
                while new_w < need:
                    new_w *= 2
                if new_w == w and new_cap == cap:
                    continue
                arr = np.full(
                    (new_cap, new_w),
                    self.n_slots if pad is None else pad,
                    dtype=np.int64,
                )
                arr[:cap, :w] = old
                setattr(self, name, arr)

    def _pack_row(self, dst_i: int, row: tuple) -> int:
        slots, queues, states, dyn, internal = row
        nc = len(slots)
        ni = len(internal)
        if (
            self._row_n >= self.row_slots.shape[0]
            or nc > self.row_slots.shape[1]
            or ni > self.row_int_act.shape[1]
        ):
            self._grow_rows(nc, ni)
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
        if ni:
            acts, qs, sts = zip(*internal)
            self.row_int_act[rid, :ni] = acts
            self.row_int_q[rid, :ni] = qs
            self.row_int_st[rid, :ni] = sts
        return rid

    def central_rid(self, qid: int, dst_i: int, sid: int) -> int:
        """Packed row id for ``(qid, dst_i, sid)`` (built on first use)."""
        key = np.array([qid, dst_i, sid], dtype=np.int64)
        return int(self.central_rids(key[:1], key[1:2], key[2:])[0])

    def central_rids(
        self, qids: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> np.ndarray:
        """Packed row ids for a batch of keys (built on first use).

        One ``searchsorted`` + compare + gather on the key index.  Each
        distinct missing key is built and packed once, in the order of
        its first occurrence, and the new keys are merged into the index
        once per call.
        """
        if self.row_slots is None:
            self._alloc_rows()
        keys = (sids * self.n_queues + qids) * len(self.nodes) + dsts
        at = np.searchsorted(self._row_keys, keys)
        rids = self._row_ids[at]
        misses = np.flatnonzero(self._row_keys[at] != keys)
        if misses.size:
            missed = keys[misses].tolist()
            built: dict[int, int] = {}
            for i, key in zip(misses.tolist(), missed):
                if key not in built:
                    dst_i = int(dsts[i])
                    row = self.central_row(int(qids[i]), dst_i, int(sids[i]))
                    built[key] = self._pack_row(dst_i, row)
            rids[misses] = [built[key] for key in missed]
            new, new_rids = np.array(sorted(built.items())).T
            at = np.searchsorted(self._row_keys, new)
            self._row_keys = np.insert(self._row_keys, at, new)
            self._row_ids = np.insert(self._row_ids, at, new_rids)
        return rids

    def fill_rows(
        self, qids: np.ndarray, dsts: np.ndarray, sids: np.ndarray
    ) -> HopRows:
        """Central rows for one batched fill step, as a :class:`HopRows`.

        The kernel's batch rows when it computes them (no memo, no
        packed storage); otherwise a view over packed rows gathered by
        :meth:`central_rids`.  Both are identical on every key.
        """
        rows = self.assembler.fill_rows(qids, dsts, sids)
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
        self._entry.clear()
        self._inject.clear()
        self._init_rows()

    def memory_bytes(self) -> int:
        """Bytes of the structure, rows, row index and kernel tables
        (telemetry).

        Numpy arrays (structure, packed rows, key index, kernel tables)
        are counted by ``nbytes``; the structure's lists, the per-node
        slot indices, whichever label-keyed views have been built and
        the entry and injection memos (keys, row tuples and their ints)
        by their measured size.
        """
        total = _measured_bytes(self._entry, 2)
        total += _measured_bytes(self._inject, 3)
        total += self._structure_bytes()
        if self.kernel is not None:
            total += self.kernel.memory_bytes()
        if self.row_slots is not None:
            total += self._row_keys.nbytes + self._row_ids.nbytes
            total += sum(
                getattr(self, name).nbytes
                for pads in self._ROW_COLUMNS
                for name in pads
            )
        return total

    def _structure_bytes(self) -> int:
        """Measured bytes of the static structure and its built views."""
        arrays = (
            self.queue_node, self.node_q_start, self.node_q_count,
            self.slot_src, self.slot_dst, self.slot_cls, self.slot_in_pos,
            self.node_out_start, self.node_out_count, self.node_in_count,
            self.link_first_slot, self.slot_class_pos, self.slot_class_count,
        )
        held = [
            (self.nodes, 1),
            (self.queue_kind, 0),
            (self.class_names, 0),
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
        """Fill-phase row for a message in central queue ``qid``:
        :meth:`~repro.core.hops.HopKernel.central_row`.

        Built on every call: :meth:`central_rids` calls it once per key,
        on a miss, and stores the packed form only.
        """
        return self.assembler.central_row(qid, dst_i, sid)

    def entry_row(self, qid: int, dst_i: int, sid: int) -> tuple[int, int]:
        """Where a packet nominally targeting ``qid`` actually lands
        (:meth:`~repro.core.hops.HopKernel.entry_row`, memoized)."""
        key = (qid, dst_i, sid)
        row = self._entry.get(key)
        if row is None:
            row = self._entry[key] = self.assembler.entry_row(*key)
        return row

    def injection_row(self, ui: int, dst_i: int, sid: int) -> tuple:
        """Resolved injection targets: ``((queue_id, state_id), ...)``
        in the reference engine's ``sorted(targets)`` order
        (:meth:`~repro.core.hops.HopKernel.injection_row`, memoized)."""
        key = (ui, dst_i, sid)
        row = self._inject.get(key)
        if row is None:
            row = self._inject[key] = self.assembler.injection_row(*key)
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
        rows = self.assembler.injection_rows(srcs, dsts, sids)
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
        self.hasint = tables.row_int_act[rids, 0] != NO_STEP

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

    def internal(self, rows):
        t = self.t
        r = self.rids[rows]
        return t.row_int_act[r], t.row_int_q[r], t.row_int_st[r]
