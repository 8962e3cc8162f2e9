"""Integer hop kernels: the ``compile_hops()`` compilation target.

The routing functions of this repo are *pure*: every candidate set is a
deterministic function of ``(queue, destination, state)``.  The generic
engines evaluate them symbolically (frozensets of
:class:`~repro.core.queues.QueueId`), and
:class:`~repro.sim.plans.RoutingPlanCache` memoizes the resolved
answer — but the memo-miss path still allocates Python objects, which
is what bounds the vector engine under saturated traffic
(docs/PERFORMANCE.md).  A *hop kernel* is the same hop relation
re-expressed directly over the dense integer identifiers of
:class:`~repro.sim.tables.RoutingTables`, so a row miss costs integer
arithmetic instead of frozenset/QueueId churn.

Contract (see docs/ARCHITECTURE.md, "Table compilation"):

* :meth:`HopKernel.central_row`, :meth:`HopKernel.entry_row` and
  :meth:`HopKernel.injection_row` must return *exactly* the rows the
  plan-cache translation in :class:`~repro.sim.tables.RoutingTables`
  would build — same candidate order (statics before dynamics,
  first-wins per physical buffer, external candidates slot-ascending),
  same entry fold, same injection order — because engines and the
  static analyzer consume both paths interchangeably;
* any method may return ``None`` for any key: the caller falls back to
  the plan-cache translation for that row.  Kernels use this to decline
  keys whose symbolic evaluation raises intentionally (exhausted
  shuffle counters, off-network Benes injections), so error messages
  stay byte-identical with the generic engines;
* a ``compile_hops()`` implementation must return ``None`` (no kernel)
  whenever it cannot vouch for identity — unknown subclass, unexpected
  topology, inhomogeneous queue structure.  Fallback is always safe.

A kernel may also offer *batch rows*: :meth:`HopKernel.fill_rows`
computes the central rows of a whole fill step at once, as numpy
arithmetic, and returns a :class:`HopRows` view the batched fill phase
consumes directly — no per-key memo, no packed row storage.  Its
obligation is the same identity: on *every* key, reachable or not, the
batch row equals :meth:`~repro.sim.tables.RoutingTables.central_row`
(slots, next queues/states, dynamic flags, internal steps) and each
candidate's landing queue equals
:meth:`~repro.sim.tables.RoutingTables.entry_row`.  Returning ``None``
declines the batch; the tables then gather packed rows by row id
(``RoutingTables.central_rids``), the path every kernel-less algorithm
takes.  The two-phase kernels (hypercube; mesh and torus, which share
one coordinate kernel) share one view, :class:`TwoPhaseRows`.

Injection has the same batch form: :meth:`HopKernel.injection_rows`
resolves a whole cycle's injections at once, and must equal
:meth:`~repro.sim.tables.RoutingTables.injection_row` (which it may
only answer for when that row has exactly one target) on every key.
The two-phase kernels answer it through :class:`TwoPhaseKernel`.

The two-phase kernels answer batch rows *only*: every engine injection
goes through ``injection_rows`` and every vector fill through
``fill_rows``, so no engine asks them for a scalar row, and their
scalar methods decline every key to the plan-cache translation.  The
other kernels (shuffle-exchange, CCC, Beneš, buffer pool) state scalar
rows and no batch rows.

:class:`TableHopKernel` implements the generic row assembly (first-wins
slot filtering, the entry fold, injection resolution) on top of two
per-algorithm primitives — :meth:`TableHopKernel.candidates` and
:meth:`TableHopKernel.inject_candidates` — so an algorithm's kernel
only re-states its hop relation, not the engine semantics.

This module also owns the internal-step action codes shared by the
plan cache and the kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .routing_function import DYNAMIC_CLASS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports core)
    from ..sim.tables import RoutingTables

__all__ = [
    "DELIVER_STEP",
    "SELF_STEP",
    "MOVE_STEP",
    "NO_STEP",
    "HopKernel",
    "HopRows",
    "TableHopKernel",
    "TwoPhaseKernel",
    "TwoPhaseRows",
    "mask_dims",
]

#: Internal-step action codes (shared by plan cache, tables and kernels).
DELIVER_STEP = 0  #: move to the delivery queue
SELF_STEP = 1  #: degenerate self-hop: state advances in place
MOVE_STEP = 2  #: move into a sibling central queue (capacity permitting)
NO_STEP = -1  #: padding after a row's last internal step (array form)


class HopRows:
    """Central rows of one batched fill step (``M`` messages).

    ``slots`` is an ``(M, W)`` int matrix: row ``i`` holds message
    ``i``'s external candidate slots in ascending order, padded on the
    right with ``n_slots`` (the engine's permanently occupied sentinel
    slot).  ``hasint`` is an ``(M,)`` bool array: whether the row has
    internal steps.  Subclasses implement the two lookups, which the
    batched fill phase calls once per cycle each: :meth:`chosen` on
    every picked candidate, :meth:`internal` on every blocked row.
    """

    __slots__ = ("slots", "hasint")

    def chosen(self, rows, cols, slots):
        """Per picked candidate ``(rows[k], cols[k])`` (whose slot is
        ``slots[k]``): ``(next_queue, next_state, entry_queue,
        entry_state, dynamic)`` int arrays, the entry pair resolved as
        :meth:`~repro.sim.tables.RoutingTables.entry_row` would."""
        raise NotImplementedError

    def internal(self, rows):
        """The internal steps of each row in ``rows``: ``(action,
        queue, state)`` int arrays of shape ``(len(rows), w)``, one
        column per step in :meth:`HopKernel.central_row`'s order,
        right-padded with action :data:`NO_STEP` (whose queue and state
        are unspecified)."""
        raise NotImplementedError


class TwoPhaseRows(HopRows):
    """Batch rows of a two-phase kernel (hypercube, mesh, torus).

    Queue ids factor as ``node * nk + kind``, phase A an even kind and
    phase B the odd kind after it.  Every hop keeps the state; a static
    hop lands in its slot's kind, a dynamic one in the current kind,
    and a phase-A landing folds to phase B when the neighbour is not
    the destination and has no phase-A correction left (the entry
    fold).  The only internal steps are delivery and the in-place
    switch to phase B.  See :class:`TwoPhaseKernel` for the hooks.
    """

    __slots__ = ("kernel", "qids", "dsts", "sids", "done")

    def __init__(self, kernel, slots, hasint, qids, dsts, sids, done):
        self.kernel = kernel
        self.slots = slots
        self.hasint = hasint
        self.qids = qids
        self.dsts = dsts
        self.sids = sids
        self.done = done

    def chosen(self, rows, cols, slots):
        k = self.kernel
        v = k.slot_node[slots]
        sk = k.slot_kind[slots]
        dyn = sk < 0
        kind = np.where(dyn, self.qids[rows] % k.nk, sk)
        dst = self.dsts[rows]
        states = self.sids[rows]
        queues = v * k.nk + kind
        fold = ((kind & 1) == 0) & (v != dst) & k.a_done(v, dst, states)
        return queues, states, queues + fold, states, dyn.view(np.int8)

    def internal(self, rows):
        # One step (w = 1): delivery, or the switch to phase B (kind+1).
        qids = self.qids[rows]
        done = self.done[rows]
        action = np.where(
            done,
            DELIVER_STEP,
            np.where(self.hasint[rows], MOVE_STEP, NO_STEP),
        )
        queue = np.where(done, -1, qids | 1)
        return action[:, None], queue[:, None], self.sids[rows][:, None]


class HopKernel:
    """Base class for compiled hop relations.

    Subclasses override the three row methods; each may return ``None``
    per key to decline (the caller falls back to the plan-cache
    translation, which must then produce the identical row or raise the
    identical error the symbolic evaluation would).  Kernels whose hop
    relation is plain arithmetic also override :meth:`fill_rows`.
    """

    def fill_rows(self, qids, dsts, sids) -> HopRows | None:
        """Batch central rows for int arrays of keys, or ``None``."""
        return None

    def injection_rows(self, srcs, dsts, sids):
        """Batch injection rows for int arrays of keys, or ``None``.

        ``(queues, states)`` int arrays: the one resolved target of
        each key's :meth:`~repro.sim.tables.RoutingTables.injection_row`.
        Only kernels whose every injection row has exactly one target
        may answer; ``None`` declines the batch (the tables then resolve
        it key by key).
        """
        return None

    def memory_bytes(self) -> int:
        """Bytes of precomputed kernel tables (telemetry estimate)."""
        return 0

    def central_row(self, qid: int, dst_i: int, sid: int):
        return None

    def entry_row(self, qid: int, dst_i: int, sid: int):
        return None

    def injection_row(self, ui: int, dst_i: int, sid: int):
        return None


class TableHopKernel(HopKernel):
    """Generic row assembly over per-algorithm integer primitives.

    A subclass states the raw hop relation via

    * :meth:`candidates` — ``(static, dynamic)`` sequences of
      ``(next_queue_gid, new_state_id)`` pairs (``-1`` for the delivery
      queue), *before* slot filtering, in the same candidate order the
      symbolic ``static_hops`` / ``dynamic_hops`` would surface them;
    * :meth:`inject_candidates` — injection targets in the reference
      engine's ``sorted(targets)`` order, with the injection
      ``update_state`` already applied;

    and this base class replays the engine semantics: first-wins per
    ``(neighbor, class)``, drop candidates without a physical buffer
    *after* first-wins, external candidates slot-ascending, the
    forced-phase-switch entry fold, injection entry resolution.

    Requires a *homogeneous* queue structure (same
    ``central_queue_kinds`` tuple at every node) so global queue ids
    factor as ``node_index * n_kinds + kind_index``; construction sets
    :attr:`ok` False otherwise and ``compile_hops()`` should then
    return ``None``.
    """

    def __init__(self, layout: "RoutingTables"):
        self.t = layout
        n = len(layout.nodes)
        nk = int(layout.node_q_count[0]) if n else 0
        kinds = tuple(layout.queue_kind[:nk])
        self.nk = nk
        self.kinds = kinds
        self.ok = nk > 0 and layout.queue_kind == list(kinds) * n

    # -- per-algorithm primitives --------------------------------------
    def candidates(self, qid: int, dst_i: int, sid: int):
        """``(static, dynamic)`` candidate pairs, or ``None`` to decline."""
        raise NotImplementedError

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        """Injection ``(queue_gid, state_id)`` pairs, or ``None``."""
        raise NotImplementedError

    # -- generic row assembly ------------------------------------------
    def central_row(self, qid: int, dst_i: int, sid: int):
        cands = self.candidates(qid, dst_i, sid)
        if cands is None:
            return None
        statics, dynamics = cands
        nk = self.nk
        kinds = self.kinds
        slot_id = self.t.slot_id
        ui = qid // nk
        ext: list[tuple[int, int, int, int]] = []
        internal: list[tuple[int, int, int]] = []
        seen: set[tuple[int, str]] | None = None
        for dyn, cl in ((0, statics), (1, dynamics)):
            for q2, nsid in cl:
                if q2 < 0:
                    internal.append((DELIVER_STEP, -1, sid))
                    continue
                vi = q2 // nk
                if vi == ui:
                    if q2 == qid:
                        internal.append((SELF_STEP, q2, nsid))
                    else:
                        internal.append((MOVE_STEP, q2, nsid))
                    continue
                cls = DYNAMIC_CLASS if dyn else kinds[q2 % nk]
                key = (vi, cls)
                if seen is None:
                    seen = {key}
                elif key in seen:
                    continue  # first-wins per (neighbor, class)
                else:
                    seen.add(key)
                s = slot_id(ui, vi, cls)
                if s is not None:
                    ext.append((s, q2, nsid, dyn))
        ext.sort()
        return (
            tuple(c[0] for c in ext),
            tuple(c[1] for c in ext),
            tuple(c[2] for c in ext),
            tuple(c[3] for c in ext),
            tuple(internal),
        )

    def entry_row(self, qid: int, dst_i: int, sid: int):
        # The forced-phase-switch fold of RoutingPlanCache._resolve_entry.
        nk = self.nk
        node = qid // nk
        for _ in range(8):  # bounded by the internal-chain length
            cands = self.candidates(qid, dst_i, sid)
            if cands is None:
                return None
            statics, dynamics = cands
            if dynamics or len(statics) != 1:
                break
            q2, nsid = statics[0]
            if q2 < 0 or q2 == qid or q2 // nk != node:
                break
            qid, sid = q2, nsid
        return (qid, sid)

    def injection_row(self, ui: int, dst_i: int, sid: int):
        cl = self.inject_candidates(ui, dst_i, sid)
        if cl is None:
            return None
        out = []
        for q2, nsid in cl:
            resolved = self.entry_row(q2, dst_i, nsid)
            if resolved is None:
                return None
            out.append(resolved)
        return tuple(out)


class TwoPhaseKernel(HopKernel):
    """Shared batch hooks of the two-phase kernels (hypercube, grid).

    These kernels answer batch rows only: every scalar row method
    declines, so a scalar key (the static analyzer, the fault adapter,
    tests) takes the plan-cache translation.  Queue kinds must be
    ``kinds`` (phase A, phase B per class) at every node, or :attr:`ok`
    is False and ``compile_hops()`` returns no kernel.

    A packet enters class 0 at its source: phase A while it has an
    increasing correction left toward its destination and phase B
    otherwise, with its state unchanged, and neither entry folds
    further — so a whole batch of injection rows is one :meth:`a_done`
    call.  Subclasses implement :meth:`a_done` and :meth:`fill_rows`
    (returning :class:`TwoPhaseRows`).
    """

    def __init__(self, layout: "RoutingTables", kinds: tuple[str, ...]):
        self.t = layout
        self.kinds = kinds
        self.nk = len(kinds)
        n = len(layout.nodes)
        self.ok = n > 0 and layout.queue_kind == list(kinds) * n

    def a_done(self, v, dst, sids):
        """Whether each node ``v`` has no phase-A correction left
        toward ``dst`` for a message in state ``sids`` (bool array)."""
        raise NotImplementedError

    def _slot_columns(self) -> None:
        """The :class:`TwoPhaseRows` slot columns: each slot's
        ``slot_node`` (receiving node) and int8 ``slot_kind`` (its
        class's kind index, ``-1`` on the dynamic class)."""
        t = self.t
        self.slot_node = t.slot_dst
        codes = [
            self.kinds.index(c) if c in self.kinds else -1
            for c in t.class_names
        ]
        self.slot_kind = np.array(codes, dtype=np.int8)[t.slot_cls]

    def injection_rows(self, srcs, dsts, sids):
        return srcs * self.nk + self.a_done(srcs, dsts, sids), sids


def mask_dims(n: int) -> np.ndarray:
    """``(2**n, n)`` uint8 table: row ``m`` lists the set bits of mask
    ``m`` ascending, padded with ``n`` — one gather compacts a kernel's
    slot-ascending candidate columns, padding right, with no sort.

    Built by doubling: masks ``[2^d, 2^(d+1))`` are masks ``[0, 2^d)``
    plus dimension ``d``, listed after their popcount dimensions.
    """
    size = 1 << n
    dims = np.empty((size, n), dtype=np.uint8)
    dims[0] = n
    count = np.zeros(size, dtype=np.uint8)  # popcount of each mask
    for d in range(n):
        lo = 1 << d
        dims[lo : 2 * lo] = dims[:lo]
        dims[np.arange(lo, 2 * lo), count[:lo]] = d
        count[lo : 2 * lo] = count[:lo] + 1
    return dims
