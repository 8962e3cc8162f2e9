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
takes.  The two-phase kernels (hypercube, mesh) share one view,
:class:`TwoPhaseRows`.

:class:`TableHopKernel` implements the generic row assembly (first-wins
slot filtering, the entry fold, injection resolution) on top of two
per-algorithm primitives — :meth:`TableHopKernel.candidates` and
:meth:`TableHopKernel.inject_candidates` — so an algorithm's kernel
only re-states its hop relation, not the engine semantics.

This module also owns the internal-step action codes shared by the
plan cache and the kernels (``sim.plans`` re-exports them for
backwards compatibility).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .routing_function import DYNAMIC_CLASS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports core)
    from ..sim.tables import RoutingTables

__all__ = [
    "DELIVER_STEP",
    "SELF_STEP",
    "MOVE_STEP",
    "HopKernel",
    "HopRows",
    "TableHopKernel",
    "TwoPhaseRows",
]

#: Internal-step action codes (shared by plan cache, tables and kernels).
DELIVER_STEP = 0  #: move to the delivery queue
SELF_STEP = 1  #: degenerate self-hop: state advances in place
MOVE_STEP = 2  #: move into a sibling central queue (capacity permitting)


class HopRows:
    """Central rows of one batched fill step (``M`` messages).

    ``slots`` is an ``(M, W)`` int matrix: row ``i`` holds message
    ``i``'s external candidate slots in ascending order, padded on the
    right with ``n_slots`` (the engine's permanently occupied sentinel
    slot).  ``hasint`` is an ``(M,)`` bool array: whether the row has
    internal steps.  Subclasses implement the two per-pick lookups.
    """

    __slots__ = ("slots", "hasint")

    def chosen(self, rows, cols, slots):
        """Per picked candidate ``(rows[k], cols[k])`` (whose slot is
        ``slots[k]``): ``(next_queue, next_state, entry_queue,
        entry_state, dynamic)`` int arrays, the entry pair resolved as
        :meth:`~repro.sim.tables.RoutingTables.entry_row` would."""
        raise NotImplementedError

    def internal(self, rows) -> list:
        """The internal ``(action, queue, state)`` step tuples of each
        row in ``rows``, as :meth:`HopKernel.central_row` states them."""
        raise NotImplementedError


class TwoPhaseRows(HopRows):
    """Batch rows of a two-phase kernel (the hypercube and mesh schemes).

    Queue ids factor as ``node * 2 + phase`` (phase 0 = ``qA``, 1 =
    ``qB``).  Every hop keeps the state and the phase; a phase-A hop
    lands in ``qB`` when the neighbour is not the destination and has no
    phase-A correction left (the entry fold).  The only internal steps
    are delivery and the in-place switch from ``qA`` to ``qB``.  The
    kernel supplies ``slot_node`` / ``slot_dyn`` (the neighbour and
    dynamic flag of each candidate slot) and :meth:`a_done`.
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
        phase = self.qids[rows] & 1
        dst = self.dsts[rows]
        states = self.sids[rows]
        queues = (v << 1) | phase
        fold = (phase == 0) & (v != dst) & k.a_done(v, dst)
        return queues, states, queues | fold, states, k.slot_dyn[slots]

    def internal(self, rows) -> list:
        return [
            ((DELIVER_STEP, -1, s),) if d
            else ((MOVE_STEP, q | 1, s),) if h
            else ()
            for q, s, d, h in zip(
                self.qids[rows].tolist(),
                self.sids[rows].tolist(),
                self.done[rows].tolist(),
                self.hasint[rows].tolist(),
            )
        ]


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
        nk = len(layout.node_qids[0]) if n else 0
        kinds = tuple(layout.queue_kind[:nk])
        self.nk = nk
        self.kinds = kinds
        self.ok = (
            nk > 0
            and len(layout.queue_kind) == nk * n
            and layout.queue_kind == list(kinds) * n
        )

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
        t = self.t
        statics, dynamics = cands
        queue_node = t.queue_node
        queue_kind = t.queue_kind
        slot_of = t.slot_of
        ui = queue_node[qid]
        ext: list[tuple[int, int, int, int]] = []
        internal: list[tuple[int, int, int]] = []
        seen: set[tuple[int, str]] | None = None
        for dyn, cl in ((0, statics), (1, dynamics)):
            for q2, nsid in cl:
                if q2 < 0:
                    internal.append((DELIVER_STEP, -1, sid))
                    continue
                vi = queue_node[q2]
                if vi == ui:
                    if q2 == qid:
                        internal.append((SELF_STEP, q2, nsid))
                    else:
                        internal.append((MOVE_STEP, q2, nsid))
                    continue
                cls = DYNAMIC_CLASS if dyn else queue_kind[q2]
                key = (vi, cls)
                if seen is None:
                    seen = {key}
                elif key in seen:
                    continue  # first-wins per (neighbor, class)
                else:
                    seen.add(key)
                s = slot_of.get((ui, vi, cls))
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
        queue_node = self.t.queue_node
        node = queue_node[qid]
        for _ in range(8):  # bounded by the internal-chain length
            cands = self.candidates(qid, dst_i, sid)
            if cands is None:
                return None
            statics, dynamics = cands
            if dynamics or len(statics) != 1:
                break
            q2, nsid = statics[0]
            if q2 < 0 or q2 == qid or queue_node[q2] != node:
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
