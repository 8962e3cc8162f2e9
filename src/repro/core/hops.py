"""The row assembler and its integer hop kernels.

The routing functions of this repo are *pure*: every candidate set is a
deterministic function of ``(queue, destination, state)``, the keys of
the paper's extended routing function (Section 2).
:class:`~repro.sim.tables.RoutingTables` turns each key into an integer
*row* over its dense queue, slot and state ids, and one class builds
every such row: :class:`HopKernel`.

Its three row methods — :meth:`HopKernel.central_row`,
:meth:`HopKernel.entry_row` and :meth:`HopKernel.injection_row` — are
the engine semantics, stated once: first-wins per physical buffer
(statics before dynamics; a candidate without a buffer is dropped
*after* first-wins), external candidates slot-ascending, the
forced-phase-switch entry fold of
``PacketSimulator._fold_entry_queue``, and injection targets in the
reference engine's ``sorted(targets)`` order, each entry-folded.  They
read candidates from two primitives with two sources:

* the base :meth:`HopKernel.candidates` and
  :meth:`HopKernel.inject_candidates` evaluate the symbolic routing
  function (``static_hops``, ``dynamic_hops``, ``buffer_class``,
  ``update_state``, ``injection_targets``) and map queues through the
  tables' interning, so a plain ``HopKernel`` serves any algorithm;
* a kernel subclass (shuffle-exchange, CCC, Beneš, buffer pool)
  re-states the same candidates over integer ids, and returns ``None``
  for a key it declines (exhausted shuffle counters, off-network Beneš
  injections), which hands that key back to the symbolic primitive —
  so errors on declined keys are the symbolic path's, byte for byte.

A candidate is ``(queue, state, cls)``: the next queue's id (``-1``
for the delivery queue), the successor state — its id, or a
:class:`Successor` for a state that may not be interned yet (the
symbolic source defers every ``update_state`` call this way) — and,
for an external hop, its buffer class.  The assembler interns
successor states only where a row needs them — first-wins winners
with a buffer, internal steps, entry-fold steps — so the order in
which ``RoutingTables.states`` grows does not depend on the source.

A ``compile_hops()`` implementation must return ``None`` (no kernel;
the tables then assemble rows with a plain ``HopKernel``) whenever it
cannot vouch for identity — unknown subclass, unexpected topology,
unexpected queue kinds.

A kernel may also offer *batch rows*: :meth:`HopKernel.fill_rows`
computes the central rows of a whole fill step at once, as numpy
arithmetic, and returns a :class:`HopRows` view the batched fill phase
consumes directly — no per-key memo, no packed row storage.  Its
obligation is identity with the assembler: on *every* key, reachable
or not, the batch row equals :meth:`HopKernel.central_row` (slots,
next queues/states, dynamic flags, internal steps) and each
candidate's landing queue equals :meth:`HopKernel.entry_row`.
Returning ``None`` declines the batch; the tables then gather packed
rows by row id (``RoutingTables.central_rids``).  The two-phase
kernels (hypercube; mesh and torus, which share one coordinate kernel)
share one view, :class:`TwoPhaseRows`.

Injection has the same batch form: :meth:`HopKernel.injection_rows`
resolves a whole cycle's injections at once, and must equal
:meth:`HopKernel.injection_row` (which it may only answer for when
that row has exactly one target) on every key.  The two-phase kernels
answer it through :class:`TwoPhaseKernel`; their scalar rows come from
the symbolic primitives.

This module also owns the internal-step action codes shared by the
tables and the kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .queues import DELIVER, INJECT, QueueId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports core)
    from ..sim.tables import RoutingTables

__all__ = [
    "DELIVER_STEP",
    "SELF_STEP",
    "MOVE_STEP",
    "NO_STEP",
    "HopKernel",
    "HopRows",
    "Successor",
    "TwoPhaseKernel",
    "TwoPhaseRows",
    "mask_dims",
]

#: Internal-step action codes (shared by the tables and the kernels).
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


class Successor:
    """A successor state a row interns only when it needs it.

    ``Successor(value)`` is a state value; ``Successor(state, update,
    q, q2)`` is ``update(state, q, q2)``, evaluated first — the symbolic
    candidates defer ``update_state`` this way, as the reference engine
    evaluates it only for the hop a packet takes.
    """

    __slots__ = ("state", "update", "q", "q2")

    def __init__(self, state, update=None, q=None, q2=None):
        self.state = state
        self.update = update
        self.q = q
        self.q2 = q2

    def sid(self, layout: "RoutingTables") -> int:
        """The state's id in ``layout``, interned on first use."""
        state = self.state
        if self.update is not None:
            state = self.update(state, self.q, self.q2)
        return layout.state_id(state)


class HopKernel:
    """The row assembler over one :class:`~repro.sim.tables.RoutingTables`.

    The three row methods assemble rows from :meth:`candidates` and
    :meth:`inject_candidates`, which evaluate the symbolic routing
    function.  A kernel subclass overrides those two primitives to
    compute candidates over integer ids, returning ``None`` per key to
    hand it back to the symbolic ones; kernels whose hop relation is
    plain arithmetic also override :meth:`fill_rows` and
    :meth:`injection_rows`.
    """

    def __init__(self, layout: "RoutingTables"):
        self.t = layout
        # A view that indexes to Python ints, with no copy.
        self._queue_node = memoryview(layout.queue_node)

    def has_kinds(self, kinds: tuple[str, ...]) -> bool:
        """Whether every node's central queues are ``kinds``, in order,
        so queue ids factor as ``node * len(kinds) + kind index``."""
        n = len(self.t.nodes)
        return n > 0 and self.t.queue_kind == list(kinds) * n

    def fill_rows(self, qids, dsts, sids) -> HopRows | None:
        """Batch central rows for int arrays of keys, or ``None``."""
        return None

    def injection_rows(self, srcs, dsts, sids):
        """Batch injection rows for int arrays of keys, or ``None``.

        ``(queues, states)`` int arrays: the one resolved target of
        each key's :meth:`injection_row`.  Only kernels whose every
        injection row has exactly one target may answer; ``None``
        declines the batch (the tables then resolve it key by key).
        """
        return None

    def memory_bytes(self) -> int:
        """Bytes of precomputed kernel tables (telemetry estimate)."""
        return 0

    # -- candidate sources ---------------------------------------------
    def candidates(self, qid: int, dst_i: int, sid: int):
        """``(static, dynamic)`` lists of ``(queue, state, cls)``
        candidates, in the symbolic ``static_hops`` / ``dynamic_hops``
        order, before first-wins; ``None`` declines the key.

        An external hop to a queue kind its node does not declare has
        queue ``-2 - node``.  The assembler drops it when it loses
        first-wins or has no buffer, as the reference engine never
        looks such a hop up, and raises ``KeyError`` when it wins one."""
        t = self.t
        alg = t.algorithm
        nid = t.nid
        qid_of = t.qid_of
        q = t.queue_objs[qid]
        state = t.states[sid]
        u = q.node
        out = []
        for dyn, hops in ((False, alg.static_hops), (True, alg.dynamic_hops)):
            cl = []
            for q2 in hops(q, t.nodes[dst_i], state):
                v, kind = q2
                if v == u and kind == DELIVER:
                    cl.append((-1, sid, None))
                    continue
                st = Successor(state, alg.update_state, q, q2)
                vi = nid[v]
                if v == u:
                    cl.append((qid_of[(vi, kind)], st, None))
                else:
                    cls = alg.buffer_class(q, q2, dyn)
                    cl.append((qid_of.get((vi, kind), -2 - vi), st, cls))
            out.append(cl)
        return out

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        """Injection ``(queue, state)`` targets in ``sorted(targets)``
        order, the injection ``update_state`` applied; ``None``
        declines the key."""
        t = self.t
        alg = t.algorithm
        u = t.nodes[ui]
        state = t.states[sid]
        inj = QueueId(u, INJECT)
        return [
            (
                t.qid_of[(t.nid[q2.node], q2.kind)],
                Successor(state, alg.update_state, inj, q2),
            )
            for q2 in sorted(alg.injection_targets(u, t.nodes[dst_i], state))
        ]

    # -- row assembly ----------------------------------------------------
    # A candidate's state is a state id, or a Successor interned (in
    # candidate order, external winners before internal steps) only
    # where a row needs it.
    def central_row(self, qid: int, dst_i: int, sid: int) -> tuple:
        """``(ext_slots, ext_queues, ext_states, ext_dyn, internal)``:
        four parallel tuples of external candidates, slot-ascending,
        plus the internal ``(action, queue, state)`` steps in candidate
        order (``queue`` is -1 for delivery)."""
        cands = self.candidates(qid, dst_i, sid)
        if cands is None:
            cands = HopKernel.candidates(self, qid, dst_i, sid)
        t = self.t
        queue_node = self._queue_node
        ui = queue_node[qid]
        ext = []
        internal = []
        seen = None
        for dyn, cl in enumerate(cands):
            for q2, st, cls in cl:
                if q2 == -1:
                    internal.append((DELIVER_STEP, -1, st))
                    continue
                vi = queue_node[q2] if q2 >= 0 else -2 - q2
                if vi == ui:
                    action = SELF_STEP if q2 == qid else MOVE_STEP
                    internal.append((action, q2, st))
                    continue
                key = (vi, cls)
                if seen is None:
                    seen = {key}
                elif key in seen:
                    continue  # first-wins per buffer
                else:
                    seen.add(key)
                s = t.slot_id(ui, vi, cls)
                if s is not None:
                    if q2 < 0:
                        raise KeyError(
                            f"hop to an undeclared queue at {t.nodes[vi]!r}"
                        )
                    if type(st) is Successor:
                        st = st.sid(t)
                    ext.append((s, q2, st, dyn))
        ext.sort()
        cols = tuple(zip(*ext)) if ext else ((), (), (), ())
        steps = tuple(
            (a, q2, st.sid(t) if type(st) is Successor else st)
            for a, q2, st in internal
        )
        return (*cols, steps)

    def entry_row(self, qid: int, dst_i: int, sid: int) -> tuple[int, int]:
        """Where a packet nominally targeting ``qid`` lands: forced
        single static moves to a sibling central queue are folded in,
        so a phase change costs no extra cycle."""
        queue_node = self._queue_node
        node = queue_node[qid]
        for _ in range(8):  # bounded by the internal-chain length
            cands = self.candidates(qid, dst_i, sid)
            if cands is None:
                cands = HopKernel.candidates(self, qid, dst_i, sid)
            statics, dynamics = cands
            if dynamics or len(statics) != 1:
                break
            q2, st, _cls = statics[0]
            if q2 < 0 or q2 == qid or queue_node[q2] != node:
                break
            qid, sid = q2, st.sid(self.t) if type(st) is Successor else st
        return (qid, sid)

    def injection_row(self, ui: int, dst_i: int, sid: int) -> tuple:
        """``((queue, state), ...)``: each injection target, entry-folded."""
        cl = self.inject_candidates(ui, dst_i, sid)
        if cl is None:
            cl = HopKernel.inject_candidates(self, ui, dst_i, sid)
        t = self.t
        return tuple(
            self.entry_row(
                q2, dst_i, st.sid(t) if type(st) is Successor else st
            )
            for q2, st in cl
        )


class TwoPhaseKernel(HopKernel):
    """Shared batch hooks of the two-phase kernels (hypercube, grid).

    These kernels compute batch rows only; a scalar key (the fault
    adapter under faults, tests) takes the symbolic candidates.  Queue
    kinds must be ``kinds`` (phase A, phase B per class) at every node,
    or :attr:`ok` is False and ``compile_hops()`` returns no kernel.

    A packet enters class 0 at its source: phase A while it has an
    increasing correction left toward its destination and phase B
    otherwise, with its state unchanged, and neither entry folds
    further — so a whole batch of injection rows is one :meth:`a_done`
    call.  Subclasses implement :meth:`a_done` and :meth:`fill_rows`
    (returning :class:`TwoPhaseRows`).
    """

    def __init__(self, layout: "RoutingTables", kinds: tuple[str, ...]):
        super().__init__(layout)
        self.kinds = kinds
        self.nk = len(kinds)
        self.ok = self.has_kinds(kinds)

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
