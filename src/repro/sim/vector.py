"""Vectorized table-driven engine (any algorithm, any topology).

:class:`VectorSimulator` executes the paper's Section-7.1 routing cycle
over the integer tables of :class:`~repro.sim.tables.RoutingTables`:
messages live in parallel int arrays (uid, destination, state id,
resolved entry queue, injection cycle), central queues are rows of one
int matrix, link buffers are numpy int arrays holding message indices,
and the injection and all three phases of the cycle have batched numpy
forms.  A delivered message's row goes on a free stack and a later
cycle's injection reuses it, so the message columns grow with the
packets in flight, not with the packets injected; row indices carry no
order (the phases order by position, kind, node, queue and rank, the
event flush by uid):

* **injection**: every injection model hands a cycle's packets over
  as ``(src, dst, uid)`` id arrays (:meth:`VectorSimulator.place_batch`,
  after one :meth:`~VectorSimulator.injection_free` mask), and they are
  written into the message columns by slice — state ids, entry queues
  (:meth:`~repro.sim.tables.RoutingTables.injection_rows`, the hop
  kernel's batch arithmetic where it has one) and uids in one step each,
  without building a :class:`~repro.core.message.Message`;
* the **fill phase** sweeps all busy nodes at once: one
  :meth:`~repro.sim.tables.RoutingTables.fill_rows` call yields the
  hop row of every queued message (computed by the hop kernel's batch
  arithmetic where it has one, gathered from packed rows otherwise),
  a per-row argmax over output-buffer freeness, one
  ``(position, queue-kind)`` step at a time, performs the greedy
  matching for the whole network, and blocked messages take their
  internal steps (delivery, sibling-queue moves) as array steps;
* the **read phase** sorts every occupied input/injection buffer once,
  by ``target queue * rank_span + rotation rank``, and admits
  per-queue prefixes against capacity;
* the **link cycle** moves, per link, one ready packet: it looks only
  at the output slots that hold a packet.

Two int arrays of slot ids, in no order, name the occupied link
buffers: output slots (appended by the fill phase's claims, removed by
link moves) and input slots (appended by link moves, removed by
admission).  The link and read phases run over them, so no phase of a
cycle scans every slot, and a sparse or draining network pays for its
traffic rather than its size.  Every cycle takes this one path,
however few nodes are busy, and on any per-node queue layout: a node's
queues are addressed by its offset ``node_q_start`` plus the kind
index, padded to the widest node.

**Identity guarantees.**  Packet-for-packet identical to
:class:`~repro.sim.engine.PacketSimulator` at equal seeds on every
topology: same latencies, cycle counts, injection statistics, and a
byte-identical canonical telemetry event log
(``tests/test_sim_vector.py``, ``tests/test_sim_kernels.py``).  The
fill phase runs a message-major greedy matching — each entry, in
service order, claims the lowest free slot among its own candidates,
which is provably equal to the reference engine's buffer-major loop
under aligned preference orders — and runs the same (position, kind)
steps across nodes, which commute because queues, output buffers, and
internal moves never cross nodes.  The read phase replays the rotating
input fairness: the batched rank ``(source position - cycle) mod
(inputs + 1)`` equals the reference rotation, and per-queue prefix
admission equals the sequential loop because rejected reads have no
side effects.  The link cycle's class rotation is ``cycle % k`` per
``k``-class link — the same ``rotated`` the reference engine uses.

**Selection.**  ``vector``, the default of
:func:`~repro.experiments.runner.build_simulator`, is this engine for
every run: every algorithm and topology, with or without a telemetry
probe (the paper tables, the other-topology sweeps and ``repro
serve``).  Per-packet timelines are a view over the event log it
writes (:class:`~repro.sim.trace.PacketTrace`).

**Shared skeleton.**  Like the reference engine it derives from
:class:`~repro.sim.engine.BaseSimulator`, which owns the run loop,
bookkeeping, the observer loop and the stall path, and occupancy
statistics; this module holds only the node and link cycles,
injection, event buffering and the queue views
(:meth:`~VectorSimulator.queue_lengths`,
:meth:`~VectorSimulator.queue_packets`) that occupancy statistics,
probes and snapshots read.

**Limitations** (each raises a descriptive
:class:`~repro.sim.tables.EngineCapabilityError` — the engine never
silently degrades; see the engine matrix in ``docs/ARCHITECTURE.md``):

* routing states must be hashable (interned to table ids);
* the only observer accepted is a
  :class:`~repro.telemetry.TelemetryProbe`, which runs through the
  shared observer loop.  Fault injectors and watchdogs need the
  reference engine, which ``repro.faults.experiments.make_fault_simulator``
  always builds.

**Telemetry.**  Events are buffered *columnar* during a cycle — per
event kind, the cycle's chunks of message-index, queue and slot
arrays, no tuple or label allocation on the hot path — and flushed at
the end of every :meth:`step`, so the buffers never hold more than one
cycle and the sink sees each cycle as it happens.  What the flush
builds depends on the sink:

* a metrics-only :class:`~repro.telemetry.probe._MetricsSink` gets
  array aggregates (:meth:`~repro.telemetry.probe._MetricsSink.add_columns`):
  counts of injections and static/dynamic hops, the phase transitions
  counted against a per-message last-queue-kind column, and the
  delivered uids with their latencies.  No event tuple is built, no
  sort is done, and the label views the tuples need
  (``slot_labels``, ``queue_labels``) are never built; the registry
  ends each cycle exactly as if it had taken every event one by one,
  so a serve scrape matches the reference engine's tick for tick;
* any other sink (an event log) gets raw event tuples,
  stable-sorted by uid within the cycle, which is exactly the
  canonical order of :meth:`~repro.telemetry.events.EventLog.canonical`
  (JSONL output is byte-identical with the reference engine).

The probe samples occupancy in its ``on_cycle`` from
:meth:`~VectorSimulator.queue_lengths`, one bulk histogram update per
sample (``Histogram.observe_array``), as on the reference engine.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable

import numpy as np

from ..core.hops import DELIVER_STEP, MOVE_STEP, NO_STEP, SELF_STEP
from ..core.routing_function import RoutingAlgorithm
from ..telemetry.probe import TelemetryProbe, _MetricsSink
from .engine import BaseSimulator
from .injection import InjectionModel
from .tables import EngineCapabilityError, RoutingTables

__all__ = ["VectorSimulator"]

_EMPTY = np.empty(0, dtype=np.int64)


def _columns(chunks: list[tuple], width: int) -> tuple[np.ndarray, ...]:
    """An event buffer's chunks joined into ``width`` columns."""
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return (_EMPTY,) * width
    return tuple(np.concatenate(col) for col in zip(*chunks))


class VectorSimulator(BaseSimulator):
    """Table-driven engine; drop-in for :class:`PacketSimulator` runs."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        central_capacity: int = 5,
        stall_limit: int = 1000,
        collect_occupancy: bool = False,
        service: str = "fifo",
        tables: RoutingTables | None = None,
    ):
        super().__init__(
            algorithm, injection, central_capacity, stall_limit,
            collect_occupancy, service,
        )
        self.tables = (
            tables if tables is not None else RoutingTables(algorithm)
        )
        if self.tables.algorithm is not algorithm:
            raise ValueError("tables were built for a different algorithm")
        t = self.tables

        self.nodes = t.nodes
        # Link-cycle score scratch per slot, in the class columns'
        # dtype, zero between cycles: only the first slots of links
        # with a ready class ever touch it.
        self._link_best = np.zeros(t.n_slots, dtype=t.slot_class_count.dtype)
        # Read-phase sort key span: ranks lie in [0, max inputs].
        self._rank_span = int(t.node_in_count.max(initial=0)) + 1
        # Row ui: node ui's queue ids in kind order, padded to the
        # widest node with the sentinel queue n_queues (always empty).
        kind = np.arange(t.node_q_count.max(initial=0))
        self._qgrid = np.where(
            kind < t.node_q_count[:, None],
            t.node_q_start[:, None] + kind,
            t.n_queues,
        )

        # ---- dynamic state ---------------------------------------------
        # Central queues as one int matrix: row qid holds message
        # indices, -1-padded.  `_qlen` is the physical row length
        # (including in-fill tombstones), `_qcount` the live count;
        # rows are compacted (qlen == qcount, entries contiguous from
        # column 0) between phases.  Width 2*cap+2 covers the worst
        # mid-fill case (cap live + cap same-cycle MOVE appends).  The
        # counts carry one extra cell for the sentinel queue.
        n_nodes = len(self.nodes)
        width = 2 * central_capacity + 2
        self._qbuf = np.full((t.n_queues, width), -1, dtype=np.int64)
        self._qlen = np.zeros(t.n_queues + 1, dtype=np.int64)
        self._qcount = np.zeros(t.n_queues + 1, dtype=np.int64)
        #: Queued messages per node (busy = nonzero entries).
        self._load = np.zeros(n_nodes, dtype=np.int64)
        #: Injection buffers (message index or -1).
        self._inj = np.full(n_nodes, -1, dtype=np.int64)
        #: Link buffers as message-index arrays (-1 = empty).  The out
        #: array carries one extra occupied sentinel slot that packed
        #: hop rows use as padding, so padded candidates never match.
        self._out = np.full(t.n_slots + 1, -1, dtype=np.int64)
        self._out[t.n_slots] = -2
        self._in = np.full(t.n_slots, -1, dtype=np.int64)
        #: The slots whose out / in buffer holds a packet, in no order:
        #: the link and read phases touch only these.
        self._occ_out = _EMPTY
        self._occ_in = _EMPTY

        # Parallel per-message numpy columns.  No Message object is
        # kept: a packet is its row.  Delivery pushes a row on the free
        # stack `_free` (its first `_nfree` entries, grown on demand)
        # and `place_batch` hands it out again, so the columns grow
        # with the packets in flight, not with the packets injected.
        # Row indices are opaque: no phase orders by them.  `_mn`
        # counts the rows ever handed out.
        self._mn = 0
        self._nfree = 0
        cap0 = 1024
        self._free = np.empty(cap0, dtype=np.int64)
        self._muid = np.empty(cap0, dtype=np.int64)
        self._mdst = np.empty(cap0, dtype=np.int64)
        self._mstate = np.empty(cap0, dtype=np.int64)
        self._minj = np.empty(cap0, dtype=np.int64)
        # Entry queue/state the message will request on arrival —
        # resolved at hop time (external moves) or injection time;
        # queue -1 for an injection row without exactly one target.
        self._ment_q = np.empty(cap0, dtype=np.int64)
        self._ment_st = np.empty(cap0, dtype=np.int64)
        # Queue-kind code of the message's last enqueue or hop (-1:
        # none yet); kept by the metrics-only flush, which counts phase
        # transitions from it as the sink's per-uid last kind would.
        self._mkind = np.empty(cap0, dtype=np.int8)

        # Columnar event buffers: per event kind, the current cycle's
        # chunks of equal-length column arrays (flushed every cycle, so
        # every buffered event belongs to the cycle being stepped).
        self._ev_inject: list[tuple] = []  # (mi, node)
        self._ev_enqueue: list[tuple] = []  # (mi, qid)
        self._ev_hop: list[tuple] = []  # (mi, slot, dyn, qid)
        self._ev_deliver: list[tuple] = []  # (mi,)
        self._qkind_code = None  # int8 kind code per queue, on first use

    @property
    def _recording(self) -> bool:
        """Whether a sink is installed (``TelemetryProbe.attach``)."""
        return self._events is not None

    @property
    def link_classes(self) -> dict[tuple, tuple[str, ...]]:
        """``(u, v) -> classes`` per directed link (built on first use)."""
        return self.tables.link_classes

    # ------------------------------------------------------------------
    # Observers (telemetry probes only) and queue views
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Accept a telemetry probe; reject everything else loudly."""
        if not isinstance(observer, TelemetryProbe):
            raise EngineCapabilityError(
                f"the vector engine only runs telemetry probes and cannot "
                f"attach {type(observer).__name__}; fault injectors and "
                "watchdogs need engine='reference' (see docs/ARCHITECTURE.md)"
            )
        super().add_observer(observer)

    def queue_lengths(self) -> np.ndarray:
        return self._qcount[:-1]

    def queue_packets(self, q: int) -> list[tuple[Hashable, object]]:
        # Rows are compacted between steps: the live entries lead.
        t = self.tables
        mis = self._qbuf[q, : self._qcount[q]]
        return [
            (t.nodes[d], t.states[sid])
            for d, sid in zip(
                self._mdst[mis].tolist(), self._mstate[mis].tolist()
            )
        ]

    # ------------------------------------------------------------------
    # Growable storage
    # ------------------------------------------------------------------
    def _grow_qbuf(self, need: int) -> None:
        old = self._qbuf
        width = max(old.shape[1] * 2, need + 1)
        buf = np.full((old.shape[0], width), -1, dtype=np.int64)
        buf[:, : old.shape[1]] = old
        self._qbuf = buf

    def _grow_msgs(self) -> None:
        cap = self._mdst.size * 2
        for name in (
            "_muid", "_mdst", "_mstate", "_minj", "_ment_q", "_ment_st",
            "_mkind",
        ):
            col = getattr(self, name)
            grown = np.empty(cap, dtype=col.dtype)
            grown[: col.size] = col
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Injection-model interface
    # ------------------------------------------------------------------
    def injection_free(self, src_ids: np.ndarray) -> np.ndarray:
        """Whether each node id's injection buffer is free (bool mask)."""
        return self._inj[src_ids] == -1

    def place_batch(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        uids: np.ndarray,
        cycle: int,
    ) -> None:
        """Inject a batch of packets as message-column rows.

        Builds no :class:`~repro.core.message.Message`.  Same contract
        as :meth:`PacketSimulator.place_batch`: sources are distinct
        node ids whose injection buffers are free, and packet ``i`` gets
        uid ``uids[i]``.  Entry queues come from
        :meth:`RoutingTables.injection_rows`; a row without exactly one
        target leaves ``-1`` there, and the read phase resolves it.

        Rows come off the free stack first, fresh rows after it.  A row
        freed in this cycle cannot be among them: injection runs first
        in :meth:`step`, and the end-of-step flush, which still reads a
        delivered row's uid, injection cycle and kind, comes before the
        next injection.
        """
        k = src_ids.size
        if not k:
            return
        t = self.tables
        alg = self.algorithm
        if type(alg).initial_state is RoutingAlgorithm.initial_state:
            sids = np.full(k, t.state_id(None), dtype=np.int64)
        else:
            nodes = self.nodes
            sids = np.fromiter(
                (
                    t.state_id(alg.initial_state(nodes[s], nodes[d]))
                    for s, d in zip(src_ids.tolist(), dst_ids.tolist())
                ),
                dtype=np.int64,
                count=k,
            )
        ent_q, ent_st = t.injection_rows(src_ids, dst_ids, sids)
        top = self._nfree
        reuse = min(k, top)
        lo = self._mn
        hi = lo + k - reuse
        while hi > self._mdst.size:
            self._grow_msgs()
        mis = np.concatenate(
            (self._free[top - reuse : top], np.arange(lo, hi))
        )
        self._nfree = top - reuse
        self._mn = hi
        self._muid[mis] = uids
        self._mdst[mis] = dst_ids
        self._mstate[mis] = sids
        self._minj[mis] = cycle
        self._ment_q[mis] = ent_q
        self._ment_st[mis] = ent_st
        self._mkind[mis] = -1
        self._inj[src_ids] = mis
        self.injected_count += k
        self.active += k
        self._last_progress = cycle
        if self._recording:
            self._ev_inject.append((mis, src_ids))

    # ------------------------------------------------------------------
    # One routing cycle
    # ------------------------------------------------------------------
    def _route_cycle(self, cycle: int) -> None:
        busy = np.flatnonzero(self._load)
        if busy.size:
            self._fill_batch(busy, cycle)
        self._read_batch(cycle)
        self._link_cycle(cycle)
        if self._recording:
            self._flush_events()

    # -- node cycle, part 1: queues -> output buffers + internal moves ----
    def _fill_batch(self, busy: np.ndarray, cycle: int) -> None:
        """All busy nodes at once: one row gather, lock-step claims.

        Every queued message of every busy node is gathered in
        (service position, kind, node) order and gets its central row
        from one :meth:`RoutingTables.fill_rows` call.  A (position,
        kind) *group* holds at most one message per node, and nodes are
        independent in the fill phase (queues, output buffers and
        internal moves never cross nodes), so claiming output slots
        group by group, then taking internal steps group by group,
        reproduces each node's sequential message-major sweep exactly.
        Only the slot claims and the capacity checks loop over groups;
        the picked candidates' next hops come from one
        :meth:`~repro.core.hops.HopRows.chosen` call and the blocked
        rows' steps from one :meth:`~repro.core.hops.HopRows.internal`
        call.
        """
        t = self.tables
        nb = busy.size
        nk = self._qgrid.shape[1]
        out = self._out
        mstate = self._mstate
        recording = self._recording

        # Local queue l = b * nk + r is busy node b's kind-r queue (the
        # sentinel queue past node b's last kind).
        qloc = self._qgrid[busy].ravel()
        lens = self._qlen[qloc]
        maxlen = int(lens.max())
        seq = np.arange(maxlen)
        if self.service == "lifo":
            seq = seq[::-1]
        # Group g is (position seq[g // nk], kind g % nk); nonzero walks
        # the groups in sweep order, nodes ascending within each.
        occ = (
            lens.reshape(nb, nk).T[None, :, :] > seq[:, None, None]
        ).reshape(-1, nb)
        g_of, b_of = np.nonzero(occ)
        ends = np.cumsum(np.count_nonzero(occ, axis=1))
        lq = b_of * nk + g_of % nk
        qids = qloc[lq]
        pos = seq[g_of // nk]
        mis = self._qbuf[qids, pos]
        rows = t.fill_rows(qids, self._mdst[mis], mstate[mis])
        cand = rows.slots

        # Output-slot claims, group by group: a node's earlier groups
        # take their slots first.
        picked = []
        every = np.arange(nb)
        a = 0
        for b in ends.tolist():
            if b == a:
                continue
            c = cand[a:b]
            free = out[c] == -1
            # Slot-ascending, first free wins (rows are slot-sorted,
            # padding sorts last).
            pick = free.argmax(axis=1)
            got = free[every[: b - a], pick].nonzero()[0]
            if got.size:
                jg = pick[got]
                sg = c[got, jg]
                out[sg] = mis[a + got]
                picked.append((a + got, jg, sg))
            a = b

        gone = np.zeros(mis.size, dtype=bool)  # left its queue this cycle
        if picked:
            gi, jg, sg = (np.concatenate(p) for p in zip(*picked))
            self._occ_out = np.concatenate((self._occ_out, sg))
            gone[gi] = True
            mg = mis[gi]
            nq, nst, eq, est, dyn = rows.chosen(gi, jg, sg)
            mstate[mg] = nst
            self._ment_q[mg] = eq
            self._ment_st[mg] = est
            self._last_progress = cycle
            if recording:
                self._ev_hop.append((mg, sg, dyn, nq))

        appended = 0
        blocked = np.flatnonzero(~gone & rows.hasint)
        if blocked.size:
            appended = self._internal_steps(
                rows, blocked, np.searchsorted(blocked, ends), lq, qids,
                mis, gone, lens, cycle,
            )

        # Tombstone the departed, squeeze them out of their queues and
        # store the new counts.
        if gone.any():
            left = np.bincount(lq[gone], minlength=lens.size)
            tail = lens + appended
            cnt = tail - left
            self._qbuf[qids[gone], pos[gone]] = -1
            dirty = left > 0
            dq = qloc[dirty]
            span = int(tail[dirty].max())  # columns past it hold -1
            rows_q = self._qbuf[dq, :span]
            # Stable partition: survivors keep their order, same-cycle
            # MOVE appends stay behind them (the reference's order).
            order = np.argsort(rows_q == -1, axis=1, kind="stable")
            self._qbuf[dq, :span] = np.take_along_axis(rows_q, order, axis=1)
            self._qlen[qloc] = cnt
            self._qcount[qloc] = cnt
            self._load[busy] = cnt.reshape(nb, nk).sum(axis=1)

    def _internal_steps(
        self, rows, blocked, ends, lq, qids, mis, gone, lens, cycle
    ) -> np.ndarray | int:
        """Internal moves of the ``blocked`` rows, in sweep order.

        ``ends`` closes each (position, kind) group within ``blocked``;
        ``lq``, ``qids`` and ``lens`` are the local queues, global
        queues and local lengths of :meth:`_fill_batch`.
        A row takes its first step that applies: a delivery or a
        ``SELF_STEP`` always does, a ``MOVE_STEP`` when its sibling
        queue is below capacity, else the row falls through to its next
        step.  Only the capacity checks see earlier groups, so only
        they loop, group by group, and only when a ``MOVE_STEP`` is
        pending; the steps taken are then applied at once.  Marks the
        departed in ``gone`` and returns the appends per local queue.
        """
        act, tq, tst = rows.internal(blocked)
        move = act == MOVE_STEP
        src = lq[blocked]
        # A MOVE target is a queue of the same node, so its local queue
        # is as far from the source's as its global id is.
        tloc = np.where(move, (src - qids[blocked])[:, None] + tq, 0)
        if move.any():
            cap = self.central_capacity
            # Queue counts as the sweep goes (slot claims already out).
            room = lens - np.bincount(lq[gone], minlength=lens.size)
            hit = np.zeros(act.shape, dtype=bool)  # the step each row took
            every = np.arange(blocked.size)
            a = 0
            for b in ends.tolist():
                if b == a:
                    continue
                rest = np.s_[a:b]  # rows still looking for a step
                for j in range(act.shape[1]):
                    aj = act[rest, j]
                    moved = move[rest, j]
                    if moved.any():
                        tl = tloc[rest, j]
                        moved = moved & (room[tl] < cap)
                        room[tl[moved]] += 1
                    left = moved | (aj == DELIVER_STEP)
                    room[src[rest][left]] -= 1
                    took = left | (aj == SELF_STEP)
                    hit[rest, j] = took
                    nxt = ~took & (aj != NO_STEP)
                    if not nxt.any():
                        break
                    rest = every[rest][nxt]
                a = b
            k, j = np.nonzero(hit)
            if not k.size:
                return 0
        else:
            # Deliveries and self-steps always apply: every row takes
            # its first step.
            k = np.arange(blocked.size)
            j = np.zeros_like(k)

        self._last_progress = cycle
        a_k = act[k, j]
        m_k = mis[blocked[k]]
        gone[blocked[k[a_k != SELF_STEP]]] = True
        appended = 0
        mv = np.flatnonzero(a_k == MOVE_STEP)
        if mv.size:
            # Appends land behind each target's row in sweep order.
            tl = tloc[k[mv], j[mv]]
            order = np.argsort(tl, kind="stable")
            tl_s = tl[order]
            at = np.empty_like(tl)
            at[order] = (
                lens[tl_s] + np.arange(tl_s.size) - np.searchsorted(tl_s, tl_s)
            )
            high = int(at.max())
            if high >= self._qbuf.shape[1]:
                self._grow_qbuf(high)
            self._qbuf[tq[k[mv], j[mv]], at] = m_k[mv]
            appended = np.bincount(tl, minlength=lens.size)
        stay = np.flatnonzero(a_k != DELIVER_STEP)
        if stay.size:
            ms = m_k[stay]
            self._mstate[ms] = tst[k[stay], j[stay]]
            if self._recording:
                self._ev_enqueue.append((ms, tq[k[stay], j[stay]]))
        if stay.size < k.size:
            self._deliver(m_k[a_k == DELIVER_STEP], cycle)
        return appended

    # -- node cycle, part 2: input + injection buffers -> queues ----------
    def _read_batch(self, cycle: int) -> None:
        """All occupied input/injection buffers in one admission pass.

        Arrivals are the occupied input slots the link cycle recorded,
        in no order (the sort below orders them); admitted ones leave
        that array.  Rank ``(source position - cycle) mod (inputs +
        1)`` is the reference engine's rotated read order (the
        injection buffer sits at position ``inputs``).  One sort by ``target queue *
        rank_span + rank`` and admitting per-target-queue prefixes
        against free capacity equals the sequential loop: a queue
        belongs to one node, so each prefix is in that node's read
        order, a rejected read has no side effects, and an admission
        only consumes capacity in its own queue.  An injection row with
        several targets therefore takes the first one, in row order,
        that still has room after the node's arrivals ranked ahead of
        it, and then joins that queue's prefix at its rank; only a
        cycle with such rows builds the (node, rank) order to resolve
        them.
        """
        arrivals = self._occ_in
        inj_nodes = np.flatnonzero(self._inj != -1)
        if not (arrivals.size or inj_nodes.size):
            return
        t = self.tables
        a_nodes = t.slot_dst[arrivals]
        a_total = t.node_in_count[a_nodes] + 1
        i_total = t.node_in_count[inj_nodes] + 1
        nodes_all = np.concatenate((a_nodes, inj_nodes))
        rank_all = np.concatenate((
            (t.slot_in_pos[arrivals] - cycle) % a_total,
            (i_total - 1 - cycle) % i_total,
        ))
        mi_all = np.concatenate((self._in[arrivals], self._inj[inj_nodes]))
        tq = self._ment_q[mi_all]
        st = self._ment_st[mi_all]
        cap = self.central_capacity
        span = self._rank_span
        if (tq < 0).any():
            # Resolved into these temporaries only: a refused packet
            # (queue left at -1) retries its whole row next cycle.
            order = np.argsort(nodes_all * span + rank_all)
            node_o = nodes_all[order]
            tq_o = tq[order]
            for i in np.flatnonzero(tq_o < 0).tolist():
                mi = int(mi_all[order[i]])
                node = int(node_o[i])
                ahead = tq_o[np.searchsorted(node_o, node) : i]
                for q, qst in t.injection_row(
                    node, int(self._mdst[mi]), int(self._mstate[mi])
                ):
                    if self._qcount[q] + np.count_nonzero(ahead == q) < cap:
                        tq_o[i] = q
                        st[order[i]] = qst
                        break
            tq[order] = tq_o
        group = np.argsort(tq * span + rank_all)
        tq_s = tq[group]
        seq = np.arange(tq_s.size) - np.searchsorted(tq_s, tq_s)
        admit = np.flatnonzero((seq < cap - self._qcount[tq_s]) & (tq_s >= 0))
        if not admit.size:
            return
        ga = group[admit]
        tq_a = tq_s[admit]
        mi_a = mi_all[ga]
        node_a = nodes_all[ga]
        pos = self._qlen[tq_a] + seq[admit]
        high = int(pos.max())
        if high >= self._qbuf.shape[1]:
            self._grow_qbuf(high)
        self._qbuf[tq_a, pos] = mi_a
        added = np.bincount(tq_a, minlength=self._qlen.size)
        self._qlen += added
        self._qcount += added
        self._load += np.bincount(node_a, minlength=self._load.size)
        self._mstate[mi_a] = st[ga]
        from_link = ga[ga < arrivals.size]
        if from_link.size:
            self._in[arrivals[from_link]] = -1
            stay = np.ones(arrivals.size, dtype=bool)
            stay[from_link] = False
            self._occ_in = arrivals[stay]
        self._inj[node_a[ga >= arrivals.size]] = -1
        self._last_progress = cycle
        if self._recording:
            self._ev_enqueue.append((mi_a, tq_a))

    # -- link cycle --------------------------------------------------------
    def _link_cycle(self, cycle: int) -> None:
        """Occupied output buffers whose input buffer is free move over.

        A link moves at most one packet: a ``k``-class link its first
        ready class in ``cycle % k`` rotation (the reference engine's
        ``rotated``).  Only the occupied output slots are looked at.
        A ready slot at class position ``p`` scores ``k - (p - cycle)
        mod k``, so class ``cycle % k`` scores ``k`` and the next one in
        rotation ``k - 1``; one ``maximum.at`` into the scratch at its
        link's first slot, ``slot - p``, keeps each link's best score,
        and the scratch is zeroed again at the same slots.
        """
        occ = self._occ_out
        out = self._out
        inb = self._in
        ready = np.flatnonzero(inb[occ] == -1)  # positions in occ
        if not ready.size:
            return
        t = self.tables
        cand = occ[ready]
        best = self._link_best
        pos = t.slot_class_pos[cand].astype(np.intp)
        count = t.slot_class_count[cand]
        score = (count - (pos - cycle) % count).astype(best.dtype)
        first = cand - pos
        np.maximum.at(best, first, score)
        win = best[first] == score
        best[first] = 0
        if not win.all():
            ready = ready[win]
            cand = cand[win]
        inb[cand] = out[cand]
        out[cand] = -1
        stay = np.ones(occ.size, dtype=bool)
        stay[ready] = False
        self._occ_out = occ[stay]
        self._occ_in = np.concatenate((self._occ_in, cand))
        self._last_progress = cycle

    # -- delivery and stats -------------------------------------------------
    def _deliver(self, mis: np.ndarray, cycle: int) -> None:
        """Deliver messages ``mis`` and free their rows."""
        k = mis.size
        top = self._nfree
        if top + k > self._free.size:
            free = np.empty(max(2 * self._free.size, top + k), np.int64)
            free[:top] = self._free[:top]
            self._free = free
        self._free[top : top + k] = mis
        self._nfree = top + k
        self.delivered_count += k
        self.active -= k
        self._last_progress = cycle
        if self._recording:
            self._ev_deliver.append((mis,))
        injected = self._minj[mis]
        self.latency.record_many(
            cycle - injected[injected >= self.measure_from]
        )

    # -- telemetry ---------------------------------------------------------
    def _materialize_events(self) -> list[tuple]:
        """Buffered columns -> canonical raw event tuples.

        Concatenation order (inject, enqueue, hop, deliver) plus a
        stable sort by uid reproduces :meth:`EventLog.canonical`
        exactly: the buffers hold one cycle, and the only same-``(cycle,
        uid)`` pair an engine can emit is inject-then-enqueue, which the
        concat order preserves.  Per-message columns are gathered only
        at the indices the buffers name, so the cost is proportional to
        the batch, not to every packet ever injected.
        """
        c = self.cycle
        t = self.tables
        nodes = t.nodes
        muid = self._muid
        mdst = self._mdst
        qkind = t.queue_kind
        evs: list[tuple] = []
        mis, src = _columns(self._ev_inject, 2)
        evs.extend(
            ("inject", c, uid, nodes[ui], nodes[d])
            for uid, ui, d in zip(
                muid[mis].tolist(), src.tolist(), mdst[mis].tolist()
            )
        )
        mis, qids = _columns(self._ev_enqueue, 2)
        qnode = t.queue_labels
        evs.extend(
            ("enqueue", c, uid, qnode[qid], qkind[qid])
            for uid, qid in zip(muid[mis].tolist(), qids.tolist())
        )
        mis, slots, dyn, qids = _columns(self._ev_hop, 4)
        evs.extend(
            ("hop", c, uid, u, v, cls, d, qkind[tq])
            for uid, (u, v, cls), d, tq in zip(
                muid[mis].tolist(),
                map(t.slot_labels.__getitem__, slots.tolist()),
                (dyn != 0).tolist(),
                qids.tolist(),
            )
        )
        (mis,) = _columns(self._ev_deliver, 1)
        evs.extend(
            ("deliver", c, uid, nodes[d], c - inj)
            for uid, d, inj in zip(
                muid[mis].tolist(),
                mdst[mis].tolist(),
                self._minj[mis].tolist(),
            )
        )
        evs.sort(key=itemgetter(2))
        return evs

    def _flush_columns(self, sink) -> None:
        """Metrics-only flush: array aggregates, no event tuple.

        A packet has at most one enqueue or hop per cycle (a queued
        packet hops or steps internally, a buffered one is read), so
        one gather, compare and scatter of :attr:`_mkind` counts the
        batch's queue-kind changes exactly as the sink's per-uid
        sequence would, in any order.
        """
        if self._qkind_code is None:
            code: dict[str, int] = {}  # a handful of kinds: int8 holds them
            self._qkind_code = np.array(
                [
                    code.setdefault(kind, len(code))
                    for kind in self.tables.queue_kind
                ],
                dtype=np.int8,
            )
        h_mis, _, dyn, h_qids = _columns(self._ev_hop, 4)
        mis, qids = _columns(self._ev_enqueue + [(h_mis, h_qids)], 2)
        kind = self._qkind_code[qids]
        last = self._mkind[mis]
        self._mkind[mis] = kind
        n_dyn = int(np.count_nonzero(dyn))
        (d_mis,) = _columns(self._ev_deliver, 1)
        sink.add_columns(
            injected=sum(chunk[0].size for chunk in self._ev_inject),
            hops_static=dyn.size - n_dyn,
            hops_dynamic=n_dyn,
            transitions=int(np.count_nonzero((last != kind) & (last >= 0))),
            latencies=self.cycle - self._minj[d_mis],
            uids=self._muid[d_mis],
        )

    def _flush_events(self) -> None:
        """Hand the buffered events to the sink and empty the buffers.

        Called at the end of every recording :meth:`step`, so each
        batch holds one cycle and batches arrive in cycle order: the
        sink sees the canonical stream as it happens (live serve
        metrics) and the buffers never outgrow one cycle's traffic.
        A metrics-only sink gets the batch as columns
        (:meth:`_flush_columns`); any other sink gets event tuples.
        """
        bufs = (
            self._ev_inject, self._ev_enqueue, self._ev_hop, self._ev_deliver
        )
        if not any(bufs):
            return
        sink = self._events
        if isinstance(sink, _MetricsSink):
            self._flush_columns(sink)
        else:
            evs = self._materialize_events()
            extend = getattr(sink, "extend", None)
            if extend is not None:
                extend(evs)
            else:
                for ev in evs:
                    sink.append(ev)
        for buf in bufs:
            buf.clear()
