"""Vectorized table-driven engine (any algorithm, any topology).

:class:`VectorSimulator` executes the paper's Section-7.1 routing cycle
over the integer tables of :class:`~repro.sim.tables.RoutingTables`:
messages live in parallel int arrays (uid, destination, state id,
resolved entry queue, injection cycle), central queues are rows of one
int matrix, link buffers are numpy int arrays holding message indices,
and the injection and all three phases of the cycle have batched numpy
forms:

* **injection**: :meth:`VectorSimulator.place_batch` takes a cycle's
  ``(src, dst)`` id arrays from
  :class:`~repro.sim.injection.DynamicInjection` and writes them into
  the message columns by slice — free mask, state ids, entry queues
  (:meth:`~repro.sim.tables.RoutingTables.injection_rows`, the hop
  kernel's batch arithmetic where it has one) and uids in one step each,
  without building a :class:`~repro.core.message.Message`;
* the **fill phase** sweeps all busy nodes at once, one
  ``(position, queue-kind)`` step at a time: one
  :meth:`~repro.sim.tables.RoutingTables.fill_rows` call yields every
  node's candidate message's hop row (computed by the hop kernel's
  batch arithmetic where it has one, gathered from packed rows
  otherwise), and a per-row argmax over output-buffer freeness
  performs the greedy matching for the whole network in a handful of
  array ops;
* the **read phase** ranks every occupied input/injection buffer with
  one ``lexsort`` and admits per-queue prefixes against capacity;
* the **link cycle** moves whole class-groups of links per operation.

Sparse cycles dispatch to per-node python loops instead (the batch
constant does not pay off under a few dozen actors); both paths
replicate the reference engine exactly, so the hybrid switch is
invisible in the output.

**Identity guarantees.**  Packet-for-packet identical to
:class:`~repro.sim.engine.PacketSimulator` at equal seeds on every
topology: same latencies, cycle counts, injection statistics, and a
byte-identical canonical telemetry event log
(``tests/test_sim_vector.py``, ``tests/test_sim_kernels.py``).  The
fill phase replays the compiled engine's message-major greedy matching
(provably equal to the reference engine's buffer-major loop under
aligned preference orders) — the batch form runs the same
(position, kind) steps across nodes, which commute because queues,
output buffers, and internal moves never cross nodes.  The read phase
replays the rotating input fairness: the batched rank
``(source position - cycle) mod (inputs + 1)`` equals the reference
rotation, and per-queue prefix admission equals the sequential loop
because rejected reads have no side effects.  The link cycle's class
rotation is ``cycle % k`` per ``k``-class link — the same ``rotated``
the reference engine uses.

**Selection.**  ``auto`` in
:func:`~repro.experiments.runner.build_simulator` picks this engine for
the hypercube and mesh two-phase schemes, whose hop kernels compute
batch rows, with or without a telemetry probe (the paper tables and
``repro serve``); every other configuration asks for it by name.

**Limitations** (each raises a descriptive
:class:`~repro.sim.tables.EngineCapabilityError` — the engine never
silently degrades; see the engine matrix in ``docs/ARCHITECTURE.md``):

* routing states must be hashable (interned to table ids);
* no generic observer loop: the only observer accepted is a
  :class:`~repro.telemetry.TelemetryProbe`, which this engine drives
  itself (below).  Fault injectors and watchdogs need the reference or
  compiled engine — ``repro.faults.experiments.make_fault_simulator``
  therefore maps ``engine="vector"`` to ``"auto"``;
* no per-hop tracing (``trace=True``) and no ``delivered_messages``
  capture; a :class:`~repro.core.message.Message` handed to
  :meth:`~VectorSimulator.place_in_injection_queue` gets its
  ``injected_cycle`` but is not kept, so its ``delivered_cycle`` stays
  ``-1`` (results and event logs carry every latency).

**Telemetry.**  Events are buffered *columnar* during a cycle — flat
int lists per event kind, no tuple or label allocation on the hot
path — and materialized at the end of every :meth:`step`,
stable-sorted by ``(cycle, uid)`` and handed to the probe's sink.
Batches arrive in cycle order, so the sink receives exactly the
canonical order of
:meth:`~repro.telemetry.events.EventLog.canonical` (JSONL output is
byte-identical with the generic engines), metrics-only probes update
live (a serve scrape matches the generic engines tick for tick), and
the buffers never hold more than one cycle.  Occupancy histograms are
fed via bucketed bulk counts (``Histogram.observe_many``) and the
occupancy series row by row, at the same sampling points the probe's
own ``on_cycle`` would use.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..core.message import Message, take_message_ids
from ..core.routing_function import RoutingAlgorithm
from .engine import CycleLimitExceeded, DeadlockError
from .injection import InjectionModel
from .metrics import LatencyStats, SimulationResult
from .plans import DELIVER_STEP, SELF_STEP
from .tables import EngineCapabilityError, RoutingTables

__all__ = ["VectorSimulator"]

#: Rank larger than any rotating-policy slot rank (masks occupied slots).
_NO_RANK = 1 << 40


class VectorSimulator:
    """Table-driven engine; drop-in for :class:`PacketSimulator` runs."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        central_capacity: int = 5,
        stall_limit: int = 1000,
        trace: bool = False,
        collect_occupancy: bool = False,
        occupancy_sample_every: int = 1,
        policy: str = "paper",
        service: str = "fifo",
        tables: RoutingTables | None = None,
    ):
        if policy not in ("paper", "rotating"):
            raise ValueError("policy must be 'paper' or 'rotating'")
        if service not in ("fifo", "lifo"):
            raise ValueError("service must be 'fifo' or 'lifo'")
        if trace:
            raise EngineCapabilityError(
                "the vector engine does not record per-hop traces; use "
                "engine='reference' or engine='compiled' "
                "(see docs/ARCHITECTURE.md)"
            )
        self.algorithm = algorithm
        self.topology = algorithm.topology
        self.injection = injection
        self.central_capacity = central_capacity
        self.stall_limit = stall_limit
        self.trace = False
        self.collect_occupancy = collect_occupancy
        self.occupancy_sample_every = occupancy_sample_every
        self.policy = policy
        self.service = service

        self.tables = (
            tables if tables is not None else RoutingTables(algorithm)
        )
        if self.tables.algorithm is not algorithm:
            raise ValueError("tables were built for a different algorithm")
        t = self.tables

        #: Node labels in reference order (injection models iterate this).
        self.nodes: list[Hashable] = t.nodes
        # Python lists of the per-node tables for the sparse loops.
        self._n_in = t.node_in_count.tolist()
        self._out_start = t.node_out_start.tolist()
        self._out_count = t.node_out_count.tolist()
        # Per class-count k: contiguous per-class slot columns, so the
        # link cycle gathers without re-slicing each cycle.
        self._link_cols: dict[int, list[np.ndarray]] = {
            k: [np.ascontiguousarray(mat[:, j]) for j in range(k)]
            for k, mat in t.link_groups.items()
        }
        # Homogeneous layouts (every node has the same queue kinds, so
        # qid = node * nk + kind) unlock the batched fill sweep.
        kind_counts = {len(qs) for qs in t.node_qids}
        self._uniform_nk = (
            kind_counts.pop() if len(kind_counts) == 1 else 0
        )

        # ---- dynamic state ---------------------------------------------
        # Central queues as one int matrix: row qid holds message
        # indices, -1-padded.  `_qlen` is the physical row length
        # (including in-fill tombstones), `_qcount` the live count;
        # rows are compacted (qlen == qcount, entries contiguous from
        # column 0) between phases.  Width 2*cap+2 covers the worst
        # mid-fill case (cap live + cap same-cycle MOVE appends).
        n_nodes = len(self.nodes)
        width = 2 * central_capacity + 2
        self._qbuf = np.full((t.n_queues, width), -1, dtype=np.int64)
        self._qlen = np.zeros(t.n_queues, dtype=np.int64)
        self._qcount = np.zeros(t.n_queues, dtype=np.int64)
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

        # Parallel per-message storage (index = registration order).
        # Numpy columns for the batch paths; python lists where only
        # the python paths touch them.  No Message object is kept: a
        # packet is its row.
        self._mn = 0
        cap0 = 1024
        self._muid = np.empty(cap0, dtype=np.int64)
        self._mdst = np.empty(cap0, dtype=np.int64)
        self._mstate = np.empty(cap0, dtype=np.int64)
        self._minj = np.empty(cap0, dtype=np.int64)
        # Entry queue/state the message will request on arrival —
        # resolved at hop time (external moves) or injection time.
        self._ment_q = np.empty(cap0, dtype=np.int64)
        self._ment_st = np.empty(cap0, dtype=np.int64)
        self._msig_q: list[int] = []
        self._msig_st: list[int] = []
        self._mrow: list[tuple | None] = []
        # Set once an injection row is empty or non-singleton; the
        # batched read cannot replay the multi-target retry loop, so
        # reads stay on the sparse path from then on.
        self._inj_multi = False

        #: Hybrid dispatch floors: batch phases win once this many
        #: nodes (fill) / buffered messages (read) act in one cycle.
        self.batch_fill_min = 24
        self.batch_read_min = 48

        # Bookkeeping (same contract as the reference engine).
        self.cycle = 0
        self.injected_count = 0
        self.delivered_count = 0
        self.active = 0
        self.latency = LatencyStats()
        self.measure_from = getattr(injection, "warmup", 0)
        self._last_progress = 0
        self.dead_nodes: frozenset = frozenset()
        self.blocked_links: frozenset = frozenset()
        self._events = None  # sink installed by TelemetryProbe.attach
        self._probe = None
        self._recording = False

        # Columnar event buffers (flat int lists; flushed every cycle).
        self._ev_inject: list[int] = []  # (cycle, mi, node) triples
        self._ev_enqueue: list[int] = []  # (cycle, mi, qid) triples
        self._ev_hop: list[int] = []  # (cycle, mi, slot, dyn, qid) 5-tuples
        self._ev_deliver: list[int] = []  # (cycle, mi) pairs

        # Occupancy accounting (engine-level collect_occupancy).
        self._occ_sum = None
        self._occ_peak = None
        self.occupancy_samples = 0

    @property
    def _nid(self) -> dict[Hashable, int]:
        return self.tables.nid

    @property
    def link_classes(self) -> dict[tuple, tuple[str, ...]]:
        """``(u, v) -> classes`` per directed link (built on first use)."""
        return self.tables.link_classes

    # ------------------------------------------------------------------
    # Observer interface (telemetry probes only)
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Accept a telemetry probe; reject everything else loudly."""
        from ..telemetry.probe import TelemetryProbe

        if isinstance(observer, TelemetryProbe):
            self._probe = observer
            return
        raise EngineCapabilityError(
            f"the vector engine has no generic observer loop and cannot "
            f"attach {type(observer).__name__}; fault injectors and "
            "watchdogs need engine='reference' or engine='compiled' "
            "(see docs/ARCHITECTURE.md)"
        )

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
            "_muid", "_mdst", "_mstate", "_minj", "_ment_q", "_ment_st"
        ):
            col = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: col.size] = col
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Injection-model interface
    # ------------------------------------------------------------------
    def injection_queue_free(self, u: Hashable) -> bool:
        return bool(self._inj[self._nid[u]] == -1)

    def place_in_injection_queue(
        self, u: Hashable, msg: Message, cycle: int
    ) -> None:
        """Place one prebuilt message (static backlogs, serve admission).

        The engine copies what it needs into its columns and keeps no
        reference to ``msg``.
        """
        ui = self._nid[u]
        if self._inj[ui] != -1:
            raise RuntimeError(f"injection queue at {u} occupied")
        msg.injected_cycle = cycle
        mi = self._mn
        if mi == self._mdst.size:
            self._grow_msgs()
        dst_i = self._nid[msg.dst]
        sid = self.tables.state_id(msg.state)
        self._muid[mi] = msg.uid
        self._mdst[mi] = dst_i
        self._mstate[mi] = sid
        self._minj[mi] = cycle
        self._msig_q.append(-1)
        self._msig_st.append(-1)
        self._mrow.append(None)
        row = self.tables.injection_row(ui, dst_i, sid)
        if len(row) == 1:
            self._ment_q[mi], self._ment_st[mi] = row[0]
        else:
            self._ment_q[mi] = -1
            self._ment_st[mi] = 0
            self._inj_multi = True
        self._mn = mi + 1
        self._inj[ui] = mi
        self.injected_count += 1
        self.active += 1
        self._last_progress = cycle
        if self._recording:
            self._ev_inject.extend((cycle, mi, ui))

    def place_batch(
        self, src_ids: np.ndarray, dst_ids: np.ndarray, cycle: int
    ) -> np.ndarray:
        """Inject a batch of packets as array rows; no :class:`Message`.

        Same contract as :meth:`PacketSimulator.place_batch`: sources
        are distinct node ids, a packet is placed when its source's
        injection buffer is free, uids are taken in array order among
        the placed packets (:func:`~repro.core.message.take_message_ids`),
        and the placed mask is returned.  Entry queues come from
        :meth:`RoutingTables.injection_rows`; a row without exactly one
        target leaves ``-1`` there and sends reads down the sparse path.
        """
        placed = self._inj[src_ids] == -1
        if not placed.all():
            src_ids = src_ids[placed]
            dst_ids = dst_ids[placed]
        k = src_ids.size
        if not k:
            return placed
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
        lo = self._mn
        hi = lo + k
        while hi > self._mdst.size:
            self._grow_msgs()
        first = take_message_ids(k)
        self._muid[lo:hi] = np.arange(first, first + k)
        self._mdst[lo:hi] = dst_ids
        self._mstate[lo:hi] = sids
        self._minj[lo:hi] = cycle
        self._ment_q[lo:hi] = ent_q
        self._ment_st[lo:hi] = ent_st
        if (ent_q < 0).any():
            self._inj_multi = True
        self._msig_q.extend([-1] * k)
        self._msig_st.extend([-1] * k)
        self._mrow.extend([None] * k)
        mis = np.arange(lo, hi)
        self._mn = hi
        self._inj[src_ids] = mis
        self.injected_count += k
        self.active += k
        self._last_progress = cycle
        if self._recording:
            ev = np.empty((k, 3), dtype=np.int64)
            ev[:, 0] = cycle
            ev[:, 1] = mis
            ev[:, 2] = src_ids
            self._ev_inject.extend(ev.ravel().tolist())
        return placed

    # ------------------------------------------------------------------
    # One routing cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        cycle = self.cycle
        # The sink is installed by attach() after construction.
        self._recording = self._events is not None
        probe = self._probe
        if probe is not None and probe.enabled:
            if cycle % probe.occupancy_every == 0:
                self._probe_sample(probe)
        self.injection.attempt(self, cycle)
        busy = np.flatnonzero(self._load)
        if busy.size:
            if self._uniform_nk and busy.size >= self.batch_fill_min:
                self._fill_batch(busy, cycle)
            else:
                for ui in busy.tolist():
                    self._fill_node(ui, cycle)
        self._read_inputs(cycle)
        self._link_cycle(cycle)
        if self._recording:
            self._flush_events()
        if self.collect_occupancy and cycle % self.occupancy_sample_every == 0:
            self._sample_occupancy()
        self.cycle += 1
        if (
            self.active > 0
            and self.cycle - self._last_progress > self.stall_limit
        ):
            raise DeadlockError(
                f"no progress for {self.stall_limit} cycles at cycle "
                f"{self.cycle} with {self.active} active packets "
                f"({self.algorithm.name})"
            )

    # -- node cycle, part 1: queues -> output buffers + internal moves ----
    def _fill_batch(self, busy: np.ndarray, cycle: int) -> None:
        """All busy nodes at once, one (position, kind) step at a time.

        Each step touches at most one message per node, and nodes are
        independent in the fill phase (queues, output buffers, and
        internal moves never cross nodes), so running the per-node
        steps in lockstep across the network reproduces each node's
        sequential message-major sweep exactly.
        """
        t = self.tables
        nk = self._uniform_nk
        qbuf = self._qbuf
        qlen = self._qlen
        qcount = self._qcount
        out = self._out
        load = self._load
        mstate = self._mstate
        mdst = self._mdst
        ment_q = self._ment_q
        ment_st = self._ment_st
        fill_rows = t.fill_rows
        recording = self._recording
        rotating = self.policy == "rotating"

        qbase = busy * nk
        lens = qlen[
            (qbase[:, None] + np.arange(nk)).ravel()
        ].reshape(-1, nk)
        maxlen = int(lens.max())
        positions = (
            range(maxlen)
            if self.service == "fifo"
            else range(maxlen - 1, -1, -1)
        )
        pending: list[tuple[int, int, int, tuple]] = []
        progressed = False
        for pos in positions:
            for r in range(nk):
                sel = np.flatnonzero(lens[:, r] > pos)
                if not sel.size:
                    continue
                q_sel = qbase[sel] + r
                mis = qbuf[q_sel, pos]
                rows = fill_rows(q_sel, mdst[mis], mstate[mis])
                cand = rows.slots
                free = out[cand] == -1
                got = free.any(axis=1)
                if rotating:
                    nodes_sel = busy[sel]
                    n_keys = np.maximum(t.node_out_count[nodes_sel], 1)
                    rank = (
                        cand - t.node_out_start[nodes_sel][:, None] - cycle
                    ) % n_keys[:, None]
                    rank[~free] = _NO_RANK
                    pick = np.argmin(rank, axis=1)
                else:
                    # "paper": slot-ascending, first free wins (rows
                    # are slot-sorted, padding sorts last).
                    pick = np.argmax(free, axis=1)
                gi = np.flatnonzero(got)
                if gi.size:
                    jg = pick[gi]
                    mg = mis[gi]
                    sg = cand[gi, jg]
                    out[sg] = mg
                    qg = q_sel[gi]
                    qbuf[qg, pos] = -1  # tombstone; compacted below
                    qcount[qg] -= 1
                    load[busy[sel[gi]]] -= 1
                    nq, nst, eq, est, dyn = rows.chosen(gi, jg, sg)
                    mstate[mg] = nst
                    ment_q[mg] = eq
                    ment_st[mg] = est
                    progressed = True
                    if recording:
                        ev = np.empty((gi.size, 5), dtype=np.int64)
                        ev[:, 0] = cycle
                        ev[:, 1] = mg
                        ev[:, 2] = sg
                        ev[:, 3] = dyn
                        ev[:, 4] = nq
                        self._ev_hop.extend(ev.ravel().tolist())
                blocked = np.flatnonzero(~got & rows.hasint)
                if blocked.size:
                    pending.extend(
                        zip(
                            q_sel[blocked].tolist(),
                            [pos] * blocked.size,
                            mis[blocked].tolist(),
                            rows.internal(blocked),
                        )
                    )
        if progressed:
            self._last_progress = cycle
        if pending:
            self._run_internal(pending, cycle)
        self._compact()

    def _run_internal(
        self, pending: list[tuple[int, int, int, tuple]], cycle: int
    ) -> None:
        """Internal moves for the batch fill, in sweep order.

        ``pending`` holds ``(queue, position, message, steps)`` with the
        row's internal ``(action, queue, state)`` steps.  Per node this
        is the same (position, kind)-ordered pending list the sparse
        path builds, and internal moves never cross nodes, so the
        global order is immaterial.
        """
        t = self.tables
        cap = self.central_capacity
        qlen = self._qlen
        qcount = self._qcount
        mstate = self._mstate
        queue_node = t.queue_node
        recording = self._recording
        for qid, pos, mi, steps in pending:
            for action, tq, tst in steps:
                if action == DELIVER_STEP:
                    self._qbuf[qid, pos] = -1
                    qcount[qid] -= 1
                    self._load[queue_node[qid]] -= 1
                    self._deliver(mi, cycle)
                    break
                if action == SELF_STEP:
                    mstate[mi] = tst
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break
                # MOVE_STEP: sibling central queue, capacity permitting.
                if qcount[tq] < cap:
                    self._qbuf[qid, pos] = -1
                    qcount[qid] -= 1
                    end = int(qlen[tq])
                    if end >= self._qbuf.shape[1]:
                        self._grow_qbuf(end)
                    self._qbuf[tq, end] = mi
                    qlen[tq] = end + 1
                    qcount[tq] += 1
                    mstate[mi] = tst
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break

    def _compact(self) -> None:
        """Squeeze in-fill tombstones out of dirty queue rows.

        Stable partition: survivors keep their order, same-cycle MOVE
        appends stay behind them — the order the sparse path produces.
        """
        qlen = self._qlen
        qcount = self._qcount
        dirty = np.flatnonzero(qlen != qcount)
        if dirty.size:
            rows = self._qbuf[dirty]
            order = np.argsort(rows == -1, axis=1, kind="stable")
            self._qbuf[dirty] = np.take_along_axis(rows, order, axis=1)
            qlen[dirty] = qcount[dirty]

    def _fill_node(self, ui: int, cycle: int) -> None:
        t = self.tables
        qbuf = self._qbuf
        qlen = self._qlen
        qcount = self._qcount
        qlists: dict[int, list[int]] = {}
        active = []
        maxlen = 0
        for qid in t.node_qids[ui]:
            length = int(qlen[qid])
            if length:
                q = qbuf[qid, :length].tolist()
                qlists[qid] = q
                active.append((qid, q))
                if length > maxlen:
                    maxlen = length

        out = self._out
        base = self._out_start[ui]
        n_keys = self._out_count[ui]
        start = (
            cycle % n_keys
            if (self.policy == "rotating" and n_keys)
            else 0
        )
        mstate = self._mstate
        mdst = self._mdst
        msig_q = self._msig_q
        msig_st = self._msig_st
        mrow = self._mrow
        central_row = t.central_row
        entry_row = t.entry_row
        recording = self._recording
        removed: dict[int, list[int]] = {}
        appended: set[int] = set()
        delta: dict[int, int] = {}
        pending: list[tuple] = []
        load_delta = 0

        # Message-major assignment in service order (positions
        # ascending for FIFO / descending for LIFO, queue-id ascending
        # as the tie-break) — the compiled engine's loop, on ints.
        positions = (
            range(maxlen)
            if self.service == "fifo"
            else range(maxlen - 1, -1, -1)
        )
        for pos in positions:
            for qid, q in active:
                if pos >= len(q):
                    continue
                mi = q[pos]
                st = int(mstate[mi])
                if msig_q[mi] == qid and msig_st[mi] == st:
                    row = mrow[mi]
                else:
                    row = central_row(qid, int(mdst[mi]), st)
                    msig_q[mi] = qid
                    msig_st[mi] = st
                    mrow[mi] = row
                ext_slots = row[0]
                chosen = -1
                if ext_slots:
                    if start:
                        # "rotating": minimum rank from the cycle's
                        # starting slot.
                        best = n_keys
                        for j, s in enumerate(ext_slots):
                            if out[s] == -1:
                                rnk = s - base - start
                                if rnk < 0:
                                    rnk += n_keys
                                if rnk < best:
                                    best = rnk
                                    chosen = j
                    else:
                        # "paper": slot-ascending, first free wins.
                        for j, s in enumerate(ext_slots):
                            if out[s] == -1:
                                chosen = j
                                break
                if chosen >= 0:
                    s = ext_slots[chosen]
                    removed.setdefault(qid, []).append(pos)
                    delta[qid] = delta.get(qid, 0) - 1
                    load_delta -= 1
                    nst = row[2][chosen]
                    mstate[mi] = nst
                    tq = row[1][chosen]
                    eq, est = entry_row(tq, int(mdst[mi]), nst)
                    self._ment_q[mi] = eq
                    self._ment_st[mi] = est
                    out[s] = mi
                    self._last_progress = cycle
                    if recording:
                        self._ev_hop.extend(
                            (cycle, mi, s, row[3][chosen], tq)
                        )
                elif row[4]:
                    pending.append((qid, pos, mi, row[4]))

        # Internal moves (phase change, delivery, self-state updates).
        cap = self.central_capacity
        for qid, pos, mi, internal in pending:
            for action, tq, tst in internal:
                if action == DELIVER_STEP:
                    removed.setdefault(qid, []).append(pos)
                    delta[qid] = delta.get(qid, 0) - 1
                    load_delta -= 1
                    self._deliver(mi, cycle)
                    break
                if action == SELF_STEP:
                    mstate[mi] = tst
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break
                # MOVE_STEP: sibling central queue, capacity permitting.
                tlist = qlists.setdefault(tq, [])
                if len(tlist) + delta.get(tq, 0) < cap:
                    removed.setdefault(qid, []).append(pos)
                    delta[qid] = delta.get(qid, 0) - 1
                    mstate[mi] = tst
                    tlist.append(mi)
                    appended.add(tq)
                    self._last_progress = cycle
                    if recording:
                        self._ev_enqueue.extend((cycle, mi, tq))
                    break

        # One write-back per touched queue (deferred pops, compacted).
        if removed or appended:
            for qid in set(removed) | appended:
                q = qlists[qid]
                drop = removed.get(qid)
                if drop:
                    keep = set(drop)
                    q = [m for i, m in enumerate(q) if i not in keep]
                length = len(q)
                old = int(qlen[qid])
                if length > qbuf.shape[1]:
                    self._grow_qbuf(length)
                    qbuf = self._qbuf
                if length:
                    qbuf[qid, :length] = q
                if length < old:
                    qbuf[qid, length:old] = -1
                qlen[qid] = length
                qcount[qid] = length
        if load_delta:
            self._load[ui] += load_delta

    # -- node cycle, part 2: input + injection buffers -> queues ----------
    def _read_inputs(self, cycle: int) -> None:
        arrivals = np.flatnonzero(self._in != -1)
        inj_nodes = np.flatnonzero(self._inj != -1)
        count = arrivals.size + inj_nodes.size
        if not count:
            return
        if count >= self.batch_read_min and not self._inj_multi:
            self._read_batch(arrivals, inj_nodes, cycle)
        else:
            self._read_sparse(arrivals, inj_nodes, cycle)

    def _read_batch(
        self, arrivals: np.ndarray, inj_nodes: np.ndarray, cycle: int
    ) -> None:
        """All occupied input/injection buffers in one admission pass.

        Rank ``(source position - cycle) mod (inputs + 1)`` is the
        reference engine's rotated read order (the injection buffer
        sits at position ``inputs``).  Sorting by (node, rank) and
        admitting per-target-queue prefixes against free capacity
        equals the sequential loop: a rejected read has no side
        effects, and an admission only consumes capacity in its own
        queue.
        """
        nodes_parts = []
        rank_parts = []
        mi_parts = []
        src_parts = []
        t = self.tables
        if arrivals.size:
            a_nodes = t.slot_dst[arrivals]
            a_total = t.node_in_count[a_nodes] + 1
            nodes_parts.append(a_nodes)
            rank_parts.append((t.slot_in_pos[arrivals] - cycle) % a_total)
            mi_parts.append(self._in[arrivals])
            src_parts.append(arrivals)
        if inj_nodes.size:
            i_total = t.node_in_count[inj_nodes] + 1
            nodes_parts.append(inj_nodes)
            rank_parts.append((i_total - 1 - cycle) % i_total)
            mi_parts.append(self._inj[inj_nodes])
            src_parts.append(np.full(inj_nodes.size, -1, dtype=np.int64))
        nodes_all = np.concatenate(nodes_parts)
        rank_all = np.concatenate(rank_parts)
        mi_all = np.concatenate(mi_parts)
        src_all = np.concatenate(src_parts)

        order = np.lexsort((rank_all, nodes_all))
        mi_o = mi_all[order]
        tq_o = self._ment_q[mi_o]
        group = np.argsort(tq_o, kind="stable")
        tq_s = tq_o[group]
        mi_s = mi_o[group]
        src_s = src_all[order][group]
        node_s = nodes_all[order][group]
        total = tq_s.size
        starts = np.flatnonzero(np.r_[True, tq_s[1:] != tq_s[:-1]])
        counts = np.diff(np.r_[starts, total])
        seq = np.arange(total) - np.repeat(starts, counts)
        admit = np.flatnonzero(
            seq < self.central_capacity - self._qcount[tq_s]
        )
        if not admit.size:
            return
        tq_a = tq_s[admit]
        mi_a = mi_s[admit]
        src_a = src_s[admit]
        node_a = node_s[admit]
        pos = self._qlen[tq_a] + seq[admit]
        high = int(pos.max())
        if high >= self._qbuf.shape[1]:
            self._grow_qbuf(high)
        self._qbuf[tq_a, pos] = mi_a
        np.add.at(self._qlen, tq_a, 1)
        np.add.at(self._qcount, tq_a, 1)
        np.add.at(self._load, node_a, 1)
        self._mstate[mi_a] = self._ment_st[mi_a]
        from_link = src_a >= 0
        self._in[src_a[from_link]] = -1
        self._inj[node_a[~from_link]] = -1
        self._last_progress = cycle
        if self._recording:
            ev = np.empty((mi_a.size, 3), dtype=np.int64)
            ev[:, 0] = cycle
            ev[:, 1] = mi_a
            ev[:, 2] = tq_a
            self._ev_enqueue.extend(ev.ravel().tolist())

    def _read_sparse(
        self, arrivals: np.ndarray, inj_nodes: np.ndarray, cycle: int
    ) -> None:
        t = self.tables
        # Per receiving node: (input position, slot) of each arrival.
        per_node: dict[int, list[tuple[int, int]]] = {}
        if arrivals.size:
            for v, p, s in zip(
                t.slot_dst[arrivals].tolist(),
                t.slot_in_pos[arrivals].tolist(),
                arrivals.tolist(),
            ):
                per_node.setdefault(v, []).append((p, s))
        targets = set(per_node)
        targets.update(inj_nodes.tolist())

        qbuf = self._qbuf
        qlen = self._qlen
        qcount = self._qcount
        cap = self.central_capacity
        mstate = self._mstate
        mdst = self._mdst
        ment_q = self._ment_q
        ment_st = self._ment_st
        injection_row = t.injection_row
        recording = self._recording
        in_buf = self._in
        inj = self._inj
        for ui in targets:
            n_in = self._n_in[ui]
            total = n_in + 1  # + the injection buffer
            start = cycle % total
            # Occupied sources in the reference engine's rotated order:
            # rank = (source position - start) mod total; slot lists are
            # ascending, the injection buffer sits at position n_in.
            items = [
                ((p - start) % total, s) for p, s in per_node.get(ui, ())
            ]
            if inj[ui] != -1:
                items.append(((n_in - start) % total, -1))
            if len(items) > 1:
                items.sort()
            filled = 0
            for _rank, s in items:
                if s == -1:  # the injection buffer
                    mi = int(inj[ui])
                    if ment_q[mi] >= 0:
                        cands = ((int(ment_q[mi]), int(ment_st[mi])),)
                    else:  # no or several targets: the full row
                        cands = injection_row(
                            ui, int(mdst[mi]), int(mstate[mi])
                        )
                else:
                    mi = int(in_buf[s])
                    cands = ((int(ment_q[mi]), int(ment_st[mi])),)
                for tq, tst in cands:
                    if qcount[tq] < cap:
                        if s == -1:
                            inj[ui] = -1
                        else:
                            in_buf[s] = -1
                        mstate[mi] = tst
                        end = int(qlen[tq])
                        if end >= qbuf.shape[1]:
                            self._grow_qbuf(end)
                            qbuf = self._qbuf
                        qbuf[tq, end] = mi
                        qlen[tq] = end + 1
                        qcount[tq] += 1
                        filled += 1
                        self._last_progress = cycle
                        if recording:
                            self._ev_enqueue.extend((cycle, mi, tq))
                        break
            if filled:
                self._load[ui] += filled

    # -- link cycle --------------------------------------------------------
    def _link_cycle(self, cycle: int) -> None:
        out = self._out
        inb = self._in
        progressed = False
        for k, cols in self._link_cols.items():
            if k == 1:
                col = cols[0]
                mv = (out[col] != -1) & (inb[col] == -1)
                if mv.any():
                    mc = col[mv]
                    inb[mc] = out[mc]
                    out[mc] = -1
                    progressed = True
            else:
                r = cycle % k
                done = np.zeros(len(cols[0]), dtype=bool)
                for p in range(k):
                    col = cols[(r + p) % k]
                    mv = (out[col] != -1) & (inb[col] == -1) & ~done
                    if mv.any():
                        mc = col[mv]
                        inb[mc] = out[mc]
                        out[mc] = -1
                        done |= mv
                        progressed = True
        if progressed:
            self._last_progress = cycle

    # -- delivery and stats -------------------------------------------------
    def _deliver(self, mi: int, cycle: int) -> None:
        self.delivered_count += 1
        self.active -= 1
        self._last_progress = cycle
        if self._recording:
            self._ev_deliver.extend((cycle, mi))
        injected = int(self._minj[mi])
        if injected >= self.measure_from:
            self.latency.record(cycle - injected)

    def _sample_occupancy(self) -> None:
        lens = self._qcount
        if self._occ_sum is None:
            self._occ_sum = np.zeros(self.tables.n_queues, dtype=np.int64)
            self._occ_peak = np.zeros(self.tables.n_queues, dtype=np.int64)
        self._occ_sum += lens
        np.maximum(self._occ_peak, lens, out=self._occ_peak)
        self.occupancy_samples += 1

    def occupancy_mean(self) -> dict[tuple[Hashable, str], float]:
        if not self.occupancy_samples:
            return {}
        t = self.tables
        return {
            (t.nodes[ui], kind): int(total) / self.occupancy_samples
            for ui, kind, total in zip(
                t.queue_node.tolist(), t.queue_kind, self._occ_sum.tolist()
            )
        }

    def _occupancy_peaks(self) -> dict[tuple[Hashable, str], int]:
        # The reference engine only records queues seen occupied.
        if self._occ_peak is None:
            return {}
        t = self.tables
        seen = np.flatnonzero(self._occ_peak)
        return {
            (t.nodes[ui], t.queue_kind[q]): peak
            for q, ui, peak in zip(
                seen.tolist(),
                t.queue_node[seen].tolist(),
                self._occ_peak[seen].tolist(),
            )
        }

    # -- telemetry ---------------------------------------------------------
    def _probe_sample(self, probe) -> None:
        lens = self._qcount
        hist = probe._occ_hist
        if hist is not None:
            for occ, count in enumerate(np.bincount(lens).tolist()):
                if count:
                    hist.observe_many(occ, count)
        if probe.series_enabled:
            # Queue ids are node-major in reference order, so this is
            # the generic engines' (node, kind) sampling order.
            c = self.cycle
            labels = self.tables.queue_objs
            probe.occupancy_series.extend(
                (c, u, kind, occ)
                for (u, kind), occ in zip(labels, lens.tolist())
            )
        if probe._inflight is not None:
            probe._inflight.set(self.active)

    def _materialize_events(self) -> list[tuple]:
        """Buffered columns -> canonical raw event tuples.

        Concatenation order (inject, enqueue, hop, deliver) plus a
        stable sort by ``(cycle, uid)`` reproduces
        :meth:`EventLog.canonical` exactly: the only same-``(cycle,
        uid)`` pair an engine can emit is inject-then-enqueue, and the
        concat order preserves it.  Per-message columns are gathered
        only at the indices the buffers name, so the cost is
        proportional to the batch, not to every packet ever injected.
        """
        t = self.tables
        nodes = t.nodes
        muid = self._muid
        qkind = t.queue_kind
        evs: list[tuple] = []
        buf = self._ev_inject
        mis = buf[1::3]
        evs.extend(
            ("inject", c, uid, nodes[ui], nodes[d])
            for c, uid, ui, d in zip(
                buf[0::3],
                muid[mis].tolist(),
                buf[2::3],
                self._mdst[mis].tolist(),
            )
        )
        buf = self._ev_enqueue
        qnode = t.queue_labels
        evs.extend(
            ("enqueue", c, uid, qnode[qid], qkind[qid])
            for c, uid, qid in zip(
                buf[0::3], muid[buf[1::3]].tolist(), buf[2::3]
            )
        )
        buf = self._ev_hop
        evs.extend(
            ("hop", c, uid, u, v, cls, bool(dyn), qkind[tq])
            for c, uid, (u, v, cls), dyn, tq in zip(
                buf[0::5],
                muid[buf[1::5]].tolist(),
                map(t.slot_labels.__getitem__, buf[2::5]),
                buf[3::5],
                buf[4::5],
            )
        )
        buf = self._ev_deliver
        mis = buf[1::2]
        evs.extend(
            ("deliver", c, uid, nodes[d], c - inj)
            for c, uid, d, inj in zip(
                buf[0::2],
                muid[mis].tolist(),
                self._mdst[mis].tolist(),
                self._minj[mis].tolist(),
            )
        )
        evs.sort(key=lambda ev: (ev[1], ev[2]))
        return evs

    def _flush_events(self) -> None:
        """Hand the buffered events to the sink and empty the buffers.

        Called at the end of every recording :meth:`step`, so each
        batch holds one cycle and batches arrive in cycle order: the
        sink sees the canonical stream as it happens (live serve
        metrics) and the buffers never outgrow one cycle's traffic.
        """
        evs = self._materialize_events()
        for buf in (
            self._ev_inject, self._ev_enqueue, self._ev_hop, self._ev_deliver
        ):
            buf.clear()
        if not evs:
            return
        sink = self._events
        extend = getattr(sink, "extend", None)
        if extend is not None:
            extend(evs)
        else:
            for ev in evs:
                sink.append(ev)

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> SimulationResult:
        """Run until the injection model reports completion.

        Same contract as :meth:`PacketSimulator.run`, minus observer
        halts (the vector engine attaches no fault observers).
        """
        self.injection.setup(self)
        limit = max_cycles if max_cycles is not None else 10_000_000
        while self.cycle < limit:
            self.step()
            if self.injection.finished(self, self.cycle - 1):
                break
        else:
            raise CycleLimitExceeded(
                f"simulation exceeded {limit} cycles with no end in "
                f"sight: {self.active} of {self.injected_count} "
                f"injected packets still in flight "
                f"({self.algorithm.name}; raise max_cycles or check "
                "for livelock)"
            )
        occupancy = {}
        if self.collect_occupancy:
            occupancy = {
                "mean": self.occupancy_mean(),
                "peak": self._occupancy_peaks(),
            }
        result = SimulationResult(
            algorithm=self.algorithm.name,
            topology=self.topology.name,
            pattern=getattr(self.injection, "pattern", None).name
            if getattr(self.injection, "pattern", None)
            else "?",
            injection=self.injection.name,
            cycles=self.cycle,
            injected=self.injected_count,
            delivered=self.delivered_count,
            latency=self.latency,
            attempts=getattr(self.injection, "attempts", 0),
            successes=getattr(self.injection, "successes", 0),
            undelivered=self.active,
            occupancy=occupancy,
        )
        if self._probe is not None:
            # Every step flushed its own events; only the summary is left.
            self._probe.on_run_end(self, result)
        return result
