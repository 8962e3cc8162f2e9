"""Cycle-accurate packet-switched network simulator (paper, Section 7.1).

Reproduces the paper's node activity exactly:

* every node owns an injection queue of size 1, central queues of size
  5 (configurable), and an unbounded delivery queue;
* each **routing cycle** is one *node cycle* followed by one *link
  cycle*;
* in the node cycle, the node first fills its output buffers "from low
  to high dimensions, taking messages from the queues in FIFO order"
  (buffer-major assignment; if two messages want the same buffer the
  FIFO-earlier one wins), then reads its input buffers and its
  injection buffer and moves their messages into the required queues,
  with rotating-priority fairness;
* in the link cycle each link sends at most one packet per direction,
  and only into an empty input buffer on the far side;
* consequently a packet needs at least two routing cycles to cross a
  node (input buffer -> queue, queue -> output buffer).

Latency is counted from the cycle a packet enters its injection queue
to the cycle it enters the delivery queue; with this convention an
uncontended ``h``-hop route costs exactly ``2h + 1`` cycles, which
reproduces the paper's deterministic Table 2 (complement, one packet:
``L = 2n + 1``).

The engine is generic over :class:`~repro.core.routing_function.RoutingAlgorithm`
and :class:`~repro.topology.base.Topology`; adaptivity emerges from
messages grabbing whichever allowed output buffer is free first.

**Role in the engine lineage** (see ``docs/ARCHITECTURE.md`` for the
full capability matrix): :class:`PacketSimulator` is the *reference*
engine — the executable specification the fast engine
(:class:`~repro.sim.vector.VectorSimulator`) is cross-validated
against, packet for packet.  Both engines derive from
:class:`BaseSimulator`, which owns everything around the node and link
cycles: constructor checks, bookkeeping, the observer loop and the
stall path, :meth:`~BaseSimulator.run`, and occupancy statistics read
through one accessor per engine (:meth:`~BaseSimulator.queue_lengths`).
The reference engine supports the complete feature surface — any
topology, fault observers, telemetry probes, FIFO/LIFO service — and
has no limitations other than speed: every hop re-derives
``static_hops`` / ``dynamic_hops`` / ``buffer_class`` /
``update_state`` through the generic interface, which is the 1x
baseline the vector engine is measured over.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..core.message import Message
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm
from ..node.arbitration import rotated
from .injection import InjectionModel
from .metrics import LatencyStats, SimulationResult


class DeadlockError(RuntimeError):
    """Raised when no packet makes progress for ``stall_limit`` cycles."""


class CycleLimitExceeded(RuntimeError):
    """Raised when :meth:`BaseSimulator.run` hits its ``max_cycles`` cap.

    Distinct from :class:`DeadlockError`: the network may still be
    making (slow) progress, it just did not finish within the budget.
    """


class SimulationHalt(Exception):
    """Control-flow signal: an observer asks the run to stop gracefully.

    Raised by observers (e.g. the fault watchdog in
    :mod:`repro.faults.watchdog`) when continuing is pointless — every
    remaining packet is provably undeliverable under the current fault
    set — but the partial result is still meaningful.  ``run`` catches
    it and finalizes the :class:`SimulationResult` with ``halt`` set.
    """

    def __init__(self, reason: str, report=None, undeliverable: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.report = report
        self.undeliverable = undeliverable


class BaseSimulator:
    """Everything around the node and link cycles, shared by both engines.

    It owns the constructor arguments both engines take and their
    checks, the bookkeeping (cycle, counts, latency, progress, live
    fault state), the observer loop and the stall path, :meth:`run`
    and its :class:`SimulationResult`, and the occupancy statistics.
    An engine supplies one routing cycle's node and link cycles
    (:meth:`_route_cycle`), injection (``injection_free`` /
    ``place_batch``) and two views of its central queues, both in
    queue-id order (:meth:`queue_keys`): :meth:`queue_lengths` and
    :meth:`queue_packets`.
    """

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        central_capacity: int = 5,
        stall_limit: int = 1000,
        collect_occupancy: bool = False,
        service: str = "fifo",
    ):
        if service not in ("fifo", "lifo"):
            raise ValueError("service must be 'fifo' or 'lifo'")
        self.algorithm = algorithm
        self.topology = algorithm.topology
        self.injection = injection
        self.central_capacity = central_capacity
        self.stall_limit = stall_limit
        self.collect_occupancy = collect_occupancy
        #: Queue service discipline.  The paper's livelock-freedom rests
        #: on FIFO fairness; ``"lifo"`` (youngest first) deliberately
        #: violates it so starvation becomes observable
        #: (benchmarks/test_ablation_fairness.py).
        self.service = service
        #: Node labels; queue ids and injection models follow this order.
        self.nodes: list[Hashable] = []

        # Bookkeeping.
        self.cycle = 0
        self.injected_count = 0
        self.delivered_count = 0
        self.active = 0  # injected but not yet delivered
        self.latency = LatencyStats()
        self.measure_from = getattr(injection, "warmup", 0)
        self._last_progress = 0
        #: Cycle observers (duck-typed): ``on_cycle(sim, cycle)`` runs
        #: at the start of every routing cycle; an optional
        #: ``on_stall(sim) -> bool`` is consulted before the engine
        #: raises :class:`DeadlockError` (return True to suppress, or
        #: raise :class:`SimulationHalt` / a richer error instead).
        #: Empty by default, so the healthy hot path is untouched.
        self.observers: list = []
        #: Telemetry event sink (``repro.telemetry``): when an object
        #: with ``append`` is installed here, the engine feeds it the
        #: packet movements (inject/hop/enqueue/deliver).  None by
        #: default — the disabled cost is a None-check per move.
        self._events = None
        #: Live fault state (owned by :class:`repro.faults.adapters.FaultInjector`).
        #: ``dead_nodes`` freeze a node's whole node cycle and block its
        #: injection queue; ``blocked_links`` (dead + stalled directed
        #: links) transfer nothing during the link cycle.  Both empty in
        #: a healthy run, where every guard short-circuits.  ``faults``
        #: is the installed FaultSet itself (None until one is), which
        #: telemetry probes watch for epoch changes.
        self.faults = None
        self.dead_nodes: frozenset = frozenset()
        self.blocked_links: frozenset = frozenset()
        # Occupancy sums and peaks per queue id (collect_occupancy).
        self.occupancy_samples = 0
        self._occ_sum: np.ndarray | None = None
        self._occ_peak: np.ndarray | None = None
        self._queue_keys: list[tuple[Hashable, str]] | None = None

    def add_observer(self, observer) -> None:
        """Attach a cycle observer (fault injector, watchdog, probe)."""
        self.observers.append(observer)

    # ------------------------------------------------------------------
    # Central-queue views (queue-id order)
    # ------------------------------------------------------------------
    def queue_keys(self) -> list[tuple[Hashable, str]]:
        """``(node, kind)`` of every central queue, in queue-id order.

        Node-major in :attr:`nodes` order, each node's kinds in
        ``central_queue_kinds`` order: the queue ids of
        :class:`~repro.sim.tables.RoutingTables`.
        """
        if self._queue_keys is None:
            kinds = self.algorithm.central_queue_kinds
            self._queue_keys = [
                (u, kind) for u in self.nodes for kind in kinds(u)
            ]
        return self._queue_keys

    def queue_lengths(self) -> np.ndarray:
        """Current length of every central queue (int array, read-only)."""
        raise NotImplementedError

    def queue_packets(self, q: int) -> list[tuple[Hashable, object]]:
        """``(destination, routing state)`` of queue ``q``'s packets,
        in queue order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # One routing cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        cycle = self.cycle
        if self.observers:
            for obs in self.observers:
                obs.on_cycle(self, cycle)
        self.injection.attempt(self, cycle)
        self._route_cycle(cycle)
        if self.collect_occupancy:
            self._sample_occupancy()
        self.cycle += 1
        if (
            self.active > 0
            and self.cycle - self._last_progress > self.stall_limit
        ):
            self._on_stall()

    def _route_cycle(self, cycle: int) -> None:
        """The node cycle and the link cycle of routing cycle ``cycle``."""
        raise NotImplementedError

    def _on_stall(self) -> None:
        """No packet moved for ``stall_limit`` cycles.

        Observers get the first say: a fault injector may suppress the
        alarm because a scheduled fault transition is still ahead, and
        the deadlock watchdog raises a structured
        :class:`~repro.faults.watchdog.DeadlockDetected` (or a graceful
        :class:`SimulationHalt`) instead of the bare error below.
        """
        for obs in self.observers:
            handler = getattr(obs, "on_stall", None)
            if handler is not None and handler(self):
                return  # handled: keep running
        raise DeadlockError(
            f"no progress for {self.stall_limit} cycles at cycle "
            f"{self.cycle} with {self.active} active packets "
            f"({self.algorithm.name})"
        )

    # ------------------------------------------------------------------
    # Occupancy statistics
    # ------------------------------------------------------------------
    def _sample_occupancy(self) -> None:
        lens = self.queue_lengths()
        if self._occ_sum is None:
            self._occ_sum = np.zeros(lens.size, dtype=np.int64)
            self._occ_peak = np.zeros(lens.size, dtype=np.int64)
        self._occ_sum += lens
        np.maximum(self._occ_peak, lens, out=self._occ_peak)
        self.occupancy_samples += 1

    def occupancy(self) -> dict:
        """``{"mean": ..., "peak": ...}`` per ``(node, kind)`` queue.

        The mean covers every queue; the peak only queues ever seen
        occupied.  Empty before the first sample.
        """
        n = self.occupancy_samples
        if not n:
            return {}
        keys = self.queue_keys()
        seen = np.flatnonzero(self._occ_peak)
        return {
            "mean": {
                key: total / n
                for key, total in zip(keys, self._occ_sum.tolist())
            },
            "peak": dict(
                zip(
                    map(keys.__getitem__, seen.tolist()),
                    self._occ_peak[seen].tolist(),
                )
            ),
        }

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> SimulationResult:
        """Run until the injection model reports completion.

        ``max_cycles`` is a hard safety cap (default 10M): exceeding it
        raises :class:`CycleLimitExceeded` with the in-flight packet
        count instead of looping forever.  A :class:`SimulationHalt`
        raised by an observer (e.g. the fault watchdog deciding every
        remaining packet is undeliverable) ends the run gracefully and
        is recorded on the result instead of propagating.
        """
        self.injection.setup(self)
        limit = max_cycles if max_cycles is not None else 10_000_000
        halt: SimulationHalt | None = None
        try:
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
        except SimulationHalt as h:
            halt = h
        pattern = getattr(self.injection, "pattern", None)
        result = SimulationResult(
            algorithm=self.algorithm.name,
            topology=self.topology.name,
            pattern=pattern.name if pattern else "?",
            injection=self.injection.name,
            cycles=self.cycle,
            injected=self.injected_count,
            delivered=self.delivered_count,
            latency=self.latency,
            attempts=getattr(self.injection, "attempts", 0),
            successes=getattr(self.injection, "successes", 0),
            undelivered=self.active,
            occupancy=self.occupancy() if self.collect_occupancy else {},
            halt=halt.reason if halt is not None else None,
            undeliverable=halt.undeliverable if halt is not None else 0,
        )
        # Run-end observer hook (e.g. a telemetry probe folding its
        # collected signals into result.telemetry).
        for obs in self.observers:
            hook = getattr(obs, "on_run_end", None)
            if hook is not None:
                hook(self, result)
        return result


class PacketSimulator(BaseSimulator):
    """Simulates one routing algorithm under one injection model."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        central_capacity: int = 5,
        stall_limit: int = 1000,
        collect_occupancy: bool = False,
        service: str = "fifo",
    ):
        super().__init__(
            algorithm, injection, central_capacity, stall_limit,
            collect_occupancy, service,
        )
        topo = self.topology
        self.nodes = list(topo.nodes())

        # Per-node queue structure.
        self.kinds: dict[Hashable, tuple[str, ...]] = {}
        self.central: dict[Hashable, dict[str, list[Message]]] = {}
        self.inj: dict[Hashable, Message | None] = {}
        for u in self.nodes:
            kinds = algorithm.central_queue_kinds(u)
            self.kinds[u] = kinds
            self.central[u] = {k: [] for k in kinds}
            self.inj[u] = None
        #: The central queues in queue-id order (the same list objects).
        self._queues: list[list[Message]] = [
            q for u in self.nodes for q in self.central[u].values()
        ]

        # Link buffers: one output + one input slot per (u, v, class).
        self.out_buf: dict[tuple, Message | None] = {}
        self.in_buf: dict[tuple, Message | None] = {}
        #: Per node: outgoing (v, class, key) in low-to-high link order.
        self.out_keys: dict[Hashable, list[tuple[Hashable, str, tuple]]] = {}
        #: Per node: incoming buffer keys.
        self.in_keys: dict[Hashable, list[tuple]] = {}
        #: Per directed link: its traffic classes.
        self.link_classes: dict[tuple[Hashable, Hashable], tuple[str, ...]] = {}
        for u in self.nodes:
            self.out_keys[u] = []
            self.in_keys.setdefault(u, [])
        for u in self.nodes:
            nbrs = sorted(
                topo.neighbors(u), key=lambda v: topo.link_index(u, v)
            )
            for v in nbrs:
                classes = algorithm.buffer_classes(u, v)
                self.link_classes[(u, v)] = classes
                for cls in classes:
                    key = (u, v, cls)
                    self.out_buf[key] = None
                    self.in_buf[key] = None
                    self.out_keys[u].append((v, cls, key))
                    self.in_keys[v].append(key)

    def queue_lengths(self) -> np.ndarray:
        queues = self._queues
        return np.fromiter(map(len, queues), dtype=np.int64, count=len(queues))

    def queue_packets(self, q: int) -> list[tuple[Hashable, object]]:
        return [(msg.dst, msg.state) for msg in self._queues[q]]

    # ------------------------------------------------------------------
    # Injection-model interface
    # ------------------------------------------------------------------
    def injection_free(self, src_ids: np.ndarray) -> np.ndarray:
        """Whether each node id's injection queue is free (bool mask).

        Ids index :attr:`nodes`; a down node refuses (it generates
        nothing).
        """
        nodes = self.nodes
        inj = self.inj
        dead = self.dead_nodes
        return np.fromiter(
            (
                inj[u] is None and u not in dead
                for u in map(nodes.__getitem__, src_ids.tolist())
            ),
            dtype=bool,
            count=len(src_ids),
        )

    def place_batch(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        uids: np.ndarray,
        cycle: int,
    ) -> None:
        """Inject one packet per ``(src_ids[i], dst_ids[i])`` pair.

        Ids index :attr:`nodes`.  Every source's injection queue must be
        free (:meth:`injection_free`), so sources are distinct.  Packet
        ``i`` is a fresh :class:`Message` with uid ``uids[i]`` (taken by
        the caller with :func:`~repro.core.message.take_message_ids`)
        in the algorithm's initial state.
        """
        nodes = self.nodes
        alg = self.algorithm
        inj = self.inj
        events = self._events
        packets = zip(src_ids.tolist(), dst_ids.tolist(), uids.tolist())
        for s, d, uid in packets:
            u = nodes[s]
            dst = nodes[d]
            if inj[u] is not None:
                raise RuntimeError(f"injection queue at {u} occupied")
            msg = Message(
                src=u,
                dst=dst,
                uid=uid,
                injected_cycle=cycle,
                state=alg.initial_state(u, dst),
            )
            inj[u] = msg
            if events is not None:
                events.append(("inject", cycle, uid, u, dst))
        if len(src_ids):
            self.injected_count += len(src_ids)
            self.active += len(src_ids)
            self._last_progress = cycle

    # ------------------------------------------------------------------
    # One routing cycle
    # ------------------------------------------------------------------
    def _route_cycle(self, cycle: int) -> None:
        dead = self.dead_nodes
        if dead:
            for u in self.nodes:
                if u not in dead:
                    self._node_fill_output_buffers(u)
            for u in self.nodes:
                if u not in dead:
                    self._node_read_inputs(u)
        else:
            for u in self.nodes:
                self._node_fill_output_buffers(u)
            for u in self.nodes:
                self._node_read_inputs(u)
        self._link_cycle()

    # -- node cycle, part 1: queues -> output buffers + internal moves ----
    def _node_fill_output_buffers(self, u: Hashable) -> None:
        alg = self.algorithm
        queues = self.central[u]
        kinds = self.kinds[u]
        events = self._events

        # Service order: FIFO position first, then queue kind — heads
        # of all queues are candidates before any second-in-line packet.
        entries: list[tuple[int, int, Message, QueueId]] = []
        for ki, kind in enumerate(kinds):
            q_id = QueueId(u, kind)
            for pos, msg in enumerate(queues[kind]):
                entries.append((pos, ki, msg, q_id))
        if not entries:
            return
        if self.service == "fifo":
            entries.sort(key=lambda t: (t[0], t[1]))
        else:  # lifo: serve the youngest arrivals first (unfair)
            entries.sort(key=lambda t: (-t[0], t[1]))

        # Candidate hops per message (computed once per cycle).
        plans: dict[int, tuple[dict, list]] = {}
        for _pos, _ki, msg, q_id in entries:
            ext: dict[tuple[Hashable, str], tuple[QueueId, bool]] = {}
            internal: list[tuple[QueueId, bool]] = []
            for dyn, hops in (
                (False, alg.static_hops(q_id, msg.dst, msg.state)),
                (True, alg.dynamic_hops(q_id, msg.dst, msg.state)),
            ):
                for q2 in hops:
                    if q2.node == u:
                        internal.append((q2, dyn))
                    else:
                        cls = alg.buffer_class(q_id, q2, dyn)
                        ext.setdefault((q2.node, cls), (q2, dyn))
            plans[msg.uid] = (ext, internal)

        moved: set[int] = set()

        # Buffer-major assignment, low to high link index.
        for v, cls, key in self.out_keys[u]:
            if self.out_buf[key] is not None:
                continue
            for _pos, _ki, msg, q_id in entries:
                if msg.uid in moved:
                    continue
                cand = plans[msg.uid][0].get((v, cls))
                if cand is None:
                    continue
                q2, dyn = cand
                queues[q_id.kind].remove(msg)
                msg.state = alg.update_state(msg.state, q_id, q2)
                msg.target = q2
                self.out_buf[key] = msg
                moved.add(msg.uid)
                self._last_progress = self.cycle
                if events is not None:
                    events.append(
                        ("hop", self.cycle, msg.uid, u, v, cls, dyn, q2.kind)
                    )
                break

        # Internal moves (phase change, delivery, self-state updates).
        for _pos, _ki, msg, q_id in entries:
            if msg.uid in moved:
                continue
            for q2, _dyn in plans[msg.uid][1]:
                if q2.is_delivery:
                    queues[q_id.kind].remove(msg)
                    self._deliver(msg)
                    moved.add(msg.uid)
                    break
                if q2 == q_id:
                    # Degenerate self-hop: state advances in place.
                    msg.state = alg.update_state(msg.state, q_id, q2)
                    moved.add(msg.uid)
                    self._last_progress = self.cycle
                    if events is not None:
                        events.append(
                            ("enqueue", self.cycle, msg.uid, u, q2.kind)
                        )
                    break
                target = queues[q2.kind]
                if len(target) < self.central_capacity:
                    queues[q_id.kind].remove(msg)
                    msg.state = alg.update_state(msg.state, q_id, q2)
                    target.append(msg)
                    moved.add(msg.uid)
                    self._last_progress = self.cycle
                    if events is not None:
                        events.append(
                            ("enqueue", self.cycle, msg.uid, u, q2.kind)
                        )
                    break

    def _fold_entry_queue(self, q2: QueueId, state, dst):
        """Fold forced internal phase switches into queue entry.

        Section 7.1 says the node "moves their messages to the
        *required* queues": a packet whose only continuation from the
        nominal target queue is an internal move to a sibling queue
        (the phase change) is placed directly into that sibling, so a
        phase change costs no extra cycle — this is what makes the
        deterministic complement latency exactly ``2n + 1`` (Table 2).
        Self-hops (degenerate shuffles) and delivery are never folded.
        """
        alg = self.algorithm
        for _ in range(8):  # bounded by the internal-chain length
            if alg.dynamic_hops(q2, dst, state):
                break
            nxt = alg.static_hops(q2, dst, state)
            if len(nxt) != 1:
                break
            (q3,) = nxt
            if q3 == q2 or q3.node != q2.node or not q3.is_central:
                break
            state = alg.update_state(state, q2, q3)
            q2 = q3
        return q2, state

    # -- node cycle, part 2: input + injection buffers -> queues ----------
    def _node_read_inputs(self, u: Hashable) -> None:
        alg = self.algorithm
        queues = self.central[u]
        events = self._events
        sources: list = list(self.in_keys[u]) + ["inj"]
        for src in rotated(sources, self.cycle):
            if src == "inj":
                msg = self.inj[u]
                if msg is None:
                    continue
                targets = alg.injection_targets(u, msg.dst, msg.state)
                placed = False
                for q2 in sorted(targets):
                    st = alg.update_state(msg.state, QueueId(u, "inj"), q2)
                    q2, st = self._fold_entry_queue(q2, st, msg.dst)
                    if len(queues[q2.kind]) < self.central_capacity:
                        msg.state = st
                        queues[q2.kind].append(msg)
                        if events is not None:
                            events.append(
                                ("enqueue", self.cycle, msg.uid, u, q2.kind)
                            )
                        placed = True
                        break
                if placed:
                    self.inj[u] = None
                    self._last_progress = self.cycle
            else:
                msg = self.in_buf[src]
                if msg is None:
                    continue
                nominal = msg.target
                q2, st = self._fold_entry_queue(nominal, msg.state, msg.dst)
                if len(queues[q2.kind]) < self.central_capacity:
                    self.in_buf[src] = None
                    msg.target = None
                    msg.state = st
                    queues[q2.kind].append(msg)
                    self._last_progress = self.cycle
                    if events is not None:
                        events.append(
                            ("enqueue", self.cycle, msg.uid, u, q2.kind)
                        )

    # -- link cycle --------------------------------------------------------
    def _link_cycle(self) -> None:
        cycle = self.cycle
        blocked = self.blocked_links
        for link, classes in self.link_classes.items():
            if blocked and link in blocked:
                continue  # dead or stalled link: transfers nothing
            if len(classes) == 1:
                order = classes
            else:
                order = rotated(classes, cycle)
            for cls in order:
                key = (link[0], link[1], cls)
                msg = self.out_buf[key]
                if msg is not None and self.in_buf[key] is None:
                    self.out_buf[key] = None
                    self.in_buf[key] = msg
                    self._last_progress = cycle
                    break  # one packet per link direction per cycle

    # -- delivery and stats -------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        msg.delivered_cycle = self.cycle
        self.delivered_count += 1
        self.active -= 1
        self._last_progress = self.cycle
        if self._events is not None:
            self._events.append(
                ("deliver", self.cycle, msg.uid, msg.dst, msg.latency)
            )
        if msg.injected_cycle >= self.measure_from:
            self.latency.record(msg.latency)
