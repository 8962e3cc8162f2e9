"""Admission control at the injection queues.

The paper's Section-6 node holds a generated packet in its size-1
**injection queue** until a legal central queue frees up — which makes
that queue the natural admission-control point for an open-loop
service: when a node's injection queue is still occupied, the network
is exerting backpressure and the service must decide what to do with
the newly-offered packet.  Three policies:

* ``drop``          — reject the offer immediately (count it, move on);
* ``defer``         — park the offer in a bounded per-node FIFO and
  retry it ahead of new offers on later cycles; overflow drops the
  *newest* offer (the paper's queues never reorder, neither do we);
* ``shed-by-class`` — like ``defer``, but once the total deferred
  backlog exceeds ``shed_threshold``, offers of the *lowest-priority*
  service classes are dropped (shed) on arrival instead of deferred,
  keeping the deferral budget for the classes the scenario ranks
  highest (``class_order``, highest first).

Every decision is counted per service class, and the counters are
plain integers on this object — picklable, engine-agnostic, published
into the Prometheus registry by the service loop each tick
(``repro_admission_*``; see docs/OBSERVABILITY.md).

Determinism: each cycle's decisions depend only on the offer order and
one injection-queue free mask taken before the pass (``admit`` clears a
node's entry as it admits there), both identical across engines at
equal seeds; the admitted offers come back in admission order and take
their uids in that order, so admission outcomes and message uids
replay exactly.
"""

from __future__ import annotations

from collections import deque

from .scenario import AdmissionConfig


class Offer:
    """One offered packet: source and destination node ids, class."""

    __slots__ = ("src", "dst", "qos", "offered_cycle")

    def __init__(self, src, dst, qos: str, offered_cycle: int):
        self.src = src
        self.dst = dst
        self.qos = qos
        self.offered_cycle = offered_cycle


class AdmissionController:
    """Gates offered packets on injection-queue backpressure."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self.policy = config.policy
        #: Per-node-id FIFO of deferred offers (defer / shed-by-class).
        self.deferred: dict[int, deque] = {}
        self.deferred_total = 0
        # -- counters, all keyed by qos class ---------------------------
        self.offered: dict[str, int] = {}
        self.accepted: dict[str, int] = {}
        self.dropped: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self.cancelled: dict[str, int] = {}
        #: Offers that waited >= 1 cycle before admission or drop.
        self.deferred_count: dict[str, int] = {}
        #: Cumulative cycles offers spent waiting in deferral FIFOs.
        self.defer_wait_cycles = 0
        # Class priority: position in class_order (earlier = higher);
        # classes not listed rank below all listed ones, alphabetically
        # among themselves for determinism.
        self._rank = {c: i for i, c in enumerate(config.class_order)}

    # ------------------------------------------------------------------
    def _count(self, table: dict[str, int], qos: str, n: int = 1) -> None:
        table[qos] = table.get(qos, 0) + n

    def _priority(self, qos: str) -> tuple:
        rank = self._rank.get(qos)
        if rank is None:
            return (1, qos)  # unlisted classes rank below listed ones
        return (0, rank)

    def _best_deferred_priority(self):
        """Highest priority among currently-deferred offers (or None).

        The *shed tier* is every class strictly below this: the
        controller never sheds the best class, and with a single class
        in play ``shed-by-class`` degrades to plain ``defer``.
        """
        return min(
            (self._priority(o.qos) for q in self.deferred.values()
             for o in q),
            default=None,
        )

    # ------------------------------------------------------------------
    # The per-cycle admission pass
    # ------------------------------------------------------------------
    def admit(self, free, cycle: int, offers: list[Offer]) -> list[Offer]:
        """Retry deferred offers, then gate this cycle's new ones.

        ``free`` is this cycle's injection-queue free mask, indexed by
        node id (``Offer.src``); admitting an offer clears its node's
        entry, so a node takes at most one packet per cycle.  Returns
        the admitted offers in admission order: the workload driver
        numbers and places them, so uids are assigned only on
        acceptance.  Deferred offers are retried in node order of first
        deferral, FIFO within a node — ahead of every new offer, so a
        deferred packet can never be starved by fresh arrivals at its
        own node.
        """
        admitted: list[Offer] = []
        if self.deferred_total:
            emptied = []
            for node, fifo in self.deferred.items():
                if fifo and free[node]:
                    free[node] = False
                    offer = fifo.popleft()
                    self.deferred_total -= 1
                    self.defer_wait_cycles += cycle - offer.offered_cycle
                    self._count(self.accepted, offer.qos)
                    admitted.append(offer)
                if not fifo:
                    emptied.append(node)
            for node in emptied:
                del self.deferred[node]

        shedding = self.policy == "shed-by-class"
        best = self._best_deferred_priority() if shedding else None
        for offer in offers:
            self._count(self.offered, offer.qos)
            if free[offer.src] and not self.deferred.get(offer.src):
                free[offer.src] = False
                self._count(self.accepted, offer.qos)
                admitted.append(offer)
                continue
            # Backpressure: the injection queue is occupied (or older
            # deferred offers at this node are still ahead in line).
            if self.policy == "drop":
                self._count(self.dropped, offer.qos)
                continue
            prio = self._priority(offer.qos)
            if (
                shedding
                and self.deferred_total >= self.config.shed_threshold
                and best is not None
                and prio > best
            ):
                self._count(self.shed, offer.qos)
                continue
            fifo = self.deferred.get(offer.src)
            if fifo is None:
                fifo = self.deferred[offer.src] = deque()
            if len(fifo) >= self.config.max_deferred_per_node:
                self._count(self.dropped, offer.qos)
                continue
            fifo.append(offer)
            self.deferred_total += 1
            self._count(self.deferred_count, offer.qos)
            if shedding and (best is None or prio < best):
                best = prio
        return admitted

    def cancel_backlog(self) -> int:
        """Drop every deferred offer (drain begins); returns the count.

        Cancelled offers were never injected, so the drain invariant
        "injected == delivered at the final snapshot" is unaffected;
        they are tallied separately so load reports stay honest.
        """
        n = 0
        for fifo in self.deferred.values():
            for offer in fifo:
                self._count(self.cancelled, offer.qos)
                n += 1
        self.deferred.clear()
        self.deferred_total = 0
        return n

    # ------------------------------------------------------------------
    def classes(self) -> list[str]:
        """Every service class any counter has seen, sorted."""
        seen: set[str] = set()
        for table in (
            self.offered,
            self.accepted,
            self.dropped,
            self.shed,
            self.cancelled,
            self.deferred_count,
        ):
            seen.update(table)
        return sorted(seen)

    def snapshot(self) -> dict:
        """Plain-dict counter dump (health endpoint, tests, logs)."""
        return {
            "policy": self.policy,
            "offered": dict(self.offered),
            "accepted": dict(self.accepted),
            "dropped": dict(self.dropped),
            "shed": dict(self.shed),
            "cancelled": dict(self.cancelled),
            "deferred": dict(self.deferred_count),
            "deferred_backlog": self.deferred_total,
            "defer_wait_cycles": self.defer_wait_cycles,
        }
