"""Symbolic routing plans: the table-row fallback of the vector engine.

The routing function is *pure*: every candidate set the paper's node
cycle needs — ``static_hops`` / ``dynamic_hops``, the ``buffer_class``
of each external hop, the ``update_state`` of each move — is a
deterministic function of ``(queue, destination, state)``.  This module
memoizes the fully-resolved answer per such key:

* :class:`CentralPlan` — what a message occupying a central queue may do
  this cycle: an ``external`` mapping ``(neighbor, buffer_class) ->
  (next_queue, new_state, is_dynamic)`` and an ``internal`` tuple of
  ``(action, next_queue, new_state)`` steps (delivery / in-place state
  advance / sibling-queue move);
* entry resolution — the fold of forced internal phase switches
  performed by ``PacketSimulator._resolve_entry_queue``;
* injection plans — the sorted injection targets with their
  ``update_state`` + entry fold already applied.

:class:`~repro.sim.tables.RoutingTables` lowers these plans to integer
rows for every key its hop kernel declines (algorithms without a
kernel, fault epochs, Beneš, the buffer-pool schemes).  Plans are built
lazily, so unbounded state spaces (the shuffle-exchange shuffle
counter) merely populate more entries; unhashable states are evaluated
directly.  The construction replays the reference engine's iteration
orders exactly — static hops before dynamic hops, first-wins per
``(neighbor, class)`` slot — which is what keeps the lowered rows
packet-for-packet identical to the reference engine.
"""

from __future__ import annotations

import sys
from typing import Any, Hashable, NamedTuple

from ..core.hops import DELIVER_STEP, MOVE_STEP, SELF_STEP
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm

__all__ = ["CentralPlan", "RoutingPlanCache"]


class CentralPlan(NamedTuple):
    """Resolved candidate moves for one ``(queue, dst, state)`` key."""

    #: ``(neighbor, buffer_class) -> (next_queue, new_state, is_dynamic)``;
    #: the first candidate per slot wins, statics before dynamics,
    #: exactly as the reference engine's ``setdefault`` does.
    #: ``is_dynamic`` records whether the winning hop rides a dynamic
    #: link (telemetry's Section-2-extension usage metric).
    external: dict[tuple[Hashable, str], tuple[QueueId, Any, bool]]
    #: ``(action, next_queue, new_state)`` in reference order.
    internal: tuple[tuple[int, QueueId, Any], ...]


class RoutingPlanCache:
    """Lazy per-algorithm memo of fully-resolved routing plans.

    Owned by one :class:`~repro.sim.tables.RoutingTables`; plans depend
    only on the pure routing function.
    """

    def __init__(self, algorithm: RoutingAlgorithm):
        self.algorithm = algorithm
        #: ``(queue, dst, state) -> CentralPlan``
        self._central: dict[tuple, CentralPlan] = {}
        #: ``(queue, dst, state) -> (resolved_queue, resolved_state)``
        self._entry: dict[tuple, tuple[QueueId, Any]] = {}
        #: ``(node, dst, state) -> ((kind, queue, state), ...)``
        self._inject: dict[tuple, tuple] = {}

    @property
    def size(self) -> int:
        """Total number of memoized plans (all three tables)."""
        return len(self._central) + len(self._entry) + len(self._inject)

    def clear(self) -> None:
        """Drop every plan (a fault epoch changed the hop relations)."""
        self._central.clear()
        self._entry.clear()
        self._inject.clear()

    def memory_bytes(self) -> int:
        """Shallow footprint estimate of the three memo tables.

        Counts the dicts plus one level of keys and values (the
        CentralPlan externals dict included), without a full recursive
        traversal of shared QueueId/state objects.
        """
        total = 0
        for memo in (self._central, self._entry, self._inject):
            total += sys.getsizeof(memo)
            for key, value in memo.items():
                total += sys.getsizeof(key) + sys.getsizeof(value)
                if isinstance(value, CentralPlan):
                    total += sys.getsizeof(value.external)
                    total += sys.getsizeof(value.internal)
        return total

    def central_plan(
        self, q_id: QueueId, dst: Hashable, state: Any
    ) -> CentralPlan:
        """Plan for a message in central queue ``q_id`` (memoized)."""
        key = (q_id, dst, state)
        try:
            plan = self._central.get(key)
        except TypeError:  # unhashable state: evaluate directly
            return self._build_central(q_id, dst, state)
        if plan is None:
            plan = self._central[key] = self._build_central(
                q_id, dst, state
            )
        return plan

    def _build_central(
        self, q_id: QueueId, dst: Hashable, state: Any
    ) -> CentralPlan:
        alg = self.algorithm
        u = q_id.node
        external: dict[tuple[Hashable, str], tuple[QueueId, Any, bool]] = {}
        internal: list[tuple[int, QueueId, Any]] = []
        for dyn, hops in (
            (False, alg.static_hops(q_id, dst, state)),
            (True, alg.dynamic_hops(q_id, dst, state)),
        ):
            for q2 in hops:
                if q2.node == u:
                    if q2.is_delivery:
                        internal.append((DELIVER_STEP, q2, state))
                    elif q2 == q_id:
                        internal.append(
                            (SELF_STEP, q2, alg.update_state(state, q_id, q2))
                        )
                    else:
                        internal.append(
                            (MOVE_STEP, q2, alg.update_state(state, q_id, q2))
                        )
                else:
                    cls = alg.buffer_class(q_id, q2, dyn)
                    slot = (q2.node, cls)
                    if slot not in external:
                        external[slot] = (
                            q2,
                            alg.update_state(state, q_id, q2),
                            dyn,
                        )
        return CentralPlan(external, tuple(internal))

    def entry(self, q2: QueueId, dst: Hashable, state: Any) -> tuple[QueueId, Any]:
        """Where a packet heading for ``q2`` actually lands (memoized).

        Mirrors ``PacketSimulator._resolve_entry_queue``: forced single
        static internal moves to a sibling central queue are folded into
        the entry so a phase change costs no extra cycle.
        """
        key = (q2, dst, state)
        try:
            resolved = self._entry.get(key)
        except TypeError:
            return self._resolve_entry(q2, dst, state)
        if resolved is None:
            resolved = self._entry[key] = self._resolve_entry(
                q2, dst, state
            )
        return resolved

    def _resolve_entry(
        self, q2: QueueId, dst: Hashable, state: Any
    ) -> tuple[QueueId, Any]:
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

    def injection_plan(
        self, u: Hashable, dst: Hashable, state: Any
    ) -> tuple[tuple[str, QueueId, Any], ...]:
        """Sorted injection targets with state update + entry fold applied.

        Returns ``((kind, resolved_queue, resolved_state), ...)`` in the
        reference engine's ``sorted(targets)`` order; the engine places
        the message into the first queue with spare capacity.
        """
        key = (u, dst, state)
        try:
            plan = self._inject.get(key)
        except TypeError:
            return self._build_injection(u, dst, state)
        if plan is None:
            plan = self._inject[key] = self._build_injection(
                u, dst, state
            )
        return plan

    def _build_injection(
        self, u: Hashable, dst: Hashable, state: Any
    ) -> tuple[tuple[str, QueueId, Any], ...]:
        alg = self.algorithm
        inj = QueueId(u, "inj")
        plan = []
        for q2 in sorted(alg.injection_targets(u, dst, state)):
            st = alg.update_state(state, inj, q2)
            q2r, st = self._resolve_entry(q2, dst, st)
            plan.append((q2r.kind, q2r, st))
        return tuple(plan)
