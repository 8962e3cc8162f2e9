"""Message (packet) model.

Packets in the paper are single-flit units: a packet occupies exactly
one queue slot or one buffer.  Besides source/destination, a message
carries the bookkeeping the simulator needs for latency accounting
(Section 7: ``L_avg``, ``L_max``) and whatever per-message routing
state an algorithm requires (the shuffle-exchange algorithm records the
number of shuffle links already traversed; the torus algorithm records
the minimal direction chosen per dimension and dateline crossings).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable

_msg_counter = itertools.count()


@dataclass(eq=False)
class Message:
    """One packet traveling through the network.

    Attributes
    ----------
    src, dst:
        Source and destination *nodes*.
    injected_cycle:
        Routing cycle at which the packet entered its injection queue.
        ``-1`` until injected.
    delivered_cycle:
        Routing cycle at which the packet entered the delivery queue.
        ``-1`` until delivered.
    state:
        Algorithm-specific routing state (opaque to the engine); updated
        through :meth:`repro.core.routing_function.RoutingAlgorithm.update_state`.
    hops:
        Sequence of queue ids visited (only recorded when tracing is on).
    """

    src: Hashable
    dst: Hashable
    uid: int = field(default_factory=lambda: next(_msg_counter))
    injected_cycle: int = -1
    delivered_cycle: int = -1
    state: Any = None
    hops: list | None = None
    #: While in flight between nodes: the queue this packet is heading
    #: to (decided when it was placed in the output buffer).
    target: Any = None
    #: Engine-private memo (CompiledPacketSimulator): the fill plan
    #: last resolved for this message, keyed by ``(queue, state)``.
    #: Pure functions of the key, so they never need invalidation.
    plan_sig: Any = None
    plan: Any = None
    #: Service-class tag for open-loop serving workloads
    #: (`repro.serve`): engines never read it, the telemetry layer
    #: buckets latency by it.  ``None`` for batch-experiment traffic.
    qos: str | None = None

    @property
    def delivered(self) -> bool:
        return self.delivered_cycle >= 0

    @property
    def latency(self) -> int:
        """Delivery latency in routing cycles (paper's ``L``)."""
        if not self.delivered or self.injected_cycle < 0:
            raise ValueError("message not delivered yet")
        return self.delivered_cycle - self.injected_cycle

    def record_hop(self, q) -> None:
        if self.hops is not None:
            self.hops.append(q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Message(#{self.uid} {self.src}->{self.dst})"


def reset_message_ids() -> None:
    """Restart the global message id counter (test isolation helper)."""
    global _msg_counter
    _msg_counter = itertools.count()
