"""Per-packet timelines, read from the telemetry event log.

:class:`PacketTrace` is a read-only view over an
:class:`~repro.telemetry.events.EventLog`, which either engine writes
under a :class:`~repro.telemetry.TelemetryProbe` with ``events=True``
(the canonical logs of the two engines are byte-identical)::

    probe = TelemetryProbe()
    build_simulator(alg, model, telemetry=probe).run()
    print(PacketTrace(probe.log).format_timeline(0))

``inject`` / ``enter`` / ``deliver`` :class:`TraceEvent` records are
rebuilt with ``enter`` stamped at *dispatch* time; ``format_timeline``
output is pinned by a golden sample (``tests/test_sim_trace.py``).
The log costs memory proportional to traffic, so tracing is meant for
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

from ..core.queues import QueueId
from ..telemetry.events import EventLog


@dataclass(frozen=True)
class TraceEvent:
    """One step of one packet's journey.

    ``enter`` events are stamped at *dispatch* time — the cycle the
    packet was sent toward the queue (placed into the output buffer or
    moved internally); the physical queue entry follows one cycle
    later for inter-node hops.
    """

    cycle: int
    uid: int
    kind: str  #: "inject" | "enter" | "deliver"
    queue: QueueId


class PacketTrace:
    """Per-packet queries over one run's event log (held, not copied:
    events appended later show up on the next query)."""

    def __init__(self, log: EventLog):
        self.log = log
        self._reconstructed: list[TraceEvent] = []
        self._reconstructed_from = 0

    @property
    def events(self) -> list[TraceEvent]:
        """Trace events, canonical (cycle, uid) order.

        Reconstruction walks the canonical log: a ``hop`` is an
        ``enter`` of the dispatched-to queue at dispatch time; the
        physical-arrival ``enqueue`` that follows is folded away unless
        the packet landed in a *different* queue (the entry fold),
        which surfaces as its own ``enter``, as do internal moves.
        """
        if self._reconstructed_from != len(self.log.raw):
            self._reconstructed = self._reconstruct()
            self._reconstructed_from = len(self.log.raw)
        return self._reconstructed

    def _reconstruct(self) -> list[TraceEvent]:
        out: list[TraceEvent] = []
        pending: dict[int, tuple] = {}  # uid -> (node, kind) in flight
        for ev in self.log.canonical():
            kind, cycle, uid = ev[0], ev[1], ev[2]
            if kind == "inject":
                out.append(
                    TraceEvent(cycle, uid, "inject", QueueId(ev[3], "inj"))
                )
            elif kind == "hop":
                out.append(
                    TraceEvent(cycle, uid, "enter", QueueId(ev[4], ev[7]))
                )
                pending[uid] = (ev[4], ev[7])
            elif kind == "enqueue":
                if pending.pop(uid, None) != (ev[3], ev[4]):
                    out.append(
                        TraceEvent(cycle, uid, "enter", QueueId(ev[3], ev[4]))
                    )
            elif kind == "deliver":
                pending.pop(uid, None)
                out.append(
                    TraceEvent(cycle, uid, "deliver", QueueId(ev[3], "del"))
                )
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def timeline(self, uid: int) -> list[TraceEvent]:
        """All events of one packet, in order."""
        return [e for e in self.events if e.uid == uid]

    def packets(self) -> Iterator[int]:
        return iter(sorted({e.uid for e in self.events}))

    def format_timeline(self, uid: int) -> str:
        lines = []
        for e in self.timeline(uid):
            lines.append(f"  cycle {e.cycle:4d}: {e.kind:8s} {e.queue!r}")
        return "\n".join(lines)

    def node_paths(self) -> dict[int, list[Hashable]]:
        """The node path of every delivered packet, keyed by uid.

        A path is the packet's ``inject`` node followed by the nodes of
        its ``enqueue`` events, consecutive repeats collapsed.  Only
        physical arrivals count: a hop retracted from a link that died
        under it re-enqueues at the sender and collapses away.
        """
        paths: dict[int, list[Hashable]] = {}
        delivered: list[int] = []
        for ev in self.log.canonical():
            kind = ev[0]
            if kind == "inject":
                paths[ev[2]] = [ev[3]]
            elif kind == "enqueue":
                path = paths[ev[2]]
                if path[-1] != ev[3]:
                    path.append(ev[3])
            elif kind == "deliver":
                delivered.append(ev[2])
        return {uid: paths[uid] for uid in delivered}
