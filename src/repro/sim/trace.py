"""Per-packet timeline tracing, built on the telemetry event log.

:class:`TracingSimulator` (the reference engine, the only one that
traces) records the structured event log of
:mod:`repro.telemetry.events` and reconstructs the classic per-packet
view from it: ``inject`` / ``enter`` / ``deliver``
:class:`TraceEvent` records, with ``enter`` stamped at *dispatch* time
(the cycle the packet was sent toward the queue) exactly as the
original bespoke tracer did — ``format_timeline`` output is unchanged
(``tests/test_sim_trace.py`` keeps a golden sample).

Tracing costs memory proportional to traffic, so it is opt-in and
intended for small instances.  For aggregate signals use a
:class:`~repro.telemetry.TelemetryProbe` instead; for the raw log use
``sim.log`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.queues import QueueId
from ..telemetry.events import EventLog
from .engine import PacketSimulator


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


class TracingSimulator(PacketSimulator):
    """Reference engine with the structured event log attached.

    Installs an :class:`EventLog` as the engine's event sink and keeps
    ``trace=True`` so ``Message.hops`` stays populated for route-level
    consumers.
    """

    def __init__(self, *args, **kwargs):
        kwargs["trace"] = True
        super().__init__(*args, **kwargs)
        #: The raw structured event log (schema v1).
        self.log = EventLog()
        self._events = self.log.raw
        self._reconstructed: list[TraceEvent] = []
        self._reconstructed_from = 0

    @property
    def events(self) -> list[TraceEvent]:
        """Old-style trace events, canonical (cycle, uid) order.

        Reconstruction walks the raw log: a ``hop`` is an ``enter`` of
        the dispatched-to queue at dispatch time; the physical-arrival
        ``enqueue`` that follows is folded away unless the packet
        landed in a *different* queue (the entry fold), which surfaces
        as its own ``enter`` — matching what ``Message.record_hop``
        used to capture.
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
