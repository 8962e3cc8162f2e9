"""Runtime deadlock/livelock watchdog for the packet engines.

The paper's verified algorithms never deadlock on a healthy network,
and the engines' crude ``stall_limit`` guard turns an unexpected wedge
into a bare :class:`~repro.sim.engine.DeadlockError`.  Under injected
faults, neither is enough: a degraded run can wedge for *reasons* —
packets frozen inside a down node, destinations cut off by the fault
set, a genuine wait-for cycle over full queues — and a useful harness
must say which, instead of hanging or aborting opaquely.

:class:`DeadlockWatchdog` is an engine observer (see
``PacketSimulator.observers``) of the reference engine.  When the
engine reports a no-progress interval, the watchdog classifies every
live packet, extracts the wait-for cycle over queues if one exists,
and then either

* raises :class:`DeadlockDetected` — a structured
  :class:`~repro.sim.engine.DeadlockError` carrying a full
  :class:`DeadlockReport` — when a deliverable packet is wedged, or
* raises :class:`~repro.sim.engine.SimulationHalt` when every stuck
  packet is provably undeliverable, so ``run`` finalizes a partial
  result (delivery counts, halt reason, undeliverable tally) instead
  of failing.

It also watches for *livelock*: packets moving forever without a
single delivery (possible once fault detours abandon the paper's
minimality guarantees).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..core.queues import QueueId
from ..sim.engine import DeadlockError, PacketSimulator, SimulationHalt
from ..sim.injection import StaticInjection
from ..telemetry.snapshots import find_wait_cycle
from .models import EMPTY_FAULTS, FaultSet


class SimObserver:
    """Base class for engine observers (duck-typed; subclassing is
    optional).  ``on_cycle`` runs at the start of every routing cycle;
    ``on_stall`` is consulted when the stall guard fires and may return
    True to suppress the alarm or raise a richer error."""

    def on_cycle(self, sim: PacketSimulator, cycle: int) -> None:
        pass

    def on_stall(self, sim: PacketSimulator) -> bool:
        return False


@dataclass
class StuckPacket:
    """One live packet's situation at analysis time."""

    src: Hashable
    dst: Hashable
    queue: QueueId | None  #: where it sits (None: link buffer)
    where: str  #: "queue" | "inj" | "out-buffer" | "in-buffer"
    category: str  #: "deliverable" | "unreachable" | "frozen" | "wedged"


@dataclass
class DeadlockReport:
    """Structured outcome of a no-progress (or no-delivery) analysis."""

    kind: str  #: "deadlock" | "undeliverable" | "livelock"
    cycle: int
    active: int
    stuck_deliverable: int = 0
    unreachable: int = 0  #: active packets whose dst is cut off
    frozen: int = 0  #: active packets inside a down node
    wedged: int = 0  #: active packets committed to a dead link buffer
    backlog_unreachable: int = 0  #: never-injected, dst cut off
    backlog_starved: int = 0  #: never-injected, blocked behind the above
    wait_cycle: tuple[QueueId, ...] | None = None
    fault_summary: str = "healthy"
    packets: list[StuckPacket] = field(default_factory=list)

    @property
    def undeliverable(self) -> int:
        """Packets that can never be delivered from here on."""
        return (
            self.unreachable
            + self.frozen
            + self.wedged
            + self.backlog_unreachable
            + self.backlog_starved
        )

    def summary(self) -> str:
        bits = [
            f"{self.kind} at cycle {self.cycle}",
            f"{self.active} active packet(s)",
            f"faults: {self.fault_summary}",
        ]
        if self.stuck_deliverable:
            bits.append(f"{self.stuck_deliverable} deliverable but stuck")
        if self.unreachable:
            bits.append(f"{self.unreachable} with unreachable destination")
        if self.frozen:
            bits.append(f"{self.frozen} frozen in down node(s)")
        if self.wedged:
            bits.append(f"{self.wedged} wedged on dead link buffer(s)")
        if self.backlog_unreachable or self.backlog_starved:
            bits.append(
                f"backlog: {self.backlog_unreachable} unreachable, "
                f"{self.backlog_starved} starved"
            )
        if self.wait_cycle:
            bits.append(
                "wait-for cycle: "
                + " -> ".join(str(q) for q in self.wait_cycle)
            )
        return "; ".join(bits)


class DeadlockDetected(DeadlockError):
    """A :class:`DeadlockError` carrying the watchdog's full report."""

    def __init__(self, report: DeadlockReport):
        super().__init__(report.summary())
        self.report = report


def _fault_set(sim: PacketSimulator) -> FaultSet:
    fs = getattr(sim.algorithm, "active", None)
    return fs if isinstance(fs, FaultSet) else EMPTY_FAULTS


class DeadlockWatchdog(SimObserver):
    """Observer that turns engine stalls into structured reports.

    Parameters
    ----------
    halt_when_undeliverable:
        When True (default), a stall whose every wedged packet is
        undeliverable ends the run gracefully via
        :class:`~repro.sim.engine.SimulationHalt` rather than raising.
    livelock_limit:
        Cycles without a *delivery* (while packets keep moving) before
        a livelock report is raised.  ``None`` disables the check.
    check_every:
        Livelock polling stride; progress bookkeeping only.
    """

    def __init__(
        self,
        halt_when_undeliverable: bool = True,
        livelock_limit: int | None = 25_000,
        check_every: int = 64,
    ):
        self.halt_when_undeliverable = halt_when_undeliverable
        self.livelock_limit = livelock_limit
        self.check_every = check_every
        self._last_delivered = 0
        self._last_delivery_cycle = 0

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_cycle(self, sim: PacketSimulator, cycle: int) -> None:
        if self.livelock_limit is None or cycle % self.check_every:
            return
        if sim.delivered_count != self._last_delivered:
            self._last_delivered = sim.delivered_count
            self._last_delivery_cycle = cycle
            return
        if (
            sim.active > 0
            and cycle - self._last_delivery_cycle > self.livelock_limit
            and cycle - sim._last_progress <= sim.stall_limit
        ):
            # Packets are moving but nothing arrives: livelock.
            report = self.analyze(sim, kind="livelock")
            raise DeadlockDetected(report)

    def on_stall(self, sim: PacketSimulator) -> bool:
        report = self.analyze(sim, kind="deadlock")
        if (
            self.halt_when_undeliverable
            and report.stuck_deliverable == 0
            and report.undeliverable > 0
        ):
            report.kind = "undeliverable"
            raise SimulationHalt(
                report.summary(),
                report=report,
                undeliverable=report.undeliverable,
            )
        raise DeadlockDetected(report)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(
        self, sim: PacketSimulator, kind: str = "deadlock"
    ) -> DeadlockReport:
        """Classify every live packet and extract the wait-for cycle."""
        fs = _fault_set(sim)
        topo = sim.topology
        report = DeadlockReport(
            kind=kind,
            cycle=sim.cycle,
            active=sim.active,
            fault_summary=fs.describe(),
        )

        def reachable(u: Hashable, dst: Hashable) -> bool:
            if not fs.any:
                return True
            return u in fs.reachable(topo, dst)

        def classify(msg, u: Hashable, queue, where: str, category=None):
            if category is None:
                if u in fs.dead_nodes:
                    category = "frozen"
                elif not reachable(u, msg.dst):
                    category = "unreachable"
                else:
                    category = "deliverable"
            if category == "deliverable":
                report.stuck_deliverable += 1
            elif category == "unreachable":
                report.unreachable += 1
            elif category == "frozen":
                report.frozen += 1
            else:
                report.wedged += 1
            report.packets.append(
                StuckPacket(msg.src, msg.dst, queue, where, category)
            )

        for u in sim.nodes:
            for kind_, q in sim.central[u].items():
                for msg in q:
                    classify(msg, u, QueueId(u, kind_), "queue")
            msg = sim.inj[u]
            if msg is not None:
                classify(msg, u, QueueId(u, "inj"), "inj")
        for (u, v, _cls), msg in sim.out_buf.items():
            if msg is None:
                continue
            if (u, v) in fs.dead_links:
                classify(msg, u, None, "out-buffer", category="wedged")
            else:
                classify(msg, u, None, "out-buffer")
        for (_u, v, _cls), msg in sim.in_buf.items():
            if msg is not None:
                classify(msg, v, None, "in-buffer")

        # Never-injected backlog (static injection): packets that will
        # never even enter the network.  A backlog entry is starved
        # when its node's injection pipeline is permanently parked
        # (head packet undeliverable) or its node is down.
        model = sim.injection
        if isinstance(model, StaticInjection):
            nodes = sim.nodes
            for ui, u in enumerate(nodes):
                dsts = model.backlog(ui)
                if not dsts.size:
                    continue
                head = sim.inj[u]
                node_parked = u in fs.dead_nodes or (
                    head is not None and not reachable(u, head.dst)
                )
                for d in dsts.tolist():
                    if not reachable(u, nodes[d]):
                        report.backlog_unreachable += 1
                    elif node_parked:
                        report.backlog_starved += 1

        if report.stuck_deliverable:
            report.wait_cycle = self._find_wait_cycle(sim, fs)
        return report

    def _find_wait_cycle(
        self, sim: PacketSimulator, fs: FaultSet
    ) -> tuple[QueueId, ...] | None:
        """Wait-for cycle over central queues — the classic
        store-and-forward deadlock witness.  Delegates to the shared
        snapshot helper in :mod:`repro.telemetry.snapshots`, so the
        same graph is available outside a stall analysis too."""
        return find_wait_cycle(sim, fs.dead_nodes)
