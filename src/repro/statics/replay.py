"""Replay a forced-wait witness into a real deadlock.

A ``forced-wait`` :class:`~repro.statics.witness.CycleWitness` claims:
fill every queue on the cycle with its row's packet and each packet's
only move is into the next queue, whose occupant is equally stuck.
This module *executes* that claim on the reference engine: inject a
small opposing flow per row (enough packets to saturate the central
queue plus the link-buffer pipeline between consecutive rows) at
``central_capacity=1`` and the engine's no-progress watchdog raises
``DeadlockError`` within a few dozen cycles.

This is the analyzer's ground truth: a static witness that replays is
not a modeling artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.routing_function import RoutingAlgorithm
from ..sim.engine import DeadlockError, PacketSimulator
from ..sim.injection import StaticInjection
from .witness import FORCED_WAIT, CycleWitness

#: Packets injected per witness row.  Two packets drain through the
#: out/in link-buffer pipeline before the circular wait binds; three
#: saturate it (queue + out_buf + in_buf at capacity 1), and a small
#: margin keeps the cycle closed under unlucky arbitration.
DEFAULT_PACKETS_PER_ROW = 4


class WitnessReplayInjection(StaticInjection):
    """Static backlog realizing one witness: per row, packets sourced
    at the row's node heading for the row's destination.  Each node
    injects its packets newest first."""

    def __init__(self, witness: CycleWitness, packets_per_row: int):
        self.witness = witness
        self.packets_per_row = packets_per_row
        self.name = f"witness-replay(x{packets_per_row})"
        self.total = 0

    def pairs(self, sim: PacketSimulator) -> tuple[np.ndarray, np.ndarray]:
        nid = {u: i for i, u in enumerate(sim.nodes)}
        rows = [(nid[r.queue.node], nid[r.dst]) for r in self.witness.rows]
        pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
        pairs = np.repeat(pairs, self.packets_per_row, axis=0)
        return pairs[:, 0], pairs[:, 1]

    def injection_order(self, src: np.ndarray) -> np.ndarray:
        return np.lexsort((-np.arange(src.size), src))


@dataclass
class ReplayResult:
    """Outcome of one witness replay."""

    deadlocked: bool
    cycles: int
    delivered: int
    total: int
    detail: str

    def __bool__(self) -> bool:
        return self.deadlocked


def replay_witness(
    algorithm: RoutingAlgorithm,
    witness: CycleWitness,
    packets_per_row: int = DEFAULT_PACKETS_PER_ROW,
    central_capacity: int = 1,
    stall_limit: int = 100,
    max_cycles: int = 10_000,
) -> ReplayResult:
    """Run the witness against the reference engine.

    Returns a :class:`ReplayResult` with ``deadlocked=True`` when the
    engine's no-progress detector fires — the static witness manifested
    as a live circular wait.  Only ``forced-wait`` witnesses are
    eligible (``static-order`` ones may be dodged adaptively).
    """
    if witness.kind != FORCED_WAIT:
        raise ValueError(
            f"only {FORCED_WAIT!r} witnesses are replayable, "
            f"got {witness.kind!r}"
        )
    injection = WitnessReplayInjection(witness, packets_per_row)
    sim = PacketSimulator(
        algorithm,
        injection,
        central_capacity=central_capacity,
        stall_limit=stall_limit,
    )
    try:
        result = sim.run(max_cycles=max_cycles)
    except DeadlockError as exc:
        return ReplayResult(
            deadlocked=True,
            cycles=sim.cycle,
            delivered=sim.delivered_count,
            total=injection.total,
            detail=str(exc),
        )
    return ReplayResult(
        deadlocked=False,
        cycles=getattr(result, "cycles", sim.cycle),
        delivered=sim.delivered_count,
        total=injection.total,
        detail="all packets delivered; witness did not bind",
    )
