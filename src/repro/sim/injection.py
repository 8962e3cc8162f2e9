"""Injection models (paper, Section 7).

* **Static injection**: every node holds an a-priori fixed number of
  packets (1 or ``n`` in the paper); the run ends when all packets are
  delivered.
* **Dynamic injection**: in every cycle each node attempts, with
  probability ``lambda``, to place a packet in its injection queue;
  the attempt fails (and is counted as such) if the queue is still
  occupied.  The paper runs ``lambda = 1``.

Injection models only decide *when a node generates a packet and for
which destination*; the engine owns queue capacities and movement.

Dynamic injection draws each cycle's packets as int id arrays
(:func:`~repro.sim.sampling.draw_arrival_ids`) and hands them to the
engine's ``place_batch(src_ids, dst_ids, cycle)``, which returns the
placed mask: the reference engine builds one
:class:`~repro.core.message.Message` per placed packet, the vector
engine writes array columns and builds none.  Static injection keeps a
per-node backlog of :class:`Message` objects (the fault watchdog reads
it) and places them one at a time through
``place_in_injection_queue``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable

import numpy as np

from ..core.message import Message
from .sampling import draw_arrival_ids
from .traffic import TrafficPattern

if TYPE_CHECKING:  # pragma: no cover
    from .engine import PacketSimulator


class InjectionModel(ABC):
    """Generates packets into the simulator's injection queues."""

    name: str = "injection"

    def setup(self, sim: "PacketSimulator") -> None:
        """Called once before the first cycle."""

    @abstractmethod
    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        """Called at the start of every cycle; may inject packets."""

    @abstractmethod
    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        """Whether the run should stop after this cycle."""


class StaticInjection(InjectionModel):
    """``packets_per_node`` packets per node, all present at time 0.

    The node feeds its (size-1) injection queue from the backlog as
    soon as the queue drains; packets time-stamp their injection when
    they enter the injection queue.
    """

    def __init__(
        self,
        packets_per_node: int,
        pattern: TrafficPattern,
        rng: np.random.Generator,
    ):
        if packets_per_node < 1:
            raise ValueError("packets_per_node must be >= 1")
        self.packets_per_node = packets_per_node
        self.pattern = pattern
        self.rng = rng
        self.name = f"static({packets_per_node})"
        self.backlog: dict[Hashable, list[Message]] = {}
        self.total = 0

    def setup(self, sim: "PacketSimulator") -> None:
        alg = sim.algorithm
        self.backlog = {}
        self.total = 0
        for u in sim.nodes:
            msgs = []
            for _ in range(self.packets_per_node):
                dst = self.pattern.draw(u, self.rng)
                if dst == u:
                    continue  # fixed point: this node stays silent
                msgs.append(
                    Message(src=u, dst=dst, state=alg.initial_state(u, dst))
                )
            msgs.reverse()  # pop() from the end == FIFO over generation
            self.backlog[u] = msgs
            self.total += len(msgs)

    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        for u in sim.nodes:
            backlog = self.backlog[u]
            if backlog and sim.injection_queue_free(u):
                msg = backlog.pop()
                sim.place_in_injection_queue(u, msg, cycle)

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        return sim.delivered_count >= self.total


class DynamicInjection(InjectionModel):
    """Bernoulli(lambda) injection attempts, fixed run length.

    ``duration`` is the total number of cycles; attempts and successes
    are counted from ``warmup`` onwards so the reported effective
    injection rate reflects steady state.
    """

    def __init__(
        self,
        rate: float,
        pattern: TrafficPattern,
        rng: np.random.Generator,
        duration: int,
        warmup: int = 0,
    ):
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if warmup >= duration:
            raise ValueError("warmup must be shorter than the run")
        self.rate = rate
        self.pattern = pattern
        self.rng = rng
        self.duration = duration
        self.warmup = warmup
        self.name = f"dynamic(lambda={rate})"
        self.attempts = 0
        self.successes = 0

    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        # One array draw per cycle, in the RNG order of one pattern
        # draw per firing node; the engine places the whole batch.
        src, dst = draw_arrival_ids(
            sim.nodes, self.rate, self.pattern, self.rng
        )
        if not src.size:
            return
        placed = sim.place_batch(src, dst, cycle)
        if cycle >= self.warmup:
            self.attempts += src.size
            self.successes += int(np.count_nonzero(placed))

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        return cycle + 1 >= self.duration
