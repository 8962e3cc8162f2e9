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

Every model hands its packets to the engine the same way, as int id
arrays (ids index ``sim.nodes``): one ``sim.injection_free(src_ids)``
mask says which injection queues can take a packet, and one
``sim.place_batch(src_ids, dst_ids, uids, cycle)`` call places the
packets that fit.  The model owns packet numbering
(:func:`~repro.core.message.take_message_ids`): dynamic injection
numbers each cycle's placed packets in array order, a static backlog
reserves every uid at setup, in generation order.  The reference
engine builds one :class:`~repro.core.message.Message` per placed
packet, the vector engine writes array columns and builds none.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..core.message import take_message_ids
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

    The backlog is one flat array of destination ids and one of uids,
    node-major and in injection order within a node; node ``ui`` still
    holds entries ``head[ui]:end[ui]`` (:meth:`backlog`).  Uids are
    reserved at setup, in generation order.
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
        self.total = 0
        self.dst_ids = self.uids = self.head = self.end = np.empty(0, int)
        self._waiting = self.head

    def pairs(self, sim: "PacketSimulator") -> tuple[np.ndarray, np.ndarray]:
        """Every packet's ``(src, dst)`` node ids, in generation order.

        One destination draw over every node's packets, in the RNG
        order of one ``pattern.draw`` per packet, node by node; fixed
        points (``dst == src``: the node stays silent) are dropped
        after their draws.
        """
        src = np.repeat(
            np.arange(len(sim.nodes), dtype=np.int64), self.packets_per_node
        )
        dst = self.pattern.draw_ids(sim.nodes, src, self.rng)
        keep = dst != src
        return src[keep], dst[keep]

    def injection_order(self, src: np.ndarray) -> np.ndarray:
        """Node-major permutation of the generation order: each node
        injects its packets oldest first."""
        return np.argsort(src, kind="stable")

    def setup(self, sim: "PacketSimulator") -> None:
        src, dst = self.pairs(sim)
        self.total = src.size
        first = take_message_ids(self.total)
        order = self.injection_order(src)
        self.dst_ids = dst[order]
        self.uids = first + order
        bounds = np.searchsorted(src[order], np.arange(len(sim.nodes) + 1))
        self.head = bounds[:-1].copy()
        self.end = bounds[1:]
        self._waiting = np.flatnonzero(self.head < self.end)

    def backlog(self, ui: int) -> np.ndarray:
        """Destination ids node ``ui`` has yet to inject, in order."""
        return self.dst_ids[self.head[ui] : self.end[ui]]

    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        waiting = self._waiting
        if not waiting.size:
            return
        go = waiting[sim.injection_free(waiting)]
        if not go.size:
            return
        at = self.head[go]
        sim.place_batch(go, self.dst_ids[at], self.uids[at], cycle)
        self.head[go] += 1
        self._waiting = waiting[self.head[waiting] < self.end[waiting]]

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
        # draw per firing node; the packets that fit are numbered in
        # array order and placed in one batch.
        src, dst = draw_arrival_ids(
            sim.nodes, self.rate, self.pattern, self.rng
        )
        if not src.size:
            return
        free = sim.injection_free(src)
        k = int(np.count_nonzero(free))
        if k:
            first = take_message_ids(k)
            uids = np.arange(first, first + k)
            sim.place_batch(src[free], dst[free], uids, cycle)
        if cycle >= self.warmup:
            self.attempts += src.size
            self.successes += k

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        return cycle + 1 >= self.duration
