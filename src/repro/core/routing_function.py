"""Routing functions over queues (paper, Section 2).

A routing algorithm in this framework is a *total routing function*
``R~ : Queues x DelivQ -> P(Queues)`` split into

* **static hops** — the underlying acyclic routing function ``R``
  whose queue dependency graph is a DAG, and
* **dynamic hops** — the extra transitions ``R~ \\ R`` added through
  *dynamic links* (``A_d``), which make the algorithm adaptive.

The correctness obligations of Section 2 are machine-checked in
:mod:`repro.core.verification`:

1. every hop lands at most one physical hop away;
2. ``R(q, d) != {}`` along every reachable static state, so every
   message always keeps a static escape path to its destination;
3. if ``q' in R~(q, d) \\ R(q, d)`` then ``R(q', d) != {}``.

Some algorithms (shuffle-exchange, torus) route on per-message *state*
in addition to the occupied queue (e.g. the count of shuffle links
traversed).  The framework threads an opaque ``state`` value through
every hop; state-free algorithms ignore it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from ..topology.base import Topology
from .queues import DELIVER, INJECT, QueueId, QueueSpec, default_queue_specs, deliver

#: Buffer class used for traffic traveling over dynamic links.
DYNAMIC_CLASS = "dyn"


class RoutingAlgorithm(ABC):
    """A deadlock-free adaptive routing algorithm in the paper's framework.

    Concrete subclasses define the central queue kinds, the static and
    dynamic hop relations, and (optionally) per-message routing state.
    """

    #: Human-readable algorithm name.
    name: str = "routing"

    #: Whether the algorithm only ever uses shortest paths.
    is_minimal: bool = False

    #: Whether *every* minimal path is realizable at injection time.
    is_fully_adaptive: bool = False

    def __init__(self, topology: Topology):
        self.topology = topology

    # ------------------------------------------------------------------
    # Queue structure
    # ------------------------------------------------------------------
    @abstractmethod
    def central_queue_kinds(self, node: Hashable) -> tuple[str, ...]:
        """Kinds of the central queues owned by ``node``."""

    def queue_specs(
        self, node: Hashable, central_capacity: int = 5
    ) -> dict[str, QueueSpec]:
        """Queue capacities at ``node`` (Section-7.1 defaults)."""
        return default_queue_specs(
            self.central_queue_kinds(node), central_capacity=central_capacity
        )

    def queues_at(self, node: Hashable) -> tuple[QueueId, ...]:
        """All queues at ``node``: injection, centrals, delivery."""
        kinds = (INJECT,) + self.central_queue_kinds(node) + (DELIVER,)
        return tuple(QueueId(node, k) for k in kinds)

    def all_queues(self) -> Iterator[QueueId]:
        for node in self.topology.nodes():
            yield from self.queues_at(node)

    # ------------------------------------------------------------------
    # Per-message routing state
    # ------------------------------------------------------------------
    def initial_state(self, src: Hashable, dst: Hashable) -> Any:
        """Routing state attached to a fresh message (default: none)."""
        return None

    def update_state(self, state: Any, q_from: QueueId, q_to: QueueId) -> Any:
        """New state after moving from ``q_from`` to ``q_to``."""
        return state

    # ------------------------------------------------------------------
    # The routing function
    # ------------------------------------------------------------------
    @abstractmethod
    def injection_targets(
        self, src: Hashable, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        """``R~(i_src, d_dst)``: central queues a fresh message may enter."""

    @abstractmethod
    def static_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        """``R(q, d_dst)``: hops of the underlying acyclic function."""

    def dynamic_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        """``R~(q, d_dst) \\ R(q, d_dst)``: adaptivity-only hops."""
        return frozenset()

    def hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        """``R~(q, d_dst)``: all allowed next queues."""
        return self.static_hops(q, dst, state) | self.dynamic_hops(q, dst, state)

    # ------------------------------------------------------------------
    # Buffer (traffic-class) structure for the node model (Section 6)
    # ------------------------------------------------------------------
    def buffer_class(self, q_from: QueueId, q_to: QueueId, dynamic: bool) -> str:
        """Link-buffer class used by the transition ``q_from -> q_to``.

        Static traffic uses a per-target-queue class; dynamic traffic
        shares the single :data:`DYNAMIC_CLASS` buffer (Figures 4-6).
        """
        return DYNAMIC_CLASS if dynamic else q_to.kind

    def buffer_classes(self, u: Hashable, v: Hashable) -> tuple[str, ...]:
        """Buffer classes present on directed physical link ``u -> v``.

        The default provisions one static class per central queue kind
        at ``v`` plus the dynamic class; subclasses override this to
        match the exact node designs of Figures 4-6.
        """
        return self.central_queue_kinds(v) + (DYNAMIC_CLASS,)

    def link_class_table(
        self, nodes: list, nbr: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[str, ...]]]:
        """:meth:`buffer_classes` of every link as ``(codes, vocab)``.

        ``nodes`` are the node labels by id and ``nbr`` is the
        topology's :meth:`~repro.topology.base.Topology.link_table`.
        ``vocab[codes[u, j]]`` is ``buffer_classes(nodes[u],
        nodes[nbr[u, j]])``; ``codes`` is ``-1`` where ``nbr`` is.
        Subclasses whose classes have a closed form override this loop.
        """
        vocab: list[tuple[str, ...]] = []
        code_of: dict[tuple[str, ...], int] = {}

        def intern(classes: tuple[str, ...]) -> int:
            code = code_of.get(classes)
            if code is None:
                code = code_of[classes] = len(vocab)
                vocab.append(classes)
            return code

        if type(self).buffer_classes is RoutingAlgorithm.buffer_classes:
            # The default classes depend on the receiving node only.
            node_code = np.array(
                [
                    intern(self.central_queue_kinds(v) + (DYNAMIC_CLASS,))
                    for v in nodes
                ],
                dtype=np.int64,
            )
            return np.where(nbr >= 0, node_code[nbr], -1), vocab
        rows = [
            [
                intern(self.buffer_classes(u, nodes[vi])) if vi >= 0 else -1
                for vi in row
            ]
            for u, row in zip(nodes, nbr.tolist())
        ]
        return np.array(rows, dtype=np.int64).reshape(nbr.shape), vocab

    # ------------------------------------------------------------------
    # Table compilation (optional fast path)
    # ------------------------------------------------------------------
    def compile_hops(self, layout) -> Any:
        """Compile this hop relation onto ``layout``'s integer ids.

        ``layout`` is a :class:`~repro.sim.tables.RoutingTables`
        instance.  Return a :class:`~repro.core.hops.HopKernel` whose
        candidates (and batch rows, if any) are *identical* to the
        symbolic ones its base class evaluates (see
        :mod:`repro.core.hops`), or ``None`` to keep the symbolic
        candidates.  Implementations must return ``None`` for
        unrecognized subclasses or topologies: correctness first, the
        kernel is purely a performance lever.
        """
        return None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def is_internal(self, q_from: QueueId, q_to: QueueId) -> bool:
        """Whether the transition stays inside one node (no link used)."""
        return q_from.node == q_to.node

    def walk(
        self,
        src: Hashable,
        dst: Hashable,
        choose=None,
        max_steps: int | None = None,
    ) -> list[QueueId]:
        """Greedily route one message with no contention; returns the
        queue path from injection to delivery.

        ``choose(candidates)`` picks the next hop among the allowed
        ones (default: lexicographically smallest, for determinism).
        Used by tests and examples; the cycle simulator is the real
        execution engine.
        """
        if choose is None:
            choose = lambda cands: min(cands, key=repr)
        state = self.initial_state(src, dst)
        q = QueueId(src, INJECT)
        path = [q]
        targets = self.injection_targets(src, dst, state)
        if not targets:
            raise RuntimeError(f"no injection target for {src}->{dst}")
        q2 = choose(sorted(targets))
        state = self.update_state(state, q, q2)
        q = q2
        path.append(q)
        limit = max_steps if max_steps is not None else 20 * (
            self.topology.diameter + 4
        )
        for _ in range(limit):
            if q == deliver(dst):
                return path
            cands = self.hops(q, dst, state)
            if not cands:
                raise RuntimeError(f"dead end at {q} routing {src}->{dst}")
            q2 = choose(sorted(cands))
            state = self.update_state(state, q, q2)
            q = q2
            path.append(q)
        raise RuntimeError(
            f"routing {src}->{dst} did not terminate in {limit} steps"
        )


def node_path(queue_path: Iterable[QueueId]) -> list[Hashable]:
    """Project a queue path onto the sequence of distinct nodes visited."""
    out: list[Hashable] = []
    for q in queue_path:
        if not out or out[-1] != q.node:
            out.append(q.node)
    return out
