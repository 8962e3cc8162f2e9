"""Structured buffer pool routing ([Gun81], [MS80]) — baseline.

The classic hop-level scheme the paper cites as the "add all necessary
resources" end of the design space: node queues are partitioned into
*levels* ``L0 .. L_D`` (``D`` = network diameter); a message that has
taken ``h`` hops occupies a level-``h`` queue, and every hop moves it
from level ``h`` to level ``h+1``.  Because levels strictly increase,
the QDG is trivially acyclic — at the cost of ``diameter + 1`` central
queues per node, which is exactly the hardware blow-up the paper's
two-queue algorithms avoid.

We pair it with minimal fully-adaptive hop selection so it doubles as
an upper-bound comparator for the ablation benchmarks.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..core.hops import HopKernel
from ..core.queues import QueueId, deliver
from ..core.routing_function import RoutingAlgorithm
from ..topology.base import Topology


def _level_kind(h: int) -> str:
    return f"L{h}"


class StructuredBufferPoolRouting(RoutingAlgorithm):
    """Hop-level structured buffer pool over any topology.

    Works on every topology with symmetric links; the queue kind
    encodes the number of hops taken, so no per-message state is
    needed.
    """

    name = "structured-buffer-pool"
    is_minimal = True
    is_fully_adaptive = True

    def __init__(self, topology: Topology, levels: int | None = None):
        super().__init__(topology)
        self.levels = (levels if levels is not None else topology.diameter) + 1
        self.name = f"structured-buffer-pool({self.levels})"

    def central_queue_kinds(self, node: Hashable) -> tuple[str, ...]:
        return tuple(_level_kind(h) for h in range(self.levels))

    def injection_targets(
        self, src: Hashable, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        return frozenset({QueueId(src, _level_kind(0))})

    def static_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        h = int(q.kind[1:])
        if h + 1 >= self.levels:
            raise RuntimeError(
                f"message exceeded buffer-pool levels at {q} (dst={dst})"
            )
        topo = self.topology
        du = topo.distance(u, dst)
        return frozenset(
            QueueId(v, _level_kind(h + 1))
            for v in topo.neighbors(u)
            if topo.distance(v, dst) == du - 1
        )

    def compile_hops(self, layout):
        if type(self) is not StructuredBufferPoolRouting:
            return None
        kernel = _BufferPoolKernel(layout, self)
        return kernel if kernel.ok else None


class _BufferPoolKernel(HopKernel):
    """Integer hop kernel for the hop-level buffer pool.

    Topology-agnostic: kind index equals the hop level, and minimal
    next hops come from the topology's own ``neighbors``/``distance``
    (the same calls the symbolic path makes).  Level-exhausted keys
    are declined so the symbolic path raises its usual error.
    """

    def __init__(self, layout, alg: StructuredBufferPoolRouting):
        super().__init__(layout)
        self.alg = alg
        self.levels = alg.levels
        self.ok = self.has_kinds(
            tuple(_level_kind(h) for h in range(self.levels))
        )

    def candidates(self, qid: int, dst_i: int, sid: int):
        ui, h = divmod(qid, self.levels)
        if ui == dst_i:
            return ((-1, sid, None),), ()
        if h + 1 >= self.levels:
            return None  # symbolic path raises "exceeded buffer-pool levels"
        t = self.t
        topo = self.alg.topology
        u = t.nodes[ui]
        dst = t.nodes[dst_i]
        du = topo.distance(u, dst)
        kind = _level_kind(h + 1)
        return tuple(
            (t.nid[v] * self.levels + h + 1, sid, kind)
            for v in topo.neighbors(u)
            if topo.distance(v, dst) == du - 1
        ), ()

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        return ((ui * self.levels, sid),)
