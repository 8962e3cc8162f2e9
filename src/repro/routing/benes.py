"""Leveled routing on the Beneš network.

Messages travel from a level-0 input to a level-``2n`` output.  In the
first ``n`` stages both out-links are usable (``2**n`` path choices —
the full-adaptivity playground the paper attributes to
multibutterfly-style networks); in the mirrored second half stage
``n + j`` fixes row bit ``j``, so the out-link is forced.

Because every hop strictly advances the level, the QDG is acyclic with
a **single central queue per node** — the levels are a ready-made
hanging order, no phases or dynamic links needed.  This gives the
framework a third structural regime next to the two-phase cube/mesh
schemes and the cycle-breaking SE/CCC schemes.

:class:`BenesObliviousRouting` restricts the first half to the
bit-controlled canonical path (a single route per pair), the classic
congestion-prone baseline.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..core.hops import HopKernel
from ..core.queues import QueueId, deliver
from ..core.routing_function import RoutingAlgorithm
from ..sim.traffic import TrafficPattern
from ..topology.benes import BenesNetwork, Node

Q = "Q"


class BenesAdaptiveRouting(RoutingAlgorithm):
    """Fully-adaptive minimal leveled routing (1 central queue/node)."""

    name = "benes-adaptive"
    is_minimal = True
    is_fully_adaptive = True

    def __init__(self, topology: BenesNetwork):
        if not isinstance(topology, BenesNetwork):
            raise TypeError("requires a BenesNetwork topology")
        super().__init__(topology)
        self.n = topology.n

    def central_queue_kinds(self, node: Node) -> tuple[str, ...]:
        return (Q,)

    def injection_targets(
        self, src: Node, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        if src[0] != 0 or dst[0] != 2 * self.n:
            raise ValueError(
                "Benes routing goes from level-0 inputs to level-2n outputs"
            )
        return frozenset({QueueId(src, Q)})

    def static_hops(
        self, q: QueueId, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        topo: BenesNetwork = self.topology
        l, r = u
        if l < self.n:
            # Free half: either out-link, provided the output row stays
            # reachable (always true in the free half).
            return frozenset(QueueId(v, Q) for v in topo.neighbors(u))
        # Forced half: stage n+j fixes row bit j.
        j = topo.stage_bit(l)
        want = (dst[1] >> j) & 1
        bit = 1 << j
        v = (l + 1, (r & ~bit) | (want << j))
        return frozenset({QueueId(v, Q)})

    def compile_hops(self, layout):
        oblivious = _KERNEL_VARIANTS.get(type(self))
        if oblivious is None or type(self.topology) is not BenesNetwork:
            return None
        kernel = _BenesKernel(layout, self, oblivious)
        return kernel if kernel.ok else None


class BenesObliviousRouting(BenesAdaptiveRouting):
    """Bit-controlled single-path baseline (straight in the free half)."""

    name = "benes-oblivious"
    is_fully_adaptive = False

    def static_hops(
        self, q: QueueId, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        hops = super().static_hops(q, dst, state)
        u = q.node
        if u[0] < self.n and len(hops) > 1:
            straight = QueueId((u[0] + 1, u[1]), Q)
            return frozenset({straight})
        return hops


class _BenesKernel(HopKernel):
    """Integer hop kernel for leveled Beneš routing.

    Nodes are level-major (``index = level * rows + row``) and there is
    one queue kind, so queue ids equal node indices.  Off-network keys
    (messages past the output level, injections not input-to-output)
    are declined so the symbolic path raises its usual errors.
    """

    def __init__(self, layout, alg: BenesAdaptiveRouting, oblivious):
        super().__init__(layout)
        n = alg.n
        self.n = n
        self.rows = 1 << n
        self.oblivious = oblivious
        self.ok = self.has_kinds((Q,)) and layout.nodes == [
            (l, r) for l in range(2 * n + 1) for r in range(self.rows)
        ]

    def candidates(self, qid: int, dst_i: int, sid: int):
        if qid == dst_i:
            return ((-1, sid, None),), ()
        rows = self.rows
        l, r = divmod(qid, rows)
        if l < self.n:
            # Free half: straight and cross out-links.
            straight = qid + rows
            if self.oblivious:
                return ((straight, sid, Q),), ()
            bit = 1 << (self.n - 1 - l)
            return ((straight, sid, Q), (straight ^ bit, sid, Q)), ()
        if l >= 2 * self.n:
            return None  # symbolic path raises "no stage at level ..."
        j = l - self.n  # forced half: stage n+j fixes row bit j
        want = (dst_i % rows >> j) & 1
        bit = 1 << j
        return (((l + 1) * rows + ((r & ~bit) | (want << j)), sid, Q),), ()

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        if ui >= self.rows or dst_i < 2 * self.n * self.rows:
            return None  # symbolic path raises the level-check ValueError
        return ((ui, sid),)


#: Exact classes the kernel vouches for -> oblivious flag.
_KERNEL_VARIANTS = {
    BenesAdaptiveRouting: False,
    BenesObliviousRouting: True,
}


class BenesTraffic(TrafficPattern):
    """Input-to-output traffic for the Beneš network.

    Level-0 nodes draw a destination output; every other node is
    silent (draws itself).  With ``permutation`` set, a fixed random
    output permutation is used instead of uniform draws.
    """

    def __init__(
        self,
        topology: BenesNetwork,
        rng: np.random.Generator | None = None,
        permutation: bool = False,
    ):
        self.topology = topology
        self.out_level = 2 * topology.n
        self.rows = topology.rows
        self.is_permutation = permutation
        self.name = "benes-permutation" if permutation else "benes-random"
        self.mapping: dict[Hashable, Hashable] = {}
        if permutation:
            if rng is None:
                raise ValueError("permutation traffic needs an RNG")
            perm = rng.permutation(self.rows)
            self.mapping = {
                (0, r): (self.out_level, int(perm[r])) for r in range(self.rows)
            }

    def draw(self, src: Hashable, rng: np.random.Generator) -> Hashable:
        if src[0] != 0:
            return src  # non-inputs stay silent
        if self.mapping:
            return self.mapping[src]
        return (self.out_level, int(rng.integers(self.rows)))
