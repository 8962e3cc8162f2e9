"""Adaptive deadlock-free routing on cube-connected cycles.

Our application of the paper's hanging methodology to the CCC
(the paper's introduction credits [PFGS91] with such constructions;
that report was never published, so this is a reconstruction in the
same style as the shuffle-exchange algorithm of Section 5):

* Hang the cube part from ``0...0``.  **Phase 1** corrects the cube
  bits that must rise (0 -> 1), visiting cycles of increasing level;
  **phase 2** corrects the falling bits (1 -> 0) and then walks to the
  destination's cycle position.
* Within a phase, messages travel around a cycle only in the
  ascending (+1) direction, taking the dimension-``p`` cube link
  whenever the current position ``p`` is a bit the phase must correct.
  Each cycle (a ring) is broken Dally-Seitz style with two queue
  classes: a message enters a cycle in class ``a`` and bumps to ``b``
  when its cycle walk enters position 0.
* **Dynamic links**: a phase-1 message may take a falling (1 -> 0)
  cube link early whenever it finds space, exactly like the dynamic
  exchanges of the shuffle-exchange scheme.

A message needs at most one correction per cycle visit and at most
``n - 1`` cycle steps between corrections, so it crosses a cycle's
break point at most once per visit and two classes per phase suffice:
**4 central queues per node**, independent of ``n`` — machine-verified
by the test-suite.  Routes are not minimal (cycle walks are one-way),
bounded by ``O(n)`` hops, matching the CCC's ``Theta(n)`` diameter.
"""

from __future__ import annotations

from typing import Any

from ..core.hops import HopKernel
from ..core.queues import QueueId, deliver
from ..core.routing_function import DYNAMIC_CLASS, RoutingAlgorithm
from ..topology.ccc import CubeConnectedCycles, Node


def _kind(phase: int, cls: int) -> str:
    return f"P{phase}{'ab'[cls]}"


def _parse_kind(kind: str) -> tuple[int, int]:
    return int(kind[1]), "ab".index(kind[2])


class CCCAdaptiveRouting(RoutingAlgorithm):
    """Two-phase adaptive deadlock-free CCC routing (4 queues/node)."""

    name = "ccc-adaptive"
    is_minimal = False
    is_fully_adaptive = False

    def __init__(self, topology: CubeConnectedCycles, adaptive: bool = True):
        if not isinstance(topology, CubeConnectedCycles):
            raise TypeError("requires a CubeConnectedCycles topology")
        super().__init__(topology)
        self.n = topology.n
        self.adaptive = adaptive
        if not adaptive:
            self.name = "ccc-static"

    def central_queue_kinds(self, node: Node) -> tuple[str, ...]:
        return ("P1a", "P1b", "P2a", "P2b")

    # -- bit bookkeeping ---------------------------------------------------
    def _rising(self, w: int, dst_w: int) -> int:
        return ~w & dst_w & self.topology._mask

    def _falling(self, w: int, dst_w: int) -> int:
        return w & ~dst_w & self.topology._mask

    # -- routing function ----------------------------------------------------
    def injection_targets(
        self, src: Node, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        phase = 1 if self._rising(src[0], dst[0]) else 2
        return frozenset({QueueId(src, _kind(phase, 0))})

    def _cycle_hop(self, q: QueueId, phase: int, cls: int) -> QueueId:
        """Ascending cycle step; entering position 0 bumps the class."""
        topo: CubeConnectedCycles = self.topology
        v = topo.cycle_next(q.node)
        if v[1] == 0:
            cls = min(cls + 1, 1)
        return QueueId(v, _kind(phase, cls))

    def static_hops(
        self, q: QueueId, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        topo: CubeConnectedCycles = self.topology
        w, p = u
        dst_w, dst_p = dst
        phase, cls = _parse_kind(q.kind)
        if phase == 1:
            rising = self._rising(w, dst_w)
            if not rising:
                # Phase done: switch to phase 2 in place.
                return frozenset({QueueId(u, _kind(2, 0))})
            if (rising >> p) & 1:
                # Mandatory 0 -> 1 correction at this position.
                return frozenset({QueueId(topo.cube_partner(u), "P1a")})
            return frozenset({self._cycle_hop(q, 1, cls)})
        # Phase 2: falling corrections, then walk to the target position.
        falling = self._falling(w, dst_w)
        if (falling >> p) & 1:
            return frozenset({QueueId(topo.cube_partner(u), "P2a")})
        return frozenset({self._cycle_hop(q, 2, cls)})

    def dynamic_hops(
        self, q: QueueId, dst: Node, state: Any = None
    ) -> frozenset[QueueId]:
        if not self.adaptive:
            return frozenset()
        u = q.node
        if u == dst:
            return frozenset()
        w, p = u
        phase, _cls = _parse_kind(q.kind)
        if phase != 1:
            return frozenset()
        if not self._rising(w, dst[0]):
            return frozenset()
        if (self._falling(w, dst[0]) >> p) & 1:
            # Early 1 -> 0 correction over a dynamic link.
            topo: CubeConnectedCycles = self.topology
            return frozenset({QueueId(topo.cube_partner(u), "P1a")})
        return frozenset()

    def compile_hops(self, layout):
        if (
            type(self) is not CCCAdaptiveRouting
            or type(self.topology) is not CubeConnectedCycles
        ):
            return None
        kernel = _CCCKernel(layout, self)
        return kernel if kernel.ok else None


class _CCCKernel(HopKernel):
    """Integer hop kernel for the two-phase CCC scheme.

    Node ``(w, p)`` has index ``w * n + p`` (cycle-position-major
    within a cycle), so the cube partner is ``(w ^ (1 << p)) * n + p``
    and the ascending cycle step is position arithmetic; kind index
    factors as ``2 * (phase - 1) + cls``.  Stateless.
    """

    KINDS = ("P1a", "P1b", "P2a", "P2b")

    def __init__(self, layout, alg: CCCAdaptiveRouting):
        super().__init__(layout)
        n = alg.n
        self.n = n
        self.mask = alg.topology._mask
        self.adaptive = alg.adaptive
        self.ok = self.has_kinds(self.KINDS) and layout.nodes == [
            (w, p) for w in range(1 << n) for p in range(n)
        ]

    def _cycle_hop_i(self, w: int, p: int, phase2: int, cls: int) -> int:
        np_ = p + 1
        if np_ == self.n:
            np_ = 0
        if np_ == 0:
            cls = 1  # entering position 0 bumps the class (min(cls+1, 1))
        return (w * self.n + np_) * 4 + 2 * phase2 + cls

    def candidates(self, qid: int, dst_i: int, sid: int):
        ui, ki = divmod(qid, 4)
        if ui == dst_i:
            return ((-1, sid, None),), ()
        n = self.n
        kinds = self.KINDS
        w, p = divmod(ui, n)
        dst_w = dst_i // n
        phase2, cls = divmod(ki, 2)
        partner = ((w ^ (1 << p)) * n + p) * 4
        if not phase2:
            rising = ~w & dst_w & self.mask
            if not rising:
                return ((ui * 4 + 2, sid, None),), ()  # switch to P2a in place
            dy = ()
            if self.adaptive and ((w & ~dst_w) >> p) & 1:
                # Early 1 -> 0 over a dynamic link.
                dy = ((partner, sid, DYNAMIC_CLASS),)
            if (rising >> p) & 1:
                return ((partner, sid, kinds[0]),), dy  # mandatory 0 -> 1
            hop = self._cycle_hop_i(w, p, 0, cls)
            return ((hop, sid, kinds[hop % 4]),), dy
        falling = w & ~dst_w & self.mask
        if (falling >> p) & 1:
            return ((partner + 2, sid, kinds[2]),), ()  # mandatory 1 -> 0 (P2a)
        hop = self._cycle_hop_i(w, p, 1, cls)
        return ((hop, sid, kinds[hop % 4]),), ()

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        n = self.n
        w = ui // n
        dst_w = dst_i // n
        phase2 = 0 if ~w & dst_w & self.mask else 2
        return ((ui * 4 + phase2, sid),)
