"""Mesh routing algorithms (paper, Section 4).

The mesh is hung from node ``(0, 0)`` in phase A and from
``(n-1, n-1)`` in phase B:

* **Phase A** (queues ``qA``): static hops increase a coordinate that
  is below its destination value; the *dynamic links* additionally
  allow any minimal decreasing hop while an increasing correction
  remains.
* **Phase B** (queues ``qB``): hops decrease coordinates toward the
  destination.  A message switches A -> B (an internal move) once every
  destination coordinate is <= its current coordinate.

The paper presents the restricted (static-only) scheme first and then
the fully-adaptive extension; both are implemented, plus an oblivious
deterministic restriction as a baseline.  Everything is written for
k-dimensional meshes (the paper notes the generalisation is easy); the
2-D classes below merely fix ``k = 2``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.hops import TwoPhaseKernel, TwoPhaseRows
from ..core.queues import QueueId, deliver
from ..core.routing_function import RoutingAlgorithm
from ..topology.mesh import Coord, Mesh, Mesh2D

QA = "A"
QB = "B"


class MeshRestrictedRouting(RoutingAlgorithm):
    """The paper's first (static, partially adaptive) mesh scheme.

    Phase A moves only toward higher coordinates; phase B only toward
    lower ones.  Its QDG is acyclic.  A message heading "north-west"
    (one coordinate up, one down) has exactly one route — no adaptivity
    at all, which is the motivation for the dynamic-link extension.
    """

    name = "mesh-restricted"
    is_minimal = True
    is_fully_adaptive = False

    def __init__(self, topology: Mesh):
        if not isinstance(topology, Mesh):
            raise TypeError("requires a Mesh topology")
        super().__init__(topology)
        self.k = topology.k

    def central_queue_kinds(self, node: Coord) -> tuple[str, ...]:
        return (QA, QB)

    # -- helpers ---------------------------------------------------------
    def _ups(self, u: Coord, dst: Coord) -> tuple[int, ...]:
        """Dimensions still needing an increasing correction."""
        return tuple(i for i in range(self.k) if dst[i] > u[i])

    def _downs(self, u: Coord, dst: Coord) -> tuple[int, ...]:
        """Dimensions still needing a decreasing correction."""
        return tuple(i for i in range(self.k) if dst[i] < u[i])

    # -- routing function -------------------------------------------------
    def injection_targets(
        self, src: Coord, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        if self._ups(src, dst):
            return frozenset({QueueId(src, QA)})
        return frozenset({QueueId(src, QB)})

    def static_hops(
        self, q: QueueId, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        topo: Mesh = self.topology
        if q.kind == QA:
            if u == dst:
                return frozenset({deliver(dst)})
            ups = self._ups(u, dst)
            if ups:
                return frozenset(
                    QueueId(topo.step(u, i, +1), QA) for i in ups
                )
            return frozenset({QueueId(u, QB)})
        if q.kind == QB:
            if u == dst:
                return frozenset({deliver(dst)})
            return frozenset(
                QueueId(topo.step(u, i, -1), QB)
                for i in self._downs(u, dst)
            )
        raise ValueError(f"no hops from {q}")

    def compile_hops(self, layout):
        variant = _KERNEL_VARIANTS.get(type(self))
        if variant is None or type(self.topology) not in (Mesh, Mesh2D):
            return None
        kernel = _MeshKernel(layout, self, *variant)
        return kernel if kernel.ok else None


class MeshAdaptiveRouting(MeshRestrictedRouting):
    """The paper's fully-adaptive minimal mesh algorithm (Theorem 2).

    Dynamic links let a phase-A message also take any minimal
    *decreasing* hop, provided an increasing correction remains (so a
    static escape path survives).
    """

    name = "mesh-adaptive"
    is_minimal = True
    is_fully_adaptive = True

    def dynamic_hops(
        self, q: QueueId, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        if q.kind != QA:
            return frozenset()
        u = q.node
        if not self._ups(u, dst):
            return frozenset()
        topo: Mesh = self.topology
        return frozenset(
            QueueId(topo.step(u, i, -1), QA) for i in self._downs(u, dst)
        )


class MeshObliviousRouting(MeshRestrictedRouting):
    """Deterministic restriction (lowest dimension first): oblivious
    minimal baseline with the same two-queue structure."""

    name = "mesh-oblivious"
    is_minimal = True
    is_fully_adaptive = False

    def static_hops(
        self, q: QueueId, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        hops = super().static_hops(q, dst, state)
        movers = sorted(
            (h for h in hops if h.is_central and h.node != q.node),
            key=lambda h: h.node,
        )
        if len(movers) <= 1:
            return hops
        return frozenset({movers[0]})


class _MeshKernel(TwoPhaseKernel):
    """Integer hop kernel for the two-phase mesh schemes.

    Node indices are lexicographic coordinate ranks, so a ``+1`` step
    in dimension ``i`` is ``+stride[i]`` on the index; global queue id
    factors as ``node * 2 + phase``.  The node-index order equals the
    coordinate-tuple order, so the oblivious tie-break (lowest node)
    is ``min`` over candidate indices.

    :meth:`fill_rows` states the same relation over whole arrays of
    keys by comparing coordinates, one candidate column per dimension:

    * phase A: the increasing corrections (oblivious: the *highest*
      such dimension, whose step has the smallest stride and so the
      lowest node), plus the decreasing ones as dynamic links when
      adaptive and an increase remains;
    * phase B: the decreasing corrections (oblivious: the *lowest*
      such dimension).

    Every link carries the classes ``(qA, qB, dynamic)``, so
    ``_up_a[u, i]`` (the up-link's ``qA`` slot), ``_down_b[u, i]`` and
    ``_down_dyn[u, i]`` (the down-link's ``qB`` and dynamic slots) are
    the only slots a candidate along dimension ``i`` can use.
    """

    def __init__(self, layout, alg: MeshRestrictedRouting, adaptive, oblivious):
        super().__init__(layout)
        shape = alg.topology.shape
        self.k = alg.k
        strides = [1] * self.k
        for i in range(self.k - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        self.strides = tuple(strides)
        self.adaptive = adaptive
        self.oblivious = oblivious
        if self.kinds != (QA, QB):
            self.ok = False
        if self.ok:
            self._build_slot_table(layout, shape)

    def _build_slot_table(self, layout, shape) -> None:
        # Link-table column 2i is the +1 step along dimension i, column
        # 2i+1 the -1 step; each link's slots are (qA, qB, dynamic).
        idx = np.arange(len(layout.nodes), dtype=np.int64)
        self._coords = np.stack(np.unravel_index(idx, shape), axis=1)
        first = layout.link_first_slot
        self._up_a = np.ascontiguousarray(first[:, 0::2])
        self._down_b = first[:, 1::2] + 1
        self._down_dyn = self._down_b + 1
        self._pad = layout.n_slots
        self._slot_columns()

    def memory_bytes(self) -> int:
        if not self.ok:
            return 0
        return sum(
            a.nbytes
            for a in (
                self._coords, self._up_a, self._down_b, self._down_dyn,
                self.slot_dyn,
            )
        )

    def a_done(self, v, dst):
        """Whether node ``v`` has no increase left toward ``dst``."""
        return (self._coords[dst] <= self._coords[v]).all(axis=1)

    def fill_rows(self, qids, dsts, sids) -> TwoPhaseRows:
        u = qids >> 1
        phase_a = ((qids & 1) == 0)[:, None]
        uc = self._coords[u]
        dc = self._coords[dsts]
        ups = dc > uc
        downs = dc < uc
        any_up = ups.any(axis=1)
        static_a = ups
        static_b = downs
        if self.oblivious:
            # Phase A: the highest pending up-dimension; phase B: the
            # lowest pending down-dimension (both the lowest node).
            static_a = ups & (np.cumsum(ups[:, ::-1], axis=1)[:, ::-1] == 1)
            static_b = downs & (np.cumsum(downs, axis=1) == 1)
        slots = np.where(phase_a & static_a, self._up_a[u], self._pad)
        slots = np.where(~phase_a & static_b, self._down_b[u], slots)
        if self.adaptive:
            dynamic = phase_a & any_up[:, None] & downs
            slots = np.where(dynamic, self._down_dyn[u], slots)
        slots.sort(axis=1)  # move the padding to the right
        done = u == dsts
        # Delivery, or phase A with no increase left: switch to qB.
        hasint = done | (phase_a[:, 0] & ~any_up)
        return TwoPhaseRows(self, slots, hasint, qids, dsts, sids, done)

    def candidates(self, qid: int, dst_i: int, sid: int):
        ui = qid >> 1
        if ui == dst_i:
            return ((-1, sid),), ()
        nodes = self.t.nodes
        u = nodes[ui]
        d = nodes[dst_i]
        strides = self.strides
        rng = range(self.k)
        if qid & 1 == 0:  # phase A
            st = [((ui + strides[i]) << 1, sid) for i in rng if d[i] > u[i]]
            if not st:
                # Only decreasing corrections remain: phase flip in place.
                return ((qid | 1, sid),), ()
            if self.oblivious and len(st) > 1:
                st = [min(st)]
            dy = ()
            if self.adaptive:
                dy = tuple(
                    ((ui - strides[i]) << 1, sid) for i in rng if d[i] < u[i]
                )
            return tuple(st), dy
        st = [  # phase B
            (((ui - strides[i]) << 1) | 1, sid) for i in rng if d[i] < u[i]
        ]
        if self.oblivious and len(st) > 1:
            st = [min(st)]
        return tuple(st), ()

    def inject_candidates(self, ui: int, dst_i: int, sid: int):
        nodes = self.t.nodes
        u = nodes[ui]
        d = nodes[dst_i]
        if any(d[i] > u[i] for i in range(self.k)):
            return ((ui << 1, sid),)
        return (((ui << 1) | 1, sid),)


class Mesh2DRestrictedRouting(MeshRestrictedRouting):
    """Section 4's first routing function, on a 2-D mesh."""

    name = "mesh2d-restricted"

    def __init__(self, topology: Mesh2D):
        if not isinstance(topology, Mesh2D):
            raise TypeError("requires a Mesh2D topology")
        super().__init__(topology)


class Mesh2DAdaptiveRouting(MeshAdaptiveRouting):
    """Section 4's fully-adaptive routing function, on a 2-D mesh."""

    name = "mesh2d-adaptive"

    def __init__(self, topology: Mesh2D):
        if not isinstance(topology, Mesh2D):
            raise TypeError("requires a Mesh2D topology")
        super().__init__(topology)


#: Exact classes the kernel vouches for -> (adaptive, oblivious).
_KERNEL_VARIANTS = {
    MeshRestrictedRouting: (False, False),
    MeshAdaptiveRouting: (True, False),
    MeshObliviousRouting: (False, True),
    Mesh2DRestrictedRouting: (False, False),
    Mesh2DAdaptiveRouting: (True, False),
}
