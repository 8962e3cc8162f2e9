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

from ..core.hops import TwoPhaseKernel, TwoPhaseRows, mask_dims
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
        kernel = GridKernel(layout, self, *variant)
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


class GridKernel(TwoPhaseKernel):
    """Integer hop kernel of the two-phase mesh schemes and the torus.

    A mesh is a torus with one dateline class and no wrap links, so one
    kernel states both hop relations over whole arrays of keys (batch
    rows only: scalar keys take the symbolic candidates).  Node ids
    are lexicographic coordinate ranks; queue id ``node * nk + kind``
    has kind ``2c`` (phase A) or ``2c + 1`` (phase B) of class ``c``.
    A message moves along dimension ``i`` in a fixed direction:
    ``sign(dst - u)`` on a mesh, the routing state on a torus (a
    per-state-id table; a ``None`` state takes ``initial_state(u,
    dst)``).  A pending move is *up*, *down* or a dateline *cross*.
    Phase A, while an up move remains, takes the up moves (oblivious:
    the *highest* such dimension, whose smaller stride gives the lowest
    node), the crosses and, when adaptive, the down moves as dynamic
    links; with no up move left it switches to phase B in place.
    Phase B takes the down moves (oblivious: the *lowest* dimension)
    and the crosses.  A cross lands in the next class's phase A.

    A message's moves are dimension bit masks (bit ``i``: a move along
    dimension ``i``), with ``neg`` marking the dimensions it steps -1
    along; a torus state is kept as the mask of its +1 and (shifted by
    ``k``) its -1 dimensions.  Which steps are wrap links depends on the
    node alone (``_inner``), and so, given the queue, does the slot of
    each link-table column (``2i`` the +1 link, ``2i+1`` the -1 link):
    ``_slot_flat[qid * (2k+1) + col]``, with column ``2k`` the pad slot.
    A row's slots ascend with the dimension, so ``_dims``
    (:func:`~repro.core.hops.mask_dims`, ``2^k`` rows) lists its
    dimensions, each picks its link's column from ``neg``, and one
    gather yields slot-ascending rows with the padding on the right, as
    in the hypercube kernel.
    """

    def __init__(self, layout, alg, adaptive: bool, oblivious: bool):
        topo = alg.topology
        super().__init__(layout, alg.central_queue_kinds(layout.nodes[0]))
        self.adaptive = adaptive
        self.oblivious = oblivious
        self.wrap = topo.wraps
        self.k = k = topo.k
        if not self.ok:
            return
        nk = self.nk
        self._shape = shape = np.array(topo.shape, dtype=np.int64)
        idx = np.arange(len(layout.nodes), dtype=np.int64)
        self._coords = coords = np.stack(
            np.unravel_index(idx, topo.shape), axis=1
        )
        self._bits = 1 << np.arange(k, dtype=np.int64)
        self._all = (1 << k) - 1
        inner = np.empty((len(idx), 2 * k), dtype=bool)  # by column
        inner[:, 0::2] = coords < shape - 1
        inner[:, 1::2] = coords > 0
        # Non-wrap steps: +1 dimensions, and -1 dimensions shifted by k.
        self._inner = inner[:, 0::2] @ self._bits
        self._inner |= (inner[:, 1::2] @ self._bits) << k
        # The landing kind's slot offset per (node, kind, column): a
        # cross's next class in phase A, a -1 step from phase A the
        # dynamic class, any other step its own kind.
        kind = np.arange(nk)[:, None]
        nxt = 2 * np.minimum(kind // 2 + 1, nk // 2 - 1)
        step = np.where((np.arange(2 * k) & 1) > (kind & 1), nk, kind)
        slot = np.empty((len(idx), nk, 2 * k + 1), dtype=np.int64)
        slot[:, :, : 2 * k] = layout.link_first_slot[:, None, :] + np.where(
            inner[:, None, :], step, nxt
        )
        slot[:, :, 2 * k] = layout.n_slots
        self._slot_flat = slot.reshape(-1)
        self._dims = mask_dims(k).astype(np.int64)  # int64: no mixed casts
        self._dir_masks = np.zeros(0, dtype=np.int64)
        self._slot_columns()

    def memory_bytes(self) -> int:
        owned = (self._coords, self._inner, self._slot_flat, self._dims)
        return sum(a.nbytes for a in owned + (self.slot_kind, self._dir_masks))

    def _moves(self, u, dsts, sids):
        """``(pending, up, down, neg)`` dimension masks at node ``u``:
        the pending moves, those stepping +1 / -1 without a cross, and
        those stepping -1."""
        # take: a row gather, several times faster than fancy indexing.
        uc = np.take(self._coords, u, axis=0)
        dc = np.take(self._coords, dsts, axis=0)
        if not self.wrap:
            plus = dc > uc
            minus = dc < uc
            if self.oblivious:
                plus &= np.cumsum(plus[:, ::-1], axis=1)[:, ::-1] == 1
                minus &= np.cumsum(minus, axis=1) == 1
            up = plus @ self._bits
            down = minus @ self._bits
            return up | down, up, down, down
        k = self.k
        states = self.t.states
        if len(states) > len(self._dir_masks):
            # A torus state is its direction vector, kept as the mask of
            # its +1 and (shifted by k) -1 dimensions, or None (-1).
            dirs = np.array([st or (0,) * k for st in states])
            masks = (dirs > 0) @ self._bits | ((dirs < 0) @ self._bits) << k
            none = [st is None for st in states]
            self._dir_masks = np.where(none, -1, masks)
        dirs = self._dir_masks[sids]
        none = dirs < 0
        if none.any():
            # initial_state(u, dst): the shorter way round, ties to +1.
            fwd = (dc - uc) % self._shape
            shorter_up = 2 * fwd <= self._shape
            init = np.where(shorter_up, self._bits, self._bits << k)
            dirs = np.where(none, init.sum(axis=1), dirs)
        pending = (uc != dc) @ self._bits
        steps = dirs & (pending | pending << k)
        inner = steps & self._inner[u]
        neg = steps >> k
        return (steps | neg) & self._all, inner & self._all, inner >> k, neg

    def a_done(self, v, dst, sids):
        """Whether node ``v`` has no up move left toward ``dst``."""
        return self._moves(v, dst, sids)[1] == 0

    def fill_rows(self, qids, dsts, sids) -> TwoPhaseRows:
        u = qids // self.nk
        moves, up, down, neg = self._moves(u, dsts, sids)
        phase_a = (qids & 1) == 0  # nk is even: the kind's parity
        any_up = up != 0
        moves_a = moves if self.adaptive else moves ^ down
        cand = np.where(phase_a, np.where(any_up, moves_a, 0), moves ^ up)
        dims = np.take(self._dims, cand, axis=0)
        col = dims + dims + ((neg[:, None] >> dims) & 1)
        slots = self._slot_flat[(qids * (2 * self.k + 1))[:, None] + col]
        done = u == dsts
        # Delivery, or phase A with no up move left: switch to phase B.
        hasint = done | (phase_a & ~any_up)
        return TwoPhaseRows(self, slots, hasint, qids, dsts, sids, done)


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
