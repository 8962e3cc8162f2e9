"""Torus routing (paper, Section 4, last paragraph).

The paper states that a fully-adaptive minimal packet routing for tori
can be obtained with four central queues per node "following an idea
similar to [GPS91]", but gives no construction (the cited report was
unpublished).  This module is our *reconstruction* in the paper's own
dynamic-link framework; it is machine-verified by the test-suite with
:func:`repro.core.verification.verify_algorithm`.

Construction
------------
Each message fixes, at injection, the minimal ring direction per
dimension (ties broken toward ``+1``).  Central queues are indexed by
``(phase, class)`` where

* ``class`` counts the *datelines* crossed so far (the wrap edge of
  each ring); a minimal route crosses each dimension's dateline at
  most once, so ``class <= k`` for a k-dimensional torus;
* within a class the mesh discipline of Section 4 applies to the
  physical coordinates: phase A while an increasing non-wrap move
  remains (with dynamic links for decreasing moves), phase B
  afterwards.  Dateline crossings are static hops into class ``c+1``.

The static QDG is acyclic by the lexicographic order (class, phase,
+/- coordinate sum); the dynamic links satisfy the Section-2 escape
condition because a decreasing phase-A move never consumes the pending
increasing correction.

For a 2-D torus this yields ``2 * (2 + 1) = 6`` central queues — two
more than the paper's (unsubstantiated) count of 4.  Passing
``classes=2`` builds the literal 4-queue variant; our verifier shows
its static QDG is cyclic whenever some minimal route must cross two
datelines, which is why we ship the 6-queue scheme as the default.
"""

from __future__ import annotations

from typing import Any

from ..core.queues import QueueId, deliver
from ..core.routing_function import RoutingAlgorithm
from ..topology.mesh import Coord
from ..topology.torus import Torus
from .mesh import GridKernel


def _kind(phase: str, cls: int) -> str:
    return f"{phase}{cls}"


def _parse_kind(kind: str) -> tuple[str, int]:
    return kind[0], int(kind[1:])


class TorusRouting(RoutingAlgorithm):
    """Minimal adaptive deadlock-free packet routing on a k-dim torus."""

    name = "torus-adaptive"
    is_minimal = True
    # Fully adaptive whenever no ring has diametrically-opposite pairs
    # (odd ring sizes); with even rings the tie-break to +1 drops the
    # duplicate-direction minimal paths.
    is_fully_adaptive = True

    def __init__(self, topology: Torus, classes: int | None = None):
        if not isinstance(topology, Torus):
            raise TypeError("requires a Torus topology")
        super().__init__(topology)
        self.k = topology.k
        self.classes = classes if classes is not None else self.k + 1
        if self.classes < 1:
            raise ValueError("need at least one dateline class")
        self.name = f"torus-adaptive({2 * self.classes}q)"
        self.is_fully_adaptive = all(s % 2 == 1 for s in topology.shape)

    def central_queue_kinds(self, node: Coord) -> tuple[str, ...]:
        kinds = []
        for c in range(self.classes):
            kinds.append(_kind("A", c))
            kinds.append(_kind("B", c))
        return tuple(kinds)

    # -- per-message state: the fixed ring directions ---------------------
    def initial_state(self, src: Coord, dst: Coord) -> tuple[int, ...]:
        topo: Torus = self.topology
        dirs = []
        for i in range(self.k):
            opts = topo.minimal_directions(src[i], dst[i], i)
            dirs.append(opts[0] if opts else 0)
        return tuple(dirs)

    # -- move classification ----------------------------------------------
    def _moves(self, u: Coord, dst: Coord, dirs: tuple[int, ...]):
        """Yield ``(dim, v, kind)`` for every pending minimal move, where
        ``kind`` is ``'up'``, ``'down'``, or ``'cross'``."""
        topo: Torus = self.topology
        for i in range(self.k):
            if u[i] == dst[i] or dirs[i] == 0:
                continue
            delta = dirs[i]
            v = topo.step(u, i, delta)
            if topo.crosses_dateline(u, i, delta):
                yield i, v, "cross"
            elif delta > 0:
                yield i, v, "up"
            else:
                yield i, v, "down"

    def _next_class(self, c: int) -> int:
        return min(c + 1, self.classes - 1)

    # -- routing function ---------------------------------------------------
    def injection_targets(
        self, src: Coord, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        dirs = state if state is not None else self.initial_state(src, dst)
        moves = list(self._moves(src, dst, dirs))
        phase = "A" if any(k == "up" for *_x, k in moves) else "B"
        return frozenset({QueueId(src, _kind(phase, 0))})

    def static_hops(
        self, q: QueueId, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        dirs = state if state is not None else self.initial_state(u, dst)
        phase, c = _parse_kind(q.kind)
        moves = list(self._moves(u, dst, dirs))
        ups = [v for _i, v, k in moves if k == "up"]
        downs = [v for _i, v, k in moves if k == "down"]
        crossings = [v for _i, v, k in moves if k == "cross"]
        if phase == "A":
            if not ups:
                # Nothing ascending left: change phase in place.
                return frozenset({QueueId(u, _kind("B", c))})
            hops = {QueueId(v, _kind("A", c)) for v in ups}
            hops |= {
                QueueId(v, _kind("A", self._next_class(c))) for v in crossings
            }
            return frozenset(hops)
        # Phase B: descending and crossing moves only.
        hops = {QueueId(v, _kind("B", c)) for v in downs}
        hops |= {
            QueueId(v, _kind("A", self._next_class(c))) for v in crossings
        }
        return frozenset(hops)

    def dynamic_hops(
        self, q: QueueId, dst: Coord, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if u == dst:
            return frozenset()
        phase, c = _parse_kind(q.kind)
        if phase != "A":
            return frozenset()
        dirs = state if state is not None else self.initial_state(u, dst)
        moves = list(self._moves(u, dst, dirs))
        if not any(k == "up" for *_x, k in moves):
            return frozenset()
        return frozenset(
            QueueId(v, _kind("A", c)) for _i, v, k in moves if k == "down"
        )

    def compile_hops(self, layout):
        if type(self) is not TorusRouting or type(self.topology) is not Torus:
            return None
        kernel = GridKernel(layout, self, adaptive=True, oblivious=False)
        return kernel if kernel.ok else None
