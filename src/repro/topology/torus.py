"""k-dimensional torus (wrap-around mesh).

Nodes are coordinate tuples; dimension ``i`` forms a ring of length
``shape[i]``.  The paper sketches (end of Section 4) that the mesh
technique extends to tori with four central queues per node; the
reconstruction of that algorithm lives in
:mod:`repro.routing.torus`.
"""

from __future__ import annotations

from typing import Iterator

from .base import Topology
from .mesh import Coord, Mesh


class Torus(Mesh):
    """A ``shape[0] x ... x shape[k-1]`` torus."""

    wraps = True

    def __init__(self, shape: tuple[int, ...]):
        if not shape or any(s < 3 for s in shape):
            # With s == 2 the two ring directions coincide and the
            # double links would collapse; the paper's tori have s >= 3.
            raise ValueError("every torus dimension must be >= 3")
        super().__init__(shape)
        self.name = f"torus({'x'.join(map(str, self.shape))})"

    def neighbors(self, u: Coord) -> tuple[Coord, ...]:
        out = []
        for i in range(self.k):
            s = self.shape[i]
            out.append(u[:i] + ((u[i] + 1) % s,) + u[i + 1 :])
            out.append(u[:i] + ((u[i] - 1) % s,) + u[i + 1 :])
        return tuple(out)

    def is_adjacent(self, u: Coord, v: Coord) -> bool:
        return v in self.neighbors(u)

    # The mesh's closed form stops at the boundary; the generic loop
    # follows the wrap links.
    link_table = Topology.link_table

    def ring_distance(self, a: int, b: int, dim: int) -> int:
        """Shortest distance between positions ``a`` and ``b`` on ring ``dim``."""
        s = self.shape[dim]
        d = abs(a - b)
        return min(d, s - d)

    def distance(self, u: Coord, v: Coord) -> int:
        return sum(self.ring_distance(u[i], v[i], i) for i in range(self.k))

    @property
    def diameter(self) -> int:
        return sum(s // 2 for s in self.shape)

    def minimal_directions(self, a: int, b: int, dim: int) -> tuple[int, ...]:
        """Ring directions (+1/-1) achieving the minimal distance.

        Both directions are returned when ``a`` and ``b`` are
        diametrically opposite on an even ring; an empty tuple when the
        coordinates already agree.
        """
        s = self.shape[dim]
        if a == b:
            return ()
        fwd = (b - a) % s
        bwd = (a - b) % s
        if fwd < bwd:
            return (+1,)
        if bwd < fwd:
            return (-1,)
        return (+1, -1)

    def step(self, u: Coord, dim: int, delta: int) -> Coord:
        s = self.shape[dim]
        return u[:dim] + ((u[dim] + delta) % s,) + u[dim + 1 :]

    def crosses_dateline(self, u: Coord, dim: int, delta: int) -> bool:
        """Whether stepping from ``u`` along ``dim`` uses the wrap link.

        The *dateline* of ring ``dim`` is the edge between positions
        ``shape[dim]-1`` and ``0``.
        """
        s = self.shape[dim]
        if delta == +1:
            return u[dim] == s - 1
        if delta == -1:
            return u[dim] == 0
        raise ValueError("delta must be +1 or -1")
