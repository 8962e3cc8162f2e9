"""k-dimensional mesh topologies.

Nodes are coordinate tuples ``(x_0, ..., x_{k-1})`` with
``0 <= x_i < shape[i]``.  Two nodes are adjacent iff they differ by one
in exactly one coordinate.  :class:`Mesh2D` specialises the paper's
Section-4 setting and keeps the paper's ``(x, y)`` vocabulary.

The paper's *level* of a mesh node is the coordinate sum ``x + y``
(the depth when the mesh is hung from ``(0, 0)``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import Topology

Coord = tuple[int, ...]


class Mesh(Topology):
    """A ``shape[0] x ... x shape[k-1]`` mesh."""

    #: Whether each dimension's ends are linked (a torus).
    wraps = False

    def __init__(self, shape: tuple[int, ...]):
        if not shape or any(s < 2 for s in shape):
            raise ValueError("every mesh dimension must be >= 2")
        self.shape = tuple(int(s) for s in shape)
        self.k = len(self.shape)
        self.name = f"mesh({'x'.join(map(str, self.shape))})"

    @property
    def num_nodes(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    def nodes(self) -> Iterator[Coord]:
        def rec(prefix: tuple[int, ...], dims: tuple[int, ...]):
            if not dims:
                yield prefix
                return
            for x in range(dims[0]):
                yield from rec(prefix + (x,), dims[1:])

        return rec((), self.shape)

    def contains(self, u: Coord) -> bool:
        return len(u) == self.k and all(
            0 <= u[i] < self.shape[i] for i in range(self.k)
        )

    def neighbors(self, u: Coord) -> tuple[Coord, ...]:
        out = []
        for i in range(self.k):
            if u[i] + 1 < self.shape[i]:
                out.append(u[:i] + (u[i] + 1,) + u[i + 1 :])
            if u[i] - 1 >= 0:
                out.append(u[:i] + (u[i] - 1,) + u[i + 1 :])
        return tuple(out)

    def is_adjacent(self, u: Coord, v: Coord) -> bool:
        diff = [abs(a - b) for a, b in zip(u, v)]
        return sum(diff) == 1

    def link_index(self, u: Coord, v: Coord) -> int:
        nbrs = self.neighbors(u)
        try:
            return nbrs.index(v)
        except ValueError:
            raise ValueError(f"{u} and {v} are not mesh neighbors") from None

    def link_table(self) -> np.ndarray:
        """Column ``2i`` is the ``+1`` step along dimension ``i`` and
        column ``2i+1`` the ``-1`` step (the :meth:`neighbors` order),
        ``-1`` at the boundary.  Node ids are lexicographic coordinate
        ranks, so a step along ``i`` moves the id by its stride."""
        if type(self).neighbors is not Mesh.neighbors:
            return super().link_table()
        ids = np.arange(self.num_nodes, dtype=np.int64)
        coords = np.unravel_index(ids, self.shape)
        table = np.empty((len(ids), 2 * self.k), dtype=np.int64)
        stride = 1
        for i in range(self.k - 1, -1, -1):
            size = self.shape[i]
            for col, step in ((2 * i, 1), (2 * i + 1, -1)):
                to = coords[i] + step
                table[:, col] = np.where(
                    (to >= 0) & (to < size), ids + step * stride, -1
                )
            stride *= size
        return table

    def distance(self, u: Coord, v: Coord) -> int:
        return sum(abs(a - b) for a, b in zip(u, v))

    @property
    def diameter(self) -> int:
        return sum(s - 1 for s in self.shape)

    def level(self, u: Coord) -> int:
        """Depth of ``u`` when the mesh hangs from the all-zero corner."""
        return sum(u)

    def step(self, u: Coord, dim: int, delta: int) -> Coord:
        """Neighbor of ``u`` one step along ``dim`` (delta in {-1, +1})."""
        v = u[:dim] + (u[dim] + delta,) + u[dim + 1 :]
        if not self.contains(v):
            raise ValueError(f"step off the mesh: {u} dim={dim} delta={delta}")
        return v


class Mesh2D(Mesh):
    """The paper's 2-dimensional ``n x n`` mesh (Section 4)."""

    def __init__(self, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        super().__init__((rows, cols))
        self.rows = rows
        self.cols = cols
        self.name = f"mesh2d({rows}x{cols})"
