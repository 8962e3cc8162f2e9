"""Topology abstraction.

A topology knows its nodes, its physical links, adjacency, and a
shortest-path distance metric.  Routing algorithms and the simulator
are written against this interface, so the same cycle-level engine
drives hypercubes, meshes, tori, and shuffle-exchange networks.

Links are modeled as *directed* channel pairs: an undirected physical
link between ``u`` and ``v`` contributes the directed links ``(u, v)``
and ``(v, u)``.  Some topologies (the shuffle part of the
shuffle-exchange) contain genuinely one-directional links.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


class Topology(ABC):
    """Abstract interconnection network."""

    #: Human-readable topology name, e.g. ``"hypercube(4)"``.
    name: str

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""

    @abstractmethod
    def nodes(self) -> Iterator[Hashable]:
        """Iterate over all nodes."""

    @abstractmethod
    def neighbors(self, u: Hashable) -> tuple[Hashable, ...]:
        """Nodes reachable from ``u`` by one outgoing physical link."""

    def in_neighbors(self, u: Hashable) -> tuple[Hashable, ...]:
        """Nodes with a physical link *into* ``u``.

        Equal to :meth:`neighbors` for the (symmetric) default.
        """
        return self.neighbors(u)

    def is_adjacent(self, u: Hashable, v: Hashable) -> bool:
        """Whether a directed link ``u -> v`` exists."""
        return v in self.neighbors(u)

    def links(self) -> Iterator[tuple[Hashable, Hashable]]:
        """All directed links ``(u, v)``."""
        for u in self.nodes():
            for v in self.neighbors(u):
                yield (u, v)

    @abstractmethod
    def link_index(self, u: Hashable, v: Hashable) -> int:
        """Service ordering of link ``u -> v`` among ``u``'s outgoing links.

        The simulator fills output buffers "from low to high dimensions"
        (Section 7.1); this index defines that order.
        """

    def link_table(self) -> np.ndarray:
        """Outgoing links as an ``(N, D)`` int array of neighbour ids.

        Row ``u`` is node ``u`` in :meth:`nodes` order; its columns hold
        the neighbour ids (also in :meth:`nodes` order) ascending in
        :meth:`link_index`, and ``-1`` where a column has no link.
        ``D`` is the largest out-degree.  Subclasses with a closed form
        override this loop; any override must keep ``link_index`` order
        within each row.
        """
        nodes = list(self.nodes())
        nid = {u: i for i, u in enumerate(nodes)}
        rows = []
        for u in nodes:
            nbrs = sorted(
                self.neighbors(u), key=lambda v: self.link_index(u, v)
            )
            rows.append([nid[v] for v in nbrs])
        width = max(map(len, rows), default=0)
        table = np.full((len(nodes), width), -1, dtype=np.int64)
        for i, row in enumerate(rows):
            table[i, : len(row)] = row
        return table

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @abstractmethod
    def distance(self, u: Hashable, v: Hashable) -> int:
        """Shortest-path length from ``u`` to ``v`` in physical hops."""

    @cached_property
    def diameter(self) -> int:
        """Maximum shortest-path distance over all ordered node pairs."""
        nodes = list(self.nodes())
        return max(
            self.distance(u, v) for u in nodes for v in nodes if u != v
        )

    # ------------------------------------------------------------------
    # Interop / validation
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Directed-graph view of the physical network."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        g.add_nodes_from(self.nodes())
        g.add_edges_from(self.links())
        return g

    def validate(self) -> None:
        """Cheap internal consistency checks (used by tests).

        Raises ``AssertionError`` on inconsistency between ``neighbors``,
        ``links``, ``link_index`` and ``distance``.
        """
        seen_nodes = set(self.nodes())
        assert len(seen_nodes) == self.num_nodes, "node count mismatch"
        for u in self.nodes():
            nbrs = self.neighbors(u)
            assert len(set(nbrs)) == len(nbrs), f"duplicate neighbor at {u}"
            indices = sorted(self.link_index(u, v) for v in nbrs)
            assert indices == list(range(len(nbrs))), (
                f"link indices at {u} not a contiguous 0..k-1 range: {indices}"
            )
            for v in nbrs:
                assert u != v, f"self-link at {u}"
                assert v in seen_nodes, f"neighbor {v} of {u} not a node"
                assert self.distance(u, v) == 1, f"adjacent {u}->{v} dist != 1"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def bfs_distance(topology: Topology, u: Hashable, v: Hashable) -> int:
    """Generic BFS distance; fallback for topologies without a formula."""
    if u == v:
        return 0
    frontier: Iterable[Hashable] = (u,)
    seen = {u}
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for w in frontier:
            for x in topology.neighbors(w):
                if x == v:
                    return dist
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    raise ValueError(f"{v} unreachable from {u}")
