"""Arbitrary directed graphs as topologies.

The fixed families (hypercube, mesh, torus, ...) have closed-form
structure; :class:`DirectedGraph` accepts *any* digraph — an edge list,
a ``networkx.DiGraph``, or another topology's view — so the existence
check and route synthesizer of :mod:`repro.statics` (Mendlovic–Matias,
PAPERS.md) and the simulation engines can run on irregular or faulted
networks.

Unlike the symmetric families, reachability may be partial: ``distance``
raises for unreachable pairs and ``diameter`` ranges over reachable
ordered pairs only.  Self-loops are dropped on construction (a node
trivially "routes" to itself via its delivery queue; the framework's
``validate()`` forbids self-links).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from .base import Topology

if TYPE_CHECKING:
    import networkx as nx


class DirectedGraph(Topology):
    """A topology wrapping an explicit directed edge set.

    Nodes and neighbor tuples are held in ``repr``-sorted order, so
    iteration (and therefore every downstream engine and analysis) is
    deterministic regardless of node hashing.
    """

    def __init__(
        self,
        edges: Iterable[tuple[Hashable, Hashable]] | nx.DiGraph,
        nodes: Iterable[Hashable] | None = None,
        name: str = "digraph",
    ):
        import networkx as nx

        if isinstance(edges, nx.DiGraph):
            graph_nodes = list(edges.nodes)
            edge_list = list(edges.edges)
        else:
            edge_list = list(edges)
            graph_nodes = []
        node_set = set(graph_nodes)
        node_set.update(nodes or ())
        for u, v in edge_list:
            node_set.add(u)
            node_set.add(v)
        self._nodes: tuple[Hashable, ...] = tuple(
            sorted(node_set, key=repr)
        )
        adj: dict[Hashable, set[Hashable]] = {u: set() for u in self._nodes}
        radj: dict[Hashable, set[Hashable]] = {u: set() for u in self._nodes}
        self._dropped_self_loops = 0
        for u, v in edge_list:
            if u == v:
                self._dropped_self_loops += 1
                continue
            adj[u].add(v)
            radj[v].add(u)
        self._adj = {
            u: tuple(sorted(vs, key=repr)) for u, vs in adj.items()
        }
        self._radj = {
            u: tuple(sorted(vs, key=repr)) for u, vs in radj.items()
        }
        self._index = {
            (u, v): i for u, vs in self._adj.items() for i, v in enumerate(vs)
        }
        self._dist: dict[Hashable, dict[Hashable, int]] = {}
        self.name = (
            f"{name}({len(self._nodes)}n,"
            f"{sum(len(v) for v in self._adj.values())}e)"
        )

    # -- structure -----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def neighbors(self, u: Hashable) -> tuple[Hashable, ...]:
        return self._adj[u]

    def in_neighbors(self, u: Hashable) -> tuple[Hashable, ...]:
        return self._radj[u]

    def link_index(self, u: Hashable, v: Hashable) -> int:
        return self._index[(u, v)]

    # -- metrics -------------------------------------------------------
    def _distances_from(self, u: Hashable) -> dict[Hashable, int]:
        dist = self._dist.get(u)
        if dist is None:
            dist = {u: 0}
            frontier = [u]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for w in frontier:
                    for x in self._adj[w]:
                        if x not in dist:
                            dist[x] = d
                            nxt.append(x)
                frontier = nxt
            self._dist[u] = dist
        return dist

    def distance(self, u: Hashable, v: Hashable) -> int:
        dist = self._distances_from(u)
        if v not in dist:
            raise ValueError(f"{v} unreachable from {u} in {self.name}")
        return dist[v]

    def reachable(self, u: Hashable, v: Hashable) -> bool:
        """Whether a directed path ``u -> v`` exists (``u == v`` counts)."""
        return v in self._distances_from(u)

    @cached_property
    def diameter(self) -> int:
        """Longest shortest path over *reachable* ordered pairs."""
        best = 0
        for u in self._nodes:
            dist = self._distances_from(u)
            if dist:
                best = max(best, max(dist.values()))
        return best
