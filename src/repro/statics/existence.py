"""Existence of deadlock-free routing on arbitrary digraphs.

Mendlovic & Matias 2025 (PAPERS.md) ask, for an *arbitrary* directed
network: does a deadlock-free routing function serving every reachable
ordered pair exist, and with how many buffers per node?  Within this
repo's proof framework (the paper's Section-2 conditions: a total
static routing function with acyclic QDG, plus escape-disciplined
dynamic links) the question has a clean necessary-and-sufficient
answer, and both directions are constructive:

* **1 central queue class per node suffices iff the graph is acyclic.**

  - *If acyclic*: route fully adaptively over the DAG
    (:func:`~repro.statics.synthesis.synthesize_routing` builds the
    scheme); the QDG inherits the graph's acyclicity.
  - *If cyclic*: no single-class scheme can be certified.  Take ``u``,
    ``v`` distinct nodes of a nontrivial strongly connected component.
    Any total routing function must realize paths ``u -> v`` and
    ``v -> u``; their union is a closed walk, so the used-edge set —
    which *is* the single-class QDG — contains a cycle, violating the
    acyclic-order obligation.  :func:`deadlock_free_routing_exists`
    returns a shortest graph cycle as the witness for this lower bound.

* **2 classes always suffice.**  Per strongly connected component pick
  a hub; class-A queues form an in-tree toward the hub, an internal
  switch at the hub moves messages to class B, class-B queues form an
  out-tree from the hub, and inter-component crossings drop from B
  back to A following the condensation's topological order.  Ranking
  queues by ``(component, class, tree depth)`` strictly increases
  along every hop, so the QDG is acyclic; the synthesizer emits this
  scheme and ``verify_algorithm`` machine-checks it.

Hence ``min_classes(G) = 1`` if ``G`` is acyclic, else ``2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from ..core.qdg import shortest_cycle
from ..topology.base import Topology
from ..topology.graph import DirectedGraph

if TYPE_CHECKING:
    import networkx as nx


def as_directed_graph(
    graph: DirectedGraph | Topology | nx.DiGraph | Iterable, name: str = "digraph"
) -> DirectedGraph:
    """Normalize any graph-ish input to a :class:`DirectedGraph`."""
    import networkx as nx

    if isinstance(graph, DirectedGraph):
        return graph
    if isinstance(graph, Topology):
        return DirectedGraph(graph.to_networkx(), name=graph.name)
    if isinstance(graph, nx.DiGraph):
        return DirectedGraph(graph, name=graph.name or name)
    return DirectedGraph(graph, name=name)


@dataclass
class ExistenceReport:
    """Verdict of the existence condition on one digraph."""

    graph: str
    nodes: int
    edges: int
    acyclic: bool
    nontrivial_sccs: int
    #: Minimum central queue classes per node for a certifiable scheme.
    min_classes: int
    #: Number of classes the caller asked about.
    classes: int
    #: Whether a certifiable scheme with ``classes`` classes exists.
    exists: bool
    #: Shortest graph cycle — the witness that one class cannot work.
    cycle: list[tuple[Any, Any]] | None = None
    dropped_self_loops: int = 0

    def summary(self) -> str:
        shape = "acyclic" if self.acyclic else (
            f"cyclic ({self.nontrivial_sccs} nontrivial SCCs)"
        )
        verdict = "exists" if self.exists else "does not exist"
        out = (
            f"{self.graph}: {shape}; deadlock-free routing with "
            f"{self.classes} queue class(es) {verdict} "
            f"(minimum: {self.min_classes})"
        )
        if self.cycle:
            out += "; 1-class obstruction cycle: " + " -> ".join(
                str(u) for u, _v in self.cycle
            ) + f" -> {self.cycle[0][0]}"
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph,
            "nodes": self.nodes,
            "edges": self.edges,
            "acyclic": self.acyclic,
            "nontrivial_sccs": self.nontrivial_sccs,
            "min_classes": self.min_classes,
            "classes": self.classes,
            "exists": self.exists,
            "cycle": [
                [repr(u), repr(v)] for u, v in self.cycle
            ] if self.cycle else None,
            "dropped_self_loops": self.dropped_self_loops,
        }


def deadlock_free_routing_exists(
    graph: DirectedGraph | Topology | nx.DiGraph | Iterable,
    classes: int = 2,
    name: str = "digraph",
) -> ExistenceReport:
    """Decide the existence condition for ``graph`` with ``classes``
    central queue classes per node.

    Self-loops are dropped (a node reaches itself through its delivery
    queue; they carry no routing demand) and counted in the report.
    """
    import networkx as nx

    if classes < 1:
        raise ValueError("classes must be >= 1")
    topo = as_directed_graph(graph, name=name)
    g = nx.DiGraph()
    g.add_nodes_from(topo.nodes())
    g.add_edges_from(topo.links())
    acyclic = nx.is_directed_acyclic_graph(g)
    nontrivial = sum(
        1 for c in nx.strongly_connected_components(g) if len(c) > 1
    )
    min_classes = 1 if acyclic else 2
    cycle = None if acyclic else shortest_cycle(g)
    return ExistenceReport(
        graph=topo.name,
        nodes=topo.num_nodes,
        edges=sum(len(topo.neighbors(u)) for u in topo.nodes()),
        acyclic=acyclic,
        nontrivial_sccs=nontrivial,
        min_classes=min_classes,
        classes=classes,
        exists=classes >= min_classes,
        cycle=cycle,
        dropped_self_loops=getattr(topo, "_dropped_self_loops", 0),
    )
