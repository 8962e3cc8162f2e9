"""Generic route synthesis for arbitrary digraphs.

The constructive half of :mod:`repro.statics.existence`: given any
directed graph, emit a :class:`~repro.core.routing_function.
RoutingAlgorithm` serving every reachable ordered pair whose static QDG
is provably acyclic, using the minimum number of central queue classes
(one on acyclic graphs, two otherwise).

**Acyclic graphs** get the fully-adaptive DAG scheme: a single class
``A`` per node, and from ``(v, A)`` every successor that still reaches
the destination is allowed.  The QDG is a subgraph of the (acyclic)
input, so it is acyclic.

**Cyclic graphs** get the two-class hub scheme.  Per strongly connected
component ``S`` pick a hub ``r(S)`` (smallest node by ``repr``):

* class-``A`` queues form a BFS in-tree toward ``r(S)`` over
  intra-component edges;
* an internal switch at the hub moves messages from ``(r, A)`` to
  ``(r, B)``;
* class-``B`` queues form a BFS out-tree from ``r(S)``; a message
  bound for a local target follows it to the target, one bound for
  another component follows it to the chosen crossing edge
  ``(x, y)`` and drops back to class ``A`` at ``y``;
* crossings follow a shortest path in the condensation, whose edges
  strictly advance the condensation's topological order.

Ranking queues by ``(component topological index, class, tree depth)``
strictly increases along every hop, so the QDG is acyclic by
construction — and ``verify_algorithm`` re-checks the instance rather
than trusting the argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Iterable

from ..core.queues import QueueId, deliver
from ..core.routing_function import RoutingAlgorithm
from ..topology.base import Topology
from ..topology.graph import DirectedGraph

if TYPE_CHECKING:
    import networkx as nx

KIND_A = "A"
KIND_B = "B"


def _bfs_depth(
    start: Hashable, succ: dict[Hashable, list[Hashable]]
) -> dict[Hashable, int]:
    depth = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v not in depth:
                    depth[v] = d
                    nxt.append(v)
        frontier = nxt
    return depth


class SynthesizedRouting(RoutingAlgorithm):
    """Deadlock-free routing synthesized for an arbitrary digraph."""

    is_minimal = False
    is_fully_adaptive = False

    def __init__(self, topology: DirectedGraph):
        import networkx as nx

        super().__init__(topology)
        self.name = f"synthesized({topology.name})"
        nodes = list(topology.nodes())
        succ = {u: list(topology.neighbors(u)) for u in nodes}
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        for u in nodes:
            for v in succ[u]:
                g.add_edge(u, v)
        self.acyclic = nx.is_directed_acyclic_graph(g)
        self._kinds = (KIND_A,) if self.acyclic else (KIND_A, KIND_B)
        if self.acyclic:
            return

        # -- strongly connected components, deterministic ids ----------
        comps = sorted(
            (sorted(c, key=repr) for c in nx.strongly_connected_components(g)),
            key=lambda c: repr(c[0]),
        )
        self._scc_of: dict[Hashable, int] = {}
        for i, comp in enumerate(comps):
            for v in comp:
                self._scc_of[v] = i
        self._hub = {i: comp[0] for i, comp in enumerate(comps)}

        # -- per-component in-tree (toward hub) and out-tree (from hub)
        self._up_next: dict[Hashable, Hashable] = {}
        self._down_parent: dict[Hashable, Hashable] = {}
        for i, comp in enumerate(comps):
            members = set(comp)
            hub = self._hub[i]
            fwd = {u: [v for v in succ[u] if v in members] for u in comp}
            rev = {u: [] for u in comp}
            for u in comp:
                for v in fwd[u]:
                    rev[v].append(u)
            to_hub = _bfs_depth(hub, rev)
            from_hub = _bfs_depth(hub, fwd)
            for v in comp:
                if v == hub:
                    continue
                self._up_next[v] = min(
                    (
                        w
                        for w in fwd[v]
                        if to_hub.get(w, -2) == to_hub[v] - 1
                    ),
                    key=repr,
                )
                self._down_parent[v] = min(
                    (
                        w
                        for w in rev[v]
                        if from_hub.get(w, -2) == from_hub[v] - 1
                    ),
                    key=repr,
                )

        # -- condensation: next component + crossing edge per target ---
        cedges: dict[tuple[int, int], tuple[Hashable, Hashable]] = {}
        for u in nodes:
            for v in succ[u]:
                a, b = self._scc_of[u], self._scc_of[v]
                if a == b:
                    continue
                key = (a, b)
                if key not in cedges or repr((u, v)) < repr(cedges[key]):
                    cedges[key] = (u, v)
        csucc: dict[int, list[int]] = {i: [] for i in range(len(comps))}
        crev: dict[int, list[int]] = {i: [] for i in range(len(comps))}
        for a, b in sorted(cedges):
            csucc[a].append(b)
            crev[b].append(a)
        #: Per target component: next component on a shortest
        #: condensation path from each component that reaches it.
        self._next_scc: dict[int, dict[int, int]] = {}
        for tgt in range(len(comps)):
            dist = _bfs_depth(tgt, crev)
            nxt = {}
            for a in dist:
                if a == tgt:
                    continue
                nxt[a] = min(
                    b for b in csucc[a] if dist.get(b, -2) == dist[a] - 1
                )
            self._next_scc[tgt] = nxt
        self._cross = cedges
        #: Per-target memo of the out-tree step: target -> {node: next}.
        self._down_next: dict[Hashable, dict[Hashable, Hashable]] = {}

    # -- queue structure ----------------------------------------------
    def central_queue_kinds(self, node: Hashable) -> tuple[str, ...]:
        return self._kinds

    # -- helpers -------------------------------------------------------
    def _down_step(self, x: Hashable) -> dict[Hashable, Hashable]:
        """``node -> next node`` along the out-tree path hub -> x."""
        steps = self._down_next.get(x)
        if steps is None:
            path = [x]
            while path[-1] in self._down_parent:
                path.append(self._down_parent[path[-1]])
            path.reverse()  # hub, ..., x
            steps = {
                path[i]: path[i + 1] for i in range(len(path) - 1)
            }
            self._down_next[x] = steps
        return steps

    def _local_target(self, sv: int, dst: Hashable) -> Hashable:
        """Where class-B traffic in component ``sv`` is headed: the
        destination itself, or the crossing-edge source toward it."""
        st = self._scc_of[dst]
        if sv == st:
            return dst
        nxt = self._next_scc[st][sv]
        return self._cross[(sv, nxt)][0]

    # -- the routing function -----------------------------------------
    def injection_targets(
        self, src: Hashable, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        topo: DirectedGraph = self.topology
        if not topo.reachable(src, dst):
            return frozenset()
        return frozenset({QueueId(src, KIND_A)})

    def static_hops(
        self, q: QueueId, dst: Hashable, state: Any = None
    ) -> frozenset[QueueId]:
        v = q.node
        if v == dst:
            return frozenset({deliver(dst)})
        topo: DirectedGraph = self.topology
        if self.acyclic:
            return frozenset(
                QueueId(w, KIND_A)
                for w in topo.neighbors(v)
                if topo.reachable(w, dst)
            )
        sv = self._scc_of[v]
        if q.kind == KIND_A:
            if v == self._hub[sv]:
                return frozenset({QueueId(v, KIND_B)})
            return frozenset({QueueId(self._up_next[v], KIND_A)})
        # class B: ride the out-tree to the local target, then cross.
        x = self._local_target(sv, dst)
        if v == x:
            nxt = self._next_scc[self._scc_of[dst]][sv]
            _, y = self._cross[(sv, nxt)]
            return frozenset({QueueId(y, KIND_A)})
        step = self._down_step(x).get(v)
        if step is None:
            # Off the hub -> x out-tree path: unreachable by
            # construction (class B is only entered at the hub).
            return frozenset()
        return frozenset({QueueId(step, KIND_B)})


def synthesize_routing(
    graph: DirectedGraph | Topology | nx.DiGraph | Iterable,
    name: str = "digraph",
) -> SynthesizedRouting:
    """Build a certifiably deadlock-free routing scheme for ``graph``."""
    from .existence import as_directed_graph

    return SynthesizedRouting(as_directed_graph(graph, name=name))
