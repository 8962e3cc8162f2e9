"""Queue dependency graphs (paper, Section 2).

The *queue dependency graph* (QDG) of a routing function has one vertex
per queue and an edge ``q -> q'`` whenever some message, on some route
actually built by the function, may move from ``q`` to ``q'``.  If the
QDG of the *static* (underlying) routing function is acyclic, greedy
routing over it is deadlock free; the extended function adds *dynamic*
edges that may close cycles but are harmless because every message
always retains a static escape path.

This module builds QDGs by exhaustive exploration of reachable
``(queue, routing-state)`` configurations for every source/destination
pair, so state-dependent algorithms (shuffle-exchange, torus) are
handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable

from .queues import QueueId, deliver, inject
from .routing_function import RoutingAlgorithm

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Transition:
    """One explored queue-to-queue move for a concrete destination."""

    q_from: QueueId
    q_to: QueueId
    dst: Hashable
    dynamic: bool


@dataclass
class Exploration:
    """Everything reachable under a routing function.

    Transitions and configurations are dicts used as ordered sets, in
    discovery order, so checks that walk them report in the same order
    in every process (set order follows string hashes and the
    address-based hash of ``None``).

    Attributes
    ----------
    transitions:
        Every distinct ``(q_from, q_to, dst, dynamic)`` move.
    configurations:
        Reachable ``(queue, state)`` pairs per destination.
    """

    transitions: dict[Transition, None] = field(default_factory=dict)
    configurations: dict[Hashable, dict[tuple[QueueId, Any], None]] = field(
        default_factory=dict
    )

    def edges(self, dynamic: bool | None = None) -> dict[tuple, None]:
        """Distinct QDG edges (an ordered set), optionally by link type.

        An edge is *static* if any transition over it is static; the
        dynamic-only edge set is what ``A_d`` denotes in the paper.
        """
        static = dict.fromkeys(
            (t.q_from, t.q_to) for t in self.transitions if not t.dynamic
        )
        dyn = dict.fromkeys(
            (t.q_from, t.q_to)
            for t in self.transitions
            if t.dynamic and (t.q_from, t.q_to) not in static
        )
        if dynamic is None:
            return static | dyn
        return dyn if dynamic else static


def _freeze_state(state: Any) -> Any:
    """Hashable view of a routing state (states must be hashable or dict)."""
    if isinstance(state, dict):
        return tuple(sorted(state.items()))
    return state


def explore(
    algorithm: RoutingAlgorithm,
    sources: Iterable[Hashable] | None = None,
    destinations: Iterable[Hashable] | None = None,
) -> Exploration:
    """Enumerate all reachable configurations and transitions.

    For every ``(src, dst)`` pair, performs a BFS over
    ``(queue, state)`` configurations starting from the injection
    queue, following both static and dynamic hops.
    """
    topo = algorithm.topology
    srcs = list(sources) if sources is not None else list(topo.nodes())
    dsts = list(destinations) if destinations is not None else list(topo.nodes())

    out = Exploration()
    for dst in dsts:
        seen: dict[tuple[QueueId, Any], None] = {}
        frontier: list[tuple[QueueId, Any]] = []
        d_q = deliver(dst)
        for src in srcs:
            if src == dst:
                continue
            state0 = algorithm.initial_state(src, dst)
            i_q = inject(src)
            for q in algorithm.injection_targets(src, dst, state0):
                out.transitions[Transition(i_q, q, dst, False)] = None
                st = algorithm.update_state(state0, i_q, q)
                key = (q, _freeze_state(st))
                if key not in seen:
                    seen[key] = None
                    frontier.append((q, st))
        while frontier:
            q, st = frontier.pop()
            if q == d_q:
                continue
            for dyn, hops in (
                (False, algorithm.static_hops(q, dst, st)),
                (True, algorithm.dynamic_hops(q, dst, st)),
            ):
                for q2 in hops:
                    if q2 != q:
                        # Self-hops (degenerate self-shuffles) only
                        # advance routing state; they hold no new
                        # resource, so they are not QDG dependencies.
                        out.transitions[Transition(q, q2, dst, dyn)] = None
                    st2 = algorithm.update_state(st, q, q2)
                    key = (q2, _freeze_state(st2))
                    if key not in seen:
                        seen[key] = None
                        frontier.append((q2, st2))
        out.configurations[dst] = seen
    return out


def build_qdg(
    algorithm: RoutingAlgorithm,
    include_dynamic: bool = True,
    sources: Iterable[Hashable] | None = None,
    destinations: Iterable[Hashable] | None = None,
    exploration: Exploration | None = None,
) -> nx.DiGraph:
    """Build the QDG as a ``networkx.DiGraph``.

    Edges carry a boolean ``dynamic`` attribute.  With
    ``include_dynamic=False`` the result is the underlying graph ``D``
    (a DAG for a correct algorithm); with ``True`` it is the extended
    graph ``D~``.
    """
    import networkx as nx

    exp = exploration or explore(algorithm, sources, destinations)
    g = nx.DiGraph(name=f"QDG({algorithm.name})")
    g.add_nodes_from(algorithm.all_queues())
    for u, v in exp.edges(dynamic=False):
        g.add_edge(u, v, dynamic=False)
    if include_dynamic:
        for u, v in exp.edges(dynamic=True):
            g.add_edge(u, v, dynamic=True)
    return g


def is_acyclic(qdg: nx.DiGraph) -> bool:
    """Whether a QDG is a DAG."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(qdg)


def find_cycle(qdg: nx.DiGraph) -> list[tuple[QueueId, QueueId]] | None:
    """One directed cycle of the QDG, or ``None`` if acyclic."""
    import networkx as nx

    try:
        return nx.find_cycle(qdg)
    except nx.NetworkXNoCycle:
        return None


def shortest_cycle(g: nx.DiGraph) -> list[tuple[Any, Any]] | None:
    """A minimum-length directed cycle of ``g``, or ``None`` if acyclic.

    Deterministic regardless of node hashing: nodes are scanned (and
    BFS frontiers expanded) in ``repr``-sorted order, so the same graph
    always yields the same cycle — the property the static analyzer's
    *minimal cycle witnesses* rely on (``repro.statics``).  Handles the
    adversarial shapes exactly: a self-loop is a length-1 cycle (and
    always minimal), parallel edges collapse in a ``DiGraph`` (an
    anti-parallel pair ``u -> v -> u`` is a length-2 cycle), single-node
    and disconnected graphs are searched component-free — a cycle is
    found wherever it lives.

    Returns the cycle as an edge list ``[(v0, v1), ..., (vk, v0)]``
    (``[(v, v)]`` for a self-loop), matching :func:`find_cycle`.
    """
    order = sorted(g.nodes, key=repr)
    for v in order:
        if g.has_edge(v, v):
            return [(v, v)]
    succ = {v: sorted(g.successors(v), key=repr) for v in order}
    best: list | None = None
    for start in order:
        # BFS for the shortest path back to ``start``.
        parent: dict = {}
        frontier = [start]
        depth = 0
        found = None
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best):
                break  # cannot improve on the incumbent
            nxt = []
            for u in frontier:
                for w in succ[u]:
                    if w == start:
                        found = u
                        break
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent.get(path[-1], start))
        path.reverse()  # start, ..., found
        cycle = [
            (path[i], path[i + 1]) for i in range(len(path) - 1)
        ] + [(found, start)]
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def queue_levels(static_qdg: nx.DiGraph) -> dict[QueueId, int]:
    """The paper's ``Level``: longest static path from any injection queue.

    Queues unreachable from every injection queue get level 0.
    Requires an acyclic graph.
    """
    import networkx as nx

    if not nx.is_directed_acyclic_graph(static_qdg):
        raise ValueError("Level is only defined on an acyclic QDG")
    level: dict[QueueId, int] = {}
    for q in nx.topological_sort(static_qdg):
        preds = [
            level[p] + 1
            for p in static_qdg.predecessors(q)
            if p in level
        ]
        if q.is_injection:
            level[q] = max(preds, default=0)
        elif preds:
            level[q] = max(preds)
        else:
            level[q] = 0
    return level


def qdg_stats(qdg: nx.DiGraph) -> dict[str, int]:
    """Summary counters used by the figure benchmarks."""
    n_static = sum(1 for *_e, d in qdg.edges(data="dynamic") if not d)
    n_dynamic = qdg.number_of_edges() - n_static
    return {
        "queues": qdg.number_of_nodes(),
        "static_edges": n_static,
        "dynamic_edges": n_dynamic,
    }
