"""On-demand state snapshots of a running simulator.

These are pull-style companions to the push-style event log: given a
live reference engine (its ``central`` / ``inj`` / link-buffer
state), they answer "what does the network
look like *right now*?".

* :func:`queue_occupancy_snapshot` — occupancy of every central queue;
* :func:`wait_for_graph` — the directed wait-for graph over central
  queues (``q -> q'`` when a packet in ``q`` wants ``q'`` and ``q'``
  is full), the store-and-forward deadlock witness of the paper's
  Section 2 buffer-graph argument;
* :func:`find_wait_cycle` — a directed cycle in that graph, if any.

The deadlock watchdog (:mod:`repro.faults.watchdog`) delegates its
wait-for-cycle extraction here, so the same snapshot is available to
interactive diagnosis without constructing a watchdog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from ..core.queues import QueueId

if TYPE_CHECKING:
    import networkx as nx


def queue_occupancy_snapshot(sim) -> dict[tuple[Hashable, str], int]:
    """Current occupancy of every central queue, keyed ``(node, kind)``."""
    out: dict[tuple[Hashable, str], int] = {}
    for u in sim.nodes:
        for kind, q in sim.central[u].items():
            out[(u, kind)] = len(q)
    return out


def wait_for_graph(
    sim, dead_nodes: frozenset = frozenset()
) -> nx.DiGraph:
    """Wait-for graph over central queues.

    Edge ``q -> q'`` when some packet at the current head state of
    ``q`` has ``q'`` among its allowed continuations and ``q'`` is
    full.  A directed cycle here is the classic store-and-forward
    deadlock witness.  ``dead_nodes`` (from a live fault set) are
    excluded: their packets are frozen, not waiting.
    """
    import networkx as nx

    alg = sim.algorithm
    cap = sim.central_capacity
    g = nx.DiGraph()
    for u in sim.nodes:
        if u in dead_nodes:
            continue
        for kind, q in sim.central[u].items():
            q_id = QueueId(u, kind)
            for msg in q:
                for q2 in alg.hops(q_id, msg.dst, msg.state):
                    if not q2.is_central or q2 == q_id:
                        continue
                    target = sim.central.get(q2.node, {}).get(q2.kind)
                    if target is not None and len(target) >= cap:
                        g.add_edge(q_id, q2)
    return g


def find_wait_cycle(
    sim, dead_nodes: frozenset = frozenset()
) -> tuple[QueueId, ...] | None:
    """A directed cycle in :func:`wait_for_graph`, or None."""
    import networkx as nx

    g = wait_for_graph(sim, dead_nodes)
    try:
        cyc = nx.find_cycle(g)
    except (nx.NetworkXNoCycle, nx.NetworkXError):
        return None
    return tuple(e[0] for e in cyc)
