"""On-demand state snapshots of a running simulator.

These are pull-style companions to the push-style event log: given a
live simulator of either engine, they answer "what does the network
look like *right now*?".  They read its central queues through the
engine's queue views, in queue-id order: ``queue_keys()``,
``queue_lengths()`` and ``queue_packets(q)``.

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
    return dict(zip(sim.queue_keys(), sim.queue_lengths().tolist()))


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

    hops = sim.algorithm.hops
    cap = sim.central_capacity
    keys = sim.queue_keys()
    lens = sim.queue_lengths().tolist()
    full = {key for key, n in zip(keys, lens) if n >= cap}
    g = nx.DiGraph()
    for q, (u, kind) in enumerate(keys):
        if not lens[q] or u in dead_nodes:
            continue
        q_id = QueueId(u, kind)
        for dst, state in sim.queue_packets(q):
            for q2 in hops(q_id, dst, state):
                if q2 != q_id and q2 in full:
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
