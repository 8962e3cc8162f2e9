"""Minimal cycle witnesses for deadlock-freedom violations.

A cyclic queue dependency graph proves the *proof obligation* of the
paper's Section-2 theorem is violated, but a QDG cycle alone is not yet
a deadlock you can watch happen: edges whose waiting move is merely one
of several candidates can always be side-stepped by an adaptive
alternative, and packets sitting in their destination's queue drain
into the (unbounded) delivery queue no matter what.

This module therefore distinguishes two strengths of evidence, both
reported as concrete ``(queue, dst, state)`` rows:

``forced-wait``
    A cycle in the *forced-wait graph*: edges ``q -> q'`` such that some
    reachable configuration ``(q, dst, state)`` with ``node(q) != dst``
    has ``q'`` as its **only** candidate next queue, and ``q'`` is a
    bounded central queue.  Fill each queue on the cycle with the
    packet from its row and every packet waits on the next queue's
    occupant — a genuine circular wait, constructively replayable on
    the reference engine (:mod:`repro.statics.replay`).

``static-order``
    A shortest cycle of the static QDG when the forced-wait graph is
    acyclic: it breaks the acyclic-order proof the paper's theorem
    needs (so the algorithm is *not certified*), but adaptivity may
    still dodge the wait at runtime, so the witness is flagged
    non-replayable.

Cycle search runs over dense integer queue ids (reusing
``sim.tables.RoutingTables``' interning for central queues) with the
deterministic :func:`repro.core.qdg.shortest_cycle`, so the same
algorithm instance always yields the same minimal witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable

from ..core.qdg import Exploration, shortest_cycle
from ..core.queues import QueueId
from ..core.routing_function import RoutingAlgorithm

if TYPE_CHECKING:
    import networkx as nx

FORCED_WAIT = "forced-wait"
STATIC_ORDER = "static-order"
ESCAPE_CDG = "escape-cdg"


def fmt_queue(q: Any) -> str:
    """Compact human form of a queue/channel id."""
    if isinstance(q, QueueId):
        return f"{q.kind}@{q.node}"
    return str(q)


@dataclass(frozen=True)
class WitnessRow:
    """One blocked packet of the wait cycle.

    The packet sits in ``queue`` heading for ``dst`` with routing state
    ``state``; its (only, when ``forced``) candidate move is into
    ``next_queue`` — which the next row's packet occupies.
    """

    queue: QueueId
    next_queue: QueueId
    dst: Hashable
    state: Any
    dynamic: bool
    forced: bool

    def to_dict(self) -> dict[str, Any]:
        def qdict(q: Any) -> dict[str, str]:
            if isinstance(q, QueueId):
                return {"node": repr(q.node), "kind": q.kind}
            return {"channel": repr(q)}  # worm-hole ChannelId rows

        return {
            "queue": qdict(self.queue),
            "next_queue": qdict(self.next_queue),
            "dst": repr(self.dst),
            "state": repr(self.state),
            "dynamic": self.dynamic,
            "forced": self.forced,
        }


@dataclass(frozen=True)
class CycleWitness:
    """A minimal wait cycle, row per blocked packet."""

    kind: str
    rows: tuple[WitnessRow, ...]

    @property
    def replayable(self) -> bool:
        """Whether filling the cycle's queues provably deadlocks the
        reference engine (every wait is forced)."""
        return self.kind == FORCED_WAIT and all(r.forced for r in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def describe(self) -> str:
        hops = " -> ".join(
            f"{fmt_queue(r.queue)}[dst={r.dst}]" for r in self.rows
        )
        first = fmt_queue(self.rows[0].queue) if self.rows else "?"
        return f"{len(self.rows)}-cycle ({self.kind}): {hops} -> {first}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "length": len(self.rows),
            "replayable": self.replayable,
            "rows": [r.to_dict() for r in self.rows],
        }


class DenseQueueIndex:
    """Dense integer ids for every queue of one algorithm instance.

    Central queues reuse the interning of
    :class:`repro.sim.tables.RoutingTables` (node-major, kind order as
    declared) so witness ids line up with the vector engine's
    global queue ids; injection and delivery queues extend the id space
    above ``n_queues``.
    """

    def __init__(self, algorithm: RoutingAlgorithm, tables: Any = None):
        if tables is None:
            from ..sim.tables import RoutingTables

            try:
                tables = RoutingTables(algorithm)
            except Exception:
                # Algorithms outside the table engines' capability
                # envelope still get deterministic ids, just not
                # engine-aligned ones.
                tables = None
        self.tables = tables
        if tables is not None:
            central = list(tables.queue_objs)
        else:
            central = sorted(
                (q for q in algorithm.all_queues() if q.is_central),
                key=repr,
            )
        self._fwd: dict[QueueId, int] = {q: i for i, q in enumerate(central)}
        self._rev: list[QueueId] = central

    def id_of(self, q: QueueId) -> int:
        i = self._fwd.get(q)
        if i is None:
            i = len(self._rev)
            self._fwd[q] = i
            self._rev.append(q)
        return i

    def queue(self, i: int) -> QueueId:
        return self._rev[i]


def _sorted_configs(exp: Exploration):
    """Deterministic iteration over reachable configurations.

    ``Exploration`` keeps configurations in discovery order, which
    depends on the order of the explored sources; sorting by ``repr``
    picks the same witness however the exploration was run.
    """
    for dst in sorted(exp.configurations, key=repr):
        for q, st in sorted(exp.configurations[dst], key=repr):
            yield dst, q, st


def _candidates(
    algorithm: RoutingAlgorithm, q: QueueId, dst: Hashable, st: Any
) -> tuple[frozenset[QueueId], frozenset[QueueId]]:
    """(static, dynamic-only) candidate next queues, self-hops dropped."""
    static = frozenset(
        q2 for q2 in algorithm.static_hops(q, dst, st) if q2 != q
    )
    dyn = (
        frozenset(
            q2 for q2 in algorithm.dynamic_hops(q, dst, st) if q2 != q
        )
        - static
    )
    return static, dyn


def forced_wait_graph(
    algorithm: RoutingAlgorithm,
    exploration: Exploration,
    index: DenseQueueIndex,
) -> tuple[nx.DiGraph, dict[tuple[int, int], WitnessRow]]:
    """The forced-wait graph over dense queue ids, plus one realizing
    row per edge (first in deterministic order)."""
    import networkx as nx

    g = nx.DiGraph()
    labels: dict[tuple[int, int], WitnessRow] = {}
    for dst, q, st in _sorted_configs(exploration):
        if not q.is_central or q.node == dst:
            continue
        static, dyn = _candidates(algorithm, q, dst, st)
        hops = static | dyn
        if len(hops) != 1:
            continue
        (q2,) = hops
        if not q2.is_central:
            continue
        e = (index.id_of(q), index.id_of(q2))
        g.add_edge(*e)
        if e not in labels:
            labels[e] = WitnessRow(
                queue=q,
                next_queue=q2,
                dst=dst,
                state=st,
                dynamic=q2 in dyn,
                forced=True,
            )
    return g, labels


def _static_order_rows(
    algorithm: RoutingAlgorithm,
    exploration: Exploration,
    index: DenseQueueIndex,
    cycle: list[tuple[int, int]],
) -> tuple[WitnessRow, ...]:
    """Label a static-QDG cycle with realizing ``(dst, state)`` rows."""
    rows = []
    for a, b in cycle:
        q1, q2 = index.queue(a), index.queue(b)
        row = None
        for dst, q, st in _sorted_configs(exploration):
            if q != q1:
                continue
            static, dyn = _candidates(algorithm, q, dst, st)
            if q2 not in static:
                continue
            forced = (
                q.is_central
                and q2.is_central
                and q.node != dst
                and len(static | dyn) == 1
            )
            row = WitnessRow(
                queue=q1,
                next_queue=q2,
                dst=dst,
                state=st,
                dynamic=False,
                forced=forced,
            )
            break
        if row is None:  # pragma: no cover - every QDG edge is explored
            row = WitnessRow(q1, q2, None, None, False, False)
        rows.append(row)
    return tuple(rows)


def cycle_witness(
    algorithm: RoutingAlgorithm,
    exploration: Exploration,
    index: DenseQueueIndex | None = None,
) -> CycleWitness | None:
    """The strongest minimal cycle witness available, or ``None``.

    Prefers a shortest forced-wait cycle (replayable); falls back to a
    shortest static-QDG cycle (order violation only); returns ``None``
    when both graphs are acyclic.
    """
    import networkx as nx

    if index is None:
        index = DenseQueueIndex(algorithm)

    fw, labels = forced_wait_graph(algorithm, exploration, index)
    cyc = shortest_cycle(fw)
    if cyc is not None:
        return CycleWitness(
            kind=FORCED_WAIT, rows=tuple(labels[e] for e in cyc)
        )

    static = nx.DiGraph()
    for u, v in exploration.edges(dynamic=False):
        static.add_edge(index.id_of(u), index.id_of(v))
    cyc = shortest_cycle(static)
    if cyc is not None:
        return CycleWitness(
            kind=STATIC_ORDER,
            rows=_static_order_rows(algorithm, exploration, index, cyc),
        )
    return None


def wormhole_cycle_witness(cdg: nx.DiGraph) -> CycleWitness | None:
    """A minimal cycle of a worm-hole extended escape CDG.

    Rows carry :class:`~repro.wormhole.channels.ChannelId` endpoints in
    the ``queue``/``next_queue`` slots; worm-hole witnesses describe
    held-channel chains, not packet replays, so they are never marked
    replayable.
    """
    cyc = shortest_cycle(cdg)
    if cyc is None:
        return None
    rows = tuple(
        WitnessRow(
            queue=a,
            next_queue=b,
            dst=None,
            state=None,
            dynamic=False,
            forced=False,
        )
        for a, b in cyc
    )
    return CycleWitness(kind=ESCAPE_CDG, rows=rows)
