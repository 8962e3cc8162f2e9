"""Machine verification of the Section-2 deadlock-freedom conditions.

The paper's central theorem is that greedy routing over an extended
routing function ``R~`` is deadlock free provided

1. every hop of ``R~`` lands at most one physical hop away,
2. the underlying static function ``R`` is a total routing function
   whose QDG is acyclic (so every message always holds a static path
   to its destination with no dead ends), and
3. every dynamic hop lands on a queue where ``R`` is non-empty
   (the message regains a static escape path immediately).

Additionally the paper requires ``Level(q) >= Level(q')`` for every
dynamic link ``(q, q')`` where ``Level`` is the longest static path
from the injection queues (noting this costs no generality).

:func:`verify_algorithm` checks all of these *exhaustively* on a given
instance, plus (optionally) minimality and full adaptivity, and
returns a structured report.  This is the tool the test-suite uses to
certify Theorems 1-3 and our torus/shuffle-exchange reconstructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from .paths import is_fully_adaptive_for_pair, is_minimal_for_pair
from .qdg import Exploration, build_qdg, explore, queue_levels
from .queues import QueueId, deliver
from .routing_function import RoutingAlgorithm


@dataclass
class VerificationReport:
    """Outcome of verifying one routing algorithm instance."""

    algorithm: str
    adjacency_ok: bool = True
    static_acyclic: bool = True
    no_dead_ends: bool = True
    dynamic_escape_ok: bool = True
    level_monotone: bool = True
    static_terminates: bool = True
    minimal: bool | None = None
    fully_adaptive: bool | None = None
    errors: list[str] = field(default_factory=list)
    #: True number of failures observed, including ones dropped from
    #: ``errors`` once the per-report cap was hit.
    error_total: int = 0
    #: Minimal cycle witnesses (``repro.statics.witness.CycleWitness``)
    #: attached when the static QDG is cyclic.
    witnesses: list[Any] = field(default_factory=list)

    @property
    def deadlock_free(self) -> bool:
        """All Section-2 conditions hold on this instance."""
        return (
            self.adjacency_ok
            and self.static_acyclic
            and self.no_dead_ends
            and self.dynamic_escape_ok
            and self.level_monotone
            and self.static_terminates
        )

    @property
    def ok(self) -> bool:
        extras = [
            v for v in (self.minimal, self.fully_adaptive) if v is not None
        ]
        return self.deadlock_free and all(extras)

    def fail(self, attr: str, msg: str, cap: int = 20) -> None:
        setattr(self, attr, False)
        self.error_total += 1
        if len(self.errors) < cap:
            self.errors.append(msg)

    def summary(self) -> str:
        flags = {
            "adjacency": self.adjacency_ok,
            "static-DAG": self.static_acyclic,
            "no-dead-ends": self.no_dead_ends,
            "dynamic-escape": self.dynamic_escape_ok,
            "level-monotone": self.level_monotone,
            "static-terminates": self.static_terminates,
        }
        if self.minimal is not None:
            flags["minimal"] = self.minimal
        if self.fully_adaptive is not None:
            flags["fully-adaptive"] = self.fully_adaptive
        body = ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in flags.items()
        )
        out = f"{self.algorithm}: {body}"
        if self.error_total > len(self.errors):
            # The cap in :meth:`fail` dropped counterexamples; say so
            # instead of letting the report look exhaustive.
            out += (
                f" [truncated: showing {len(self.errors)} of "
                f"{self.error_total} counterexamples]"
            )
        return out


def _check_adjacency(
    algorithm: RoutingAlgorithm, exp: Exploration, report: VerificationReport
) -> None:
    topo = algorithm.topology
    for t in exp.transitions:
        u, v = t.q_from.node, t.q_to.node
        if u == v:
            continue
        if not topo.is_adjacent(u, v):
            report.fail(
                "adjacency_ok",
                f"hop {t.q_from} -> {t.q_to} spans non-adjacent nodes",
            )
        if t.q_from.is_delivery:
            report.fail("adjacency_ok", f"hop out of delivery queue {t.q_from}")
        if t.q_to.is_injection:
            report.fail("adjacency_ok", f"hop into injection queue {t.q_to}")


def _check_static_structure(
    algorithm: RoutingAlgorithm, exp: Exploration, report: VerificationReport
) -> dict[QueueId, int] | None:
    import networkx as nx

    static = build_qdg(algorithm, include_dynamic=False, exploration=exp)
    if not nx.is_directed_acyclic_graph(static):
        # The witness builder is the single source of cycle evidence:
        # verify_algorithm, the static analyzer, and verify_under_faults
        # all surface the same minimal ``(queue, dst, state)`` rows.
        from ..statics.witness import cycle_witness

        wit = cycle_witness(algorithm, exp)
        if wit is not None:
            report.witnesses.append(wit)
            report.fail(
                "static_acyclic", "static QDG has a cycle: " + wit.describe()
            )
        else:  # pragma: no cover - cyclic QDG always yields a witness
            cyc = nx.find_cycle(static)
            report.fail(
                "static_acyclic",
                "static QDG has a cycle: "
                + " -> ".join(str(e[0]) for e in cyc),
            )
        return None
    return queue_levels(static)


def _check_dead_ends_and_escape(
    algorithm: RoutingAlgorithm, exp: Exploration, report: VerificationReport
) -> None:
    # Every reachable central-queue configuration must offer at least
    # one *static* hop (dead-end freedom / escape-path existence).
    for dst, configs in exp.configurations.items():
        d_q = deliver(dst)
        for q, st in configs:
            if q == d_q:
                continue
            if not algorithm.static_hops(q, dst, st):
                report.fail(
                    "no_dead_ends",
                    f"reachable {q} (dst={dst}, state={st}) has no static hop",
                )


def _check_static_termination(
    algorithm: RoutingAlgorithm, exp: Exploration, report: VerificationReport
) -> None:
    import networkx as nx

    # Following only static hops from any reachable configuration must
    # reach the delivery queue without revisiting a configuration
    # (condition 2 of a total routing function).  We check acyclicity
    # of the per-destination static configuration graph and that every
    # sink is the delivery queue.
    for dst, configs in exp.configurations.items():
        d_q = deliver(dst)
        g = nx.DiGraph()
        keyed = {}
        for q, st in configs:
            key = (q, repr(st))
            keyed[key] = (q, st)
            g.add_node(key)
        for q, st in configs:
            if q == d_q:
                continue
            for q2 in algorithm.static_hops(q, dst, st):
                st2 = algorithm.update_state(st, q, q2)
                g.add_edge((q, repr(st)), (q2, repr(st2)))
        if not nx.is_directed_acyclic_graph(g):
            report.fail(
                "static_terminates",
                f"static routing for dst={dst} can revisit a configuration",
            )
            continue
        for key in g.nodes:
            if g.out_degree(key) == 0 and key[0] != d_q:
                report.fail(
                    "static_terminates",
                    f"static route for dst={dst} stalls at {key[0]}",
                )


def _check_dynamic_conditions(
    algorithm: RoutingAlgorithm,
    exp: Exploration,
    levels: dict[QueueId, int] | None,
    report: VerificationReport,
) -> None:
    for dst, configs in exp.configurations.items():
        for q, st in configs:
            if q.is_delivery:
                continue
            for q2 in algorithm.dynamic_hops(q, dst, st):
                st2 = algorithm.update_state(st, q, q2)
                # Condition 3: the landing queue must offer a static hop.
                if not q2.is_delivery and not algorithm.static_hops(
                    q2, dst, st2
                ):
                    report.fail(
                        "dynamic_escape_ok",
                        f"dynamic hop {q} -> {q2} (dst={dst}) lands with "
                        "no static continuation",
                    )
                if q2.is_injection or q.is_delivery:
                    report.fail(
                        "dynamic_escape_ok",
                        f"dynamic hop {q} -> {q2} touches inject/deliver",
                    )
                # Level monotonicity of dynamic links.
                if levels is not None:
                    if levels.get(q, 0) < levels.get(q2, 0):
                        report.fail(
                            "level_monotone",
                            f"dynamic link {q} (L={levels.get(q, 0)}) -> "
                            f"{q2} (L={levels.get(q2, 0)}) ascends levels",
                        )


def verify_algorithm(
    algorithm: RoutingAlgorithm,
    sources: Iterable[Hashable] | None = None,
    destinations: Iterable[Hashable] | None = None,
    check_minimal: bool | None = None,
    check_fully_adaptive: bool | None = None,
    pair_limit: int | None = None,
    strict_levels: bool | None = None,
    exploration: Exploration | None = None,
) -> VerificationReport:
    """Exhaustively verify one algorithm instance.

    ``check_minimal`` / ``check_fully_adaptive`` default to the
    algorithm's declared claims; pass ``False`` to skip the (more
    expensive) path enumeration.  ``pair_limit`` caps the number of
    (src, dst) pairs used for path-level checks.

    ``strict_levels`` controls the dynamic-link Level-monotonicity
    check.  ``Level`` is the longest static path from *any* injection
    queue, so it is only meaningful over the full source set; when
    ``sources`` is restricted the check defaults to off (a partial
    exploration systematically underestimates levels).

    ``exploration`` lets callers that already hold the reachable-
    configuration enumeration (the static analyzer) share it instead of
    re-exploring; it must match ``sources``/``destinations``.
    """
    report = VerificationReport(algorithm=algorithm.name)
    exp = exploration or explore(algorithm, sources, destinations)
    if strict_levels is None:
        strict_levels = sources is None

    _check_adjacency(algorithm, exp, report)
    levels = _check_static_structure(algorithm, exp, report)
    _check_dead_ends_and_escape(algorithm, exp, report)
    _check_static_termination(algorithm, exp, report)
    _check_dynamic_conditions(
        algorithm, exp, levels if strict_levels else None, report
    )

    do_min = algorithm.is_minimal if check_minimal is None else check_minimal
    do_fa = (
        algorithm.is_fully_adaptive
        if check_fully_adaptive is None
        else check_fully_adaptive
    )
    if do_min or do_fa:
        topo = algorithm.topology
        srcs = list(sources) if sources is not None else list(topo.nodes())
        dsts = (
            list(destinations)
            if destinations is not None
            else list(topo.nodes())
        )
        pairs = [(s, d) for s in srcs for d in dsts if s != d]
        if pair_limit is not None:
            pairs = pairs[:pair_limit]
        if do_min:
            report.minimal = True
            for s, d in pairs:
                if not is_minimal_for_pair(algorithm, s, d):
                    report.fail("minimal", f"non-minimal route {s} -> {d}")
        if do_fa:
            report.fully_adaptive = True
            for s, d in pairs:
                if not is_fully_adaptive_for_pair(algorithm, s, d):
                    report.fail(
                        "fully_adaptive",
                        f"not all minimal paths realizable for {s} -> {d}",
                    )
    return report
