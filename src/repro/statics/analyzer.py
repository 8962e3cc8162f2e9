"""Whole-network static deadlock-freedom analysis.

One entry point per routing model:

* :func:`analyze_algorithm` — packet (store-and-forward) schemes: one
  shared exploration feeds the Section-2 verifier
  (:func:`repro.core.verification.verify_algorithm`), the dense-id
  lowering of :class:`repro.sim.tables.RoutingTables`, the QDG
  statistics, and — on failure — the minimal cycle witness search.
* :func:`analyze_wormhole` — worm-hole schemes via the extended escape
  channel-dependency graph.

Both return a :class:`StaticAnalysis`, the unit the ``repro lint`` CLI
sweeps and serializes (:mod:`repro.statics.report`).  Not a single
simulation cycle runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.qdg import build_qdg, explore, qdg_stats
from ..core.routing_function import RoutingAlgorithm
from ..core.verification import VerificationReport, verify_algorithm
from ..wormhole.routing import WormholeScheme
from ..wormhole.verification import (
    WormholeReport,
    extended_escape_cdg,
)
from .witness import CycleWitness, DenseQueueIndex, cycle_witness, wormhole_cycle_witness

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class StaticAnalysis:
    """Everything the analyzer proved (or refuted) about one instance."""

    name: str
    model: str  #: "packet" | "wormhole"
    topology: str
    certified: bool
    report: VerificationReport | WormholeReport
    witnesses: list[CycleWitness] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        tag = "CERTIFIED" if self.certified else "NOT DEADLOCK-FREE"
        out = f"[{tag}] {self.report.summary()}"
        for w in self.witnesses:
            out += f"\n    witness: {w.describe()}"
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "model": self.model,
            "topology": self.topology,
            "certified": self.certified,
            "summary": self.report.summary(),
            "errors": list(self.report.errors),
            "error_total": getattr(
                self.report, "error_total", len(self.report.errors)
            ),
            "witnesses": [w.to_dict() for w in self.witnesses],
            "stats": dict(self.stats),
        }


def analyze_algorithm(
    algorithm: RoutingAlgorithm,
    check_minimal: bool = False,
    check_fully_adaptive: bool = False,
) -> StaticAnalysis:
    """Statically analyze one packet-routing instance.

    Certification means every Section-2 condition holds on the complete
    queue dependency graph; refutation attaches the strongest minimal
    cycle witness available (forced-wait if one exists, else a shortest
    static-order cycle).
    """
    exp = explore(algorithm)
    index = DenseQueueIndex(algorithm)
    report = verify_algorithm(
        algorithm,
        check_minimal=check_minimal,
        check_fully_adaptive=check_fully_adaptive,
        exploration=exp,
    )
    witnesses = list(report.witnesses)
    if not report.deadlock_free and not witnesses:
        # Failure without a static-order cycle (dead ends, escape or
        # level violations): a forced-wait cycle may still exist.
        wit = cycle_witness(algorithm, exp, index)
        if wit is not None:
            witnesses.append(wit)

    qdg = build_qdg(algorithm, include_dynamic=True, exploration=exp)
    stats = qdg_stats(qdg)
    stats["configurations"] = sum(
        len(c) for c in exp.configurations.values()
    )
    if index.tables is not None:
        stats["central_queues"] = index.tables.n_queues
        stats["link_buffer_slots"] = len(index.tables.slot_src)

    return StaticAnalysis(
        name=algorithm.name,
        model="packet",
        topology=algorithm.topology.name,
        certified=report.deadlock_free,
        report=report,
        witnesses=witnesses,
        stats=stats,
    )


def analyze_wormhole(scheme: WormholeScheme) -> StaticAnalysis:
    """Statically analyze one worm-hole scheme via its channel graph.

    Mirrors :func:`repro.wormhole.verification.verify_wormhole_scheme`
    but keeps the extended escape CDG, so a cyclic one yields a minimal
    channel-cycle witness instead of an opaque error string.
    """
    import networkx as nx

    report = WormholeReport(scheme=scheme.name)
    cdg = extended_escape_cdg(scheme, report=report)
    witnesses: list[CycleWitness] = []
    if not nx.is_directed_acyclic_graph(cdg):
        wit = wormhole_cycle_witness(cdg)
        assert wit is not None
        witnesses.append(wit)
        report.fail(
            "escape_cdg_acyclic",
            "extended escape CDG cycle: " + wit.describe(),
        )
    stats = {
        "escape_channels": cdg.number_of_nodes(),
        "escape_dependencies": cdg.number_of_edges(),
    }
    return StaticAnalysis(
        name=scheme.name,
        model="wormhole",
        topology=scheme.topology.name,
        certified=report.deadlock_free,
        report=report,
        witnesses=witnesses,
        stats=stats,
    )
