"""Resilience experiments: how gracefully does adaptivity degrade?

These runs go *beyond* the paper (which proves guarantees for healthy
networks only): we inject seeded link/node faults, route through the
:class:`~repro.faults.adapters.FaultAwareRouting` adapter with the
watchdog armed, and measure

* **delivery ratio** — delivered / generated, plus delivered over the
  packets that were still deliverable (fault sets can cut the graph);
* **undeliverable count** — the watchdog's honest tally of packets no
  routing algorithm could have saved;
* **latency inflation** — ``L_avg`` relative to the healthy baseline;
* **reroute overhead** — mean extra hops versus the healthy minimal
  distance, from traced routes of delivered packets.

See ``docs/RESILIENCE.md`` for the methodology and example tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.routing_function import RoutingAlgorithm, node_path
from ..experiments.parallel import parallel_map
from ..experiments.runner import resolve_probe
from ..routing.hypercube import HypercubeAdaptiveRouting
from ..routing.mesh import Mesh2DAdaptiveRouting
from ..sim.engine import PacketSimulator
from ..sim.injection import InjectionModel, StaticInjection
from ..sim.metrics import SimulationResult
from ..sim.rng import make_rng
from ..sim.traffic import RandomTraffic
from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D
from .adapters import FaultAwareRouting, FaultInjector
from .models import FaultSchedule
from .watchdog import DeadlockDetected, DeadlockReport, DeadlockWatchdog


def make_fault_simulator(
    algorithm: RoutingAlgorithm,
    model: InjectionModel,
    schedule: FaultSchedule,
    watchdog: bool = True,
    detour: bool = True,
    livelock_limit: int | None = 25_000,
    telemetry=None,
    **kwargs,
) -> PacketSimulator:
    """Wire algorithm + injection + fault schedule into one engine.

    Wraps ``algorithm`` in :class:`FaultAwareRouting`, builds the
    reference :class:`PacketSimulator` (the only engine with a generic
    observer loop), and attaches the :class:`FaultInjector` first, then
    (optionally) the :class:`DeadlockWatchdog`, in that order: the
    injector must update the epoch — and get the chance to suppress
    transient stalls — before the watchdog passes judgment.  A
    ``telemetry`` probe (True or a
    :class:`~repro.telemetry.TelemetryProbe`) attaches *last*, so it
    observes each epoch the same cycle the injector installs it.
    """
    adapter = FaultAwareRouting(algorithm, detour=detour)
    sim = PacketSimulator(adapter, model, **kwargs)
    sim.add_observer(FaultInjector(schedule, adapter))
    if watchdog:
        sim.add_observer(DeadlockWatchdog(livelock_limit=livelock_limit))
    probe = resolve_probe(telemetry)
    if probe is not None:
        probe.attach(sim)
    return sim


@dataclass
class ResilienceResult:
    """One degraded run plus its resilience bookkeeping."""

    result: SimulationResult
    schedule: FaultSchedule
    generated: int  #: packets created, including never-injected backlog
    #: Mean extra hops per delivered packet versus the healthy minimal
    #: distance; NaN when the run was not traced.
    reroute_overhead: float = float("nan")

    @property
    def deliverable(self) -> int:
        """Packets the fault set left deliverable (watchdog-certified)."""
        return max(0, self.generated - self.result.undeliverable)

    @property
    def delivered_of_deliverable(self) -> float:
        """Delivery ratio over the packets that *could* be delivered."""
        if self.deliverable == 0:
            return 1.0
        return self.result.delivered / self.deliverable

    def row(self) -> dict:
        out = self.result.row()
        out["generated"] = self.generated
        out["delivered_of_deliverable"] = round(
            self.delivered_of_deliverable, 4
        )
        if self.reroute_overhead == self.reroute_overhead:  # not NaN
            out["reroute_overhead"] = round(self.reroute_overhead, 3)
        out["faults"] = self.schedule.final.describe()
        return out


def run_with_faults(
    algorithm: RoutingAlgorithm,
    model: InjectionModel,
    schedule: FaultSchedule,
    watchdog: bool = True,
    detour: bool = True,
    measure_overhead: bool = False,
    max_cycles: int | None = None,
    telemetry=None,
    **kwargs,
) -> ResilienceResult:
    """Run one degraded simulation and collect resilience metrics.

    ``measure_overhead`` turns on route tracing and computes the mean
    reroute overhead from every delivered packet's actual node path.
    ``telemetry`` attaches a probe; its summary rides
    ``result.telemetry``.
    """
    if measure_overhead:
        kwargs.setdefault("trace", True)
    sim = make_fault_simulator(
        algorithm,
        model,
        schedule,
        watchdog=watchdog,
        detour=detour,
        telemetry=telemetry,
        **kwargs,
    )
    if measure_overhead:
        sim.delivered_messages = []
    result = sim.run(max_cycles=max_cycles)
    overhead = float("nan")
    if measure_overhead and sim.delivered_messages:
        topo = algorithm.topology
        extra = 0
        for msg in sim.delivered_messages:
            hops = len(node_path(msg.hops)) - 1
            extra += hops - topo.distance(msg.src, msg.dst)
        overhead = extra / len(sim.delivered_messages)
    generated = getattr(model, "total", result.injected)
    return ResilienceResult(
        result=result,
        schedule=schedule,
        generated=generated,
        reroute_overhead=overhead,
    )


#: Topology families the degradation sweep knows how to build:
#: key -> (topology factory over a size parameter, algorithm factory).
RESILIENCE_FAMILIES: dict[
    str,
    tuple[Callable[[int], Topology], Callable[[Topology], RoutingAlgorithm]],
] = {
    "hypercube": (lambda s: Hypercube(s), HypercubeAdaptiveRouting),
    "mesh": (lambda s: Mesh2D(s), Mesh2DAdaptiveRouting),
}


def _sweep_cell(cell: tuple) -> ResilienceResult | DeadlockReport:
    """Module-level worker (picklable for process pools); a cell the
    watchdog stops with :class:`DeadlockDetected` returns its report."""
    (family, size, count, seed, packets, detour, telemetry) = cell
    build, make_alg = RESILIENCE_FAMILIES[family]
    topo = build(size)
    alg = make_alg(topo)
    if count:
        schedule = FaultSchedule.random_links(topo, count, seed)
    else:
        schedule = FaultSchedule.healthy(topo)
    model = StaticInjection(
        packets,
        RandomTraffic(topo),
        make_rng(seed, f"resilience-{family}-{size}"),
    )
    try:
        return run_with_faults(
            alg,
            model,
            schedule,
            detour=detour,
            measure_overhead=True,
            max_cycles=2_000_000,
            telemetry=telemetry,
        )
    except DeadlockDetected as exc:
        return exc.report


def degradation_sweep(
    family: str,
    size: int,
    fault_counts: Sequence[int],
    seed: int = 12345,
    packets_per_node: int = 1,
    detour: bool = True,
    workers: int | None = None,
    telemetry: bool = False,
) -> list[dict]:
    """Delivery/latency/overhead versus the number of failed links.

    One row per entry of ``fault_counts`` (0 = healthy baseline; it is
    prepended when missing, since latency inflation is relative to it).
    Fault sets are seeded draws of ``count`` undirected links, so the
    sweep replays exactly; per-cell RNG derivation keeps parallel and
    serial runs identical.  ``telemetry`` attaches a metrics-only
    probe per cell, adding occupancy/utilization columns to the rows.
    A cell the watchdog stops with a deadlock (or livelock) report
    gives a row with ``halt`` set to the report's kind, the ``cycles``
    it was raised at, the packets still ``stuck`` and how many of them
    were deliverable (``stuck_deliverable``); the other cells are kept.
    """
    if family not in RESILIENCE_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of "
            f"{sorted(RESILIENCE_FAMILIES)}"
        )
    counts = list(fault_counts)
    if 0 not in counts:
        counts.insert(0, 0)
    cells = [
        (family, size, count, seed, packets_per_node, detour, telemetry)
        for count in counts
    ]
    results = parallel_map(_sweep_cell, cells, workers=workers or 1)
    baseline = None
    rows = []
    for count, rr in zip(counts, results):
        if isinstance(rr, DeadlockReport):
            rows.append(
                {
                    "failed_links": count,
                    "halt": rr.kind,
                    "cycles": rr.cycle,
                    "stuck": rr.active,
                    "stuck_deliverable": rr.stuck_deliverable,
                    "faults": rr.fault_summary,
                }
            )
            continue
        if count == 0:
            baseline = rr.result.l_avg
        row = rr.row()
        row["failed_links"] = count
        if baseline and baseline == baseline and rr.result.latency.count:
            row["latency_x"] = round(rr.result.l_avg / baseline, 2)
        rows.append(row)
    return rows
