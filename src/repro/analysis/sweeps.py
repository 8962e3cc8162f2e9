"""Load sweeps: latency/throughput curves.

The paper evaluates only the saturating ``lambda = 1`` point; these
helpers trace the full offered-load curve (the standard way adaptive
routers are characterised today), which makes the adaptive-vs-oblivious
gap and the saturation knee visible.  Used by the load-curve ablation
benchmark and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.routing_function import RoutingAlgorithm
from ..sim.injection import DynamicInjection
from ..sim.metrics import SimulationResult
from ..sim.rng import make_rng
from ..sim.traffic import TrafficPattern


@dataclass
class LoadPoint:
    """One point of a load sweep."""

    offered: float  #: injection probability lambda
    accepted: float  #: lambda x effective injection rate
    l_avg: float
    l_max: int
    delivered: int
    #: Telemetry summary when the sweep was instrumented; None otherwise.
    telemetry: dict | None = None

    def row(self) -> dict:
        out = {
            "lambda": round(self.offered, 3),
            "accepted": round(self.accepted, 3),
            "L_avg": round(self.l_avg, 2),
            "L_max": self.l_max,
        }
        if self.telemetry:
            t = self.telemetry
            out["link_util"] = round(t["link_utilization"], 4)
            out["dyn_hops(%)"] = round(
                100.0 * t["hops"]["dynamic_fraction"], 1
            )
            if t["occupancy"]["mean"] is not None:
                out["occ_mean"] = round(t["occupancy"]["mean"], 3)
        return out


def load_sweep(
    algorithm_factory: Callable[[], RoutingAlgorithm],
    pattern_factory: Callable[[], TrafficPattern],
    rates: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0),
    duration: int = 300,
    warmup: int = 100,
    seed: int = 0,
    central_capacity: int = 5,
    engine: str | None = None,
    telemetry: bool = False,
) -> list[LoadPoint]:
    """Measure latency and accepted throughput across offered loads.

    A fresh algorithm/pattern instance per point keeps runs independent
    and reproducible.  ``engine`` picks a specific engine (default:
    ``REPRO_ENGINE``, else ``vector``; every engine gives the same
    points); ``telemetry`` attaches a metrics-only probe per point,
    populating ``LoadPoint.telemetry`` and the occupancy/utilization
    row columns.
    """
    # Lazy import: analysis stays importable without the experiments
    # machinery.
    from ..experiments.runner import build_simulator

    points = []
    for rate in rates:
        alg = algorithm_factory()
        inj = DynamicInjection(
            rate,
            pattern_factory(),
            make_rng(seed, f"load-{rate}"),
            duration=duration,
            warmup=warmup,
        )
        sim = build_simulator(
            alg,
            inj,
            engine=engine,
            telemetry=telemetry or None,
            central_capacity=central_capacity,
        )
        res: SimulationResult = sim.run()
        points.append(
            LoadPoint(
                offered=rate,
                accepted=rate * res.injection_rate,
                l_avg=res.l_avg,
                l_max=res.l_max,
                delivered=res.delivered,
                telemetry=res.telemetry,
            )
        )
    return points


def saturation_throughput(points: Sequence[LoadPoint]) -> float:
    """Peak accepted load over a sweep (messages/node/cycle)."""
    return max(p.accepted for p in points)


def knee_load(points: Sequence[LoadPoint], factor: float = 2.0) -> float:
    """First offered load whose latency exceeds ``factor`` x the
    zero-load latency (a simple saturation-knee estimate)."""
    if not points:
        raise ValueError("empty sweep")
    base = points[0].l_avg
    for p in points:
        if p.l_avg > factor * base:
            return p.offered
    return points[-1].offered
