"""Experiment driver: configuration, scale control, sweeps.

The paper simulates hypercubes of up to 16K nodes (n = 10..14).  A
pure-Python cycle simulator cannot sweep that range in CI time, so
every harness resolves its ``n`` range through :func:`scale_dimensions`:

* ``REPRO_SCALE=ci``      -> n = 4..6   (seconds; the test default)
* ``REPRO_SCALE=default`` -> n = 5..8   (tens of seconds)
* ``REPRO_SCALE=large``   -> n = 7..10  (minutes)
* ``REPRO_SCALE=paper``   -> n = 10..14 (the paper's range; hours)
* ``REPRO_NS=6,8,10``     -> explicit override

The reproduced quantity is the *shape* of each table (see
EXPERIMENTS.md), which is already visible at small n because the
latency model is exact (L = 2h + 1 uncontended).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.routing_function import RoutingAlgorithm
from ..routing.hypercube import HypercubeAdaptiveRouting
from ..sim.engine import BaseSimulator, PacketSimulator
from ..sim.vector import VectorSimulator
from ..sim.injection import DynamicInjection, InjectionModel, StaticInjection
from ..sim.metrics import SimulationResult
from ..sim.rng import make_rng
from ..sim.traffic import hypercube_pattern
from ..telemetry.probe import TelemetryProbe
from ..topology.hypercube import Hypercube

SCALES: dict[str, tuple[int, ...]] = {
    "ci": (4, 5, 6),
    "default": (5, 6, 7, 8),
    "large": (7, 8, 9, 10),
    "paper": (10, 11, 12, 13, 14),
}

#: Engine names accepted by :func:`build_simulator` / ``REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("reference", "vector")


def engine_choice(default: str = "vector") -> str:
    """Engine to use, honoring the ``REPRO_ENGINE`` environment override."""
    name = os.environ.get("REPRO_ENGINE", default).lower()
    if name not in ENGINES:
        raise ValueError(
            f"REPRO_ENGINE={name!r}; expected one of {ENGINES}"
        )
    return name


def resolve_probe(telemetry) -> TelemetryProbe | None:
    """Normalize a ``telemetry`` argument into a probe (or None).

    ``True`` means a metrics-only probe (no event log — O(1) memory,
    the right default for sweeps); pass a
    :class:`~repro.telemetry.TelemetryProbe` instance for full control.
    """
    if telemetry is None or telemetry is False:
        return None
    if telemetry is True:
        return TelemetryProbe(events=False)
    return telemetry


def build_simulator(
    algorithm: RoutingAlgorithm,
    model: InjectionModel,
    engine: str | None = None,
    telemetry=None,
    **kwargs,
) -> BaseSimulator:
    """Construct the requested engine around ``(algorithm, model)``.

    ``engine`` (or, when it is None, the ``REPRO_ENGINE`` environment
    variable) selects between:

    * ``reference`` — the generic :class:`PacketSimulator`, the
      executable spec (every observer, fault injection);
    * ``vector``    — :class:`~repro.sim.vector.VectorSimulator`, the
      table-driven engine and the default (any topology,
      packet-identical; hashable states, telemetry probes yes, fault
      observers no).

    Every engine implements the reference engine's exact Section-7.1
    semantics, so the choice never changes results, only throughput —
    see the engine matrix in ``docs/ARCHITECTURE.md`` for what each
    supports.

    ``telemetry`` (True or a :class:`~repro.telemetry.TelemetryProbe`)
    attaches instrumentation to whichever engine is picked; both run it
    through the same observer loop (the vector engine feeds its sink
    columnar events, flushed every cycle).  A probe with
    ``events=True`` records the event log that
    :class:`~repro.sim.trace.PacketTrace` reads timelines from.
    """
    name = engine_choice() if engine is None else engine
    if name not in ENGINES:
        raise ValueError(f"engine={name!r}; expected one of {ENGINES}")
    probe = resolve_probe(telemetry)
    if name == "reference":
        sim = PacketSimulator(algorithm, model, **kwargs)
    else:
        sim = VectorSimulator(algorithm, model, **kwargs)
    if probe is not None:
        probe.attach(sim)
    return sim


def scale_dimensions(default: str = "ci") -> tuple[int, ...]:
    """Hypercube dimensions to sweep, honoring the environment."""
    explicit = os.environ.get("REPRO_NS")
    if explicit:
        return tuple(int(x) for x in explicit.replace(",", " ").split())
    scale = os.environ.get("REPRO_SCALE", default)
    if scale not in SCALES:
        raise ValueError(
            f"REPRO_SCALE={scale!r}; expected one of {sorted(SCALES)}"
        )
    return SCALES[scale]


def experiment_seed(default: int = 12345) -> int:
    return int(os.environ.get("REPRO_SEED", default))


@dataclass
class HypercubeExperiment:
    """One cell of the paper's evaluation grid."""

    pattern: str  #: random | complement | transpose | leveled | ...
    injection: str  #: "static" or "dynamic"
    packets_per_node: int = 1  #: static model only
    rate: float = 1.0  #: dynamic model only
    duration: int | None = None  #: dynamic cycles (None -> auto)
    warmup: int | None = None  #: dynamic warm-up (None -> auto)
    seed: int = 12345
    central_capacity: int = 5
    collect_occupancy: bool = False
    #: Attach a metrics-only telemetry probe per cell; results carry
    #: ``SimulationResult.telemetry`` (and extra ``row()`` columns).
    telemetry: bool = False
    #: Routing-algorithm constructor (default: the paper's adaptive
    #: scheme); per-call ``algorithm_factory`` arguments override it.
    algorithm: Callable[[Hypercube], RoutingAlgorithm] | None = None

    def auto_duration(self, n: int) -> int:
        # Long enough for steady state at every n: latencies are
        # O(n)-to-O(n^2) under saturation, so a few hundred cycles
        # plus an n-dependent term keeps the measured window stable.
        return self.duration if self.duration is not None else 200 + 25 * n

    def auto_warmup(self, n: int) -> int:
        if self.warmup is not None:
            return self.warmup
        return self.auto_duration(n) // 3

    def build(
        self,
        n: int,
        algorithm_factory: Callable[[Hypercube], RoutingAlgorithm] | None = None,
        engine: str | None = None,
    ) -> PacketSimulator:
        cube = Hypercube(n)
        factory = algorithm_factory or self.algorithm or HypercubeAdaptiveRouting
        alg = factory(cube)
        rng_traffic = make_rng(self.seed, f"traffic-{n}")
        pattern = hypercube_pattern(self.pattern, cube, rng_traffic)
        if self.injection == "static":
            model = StaticInjection(
                self.packets_per_node, pattern, make_rng(self.seed, f"inj-{n}")
            )
        elif self.injection == "dynamic":
            model = DynamicInjection(
                self.rate,
                pattern,
                make_rng(self.seed, f"inj-{n}"),
                duration=self.auto_duration(n),
                warmup=self.auto_warmup(n),
            )
        else:
            raise ValueError(f"unknown injection model {self.injection!r}")
        # Engine selection (tests/test_sim_vector.py proves the engines
        # packet-for-packet identical): REPRO_ENGINE / the engine
        # argument pick one explicitly; the default is vector.
        kwargs: dict = {"central_capacity": self.central_capacity}
        if self.collect_occupancy:
            kwargs["collect_occupancy"] = True
        return build_simulator(
            alg,
            model,
            engine=engine,
            telemetry=self.telemetry or None,
            **kwargs,
        )

    def run(
        self,
        n: int,
        algorithm_factory: Callable[[Hypercube], RoutingAlgorithm] | None = None,
        max_cycles: int | None = None,
        engine: str | None = None,
    ) -> SimulationResult:
        sim = self.build(n, algorithm_factory, engine=engine)
        return sim.run(max_cycles=max_cycles)

    def sweep(
        self,
        ns: Sequence[int],
        algorithm_factory: Callable[[Hypercube], RoutingAlgorithm] | None = None,
        workers: int | None = None,
        engine: str | None = None,
    ) -> dict[int, SimulationResult]:
        """Run one cell per dimension, optionally fanned out to workers.

        Every cell derives its RNG streams from ``make_rng(seed, tag)``
        with per-``n`` tags, so the cells are independent and the
        parallel result is identical to the serial one (asserted by
        ``tests/test_parallel_sweep.py``).
        """
        if workers is not None and workers > 1:
            from .parallel import parallel_map

            results = parallel_map(
                _sweep_cell,
                [(self, n, algorithm_factory, engine) for n in ns],
                workers=workers,
            )
            return dict(zip(ns, results))
        return {n: self.run(n, algorithm_factory, engine=engine) for n in ns}


def _sweep_cell(
    cell: tuple[
        "HypercubeExperiment",
        int,
        Callable[[Hypercube], RoutingAlgorithm] | None,
        str | None,
    ],
) -> SimulationResult:
    """Module-level sweep worker (must be picklable for process pools)."""
    exp, n, algorithm_factory, engine = cell
    return exp.run(n, algorithm_factory, engine=engine)
