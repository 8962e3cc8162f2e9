"""The long-running traffic service loop (``repro serve``).

:class:`TrafficService` wires a validated scenario into a live system:

* the engine comes from the existing
  :func:`~repro.experiments.runner.build_simulator` factory — the
  service never re-implements engine selection, it only *narrows* it
  (see :data:`~repro.serve.scenario.SERVE_ENGINES`);
* injection is the scenario's :class:`~repro.serve.workloads.\
  OpenLoopInjection` model, so the engine's own ``run()`` loop does the
  stepping and the per-engine finalization (result construction, probe
  flushing) stays in one place;
* every ``tick_cycles`` simulated cycles the model calls back into the
  service, which publishes admission/offered-load/QoS metrics into the
  Prometheus registry, optionally paces against wall clock
  (``tick_seconds``), and polls for stop signals;
* ``SIGINT``/``SIGTERM`` (or an exhausted ``duration_cycles`` budget)
  trigger a **graceful drain**: no new offers, the deferral backlog is
  cancelled (counted), and the run ends when the last in-flight packet
  delivers — the final snapshot therefore always satisfies
  ``injected == delivered`` (checked by ``tests/test_serve_service.py``).

An engine name outside :data:`~repro.serve.scenario.SERVE_ENGINES` is
refused loudly (the repo-wide policy) — see docs/SERVING.md.

Determinism (record mode): with ``service.record: true`` the probe
keeps the full event log, and identical scenario + seed + cycle budget
produce byte-identical ``events.jsonl`` artifacts on every serve
engine — the contract the CI smoke job and the service tests pin.

Exit codes: 0 clean drain, 3 drain limit exceeded (packets still in
flight when ``drain_limit_cycles`` ran out), 4 engine failure
(deadlock/stall/cycle cap).
"""

from __future__ import annotations

import signal
import time
from typing import Callable

from ..core.message import reset_message_ids
from ..experiments.runner import build_simulator
from ..sim.engine import DeadlockError, CycleLimitExceeded
from ..sim.metrics import SimulationResult
from ..sim.tables import EngineCapabilityError
from ..telemetry import MetricRegistry, TelemetryProbe, write_artifacts
from .http import TelemetryEndpoint
from .scenario import SERVE_ENGINES, Scenario
from .workloads import OpenLoopInjection

#: Exit codes of :meth:`TrafficService.serve`.
EXIT_CLEAN = 0
EXIT_DRAIN_TIMEOUT = 3
EXIT_ENGINE_ERROR = 4


def _reject_unservable_engine(engine: str) -> None:
    if engine in SERVE_ENGINES:
        return
    raise EngineCapabilityError(
        f"engine={engine!r} is not a serve engine; expected one of "
        f"{SERVE_ENGINES} (docs/SERVING.md)"
    )


class TrafficService:
    """One serving run: scenario -> engine + admission + endpoint."""

    def __init__(
        self,
        scenario: Scenario,
        engine: str | None = None,
        record: bool | None = None,
        registry: MetricRegistry | None = None,
        emit: Callable[[str], None] | None = None,
    ):
        self.scenario = scenario
        self.engine = engine or scenario.engine
        _reject_unservable_engine(self.engine)
        svc = scenario.service
        self.record = svc.record if record is None else record
        self.registry = registry if registry is not None else MetricRegistry()
        self.emit = emit or (lambda line: None)

        self.topology = scenario.build_topology()
        self.algorithm = scenario.build_algorithm(self.topology)
        self.model = OpenLoopInjection(scenario, self.topology, self.algorithm)
        self.model.on_tick = self._on_tick
        self.probe = TelemetryProbe(
            registry=self.registry,
            events=self.record,
            series=False,
            occupancy_every=svc.occupancy_every,
            qos_of=self.model.qos_of,
        )
        self.sim = build_simulator(
            self.algorithm,
            self.model,
            engine=self.engine,
            telemetry=self.probe,
            central_capacity=svc.central_capacity,
            stall_limit=svc.stall_limit,
        )
        self.endpoint: TelemetryEndpoint | None = None
        self.result: SimulationResult | None = None
        self._stop_signal: str | None = None
        self._published: dict[tuple[str, str], int] = {}
        self._wall_next: float | None = None
        # Static identity gauges so the very first scrape is non-empty.
        self._cycle_gauge = self.registry.gauge(
            "repro_service_cycle", help="Current routing cycle"
        )
        self._phase_gauge = self.registry.gauge(
            "repro_service_draining",
            help="1 while draining, 0 while serving",
        )
        self._backlog_gauge = self.registry.gauge(
            "repro_admission_backlog",
            help="Offers currently parked in deferral FIFOs",
        )
        self._offered_gauge = self.registry.gauge(
            "repro_offered_load",
            help="Offered packets per cycle over the last tick",
        )

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM into a graceful drain (CLI path only)."""

        def _handler(signum, frame):
            self._stop_signal = signal.Signals(signum).name

        signal.signal(signal.SIGINT, _handler)
        signal.signal(signal.SIGTERM, _handler)

    def request_stop(self, reason: str = "stop requested") -> None:
        """Programmatic drain trigger (tests, embedding)."""
        self._stop_signal = reason

    # ------------------------------------------------------------------
    # The tick callback (runs inside model.attempt, every tick_cycles)
    # ------------------------------------------------------------------
    def _on_tick(self, sim, cycle: int) -> None:
        if self._stop_signal is not None and not self.model.draining:
            self.emit(
                f"[cycle {cycle}] {self._stop_signal}: draining "
                f"({sim.active} in flight, "
                f"{self.model.admission.deferred_total} deferred cancelled)"
            )
            self.model.begin_drain(self._stop_signal, cycle)
        self._publish(sim, cycle)
        self._pace()

    def _publish(self, sim, cycle: int) -> None:
        reg = self.registry
        self._cycle_gauge.set(cycle)
        self._phase_gauge.set(1 if self.model.draining else 0)
        adm = self.model.admission
        self._backlog_gauge.set(adm.deferred_total)
        ticks = self.model.scenario.service.tick_cycles
        self._offered_gauge.set(self.model.tick_offers / ticks)
        self.model.tick_offers = 0
        for pop in self.model.populations:
            reg.gauge(
                "repro_active_users",
                labels={"population": pop.spec.name},
                help="Sampled active-user count per population",
            ).set(pop.active_users)
        # Admission counters live as plain ints on the controller
        # (engine-agnostic, picklable); publish monotonic deltas.
        tables = (
            ("offered", adm.offered),
            ("accepted", adm.accepted),
            ("dropped", adm.dropped),
            ("shed", adm.shed),
            ("cancelled", adm.cancelled),
            ("deferred", adm.deferred_count),
        )
        for outcome, table in tables:
            for qos, total in table.items():
                key = (outcome, qos)
                delta = total - self._published.get(key, 0)
                if delta:
                    reg.counter(
                        "repro_admission_offers_total",
                        labels={"outcome": outcome, "qos": qos},
                        help="Admission decisions by outcome and class",
                    ).inc(delta)
                    self._published[key] = total
        wait_key = ("wait", "")
        delta = adm.defer_wait_cycles - self._published.get(wait_key, 0)
        if delta:
            reg.counter(
                "repro_admission_defer_wait_cycles_total",
                help="Cumulative cycles offers waited in deferral FIFOs",
            ).inc(delta)
            self._published[wait_key] = adm.defer_wait_cycles

    def _pace(self) -> None:
        seconds = self.scenario.service.tick_seconds
        if not seconds:
            return
        now = time.monotonic()
        if self._wall_next is None:
            self._wall_next = now + seconds
            return
        if now < self._wall_next:
            time.sleep(self._wall_next - now)
        self._wall_next = max(self._wall_next + seconds, now)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        phase = "serving"
        if self.result is not None:
            phase = "stopped"
        elif self.model.draining:
            phase = "draining"
        return {
            "status": "ok",
            "phase": phase,
            "scenario": self.scenario.name,
            "engine": self.engine,
            "cycle": self.sim.cycle,
            "active": self.sim.active,
            "injected": self.sim.injected_count,
            "delivered": self.sim.delivered_count,
            "admission": self.model.admission.snapshot(),
        }

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def serve(
        self,
        port: int | None = None,
        host: str = "127.0.0.1",
        outdir=None,
    ) -> int:
        """Run the scenario to completion; returns the exit code.

        ``port`` (even ``0`` for ephemeral) starts the ``/metrics`` +
        ``/healthz`` endpoint; ``None`` serves without one (tests).
        ``outdir`` writes record-mode artifacts (``events.jsonl``,
        ``metrics.prom``, ``summary.json``) after the drain.

        In record mode the global message-uid counter is restarted
        first, so identical scenario + seed + cycle budget produce
        byte-identical ``events.jsonl`` on every serve engine — the
        determinism contract in docs/SERVING.md.
        """
        if self.record:
            reset_message_ids()
        if port is not None:
            self.endpoint = TelemetryEndpoint(
                self.registry, self.health, host=host, port=port
            ).start()
            self.emit(f"telemetry endpoint: {self.endpoint.url}")
        self.emit(self.scenario.describe())
        code = EXIT_CLEAN
        try:
            self.result = self.sim.run()
        except (DeadlockError, CycleLimitExceeded) as exc:
            self.emit(f"engine error: {exc}")
            return self._finish(EXIT_ENGINE_ERROR, outdir)
        if self.model.drain_timed_out:
            self.emit(
                f"drain limit exceeded: {self.result.undelivered} packets "
                f"still in flight after "
                f"{self.scenario.service.drain_limit_cycles} cycles"
            )
            code = EXIT_DRAIN_TIMEOUT
        return self._finish(code, outdir)

    def _finish(self, code: int, outdir) -> int:
        if self.sim is not None:
            # Publish the final counter state before the last scrape.
            self._publish(self.sim, self.sim.cycle)
            self._phase_gauge.set(0)
        if self.result is not None:
            r = self.result
            self.emit(
                f"drained at cycle {r.cycles}: injected={r.injected} "
                f"delivered={r.delivered} in-flight={r.undelivered} "
                f"(reason: {self.model.drain_reason or 'engine stop'})"
            )
            for qos, counts in sorted(
                self.model.admission.snapshot()["offered"].items()
            ):
                acc = self.model.admission.accepted.get(qos, 0)
                self.emit(f"  class {qos}: offered={counts} accepted={acc}")
        if outdir is not None:
            paths = write_artifacts(self.probe, outdir)
            for kind in sorted(paths):
                self.emit(f"wrote {kind}: {paths[kind]}")
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None
        return code
