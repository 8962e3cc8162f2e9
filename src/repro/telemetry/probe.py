"""The engine observer that ties the telemetry layer together.

:class:`TelemetryProbe` plugs into any engine exposing the
``add_observer`` interface (the reference simulator; the vector
engine accepts a probe and drives it itself) and

* installs an event sink (``sim._events``) the engine feeds raw event
  tuples through — a full :class:`~repro.telemetry.events.EventLog`
  when ``events=True``, or a streaming metrics-only sink (O(1) memory)
  when ``events=False``, which the vector engine feeds per-cycle
  columns instead of tuples;
* samples per-queue occupancy every ``occupancy_every`` cycles into a
  histogram and, optionally, a ``(cycle, node, kind, occupancy)`` time
  series for the CSV exporter;
* watches the fault set the fault injector installs (``sim.faults``)
  and emits an ``epoch`` event whenever it changes (a stalled link
  that dies counts, though ``sim.blocked_links`` stays the same), plus
  ``drop`` events for packets frozen inside newly-dead nodes;
* on run end folds everything into a plain-dict summary attached to
  ``SimulationResult.telemetry``.

A probe constructed with ``enabled=False`` attaches a no-op observer
and installs no sink: the engine's per-move cost is one ``is not
None`` check, which is what ``benchmarks/bench_telemetry.py`` bounds
at < 5% of vector-engine throughput.

Metric names are catalogued in ``docs/OBSERVABILITY.md``.  Of note,
``repro_hops_total{link_type="dynamic"}`` directly measures how often
traffic rides the *dynamic* links of the paper's Section 2 extension
(the fully-adaptive escape-channel construction) rather than the
static ones.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .events import SCHEMA_VERSION, EventLog
from .registry import LATENCY_BUCKETS, OCCUPANCY_BUCKETS, MetricRegistry
from .snapshots import find_wait_cycle, wait_for_graph


def _fault_state(faults) -> tuple[frozenset, frozenset, frozenset]:
    """``(dead_nodes, dead_links, stalled_links)`` of an installed
    :class:`~repro.faults.models.FaultSet`; ``None`` is healthy."""
    if faults is None:
        return frozenset(), frozenset(), frozenset()
    return faults.dead_nodes, faults.dead_links, faults.stalled_links


def _describe_faults(dead: frozenset, blocked: frozenset) -> str:
    """Deterministic one-line description of a fault epoch."""
    if not dead and not blocked:
        return "healthy"
    bits = []
    if dead:
        bits.append("dead_nodes=" + ",".join(sorted(map(str, dead))))
    if blocked:
        bits.append(
            "blocked_links="
            + ",".join(sorted(f"{u}->{v}" for u, v in blocked))
        )
    return ";".join(bits)


class _MetricsSink:
    """Streams raw event tuples straight into registry metrics.

    Used as the engine sink in metrics-only mode (``events=False``) and
    as the replay target when a full event log is folded into metrics
    at run end — one aggregation code path either way.  The vector
    engine feeds it whole batches through :meth:`add_columns` instead.
    """

    __slots__ = (
        "injected",
        "delivered",
        "dropped",
        "hops_static",
        "hops_dynamic",
        "transitions",
        "latency",
        "epochs",
        "_last_kind",
        "_registry",
        "_qos_of",
        "_qos_hists",
    )

    def __init__(self, registry: MetricRegistry, qos_of=None):
        self.injected = registry.counter(
            "repro_packets_injected_total",
            help="Packets that entered an injection queue",
        )
        self.delivered = registry.counter(
            "repro_packets_delivered_total",
            help="Packets that reached their delivery queue",
        )
        self.dropped = registry.counter(
            "repro_packets_dropped_total",
            help="Packets frozen inside nodes that went down",
        )
        self.hops_static = registry.counter(
            "repro_hops_total",
            labels={"link_type": "static"},
            help="Link traversals, split by static vs dynamic links",
        )
        self.hops_dynamic = registry.counter(
            "repro_hops_total", labels={"link_type": "dynamic"}
        )
        self.transitions = registry.counter(
            "repro_phase_transitions_total",
            help="Central-queue class changes (e.g. the A->B phase flip)",
        )
        self.latency = registry.histogram(
            "repro_latency_cycles",
            LATENCY_BUCKETS,
            help="Injection-to-delivery latency in routing cycles",
        )
        self.epochs = registry.counter(
            "repro_fault_epochs_total",
            help="Observed changes of the live fault set",
        )
        self._last_kind: dict[int, str] = {}
        # Service-class latency: ``qos_of(uid)`` resolves (and may
        # forget) a delivered packet's class; one labeled histogram
        # per class, created on first delivery.
        self._registry = registry
        self._qos_of = qos_of
        self._qos_hists: dict[str, object] = {}

    def append(self, ev: tuple) -> None:
        kind = ev[0]
        if kind == "hop":
            (self.hops_dynamic if ev[6] else self.hops_static).inc()
            self._track(ev[2], ev[7])
        elif kind == "enqueue":
            self._track(ev[2], ev[4])
        elif kind == "inject":
            self.injected.inc()
        elif kind == "deliver":
            self.delivered.inc()
            self.latency.observe(ev[4])
            if self._qos_of is not None:
                qos = self._qos_of(ev[2])
                if qos is not None:
                    self._qos_hist(qos).observe(ev[4])
            self._last_kind.pop(ev[2], None)
        elif kind == "drop":
            self.dropped.inc()
        elif kind == "epoch":
            self.epochs.inc()

    def _track(self, uid: int, kind: str) -> None:
        last = self._last_kind.get(uid)
        if last is not None and last != kind:
            self.transitions.inc()
        self._last_kind[uid] = kind

    def add_columns(
        self,
        injected: int,
        hops_static: int,
        hops_dynamic: int,
        transitions: int,
        latencies: np.ndarray,
        uids: np.ndarray,
    ) -> None:
        """One batch of events as counts and arrays (no tuples).

        The vector engine's metrics-only flush: it counts the batch's
        injections, hops and queue-kind changes itself (the
        transitions :meth:`_track` would count) and hands over the
        delivered packets' ``uids`` with their ``latencies``.  The
        resulting registry state equals :meth:`append` of every event
        of the batch.
        """
        self.injected.inc(injected)
        self.hops_static.inc(hops_static)
        self.hops_dynamic.inc(hops_dynamic)
        self.transitions.inc(transitions)
        self.delivered.inc(latencies.size)
        self.latency.observe_array(latencies)
        qos_of = self._qos_of
        if qos_of is None or not uids.size:
            return
        rows: dict[str, list[int]] = {}
        for i, uid in enumerate(uids.tolist()):
            qos = qos_of(uid)
            if qos is not None:
                rows.setdefault(qos, []).append(i)
        for qos, idx in rows.items():
            self._qos_hist(qos).observe_array(latencies[idx])

    def _qos_hist(self, qos: str):
        hist = self._qos_hists.get(qos)
        if hist is None:
            hist = self._qos_hists[qos] = self._registry.histogram(
                "repro_qos_latency_cycles",
                LATENCY_BUCKETS,
                labels={"qos": qos},
                help="Injection-to-delivery latency per service class "
                "(repro.serve)",
            )
        return hist


class TelemetryProbe:
    """One run's worth of instrumentation, attached via ``attach(sim)``.

    Parameters
    ----------
    registry:
        Metric registry to populate; a fresh one is created by default.
    events:
        Record the full structured event log (memory proportional to
        traffic).  ``False`` keeps only streaming metrics — the right
        mode for sweeps.
    series:
        Collect the per-queue occupancy time series (for the CSV
        exporter).  Defaults to ``events``.
    occupancy_every:
        Occupancy sampling stride in cycles.
    enabled:
        ``False`` turns the whole probe into a no-op observer (the
        disabled-overhead configuration the perf benchmark measures).
    qos_of:
        Optional ``uid -> service class`` resolver (may pop its entry:
        it is called exactly once per delivered packet).  When set,
        delivery latency is additionally observed into
        ``repro_qos_latency_cycles{qos=...}`` — the per-class latency
        the serving layer (`repro.serve`) exposes on ``/metrics``.
    """

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        events: bool = True,
        series: bool | None = None,
        occupancy_every: int = 1,
        enabled: bool = True,
        qos_of=None,
    ):
        self.enabled = enabled
        self.events = events and enabled
        self.series_enabled = (
            self.events if series is None else (series and enabled)
        )
        self.occupancy_every = occupancy_every
        self.registry = (
            registry if registry is not None else MetricRegistry(enabled)
        )
        self.qos_of = qos_of if enabled else None
        self.log: EventLog | None = EventLog() if self.events else None
        self.occupancy_series: list[tuple[int, Hashable, str, int]] = []
        self.summary: dict | None = None
        self.sim = None
        self._sink: _MetricsSink | None = None
        self._faults = None
        self._n_links = 0
        self._occ_hist = None
        self._inflight = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> "TelemetryProbe":
        """Register with ``sim`` and install the event sink."""
        sim.add_observer(self)
        self.sim = sim
        if not self.enabled:
            return self
        tables = getattr(sim, "tables", None)
        self._n_links = (
            tables.n_links if tables is not None else len(sim.link_classes)
        )
        # Only the reference engine runs a fault injector.
        self._faults = getattr(sim, "faults", None)
        if self.events:
            sim._events = self.log.raw
        else:
            self._sink = _MetricsSink(self.registry, qos_of=self.qos_of)
            sim._events = self._sink
        self._occ_hist = self.registry.histogram(
            "repro_queue_occupancy",
            OCCUPANCY_BUCKETS,
            help="Central-queue occupancy samples (capacity default 5)",
        )
        self._inflight = self.registry.gauge(
            "repro_packets_in_flight",
            help="Injected-but-undelivered packets at last sample",
        )
        return self

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def on_cycle(self, sim, cycle: int) -> None:
        if not self.enabled:
            return
        # The fault injector installs one FaultSet object per epoch, so
        # an identity check is enough to notice a transition cheaply.
        faults = sim.faults
        if faults is not self._faults:
            self._epoch_change(sim, cycle, faults)
        if cycle % self.occupancy_every == 0:
            self._sample(sim, cycle)

    def on_run_end(self, sim, result) -> None:
        if not self.enabled:
            return
        if self.events:
            # Fold the recorded log into metrics through the same sink
            # the streaming mode uses.
            sink = _MetricsSink(self.registry, qos_of=self.qos_of)
            for ev in self.log.raw:
                sink.append(ev)
        reg = self.registry
        static = reg.counter(
            "repro_hops_total", labels={"link_type": "static"}
        ).value
        dynamic = reg.counter(
            "repro_hops_total", labels={"link_type": "dynamic"}
        ).value
        total_hops = static + dynamic
        cycles = result.cycles
        # Each directed (link, class) buffer can carry one packet per
        # cycle; utilization is delivered hops over that ceiling.
        util = (
            total_hops / (self._n_links * cycles)
            if cycles and self._n_links
            else 0.0
        )
        dyn_frac = dynamic / total_hops if total_hops else 0.0
        reg.gauge(
            "repro_link_utilization",
            help="Hops per directed link per cycle",
        ).set(util)
        reg.gauge(
            "repro_dynamic_hop_fraction",
            help="Fraction of hops on dynamic links (Section 2 extension)",
        ).set(dyn_frac)
        reg.gauge("repro_cycles_total", help="Routing cycles run").set(
            cycles
        )
        # Routing-structure compilation cost + memory footprint: the
        # vector engine carries integer tables, the reference engine none.
        compile_stats = {}
        tables = getattr(sim, "tables", None)
        if tables is not None and hasattr(tables, "memory_bytes"):
            tables_bytes = tables.memory_bytes()
            reg.gauge(
                "repro_tables_compile_seconds",
                help="Integer routing-table construction time",
            ).set(tables.compile_seconds)
            reg.gauge(
                "repro_tables_rows",
                help="Packed integer hop rows materialized",
            ).set(tables.rows_packed)
            reg.gauge(
                "repro_tables_bytes",
                help="Integer routing-table bytes: arrays, lists and "
                "memo rows measured",
            ).set(tables_bytes)
            compile_stats = {
                "kernel": tables.kernel is not None,
                "compile_seconds": tables.compile_seconds,
                "rows": tables.rows_packed,
                "bytes": tables_bytes,
            }
        occ = self._occ_hist
        lat = reg.histogram("repro_latency_cycles", LATENCY_BUCKETS)
        self.summary = {
            "schema": SCHEMA_VERSION,
            "engine": type(sim).__name__,
            "algorithm": result.algorithm,
            "topology": result.topology,
            "cycles": cycles,
            "injected": result.injected,
            "delivered": result.delivered,
            "hops": {
                "static": static,
                "dynamic": dynamic,
                "total": total_hops,
                "dynamic_fraction": dyn_frac,
            },
            "link_utilization": util,
            "phase_transitions": reg.counter(
                "repro_phase_transitions_total"
            ).value,
            "latency": {
                "count": lat.count,
                "mean": lat.mean if lat.count else None,
                "min": lat.min,
                "max": lat.max,
            },
            "occupancy": {
                "samples": occ.count,
                "mean": occ.mean if occ.count else None,
                "peak": occ.max if occ.count else 0,
            },
            "drops": reg.counter("repro_packets_dropped_total").value,
            "fault_epochs": reg.counter("repro_fault_epochs_total").value,
            "routing_compile": compile_stats or None,
            "events": self.log.counts() if self.events else None,
            "metrics": reg.snapshot(),
        }
        result.telemetry = self.summary

    # ------------------------------------------------------------------
    # Snapshots (delegate to repro.telemetry.snapshots)
    # ------------------------------------------------------------------
    def wait_graph(self):
        """Wait-for graph of the attached simulator, right now."""
        return wait_for_graph(self.sim, self.sim.dead_nodes)

    def wait_cycle(self):
        """Wait-for cycle of the attached simulator, if any."""
        return find_wait_cycle(self.sim, self.sim.dead_nodes)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _epoch_change(self, sim, cycle, faults) -> None:
        state = _fault_state(faults)
        before = _fault_state(self._faults)
        self._faults = faults
        sink = sim._events
        if state == before or sink is None:
            return
        desc = _describe_faults(sim.dead_nodes, sim.blocked_links)
        sink.append(("epoch", cycle, -1, desc))
        new_dead = state[0] - before[0]
        if new_dead:
            self._emit_drops(sim, cycle, new_dead, sink)

    def _emit_drops(self, sim, cycle, new_dead, sink) -> None:
        """Packets frozen inside nodes that just died.

        A transient fault may later release them, so a ``drop`` marks
        "lost as of this epoch", which is how the watchdog's
        ``frozen`` classification reads too.  Scan order is the
        engine's own structure order, so both engines emit identically.
        """
        for u in sim.nodes:
            if u not in new_dead:
                continue
            for q in sim.central[u].values():
                for msg in q:
                    sink.append(("drop", cycle, msg.uid, u, "node-down"))
            msg = sim.inj[u]
            if msg is not None:
                sink.append(("drop", cycle, msg.uid, u, "node-down"))
            for key in sim.in_keys[u]:
                msg = sim.in_buf[key]
                if msg is not None:
                    sink.append(("drop", cycle, msg.uid, u, "node-down"))

    def _sample(self, sim, cycle: int) -> None:
        occ_hist = self._occ_hist
        series = self.occupancy_series if self.series_enabled else None
        for u in sim.nodes:
            for kind, q in sim.central[u].items():
                occ = len(q)
                occ_hist.observe(occ)
                if series is not None:
                    series.append((cycle, u, kind, occ))
        self._inflight.set(sim.active)
