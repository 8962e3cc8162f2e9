"""Unified observability for the packet engines.

The paper's central objects — the central queues ``qA``/``qB``, the
per-link static/dynamic buffers, and the queue dependency graph
(Sections 2–6) — are exactly the things worth *watching* while a
simulation runs.  This package turns them into first-class signals
shared by the reference engine, the vector engine, and fault-injected
runs:

* :mod:`~repro.telemetry.registry` — counters, gauges, and streaming
  histograms behind a :class:`MetricRegistry`; a disabled registry
  hands out no-op metrics, so instrumented code needs no guards;
* :mod:`~repro.telemetry.events` — the versioned structured event log
  (inject / enqueue / hop / deliver / drop / fault-epoch) engines feed
  through their ``_events`` sink, with canonical ordering and JSONL
  serialization that is byte-identical across engines at equal seeds;
* :mod:`~repro.telemetry.probe` — :class:`TelemetryProbe`, the engine
  observer that samples per-queue occupancy each cycle, watches fault
  epochs, and folds everything into ``SimulationResult.telemetry``;
* :mod:`~repro.telemetry.snapshots` — on-demand state snapshots (queue
  occupancy, the wait-for graph the deadlock watchdog reuses);
* :mod:`~repro.telemetry.exporters` — Prometheus text format, CSV
  occupancy time series, JSON summaries, and the one-call
  :func:`write_artifacts`.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and the event
schema.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".events": (
            "SCHEMA_VERSION",
            "EventLog",
            "events_jsonl",
            "read_jsonl",
        ),
        ".exporters": (
            "occupancy_csv",
            "prometheus_text",
            "summary_json",
            "write_artifacts",
        ),
        ".probe": ("TelemetryProbe",),
        ".registry": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricRegistry",
            "NULL_METRIC",
        ),
        ".snapshots": (
            "find_wait_cycle",
            "queue_occupancy_snapshot",
            "wait_for_graph",
        ),
    },
)

__all__ = [
    "SCHEMA_VERSION",
    "EventLog",
    "events_jsonl",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_METRIC",
    "TelemetryProbe",
    "prometheus_text",
    "occupancy_csv",
    "summary_json",
    "write_artifacts",
    "wait_for_graph",
    "find_wait_cycle",
    "queue_occupancy_snapshot",
]
