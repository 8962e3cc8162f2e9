"""``repro.serve`` — the streaming traffic service subsystem.

Turns the batch engines into a long-running, signal-driven service:
validated YAML scenarios (:mod:`~repro.serve.scenario`), open-loop
workload generation with admission control
(:mod:`~repro.serve.workloads`, :mod:`~repro.serve.admission`), the
service loop with graceful drain (:mod:`~repro.serve.service`), and a
live ``/metrics`` + ``/healthz`` endpoint (:mod:`~repro.serve.http`).

Entry points: ``repro serve <scenario.yaml>`` on the command line, or
programmatically::

    from repro.serve import load_scenario, TrafficService

    svc = TrafficService(load_scenario("examples/scenarios/smoke.yaml"))
    exit_code = svc.serve(port=0)

See ``docs/SERVING.md`` for the schema reference, admission policies,
endpoint contract, and determinism guarantees.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".admission": ("AdmissionController", "Offer"),
        ".scenario": (
            "ADMISSION_POLICIES",
            "LOAD_SHAPES",
            "SERVE_ENGINES",
            "Scenario",
            "ScenarioError",
            "load_scenario",
            "parse_scenario",
        ),
        ".service": (
            "EXIT_CLEAN",
            "EXIT_DRAIN_TIMEOUT",
            "EXIT_ENGINE_ERROR",
            "TrafficService",
        ),
        ".workloads": ("OpenLoopInjection",),
    },
)

__all__ = [
    "ADMISSION_POLICIES",
    "LOAD_SHAPES",
    "SERVE_ENGINES",
    "AdmissionController",
    "Offer",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "parse_scenario",
    "EXIT_CLEAN",
    "EXIT_DRAIN_TIMEOUT",
    "EXIT_ENGINE_ERROR",
    "TrafficService",
    "OpenLoopInjection",
]
