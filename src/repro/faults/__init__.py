"""Fault injection and resilience analysis (beyond the paper).

The paper proves minimal fully-adaptive deadlock-free routing for
*healthy* networks.  This package asks the production question: what
does the algorithm family do when links stall, links die, or whole
nodes fail — and does the simulation say so honestly instead of
hanging?

* :mod:`repro.faults.models` — seeded, reproducible fault schedules
  (permanent link/node downs, transient link stalls) resolved into
  immutable per-epoch fault sets;
* :mod:`repro.faults.adapters` — :class:`FaultAwareRouting`, which
  filters any routing algorithm's hops through the live fault set
  (preferring surviving minimal hops, detouring as a last resort), and
  :class:`FaultInjector`, the engine observer replaying a schedule;
* :mod:`repro.faults.watchdog` — :class:`DeadlockWatchdog`, turning
  engine stalls into structured deadlock/undeliverable reports;
* :mod:`repro.faults.experiments` — degradation sweeps (delivery
  ratio, latency inflation, reroute overhead versus fault count).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".adapters": (
            "FaultAwareRouting",
            "FaultInjector",
            "FaultVerification",
            "verify_under_faults",
        ),
        ".experiments": (
            "RESILIENCE_FAMILIES",
            "ResilienceResult",
            "degradation_sweep",
            "make_fault_simulator",
            "run_with_faults",
        ),
        ".models": (
            "EMPTY_FAULTS",
            "LINK_DOWN",
            "LINK_STALL",
            "NODE_DOWN",
            "Fault",
            "FaultSchedule",
            "FaultSet",
            "directed_link_down",
            "link_down",
            "link_stall",
            "node_down",
        ),
        ".watchdog": (
            "DeadlockDetected",
            "DeadlockReport",
            "DeadlockWatchdog",
            "SimObserver",
            "StuckPacket",
        ),
    },
)

__all__ = [
    "EMPTY_FAULTS",
    "LINK_DOWN",
    "LINK_STALL",
    "NODE_DOWN",
    "Fault",
    "FaultAwareRouting",
    "FaultInjector",
    "FaultSchedule",
    "FaultSet",
    "FaultVerification",
    "DeadlockDetected",
    "DeadlockReport",
    "DeadlockWatchdog",
    "RESILIENCE_FAMILIES",
    "ResilienceResult",
    "SimObserver",
    "StuckPacket",
    "degradation_sweep",
    "directed_link_down",
    "link_down",
    "link_stall",
    "make_fault_simulator",
    "node_down",
    "run_with_faults",
    "verify_under_faults",
]
