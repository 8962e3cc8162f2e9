"""repro: fully-adaptive minimal deadlock-free packet routing.

Reproduction of Pifarré, Gravano, Felperin & Sanz,
*"Fully-Adaptive Minimal Deadlock-Free Packet Routing in Hypercubes,
Meshes, and Other Networks"*, SPAA 1991.

Public surface
--------------
* :mod:`repro.topology` — hypercube, mesh, torus, shuffle-exchange;
* :mod:`repro.routing` — the paper's algorithms and baselines;
* :mod:`repro.core` — routing-function framework, QDGs, machine
  verification of the deadlock-freedom conditions;
* :mod:`repro.node` — the Section-6 node designs;
* :mod:`repro.sim` — the Section-7 cycle-accurate simulator;
* :mod:`repro.experiments` — the paper's Tables 1-12 as runnable
  experiments;
* :mod:`repro.faults` — fault injection, the deadlock watchdog, and
  resilience/degradation experiments (beyond the paper);
* :mod:`repro.analysis` — table/figure rendering and occupancy studies.
"""

import importlib

__version__ = "1.0.0"

#: Every subpackage, imported on first attribute access (PEP 562), so
#: ``import repro`` loads none of them.
_SUBPACKAGES = frozenset(
    {
        "analysis",
        "core",
        "experiments",
        "faults",
        "node",
        "routing",
        "serve",
        "sim",
        "statics",
        "telemetry",
        "topology",
        "wormhole",
    }
)

__all__ = [
    "analysis",
    "core",
    "experiments",
    "faults",
    "node",
    "routing",
    "sim",
    "topology",
    "__version__",
]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBPACKAGES)
