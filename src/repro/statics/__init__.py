"""Static deadlock-freedom analysis (no simulation cycles).

Lowers any :class:`~repro.core.routing_function.RoutingAlgorithm` (or
worm-hole scheme, or fault-epoch adapter) onto its complete queue /
channel dependency graph, checks the paper's Section-2 conditions plus
the Mendlovic–Matias existence condition for arbitrary digraphs, and on
failure emits minimal, machine-readable cycle witnesses.  The ``repro
lint`` CLI sweeps every registered instance as a CI gate.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analyzer": (
            "StaticAnalysis",
            "analyze_algorithm",
            "analyze_wormhole",
        ),
        ".existence": ("ExistenceReport", "deadlock_free_routing_exists"),
        ".lint": ("LintFinding", "run_determinism_lint"),
        ".registry": ("LintTarget", "lint_targets"),
        ".report": ("to_json_report", "to_sarif"),
        ".synthesis": ("SynthesizedRouting", "synthesize_routing"),
        ".witness": ("CycleWitness", "WitnessRow", "cycle_witness"),
    },
)

__all__ = [
    "CycleWitness",
    "ExistenceReport",
    "LintFinding",
    "LintTarget",
    "StaticAnalysis",
    "SynthesizedRouting",
    "WitnessRow",
    "analyze_algorithm",
    "analyze_wormhole",
    "cycle_witness",
    "deadlock_free_routing_exists",
    "lint_targets",
    "run_determinism_lint",
    "synthesize_routing",
    "to_json_report",
    "to_sarif",
]
