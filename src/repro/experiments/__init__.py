"""Experiment harness: scale control, sweeps, and the paper's tables."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".paper": (
            "PAPER_TABLES",
            "TableSpec",
            "check_table_shape",
            "run_table",
            "table_result",
        ),
        ".parallel": ("default_workers", "parallel_map"),
        ".replication": (
            "ReplicatedResult",
            "ReplicateStats",
            "mean_difference_ci95",
            "replicate",
        ),
        ".runner": (
            "ENGINES",
            "SCALES",
            "HypercubeExperiment",
            "build_simulator",
            "engine_choice",
            "experiment_seed",
            "scale_dimensions",
        ),
    },
)

__all__ = [
    "HypercubeExperiment",
    "scale_dimensions",
    "experiment_seed",
    "build_simulator",
    "engine_choice",
    "ENGINES",
    "SCALES",
    "parallel_map",
    "default_workers",
    "PAPER_TABLES",
    "TableSpec",
    "run_table",
    "table_result",
    "check_table_shape",
    "replicate",
    "ReplicateStats",
    "ReplicatedResult",
    "mean_difference_ci95",
]
