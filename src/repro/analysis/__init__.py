"""Analysis and reporting: paper tables, figures, occupancy studies."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".figures": (
            "ALL_FIGURES",
            "FigureBundle",
            "figure1_hypercube_qdg",
            "figure2_mesh_qdg",
            "figure3_shuffle_qdg",
            "figure4_hypercube_node",
            "figure5_mesh_node",
            "figure6_shuffle_node",
            "node_design_figure",
            "qdg_figure",
            "qdg_to_dot",
        ),
        ".occupancy": (
            "occupancy_by_level",
            "peak_occupancy_by_level",
            "top_congested_nodes",
        ),
        ".sweeps": (
            "LoadPoint",
            "knee_load",
            "load_sweep",
            "saturation_throughput",
        ),
        ".tables": ("PaperTable", "TableRow", "format_rows"),
    },
)

__all__ = [
    "PaperTable",
    "TableRow",
    "format_rows",
    "FigureBundle",
    "qdg_to_dot",
    "qdg_figure",
    "node_design_figure",
    "figure1_hypercube_qdg",
    "figure2_mesh_qdg",
    "figure3_shuffle_qdg",
    "figure4_hypercube_node",
    "figure5_mesh_node",
    "figure6_shuffle_node",
    "ALL_FIGURES",
    "occupancy_by_level",
    "peak_occupancy_by_level",
    "top_congested_nodes",
    "LoadPoint",
    "load_sweep",
    "saturation_throughput",
    "knee_load",
]
