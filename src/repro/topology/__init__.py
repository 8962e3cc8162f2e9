"""Interconnection-network topologies (hypercube, mesh, torus, shuffle-exchange)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Topology", "bfs_distance"),
        ".benes": ("BenesNetwork",),
        ".ccc": ("CubeConnectedCycles",),
        ".hypercube": (
            "Hypercube",
            "differing_dimensions",
            "flip_bit",
            "hamming_distance",
            "hamming_weight",
        ),
        ".mesh": ("Mesh", "Mesh2D"),
        ".shuffle_exchange": (
            "ShuffleExchange",
            "cycle_break_node",
            "rol",
            "ror",
            "shuffle_cycle",
        ),
        ".torus": ("Torus",),
    },
)

__all__ = [
    "Topology",
    "bfs_distance",
    "BenesNetwork",
    "CubeConnectedCycles",
    "Hypercube",
    "flip_bit",
    "hamming_weight",
    "hamming_distance",
    "differing_dimensions",
    "Mesh",
    "Mesh2D",
    "Torus",
    "ShuffleExchange",
    "rol",
    "ror",
    "shuffle_cycle",
    "cycle_break_node",
]
