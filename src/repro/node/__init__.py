"""The routing node: buffers, arbitration, and functional designs (Section 6)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".arbitration": ("RoundRobinArbiter", "fifo_ranks", "rotated"),
        ".buffers": ("Buffer", "BufferPair", "OccupancyStats"),
        ".model": ("LinkBufferSet", "NodeDesign", "build_node_design"),
    },
)

__all__ = [
    "Buffer",
    "BufferPair",
    "OccupancyStats",
    "RoundRobinArbiter",
    "rotated",
    "fifo_ranks",
    "NodeDesign",
    "LinkBufferSet",
    "build_node_design",
]
