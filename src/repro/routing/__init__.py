"""Routing algorithms: the paper's schemes and baselines."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".buffer_pool": ("StructuredBufferPoolRouting",),
        ".benes": (
            "BenesAdaptiveRouting",
            "BenesObliviousRouting",
            "BenesTraffic",
        ),
        ".ccc": ("CCCAdaptiveRouting",),
        ".hypercube": (
            "HypercubeAdaptiveRouting",
            "HypercubeHungRouting",
            "HypercubeObliviousRouting",
            "all_hypercube_algorithms",
        ),
        ".mesh": (
            "Mesh2DAdaptiveRouting",
            "Mesh2DRestrictedRouting",
            "MeshAdaptiveRouting",
            "MeshObliviousRouting",
            "MeshRestrictedRouting",
        ),
        ".shuffle_exchange": (
            "ShuffleExchangeRouting",
            "required_classes_per_phase",
        ),
        ".torus": ("TorusRouting",),
    },
)

__all__ = [
    "BenesAdaptiveRouting",
    "BenesObliviousRouting",
    "BenesTraffic",
    "CCCAdaptiveRouting",
    "HypercubeAdaptiveRouting",
    "HypercubeHungRouting",
    "HypercubeObliviousRouting",
    "all_hypercube_algorithms",
    "MeshRestrictedRouting",
    "MeshAdaptiveRouting",
    "MeshObliviousRouting",
    "Mesh2DRestrictedRouting",
    "Mesh2DAdaptiveRouting",
    "TorusRouting",
    "ShuffleExchangeRouting",
    "required_classes_per_phase",
    "StructuredBufferPoolRouting",
]
