"""Core framework: queues, routing functions, QDGs, and verification."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".message": ("Message", "reset_message_ids"),
        ".paths": (
            "adaptivity_ratio",
            "is_fully_adaptive_for_pair",
            "is_minimal_for_pair",
            "minimal_node_paths",
            "realizable_node_paths",
        ),
        ".qdg": (
            "Exploration",
            "Transition",
            "build_qdg",
            "explore",
            "find_cycle",
            "is_acyclic",
            "qdg_stats",
            "queue_levels",
            "shortest_cycle",
        ),
        ".queues": (
            "DELIVER",
            "INJECT",
            "QueueId",
            "QueueSpec",
            "default_queue_specs",
            "deliver",
            "inject",
        ),
        ".routing_function": (
            "DYNAMIC_CLASS",
            "RoutingAlgorithm",
            "node_path",
        ),
        ".verification": ("VerificationReport", "verify_algorithm"),
    },
)

__all__ = [
    "Message",
    "reset_message_ids",
    "QueueId",
    "QueueSpec",
    "INJECT",
    "DELIVER",
    "inject",
    "deliver",
    "default_queue_specs",
    "RoutingAlgorithm",
    "DYNAMIC_CLASS",
    "node_path",
    "Exploration",
    "Transition",
    "explore",
    "build_qdg",
    "is_acyclic",
    "find_cycle",
    "shortest_cycle",
    "queue_levels",
    "qdg_stats",
    "minimal_node_paths",
    "realizable_node_paths",
    "is_minimal_for_pair",
    "is_fully_adaptive_for_pair",
    "adaptivity_ratio",
    "VerificationReport",
    "verify_algorithm",
]
