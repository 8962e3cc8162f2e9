"""Worm-hole routing extension (paper, Section 1 / [GPS91]).

Flit-level simulation with virtual channels, escape-channel adaptive
routing schemes for the hypercube and torus, and machine verification
of the extended escape channel-dependency-graph condition.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".channels": ("ChannelId", "ChannelState"),
        ".engine": ("WormholeDeadlockError", "WormholeSimulator"),
        ".flit": ("FlitKind", "Worm", "reset_worm_ids"),
        ".routing": (
            "ADAPTIVE",
            "HungEscapeHypercubeWormhole",
            "HypercubeAdaptiveWormhole",
            "HypercubeEcubeWormhole",
            "TorusAdaptiveWormhole",
            "TorusDimensionOrderWormhole",
            "WormholeScheme",
        ),
        ".workload": (
            "BernoulliWormSource",
            "backlog",
            "permutation_worms",
            "run_open_loop",
        ),
        ".verification": (
            "WormholeReport",
            "extended_escape_cdg",
            "verify_wormhole_scheme",
        ),
    },
)

__all__ = [
    "Worm",
    "FlitKind",
    "reset_worm_ids",
    "ChannelId",
    "ChannelState",
    "WormholeScheme",
    "ADAPTIVE",
    "HypercubeEcubeWormhole",
    "HypercubeAdaptiveWormhole",
    "HungEscapeHypercubeWormhole",
    "TorusDimensionOrderWormhole",
    "TorusAdaptiveWormhole",
    "WormholeSimulator",
    "WormholeDeadlockError",
    "WormholeReport",
    "extended_escape_cdg",
    "verify_wormhole_scheme",
    "permutation_worms",
    "BernoulliWormSource",
    "run_open_loop",
    "backlog",
]
