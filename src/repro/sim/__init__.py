"""Cycle-accurate simulation: engine, injection models, traffic, metrics."""

from .engine import (
    CycleLimitExceeded,
    DeadlockError,
    PacketSimulator,
    SimulationHalt,
)
from .injection import DynamicInjection, InjectionModel, StaticInjection
from .tables import EngineCapabilityError, RoutingTables
from .vector import VectorSimulator
from .metrics import LatencyStats, SimulationResult
from .rng import make_rng
from .trace import PacketTrace, TraceEvent
from .traffic import (
    BitReversalTraffic,
    HotspotTraffic,
    ComplementTraffic,
    LeveledPermutationTraffic,
    MeshTransposeTraffic,
    PermutationTraffic,
    RandomTraffic,
    ShufflePermutationTraffic,
    TornadoTraffic,
    TrafficPattern,
    TransposeTraffic,
    hypercube_pattern,
    transpose_address,
)

__all__ = [
    "PacketSimulator",
    "VectorSimulator",
    "RoutingTables",
    "EngineCapabilityError",
    "DeadlockError",
    "CycleLimitExceeded",
    "SimulationHalt",
    "InjectionModel",
    "StaticInjection",
    "DynamicInjection",
    "LatencyStats",
    "SimulationResult",
    "make_rng",
    "PacketTrace",
    "TraceEvent",
    "TrafficPattern",
    "RandomTraffic",
    "PermutationTraffic",
    "ComplementTraffic",
    "TransposeTraffic",
    "LeveledPermutationTraffic",
    "BitReversalTraffic",
    "HotspotTraffic",
    "ShufflePermutationTraffic",
    "MeshTransposeTraffic",
    "TornadoTraffic",
    "hypercube_pattern",
    "transpose_address",
]
