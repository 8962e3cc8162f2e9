"""Cycle-accurate simulation: engine, injection models, traffic, metrics."""

from .compiled import CompiledPacketSimulator
from .engine import (
    CycleLimitExceeded,
    DeadlockError,
    PacketSimulator,
    SimulationHalt,
)
from .injection import DynamicInjection, InjectionModel, StaticInjection
from .plans import CentralPlan, RoutingPlanCache
from .tables import EngineCapabilityError, RoutingTables
from .vector import VectorSimulator
from .metrics import LatencyStats, SimulationResult
from .rng import make_rng
from .trace import CompiledTracingSimulator, TraceEvent, TracingSimulator
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
    "CompiledPacketSimulator",
    "VectorSimulator",
    "RoutingTables",
    "EngineCapabilityError",
    "RoutingPlanCache",
    "CentralPlan",
    "DeadlockError",
    "CycleLimitExceeded",
    "SimulationHalt",
    "InjectionModel",
    "StaticInjection",
    "DynamicInjection",
    "LatencyStats",
    "SimulationResult",
    "make_rng",
    "TracingSimulator",
    "CompiledTracingSimulator",
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
