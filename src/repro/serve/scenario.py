"""Validated YAML scenario schema for the streaming traffic service.

A *scenario* describes everything a long-running serving run needs:
the network (topology family + size + routing algorithm), one or more
**user populations** (how many users are active, how often each one
sends, to which destinations, at what service class), and the
**service settings** (tick size, cycle budget, admission policy,
telemetry endpoint).  The YAML is parsed into plain dataclasses and
**validated up front** — every error names the offending YAML path
(``populations[0].users.distribution: ...``) so a bad scenario fails
before the first simulated cycle, never during one.

Schema overview (see ``docs/SERVING.md`` for the full field
reference)::

    name: smoke                    # required
    seed: 42
    topology: {family: hypercube, size: 4}
    algorithm: adaptive            # per-family choices, default adaptive
    engine: auto                   # reference | vector | auto
    populations:                   # >= 1 entry
      - name: humans
        qos: gold                  # service-class tag on every packet
        users: {mean: 40, distribution: poisson}    # or normal/log_normal
        rate_per_user: 0.002       # packets / user / cycle, > 0
        resample_every: 100        # cycles between user-count re-samples
        pattern: random            # destination pattern (family-aware)
        load_shape: {kind: diurnal, period: 1000, amplitude: 0.5}
    service:
      tick_cycles: 50              # metrics/pacing tick
      duration_cycles: 2000        # null = run until stopped
      warmup_cycles: 0
      drain_limit_cycles: 100000
      tick_seconds: null           # optional wall-clock pacing per tick
      occupancy_every: 16
      stall_limit: 10000
      central_capacity: 5
      record: false                # full event log (determinism contract)
      admission:
        policy: defer              # drop | defer | shed-by-class
        max_deferred_per_node: 8
        shed_threshold: 64         # shed-by-class only
        class_order: [gold, bronze]   # highest priority first

The loader accepts a YAML string/path or an already-parsed mapping, so
programmatic callers (tests, sweeps) never round-trip through text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..experiments.runner import ENGINES
from ..routing.hypercube import (
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
)
from ..routing.mesh import Mesh2DAdaptiveRouting, Mesh2DRestrictedRouting
from ..sim.sampling import USER_DISTRIBUTIONS
from ..sim.traffic import (
    HotspotTraffic,
    MeshTransposeTraffic,
    RandomTraffic,
    TornadoTraffic,
    TrafficPattern,
    hypercube_pattern,
)
from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D

#: Engines the service loop can step (see docs/SERVING.md): all of them.
SERVE_ENGINES = ENGINES

#: Admission policies (docs/SERVING.md, "Admission policies").
ADMISSION_POLICIES = ("drop", "defer", "shed-by-class")

#: Load-shape kinds.
LOAD_SHAPES = ("constant", "diurnal", "bursty")

#: The paper's four hypercube patterns plus the extended set.
_HYPERCUBE_PATTERNS = (
    "random",
    "complement",
    "transpose",
    "leveled",
    "bit-reversal",
    "shuffle-perm",
)


class ScenarioError(ValueError):
    """A scenario failed validation; the message names the YAML path."""


def _err(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, known: tuple, path: str) -> None:
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise _err(
            path,
            f"unknown field {unknown[0]!r} (expected one of "
            f"{', '.join(sorted(known))})",
        )


def _number(mapping: dict, key: str, path: str, default=None, *,
            required: bool = False, minimum=None, strict_min=None):
    if key not in mapping or mapping[key] is None:
        if required:
            raise _err(f"{path}.{key}", "required field is missing")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(
            f"{path}.{key}",
            f"expected a number, got {type(value).__name__}",
        )
    value = float(value)
    if strict_min is not None and value <= strict_min:
        raise _err(f"{path}.{key}", f"must be > {strict_min}, got {value:g}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value:g}")
    return value


def _integer(mapping: dict, key: str, path: str, default=None, *,
             required: bool = False, minimum=None):
    value = _number(
        mapping, key, path, default=default, required=required,
        minimum=minimum,
    )
    if value is None:
        return None
    if value != int(value):
        raise _err(f"{path}.{key}", f"expected an integer, got {value:g}")
    return int(value)


def _choice(mapping: dict, key: str, path: str, choices: tuple, default=None):
    value = mapping.get(key, default)
    if value not in choices:
        raise _err(
            f"{path}.{key}",
            f"{value!r} is not one of {', '.join(map(repr, choices))}",
        )
    return value


# ----------------------------------------------------------------------
# Topology / algorithm / pattern families
# ----------------------------------------------------------------------
def _build_hypercube(size: str) -> Topology:
    return Hypercube(int(size))


def _build_mesh(size: str) -> Topology:
    return Mesh2D(int(str(size).split("x")[0]))


# The torus and shuffle-exchange modules are imported when a scenario
# names the family, so a hypercube or mesh service never loads them.
def _build_torus(size: str) -> Topology:
    from ..topology.torus import Torus

    parts = [int(x) for x in str(size).split("x")]
    if len(parts) == 1:
        parts = parts * 2
    return Torus(tuple(parts))


def _torus_routing(topology: Topology):
    from ..routing.torus import TorusRouting

    return TorusRouting(topology)


def _build_shuffle(size: str) -> Topology:
    from ..topology.shuffle_exchange import ShuffleExchange

    return ShuffleExchange(int(size))


def _shuffle_routing(topology: Topology):
    from ..routing.shuffle_exchange import ShuffleExchangeRouting

    return ShuffleExchangeRouting(topology)


#: family -> (topology factory over a size string,
#:            {algorithm name -> algorithm factory})
SERVE_FAMILIES: dict[str, tuple[Callable[[str], Topology], dict]] = {
    "hypercube": (
        _build_hypercube,
        {
            "adaptive": HypercubeAdaptiveRouting,
            "hung": HypercubeHungRouting,
            "oblivious": HypercubeObliviousRouting,
        },
    ),
    "mesh": (
        _build_mesh,
        {
            "adaptive": Mesh2DAdaptiveRouting,
            "restricted": Mesh2DRestrictedRouting,
        },
    ),
    "torus": (_build_torus, {"adaptive": _torus_routing}),
    "shuffle-exchange": (_build_shuffle, {"adaptive": _shuffle_routing}),
}


def make_pattern(
    name: str,
    topology: Topology,
    rng: np.random.Generator,
    params: dict | None = None,
    path: str = "pattern",
) -> TrafficPattern:
    """Destination pattern by scenario name, family-aware.

    ``random`` and ``hotspot`` work on every topology; the remaining
    names are family-specific and raise a :class:`ScenarioError`
    naming the offending path when the topology cannot host them.
    """
    params = params or {}
    try:
        if name == "random":
            return RandomTraffic(topology)
        if name == "hotspot":
            return HotspotTraffic(
                topology, fraction=float(params.get("fraction", 0.2))
            )
        if name in _HYPERCUBE_PATTERNS:
            if not isinstance(topology, Hypercube):
                raise _err(
                    path,
                    f"pattern {name!r} needs a hypercube topology, "
                    f"not {topology.name}",
                )
            return hypercube_pattern(name, topology, rng)
        if name == "mesh-transpose":
            return MeshTransposeTraffic(topology)
        if name == "tornado":
            return TornadoTraffic(topology)
    except ScenarioError:
        raise
    except (ValueError, AttributeError, TypeError) as exc:
        raise _err(path, f"pattern {name!r} rejected: {exc}")
    raise _err(path, f"unknown pattern {name!r}")


# ----------------------------------------------------------------------
# Schema dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UserDistribution:
    """Active-user count as a random variable (mean + family)."""

    mean: float
    distribution: str = "poisson"
    variance: float | None = None

    @staticmethod
    def parse(raw: Any, path: str) -> "UserDistribution":
        raw = _require_mapping(raw, path)
        _reject_unknown(raw, ("mean", "distribution", "variance"), path)
        mean = _number(raw, "mean", path, required=True, minimum=0.0)
        dist = _choice(
            raw, "distribution", path, USER_DISTRIBUTIONS, default="poisson"
        )
        variance = _number(raw, "variance", path, minimum=0.0)
        if dist == "poisson" and variance is not None:
            raise _err(
                f"{path}.variance",
                "poisson has no free variance (it equals the mean); "
                "drop the field or pick normal/log_normal",
            )
        return UserDistribution(mean=mean, distribution=dist,
                                variance=variance)


@dataclass(frozen=True)
class LoadShape:
    """Time-varying multiplier applied to a population's mean users.

    * ``constant`` — 1 everywhere (the default);
    * ``diurnal``  — ``1 + amplitude * sin(2*pi*cycle/period + phase)``,
      the day/night swell;
    * ``bursty``   — ``multiplier`` during the first ``burst_cycles``
      of every ``period``, 1 otherwise (on/off flash crowds).
    """

    kind: str = "constant"
    period: int = 1000
    amplitude: float = 0.5
    multiplier: float = 4.0
    burst_cycles: int = 100
    phase: float = 0.0

    @staticmethod
    def parse(raw: Any, path: str) -> "LoadShape":
        if raw is None:
            return LoadShape()
        raw = _require_mapping(raw, path)
        kind = _choice(raw, "kind", path, LOAD_SHAPES, default="constant")
        known: tuple
        if kind == "constant":
            known = ("kind",)
        elif kind == "diurnal":
            known = ("kind", "period", "amplitude", "phase")
        else:  # bursty
            known = ("kind", "period", "multiplier", "burst_cycles")
        _reject_unknown(raw, known, path)
        period = _integer(raw, "period", path, default=1000, minimum=1)
        amplitude = _number(raw, "amplitude", path, default=0.5, minimum=0.0)
        if amplitude is not None and amplitude > 1.0:
            raise _err(
                f"{path}.amplitude", f"must be <= 1.0, got {amplitude:g}"
            )
        multiplier = _number(
            raw, "multiplier", path, default=4.0, strict_min=0.0
        )
        burst = _integer(raw, "burst_cycles", path, default=100, minimum=1)
        phase = _number(raw, "phase", path, default=0.0)
        if kind == "bursty" and burst > period:
            raise _err(
                f"{path}.burst_cycles",
                f"must be <= period ({period}), got {burst}",
            )
        return LoadShape(
            kind=kind, period=period, amplitude=amplitude,
            multiplier=multiplier, burst_cycles=burst, phase=phase,
        )

    def multiplier_at(self, cycle: int) -> float:
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * float(
                np.sin(2.0 * np.pi * cycle / self.period + self.phase)
            )
        if self.kind == "bursty":
            return (
                self.multiplier
                if cycle % self.period < self.burst_cycles
                else 1.0
            )
        return 1.0


@dataclass(frozen=True)
class Population:
    """One user population: arrival process + destinations + QoS tag."""

    name: str
    users: UserDistribution
    rate_per_user: float
    qos: str = "default"
    pattern: str = "random"
    pattern_params: dict = field(default_factory=dict)
    resample_every: int = 100
    load_shape: LoadShape = field(default_factory=LoadShape)

    _FIELDS = (
        "name",
        "users",
        "rate_per_user",
        "qos",
        "pattern",
        "pattern_params",
        "resample_every",
        "load_shape",
    )

    @staticmethod
    def parse(raw: Any, path: str) -> "Population":
        raw = _require_mapping(raw, path)
        _reject_unknown(raw, Population._FIELDS, path)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise _err(f"{path}.name", "required non-empty string")
        if "users" not in raw:
            raise _err(f"{path}.users", "required field is missing")
        users = UserDistribution.parse(raw["users"], f"{path}.users")
        rate = _number(
            raw, "rate_per_user", path, required=True, strict_min=0.0
        )
        qos = raw.get("qos", "default")
        if not isinstance(qos, str) or not qos:
            raise _err(f"{path}.qos", "expected a non-empty string")
        pattern = raw.get("pattern", "random")
        if not isinstance(pattern, str):
            raise _err(f"{path}.pattern", "expected a string")
        params = raw.get("pattern_params") or {}
        _require_mapping(params, f"{path}.pattern_params")
        resample = _integer(
            raw, "resample_every", path, default=100, minimum=1
        )
        shape = LoadShape.parse(raw.get("load_shape"), f"{path}.load_shape")
        return Population(
            name=name,
            users=users,
            rate_per_user=rate,
            qos=qos,
            pattern=pattern,
            pattern_params=dict(params),
            resample_every=resample,
            load_shape=shape,
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control policy knobs (docs/SERVING.md)."""

    policy: str = "defer"
    max_deferred_per_node: int = 8
    shed_threshold: int = 64
    class_order: tuple[str, ...] = ()

    @staticmethod
    def parse(raw: Any, path: str) -> "AdmissionConfig":
        if raw is None:
            return AdmissionConfig()
        raw = _require_mapping(raw, path)
        _reject_unknown(
            raw,
            ("policy", "max_deferred_per_node", "shed_threshold",
             "class_order"),
            path,
        )
        policy = _choice(
            raw, "policy", path, ADMISSION_POLICIES, default="defer"
        )
        max_deferred = _integer(
            raw, "max_deferred_per_node", path, default=8, minimum=0
        )
        shed = _integer(raw, "shed_threshold", path, default=64, minimum=0)
        order = raw.get("class_order", ())
        if order is None:
            order = ()
        if not isinstance(order, (list, tuple)) or not all(
            isinstance(c, str) for c in order
        ):
            raise _err(f"{path}.class_order", "expected a list of strings")
        return AdmissionConfig(
            policy=policy,
            max_deferred_per_node=max_deferred,
            shed_threshold=shed,
            class_order=tuple(order),
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Service-loop settings: ticks, budgets, recording, endpoint."""

    tick_cycles: int = 50
    duration_cycles: int | None = None
    warmup_cycles: int = 0
    drain_limit_cycles: int = 100_000
    tick_seconds: float | None = None
    occupancy_every: int = 16
    stall_limit: int = 10_000
    central_capacity: int = 5
    record: bool = False
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    _FIELDS = (
        "tick_cycles",
        "duration_cycles",
        "warmup_cycles",
        "drain_limit_cycles",
        "tick_seconds",
        "occupancy_every",
        "stall_limit",
        "central_capacity",
        "record",
        "admission",
    )

    @staticmethod
    def parse(raw: Any, path: str) -> "ServiceConfig":
        if raw is None:
            return ServiceConfig()
        raw = _require_mapping(raw, path)
        _reject_unknown(raw, ServiceConfig._FIELDS, path)
        record = raw.get("record", False)
        if not isinstance(record, bool):
            raise _err(f"{path}.record", "expected a boolean")
        return ServiceConfig(
            tick_cycles=_integer(
                raw, "tick_cycles", path, default=50, minimum=1
            ),
            duration_cycles=_integer(
                raw, "duration_cycles", path, default=None, minimum=1
            ),
            warmup_cycles=_integer(
                raw, "warmup_cycles", path, default=0, minimum=0
            ),
            drain_limit_cycles=_integer(
                raw, "drain_limit_cycles", path, default=100_000, minimum=1
            ),
            tick_seconds=_number(
                raw, "tick_seconds", path, default=None, minimum=0.0
            ),
            occupancy_every=_integer(
                raw, "occupancy_every", path, default=16, minimum=1
            ),
            stall_limit=_integer(
                raw, "stall_limit", path, default=10_000, minimum=1
            ),
            central_capacity=_integer(
                raw, "central_capacity", path, default=5, minimum=1
            ),
            record=record,
            admission=AdmissionConfig.parse(
                raw.get("admission"), f"{path}.admission"
            ),
        )


@dataclass(frozen=True)
class Scenario:
    """A fully-validated serving scenario."""

    name: str
    seed: int
    family: str
    size: str
    algorithm: str
    engine: str
    populations: tuple[Population, ...]
    service: ServiceConfig

    _FIELDS = (
        "name",
        "seed",
        "topology",
        "algorithm",
        "engine",
        "populations",
        "service",
    )

    def build_topology(self) -> Topology:
        build, _algs = SERVE_FAMILIES[self.family]
        return build(self.size)

    def build_algorithm(self, topology: Topology):
        _build, algs = SERVE_FAMILIES[self.family]
        return algs[self.algorithm](topology)

    def describe(self) -> str:
        pops = ", ".join(
            f"{p.name}({p.qos}: ~{p.users.mean:g} users x "
            f"{p.rate_per_user:g}/cycle, {p.load_shape.kind})"
            for p in self.populations
        )
        dur = (
            f"{self.service.duration_cycles} cycles"
            if self.service.duration_cycles
            else "until stopped"
        )
        return (
            f"scenario {self.name!r}: {self.family} {self.size} "
            f"[{self.algorithm}] engine={self.engine} seed={self.seed}; "
            f"populations: {pops}; duration: {dur}; "
            f"admission: {self.service.admission.policy}"
        )


def parse_scenario(raw: Any, path: str = "scenario") -> Scenario:
    """Validate an already-parsed mapping into a :class:`Scenario`."""
    raw = _require_mapping(raw, path)
    _reject_unknown(raw, Scenario._FIELDS, path)

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise _err(f"{path}.name", "required non-empty string")
    seed = _integer(raw, "seed", path, default=12345)

    topo_raw = _require_mapping(
        raw.get("topology") or {}, f"{path}.topology"
    )
    _reject_unknown(topo_raw, ("family", "size"), f"{path}.topology")
    family = _choice(
        topo_raw,
        "family",
        f"{path}.topology",
        tuple(SERVE_FAMILIES),
        default="hypercube",
    )
    size = topo_raw.get("size")
    if size is None:
        raise _err(f"{path}.topology.size", "required field is missing")
    size = str(size)

    _build, algs = SERVE_FAMILIES[family]
    algorithm = _choice(
        raw, "algorithm", path, tuple(algs), default="adaptive"
    )
    engine = _choice(raw, "engine", path, SERVE_ENGINES, default="auto")

    pops_raw = raw.get("populations")
    if not isinstance(pops_raw, list) or not pops_raw:
        raise _err(
            f"{path}.populations", "expected a non-empty list of populations"
        )
    populations = tuple(
        Population.parse(p, f"{path}.populations[{i}]")
        for i, p in enumerate(pops_raw)
    )
    seen: set[str] = set()
    for i, p in enumerate(populations):
        if p.name in seen:
            raise _err(
                f"{path}.populations[{i}].name",
                f"duplicate population name {p.name!r}",
            )
        seen.add(p.name)

    service = ServiceConfig.parse(raw.get("service"), f"{path}.service")

    scenario = Scenario(
        name=name,
        seed=seed,
        family=family,
        size=size,
        algorithm=algorithm,
        engine=engine,
        populations=populations,
        service=service,
    )
    # Cross-field checks that need the real topology are cheap at the
    # sizes serving targets; do them up front so `--validate` is total.
    try:
        topology = scenario.build_topology()
    except (ValueError, TypeError) as exc:
        raise _err(f"{path}.topology.size", f"rejected by {family}: {exc}")
    rng = np.random.default_rng(0)  # lint: ok (validation probe only)
    for i, p in enumerate(populations):
        make_pattern(
            p.pattern,
            topology,
            rng,
            p.pattern_params,
            path=f"{path}.populations[{i}].pattern",
        )
    return scenario


def load_scenario(source: Any) -> Scenario:
    """Load a scenario from a YAML path/string or a parsed mapping.

    PyYAML is only imported when text must actually be parsed, so the
    core library keeps its numpy+networkx-only dependency surface;
    callers with parsed dicts never need YAML installed.
    """
    if isinstance(source, dict):
        return parse_scenario(source)
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - env without pyyaml
        raise ScenarioError(
            "loading YAML scenarios needs the 'pyyaml' package; install "
            "it or pass an already-parsed mapping to load_scenario()"
        ) from exc
    text = source
    from pathlib import Path

    if isinstance(source, (str, Path)):
        p = Path(source)
        # Heuristic: treat one-line strings with no newline as paths.
        if isinstance(source, Path) or (
            "\n" not in str(source) and p.suffix in (".yaml", ".yml")
        ):
            if not p.exists():
                raise ScenarioError(f"scenario file not found: {source}")
            text = p.read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}")
    return parse_scenario(raw)
