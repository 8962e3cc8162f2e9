"""Engine micro-benchmark: node-cycles/s, reference vs compiled vs vector.

Measures the three engines on the same saturated random-traffic
workload (dynamic injection at ``lambda = 1``) for the hypercube, the
2-D mesh, the shuffle-exchange and the torus, and writes the
measurements — plus the compiled/reference and vector/reference
speedups — to ``BENCH_engine.json`` at the repo root.  The engines are
packet-for-packet identical (``tests/test_sim_compiled.py`` /
``tests/test_sim_vector.py``), so throughput is the only thing that can
differ.  Each run's clock starts after the engine is built, so the
vector engine's ``RoutingTables`` build is excluded; its first-run row
misses are included.

Run standalone (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_engine.py

or through pytest (the ``perf`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -m perf -s
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.experiments import build_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    MeshAdaptiveRouting,
    ShuffleExchangeRouting,
    TorusRouting,
)
from repro.sim import DynamicInjection, RandomTraffic, make_rng
from repro.topology import Hypercube, Mesh, ShuffleExchange, Torus

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_engine.json"

#: (workload key, topology factory, algorithm, engines to measure).
WORKLOADS = [
    (
        "hypercube-n6",
        lambda: Hypercube(6),
        HypercubeAdaptiveRouting,
        ("reference", "compiled", "vector"),
    ),
    (
        "mesh-8x8",
        lambda: Mesh((8, 8)),
        MeshAdaptiveRouting,
        ("reference", "compiled", "vector"),
    ),
    (
        "shuffle-n6",
        lambda: ShuffleExchange(6),
        ShuffleExchangeRouting,
        ("reference", "compiled", "vector"),
    ),
    (
        "torus-6x6",
        lambda: Torus((6, 6)),
        TorusRouting,
        ("reference", "compiled", "vector"),
    ),
]

CYCLES = 300
REPEATS = 3


def run_engine(engine, make_topology, algorithm_cls, cycles=CYCLES):
    """Time one run; returns (node-cycles/s, SimulationResult)."""
    topo = make_topology()
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(0, "bench"), duration=cycles
    )
    sim = build_simulator(algorithm_cls(topo), model, engine=engine)
    t0 = time.perf_counter()
    result = sim.run(max_cycles=2_000_000)
    elapsed = time.perf_counter() - t0
    return topo.num_nodes * result.cycles / elapsed, result


def collect(cycles=CYCLES, repeats=REPEATS) -> dict:
    """Best-of-``repeats`` node-cycles/s for every workload x engine."""
    out: dict[str, dict] = {}
    for key, make_topology, algorithm_cls, engines in WORKLOADS:
        row: dict[str, float] = {}
        delivered: dict[str, int] = {}
        for engine in engines:
            best = 0.0
            for _ in range(repeats):
                ncs, result = run_engine(
                    engine, make_topology, algorithm_cls, cycles
                )
                best = max(best, ncs)
            row[engine] = round(best, 1)
            delivered[engine] = result.delivered
        # Same workload, identical engines => identical delivery counts.
        assert len(set(delivered.values())) == 1, delivered
        entry = {"node_cycles_per_s": row, "delivered": delivered["reference"]}
        if "compiled" in row:
            entry["compiled_speedup"] = round(
                row["compiled"] / row["reference"], 2
            )
        if "vector" in row:
            entry["vector_speedup"] = round(
                row["vector"] / row["reference"], 2
            )
        out[key] = entry
    return out


def write_bench(path: Path = BENCH_PATH, cycles=CYCLES) -> dict:
    payload = {
        "benchmark": "engine-throughput",
        "workload": f"dynamic lambda=1 random traffic, {cycles} cycles",
        "metric": "node_cycles_per_s (best of 3)",
        "python": platform.python_version(),
        "results": collect(cycles=cycles),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perf
def test_engine_benchmark():
    """Regenerate BENCH_engine.json; the compiled engine must stay >=3x
    the reference on the generic-topology workloads (ISSUE 3 target)."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    for key in ("mesh-8x8", "shuffle-n6"):
        speedup = payload["results"][key]["compiled_speedup"]
        assert speedup >= 3.0, f"{key}: compiled speedup {speedup} < 3x"


if __name__ == "__main__":
    print(json.dumps(write_bench(), indent=2))
    print(f"wrote {BENCH_PATH}")
