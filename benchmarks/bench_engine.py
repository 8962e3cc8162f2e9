"""Engine micro-benchmark: node-cycles/s, reference vs vector.

Measures both engines on the same saturated random-traffic workload
(dynamic injection at ``lambda = 1``) for the hypercube, the 2-D mesh,
the shuffle-exchange and the torus, and writes the measurements — plus
the vector/reference speedups — to ``BENCH_engine.json`` at the repo
root.  The engines are packet-for-packet identical
(``tests/test_sim_vector.py``), so throughput is the only thing that
can differ.  Each run's clock starts after the engine is built, so the
vector engine's ``RoutingTables`` build is excluded; its first-run row
misses are included.

Run standalone (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_engine.py

or through pytest (the ``perf`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -m perf -s

``--smoke`` (CI) times only shuffle-n6 (packed rows) and torus-6x6
(grid-kernel batch rows) for 150 cycles, writes nothing, and holds
both to the same floor as the full run::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke
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

#: (workload key, topology factory, algorithm).
WORKLOADS = [
    ("hypercube-n6", lambda: Hypercube(6), HypercubeAdaptiveRouting),
    ("mesh-8x8", lambda: Mesh((8, 8)), MeshAdaptiveRouting),
    ("shuffle-n6", lambda: ShuffleExchange(6), ShuffleExchangeRouting),
    ("torus-6x6", lambda: Torus((6, 6)), TorusRouting),
]

ENGINES = ("reference", "vector")

CYCLES = 300
REPEATS = 3

#: Vector-over-reference floor on the generic-topology workloads.
FLOOR = 3.0

#: The smoke's workloads: packed rows (shuffle-n6) and the grid
#: kernel's torus batch rows (torus-6x6).
SMOKE_KEYS = ("shuffle-n6", "torus-6x6")
SMOKE_CYCLES = 150


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


def collect(cycles=CYCLES, repeats=REPEATS, keys=None) -> dict:
    """Best-of-``repeats`` node-cycles/s for every workload (or those
    named in ``keys``) x engine."""
    out: dict[str, dict] = {}
    for key, make_topology, algorithm_cls in WORKLOADS:
        if keys is not None and key not in keys:
            continue
        row: dict[str, float] = {}
        delivered: dict[str, tuple[int, int]] = {}
        for engine in ENGINES:
            best = 0.0
            for _ in range(repeats):
                ncs, result = run_engine(
                    engine, make_topology, algorithm_cls, cycles
                )
                best = max(best, ncs)
            row[engine] = round(best, 1)
            delivered[engine] = (result.delivered, result.cycles)
        # Same workload, identical engines => the same packets delivered
        # in the same number of cycles.
        assert len(set(delivered.values())) == 1, delivered
        out[key] = {
            "node_cycles_per_s": row,
            "delivered": delivered["reference"][0],
            "vector_speedup": round(row["vector"] / row["reference"], 2),
        }
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


def perf_smoke() -> dict:
    """CI-sized timing of the packed-row and torus batch-row paths:
    both engines on shuffle-n6 and torus-6x6 must deliver the same
    packets in the same cycles, and the vector engine must stay
    ``FLOOR`` x the reference on both."""
    results = collect(cycles=SMOKE_CYCLES, keys=SMOKE_KEYS)
    for key in SMOKE_KEYS:
        speedup = results[key]["vector_speedup"]
        assert speedup >= FLOOR, (
            f"perf smoke: {key} vector speedup {speedup} < {FLOOR}x"
        )
    return results


@pytest.mark.perf
def test_engine_benchmark():
    """Regenerate BENCH_engine.json; the fast engine must stay >=3x the
    reference on the generic-topology workloads."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    for key in ("mesh-8x8", "shuffle-n6", "torus-6x6"):
        speedup = payload["results"][key]["vector_speedup"]
        assert speedup >= FLOOR, f"{key}: vector speedup {speedup} < {FLOOR}x"


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        print(json.dumps(perf_smoke(), indent=2))
        print("packed-row and torus perf smoke passed")
    else:
        print(json.dumps(write_bench(), indent=2))
        print(f"wrote {BENCH_PATH}")
