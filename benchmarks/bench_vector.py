"""Vector-engine benchmark: node-cycles/s, reference vs vector at scale.

Measures the table-driven :class:`~repro.sim.vector.VectorSimulator`
against the reference engine on 512-4096-node networks and writes the
measurements — plus the vector/reference speedups — to
``BENCH_vector.json`` at the repo root.  The engines are
packet-for-packet identical (``tests/test_sim_vector.py``), so
throughput is the only thing that can differ.

The workload grid deliberately spans both regimes (see
``docs/ARCHITECTURE.md`` and ``docs/PERFORMANCE.md``):

* **sparse traffic at scale** (light hotspot traffic on 1024-4096
  nodes) — the reference engine pays its O(nodes + links) per-cycle
  fixed cost regardless of activity, while the vector engine touches
  only active nodes and the link slots that hold a packet;
* **saturated traffic** (``lambda = 1``) — the regime the integer hop
  kernels and the batched node cycle were built for.

The vector engine shares its warm tables across repeats (``tables=``,
the ``test_shared_tables_across_runs`` idiom; the reference engine has
no state to share) and the best of ``REPEATS`` runs is reported, so
table construction is excluded from the steady-state figure.

The floors below were vector-over-compiled floors while a compiled
engine existed; each is now a vector-over-reference floor, multiplied
by the compiled/reference throughput ratio measured on the same cell
with that engine, so no gate got weaker.

Run standalone (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_vector.py

or through pytest (the ``perf`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector.py -m perf -s
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.routing import HypercubeAdaptiveRouting, MeshAdaptiveRouting
from repro.sim import (
    ComplementTraffic,
    DynamicInjection,
    HotspotTraffic,
    MeshTransposeTraffic,
    PacketSimulator,
    RandomTraffic,
    RoutingTables,
    TransposeTraffic,
    VectorSimulator,
    make_rng,
)
from repro.topology import Hypercube, Mesh

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_vector.json"
KERNEL_BENCH_PATH = REPO_ROOT / "BENCH_kernels.json"

#: (key, topology factory, algorithm, traffic factory, lambda, cycles).
#: ``hotspot`` concentrates every packet on one destination, so most of
#: the network idles — the regime the vector engine is built for.
WORKLOADS = [
    (
        "hypercube-n9-hotspot-lam0.02",
        lambda: Hypercube(9),
        HypercubeAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=1.0),
        0.02,
        400,
    ),
    (
        "hypercube-n10-hotspot-lam0.01",
        lambda: Hypercube(10),
        HypercubeAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=1.0),
        0.01,
        400,
    ),
    (
        "hypercube-n12-hotspot-lam0.005",
        lambda: Hypercube(12),
        HypercubeAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=1.0),
        0.005,
        300,
    ),
    (
        "hypercube-n12-hotspot-lam0.01",
        lambda: Hypercube(12),
        HypercubeAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=1.0),
        0.01,
        300,
    ),
    (
        "mesh-32x32-hotspot-lam0.01",
        lambda: Mesh((32, 32)),
        MeshAdaptiveRouting,
        lambda t: HotspotTraffic(t, fraction=1.0),
        0.01,
        400,
    ),
    (
        "hypercube-n10-random-lam1",
        lambda: Hypercube(10),
        HypercubeAdaptiveRouting,
        lambda t: RandomTraffic(t),
        1.0,
        200,
    ),
]

REPEATS = 2

#: Compiled/reference throughput ratio per gated cell: the larger of two
#: best-of-2 measurements with the compiled engine on the same cell
#: (2-vCPU host, Python 3.11.7).
COMPILED_OVER_REFERENCE = {
    "smoke": 1.621,
    "hypercube-n10-random-lam1": 1.307,
    "hypercube-n10-hotspot-lam0.01": 2.124,
    "hypercube-n12-hotspot-lam0.005": 1.404,
    "hypercube-n12-hotspot-lam0.01": 1.642,
    "mesh-32x32-hotspot-lam0.01": 3.682,
}


def floor(key: str, over_compiled: float) -> float:
    """Vector-over-reference floor for a former vector-over-compiled
    floor on cell ``key``."""
    return round(over_compiled * COMPILED_OVER_REFERENCE[key], 2)


def _best(topo, make_sim, repeats):
    """Best-of-``repeats`` node-cycles/s, last result, first-run seconds."""
    top, res, first = 0.0, None, None
    for _ in range(repeats):
        sim = make_sim()
        t0 = time.perf_counter()
        res = sim.run(max_cycles=2_000_000)
        elapsed = time.perf_counter() - t0
        if first is None:
            first = elapsed
        top = max(top, topo.num_nodes * res.cycles / elapsed)
    return top, res, first


def _bench_workload(key, make_topology, algorithm_cls, make_traffic,
                    lam, cycles, repeats=REPEATS) -> dict:
    """Best-of-``repeats`` node-cycles/s for both engines on one cell."""
    topo = make_topology()
    alg = algorithm_cls(topo)
    tables = RoutingTables(alg)

    def model():
        return DynamicInjection(
            lam, make_traffic(topo), make_rng(7, "bench-vector"),
            duration=cycles, warmup=cycles // 4,
        )

    ncs_r, res_r, _ = _best(
        topo, lambda: PacketSimulator(alg, model()), repeats
    )
    ncs_v, res_v, _ = _best(
        topo, lambda: VectorSimulator(alg, model(), tables=tables), repeats
    )
    # Identical engines on an identical workload => identical results.
    assert (res_r.delivered, res_r.cycles) == (res_v.delivered, res_v.cycles)
    return {
        "nodes": topo.num_nodes,
        "node_cycles_per_s": {
            "reference": round(ncs_r, 1),
            "vector": round(ncs_v, 1),
        },
        "delivered": res_v.delivered,
        "vector_speedup": round(ncs_v / ncs_r, 2),
    }


def collect(repeats=REPEATS) -> dict:
    return {
        key: _bench_workload(key, *rest, repeats=repeats)
        for key, *rest in WORKLOADS
    }


def write_bench(path: Path = BENCH_PATH, repeats=REPEATS) -> dict:
    payload = {
        "benchmark": "vector-engine-throughput",
        "workload": "dynamic injection, warm shared tables",
        "metric": f"node_cycles_per_s (best of {repeats})",
        "python": platform.python_version(),
        "results": collect(repeats=repeats),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ----------------------------------------------------------------------
# Saturated suite: the integer-kernel + batched-node-cycle regime
# ----------------------------------------------------------------------
#: lambda = 1 everywhere — the regime the hop kernels and the batched
#: fill/read cycle were built for (ISSUE 8).  Sparse traffic stays in
#: the suite above; this one tracks the saturated gap.
KERNEL_WORKLOADS = [
    (
        "hypercube-n10-random-lam1",
        lambda: Hypercube(10),
        HypercubeAdaptiveRouting,
        lambda t: RandomTraffic(t),
        200,
    ),
    (
        "hypercube-n10-transpose-lam1",
        lambda: Hypercube(10),
        HypercubeAdaptiveRouting,
        lambda t: TransposeTraffic(t),
        200,
    ),
    (
        "hypercube-n10-complement-lam1",
        lambda: Hypercube(10),
        HypercubeAdaptiveRouting,
        lambda t: ComplementTraffic(t),
        200,
    ),
    (
        "mesh-32x32-random-lam1",
        lambda: Mesh((32, 32)),
        MeshAdaptiveRouting,
        lambda t: RandomTraffic(t),
        200,
    ),
    (
        "mesh-32x32-transpose-lam1",
        lambda: Mesh((32, 32)),
        MeshAdaptiveRouting,
        lambda t: MeshTransposeTraffic(t),
        200,
    ),
]


def _bench_kernel_workload(
    key, make_topology, algorithm_cls, make_traffic, cycles, repeats=REPEATS
) -> dict:
    """Saturated cell: warm best-of-``repeats`` + cold table build."""
    topo = make_topology()
    alg = algorithm_cls(topo)
    t0 = time.perf_counter()
    tables = RoutingTables(alg)
    table_build_s = time.perf_counter() - t0

    def model():
        return DynamicInjection(
            1.0, make_traffic(topo), make_rng(7, "bench-kernels"),
            duration=cycles, warmup=cycles // 4,
        )

    ncs_r, res_r, _ = _best(
        topo, lambda: PacketSimulator(alg, model()), repeats
    )
    ncs_v, res_v, cold_v = _best(
        topo, lambda: VectorSimulator(alg, model(), tables=tables), repeats
    )
    # Identical engines on an identical workload => identical results.
    assert (res_r.delivered, res_r.cycles) == (res_v.delivered, res_v.cycles)
    return {
        "nodes": topo.num_nodes,
        "node_cycles_per_s": {
            "reference": round(ncs_r, 1),
            "vector": round(ncs_v, 1),
        },
        "delivered": res_v.delivered,
        "vector_speedup": round(ncs_v / ncs_r, 2),
        "tables": {
            "kernel": tables.kernel is not None,
            "build_seconds": round(table_build_s, 4),
            "first_run_seconds": round(cold_v, 3),
            "rows": tables.rows_packed,
            "bytes": tables.memory_bytes(),
        },
    }


def write_kernel_bench(path: Path = KERNEL_BENCH_PATH, repeats=REPEATS) -> dict:
    payload = {
        "benchmark": "kernel-saturated-throughput",
        "workload": "dynamic injection lambda=1, warm shared tables",
        "metric": f"node_cycles_per_s (best of {repeats})",
        "python": platform.python_version(),
        "results": {
            key: _bench_kernel_workload(key, *rest, repeats=repeats)
            for key, *rest in KERNEL_WORKLOADS
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def perf_smoke() -> tuple[float, float]:
    """CI-sized checks that the vector engine still wins, saturated and
    sparse.

    Two small cells, each with a deliberately generous floor (1.5x the
    compiled engine's throughput, as a multiple of the reference's):
    hypercube-n8 at ``lambda = 1`` random for 120 cycles trips only if
    the batched kernel path stops engaging at all, and a 120-cycle
    ``hypercube-n10-hotspot-lam0.01`` (a few busy nodes per cycle) only
    if the node cycle stops paying off on sparse traffic.  Both
    engines must deliver the same packets in the same cycles.  Runs in
    well under a minute on a CI VM.
    """
    row = _bench_kernel_workload(
        "smoke",
        lambda: Hypercube(8),
        HypercubeAdaptiveRouting,
        lambda t: RandomTraffic(t),
        120,
    )
    speedup = row["vector_speedup"]
    least = floor("smoke", 1.5)
    assert row["tables"]["kernel"], "hop kernel missing on hypercube"
    assert speedup >= least, (
        f"perf smoke: saturated hypercube-n8 speedup {speedup} < "
        f"{least}x floor"
    )
    key = "hypercube-n10-hotspot-lam0.01"
    _, *cell, _ = next(w for w in WORKLOADS if w[0] == key)
    sparse = _bench_workload(key, *cell, 120)["vector_speedup"]
    least = floor(key, 1.5)
    assert sparse >= least, (
        f"perf smoke: sparse {key} speedup {sparse} < {least}x floor"
    )
    return speedup, sparse


@pytest.mark.perf
def test_kernel_benchmark():
    """Regenerate BENCH_kernels.json; the batched vector engine must
    reach 4x the compiled engine's throughput at lambda=1 on
    hypercube-n10-random, expressed over the reference engine."""
    payload = write_kernel_bench()
    print()
    print(json.dumps(payload, indent=2))
    key = "hypercube-n10-random-lam1"
    speedup = payload["results"][key]["vector_speedup"]
    least = floor(key, 4.0)
    assert speedup >= least, (
        f"saturated {key} speedup {speedup} < {least}x"
    )


@pytest.mark.perf
def test_vector_benchmark():
    """Regenerate BENCH_vector.json; the vector engine must reach 10x
    the compiled engine's throughput, expressed over the reference
    engine, on at least one 1024+-node workload."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    margins = {
        key: row["vector_speedup"] / floor(key, 10.0)
        for key, row in payload["results"].items()
        if row["nodes"] >= 1024
    }
    assert margins and max(margins.values()) >= 1.0, (
        f"no 1024+-node workload reached its 10x floor: {margins}"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        saturated, sparse = perf_smoke()
        print(f"perf smoke passed: {saturated}x saturated, {sparse}x sparse")
    else:
        print(json.dumps(write_bench(), indent=2))
        print(f"wrote {BENCH_PATH}")
        print(json.dumps(write_kernel_bench(), indent=2))
        print(f"wrote {KERNEL_BENCH_PATH}")
