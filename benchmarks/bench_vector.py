"""Vector-engine benchmark: node-cycles/s, compiled vs vector at scale.

Measures the table-driven :class:`~repro.sim.vector.VectorSimulator`
against the compiled engine on 512-4096-node networks and writes the
measurements — plus the vector/compiled speedups — to
``BENCH_vector.json`` at the repo root.  The engines are
packet-for-packet identical (``tests/test_sim_vector.py``), so
throughput is the only thing that can differ.

The workload grid deliberately spans both regimes (see
``docs/ARCHITECTURE.md`` and ``docs/PERFORMANCE.md``):

* **sparse traffic at scale** (light hotspot / light complement on
  1024-4096 nodes) — the compiled engine pays its O(nodes + links)
  per-cycle fixed cost regardless of activity, while the vector engine
  touches only active nodes plus one vectorized link pass; this is
  where the >=10x speedups live;
* **saturated traffic** (``lambda = 1`` random) — both engines are
  bound by per-hop routing-plan construction, which they share, so the
  gap narrows to ~1.5-3x.  Those rows are included honestly.

Both engines share their warm plan state across repeats (compiled via
``plan_cache=``, vector via ``tables=``, the
``test_shared_plan_cache_across_runs`` idiom) and the best of
``REPEATS`` runs is reported, so table/plan construction is excluded
from the steady-state figure for *both* sides equally.

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
    CompiledPacketSimulator,
    DynamicInjection,
    HotspotTraffic,
    MeshTransposeTraffic,
    RandomTraffic,
    RoutingTables,
    TransposeTraffic,
    VectorSimulator,
    make_rng,
)
from repro.sim.plans import RoutingPlanCache
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


def _bench_workload(key, make_topology, algorithm_cls, make_traffic,
                    lam, cycles, repeats=REPEATS) -> dict:
    """Best-of-``repeats`` node-cycles/s for both engines on one cell."""
    topo = make_topology()
    alg = algorithm_cls(topo)
    cache = RoutingPlanCache(alg)
    tables = RoutingTables(alg)

    def model():
        return DynamicInjection(
            lam, make_traffic(topo), make_rng(7, "bench-vector"),
            duration=cycles, warmup=cycles // 4,
        )

    def best(make_sim):
        top, res = 0.0, None
        for _ in range(repeats):
            sim = make_sim()
            t0 = time.perf_counter()
            res = sim.run(max_cycles=2_000_000)
            elapsed = time.perf_counter() - t0
            top = max(top, topo.num_nodes * res.cycles / elapsed)
        return top, res

    ncs_c, res_c = best(
        lambda: CompiledPacketSimulator(alg, model(), plan_cache=cache)
    )
    ncs_v, res_v = best(lambda: VectorSimulator(alg, model(), tables=tables))
    # Identical engines on an identical workload => identical results.
    assert (res_c.delivered, res_c.cycles) == (res_v.delivered, res_v.cycles)
    return {
        "nodes": topo.num_nodes,
        "node_cycles_per_s": {
            "compiled": round(ncs_c, 1),
            "vector": round(ncs_v, 1),
        },
        "delivered": res_v.delivered,
        "vector_speedup": round(ncs_v / ncs_c, 2),
    }


def collect(repeats=REPEATS) -> dict:
    return {
        key: _bench_workload(key, *rest, repeats=repeats)
        for key, *rest in WORKLOADS
    }


def write_bench(path: Path = BENCH_PATH, repeats=REPEATS) -> dict:
    payload = {
        "benchmark": "vector-engine-throughput",
        "workload": "dynamic injection, warm shared tables/plan cache",
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
    cache = RoutingPlanCache(alg)
    t0 = time.perf_counter()
    tables = RoutingTables(alg)
    table_build_s = time.perf_counter() - t0

    def model():
        return DynamicInjection(
            1.0, make_traffic(topo), make_rng(7, "bench-kernels"),
            duration=cycles, warmup=cycles // 4,
        )

    def best(make_sim):
        top, res, first = 0.0, None, None
        for _ in range(repeats):
            sim = make_sim()
            t1 = time.perf_counter()
            res = sim.run(max_cycles=2_000_000)
            elapsed = time.perf_counter() - t1
            if first is None:
                first = elapsed
            top = max(top, topo.num_nodes * res.cycles / elapsed)
        return top, res, first

    ncs_c, res_c, _ = best(
        lambda: CompiledPacketSimulator(alg, model(), plan_cache=cache)
    )
    ncs_v, res_v, cold_v = best(
        lambda: VectorSimulator(alg, model(), tables=tables)
    )
    # Identical engines on an identical workload => identical results.
    assert (res_c.delivered, res_c.cycles) == (res_v.delivered, res_v.cycles)
    return {
        "nodes": topo.num_nodes,
        "node_cycles_per_s": {
            "compiled": round(ncs_c, 1),
            "vector": round(ncs_v, 1),
        },
        "delivered": res_v.delivered,
        "vector_speedup": round(ncs_v / ncs_c, 2),
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
        "workload": "dynamic injection lambda=1, warm shared tables/plan cache",
        "metric": f"node_cycles_per_s (best of {repeats})",
        "python": platform.python_version(),
        "results": {
            key: _bench_kernel_workload(key, *rest, repeats=repeats)
            for key, *rest in KERNEL_WORKLOADS
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def perf_smoke() -> float:
    """CI-sized saturated check: the kernel path must still win.

    A single small cell (hypercube-n8, ``lambda = 1`` random, 120
    cycles) with a deliberately generous floor — the full-size n10
    suite shows ~7x and this cell ~3x locally, so 1.5x only trips if
    the batched kernel path stops engaging at all.  Runs in well under
    a minute on a CI VM.
    """
    row = _bench_kernel_workload(
        "smoke",
        lambda: Hypercube(8),
        HypercubeAdaptiveRouting,
        lambda t: RandomTraffic(t),
        120,
    )
    speedup = row["vector_speedup"]
    assert row["tables"]["kernel"], "hop kernel missing on hypercube"
    assert speedup >= 1.5, (
        f"perf smoke: saturated hypercube-n8 speedup {speedup} < 1.5x floor"
    )
    return speedup


@pytest.mark.perf
def test_kernel_benchmark():
    """Regenerate BENCH_kernels.json; the batched vector engine must
    reach >=4x the compiled engine at lambda=1 on hypercube-n10-random
    (ISSUE 8 acceptance target, up from 1.76x pre-kernels)."""
    payload = write_kernel_bench()
    print()
    print(json.dumps(payload, indent=2))
    speedup = payload["results"]["hypercube-n10-random-lam1"][
        "vector_speedup"
    ]
    assert speedup >= 4.0, (
        f"saturated hypercube-n10-random speedup {speedup} < 4x"
    )


@pytest.mark.perf
def test_vector_benchmark():
    """Regenerate BENCH_vector.json; the vector engine must reach >=10x
    the compiled engine on at least one 1024+-node workload (ISSUE 6
    acceptance target)."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    big = [
        row["vector_speedup"]
        for row in payload["results"].values()
        if row["nodes"] >= 1024
    ]
    assert big and max(big) >= 10.0, (
        f"no 1024+-node workload reached 10x (best: {max(big, default=0)})"
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        print(f"perf smoke passed: {perf_smoke()}x")
    else:
        print(json.dumps(write_bench(), indent=2))
        print(f"wrote {BENCH_PATH}")
        print(json.dumps(write_kernel_bench(), indent=2))
        print(f"wrote {KERNEL_BENCH_PATH}")
