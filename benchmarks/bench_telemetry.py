"""Telemetry overhead benchmark: what does observability cost?

Measures vector-engine throughput (the engine ``auto`` picks) on a
saturated hypercube workload in four configurations —

* ``baseline``    — no probe attached at all;
* ``disabled``    — a ``TelemetryProbe(enabled=False)`` attached (the
  configuration sweeps inherit when ``--telemetry`` is off: one
  ``probe.enabled`` check per cycle and no event sink);
* ``metrics``     — streaming metrics-only probe (``events=False``),
  the mode ``--telemetry`` sweeps use;
* ``events``      — full probe (event log + occupancy series), the
  ``repro telemetry`` artifact mode;

and writes everything, plus the relative overheads versus baseline, to
``BENCH_telemetry.json`` at the repo root.  The contract enforced here
is the disabled path: attaching-but-disabling telemetry must cost the
vector engine **< 5%** throughput, so instrumented builds can leave
the hooks in place everywhere.

Run standalone (writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

or through pytest (the ``perf`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -m perf -s
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.core.message import reset_message_ids
from repro.experiments import build_simulator
from repro.routing import HypercubeAdaptiveRouting
from repro.sim import DynamicInjection, RandomTraffic, make_rng
from repro.telemetry import TelemetryProbe
from repro.topology import Hypercube

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_telemetry.json"

CYCLES = 300
REPEATS = 5
N = 6

#: Probe factory per configuration (None = no probe attached).
CONFIGS = {
    "baseline": lambda: None,
    "disabled": lambda: TelemetryProbe(enabled=False),
    "metrics": lambda: TelemetryProbe(events=False),
    "events": lambda: TelemetryProbe(),
}

#: The hard bound on the disabled-path overhead (fraction of baseline).
DISABLED_BUDGET = 0.05


def run_config(make_probe, cycles=CYCLES):
    """Time one vector-engine run; returns (node-cycles/s, result)."""
    reset_message_ids()
    topo = Hypercube(N)
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(0, "bench"), duration=cycles
    )
    sim = build_simulator(
        HypercubeAdaptiveRouting(topo),
        model,
        engine="vector",
        telemetry=make_probe(),
    )
    t0 = time.perf_counter()
    result = sim.run(max_cycles=2_000_000)
    elapsed = time.perf_counter() - t0
    return topo.num_nodes * result.cycles / elapsed, result


def collect(cycles=CYCLES, repeats=REPEATS) -> dict:
    """Best-of-``repeats`` node-cycles/s per configuration, interleaved
    round-robin so machine noise hits every configuration equally."""
    best = {key: 0.0 for key in CONFIGS}
    delivered = {}
    for _ in range(repeats):
        for key, make_probe in CONFIGS.items():
            ncs, result = run_config(make_probe, cycles)
            best[key] = max(best[key], ncs)
            delivered[key] = result.delivered
    # Telemetry must never change behavior, only measure it.
    assert len(set(delivered.values())) == 1, delivered
    out = {
        "node_cycles_per_s": {k: round(v, 1) for k, v in best.items()},
        "delivered": delivered["baseline"],
    }
    base = best["baseline"]
    out["overhead_vs_baseline"] = {
        k: round(1.0 - best[k] / base, 4) for k in CONFIGS if k != "baseline"
    }
    return out


def write_bench(path: Path = BENCH_PATH, cycles=CYCLES) -> dict:
    payload = {
        "benchmark": "telemetry-overhead",
        "workload": (
            f"vector engine, hypercube n={N}, dynamic lambda=1 "
            f"random traffic, {cycles} cycles"
        ),
        "metric": f"node_cycles_per_s (best of {REPEATS}, interleaved)",
        "disabled_budget": DISABLED_BUDGET,
        "python": platform.python_version(),
        "results": collect(cycles=cycles),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perf
def test_telemetry_overhead():
    """Regenerate BENCH_telemetry.json; a disabled probe must cost the
    vector engine < 5% throughput."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    overhead = payload["results"]["overhead_vs_baseline"]["disabled"]
    assert overhead < DISABLED_BUDGET, (
        f"disabled-telemetry overhead {overhead:.1%} exceeds "
        f"{DISABLED_BUDGET:.0%} budget"
    )


if __name__ == "__main__":
    print(json.dumps(write_bench(), indent=2))
    print(f"wrote {BENCH_PATH}")
