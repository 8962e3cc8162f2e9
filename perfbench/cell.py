"""One cold run of one workload, in a fresh process.

    python3 perfbench/cell.py <workload> <seed> <plain|trace>

``plain`` times the run with no instrumentation beyond one timestamp
and one host-speed sample (``hostspeed.py``) per tick; ``trace`` wraps
every layer's entry points (``layers.py``) and, once every span is
closed, measures the bytes each layer keeps alive.  Prints one JSON
object.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import Ticks  # noqa: E402
from layers import LayerTrace, memory  # noqa: E402
from spans import clock  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def run_cell(name: str, seed: int, mode: str) -> dict:
    workload = WORKLOADS[name]
    t0 = clock()
    workload.import_program()
    import_s = clock() - t0

    layers = LayerTrace(workload) if mode == "trace" else None
    if layers is not None:
        layers.before_setup()

    t1 = clock()
    handle = workload.setup(seed)
    setup_s = clock() - t1
    sim = workload.simulator(handle)

    if layers is not None:
        layers.after_setup(handle, sim)
    ticks = Ticks()
    workload.install_clock(
        handle, ticks, render=layers.render if layers else None
    )
    t2 = clock()
    outcome = workload.run(handle)
    run_s = clock() - t2 - ticks.overhead

    record = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "engine": type(sim).__name__,
        "numpy": sys.modules["numpy"].__version__,
        "nodes": len(sim.nodes),
        "import_s": import_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "host_factor": ticks.factor(),
        "tick_ms": ticks.intervals_ms(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
        "digest": digest(outcome),
    }
    if layers is not None:
        record["layers"] = layers.metrics(handle, sim, outcome)
        t3 = clock()
        record["layers"].update(memory(handle, sim))
        record["mem_pass_s"] = clock() - t3
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[3] not in ("plain", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_cell(argv[1], int(argv[2]), argv[3])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
