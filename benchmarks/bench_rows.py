"""Cold row-assembly benchmark: wall time and peak RSS per fresh process.

Runs the vector engine at ``lambda = 1`` (300 cycles after 100 warmup
cycles) on the two topologies whose rows are assembled key by key —
the shuffle-exchange at n = 10 and the CCC at dimension 7 — with and
without the algorithm's hop kernel (``RoutingTables(alg,
use_kernel=...)``).  Each run is one fresh Python process, so the
wall time (tables build to the end of the run) includes every first
row miss and the peak RSS (``getrusage``) every row store.

One side per source tree, ``--side NAME=SRC`` (default: this
checkout's ``src`` alone).  Each round runs every cell once per side,
and the side that runs first alternates from round to round.  With two
sides, each cell and metric is summarised over its pairs of runs (one
pair per round): in how many pairs the second side was lower, both
medians, and the first side's interquartile range::

    python benchmarks/bench_rows.py --side parent=../parent/src \\
        --side change=src --rounds 10 --out BENCH_rows.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

CELLS = ("shuffle-n10", "ccc-7")


def run_cell(cell: str, use_kernel: bool) -> dict:
    """One cold run in this process; returns its measurements."""
    import resource

    from repro.routing import CCCAdaptiveRouting, ShuffleExchangeRouting
    from repro.sim import (
        DynamicInjection,
        RandomTraffic,
        RoutingTables,
        VectorSimulator,
        make_rng,
    )
    from repro.topology import CubeConnectedCycles, ShuffleExchange

    alg = {
        "shuffle-n10": lambda: ShuffleExchangeRouting(ShuffleExchange(10)),
        "ccc-7": lambda: CCCAdaptiveRouting(CubeConnectedCycles(7)),
    }[cell]()
    topo = alg.topology
    model = DynamicInjection(
        1.0, RandomTraffic(topo), make_rng(1), duration=300, warmup=100
    )
    t0 = time.perf_counter()
    tables = RoutingTables(alg, use_kernel=use_kernel)
    result = VectorSimulator(alg, model, tables=tables).run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "rows_packed": tables.rows_packed,
        "delivered": result.delivered,
    }


def cold(src: str, cell: str, use_kernel: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, __file__, "--cell", cell, str(int(use_kernel))],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def paired(runs: dict, names: list[str]) -> dict:
    """Per cell and metric: ``lower`` and ``higher`` (pairs in which the
    second side's run was lower or higher than the first side's run of
    the same round), ``pairs``, both sides' ``median`` and the first
    side's ``iqr``."""
    out = {}
    for cell in CELLS:
        for use_kernel in (0, 1):
            key = f"{cell} kernel={use_kernel}"
            a, b = (runs[f"{key} {name}"] for name in names)
            out[key] = {}
            for m in ("wall_s", "peak_rss_mb"):
                xa = [r[m] for r in a]
                xb = [r[m] for r in b]
                q = statistics.quantiles(xa, n=4) if len(xa) > 1 else [0] * 3
                out[key][m] = {
                    "lower": sum(y < x for x, y in zip(xa, xb)),
                    "higher": sum(y > x for x, y in zip(xa, xb)),
                    "pairs": len(xa),
                    "median": [
                        round(statistics.median(xa), 3),
                        round(statistics.median(xb), 3),
                    ],
                    "iqr": round(q[2] - q[0], 3),
                }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", action="append", metavar="NAME=SRC")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", help="write the runs and medians as JSON")
    p.add_argument("--cell", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(args.cell[0], args.cell[1] == "1")))
        return 0
    sides = dict(s.split("=", 1) for s in args.side or ["change=src"])
    runs: dict[str, list[dict]] = {}
    for rnd in range(args.rounds):
        order = list(sides.items())
        if rnd % 2:
            order.reverse()
        for cell in CELLS:
            for use_kernel in (False, True):
                for name, src in order:
                    key = f"{cell} kernel={int(use_kernel)} {name}"
                    runs.setdefault(key, []).append(
                        cold(os.path.abspath(src), cell, use_kernel)
                    )
    medians = {
        key: {
            m: statistics.median(r[m] for r in rs)
            for m in ("wall_s", "peak_rss_mb", "rows_packed", "delivered")
        }
        for key, rs in runs.items()
    }
    for key, med in medians.items():
        walls = [r["wall_s"] for r in runs[key]]
        print(
            f"{key:34s} wall {min(walls):6.2f}-{max(walls):6.2f} s "
            f"(median {med['wall_s']:.2f})  peak {med['peak_rss_mb']:6.1f} MB"
            f"  rows {med['rows_packed']:>9,}  delivered {med['delivered']:,}"
        )
    pairs = paired(runs, list(sides)) if len(sides) == 2 else {}
    for key, metrics in pairs.items():
        for m, r in metrics.items():
            print(
                f"{key:22s} {m:11s} lower in {r['lower']}/{r['pairs']}, "
                f"higher in {r['higher']}/{r['pairs']} pairs, median "
                f"{r['median'][0]:.2f} -> {r['median'][1]:.2f}, "
                f"first side's IQR {r['iqr']}"
            )
    if args.out:
        doc = {
            "command": "python benchmarks/bench_rows.py " + " ".join(
                f"--side {name}=..." for name in sides
            ) + f" --rounds {args.rounds}",
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "runs": runs,
            "medians": medians,
            "pairs": pairs,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
