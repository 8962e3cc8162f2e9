"""Cold, layer-by-layer benchmark of the reproduction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  Every measurement is a *cold* run: a
fresh Python process (``cell.py``) imports the program, builds the
simulator or service through the public entry points and runs it once.

``--trace 0`` repeats cold runs until ``--seconds`` is spent (at least
``MIN_REPS``) and prints the end-to-end metrics as medians over them,
with times in reference-host seconds (``hostspeed.py``).
``--trace 1`` makes two cold runs, untraced and traced, and prints the
per-layer metrics.  Either way every run's
output is checked (``workloads.check``), runs of one seed must agree,
and where ``digests.json`` records the seed the digest must match it.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CELL = os.path.join(HERE, "cell.py")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

from layers import percentile  # noqa: E402
from workloads import WORKLOADS, check, operations  # noqa: E402

#: Cold runs per timed measurement, at least and at most.
MIN_REPS = 3
MAX_REPS = 25
#: No new cold run starts after this many seconds (the whole benchmark
#: must finish within 180 s).
START_LIMIT_S = 110.0
CELL_TIMEOUT_S = 170.0

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


class CellFailed(RuntimeError):
    """A cold run raised, timed out or printed no result."""


def program_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))


def load_spec() -> dict:
    """``BENCHMARK.json``: workload names and every metric's unit."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
    }
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One cold run in a fresh process; waits for it to end."""
    try:
        proc = subprocess.run(
            [sys.executable, CELL, workload, str(seed), mode],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise CellFailed(f"{mode} run timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise CellFailed(
            f"{mode} run exited {proc.returncode}: " + " | ".join(tail)
        )
    return json.loads(lines[-1])


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


class Verdict:
    """Output checks and operation counts over the runs of one call."""

    def __init__(self, workload: str, seed: int):
        self.expected = recorded_digest(workload, seed)
        self.digests: set[str] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, record: dict) -> None:
        outcome = record["outcome"]
        attempted, failed = operations(outcome)
        problems = check(outcome)
        self.digests.add(record["digest"])
        if self.expected is not None and record["digest"] != self.expected:
            problems.append(
                f"digest {record['digest']} != recorded {self.expected}"
            )
        self.attempted += attempted
        self.failed += attempted if problems else failed
        self.problems += [f"{record['mode']}: {p}" for p in problems]

    def add_crash(self, exc: CellFailed) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(str(exc))

    def close(self) -> bool:
        """Final verdict: True when every check passed."""
        if len(self.digests) > 1:
            self.problems.append(
                f"runs of one seed disagree: {sorted(self.digests)}"
            )
        return not self.problems


def run_context(records: list[dict]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    src.update(f.encode() + b"\0" + fh.read())
    first = records[0] if records else {}
    return {
        "engine": first.get("engine"),
        "host_cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "reps": len(records),
    }


def timed_metrics(records: list[dict]) -> dict:
    """End-to-end metrics in reference-host seconds (``hostspeed.py``).

    Each run's times are divided by its own host factor (ticks by the
    factor around them, in ``cell.py``); ticks are pooled over the
    runs, every other figure is the median over runs.
    """
    def med(values):
        return statistics.median(values)

    walls = [r["setup_s"] + r["run_s"] for r in records]
    ticks = [t for r in records for t in r["tick_ms"]]
    print(
        f"measured: wall {med(walls):.4f} s at host factor "
        f"{med([r['host_factor'] for r in records]):.3f} (median); "
        f"tick samples: {len(ticks)} over {len(records)} cold runs"
    )
    return {
        "wall_s": med([w / r["host_factor"] for w, r in zip(walls, records)]),
        "setup_s": med([r["setup_s"] / r["host_factor"] for r in records]),
        "node_cycles_per_s": med([
            r["nodes"] * r["outcome"]["cycles"] * r["host_factor"] / r["run_s"]
            for r in records
        ]),
        "peak_rss_mb": med([r["rss_mb"] for r in records]),
        "tick_p50_ms": med(ticks),
        "tick_p95_ms": percentile(ticks, 95),
    }


def run_timed(args, verdict: Verdict) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    records: list[dict] = []
    while len(records) < MAX_REPS:
        elapsed = time.perf_counter() - start
        try:
            rec = spawn(args.workload, args.seed, "plain",
                        CELL_TIMEOUT_S - elapsed)
        except CellFailed as exc:
            verdict.add_crash(exc)
            break
        verdict.add(rec)
        records.append(rec)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(records)
        print(
            f"run {len(records)}: import {rec['import_s']:.3f} s, setup "
            f"{rec['setup_s']:.3f} s, run "
            f"{rec['run_s']:.3f} s, host factor {rec['host_factor']:.3f}, "
            f"rss {rec['rss_mb']:.0f} MB, digest {rec['digest']}"
        )
        if len(records) >= MIN_REPS and (
            elapsed + per_rep > args.seconds or elapsed > START_LIMIT_S
        ):
            break
    return (timed_metrics(records) if records else {}), records


def not_applicable(metrics: dict, records: dict) -> list[str]:
    """Why some per-layer metrics read 0 on this workload."""
    notes = []
    engine = records["trace"]["engine"]
    outcome = records["trace"]["outcome"]
    if metrics["tables.rows"] == 0:
        notes.append(
            f"tables.*, hops.*: auto picked {engine}, which builds no "
            "RoutingTables"
        )
    elif metrics["plans.plan_calls"] == 0:
        notes.append("plans.*, routing.*: every row came from a hop kernel")
    if outcome["kind"] != "serve":
        notes.append("admission.*, serve.*: no service on this workload")
    if metrics["telemetry.events"] == 0:
        notes.append("telemetry.*: no probe is attached on this workload")
    if outcome.get("paper_l_avg") is None:
        notes.append("paper.l_avg_err_pct: the paper has no row for this cell")
    return notes


def run_traced(args, verdict: Verdict) -> tuple[dict, list[dict]]:
    records: dict[str, dict] = {}
    start = time.perf_counter()
    for mode in ("plain", "trace"):
        elapsed = time.perf_counter() - start
        try:
            records[mode] = spawn(
                args.workload, args.seed, mode, CELL_TIMEOUT_S - elapsed
            )
        except CellFailed as exc:
            verdict.add_crash(exc)
            return {}, list(records.values())
        verdict.add(records[mode])
    plain, traced = records["plain"], records["trace"]
    print(f"memory pass: {traced['mem_pass_s']:.2f} s after the traced run")
    m = dict(traced["layers"])
    m["trace.overhead_pct"] = 100.0 * (
        (traced["setup_s"] + traced["run_s"]) / traced["host_factor"]
        / ((plain["setup_s"] + plain["run_s"]) / plain["host_factor"]) - 1.0
    )
    outcome = plain["outcome"]
    paper = outcome.get("paper_l_avg")
    l_avg = outcome["latency_sum"] / max(1, outcome["latency_count"])
    m["paper.l_avg_err_pct"] = (
        100.0 * abs(l_avg - paper) / paper if paper else 0.0
    )
    m["ops.failed_frac"] = verdict.failed / max(1, verdict.attempted)
    for note in not_applicable(m, records):
        print("n/a " + note)
    return m, list(records.values())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"error: no program under {ROOT}/src; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = load_spec()

    verdict = Verdict(args.workload, args.seed)
    if args.trace:
        values, records = run_traced(args, verdict)
        names = spec["per_layer"]
    else:
        values, records = run_timed(args, verdict)
        names = spec["end_to_end"]
    if not records:
        print("error: no cold run completed: " + "; ".join(verdict.problems),
              file=sys.stderr)
        return 1
    print("context: " + json.dumps(run_context(records), sort_keys=True))
    correct = verdict.close()
    for problem in verdict.problems:
        print("check failed: " + problem)
    # A run that crashed may leave metrics uncomputed; it is reported
    # as incorrect, with those metrics at 0.
    metrics = {
        m["name"]: {
            "value": values[m["name"]] if correct else values.get(m["name"], 0.0),
            "unit": m["unit"],
        }
        for m in names
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
