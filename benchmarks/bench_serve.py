"""Service smoke harness + serve-mode throughput benchmark.

The **smoke** mode is what CI runs (the service job in
``.github/workflows/ci.yml``): it boots ``repro serve`` as a real
subprocess on ``examples/scenarios/smoke.yaml`` with an ephemeral
telemetry port, scrapes ``/metrics`` and ``/healthz`` once, sends
``SIGTERM``, and asserts the graceful drain exits with code 0 — the
whole signal path (handler -> drain flag -> backlog cancellation ->
last-packet delivery) exercised exactly the way an operator would.
It then replays a small record-mode scenario twice in-process and
asserts the two event logs are byte-identical (the docs/SERVING.md
determinism contract)::

    PYTHONPATH=src python benchmarks/bench_serve.py --smoke

The full mode measures serving throughput (simulated cycles and
delivered packets per wall second) per engine and writes
``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py

or through pytest (the ``perf`` marker keeps it out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -m perf -s
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_serve.json"
SMOKE_SCENARIO = REPO_ROOT / "examples" / "scenarios" / "smoke.yaml"

#: The record-mode determinism scenario (in-process, seconds-fast).
RECORD_SCENARIO = {
    "name": "record-check",
    "seed": 99,
    "topology": {"family": "hypercube", "size": 4},
    "populations": [
        {
            "name": "a",
            "qos": "gold",
            "users": {"mean": 30},
            "rate_per_user": 0.02,
        },
        {
            "name": "b",
            "qos": "bronze",
            "users": {"mean": 60, "distribution": "log_normal",
                      "variance": 400},
            "rate_per_user": 0.03,
            "load_shape": {"kind": "bursty", "period": 100,
                           "multiplier": 3, "burst_cycles": 20},
        },
    ],
    "service": {"duration_cycles": 400, "record": True},
}


def _spawn_serve(*extra_args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         str(SMOKE_SCENARIO), "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def _endpoint_url(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """Read stdout until the service prints its bound endpoint."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                "serve exited before announcing its endpoint "
                f"(rc={proc.poll()})"
            )
        m = re.search(r"telemetry endpoint: (http://\S+)", line)
        if m:
            return m.group(1)
    raise AssertionError("no endpoint line within timeout")


def _scrape(url: str) -> str:
    return urllib.request.urlopen(url, timeout=10).read().decode()


def serve_smoke() -> dict:
    """Boot, scrape, SIGTERM, assert clean drain; then record twice."""
    # --duration far beyond the scenario budget so SIGTERM, not the
    # budget, is what ends the run.
    proc = _spawn_serve("--duration", "10000000")
    try:
        url = _endpoint_url(proc)
        metrics = _scrape(url + "/metrics")
        health = json.loads(_scrape(url + "/healthz"))
        assert health["status"] == "ok", health
        assert health["phase"] in ("serving", "draining"), health
        assert "repro_service_cycle" in metrics, metrics[:400]
        assert "repro_admission_offers_total" in metrics or health[
            "cycle"
        ] < 50, "no admission counters after the first tick"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (
        f"serve exited {proc.returncode} after SIGTERM; tail:\n{out[-2000:]}"
    )
    assert "SIGTERM" in out and "drained at cycle" in out, out[-2000:]
    m = re.search(r"injected=(\d+) delivered=(\d+)", out)
    assert m and m.group(1) == m.group(2), (
        f"drain lost packets: {m.group(0) if m else out[-500:]}"
    )

    # Record-mode determinism: identical scenario + seed + budget =>
    # byte-identical event logs (in-process; the CLI path writes the
    # same bytes via write_artifacts).
    from repro.serve import TrafficService, load_scenario

    logs = []
    for _ in range(2):
        svc = TrafficService(load_scenario(dict(RECORD_SCENARIO)))
        assert svc.serve() == 0
        logs.append(svc.probe.log.to_jsonl())
    assert logs[0] == logs[1], "record mode is not byte-identical"

    return {
        "scraped_health": {k: health[k] for k in ("phase", "cycle")},
        "drain": m.group(0),
        "record_bytes": len(logs[0]),
    }


# ----------------------------------------------------------------------
# Full benchmark: serving throughput per engine
# ----------------------------------------------------------------------
def _throughput_cell(engine: str) -> dict:
    from repro.serve import TrafficService, load_scenario

    raw = {
        "name": f"bench-{engine}",
        "seed": 7,
        "topology": {"family": "hypercube", "size": 6},
        "populations": [
            {
                "name": "load",
                "qos": "default",
                "users": {"mean": 300},
                "rate_per_user": 0.05,
            }
        ],
        "service": {"duration_cycles": 3000, "tick_cycles": 100},
    }
    svc = TrafficService(load_scenario(raw), engine=engine)
    t0 = time.perf_counter()
    code = svc.serve()
    elapsed = time.perf_counter() - t0
    assert code == 0
    r = svc.result
    return {
        "seconds": round(elapsed, 2),
        "cycles": r.cycles,
        "delivered": r.delivered,
        "cycles_per_second": round(r.cycles / elapsed, 1),
        "delivered_per_second": round(r.delivered / elapsed, 1),
    }


def write_bench(path: Path = BENCH_PATH) -> dict:
    payload = {
        "benchmark": "serve-mode-throughput",
        "workload": "n=6 hypercube, open-loop ~15 offers/cycle, 3000 cycles",
        "metric": "simulated cycles and delivered packets per wall second",
        "python": platform.python_version(),
        "host_cpus": os.cpu_count(),
        "results": {
            engine: _throughput_cell(engine)
            for engine in ("reference", "vector")
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


@pytest.mark.perf
def test_serve_benchmark():
    """Regenerate BENCH_serve.json (throughput per serve engine)."""
    payload = write_bench()
    print()
    print(json.dumps(payload, indent=2))
    for engine, cell in payload["results"].items():
        assert cell["delivered"] > 0, f"{engine} delivered nothing"


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        print(json.dumps(serve_smoke(), indent=2))
        print("serve smoke passed: scrape + SIGTERM drain + record identity")
    else:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        print(json.dumps(write_bench(), indent=2))
        print(f"wrote {BENCH_PATH}")
