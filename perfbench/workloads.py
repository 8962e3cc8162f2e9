"""The benchmark's workloads: what each one builds, runs and checks.

Every workload goes through the entry points a user calls, with the
default engine choice (``auto``):

* paper-table cells: ``PAPER_TABLES[k].experiment(n, seed).build(n)``
  then ``.run()``;
* the service: ``TrafficService(parse_scenario(...))`` then
  ``.serve()``, with ``prometheus_text(registry)`` rendered every
  ``SCRAPE_EVERY_TICKS`` ticks as a scraper would.

The seed is the benchmark's argument; the program only receives the
experiment or scenario built from it.  ``BENCHMARK.json`` and
``README.md`` say why each workload is here.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

#: Service tick (simulated cycles) and scrape cadence of serve-mesh16.
SERVE_TICK_CYCLES = 10
SERVE_DURATION_CYCLES = 1200
SCRAPE_EVERY_TICKS = 10

_LATENCY_COUNT = re.compile(r"^repro_latency_cycles_count (\S+)$", re.M)


class PaperCell:
    """One cell of a paper table (Section 7), run cold."""

    kind = "paper"

    def __init__(self, table: int, n: int):
        self.table = table
        self.n = n

    def import_program(self) -> None:
        from repro.experiments.paper import PAPER_TABLES  # noqa: F401

    def topology_class(self):
        from repro.topology.hypercube import Hypercube

        return Hypercube

    def setup(self, seed: int):
        from repro.experiments.paper import PAPER_TABLES

        return PAPER_TABLES[self.table].experiment(self.n, seed).build(self.n)

    @staticmethod
    def simulator(handle):
        return handle

    def install_clock(self, handle, ticks, render=None) -> None:
        """Sample the host and mark a tick (``hostspeed.Ticks``) at the
        start of every simulated cycle."""
        model = handle.injection
        inner = model.attempt

        def attempt(sim, cycle):
            ticks.sample()
            ticks.mark()
            return inner(sim, cycle)

        model.attempt = attempt

    def run(self, handle) -> dict:
        from repro.experiments.paper import PAPER_TABLES

        result = handle.run()
        spec = PAPER_TABLES[self.table]
        out = _result_outcome(result)
        out.update(
            kind="static" if spec.injection == "static" else "dynamic",
            planned=getattr(handle.injection, "total", 0),
        )
        ref = spec.reference.get(self.n)
        out["paper_l_avg"] = ref[0] if ref else None
        return out


class ServeCell:
    """``TrafficService`` on a 16x16 mesh with two populations."""

    kind = "serve"

    def __init__(self):
        #: Latency count seen by the last scrape before the drain.
        self.live_count = 0

    @staticmethod
    def scenario(seed: int) -> dict:
        """Gold: random traffic on a diurnal swell that is at its trough
        at both ends of the run.  Bronze: 20%-hotspot batch traffic with
        4x bursts in the first 60 cycles of every 600.  The load stays
        below the mesh's saturation point, so admission defers some
        offers during bursts but drops, sheds and cancels none."""
        return {
            "name": "bench-mesh16",
            "seed": seed,
            "topology": {"family": "mesh", "size": 16},
            "algorithm": "adaptive",
            "populations": [
                {
                    "name": "gold",
                    "qos": "gold",
                    "users": {"mean": 600, "distribution": "poisson"},
                    "rate_per_user": 0.01,
                    "pattern": "random",
                    "resample_every": 50,
                    "load_shape": {
                        "kind": "diurnal",
                        "period": SERVE_DURATION_CYCLES,
                        "amplitude": 0.8,
                        "phase": -math.pi / 2,
                    },
                },
                {
                    "name": "bronze",
                    "qos": "bronze",
                    "users": {"mean": 150, "distribution": "poisson"},
                    "rate_per_user": 0.01,
                    "pattern": "hotspot",
                    "pattern_params": {"fraction": 0.2},
                    "resample_every": 100,
                    "load_shape": {
                        "kind": "bursty",
                        "period": SERVE_DURATION_CYCLES // 2,
                        "multiplier": 4.0,
                        "burst_cycles": 60,
                    },
                },
            ],
            "service": {
                "tick_cycles": SERVE_TICK_CYCLES,
                "duration_cycles": SERVE_DURATION_CYCLES,
                "admission": {"policy": "defer", "max_deferred_per_node": 8},
            },
        }

    def import_program(self) -> None:
        from repro.serve.service import TrafficService  # noqa: F401
        from repro.telemetry import prometheus_text  # noqa: F401

    def topology_class(self):
        from repro.topology.mesh import Mesh2D

        return Mesh2D

    def setup(self, seed: int):
        from repro.serve.scenario import parse_scenario
        from repro.serve.service import TrafficService

        return TrafficService(parse_scenario(self.scenario(seed)))

    @staticmethod
    def simulator(handle):
        return handle.sim

    def install_clock(self, handle, ticks, render=None) -> None:
        """Sample the host every cycle, mark every service tick, and
        scrape every few ticks."""
        from repro.telemetry import prometheus_text

        render = render or prometheus_text
        model = handle.model
        inner_attempt = model.attempt
        inner = model.on_tick
        registry = handle.registry
        self.live_count = 0

        def attempt(sim, cycle):
            ticks.sample()
            return inner_attempt(sim, cycle)

        def on_tick(sim, cycle):
            ticks.mark()
            inner(sim, cycle)
            if len(ticks) % SCRAPE_EVERY_TICKS == 0 and not model.draining:
                self.live_count = _latency_count(render(registry))

        model.attempt = attempt
        model.on_tick = on_tick

    def run(self, handle) -> dict:
        from repro.telemetry import prometheus_text

        code = handle.serve()
        out = _result_outcome(handle.result)
        adm = handle.model.admission
        out.update(
            kind="serve",
            exit_code=code,
            admission={
                k: dict(sorted(v.items())) if isinstance(v, dict) else v
                for k, v in adm.snapshot().items()
            },
            live_latency_count=self.live_count,
            final_latency_count=_latency_count(
                prometheus_text(handle.registry)
            ),
        )
        return out


#: Workloads by name.  BENCHMARK.json lists the ones the benchmark
#: runs, with the reason for each; static-n16-64k (the 64K-node gate,
#: about 2.5 GB peak RSS and 30 s per cold run on a 2-vCPU host) runs
#: by name only.
WORKLOADS = {
    "paper-t9-random-n8": PaperCell(9, 8),
    "paper-t12-leveled-n9": PaperCell(12, 9),
    "serve-mesh16": ServeCell(),
    "static-n13-8k": PaperCell(1, 13),
    "static-n16-64k": PaperCell(1, 16),
}


def _latency_count(text: str) -> int:
    m = _LATENCY_COUNT.search(text)
    return int(float(m.group(1))) if m else 0


def _result_outcome(result) -> dict:
    values = result.latency.values
    return {
        "cycles": result.cycles,
        "injected": result.injected,
        "delivered": result.delivered,
        "undelivered": result.undelivered,
        "latency_sum": int(sum(values)),
        "latency_max": int(max(values)) if values else 0,
        "latency_count": len(values),
        "attempts": result.attempts,
        "successes": result.successes,
    }


#: Outcome fields the digest covers (the simulated, seed-determined
#: output; host timings never enter it).
DIGEST_FIELDS = (
    "cycles", "injected", "delivered", "latency_sum", "latency_max",
    "attempts", "successes", "admission",
)


def digest(outcome: dict) -> str:
    body = {k: outcome[k] for k in DIGEST_FIELDS if k in outcome}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def operations(outcome: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one run.

    Static cells: packets injected; failed = not delivered at the end.
    Dynamic cells: packets injected; failed = lost (neither delivered
    nor still in flight when the fixed-length window closes -- packets
    in flight then are part of the table's design, not failures).
    Serve: offers; failed = dropped, shed or cancelled by admission, or
    admitted and not delivered after the drain.
    """
    kind = outcome["kind"]
    if kind == "static":
        return outcome["injected"], outcome["undelivered"]
    if kind == "dynamic":
        lost = (
            outcome["injected"] - outcome["delivered"] - outcome["undelivered"]
        )
        return outcome["injected"], abs(lost)
    adm = outcome["admission"]
    refused = sum(
        sum(adm[k].values()) for k in ("dropped", "shed", "cancelled")
    )
    return sum(adm["offered"].values()), refused + outcome["undelivered"]


def check(outcome: dict) -> list[str]:
    """Invariants every run must satisfy, whatever the seed."""
    problems = []
    kind = outcome["kind"]
    inj, dlv, left = (
        outcome["injected"], outcome["delivered"], outcome["undelivered"]
    )
    if inj < 1:
        problems.append("no packet was injected")
    if inj != dlv + left:
        problems.append(f"injected {inj} != delivered {dlv} + in flight {left}")
    if kind == "static":
        if left or dlv != outcome["planned"]:
            problems.append(
                f"static run delivered {dlv} of {outcome['planned']} packets"
            )
    elif kind == "dynamic":
        # Attempts and successes count from the warm-up on only.
        if not outcome["attempts"] >= outcome["successes"] > 0:
            problems.append("injection attempts/successes do not add up")
        if outcome["successes"] > inj:
            problems.append("more successful injections than packets")
    else:
        adm = outcome["admission"]
        if outcome["exit_code"] != 0:
            problems.append(f"serve exited {outcome['exit_code']}")
        if left or inj != dlv:
            problems.append(f"serve drained with {left} packets in flight")
        offered = sum(adm["offered"].values())
        closed = sum(
            sum(adm[k].values())
            for k in ("accepted", "dropped", "shed", "cancelled")
        ) + adm["deferred_backlog"]
        if offered != closed:
            problems.append(f"admission counters do not close: {adm}")
        if sum(adm["accepted"].values()) != inj:
            problems.append("accepted offers != injected packets")
    return problems
