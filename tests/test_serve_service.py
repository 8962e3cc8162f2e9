"""The service loop (`repro.serve.service`): drain, determinism, HTTP.

The two contracts docs/SERVING.md pins:

* **graceful drain** — between the stop signal and the final snapshot
  no packet is lost: every injected packet is delivered before the
  loop exits (deferred offers are *cancelled*, counted, and were never
  injected);
* **record-mode determinism** — identical scenario + seed + cycle
  budget produce byte-identical event logs, run to run and engine to
  engine.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.request

import pytest

from repro.serve import (
    EXIT_CLEAN,
    EXIT_DRAIN_TIMEOUT,
    OpenLoopInjection,
    TrafficService,
    load_scenario,
)
from repro.sim import VectorSimulator
from repro.sim.tables import EngineCapabilityError
from repro.telemetry import prometheus_text


def scenario_raw(**service_overrides) -> dict:
    service = {
        "duration_cycles": 300,
        "tick_cycles": 25,
        "record": True,
        "admission": {"policy": "defer", "max_deferred_per_node": 4},
    }
    service.update(service_overrides)
    return {
        "name": "svc-test",
        "seed": 31,
        "topology": {"family": "hypercube", "size": 4},
        "populations": [
            {
                "name": "gold",
                "qos": "gold",
                "users": {"mean": 40},
                "rate_per_user": 0.02,
            },
            {
                "name": "bronze",
                "qos": "bronze",
                "users": {"mean": 60, "distribution": "normal",
                          "variance": 100},
                "rate_per_user": 0.04,
                "load_shape": {"kind": "bursty", "period": 100,
                               "multiplier": 3, "burst_cycles": 25},
            },
        ],
        "service": service,
    }


def run_service(engine="reference", **service_overrides) -> TrafficService:
    svc = TrafficService(
        load_scenario(scenario_raw(**service_overrides)), engine=engine
    )
    assert svc.serve() == EXIT_CLEAN
    return svc


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_duration_drain_loses_no_packets():
    svc = run_service()
    r = svc.result
    assert r.injected > 0
    assert r.injected == r.delivered
    assert r.undelivered == 0
    assert svc.model.drain_reason == "duration budget reached"
    # Admission arithmetic closes: every offer was accepted, dropped,
    # shed, cancelled, or is still deferred (backlog is empty after
    # the drain cancellation).
    adm = svc.model.admission
    for qos in adm.classes():
        assert adm.offered.get(qos, 0) == (
            adm.accepted.get(qos, 0)
            + adm.dropped.get(qos, 0)
            + adm.shed.get(qos, 0)
            + adm.cancelled.get(qos, 0)
        )
    assert adm.deferred_total == 0


def test_signal_drain_loses_no_packets():
    """request_stop mid-run: in-flight packets all deliver."""
    scn = load_scenario(scenario_raw(duration_cycles=None))
    svc = TrafficService(scn, engine="reference")
    # Trip the stop from inside the tick callback after ~100 cycles,
    # deterministically (no wall clock involved).
    original = svc._on_tick

    def tick(sim, cycle):
        if cycle >= 100:
            svc.request_stop("test-stop")
        original(sim, cycle)

    svc.model.on_tick = tick
    assert svc.serve() == EXIT_CLEAN
    r = svc.result
    assert r.injected == r.delivered and r.undelivered == 0
    assert svc.model.drain_reason == "test-stop"
    assert svc.model.draining


def test_drain_cancels_backlog_and_counts_it():
    # Saturate: high rate + drop-averse defer policy builds a backlog.
    svc = run_service(
        duration_cycles=150,
        admission={"policy": "defer", "max_deferred_per_node": 64},
    )
    adm = svc.model.admission
    assert svc.result.injected == svc.result.delivered
    assert adm.deferred_total == 0  # backlog cancelled at drain


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_record_mode_byte_identical_across_runs_and_engines():
    logs = {}
    for engine in ("reference", "vector", "compiled"):
        logs[engine] = run_service(engine=engine).probe.log.to_jsonl()
    assert logs["reference"] == logs["vector"] == logs["compiled"]
    # Run-to-run on the same engine too.
    again = run_service(engine="reference").probe.log.to_jsonl()
    assert again == logs["reference"]


def test_auto_engine_serves():
    svc = run_service(engine=None)  # scenario default: auto
    assert svc.result.injected == svc.result.delivered


def test_drain_limit_exit_reports_packets_in_flight():
    """A drain limit too short for the in-flight traffic exits 3 and
    says how many packets it left behind, on both fast engines."""
    for engine in ("compiled", "vector"):
        lines = []
        scn = load_scenario(
            scenario_raw(duration_cycles=150, drain_limit_cycles=1,
                         record=False)
        )
        svc = TrafficService(scn, engine=engine, emit=lines.append)
        assert svc.serve() == EXIT_DRAIN_TIMEOUT, engine
        r = svc.result
        assert svc.model.drain_timed_out
        assert r.undelivered > 0
        assert r.injected == r.delivered + r.undelivered
        assert any(
            line.startswith(f"drain limit exceeded: {r.undelivered} packets")
            and "still in flight" in line
            for line in lines
        ), lines


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_qos_latency_split_by_class():
    svc = run_service()
    snap = svc.registry.snapshot()
    gold = snap.get('repro_qos_latency_cycles{qos=gold}')
    bronze = snap.get('repro_qos_latency_cycles{qos=bronze}')
    assert gold and gold["count"] > 0
    assert bronze and bronze["count"] > 0
    delivered = snap["repro_packets_delivered_total"]["value"]
    assert gold["count"] + bronze["count"] == delivered
    # The uid->qos map was fully consumed (bounded memory).
    assert svc.model.uid_qos == {}


#: The series the probe derives from the event stream.
_EVENT_SERIES = re.compile(
    r"^(repro_packets_\w+_total|repro_hops_total|"
    r"repro_phase_transitions_total|"
    r"(repro_latency_cycles|repro_qos_latency_cycles)(_bucket|_sum|_count)?)"
    r"[{ ]"
)


def _event_series(text: str) -> list[str]:
    return [line for line in text.splitlines() if _EVENT_SERIES.match(line)]


def test_live_metrics_equal_across_engines_every_tick():
    """Metrics-only serving streams event-derived metrics live on the
    vector engine: every tick's scrape equals the compiled engine's,
    and the vector engine holds no buffered event past its step."""
    scn = scenario_raw(duration_cycles=200, tick_cycles=10, record=False)
    scn["topology"] = {"family": "mesh", "size": 5}
    snapshots = {}
    for engine in ("compiled", "vector"):
        svc = TrafficService(load_scenario(scn), engine=engine)
        ticks = []
        on_tick = svc.model.on_tick

        def tick(sim, cycle, on_tick=on_tick, ticks=ticks, svc=svc):
            on_tick(sim, cycle)
            ticks.append(_event_series(prometheus_text(svc.registry)))

        svc.model.on_tick = tick
        if engine == "vector":
            sim = svc.sim
            assert type(sim) is VectorSimulator
            step = sim.step

            def checked_step(sim=sim, step=step):
                step()
                assert sim._recording
                assert not (
                    sim._ev_inject or sim._ev_enqueue
                    or sim._ev_hop or sim._ev_deliver
                )

            sim.step = checked_step
        assert svc.serve() == EXIT_CLEAN
        snapshots[engine] = ticks
    assert len(snapshots["compiled"]) > 10
    assert snapshots["compiled"] == snapshots["vector"]
    # Live, not at drain: latency was observed well before the end.
    mid = snapshots["vector"][len(snapshots["vector"]) // 2]
    count = next(
        line for line in mid if line.startswith("repro_latency_cycles_count")
    )
    assert float(count.split()[-1]) > 0


def test_admission_metrics_published():
    svc = run_service()
    snap = svc.registry.snapshot()
    offered = sum(
        v["value"] for k, v in snap.items()
        if k.startswith("repro_admission_offers_total{outcome=offered")
    )
    assert offered == sum(svc.model.admission.offered.values())
    assert "repro_service_cycle" in snap
    assert "repro_offered_load" in snap
    assert 'repro_active_users{population=gold}' in snap


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
def test_endpoint_scrapes_during_run(tmp_path):
    scn = load_scenario(scenario_raw(duration_cycles=None,
                                     tick_seconds=0.005))
    svc = TrafficService(scn, engine="reference")
    codes = []
    t = threading.Thread(target=lambda: codes.append(svc.serve(port=0)))
    t.start()
    try:
        deadline = time.monotonic() + 10
        while svc.endpoint is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc.endpoint is not None
        url = svc.endpoint.url
        time.sleep(0.1)
        metrics = urllib.request.urlopen(url + "/metrics").read().decode()
        health = json.loads(
            urllib.request.urlopen(url + "/healthz").read().decode()
        )
        assert health["status"] == "ok"
        assert health["phase"] == "serving"
        assert health["scenario"] == "svc-test"
        assert "repro_service_cycle" in metrics
        missing = urllib.request.urlopen(url + "/nope")
    except urllib.error.HTTPError as exc:
        assert exc.code == 404
    finally:
        svc.request_stop("test shutdown")
        t.join(timeout=60)
    assert codes == [EXIT_CLEAN]
    r = svc.result
    assert r.injected == r.delivered


def test_artifacts_written(tmp_path):
    scn = load_scenario(scenario_raw())
    svc = TrafficService(scn, engine="reference")
    assert svc.serve(outdir=tmp_path) == EXIT_CLEAN
    assert (tmp_path / "events.jsonl").exists()
    assert (tmp_path / "metrics.prom").exists()
    assert (tmp_path / "summary.json").exists()
    text = (tmp_path / "metrics.prom").read_text()
    assert "repro_qos_latency_cycles" in text


# ----------------------------------------------------------------------
# Engine policy: refuse loudly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "sharded"])
def test_unservable_engines_refused(engine):
    scn = load_scenario(scenario_raw())
    with pytest.raises(EngineCapabilityError) as exc:
        TrafficService(scn, engine=engine)
    assert "docs/S" in str(exc.value)  # points at the docs


# ----------------------------------------------------------------------
# Workload model details
# ----------------------------------------------------------------------
def test_open_loop_model_resamples_users():
    scn = load_scenario(scenario_raw())
    svc = run_service()
    model = svc.model
    assert isinstance(model, OpenLoopInjection)
    for pop in model.populations:
        assert pop.active_users >= 0
        assert 0.0 <= pop.rate <= 1.0
    assert model.attempts >= model.successes > 0
    assert scn.seed == model.scenario.seed


def test_drain_is_idempotent():
    scn = load_scenario(scenario_raw())
    svc = TrafficService(scn, engine="reference")
    svc.model.begin_drain("first", 10)
    svc.model.begin_drain("second", 20)
    assert svc.model.drain_reason == "first"
    assert svc.model.drain_cycle == 10
