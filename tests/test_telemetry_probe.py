"""Probe behavior on live engines, plus exporters and snapshots."""

import csv
import io
import json
import math

import pytest

from repro.core.message import reset_message_ids
from repro.experiments.runner import build_simulator
from repro.routing import HypercubeAdaptiveRouting
from repro.sim import RandomTraffic, StaticInjection, make_rng
from repro.telemetry import (
    TelemetryProbe,
    occupancy_csv,
    prometheus_text,
    queue_occupancy_snapshot,
    summary_json,
    wait_for_graph,
    write_artifacts,
)
from repro.topology import Hypercube


def run_probe(n=3, probe=None, engine="reference", seed=0, packets=1):
    reset_message_ids()
    topo = Hypercube(n)
    alg = HypercubeAdaptiveRouting(topo)
    model = StaticInjection(packets, RandomTraffic(topo), make_rng(seed))
    probe = probe if probe is not None else TelemetryProbe()
    sim = build_simulator(alg, model, engine=engine, telemetry=probe)
    result = sim.run(max_cycles=100_000)
    return probe, result


def test_probe_populates_summary_and_result():
    probe, result = run_probe()
    s = probe.summary
    assert result.telemetry is s
    assert s["injected"] == result.injected
    assert s["delivered"] == result.delivered
    assert s["cycles"] == result.cycles
    assert s["hops"]["total"] == s["hops"]["static"] + s["hops"]["dynamic"]
    assert 0 <= s["hops"]["dynamic_fraction"] <= 1
    assert 0 < s["link_utilization"] <= 1
    assert s["latency"]["count"] == result.delivered
    assert s["latency"]["mean"] == pytest.approx(result.l_avg)
    assert s["latency"]["max"] == result.l_max
    assert s["drops"] == 0 and s["fault_epochs"] == 0


def test_event_log_conserves_packets():
    probe, result = run_probe(packets=2)
    counts = probe.log.counts()
    assert counts["inject"] == result.injected
    assert counts["deliver"] == result.delivered
    assert counts.get("drop", 0) == 0


def test_metrics_only_mode_keeps_no_log_or_series():
    probe, _ = run_probe(probe=TelemetryProbe(events=False))
    assert probe.log is None
    assert not probe.series_enabled
    assert probe.occupancy_series == []
    assert probe.summary["events"] is None
    assert probe.summary["injected"] > 0


def test_disabled_probe_is_inert():
    probe, result = run_probe(probe=TelemetryProbe(enabled=False))
    assert probe.summary is None
    assert result.telemetry is None
    assert probe.registry.snapshot() == {}
    assert probe.sim._events is None


def test_occupancy_sampling_stride():
    dense, _ = run_probe(probe=TelemetryProbe(occupancy_every=1))
    sparse, _ = run_probe(probe=TelemetryProbe(occupancy_every=4))
    d = dense.summary["occupancy"]["samples"]
    s = sparse.summary["occupancy"]["samples"]
    assert 0 < s < d
    cycles = {row[0] for row in sparse.occupancy_series}
    assert all(c % 4 == 0 for c in cycles)


def test_auto_engine_with_telemetry_is_vector(monkeypatch):
    """The default engine (the retired ``auto``) with a probe is the
    vector engine."""
    from repro.routing import TorusRouting
    from repro.sim import VectorSimulator
    from repro.topology import Torus

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    topo = Hypercube(3)
    alg = HypercubeAdaptiveRouting(topo)
    model = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    sim = build_simulator(alg, model, telemetry=True)
    assert type(sim) is VectorSimulator
    topo = Torus((4, 4))
    model = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    sim = build_simulator(TorusRouting(topo), model, telemetry=True)
    assert type(sim) is VectorSimulator


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def test_prometheus_text_format():
    probe, _ = run_probe()
    text = prometheus_text(probe.registry)
    assert "# TYPE repro_packets_delivered_total counter" in text
    assert "# TYPE repro_latency_cycles histogram" in text
    assert 'repro_hops_total{link_type="static"}' in text
    assert 'repro_latency_cycles_bucket{le="+Inf"}' in text
    assert "repro_latency_cycles_count" in text
    # one TYPE header per metric name
    types = [ln for ln in text.splitlines() if ln.startswith("# TYPE")]
    assert len(types) == len({t.split()[2] for t in types})


def test_occupancy_csv_shape():
    probe, result = run_probe()
    rows = list(csv.reader(io.StringIO(occupancy_csv(probe.occupancy_series))))
    assert rows[0] == ["cycle", "node", "kind", "occupancy"]
    assert len(rows) - 1 == len(probe.occupancy_series)
    assert all(len(r) == 4 for r in rows)


def test_summary_json_strict():
    probe, _ = run_probe(probe=TelemetryProbe(events=False, series=False))
    data = json.loads(summary_json(probe.summary))
    assert data["schema"] == 1
    # NaN-free by construction: json.loads with default parse succeeds
    assert data["events"] is None


def test_write_artifacts(tmp_path):
    probe, _ = run_probe()
    paths = write_artifacts(probe, tmp_path, prefix="x-")
    assert set(paths) == {"events", "metrics", "occupancy", "summary"}
    for p in paths.values():
        assert p.exists() and p.read_text()
    assert (tmp_path / "x-events.jsonl").exists()

    lean, _ = run_probe(probe=TelemetryProbe(events=False, series=False))
    paths = write_artifacts(lean, tmp_path / "lean")
    assert set(paths) == {"metrics", "summary"}


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def test_queue_occupancy_snapshot_keys():
    topo = Hypercube(3)
    alg = HypercubeAdaptiveRouting(topo)
    model = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    sim = build_simulator(alg, model, engine="reference")
    sim.injection.setup(sim)
    snap = queue_occupancy_snapshot(sim)
    assert set(snap) == {
        (u, kind) for u in sim.nodes for kind in sim.central[u]
    }
    assert all(v >= 0 for v in snap.values())


def test_wait_graph_empty_when_uncongested():
    topo = Hypercube(3)
    alg = HypercubeAdaptiveRouting(topo)
    model = StaticInjection(1, RandomTraffic(topo), make_rng(0))
    probe = TelemetryProbe()
    sim = build_simulator(alg, model, engine="reference", telemetry=probe)
    sim.injection.setup(sim)
    sim.step()
    g = probe.wait_graph()
    assert g.number_of_edges() == 0
    assert probe.wait_cycle() is None
    assert isinstance(wait_for_graph(sim).number_of_nodes(), int)


def test_snapshots_equal_across_engines_mid_run():
    """Snapshots read either engine through its queue views: on a
    saturated 4x4 mesh at equal seeds, the vector engine's occupancy
    snapshot, wait-for edges and the probe's wait graph and wait cycle
    equal the reference engine's, sampled every 10 cycles mid-run."""
    from repro.routing import MeshAdaptiveRouting
    from repro.sim import DynamicInjection, VectorSimulator
    from repro.topology import Mesh

    shots = {}
    for engine in ("reference", "vector"):
        topo = Mesh((4, 4))
        model = DynamicInjection(
            1.0, RandomTraffic(topo), make_rng(7), duration=200
        )
        probe = TelemetryProbe(events=False)
        sim = build_simulator(
            MeshAdaptiveRouting(topo), model, engine=engine,
            telemetry=probe, central_capacity=1,
        )
        sim.injection.setup(sim)
        shots[engine] = []
        for _ in range(6):
            for _ in range(10):
                sim.step()
            shots[engine].append((
                queue_occupancy_snapshot(sim),
                list(wait_for_graph(sim).edges),
                list(probe.wait_graph().edges),
                probe.wait_cycle(),
            ))
    assert type(sim) is VectorSimulator
    assert shots["vector"] == shots["reference"]
    assert all(any(occ.values()) for occ, *_ in shots["reference"])
    assert any(edges for _, edges, _, _ in shots["reference"])
