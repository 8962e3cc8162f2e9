"""Cross-engine telemetry identity.

The event log is part of the engines' observable behavior: at the same
seed, the reference engine (through the full fault harness) and the
vector engine must produce *byte-identical* canonical JSONL event logs
on healthy runs, and a faulted reference run must replay byte for
byte.  This is the strongest cross-engine check in the suite (stronger
than latency-multiset equality): every inject/enqueue/hop/deliver must
land on the same packet at the same cycle with the same queue.
"""

import pytest

from repro.faults import FaultSchedule, link_down, link_stall, node_down
from repro.faults.experiments import make_fault_simulator
from repro.routing import (
    HypercubeAdaptiveRouting,
    Mesh2DAdaptiveRouting,
    TorusRouting,
)
from repro.sim import (
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    VectorSimulator,
    make_rng,
)
from repro.core.message import reset_message_ids
from repro.telemetry import TelemetryProbe, prometheus_text, read_jsonl
from repro.topology import Hypercube, Mesh2D, Torus

FAMILIES = {
    "hypercube": (lambda: Hypercube(4), HypercubeAdaptiveRouting),
    "mesh": (lambda: Mesh2D(5), Mesh2DAdaptiveRouting),
}

#: Healthy-run families (no fault schedule): the torus's dateline
#: classes give four queue kinds per node, not two.
HEALTHY_FAMILIES = {
    **FAMILIES,
    "torus": (lambda: Torus((4, 4)), TorusRouting),
}

SCHEDULES = {
    "healthy": FaultSchedule.healthy,
    "immediate-links": lambda topo: FaultSchedule.random_links(
        topo, 3, seed=13
    ),
    "scripted-mixed": lambda topo: FaultSchedule.fixed(
        topo,
        [
            link_down(*_first_link(topo), at=4),
            link_stall(*_second_link(topo), at=6, until=60),
            node_down(_last_node(topo), at=15),
        ],
    ),
}


def _first_link(topo):
    return next(iter(sorted(topo.links(), key=repr)))


def _second_link(topo):
    links = sorted(topo.links(), key=repr)
    return links[len(links) // 2]


def _last_node(topo):
    return sorted(topo.nodes(), key=repr)[-1]


def _run(key, make_schedule, seed=3):
    """One instrumented fault-harness run; returns (probe, result)."""
    reset_message_ids()
    build, alg_cls = FAMILIES[key]
    topo = build()
    alg = alg_cls(topo)
    model = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
    probe = TelemetryProbe()
    sim = make_fault_simulator(alg, model, make_schedule(topo), telemetry=probe)
    result = sim.run(max_cycles=500_000)
    return probe, result


@pytest.mark.parametrize("key", sorted(FAMILIES))
@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_event_logs_byte_identical(key, name):
    """Healthy: the fault harness on the reference engine against the
    vector engine.  Faulted runs are reference-only, so they replay."""
    make_schedule = SCHEDULES[name]
    ref, _ = _run(key, make_schedule)
    if name == "healthy":
        other, _ = _run_healthy_direct(key, VectorSimulator)
    else:
        other, _ = _run(key, make_schedule)
        kinds = {r["kind"] for r in read_jsonl(ref.log.to_jsonl())}
        assert "epoch" in kinds
    assert ref.log.to_jsonl() == other.log.to_jsonl()


def _measured(summary):
    """A summary with the engine-specific fields masked.

    The engine name and the routing-compilation stats (integer-table
    gauges, `docs/OBSERVABILITY.md`) describe *how* an engine ran, by
    construction per-engine; everything measured about the traffic
    itself must still be identical.
    """
    masked = dict(summary, engine="*", routing_compile="*")
    masked["metrics"] = _traffic_metrics(summary["metrics"])
    return masked


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_summaries_identical(key):
    ref, rres = _run(key, SCHEDULES["healthy"])
    vec, vres = _run_healthy_direct(key, VectorSimulator)
    # The harness wraps the algorithm in the fault adapter and the
    # engine name differs by construction; everything measured must not.
    name = vec.summary["algorithm"]
    assert ref.summary["algorithm"] == f"fault-aware({name})"
    assert dict(_measured(ref.summary), algorithm=name) == _measured(
        vec.summary
    )
    assert rres.telemetry == ref.summary
    assert vres.telemetry == vec.summary


def test_metrics_only_probe_matches_event_replay():
    """The streaming metrics sink and the event-log replay are the same
    aggregation: a metrics-only run must report identical counters."""
    snapshots = {}
    for events in (True, False):
        reset_message_ids()
        topo = Hypercube(4)
        probe = TelemetryProbe(events=events)
        sim = make_fault_simulator(
            HypercubeAdaptiveRouting(topo),
            StaticInjection(2, RandomTraffic(topo), make_rng(3)),
            FaultSchedule.random_links(topo, 3, seed=13),
            telemetry=probe,
        )
        sim.run(max_cycles=500_000)
        snapshots[events] = probe.registry.snapshot()
        if not events:
            assert probe.log is None
    assert snapshots[True] == snapshots[False]


def _traffic_metrics(snapshot):
    """Registry snapshot minus the compilation gauges.

    ``repro_tables_compile_seconds`` is wall-clock and legitimately
    differs between two runs; the traffic aggregation must not.
    """
    return {
        name: value
        for name, value in snapshot.items()
        if not name.startswith(("repro_tables_", "repro_shard_"))
    }


def _run_healthy_direct(key, engine_cls, seed=3, events=True):
    """One healthy instrumented run with a directly-attached probe.

    The vector engine takes no fault observers, so it cannot go through
    :func:`make_fault_simulator`; attaching the probe directly compares
    both engines on equal footing.
    """
    reset_message_ids()
    build, alg_cls = HEALTHY_FAMILIES[key]
    topo = build()
    model = StaticInjection(2, RandomTraffic(topo), make_rng(seed))
    probe = TelemetryProbe(events=events)
    sim = engine_cls(alg_cls(topo), model)
    probe.attach(sim)
    result = sim.run(max_cycles=500_000)
    return probe, result


@pytest.mark.parametrize("key", sorted(HEALTHY_FAMILIES))
def test_vector_event_log_byte_identical(key):
    """The vector engine's buffered columnar events must flush to the
    same canonical JSONL bytes as the reference engine's."""
    ref, rres = _run_healthy_direct(key, PacketSimulator)
    vec, vres = _run_healthy_direct(key, VectorSimulator)
    assert ref.log.to_jsonl() == vec.log.to_jsonl()
    assert _measured(ref.summary) == _measured(vec.summary)
    assert vres.telemetry == vec.summary


@pytest.mark.parametrize("key", sorted(HEALTHY_FAMILIES))
def test_vector_metrics_only_probe_matches_event_replay(key):
    """The vector engine's bulk metrics path (columnar flush into the
    streaming sink) must aggregate exactly like the event-log replay,
    down to the exported text (Python ints, not numpy scalars)."""
    snapshots = {}
    texts = {}
    for events in (True, False):
        probe, _ = _run_healthy_direct(key, VectorSimulator, events=events)
        snapshots[events] = probe.registry.snapshot()
        texts[events] = [
            line
            for line in prometheus_text(probe.registry).splitlines()
            if "repro_tables_" not in line
        ]
        if not events:
            assert probe.log is None
    assert _traffic_metrics(snapshots[True]) == _traffic_metrics(
        snapshots[False]
    )
    assert texts[True] == texts[False]
    assert snapshots[False]["repro_phase_transitions_total"]["value"] > 0


def test_timeline_reconstruction_consistent_across_engines():
    ref, _ = _run("hypercube", SCHEDULES["healthy"])
    vec, _ = _run_healthy_direct("hypercube", VectorSimulator)
    assert ref.log.timelines() == vec.log.timelines()
    assert ref.log.timelines()  # non-empty
