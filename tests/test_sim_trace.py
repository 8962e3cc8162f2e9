"""Tests for the per-packet trace view over the event log.

Every test reads the log of both engines: their canonical logs are
byte-identical, so the view must tell the same story from either.
"""

import pytest

from repro.core.message import reset_message_ids
from repro.experiments import build_simulator
from repro.routing import HypercubeAdaptiveRouting
from repro.sim import (
    ComplementTraffic,
    PacketSimulator,
    StaticInjection,
    VectorSimulator,
    make_rng,
)
from repro.sim.trace import PacketTrace
from repro.telemetry import TelemetryProbe
from repro.topology import Hypercube

ENGINES = ("reference", "vector")


def traced_run(engine, n=3):
    reset_message_ids()
    cube = Hypercube(n)
    alg = HypercubeAdaptiveRouting(cube)
    inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
    probe = TelemetryProbe()
    build_simulator(alg, inj, engine=engine, telemetry=probe).run(
        max_cycles=5_000
    )
    return PacketTrace(probe.log)


def traced_runs(n=3):
    """``(engine, trace)`` for each engine, same workload."""
    return [(engine, traced_run(engine, n)) for engine in ENGINES]


def test_every_packet_has_full_timeline():
    for engine, trace in traced_runs():
        uids = list(trace.packets())
        assert len(uids) == 8, engine
        for uid in uids:
            tl = trace.timeline(uid)
            assert tl[0].kind == "inject"
            assert tl[-1].kind == "deliver"
            # complement route: n+1 distinct nodes visited (a phase fold
            # adds a same-node queue event but no extra node).
            enters = [e for e in tl if e.kind == "enter"]
            assert len({e.queue.node for e in enters}) == 3 + 1, engine
            assert 3 + 1 <= len(enters) <= 3 + 2, engine


def test_timeline_cycles_monotone():
    for engine, trace in traced_runs():
        for uid in trace.packets():
            cycles = [e.cycle for e in trace.timeline(uid)]
            assert cycles == sorted(cycles), engine


def test_timeline_matches_latency():
    for engine, trace in traced_runs():
        for uid in trace.packets():
            tl = trace.timeline(uid)
            # the 2n+1 law
            assert tl[-1].cycle - tl[0].cycle == 2 * 3 + 1, engine


def test_enter_events_follow_adjacent_nodes():
    topo = Hypercube(4)
    for engine, trace in traced_runs(4):
        for uid in trace.packets():
            nodes = [
                e.queue.node
                for e in trace.timeline(uid)
                if e.kind in ("inject", "enter")
            ]
            for a, b in zip(nodes, nodes[1:]):
                assert a == b or topo.is_adjacent(a, b), engine


def test_format_timeline_readable():
    for engine, trace in traced_runs():
        uid = next(trace.packets())
        text = trace.format_timeline(uid)
        assert "inject" in text and "deliver" in text, engine


#: Golden ``format_timeline`` output, captured from the original
#: bespoke tracer before the telemetry-event-log port.  uid 0 is a
#: plain all-A route; uid 4 includes the B-phase fold at its pivot
#: node (same node, new queue class) — the subtlest reconstruction
#: case.  Byte-for-byte stability is the backward-compat contract.
GOLDEN_TIMELINES = {
    0: (
        "  cycle    0: inject   q[inj@0]\n"
        "  cycle    0: enter    q[A@0]\n"
        "  cycle    1: enter    q[A@1]\n"
        "  cycle    3: enter    q[A@3]\n"
        "  cycle    5: enter    q[A@7]\n"
        "  cycle    7: deliver  q[del@7]"
    ),
    4: (
        "  cycle    0: inject   q[inj@4]\n"
        "  cycle    0: enter    q[A@4]\n"
        "  cycle    1: enter    q[A@5]\n"
        "  cycle    3: enter    q[A@7]\n"
        "  cycle    4: enter    q[B@7]\n"
        "  cycle    5: enter    q[B@3]\n"
        "  cycle    7: deliver  q[del@3]"
    ),
}


def test_format_timeline_golden():
    for engine, trace in traced_runs():
        for uid, expected in GOLDEN_TIMELINES.items():
            assert trace.format_timeline(uid) == expected, engine


def test_tracer_exposes_raw_event_log():
    for engine, trace in traced_runs():
        counts = trace.log.counts()
        assert counts["inject"] == 8 and counts["deliver"] == 8, engine
        assert trace.log.to_jsonl().count("\n") == len(trace.log), engine


def test_view_follows_a_growing_log():
    """The view holds the log, so events appended after it was built
    (a run still in progress) show up on the next query."""
    reset_message_ids()
    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
    probe = TelemetryProbe()
    sim = build_simulator(alg, inj, engine="vector", telemetry=probe)
    trace = PacketTrace(probe.log)
    assert trace.events == []
    sim.run(max_cycles=5_000)
    assert trace.format_timeline(0) == GOLDEN_TIMELINES[0]


@pytest.mark.parametrize("engine", [PacketSimulator, VectorSimulator])
def test_engines_take_no_trace_argument(engine):
    """Tracing is a view over the log, not an engine option."""
    cube = Hypercube(3)
    inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
    with pytest.raises(TypeError, match="unexpected keyword argument 'trace'"):
        engine(HypercubeAdaptiveRouting(cube), inj, trace=True)
