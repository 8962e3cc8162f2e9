"""Tests for the structured event tracer."""

from repro.core.message import reset_message_ids
from repro.routing import HypercubeAdaptiveRouting
from repro.sim import ComplementTraffic, StaticInjection, make_rng
from repro.sim.trace import TracingSimulator
from repro.topology import Hypercube


def traced_run(n=3):
    reset_message_ids()
    cube = Hypercube(n)
    alg = HypercubeAdaptiveRouting(cube)
    inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
    sim = TracingSimulator(alg, inj)
    sim.run(max_cycles=5_000)
    return sim


def test_every_packet_has_full_timeline():
    sim = traced_run()
    uids = list(sim.packets())
    assert len(uids) == 8
    for uid in uids:
        tl = sim.timeline(uid)
        assert tl[0].kind == "inject"
        assert tl[-1].kind == "deliver"
        # complement route: n+1 distinct nodes visited (a phase fold
        # adds a same-node queue event but no extra node).
        enters = [e for e in tl if e.kind == "enter"]
        assert len({e.queue.node for e in enters}) == 3 + 1
        assert 3 + 1 <= len(enters) <= 3 + 2


def test_timeline_cycles_monotone():
    sim = traced_run()
    for uid in sim.packets():
        cycles = [e.cycle for e in sim.timeline(uid)]
        assert cycles == sorted(cycles)


def test_timeline_matches_latency():
    sim = traced_run()
    for uid in sim.packets():
        tl = sim.timeline(uid)
        assert tl[-1].cycle - tl[0].cycle == 2 * 3 + 1  # the 2n+1 law


def test_enter_events_follow_adjacent_nodes():
    sim = traced_run(4)
    topo = Hypercube(4)
    for uid in sim.packets():
        nodes = [
            e.queue.node
            for e in sim.timeline(uid)
            if e.kind in ("inject", "enter")
        ]
        for a, b in zip(nodes, nodes[1:]):
            assert a == b or topo.is_adjacent(a, b)


def test_format_timeline_readable():
    sim = traced_run()
    uid = next(sim.packets())
    text = sim.format_timeline(uid)
    assert "inject" in text and "deliver" in text


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
    sim = traced_run()
    for uid, expected in GOLDEN_TIMELINES.items():
        assert sim.format_timeline(uid) == expected


def test_tracer_exposes_raw_event_log():
    sim = traced_run()
    counts = sim.log.counts()
    assert counts["inject"] == 8 and counts["deliver"] == 8
    assert sim.log.to_jsonl().count("\n") == len(sim.log)
