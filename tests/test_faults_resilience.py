"""Degradation experiments: the acceptance-level resilience behavior.

CI scale stays small (n<=5 cubes, <=8x8 meshes); the bigger sweeps are
marked ``slow`` and excluded from tier-1 by ``pytest.ini``.
"""

import math

import pytest

from repro.faults import (
    FaultSchedule,
    degradation_sweep,
    link_down,
    run_with_faults,
)
from repro.routing import HypercubeAdaptiveRouting, Mesh2DAdaptiveRouting
from repro.sim import RandomTraffic, StaticInjection, make_rng
from repro.topology import Hypercube, Mesh2D


def test_scripted_link_down_n5_hypercube_delivers_99_percent():
    """Acceptance: a scripted link-down schedule on the n=5 cube keeps
    delivering at least 99% of the packets that remain deliverable."""
    cube = Hypercube(5)
    alg = HypercubeAdaptiveRouting(cube)
    links = sorted(cube.links(), key=repr)
    # stagger eight link failures across the early run
    faults = [
        link_down(*links[i * 7], at=5 * k)
        for k, i in enumerate([0, 3, 6, 9, 12, 15, 18, 21])
    ]
    schedule = FaultSchedule.fixed(cube, faults)
    model = StaticInjection(2, RandomTraffic(cube), make_rng(42))
    rr = run_with_faults(
        alg, model, schedule, measure_overhead=True, max_cycles=2_000_000
    )
    assert rr.generated == 2 * cube.num_nodes
    assert rr.delivered_of_deliverable >= 0.99
    # the traced overhead is well-defined and non-negative
    assert rr.reroute_overhead >= 0.0


@pytest.mark.parametrize(
    "family, size",
    [("hypercube", 4), ("mesh", 5)],
)
def test_degradation_sweep_ci_scale(family, size):
    rows = degradation_sweep(family, size, [0, 2], seed=7)
    assert [r["failed_links"] for r in rows] == [0, 2]
    healthy, degraded = rows
    # healthy baseline: full delivery, minimal routes, no halt
    assert healthy["delivered_frac"] == 1.0
    assert healthy["delivered_of_deliverable"] == 1.0
    assert healthy["reroute_overhead"] == 0.0
    assert healthy["faults"] == "healthy"
    assert healthy["latency_x"] == 1.0
    # degraded: still delivers everything deliverable, honestly labeled
    assert degraded["delivered_of_deliverable"] == 1.0
    assert degraded["faults"] != "healthy"
    assert degraded["reroute_overhead"] >= 0.0
    assert degraded["latency_x"] >= 1.0


def test_sweep_prepends_healthy_baseline():
    rows = degradation_sweep("hypercube", 3, [1], seed=3)
    assert [r["failed_links"] for r in rows] == [0, 1]


def test_sweep_rejects_unknown_family():
    with pytest.raises(ValueError):
        degradation_sweep("torus", 4, [0, 1])


def test_sweep_parallel_matches_serial():
    serial = degradation_sweep("hypercube", 3, [0, 1, 2], seed=9, workers=1)
    parallel = degradation_sweep("hypercube", 3, [0, 1, 2], seed=9, workers=2)
    assert serial == parallel


def test_detour_disabled_parks_and_watchdog_flags_it():
    """Without detours a packet whose minimal hops all died just parks.
    Its destination is still reachable, so the watchdog refuses to call
    it undeliverable and raises a deadlock report naming the stuck-but-
    deliverable packets — while the detour-enabled run delivers them."""
    from repro.faults import DeadlockDetected

    cube = Hypercube(3)
    alg = HypercubeAdaptiveRouting(cube)
    # packets heading to 5 lose both incoming phase-B links
    schedule = FaultSchedule.fixed(cube, [link_down(7, 5), link_down(4, 5)])
    model = StaticInjection(2, RandomTraffic(cube), make_rng(6))
    with_detour = run_with_faults(
        alg, model, schedule, detour=True, max_cycles=500_000
    )
    assert with_detour.delivered_of_deliverable == 1.0

    model2 = StaticInjection(2, RandomTraffic(Hypercube(3)), make_rng(6))
    with pytest.raises(DeadlockDetected) as exc:
        run_with_faults(
            HypercubeAdaptiveRouting(Hypercube(3)),
            model2,
            schedule,
            detour=False,
            max_cycles=500_000,
        )
    assert exc.value.report.stuck_deliverable > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "family, size, counts",
    [("hypercube", 5, [0, 2, 4, 8, 12]), ("mesh", 8, [0, 2, 4, 8])],
)
def test_degradation_sweep_large(family, size, counts):
    """Larger sweeps (run explicitly with ``pytest -m slow``)."""
    rows = degradation_sweep(
        family, size, counts, seed=12345, packets_per_node=2
    )
    assert len(rows) == len(counts)
    for row in rows:
        assert row["delivered_of_deliverable"] >= 0.99
        assert not math.isnan(row["reroute_overhead"])
    # overhead grows (weakly) with damage on average: last >= first
    assert rows[-1]["reroute_overhead"] >= rows[0]["reroute_overhead"]


def test_deadlocked_cell_is_a_row_not_an_abort(capsys):
    """``repro faults --family mesh --size 8 --counts 0,4,8 --packets 4
    --verify --telemetry``: the 8-link cell deadlocks (cycle 1031, one
    deliverable packet stuck).  It becomes a row that says so, the 0-
    and 4-link rows are kept, the table prints, and the exit code is
    non-zero."""
    from repro.cli import main

    code = main(
        "faults --family mesh --size 8 --counts 0,4,8 --packets 4 "
        "--verify --telemetry".split()
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "verify under faults" in out
    head, _sep, *body = out.split("\n\n")[0].splitlines()
    cols = head.split()
    assert cols[:3] == ["failed_links", "delivered", "generated"]
    assert cols[8:12] == ["cycles", "halt", "stuck", "stuck_deliverable"]
    healthy, four, eight = (line.split() for line in body)
    assert healthy[:5] == ["0", "256", "256", "1.0", "1.0"]
    assert four[:5] == ["4", "256", "256", "1.0", "1.0"]
    # The deadlocked cell fills only the watchdog's columns.
    assert eight == ["8", "1031", "deadlock", "1", "1"]
