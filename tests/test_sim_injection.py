"""Unit tests for the injection models."""

import pytest

from repro.routing import HypercubeAdaptiveRouting
from repro.sim import (
    ComplementTraffic,
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    make_rng,
)
from repro.topology import Hypercube


def make_sim(n=3, injection=None):
    cube = Hypercube(n)
    alg = HypercubeAdaptiveRouting(cube)
    return PacketSimulator(alg, injection), cube


def test_static_injection_validates_count():
    cube = Hypercube(3)
    with pytest.raises(ValueError):
        StaticInjection(0, RandomTraffic(cube), make_rng(0))


def test_static_backlog_size():
    cube = Hypercube(3)
    inj = StaticInjection(3, RandomTraffic(cube), make_rng(0))
    sim, _ = make_sim(3, inj)
    inj.setup(sim)
    assert inj.total == 3 * 8
    assert all(inj.backlog(ui).size == 3 for ui in range(8))


def test_static_skips_permutation_fixed_points():
    """Nodes mapped to themselves stay silent (leveled-permutation
    fixed points like 0...0)."""
    cube = Hypercube(3)
    from repro.sim import LeveledPermutationTraffic

    pattern = LeveledPermutationTraffic(cube, make_rng(0))
    inj = StaticInjection(1, pattern, make_rng(1))
    sim, _ = make_sim(3, inj)
    inj.setup(sim)
    fixed = sum(1 for u, d in pattern.mapping.items() if u == d)
    assert inj.total == 8 - fixed
    assert fixed >= 2  # 000 and 111 are always fixed points


def test_static_finished_only_when_all_delivered():
    cube = Hypercube(3)
    inj = StaticInjection(1, ComplementTraffic(cube), make_rng(0))
    sim, _ = make_sim(3, inj)
    inj.setup(sim)
    assert not inj.finished(sim, 0)
    res = sim.run(max_cycles=1000)
    assert res.delivered == inj.total


def test_dynamic_validates_parameters():
    cube = Hypercube(3)
    t = RandomTraffic(cube)
    with pytest.raises(ValueError):
        DynamicInjection(0.0, t, make_rng(0), duration=10)
    with pytest.raises(ValueError):
        DynamicInjection(1.5, t, make_rng(0), duration=10)
    with pytest.raises(ValueError):
        DynamicInjection(0.5, t, make_rng(0), duration=10, warmup=10)


def test_dynamic_attempt_accounting_lambda_one():
    """With lambda=1 and an empty network, every node injects every
    cycle, so successes == attempts initially."""
    cube = Hypercube(3)
    inj = DynamicInjection(
        1.0, RandomTraffic(cube), make_rng(0), duration=5, warmup=0
    )
    sim, _ = make_sim(3, inj)
    inj.attempt(sim, 0)
    assert inj.attempts == 8
    assert inj.successes == 8
    # Second attempt in the same cycle state: queues still occupied.
    inj.attempt(sim, 0)
    assert inj.attempts == 16
    assert inj.successes == 8


def test_dynamic_warmup_not_measured():
    cube = Hypercube(3)
    inj = DynamicInjection(
        1.0, RandomTraffic(cube), make_rng(0), duration=10, warmup=5
    )
    sim, _ = make_sim(3, inj)
    inj.attempt(sim, 2)  # during warm-up
    assert inj.attempts == 0


def test_dynamic_finished_at_duration():
    cube = Hypercube(3)
    inj = DynamicInjection(
        0.5, RandomTraffic(cube), make_rng(0), duration=7, warmup=1
    )
    sim, _ = make_sim(3, inj)
    assert not inj.finished(sim, 5)
    assert inj.finished(sim, 6)


def test_latency_measured_only_after_warmup():
    cube = Hypercube(3)
    inj = DynamicInjection(
        1.0, RandomTraffic(cube), make_rng(1), duration=100, warmup=60
    )
    sim, _ = make_sim(3, inj)
    res = sim.run()
    # Messages injected before cycle 60 are excluded from stats.
    assert res.latency.count < res.delivered
