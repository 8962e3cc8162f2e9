"""The shared seeded sampler (`repro.sim.sampling`).

Property tests: the empirical Bernoulli firing rate stays within
statistical tolerance of the configured lambda, user-count draws match
their distribution's mean/variance, and the extraction out of
``DynamicInjection`` changed nothing about the injection stream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.rng import make_rng
from repro.sim.sampling import (
    USER_DISTRIBUTIONS,
    _fire_ids,
    draw_arrival_ids,
    draw_user_count,
)
from repro.sim.traffic import RandomTraffic
from repro.topology import Hypercube

N = 64


# ----------------------------------------------------------------------
# _fire_ids: the Bernoulli firing draw under draw_arrival_ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [0.05, 0.25, 0.5, 0.9])
def test_empirical_rate_matches_lambda(rate):
    """Mean firing fraction over many cycles ~ lambda.

    With N = 64 nodes * 400 cycles = 25600 Bernoulli trials the
    standard error is sqrt(p(1-p)/N) <= 0.0032; a 5-sigma band keeps
    the test deterministic-for-this-seed while still catching any
    systematic bias (e.g. an off-by-one in the threshold compare).
    """
    rng = make_rng(42, f"sampling-{rate}")
    cycles = 400
    fired = sum(_fire_ids(N, rate, rng).size for _ in range(cycles))
    n = N * cycles
    se = math.sqrt(rate * (1 - rate) / n)
    assert abs(fired / n - rate) < 5 * se


def test_rate_one_fires_everyone_without_consuming_rng():
    rng = make_rng(0, "sampling-one")
    before = rng.bit_generator.state["state"]["state"]
    assert _fire_ids(N, 1.0, rng).tolist() == list(range(N))
    assert _fire_ids(N, 2.0, rng).tolist() == list(range(N))
    assert rng.bit_generator.state["state"]["state"] == before


def test_rate_zero_fires_no_one():
    rng = make_rng(0, "sampling-zero")
    assert _fire_ids(N, 0.0, rng).size == 0
    assert _fire_ids(N, -0.5, rng).size == 0


def test_firing_preserves_node_order():
    rng = make_rng(3, "sampling-order")
    fired = _fire_ids(N, 0.5, rng)
    assert fired.size and (np.diff(fired) > 0).all()


# ----------------------------------------------------------------------
# draw_arrival_ids
# ----------------------------------------------------------------------
def test_draw_arrivals_filters_fixed_points_and_tags_sources():
    cube = Hypercube(4)
    nodes = list(cube.nodes())
    rng = make_rng(9, "arrivals")
    pattern = RandomTraffic(cube)
    seen = 0
    for _ in range(200):
        src, dst = draw_arrival_ids(nodes, 0.3, pattern, rng)
        assert (src != dst).all()
        assert (src[1:] > src[:-1]).all()  # one offer per node, in order
        seen += src.size
    assert seen > 0


def test_draw_arrivals_empirical_rate():
    cube = Hypercube(4)
    nodes = list(cube.nodes())
    rng = make_rng(5, "arrivals-rate")
    pattern = RandomTraffic(cube)
    rate, cycles = 0.2, 600
    total = sum(
        draw_arrival_ids(nodes, rate, pattern, rng)[0].size
        for _ in range(cycles)
    )
    n = len(nodes) * cycles
    # Uniform random over 16 nodes has a 1/16 fixed-point chance, so
    # the delivered-offer rate is rate * 15/16.
    expect = rate * (len(nodes) - 1) / len(nodes)
    se = math.sqrt(expect * (1 - expect) / n)
    assert abs(total / n - expect) < 5 * se


# ----------------------------------------------------------------------
# draw_user_count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("distribution", USER_DISTRIBUTIONS)
def test_user_counts_nonnegative_integers(distribution):
    rng = make_rng(1, f"users-{distribution}")
    for _ in range(500):
        k = draw_user_count(distribution, 20.0, 36.0, rng)
        assert isinstance(k, int) and k >= 0


@pytest.mark.parametrize(
    "distribution,variance",
    [("poisson", None), ("normal", 25.0), ("log_normal", 25.0)],
)
def test_user_count_empirical_mean(distribution, variance):
    rng = make_rng(8, f"users-mean-{distribution}")
    mean, n = 50.0, 4000
    draws = [
        draw_user_count(distribution, mean, variance, rng) for _ in range(n)
    ]
    var = variance if variance is not None else mean
    se = math.sqrt(var / n)
    # Rounding to integers adds at most 0.5 of bias headroom.
    assert abs(sum(draws) / n - mean) < 5 * se + 0.5


def test_zero_mean_draws_zero():
    rng = make_rng(2, "users-degenerate")
    for distribution in USER_DISTRIBUTIONS:
        assert draw_user_count(distribution, 0.0, None, rng) == 0


def test_unknown_distribution_rejected():
    rng = make_rng(2, "users-bad")
    with pytest.raises(ValueError, match="distribution"):
        draw_user_count("zipf", 10.0, None, rng)


# ----------------------------------------------------------------------
# DynamicInjection equivalence: the extraction changed no byte
# ----------------------------------------------------------------------
def test_dynamic_injection_stream_unchanged():
    """Re-derive DynamicInjection's firing decisions by hand.

    The model must consume exactly one ``rng.random(len(nodes))``
    vector per cycle and fire node i iff ``vec[i] < rate`` — the
    contract the byte-identical event-log tests depend on.
    """
    rate = 0.3
    rng_a = make_rng(7, "dyn-equiv")
    rng_b = make_rng(7, "dyn-equiv")
    for _ in range(50):
        fired = _fire_ids(N, rate, rng_a)
        vec = rng_b.random(N)
        assert fired.tolist() == [i for i, x in enumerate(vec) if x < rate]
