"""Unit tests for the traffic patterns (paper, Section 7)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import (
    BitReversalTraffic,
    ComplementTraffic,
    LeveledPermutationTraffic,
    MeshTransposeTraffic,
    RandomTraffic,
    ShufflePermutationTraffic,
    TornadoTraffic,
    TransposeTraffic,
    hypercube_pattern,
    make_rng,
    transpose_address,
)
from repro.experiments.other_topologies import (
    CCCComplementTraffic,
    SEBitReversalTraffic,
)
from repro.routing.benes import BenesTraffic
from repro.sim.sampling import draw_arrival_ids
from repro.sim.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    TrafficPattern,
)
from repro.topology import (
    BenesNetwork,
    CubeConnectedCycles,
    Hypercube,
    Mesh2D,
    ShuffleExchange,
    Torus,
)
from repro.topology.hypercube import hamming_weight


def test_random_never_self():
    cube = Hypercube(4)
    t = RandomTraffic(cube)
    rng = make_rng(0)
    for u in cube.nodes():
        for _ in range(20):
            assert t.draw(u, rng) != u


def test_random_covers_all_destinations():
    cube = Hypercube(3)
    t = RandomTraffic(cube)
    rng = make_rng(1)
    seen = {t.draw(0, rng) for _ in range(500)}
    assert seen == set(range(1, 8))


def test_complement():
    cube = Hypercube(4)
    t = ComplementTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b0000, rng) == 0b1111
    assert t.draw(0b1010, rng) == 0b0101
    assert t.is_permutation


def test_transpose_even_n():
    assert transpose_address(0b1100, 4) == 0b0011
    assert transpose_address(0b1000, 4) == 0b0010
    assert transpose_address(0b0110, 4) == 0b1001


def test_transpose_odd_n_keeps_middle_bit():
    # n=5: halves are 2 bits; the middle bit (position 2) stays.
    assert transpose_address(0b11000, 5) == 0b00011
    assert transpose_address(0b00100, 5) == 0b00100


def test_transpose_is_involution():
    for n in (4, 5, 6, 7):
        for u in range(1 << n):
            assert transpose_address(transpose_address(u, n), n) == u


def test_leveled_permutation_preserves_level():
    cube = Hypercube(5)
    t = LeveledPermutationTraffic(cube, make_rng(7))
    rng = make_rng(0)
    for u in cube.nodes():
        assert hamming_weight(t.draw(u, rng)) == hamming_weight(u)


def test_leveled_permutation_is_bijective():
    cube = Hypercube(4)
    t = LeveledPermutationTraffic(cube, make_rng(3))
    targets = sorted(t.mapping.values())
    assert targets == list(cube.nodes())


def test_bit_reversal():
    cube = Hypercube(4)
    t = BitReversalTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b0001, rng) == 0b1000
    assert t.draw(0b1010, rng) == 0b0101


def test_shuffle_permutation():
    cube = Hypercube(3)
    t = ShufflePermutationTraffic(cube)
    rng = make_rng(0)
    assert t.draw(0b001, rng) == 0b010
    assert t.draw(0b100, rng) == 0b001


def test_mesh_transpose():
    m = Mesh2D(4)
    t = MeshTransposeTraffic(m)
    rng = make_rng(0)
    assert t.draw((1, 3), rng) == (3, 1)
    with pytest.raises(ValueError):
        MeshTransposeTraffic(Mesh2D(2, 3))


def test_tornado():
    t5 = Torus((5, 5))
    t = TornadoTraffic(t5)
    rng = make_rng(0)
    assert t.draw((0, 0), rng) == (2, 0)
    assert t.draw((4, 1), rng) == (1, 1)


def test_permutation_rejects_non_injective():
    with pytest.raises(ValueError):
        PermutationTraffic({0: 1, 2: 1}, "broken")


def test_factory():
    cube = Hypercube(4)
    rng = make_rng(0)
    for name in ("random", "complement", "transpose", "leveled",
                 "bit-reversal", "shuffle-perm"):
        p = hypercube_pattern(name, cube, rng)
        assert p.name in (name, "leveled")
    with pytest.raises(ValueError):
        hypercube_pattern("nope", cube, rng)


@given(st.integers(2, 6), st.integers(0, 1000))
def test_random_traffic_uniform_support(n, seed):
    cube = Hypercube(n)
    t = RandomTraffic(cube)
    rng = make_rng(seed)
    d = t.draw(0, rng)
    assert 0 < d < cube.num_nodes


# ----------------------------------------------------------------------
# Batch draws: draw_arrival_ids replays the per-node draw loop
# ----------------------------------------------------------------------
def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _cube_patterns(cube):
    rng = make_rng(4, "batch-leveled")
    return [
        RandomTraffic(cube),
        ComplementTraffic(cube),
        TransposeTraffic(cube),
        LeveledPermutationTraffic(cube, rng),
        BitReversalTraffic(cube),
        ShufflePermutationTraffic(cube),
        HotspotTraffic(cube),
        HotspotTraffic(cube, hotspot=0, fraction=0.5),
        PermutationTraffic(
            {u: (u + 1) % cube.num_nodes for u in cube.nodes()}, "rotate"
        ),
    ]


def _grid_patterns():
    mesh = Mesh2D(4, 4)
    torus = Torus((5, 3))
    benes = BenesNetwork(2)
    ccc = CubeConnectedCycles(3)
    se = ShuffleExchange(4)
    return [
        (mesh, RandomTraffic(mesh)),
        (mesh, MeshTransposeTraffic(mesh)),
        (mesh, HotspotTraffic(mesh, hotspot=(1, 2))),
        (torus, TornadoTraffic(torus)),
        (torus, RandomTraffic(torus)),
        (benes, BenesTraffic(benes)),
        (benes, BenesTraffic(benes, make_rng(2), permutation=True)),
        (ccc, CCCComplementTraffic(ccc)),
        (se, SEBitReversalTraffic(se)),
    ]


BATCH_CASES = [
    (f"cube{n}-{p.name}", Hypercube(n), p)
    for n in (3, 4, 5, 6)
    for p in _cube_patterns(Hypercube(n))
] + [(f"{type(t).__name__}-{p.name}", t, p) for t, p in _grid_patterns()]


def test_batch_cases_cover_every_pattern_class():
    shipped = {
        cls for cls in _subclasses(TrafficPattern)
        if cls.__module__.startswith("repro.")
    }
    assert shipped <= {type(p) for _, _, p in BATCH_CASES}


def _per_node_arrivals(nodes, rate, pattern, rng):
    """The pre-batch sampler: one Bernoulli vector, then one
    ``pattern.draw`` per firing node, fixed points dropped."""
    if rate >= 1.0:
        fired = nodes
    else:
        fired = [u for u, x in zip(nodes, rng.random(len(nodes))) if x < rate]
    out = []
    for u in fired:
        dst = pattern.draw(u, rng)
        if dst != u:
            out.append((u, dst))
    return out


@pytest.mark.parametrize("rate", [0.3, 1.0])
@pytest.mark.parametrize(
    "case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES]
)
def test_draw_arrival_ids_matches_per_node_draws(case, rate):
    _, topo, pattern = case
    nodes = list(topo.nodes())
    rng_batch = make_rng(17, "batch-draw")
    rng_loop = make_rng(17, "batch-draw")
    for _ in range(12):
        src, dst = draw_arrival_ids(nodes, rate, pattern, rng_batch)
        assert src.dtype == dst.dtype == np.int64
        pairs = zip(src.tolist(), dst.tolist())
        got = [(nodes[s], nodes[d]) for s, d in pairs]
        assert got == _per_node_arrivals(nodes, rate, pattern, rng_loop)
        assert rng_batch.random() == rng_loop.random()
