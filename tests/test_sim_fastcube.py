"""Cross-validation of the hypercube vec path against the reference.

``auto`` runs the hypercube two-phase algorithms on
:class:`VectorSimulator`, whose batch rows come from the hypercube hop
kernel's bit arithmetic.  It must be *packet-for-packet identical* to
:class:`PacketSimulator` — same latency multiset, same cycle counts,
same injection statistics — for every configuration.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import (
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
)
from repro.sim import (
    ComplementTraffic,
    DynamicInjection,
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    TransposeTraffic,
    VectorSimulator,
    make_rng,
)
from repro.topology import Hypercube


def run_both(n, make_inj, alg_cls=HypercubeAdaptiveRouting, **kw):
    cube = Hypercube(n)
    ref = PacketSimulator(alg_cls(cube), make_inj(cube), **kw).run(
        max_cycles=500_000
    )
    vec = VectorSimulator(alg_cls(cube), make_inj(cube), **kw).run(
        max_cycles=500_000
    )
    return ref, vec


def assert_identical(ref, vec):
    assert sorted(ref.latency.values) == sorted(vec.latency.values)
    assert ref.cycles == vec.cycles
    assert ref.injected == vec.injected
    assert ref.delivered == vec.delivered
    assert ref.attempts == vec.attempts
    assert ref.successes == vec.successes


def test_static_complement_identical():
    ref, vec = run_both(
        5, lambda c: StaticInjection(1, ComplementTraffic(c), make_rng(0))
    )
    assert_identical(ref, vec)
    assert vec.l_avg == 11.0  # the 2n+1 law survives


def test_static_transpose_multi_packet_identical():
    ref, vec = run_both(
        6, lambda c: StaticInjection(3, TransposeTraffic(c), make_rng(1))
    )
    assert_identical(ref, vec)


def test_static_random_identical():
    ref, vec = run_both(
        6, lambda c: StaticInjection(2, RandomTraffic(c), make_rng(2))
    )
    assert_identical(ref, vec)


def test_dynamic_saturated_identical():
    ref, vec = run_both(
        5,
        lambda c: DynamicInjection(
            1.0, ComplementTraffic(c), make_rng(3), duration=200, warmup=50
        ),
    )
    assert_identical(ref, vec)


def test_dynamic_random_identical():
    ref, vec = run_both(
        6,
        lambda c: DynamicInjection(
            0.8, RandomTraffic(c), make_rng(4), duration=150, warmup=30
        ),
    )
    assert_identical(ref, vec)


def test_hung_variant_identical():
    ref, vec = run_both(
        5,
        lambda c: DynamicInjection(
            1.0, ComplementTraffic(c), make_rng(5), duration=150, warmup=30
        ),
        alg_cls=HypercubeHungRouting,
    )
    assert_identical(ref, vec)


def test_small_capacity_identical():
    ref, vec = run_both(
        4,
        lambda c: StaticInjection(5, RandomTraffic(c), make_rng(6)),
        central_capacity=1,
    )
    assert_identical(ref, vec)


def test_runner_uses_fast_engine_for_hypercube():
    from repro.experiments import HypercubeExperiment

    exp = HypercubeExperiment(pattern="random", injection="static", seed=1)
    sim = exp.build(4)
    assert type(sim) is VectorSimulator
    sim_occ = HypercubeExperiment(
        pattern="random", injection="static", seed=1, collect_occupancy=True
    ).build(4)
    assert isinstance(sim_occ, PacketSimulator)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 5),
    packets=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    capacity=st.integers(1, 5),
    alg_cls=st.sampled_from(
        [HypercubeAdaptiveRouting, HypercubeHungRouting,
         HypercubeObliviousRouting]
    ),
)
def test_property_identical_static(n, packets, seed, capacity, alg_cls):
    ref, vec = run_both(
        n,
        lambda c: StaticInjection(packets, RandomTraffic(c), make_rng(seed)),
        alg_cls=alg_cls,
        central_capacity=capacity,
    )
    assert_identical(ref, vec)


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.3, 0.7, 1.0]),
)
def test_property_identical_dynamic(n, seed, rate):
    ref, vec = run_both(
        n,
        lambda c: DynamicInjection(
            rate, RandomTraffic(c), make_rng(seed), duration=120, warmup=30
        ),
    )
    assert_identical(ref, vec)
