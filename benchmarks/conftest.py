"""Shared helpers for the benchmark harness.

Every paper table gets one benchmark module.  Scale is controlled by
``REPRO_SCALE`` / ``REPRO_NS`` (see ``repro.experiments.runner``); the
CI default keeps each table in the seconds range.  Each benchmark

1. re-runs the table's experiment sweep inside ``pytest-benchmark``,
2. prints the regenerated table next to the paper's reference values,
3. asserts the paper-shape properties (``check_table_shape``).

Run with::

    pytest benchmarks/ --benchmark-only
    REPRO_SCALE=large pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import check_table_shape, run_table, scale_dimensions


@pytest.fixture(scope="session", autouse=True)
def engine_override_smoke():
    """``REPRO_ENGINE=reference`` must actually select the reference engine.

    Benchmarks compare engines through the ``REPRO_ENGINE`` override; a
    silent fallback to the ``auto`` choice would invalidate every number
    without failing anything, so the whole benchmark session aborts if
    the override does not reach :func:`repro.experiments.build_simulator`.
    """
    from repro.experiments import HypercubeExperiment
    from repro.sim import PacketSimulator

    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = "reference"
    try:
        sim = HypercubeExperiment(
            pattern="random", injection="static"
        ).build(3)
        assert type(sim) is PacketSimulator, (
            f"REPRO_ENGINE=reference selected {type(sim).__name__}; "
            "the engine override is broken"
        )
    finally:
        if saved is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = saved
    yield


def bench_paper_table(benchmark, number: int, algorithm_factory=None):
    """Benchmark + validate one paper table at the configured scale."""
    ns = scale_dimensions()

    def regenerate():
        return run_table(number, ns=ns, algorithm_factory=algorithm_factory)

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print()
    print(table.render())
    problems = check_table_shape(number, table)
    assert not problems, problems
    return table


@pytest.fixture
def paper_table():
    return bench_paper_table
