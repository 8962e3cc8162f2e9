"""Unit tests for metrics and result reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import LatencyStats, SimulationResult


def make_result(values, attempts=0, successes=0, cycles=100):
    lat = LatencyStats()
    for v in values:
        lat.record(v)
    return SimulationResult(
        algorithm="alg",
        topology="topo",
        pattern="pat",
        injection="inj",
        cycles=cycles,
        injected=len(values),
        delivered=len(values),
        latency=lat,
        attempts=attempts,
        successes=successes,
    )


def test_latency_stats_basic():
    s = LatencyStats()
    for v in (3, 5, 7, 9):
        s.record(v)
    assert s.count == 4
    assert s.mean == 6.0
    assert s.maximum == 9
    assert s.minimum == 3
    assert s.percentile(50) == 6.0


def test_latency_stats_empty():
    s = LatencyStats()
    assert s.count == 0
    assert math.isnan(s.mean)
    assert s.maximum == 0
    assert s.minimum == 0
    assert math.isnan(s.percentile(99))
    assert math.isnan(s.percentile(0))


def test_latency_histogram_empty():
    s = LatencyStats()
    counts, edges = s.histogram(bins=10)
    assert counts.sum() == 0
    assert len(counts) == 10
    assert len(edges) == 11
    assert list(edges) == sorted(edges)


def test_latency_histogram():
    s = LatencyStats()
    for v in range(100):
        s.record(v)
    counts, edges = s.histogram(bins=10)
    assert counts.sum() == 100
    assert len(edges) == 11


def test_result_l_avg_l_max():
    r = make_result([3, 5, 7])
    assert r.l_avg == 5.0
    assert r.l_max == 7


def test_result_injection_rate():
    r = make_result([3], attempts=200, successes=150)
    assert r.injection_rate == 0.75
    r2 = make_result([3])
    assert math.isnan(r2.injection_rate)


def test_result_throughput():
    r = make_result([3, 3], cycles=100)
    assert r.throughput == 0.02


def test_result_row_static_and_dynamic():
    r = make_result([3, 5], attempts=0)
    row = r.row()
    assert "I_r(%)" not in row
    assert row["L_avg"] == 4.0
    r2 = make_result([3, 5], attempts=100, successes=90)
    assert r2.row()["I_r(%)"] == 90.0


def test_result_row_telemetry_columns():
    r = make_result([3, 5])
    assert r.telemetry is None
    assert "link_util" not in r.row()
    r.telemetry = {
        "link_utilization": 0.12345,
        "hops": {"dynamic_fraction": 0.25},
        "occupancy": {"mean": 1.5, "peak": 4},
    }
    row = r.row()
    assert row["link_util"] == 0.1235
    assert row["dyn_hops(%)"] == 25.0
    assert row["occ_mean"] == 1.5 and row["occ_peak"] == 4


def test_record_many_equals_repeated_record():
    batches = [[7, 3, 3], np.array([12, 1, 9, 3], dtype=np.int64), [], [5]]
    one, many = LatencyStats(), LatencyStats()
    for batch in batches:
        for v in batch:
            one.record(int(v))
        many.record_many(batch)
    # The store keeps the multiset: values read back ascending.
    assert many.values == one.values == sorted([7, 3, 3, 12, 1, 9, 3, 5])
    assert many == one
    assert all(type(v) is int for v in many.values)
    assert many.count == one.count
    assert many.mean == one.mean
    assert many.maximum == one.maximum and many.minimum == one.minimum
    for p in (0, 50, 90, 99, 100):
        assert many.percentile(p) == one.percentile(p)


PERCENTILES = (0, 1, 12.5, 25, 33.3, 50, 66.7, 90, 95, 99, 99.9, 100)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 40), st.integers(0, 5000), st.integers(0, 10**6)
        ),
        max_size=300,
    ),
    st.integers(1, 40),
)
def test_histogram_store_equals_list_statistics(values, bins):
    """Every statistic of the histogram store equals numpy's on the
    plain list, bit for bit (the list-based implementation it
    replaced), the empty list included."""
    s = LatencyStats()
    half = len(values) // 2
    for v in values[:half]:
        s.record(v)
    s.record_many(np.array(values[half:], dtype=np.int64))
    assert s.count == len(values)
    assert list(s.values) == sorted(values)
    assert len(s.values) == len(values)
    if not values:
        assert math.isnan(s.mean)
        assert s.maximum == s.minimum == 0
        assert all(math.isnan(s.percentile(p)) for p in PERCENTILES)
        counts, edges = s.histogram(bins)
        assert counts.tolist() == [0] * bins
        assert edges.tolist() == np.linspace(0.0, 1.0, bins + 1).tolist()
        return
    mean = float(np.mean(values))
    assert s.mean == mean and type(s.mean) is float
    assert s.maximum == max(values) and type(s.maximum) is int
    assert s.minimum == min(values) and type(s.minimum) is int
    for p in PERCENTILES:
        want = float(np.percentile(values, p))
        assert s.percentile(p) == want and type(s.percentile(p)) is float, p
    counts, edges = s.histogram(bins)
    want_counts, want_edges = np.histogram(np.asarray(values), bins=bins)
    assert counts.dtype == want_counts.dtype
    assert np.array_equal(counts, want_counts)
    assert edges.dtype == want_edges.dtype
    assert np.array_equal(edges, want_edges)
    for i in (0, len(values) // 2, -1):
        assert s.values[i] == sorted(values)[i]


def test_latency_store_rejects_negative_and_out_of_range():
    s = LatencyStats()
    with pytest.raises(ValueError):
        s.record(-1)
    with pytest.raises(ValueError):
        s.record_many(np.array([3, -2]))
    s.record(4)
    with pytest.raises(ValueError):
        s.percentile(101)
    assert s.count == 1 and s.values == [4]
