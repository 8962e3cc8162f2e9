"""Unit tests for the telemetry metric registry."""

import math

import numpy as np
import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_METRIC,
)


def test_counter_inc():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative():
    c = Counter("x")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set():
    g = Gauge("x")
    g.set(2.5)
    assert g.value == 2.5
    g.set(-1)
    assert g.value == -1


def test_histogram_buckets_and_stats():
    h = Histogram("x", buckets=(1, 5, 10))
    for v in (0, 1, 2, 7, 50):
        h.observe(v)
    assert h.count == 5
    assert h.sum == 60
    assert h.min == 0 and h.max == 50
    assert h.mean == 12.0
    # per-bucket counts: <=1: 2, <=5: 1, <=10: 1, +Inf overflow: 1
    assert h.counts == [2, 1, 1, 1]
    assert h.cumulative() == [(1, 2), (5, 3), (10, 4), (float("inf"), 5)]


def test_histogram_empty():
    h = Histogram("x", buckets=(1,))
    assert h.count == 0
    assert math.isnan(h.mean)
    assert h.min is None and h.max is None
    assert h.snapshot()["count"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_observe_array_equals_observe_loop(seed):
    """The bulk update is the per-value loop, +Inf overflow included,
    an empty array changes nothing, and the sum stays a Python int (so
    Prometheus prints ``123``, not ``123.0``)."""
    rng = np.random.default_rng(seed)
    bulk = Histogram("x", buckets=(1, 5, 10, 50))
    loop = Histogram("x", buckets=(1, 5, 10, 50))
    for size in (0, 1, 7, 300):
        values = rng.integers(0, 120, size=size)  # many above 50
        bulk.observe_array(values)
        for v in values.tolist():
            loop.observe(v)
        assert bulk.snapshot() == loop.snapshot()
    assert bulk.counts[-1] > 0
    assert type(bulk.sum) is int
    assert type(bulk.min) is int and type(bulk.max) is int


def test_histogram_requires_buckets():
    with pytest.raises(ValueError):
        Histogram("x", buckets=())


def test_null_metric_is_noop():
    NULL_METRIC.inc()
    NULL_METRIC.inc(7)
    NULL_METRIC.set(3)
    NULL_METRIC.observe(9)
    NULL_METRIC.observe_array(np.arange(3))
    assert NULL_METRIC.value == 0
    assert NULL_METRIC.count == 0


def test_registry_returns_same_instance():
    reg = MetricRegistry()
    a = reg.counter("hits")
    b = reg.counter("hits")
    assert a is b


def test_registry_rejects_type_change():
    reg = MetricRegistry()
    reg.counter("hits")
    with pytest.raises(TypeError):
        reg.gauge("hits")


def test_registry_labels_are_separate_series():
    reg = MetricRegistry()
    a = reg.counter("hops", {"link_type": "static"})
    b = reg.counter("hops", {"link_type": "dynamic"})
    assert a is not b
    a.inc(3)
    b.inc(1)
    snap = reg.snapshot()
    assert snap["hops{link_type=static}"]["value"] == 3
    assert snap["hops{link_type=dynamic}"]["value"] == 1


def test_registry_label_order_canonical():
    reg = MetricRegistry()
    a = reg.counter("m", {"b": "2", "a": "1"})
    b = reg.counter("m", {"a": "1", "b": "2"})
    assert a is b


def test_disabled_registry_is_noop():
    reg = MetricRegistry(enabled=False)
    c = reg.counter("hits")
    assert c is NULL_METRIC
    c.inc(100)
    assert reg.histogram("lat") is NULL_METRIC
    assert reg.gauge("g") is NULL_METRIC
    assert reg.snapshot() == {}
    assert list(reg) == []
    assert len(reg) == 0


def test_registry_iteration_sorted():
    reg = MetricRegistry()
    reg.counter("z_metric")
    reg.gauge("a_metric")
    reg.counter("m_metric", {"x": "1"})
    names = [m.name for m in reg]
    assert names == sorted(names)
