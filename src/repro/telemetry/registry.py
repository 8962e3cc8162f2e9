"""Metric primitives and the registry that owns them.

Three metric types cover everything the engines report:

* :class:`Counter` — monotonically increasing totals (hops, drops,
  fault epochs);
* :class:`Gauge` — last-written instantaneous values (packets in
  flight, current cycle);
* :class:`Histogram` — streaming fixed-bucket histograms in the
  Prometheus style (cumulative ``le`` buckets plus ``sum``/``count``),
  with running min/max so peaks survive aggregation.

A :class:`MetricRegistry` constructed with ``enabled=False`` hands out
the shared :data:`NULL_METRIC`, whose mutators are no-ops — call sites
never need an ``if telemetry:`` guard, and the disabled path costs one
attribute load.

Metrics are keyed by ``(name, labels)`` so one name can carry several
label sets (``repro_hops_total{link_type="static"}`` vs ``"dynamic"``),
matching how the Prometheus exporter groups them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

#: Default latency buckets (routing cycles).
LATENCY_BUCKETS = (2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)

#: Default central-queue occupancy buckets (paper capacity is 5).
OCCUPANCY_BUCKETS = (0, 1, 2, 3, 4, 5, 8, 16)


class Counter:
    """Monotonically increasing total."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Instantaneous value (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Streaming fixed-bucket histogram (Prometheus-style).

    ``buckets`` are upper bounds; every observation lands in the first
    bucket whose bound is >= the value, or in the implicit ``+Inf``
    overflow.  Stores only per-bucket counts plus running sum / count /
    min / max, so memory is O(buckets) regardless of traffic.
    """

    kind = "histogram"
    __slots__ = (
        "name",
        "labels",
        "help",
        "buckets",
        "_bounds",
        "counts",
        "sum",
        "count",
        "min",
        "max",
    )

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        labels: tuple = (),
        help: str = "",
    ):
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._bounds = np.array(self.buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self.sum = 0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: int | float) -> None:
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_array(self, values: np.ndarray) -> None:
        """Record every value of an int array in one update.

        Exactly equivalent to calling :meth:`observe` once per value
        (the sum, min and max stay Python ints); an empty array is a
        no-op.  Used by the vector engine's occupancy sampling and its
        columnar latency flush.
        """
        if not values.size:
            return
        # First bound >= value; past the last bound is the +Inf bucket.
        hit = np.bincount(
            self._bounds.searchsorted(values), minlength=len(self.counts)
        )
        counts = self.counts
        for i, c in enumerate(hit.tolist()):
            counts[i] += c
        # Builtins: cheaper than numpy reductions on a cycle's few values.
        vals = values.tolist()
        self.sum += sum(vals)
        self.count += len(vals)
        lo = min(vals)
        hi = max(vals)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus ``le`` series: (bound, cumulative count) pairs,
        ending with ``(inf, total)``."""
        out, running = [], 0
        for bound, c in zip(self.buckets, self.counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class _NullMetric:
    """No-op stand-in handed out by a disabled registry."""

    kind = "null"
    name = ""
    labels: tuple = ()
    help = ""
    value = 0
    sum = 0
    count = 0
    min = None
    max = None
    mean = float("nan")

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def observe_array(self, values) -> None:
        pass

    def snapshot(self) -> dict:
        return {"type": "null"}


#: The shared no-op metric (all mutators do nothing).
NULL_METRIC = _NullMetric()


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted(labels.items())) if labels else ()


class MetricRegistry:
    """Owns every metric of one instrumented run.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the existing instance afterwards (re-registration with a
    different type raises).  With ``enabled=False`` every accessor
    returns :data:`NULL_METRIC` and nothing is ever stored.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[tuple[str, tuple], object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator:
        """Metrics sorted by (name, labels) — the exporter order."""
        return iter(
            m for _k, m in sorted(self._metrics.items(), key=lambda kv: kv[0])
        )

    def _get(self, cls, name: str, labels: dict | None, **kwargs):
        if not self.enabled:
            return NULL_METRIC
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(
                name, labels=key[1], **kwargs
            )
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, labels: dict | None = None, help: str = ""
    ) -> Counter:
        return self._get(Counter, name, labels, help=help)

    def gauge(
        self, name: str, labels: dict | None = None, help: str = ""
    ) -> Gauge:
        return self._get(Gauge, name, labels, help=help)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        labels: dict | None = None,
        help: str = "",
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets, help=help)

    def snapshot(self) -> dict:
        """Plain-dict dump (picklable; used by summaries and tests)."""
        out: dict[str, dict] = {}
        for metric in self:
            label_txt = ",".join(f"{k}={v}" for k, v in metric.labels)
            key = f"{metric.name}{{{label_txt}}}" if label_txt else metric.name
            out[key] = metric.snapshot()
        return out
