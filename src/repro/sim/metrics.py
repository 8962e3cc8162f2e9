"""Latency and throughput metrics (paper, Section 7).

The paper reports, per configuration, the average latency ``L_avg``,
the maximum latency ``L_max``, and — for dynamic injection — the
effective injection rate ``I_r`` (successful injection attempts over
total attempts).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np


class LatencyStats:
    """Accumulates delivery latencies as an exact integer histogram.

    ``_counts[v]`` is the number of recorded latencies equal to ``v``,
    so the store grows with the largest latency, not with the packets
    delivered.  Every statistic is computed from the counts and equals
    what numpy returns on the list of recorded values (while their sum
    stays below ``2**53``, where float64 sums are exact): ``mean`` is
    ``np.mean``, ``percentile`` ``np.percentile``'s linear
    interpolation between two order statistics, ``histogram``
    ``np.histogram`` of the values, each bin fed by a value's count.
    """

    def __init__(self) -> None:
        self._counts = np.zeros(64, dtype=np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatencyStats):
            return NotImplemented
        return np.array_equal(self._trimmed(), other._trimmed())

    __hash__ = None

    def __repr__(self) -> str:
        return f"LatencyStats(count={self.count}, mean={self.mean})"

    def _trimmed(self) -> np.ndarray:
        seen = np.flatnonzero(self._counts)
        return self._counts[: seen[-1] + 1 if seen.size else 0]

    def _grow(self, top: int) -> None:
        counts = np.zeros(max(2 * self._counts.size, top + 1), np.int64)
        counts[: self._counts.size] = self._counts
        self._counts = counts

    def record(self, latency: int) -> None:
        latency = int(latency)
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if latency >= self._counts.size:
            self._grow(latency)
        self._counts[latency] += 1

    def record_many(self, latencies) -> None:
        """Record latencies, as repeated :meth:`record` calls would."""
        lat = np.asarray(latencies, dtype=np.int64)
        if not lat.size:
            return
        add = np.bincount(lat)  # raises on a negative latency
        if add.size > self._counts.size:
            self._grow(add.size - 1)
        self._counts[: add.size] += add

    @property
    def values(self) -> "_Ascending":
        """The recorded latencies in ascending order (a read-only
        sequence, expanded as it is read)."""
        return _Ascending(self)

    @property
    def count(self) -> int:
        return int(self._counts.sum())

    @property
    def mean(self) -> float:
        seen = np.flatnonzero(self._counts)
        if not seen.size:
            return float("nan")
        counts = self._counts[seen]
        return int(seen @ counts) / int(counts.sum())

    @property
    def maximum(self) -> int:
        seen = np.flatnonzero(self._counts)
        return int(seen[-1]) if seen.size else 0

    @property
    def minimum(self) -> int:
        seen = np.flatnonzero(self._counts)
        return int(seen[0]) if seen.size else 0

    def _order_stat(self, i: int) -> int:
        """The ``i``-th smallest recorded latency (0-based)."""
        return int(np.searchsorted(np.cumsum(self._counts), i, side="right"))

    def percentile(self, p: float) -> float:
        n = self.count
        if not n:
            return float("nan")
        if not 0 <= p <= 100:
            raise ValueError("Percentiles must be in the range [0, 100]")
        # np.percentile(method="linear"): virtual index (n - 1) * p / 100,
        # interpolated from the lower neighbour below weight 0.5 and
        # from the upper one at or above it.
        at = (n - 1) * (p / 100)
        if at >= n - 1:
            return float(self.maximum)
        i = int(at)
        t = at - i
        a = self._order_stat(i)
        b = self._order_stat(i + 1)
        d = b - a
        return b - d * (1 - t) if t >= 0.5 else a + d * t

    def histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        seen = np.flatnonzero(self._counts)
        if not seen.size:
            # Empty runs (all packets dropped, zero injection) yield an
            # all-zero histogram over a nominal [0, 1] range instead of
            # whatever numpy's empty-input behavior of the day is.
            return np.zeros(bins, dtype=np.intp), np.linspace(0.0, 1.0, bins + 1)
        return np.histogram(seen, bins=bins, weights=self._counts[seen])


class _Ascending(Sequence):
    """:attr:`LatencyStats.values`: each latency repeated by its count,
    ascending.  Iterating yields Python ints without building a list."""

    __slots__ = ("_stats",)

    def __init__(self, stats: LatencyStats) -> None:
        self._stats = stats

    def __len__(self) -> int:
        return self._stats.count

    def __iter__(self):
        counts = self._stats._counts
        seen = np.flatnonzero(counts)
        return chain.from_iterable(
            map(repeat, seen.tolist(), counts[seen].tolist())
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        n = len(self)
        if not -n <= i < n:
            raise IndexError("latency index out of range")
        return self._stats._order_stat(i % n)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Ascending):
            other = list(other)
        return list(self) == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SimulationResult:
    """Everything one simulation run reports.

    ``latency`` covers messages *injected* after the warm-up window;
    ``attempts``/``successes`` count post-warm-up injection attempts,
    giving the paper's effective injection rate.
    """

    algorithm: str
    topology: str
    pattern: str
    injection: str
    cycles: int
    injected: int
    delivered: int
    latency: LatencyStats
    attempts: int = 0
    successes: int = 0
    undelivered: int = 0
    occupancy: dict = field(default_factory=dict)
    seed: int | None = None
    #: Number of packets a fault watchdog classified as undeliverable
    #: (destination unreachable under the active fault set, or frozen
    #: inside a down node).  0 for healthy runs.
    undeliverable: int = 0
    #: Reason string when the run was stopped gracefully by an observer
    #: (see :class:`repro.sim.engine.SimulationHalt`); None otherwise.
    halt: str | None = None
    #: Summary dict produced by an attached
    #: :class:`repro.telemetry.TelemetryProbe` (hop split, link
    #: utilization, occupancy, latency histogram, fault epochs); None
    #: when the run was not instrumented.  Plain data, so results stay
    #: picklable for parallel sweeps.
    telemetry: dict | None = None

    @property
    def l_avg(self) -> float:
        """Paper's ``L_avg``."""
        return self.latency.mean

    @property
    def l_max(self) -> int:
        """Paper's ``L_max``."""
        return self.latency.maximum

    @property
    def injection_rate(self) -> float:
        """Paper's ``I_r`` as a fraction in [0, 1]."""
        if self.attempts == 0:
            return float("nan")
        return self.successes / self.attempts

    @property
    def throughput(self) -> float:
        """Delivered messages per node per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.delivered / self.cycles

    @property
    def delivered_fraction(self) -> float:
        """Fraction of injected packets that reached their destination.

        1.0 for a healthy completed run; < 1.0 when packets were still
        in flight at the end of a fixed-duration run or when faults made
        some packets undeliverable.  Defined as 1.0 when nothing was
        injected (an empty run is vacuously complete).
        """
        if self.injected == 0:
            return 1.0
        return self.delivered / self.injected

    def row(self) -> dict:
        """Flat dict for table rendering."""
        out = {
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "L_avg": round(self.l_avg, 2),
            "L_max": self.l_max,
            "delivered": self.delivered,
            "delivered_frac": round(self.delivered_fraction, 4),
            "in_flight": self.undelivered,
            "cycles": self.cycles,
        }
        if self.undeliverable:
            out["undeliverable"] = self.undeliverable
        if self.attempts:
            out["I_r(%)"] = round(100.0 * self.injection_rate, 1)
        if self.telemetry:
            t = self.telemetry
            out["link_util"] = round(t["link_utilization"], 4)
            out["dyn_hops(%)"] = round(
                100.0 * t["hops"]["dynamic_fraction"], 1
            )
            occ = t["occupancy"]
            if occ["mean"] is not None:
                out["occ_mean"] = round(occ["mean"], 3)
                out["occ_peak"] = occ["peak"]
        return out
