"""Open-loop workload driver: scenarios -> per-cycle injection demand.

A batch experiment's :class:`~repro.sim.injection.DynamicInjection` is
*closed-loop*: a node that finds its injection queue occupied simply
counts a failed attempt and the demand evaporates.  A **service** is
open-loop — users keep arriving whether or not the network can take
them — so :class:`OpenLoopInjection` turns a validated
:class:`~repro.serve.scenario.Scenario` into a stream of *offers* and
hands every one to an :class:`~repro.serve.admission.AdmissionController`,
which decides (drop / defer / shed) against injection-queue
backpressure.

Per cycle, for each population in declaration order:

1. every ``resample_every`` cycles, re-draw the active-user count from
   the population's distribution, with the mean scaled by its load
   shape (diurnal swell, bursts) at the current cycle;
2. convert users to a per-node Bernoulli rate
   ``min(1, users * rate_per_user / n_nodes)`` and draw this cycle's
   ``(src, dst)`` offers through the *same* seeded sampler
   (:mod:`repro.sim.sampling`) the closed-loop model uses;
3. tag each offer with the population's QoS class and submit it.

The admission controller decides every offer against one
injection-queue free mask per cycle and returns the admitted ones in
admission order; the driver numbers them, records their classes in
``uid_qos`` and places them with one ``place_batch`` call.

Determinism: each population owns two named RNG streams derived from
the scenario seed (user counts and arrivals), populations are
processed in declaration order, and admission decisions depend only on
engine-invariant queue occupancy — so identical scenario + seed +
cycle budget replays byte-identically on every engine, which is the
record-mode contract `tests/test_serve_service.py` enforces.

The driver implements the ordinary :class:`InjectionModel` interface,
so any stepping engine accepts it unchanged; ``finished`` additionally
drives the **drain** protocol: once :meth:`begin_drain` is called (a
stop signal) or the duration budget is exhausted, no new offers are
generated, the deferred backlog is cancelled (counted, never silently
lost), and the run ends when the last in-flight packet delivers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.message import take_message_ids
from ..sim.injection import InjectionModel
from ..sim.rng import make_rng
from ..sim.sampling import draw_arrival_ids, draw_user_count
from .admission import AdmissionController, Offer
from .scenario import Population, Scenario, make_pattern

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import PacketSimulator


class _PopulationState:
    """Live sampling state of one population."""

    __slots__ = ("spec", "pattern", "users_rng", "arrivals_rng",
                 "active_users", "rate")

    def __init__(self, spec: Population, topology, seed: int):
        self.spec = spec
        self.users_rng = make_rng(seed, f"serve-users-{spec.name}")
        self.arrivals_rng = make_rng(seed, f"serve-arrivals-{spec.name}")
        self.pattern = make_pattern(
            spec.pattern, topology, self.arrivals_rng, spec.pattern_params
        )
        self.active_users = 0
        self.rate = 0.0

    def resample(self, cycle: int, n_nodes: int) -> None:
        u = self.spec.users
        mean = u.mean * self.spec.load_shape.multiplier_at(cycle)
        variance = u.variance
        if variance is not None and u.mean > 0:
            # Scale the variance with the squared mean shift so the
            # coefficient of variation survives the load shape.
            variance = variance * (mean / u.mean) ** 2
        self.active_users = draw_user_count(
            u.distribution, mean, variance, self.users_rng
        )
        self.rate = min(
            1.0, self.active_users * self.spec.rate_per_user / n_nodes
        )


class OpenLoopInjection(InjectionModel):
    """Scenario-driven open-loop injection with admission control."""

    def __init__(self, scenario: Scenario, topology, algorithm):
        self.scenario = scenario
        self.topology = topology
        self.algorithm = algorithm
        self.name = f"open-loop({scenario.name})"
        self.warmup = scenario.service.warmup_cycles
        self.duration = scenario.service.duration_cycles
        self.admission = AdmissionController(scenario.service.admission)
        self.populations = [
            _PopulationState(p, topology, scenario.seed)
            for p in scenario.populations
        ]
        self.n_nodes = len(list(topology.nodes()))
        #: uid -> qos class for packets in flight; the telemetry layer
        #: pops entries at delivery (`TelemetryProbe(qos_of=...)`), so
        #: memory stays proportional to in-flight traffic.
        self.uid_qos: dict[int, str] = {}
        #: Closed-loop-compatible accounting (SimulationResult reads
        #: these): attempts = offers, successes = admissions.
        self.attempts = 0
        self.successes = 0
        self.draining = False
        self.drain_reason: str | None = None
        self.drain_cycle: int | None = None
        self.drain_limit = scenario.service.drain_limit_cycles
        #: Set when the drain safety valve fired with packets still in
        #: flight (exit code 3; should never happen on a healthy run —
        #: the paper's algorithms are deadlock-free).
        self.drain_timed_out = False
        #: Optional service hook, called once every ``tick_cycles``
        #: with ``(sim, cycle)`` — metrics publishing, pacing, signal
        #: polling.  Never affects simulation state.
        self.on_tick: Callable | None = None
        self._tick_cycles = scenario.service.tick_cycles
        #: Offers generated since the last tick (offered-load gauge).
        self.tick_offers = 0

    # ------------------------------------------------------------------
    def qos_of(self, uid: int) -> str | None:
        """Resolve-and-forget the service class of a delivered packet."""
        return self.uid_qos.pop(uid, None)

    def begin_drain(self, reason: str, cycle: int | None = None) -> None:
        """Stop offering new traffic; cancel the deferred backlog.

        Idempotent.  In-flight packets keep routing until delivered —
        the drain invariant (nothing injected is ever lost) is checked
        by ``tests/test_serve_service.py``.
        """
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self.drain_cycle = cycle
        self.admission.cancel_backlog()

    # ------------------------------------------------------------------
    # InjectionModel interface
    # ------------------------------------------------------------------
    def attempt(self, sim: "PacketSimulator", cycle: int) -> None:
        if self.on_tick is not None and cycle % self._tick_cycles == 0:
            self.on_tick(sim, cycle)
        if not self.draining and (
            self.duration is not None and cycle >= self.duration
        ):
            self.begin_drain("duration budget reached", cycle)
        if self.draining:
            return
        offers: list[Offer] = []
        for pop in self.populations:
            if cycle % pop.spec.resample_every == 0:
                pop.resample(cycle, self.n_nodes)
            if pop.rate <= 0.0:
                continue
            src, dst = draw_arrival_ids(
                sim.nodes, pop.rate, pop.pattern, pop.arrivals_rng
            )
            qos = pop.spec.qos
            offers.extend(
                Offer(s, d, qos, cycle)
                for s, d in zip(src.tolist(), dst.tolist())
            )
        self.attempts += len(offers)
        self.tick_offers += len(offers)
        free = sim.injection_free(np.arange(self.n_nodes))
        admitted = self.admission.admit(free, cycle, offers)
        k = len(admitted)
        if not k:
            return
        first = take_message_ids(k)
        for uid, offer in enumerate(admitted, first):
            self.uid_qos[uid] = offer.qos
        self.successes += k
        sim.place_batch(
            np.fromiter((o.src for o in admitted), dtype=np.int64, count=k),
            np.fromiter((o.dst for o in admitted), dtype=np.int64, count=k),
            np.arange(first, first + k),
            cycle,
        )

    def finished(self, sim: "PacketSimulator", cycle: int) -> bool:
        if not self.draining:
            return False
        if sim.active == 0:
            return True
        if (
            self.drain_cycle is not None
            and cycle - self.drain_cycle >= self.drain_limit
        ):
            self.drain_timed_out = True
            return True
        return False
