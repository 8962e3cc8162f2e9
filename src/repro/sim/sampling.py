"""Seeded arrival/destination sampling shared by injection models.

Two call sites need the same primitive — "which nodes fire a packet
this cycle, and to where": the closed-loop
:class:`~repro.sim.injection.DynamicInjection` model (paper, Section 7)
and the open-loop workload driver of the streaming traffic service
(:mod:`repro.serve.workloads`).  Both must consume the RNG in exactly
the same order, because byte-identical replays across engines hinge on
identical draw sequences.  Both therefore go through one function,
:func:`draw_arrival_ids`, which works on int node ids (indices into
``topology.nodes()`` order), so the two cannot drift apart: the
closed-loop model hands its id arrays straight to the engine, the
open-loop driver turns them into admission offers.

Also here: the user-count distributions of the serving scenarios
(Poisson / normal / log-normal), parameterized by *mean* (and variance
where it applies) so a load shape can scale the mean without changing
the distribution family.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

from .traffic import TrafficPattern

#: Distribution names accepted for user-count sampling.
USER_DISTRIBUTIONS = ("poisson", "normal", "log_normal")


def _fire_ids(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Ids of the nodes that attempt an injection (Bernoulli(rate) each).

    ``rate >= 1`` takes *every* node without consuming any RNG, the
    saturated path the paper's ``lambda = 1`` runs always took;
    otherwise exactly one ``rng.random(n)`` vector is drawn.
    """
    if rate >= 1.0:
        return np.arange(n, dtype=np.int64)
    if rate <= 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(rng.random(n) < rate)


def draw_arrival_ids(
    nodes: Sequence[Hashable],
    rate: float,
    pattern: TrafficPattern,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One cycle of seeded arrivals as ``(src_ids, dst_ids)`` int arrays.

    One Bernoulli vector picks the firing nodes (none at ``rate >= 1``:
    every node fires), then :meth:`TrafficPattern.draw_ids` draws their
    destinations in node order — the RNG order of one ``pattern.draw``
    per firing node.  Fixed points (``dst == src``, a pattern's way of
    saying "this node stays silent") are dropped afterwards, so they
    still consume their draws.
    """
    src = _fire_ids(len(nodes), rate, rng)
    dst = pattern.draw_ids(nodes, src, rng)
    keep = dst != src
    if keep.all():
        return src, dst
    return src[keep], dst[keep]


def draw_user_count(
    distribution: str,
    mean: float,
    variance: float | None,
    rng: np.random.Generator,
) -> int:
    """One sample of an active-user count (non-negative integer).

    ``poisson`` ignores ``variance`` (it equals the mean by
    definition); ``normal`` draws N(mean, variance) clipped at zero;
    ``log_normal`` solves the underlying ``mu``/``sigma`` so the
    *arithmetic* mean and variance of the samples match the configured
    ones.  ``mean <= 0`` yields 0 without consuming RNG only when the
    distribution could never produce a positive count.
    """
    if distribution == "poisson":
        return int(rng.poisson(max(0.0, mean)))
    if variance is None:
        variance = mean
    if distribution == "normal":
        sigma = math.sqrt(max(0.0, variance))
        return max(0, int(round(rng.normal(mean, sigma))))
    if distribution == "log_normal":
        if mean <= 0.0:
            return 0
        sigma2 = math.log(1.0 + max(0.0, variance) / (mean * mean))
        mu = math.log(mean) - sigma2 / 2.0
        return max(0, int(round(rng.lognormal(mu, math.sqrt(sigma2)))))
    raise ValueError(
        f"unknown user-count distribution {distribution!r}; expected one "
        f"of {USER_DISTRIBUTIONS}"
    )
