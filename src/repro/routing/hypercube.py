"""Hypercube routing algorithms (paper, Section 3).

The paper's algorithm hangs the hypercube from node ``0...0``:

* **Phase A** (queues ``qA``): the message corrects the *incorrect
  zeros* of its address into ones, moving "downwards" toward
  ``1...1``.
* **Phase B** (queues ``qB``): the message corrects the incorrect ones
  into zeros, moving back "upwards" toward ``0...0``.

With only these (static) moves the scheme — due to [BGSS89]/[Kon90] —
is deadlock free but crowds the region around ``1...1``.  The paper
adds **dynamic links** that also let a phase-A message correct a 1
into a 0 whenever it finds space, which makes the algorithm *fully
adaptive* and *minimal* while still using just two central queues per
node (Theorem 1).

This module ships three variants sharing the same queue structure:

* :class:`HypercubeAdaptiveRouting` — the paper's fully-adaptive
  algorithm (static + dynamic links),
* :class:`HypercubeHungRouting` — the underlying static two-phase
  algorithm (partially adaptive),
* :class:`HypercubeObliviousRouting` — a deterministic restriction
  (always the lowest eligible dimension) used as an oblivious baseline.

A fourth algorithm, :class:`repro.routing.buffer_pool.StructuredBufferPoolRouting`,
provides the classic hop-level structured-buffer-pool comparison point
the paper criticises as hardware-hungry.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..core.hops import TableHopKernel, TwoPhaseRows
from ..core.queues import QueueId, deliver
from ..core.routing_function import DYNAMIC_CLASS, RoutingAlgorithm
from ..topology.hypercube import Hypercube

#: Phase-A central queue kind.
QA = "A"
#: Phase-B central queue kind.
QB = "B"


class HypercubeHungRouting(RoutingAlgorithm):
    """The underlying static two-phase ("hung") algorithm.

    Phase A corrects incorrect 0s (in any order — the scheme is
    partially adaptive); phase B corrects incorrect 1s (any order).
    Its QDG is acyclic, so it is deadlock free on its own.
    """

    name = "hypercube-hung"
    is_minimal = True
    is_fully_adaptive = False

    def __init__(self, topology: Hypercube):
        if not isinstance(topology, Hypercube):
            raise TypeError("requires a Hypercube topology")
        super().__init__(topology)
        self.n = topology.n

    # -- queue structure ------------------------------------------------
    def central_queue_kinds(self, node: int) -> tuple[str, ...]:
        return (QA, QB)

    # -- helpers ---------------------------------------------------------
    def _zeros_to_fix(self, u: int, dst: int) -> int:
        """Bit mask of dimensions where ``u`` has 0 and ``dst`` has 1."""
        return ~u & dst & self.topology._mask

    def _ones_to_fix(self, u: int, dst: int) -> int:
        """Bit mask of dimensions where ``u`` has 1 and ``dst`` has 0."""
        return u & ~dst & self.topology._mask

    @staticmethod
    def _dims(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # -- routing function -------------------------------------------------
    def injection_targets(
        self, src: int, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        if self._zeros_to_fix(src, dst):
            return frozenset({QueueId(src, QA)})
        return frozenset({QueueId(src, QB)})

    def static_hops(
        self, q: QueueId, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        u = q.node
        if q.kind == QA:
            if u == dst:
                return frozenset({deliver(dst)})
            zeros = self._zeros_to_fix(u, dst)
            if zeros:
                return frozenset(
                    QueueId(u ^ (1 << i), QA) for i in self._dims(zeros)
                )
            # Only incorrect ones remain: change phase in place.
            return frozenset({QueueId(u, QB)})
        if q.kind == QB:
            if u == dst:
                return frozenset({deliver(dst)})
            diffs = u ^ dst
            return frozenset(
                QueueId(u ^ (1 << i), QB) for i in self._dims(diffs)
            )
        raise ValueError(f"no hops from {q}")

    def buffer_classes(self, u: int, v: int) -> tuple[str, ...]:
        """Down-links carry phase-A traffic, up-links phase-B traffic."""
        dim = self.topology.link_index(u, v)
        if (u >> dim) & 1 == 0:
            return (QA,)
        return (QB,)

    def compile_hops(self, layout):
        variant = _KERNEL_VARIANTS.get(type(self))
        if variant is None or type(self.topology) is not Hypercube:
            return None
        kernel = _HypercubeKernel(layout, self, *variant)
        return kernel if kernel.ok else None


class HypercubeAdaptiveRouting(HypercubeHungRouting):
    """The paper's fully-adaptive minimal algorithm (Theorem 1).

    Extends :class:`HypercubeHungRouting` with dynamic links: while a
    phase-A message still has a 0 to correct, it may also correct any
    incorrect 1, staying in the ``qA`` queues.
    """

    name = "hypercube-adaptive"
    is_minimal = True
    is_fully_adaptive = True

    def dynamic_hops(
        self, q: QueueId, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        if q.kind != QA:
            return frozenset()
        u = q.node
        if not self._zeros_to_fix(u, dst):
            return frozenset()
        ones = self._ones_to_fix(u, dst)
        return frozenset(QueueId(u ^ (1 << i), QA) for i in self._dims(ones))

    def buffer_classes(self, u: int, v: int) -> tuple[str, ...]:
        """Per Figure 4: down-links carry static-A traffic only;
        up-links carry static-B and dynamic-A traffic."""
        dim = self.topology.link_index(u, v)
        if (u >> dim) & 1 == 0:
            return (QA,)
        return (QB, DYNAMIC_CLASS)


class HypercubeObliviousRouting(HypercubeHungRouting):
    """Deterministic restriction of the hung scheme (oblivious baseline).

    Phase A corrects the lowest incorrect-0 dimension first; phase B
    the lowest incorrect-1 dimension.  Each source/destination pair has
    exactly one route, so the algorithm is oblivious, minimal, and
    (being a sub-function of the hung DAG) deadlock free.
    """

    name = "hypercube-oblivious"
    is_minimal = True
    is_fully_adaptive = False

    def static_hops(
        self, q: QueueId, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        hops = super().static_hops(q, dst, state)
        movers = [h for h in hops if h.is_central and h.node != q.node]
        if len(movers) <= 1:
            return hops
        # Keep only the lowest-dimension move.
        u = q.node
        best = min(movers, key=lambda h: (u ^ h.node).bit_length())
        return frozenset({best})


class _HypercubeKernel(TableHopKernel):
    """Integer hop kernel for the two-phase hypercube schemes.

    Global queue id factors as ``node * 2 + phase`` (phase 0 = ``qA``,
    1 = ``qB``); node labels equal node indices, so the hop relation is
    pure bit arithmetic.  Down-phase-B hops (clearing a 1 via a
    down-link) survive here and are slot-dropped by the generic
    assembly, exactly as the symbolic path drops them.

    :meth:`fill_rows` states the same relation over whole arrays of
    keys.  With ``x = u ^ dst``, ``ones = u & x`` (bits to clear) and
    ``zeros = x ^ ones`` (bits to set), a message's external candidates
    are one bit mask over the dimensions:

    * phase A: ``zeros`` (oblivious: its lowest bit), plus ``ones`` as
      dynamic links when adaptive and ``zeros`` is non-zero;
    * phase B: ``ones`` — only up-links carry class ``qB``, so the
      down-link hops are dropped; oblivious keeps the lowest bit of
      ``x`` and drops it too when it is a zero.

    ``_slot[qid, d]`` is the slot a candidate along dimension ``d``
    uses (a down-link's ``qA`` class, an up-link's ``qB`` class, or the
    up-link's dynamic class from an adaptive phase-A queue), so slots
    ascend with the dimension.
    """

    def __init__(self, layout, alg: HypercubeHungRouting, adaptive, oblivious):
        super().__init__(layout)
        self.mask = alg.topology._mask
        self.adaptive = adaptive
        self.oblivious = oblivious
        if self.kinds != (QA, QB) or layout.nodes != list(
            range(len(layout.nodes))
        ):
            self.ok = False
        if self.ok:
            self._build_slot_table(layout, alg.topology.n)

    def _build_slot_table(self, layout, n: int) -> None:
        nodes = np.arange(len(layout.nodes), dtype=np.int64)
        bits = 1 << np.arange(n, dtype=np.int64)
        up = (nodes[:, None] & bits) != 0  # u -> u ^ 2**d is an up-link
        nbr = nodes[:, None] ^ bits
        # Classes per link, in the layout's node-major, dimension-
        # ascending slot order: (qA,) down; (qB,) or (qB, dynamic) up.
        width = 1 + up if self.adaptive else np.ones(up.shape, np.int64)
        base = (np.cumsum(width) - width.ravel()).reshape(width.shape)
        # Spot-check the layout: node 0 (all down-links), node N-1
        # (all up-links), and the slot count.
        mismatch = any(
            layout.slot_of.get((u, int(nbr[u, d]), QB if up[u, d] else QA))
            != int(base[u, d])
            for u in (0, len(nodes) - 1)
            for d in range(n)
        )
        if mismatch or layout.n_slots != int(width.sum()):
            self.ok = False
            return
        slot = np.empty((2 * len(nodes), n), dtype=np.int64)
        slot[0::2] = (base + up) if self.adaptive else base
        slot[1::2] = base
        slot_dst = np.full(layout.n_slots + 1, -1, dtype=np.int64)
        slot_dst[base] = nbr
        dyn = np.zeros(layout.n_slots + 1, dtype=np.int64)
        if self.adaptive:
            slot_dst[base[up] + 1] = nbr[up]
            dyn[base[up] + 1] = 1
        self._slot = slot
        # Row m: the dimensions in bit mask m (candidate masks < N).
        self._dims_of = up
        self._pad = layout.n_slots
        self.slot_node = slot_dst
        self.slot_dyn = dyn

    def memory_bytes(self) -> int:
        if not self.ok:
            return 0
        return sum(
            a.nbytes for a in (self._slot, self.slot_node, self.slot_dyn)
        )

    def a_done(self, v, dst):
        """Whether node ``v`` has no zero left to set toward ``dst``."""
        return (~v & dst) == 0

    def fill_rows(self, qids, dsts, sids) -> TwoPhaseRows:
        u = qids >> 1
        phase_a = (qids & 1) == 0
        x = u ^ dsts
        ones = u & x
        zeros = x ^ ones
        if self.oblivious:
            cand_a = zeros & -zeros
            cand_b = x & -x & ones
        elif self.adaptive:
            # Static zeros plus dynamic ones, while a zero remains.
            cand_a = np.where(zeros != 0, x, 0)
            cand_b = ones
        else:
            cand_a = zeros
            cand_b = ones
        cand = np.where(phase_a, cand_a, cand_b)
        slots = np.where(self._dims_of[cand], self._slot[qids], self._pad)
        slots.sort(axis=1)  # move the padding to the right
        done = x == 0
        # Delivery, or phase A with only ones left: switch to qB.
        hasint = (zeros == 0) & (phase_a | done)
        return TwoPhaseRows(self, slots, hasint, qids, dsts, sids, done)

    def candidates(self, qid: int, dst: int, sid: int):
        u = qid >> 1
        if u == dst:
            return ((-1, sid),), ()
        if qid & 1 == 0:  # phase A
            zeros = ~u & dst & self.mask
            if not zeros:
                # Only incorrect ones remain: change phase in place.
                return (((u << 1) | 1, sid),), ()
            if self.oblivious and zeros & (zeros - 1):
                zeros &= -zeros  # lowest eligible dimension only
            st = []
            while zeros:
                low = zeros & -zeros
                st.append(((u ^ low) << 1, sid))
                zeros ^= low
            dy = []
            if self.adaptive:
                ones = u & ~dst & self.mask
                while ones:
                    low = ones & -ones
                    dy.append(((u ^ low) << 1, sid))
                    ones ^= low
            return tuple(st), tuple(dy)
        diffs = u ^ dst  # phase B
        if self.oblivious and diffs & (diffs - 1):
            diffs &= -diffs
        st = []
        while diffs:
            low = diffs & -diffs
            st.append((((u ^ low) << 1) | 1, sid))
            diffs ^= low
        return tuple(st), ()

    def inject_candidates(self, ui: int, dst: int, sid: int):
        if ~ui & dst & self.mask:
            return ((ui << 1, sid),)
        return (((ui << 1) | 1, sid),)


#: Exact classes the kernel vouches for -> (adaptive, oblivious).
_KERNEL_VARIANTS = {
    HypercubeHungRouting: (False, False),
    HypercubeAdaptiveRouting: (True, False),
    HypercubeObliviousRouting: (False, True),
}


def all_hypercube_algorithms(n: int) -> dict[str, RoutingAlgorithm]:
    """Instantiate every hypercube algorithm on an ``n``-cube."""
    cube = Hypercube(n)
    algos: dict[str, RoutingAlgorithm] = {}
    for cls in (
        HypercubeAdaptiveRouting,
        HypercubeHungRouting,
        HypercubeObliviousRouting,
    ):
        alg = cls(cube)
        algos[alg.name] = alg
    return algos
