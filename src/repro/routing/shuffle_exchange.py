"""Shuffle-exchange routing (paper, Section 5).

A message from ``s`` to ``d`` traverses (at most) ``2n`` shuffle links
— two sweeps over the ``n`` bit positions — and corrects the current
least-significant bit with an exchange link when needed:

* **Phase 1** (shuffle counts ``0 .. n-1``): a bit that must change
  from 0 to 1 is corrected *now* (mandatory — phase 2 cannot raise
  levels); a 1 -> 0 correction may be taken early over a **dynamic
  link** if space is available, otherwise it is deferred.
* **Phase 2** (shuffle counts ``n .. 2n-1``): the remaining 1 -> 0
  corrections are mandatory.

Every exchange in phase 1 moves the message to a shuffle cycle of
*higher* level (Hamming weight) — except the dynamic early 1 -> 0
corrections — and every exchange in phase 2 to a *lower* level, which
orders the cycles.  Each shuffle cycle itself is broken Dally-Seitz
style with a small number of per-cycle queue classes: a message enters
a cycle in class 0 and bumps its class each time a shuffle hop lands
on the cycle's designated *break node* (the smallest address).

The paper's claim of two classes per phase (4 central queues total)
holds whenever no message dwells in one cycle for more than one full
revolution.  For some composite ``n`` a message can wrap a short cycle
several times (e.g. ``n = 4``, cycle ``{0101, 1010}``), which needs
extra classes; :func:`required_classes_per_phase` computes the exact
requirement and the constructor sizes the queue set accordingly (the
divergence is recorded in EXPERIMENTS.md).  Tests machine-verify
acyclicity either way.

Bit bookkeeping: after ``k`` of the planned ``2n`` left-rotations, the
current LSB is the bit that will finally rest at position
``(-k) mod n``; hence the exchange at count ``k`` targets destination
bit ``d[(n - k % n) % n]``.  Messages carry ``k`` as routing state.

Messages are consumed eagerly: the first time a message is physically
at its destination node it moves to the delivery queue (the paper
allows either this or completing all ``2n`` shuffles).
"""

from __future__ import annotations

from math import gcd
from typing import Any

from ..core.hops import HopKernel, Successor
from ..core.queues import QueueId, deliver
from ..core.routing_function import DYNAMIC_CLASS, RoutingAlgorithm
from ..topology.shuffle_exchange import ShuffleExchange, shuffle_cycle


def required_classes_per_phase(n: int) -> int:
    """Queue classes per phase needed so no message outlives them.

    A message performs at most ``n`` consecutive shuffles inside one
    phase; dwelling in a cycle of length ``c`` it can enter the break
    node at most ``ceil(n / c)`` times, and each entry bumps the class.
    The bound is attained only for cycles shorter than ``n``; cycles of
    length 1 are traversed as internal no-ops and need no breaking.
    """
    lengths = set()
    seen: set[int] = set()
    for u in range(1 << n):
        if u in seen:
            continue
        cyc = shuffle_cycle(u, n)
        seen.update(cyc)
        if len(cyc) > 1:
            lengths.add(len(cyc))
    if not lengths:
        return 1
    worst = max((n + c - 1) // c for c in lengths)
    return max(2, worst + 1)


def _kind(phase: int, cls: int) -> str:
    return f"P{phase}C{cls}"


def _parse_kind(kind: str) -> tuple[int, int]:
    p, c = kind[1:].split("C")
    return int(p), int(c)


class ShuffleExchangeRouting(RoutingAlgorithm):
    """The paper's adaptive deadlock-free shuffle-exchange algorithm."""

    name = "shuffle-exchange-adaptive"
    is_minimal = False
    is_fully_adaptive = False

    def __init__(
        self,
        topology: ShuffleExchange,
        classes_per_phase: int | None = None,
        adaptive: bool = True,
    ):
        if not isinstance(topology, ShuffleExchange):
            raise TypeError("requires a ShuffleExchange topology")
        super().__init__(topology)
        self.n = topology.n
        self.classes = (
            classes_per_phase
            if classes_per_phase is not None
            else required_classes_per_phase(self.n)
        )
        self.adaptive = adaptive
        tag = "adaptive" if adaptive else "static"
        self.name = f"shuffle-exchange-{tag}({2 * self.classes}q)"
        self.max_hops = 3 * self.n

    def central_queue_kinds(self, node: int) -> tuple[str, ...]:
        return tuple(
            _kind(p, c) for p in (1, 2) for c in range(self.classes)
        )

    # -- bit bookkeeping ---------------------------------------------------
    def target_bit(self, dst: int, k: int) -> int:
        """Destination bit correctable by an exchange at shuffle count ``k``."""
        pos = (self.n - (k % self.n)) % self.n
        return (dst >> pos) & 1

    # -- per-message state: the shuffle count -------------------------------
    def initial_state(self, src: int, dst: int) -> int:
        return 0

    def update_state(self, state: int, q_from: QueueId, q_to: QueueId) -> int:
        if q_to.is_delivery or q_from.is_injection:
            return state
        u, v = q_from.node, q_to.node
        topo: ShuffleExchange = self.topology
        if u == v:
            # Internal move: either a degenerate self-shuffle (count
            # advances) or a phase switch carried by a self-shuffle.
            return state + 1
        if topo.is_shuffle_link(u, v):
            return state + 1
        return state  # exchange: count unchanged

    # -- routing function ----------------------------------------------------
    def injection_targets(
        self, src: int, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        return frozenset({QueueId(src, _kind(1, 0))})

    def _shuffle_hop(self, q: QueueId, k: int) -> QueueId:
        """Queue reached by taking the shuffle link at count ``k``."""
        topo: ShuffleExchange = self.topology
        u = q.node
        v = topo.shuffle(u)
        phase, cls = _parse_kind(q.kind)
        new_phase = 1 if k + 1 < self.n else 2
        if new_phase != phase:
            return QueueId(v, _kind(new_phase, 0))
        if v != u and v == topo.break_node(u):
            cls = min(cls + 1, self.classes - 1)
        return QueueId(v, _kind(phase, cls))

    def static_hops(
        self, q: QueueId, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        k = state if state is not None else 0
        u = q.node
        if u == dst:
            return frozenset({deliver(dst)})
        phase, _cls = _parse_kind(q.kind)
        if k >= 2 * self.n:
            raise RuntimeError(
                f"message at {q} exhausted its {2 * self.n} shuffles "
                f"without reaching {dst}"
            )
        lsb = u & 1
        want = self.target_bit(dst, k)
        if lsb != want:
            if phase == 1 and want == 1:
                # Mandatory 0 -> 1 correction (raises the cycle level).
                return frozenset({QueueId(u ^ 1, _kind(1, 0))})
            if phase == 2:
                # Mandatory 1 -> 0 correction (lowers the cycle level).
                return frozenset({QueueId(u ^ 1, _kind(2, 0))})
            # Phase 1, deferrable 1 -> 0 correction: shuffle onwards.
        return frozenset({self._shuffle_hop(q, k)})

    def dynamic_hops(
        self, q: QueueId, dst: int, state: Any = None
    ) -> frozenset[QueueId]:
        if not self.adaptive:
            return frozenset()
        k = state if state is not None else 0
        u = q.node
        if u == dst:
            return frozenset()
        phase, _cls = _parse_kind(q.kind)
        if phase != 1 or k >= 2 * self.n:
            return frozenset()
        lsb = u & 1
        want = self.target_bit(dst, k)
        if lsb == 1 and want == 0:
            # Early 1 -> 0 correction over a dynamic link.
            return frozenset({QueueId(u ^ 1, _kind(1, 0))})
        return frozenset()

    def compile_hops(self, layout):
        if (
            type(self) is not ShuffleExchangeRouting
            or type(self.topology) is not ShuffleExchange
        ):
            return None
        kernel = _ShuffleExchangeKernel(layout, self)
        return kernel if kernel.ok else None


class _ShuffleExchangeKernel(HopKernel):
    """Integer hop kernel for the shuffle-exchange scheme.

    Node labels equal node indices; kind index factors as
    ``(phase - 1) * classes + cls``.  The shuffle successor and the
    break-node bump are precomputed per node; the shuffle count (the
    routing state) comes from the layout's state intern table, and a
    shuffle hop's successor is the count ``k + 1``.  Keys with an
    exhausted count (``k >= 2n``) are declined so the symbolic path
    raises its usual error.
    """

    def __init__(self, layout, alg: ShuffleExchangeRouting):
        super().__init__(layout)
        topo = alg.topology
        n = alg.n
        self.n = n
        self.n2 = 2 * n
        self.classes = alg.classes
        self.adaptive = alg.adaptive
        size = 1 << n
        self.kinds = tuple(
            _kind(p, c) for p in (1, 2) for c in range(self.classes)
        )
        self.nk = len(self.kinds)
        self.ok = self.has_kinds(self.kinds) and layout.nodes == list(
            range(size)
        )
        if not self.ok:
            return
        self.rol = [topo.shuffle(u) for u in range(size)]
        self.bump = [
            v != u and v == topo.break_node(u)
            for u, v in enumerate(self.rol)
        ]

    def candidates(self, qid: int, dst: int, sid: int):
        nk = self.nk
        u, ki = divmod(qid, nk)
        if u == dst:
            return ((-1, sid, None),), ()
        k = self.t.states[sid]
        if k is None or k >= self.n2:
            # Decline: the symbolic path raises its usual error (state
            # advance on None, or "exhausted its shuffles").
            return None
        n = self.n
        classes = self.classes
        kinds = self.kinds
        phase2 = ki >= classes  # True in phase 2
        want = (dst >> ((n - k % n) % n)) & 1
        lsb = u & 1
        dy = ()
        if self.adaptive and not phase2 and lsb == 1 and want == 0:
            # Early 1 -> 0 over a dynamic link.
            dy = (((u ^ 1) * nk, sid, DYNAMIC_CLASS),)
        if lsb != want:
            if not phase2 and want == 1:
                return (((u ^ 1) * nk, sid, kinds[0]),), dy  # mandatory 0 -> 1
            if phase2:
                # Mandatory 1 -> 0.
                return (((u ^ 1) * nk + classes, sid, kinds[classes]),), dy
        v = self.rol[u]  # shuffle onwards
        if (k + 1 < n) == phase2:  # the shuffle flips the phase
            kind_idx = 0 if k + 1 < n else classes
        else:
            cls = ki - classes if phase2 else ki
            if self.bump[u]:
                cls = min(cls + 1, classes - 1)
            kind_idx = (classes if phase2 else 0) + cls
        return ((v * nk + kind_idx, Successor(k + 1), kinds[kind_idx]),), dy

    def inject_candidates(self, ui: int, dst: int, sid: int):
        return ((ui * self.nk, sid),)  # always P1C0
