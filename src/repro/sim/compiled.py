"""Compiled generic engine: plan-cache-backed :class:`PacketSimulator`.

:class:`CompiledPacketSimulator` runs *any*
:class:`~repro.core.routing_function.RoutingAlgorithm` — mesh, torus,
shuffle-exchange, CCC, Beneš, user-defined — with the reference
engine's exact Section-7.1 semantics, but consults a
:class:`~repro.sim.plans.RoutingPlanCache` instead of re-deriving
``static_hops`` / ``dynamic_hops`` / ``buffer_class`` / ``update_state``
per message per cycle.  On top of the plan cache it applies four
allocation-free rewrites of the inner loop:

* central-queue pops are deferred: moves mark ``(kind, position)`` and
  each touched queue is compacted once at the end of the node cycle,
  replacing the reference engine's per-move ``list.remove`` scans
  (capacity checks read ``len(queue) + pending_removals``);
* buffer assignment runs message-major: each entry, in service order,
  claims the lowest-rank free buffer among its own (slot-sorted)
  candidates.  Greedy matching with globally aligned preference orders
  is order-insensitive, so this yields the same assignment as the
  reference engine's buffer-major loop while touching only
  ``O(entries x degree)`` candidate pairs;
* each message caches its resolved plan (``Message.plan_sig`` /
  ``Message.plan``): a packet parked in the same queue with the same
  state across cycles — the common case under load — skips even the
  memo-dict hash;
* per-``(node, kind)`` :class:`QueueId` objects and per-link class
  rotation orders are interned at construction instead of being
  rebuilt every cycle;
* the input-side rotation walks indices instead of materializing a
  rotated source list per node per cycle.

Equivalence is not approximate: iteration orders (buffer fill low-to-
high link index, FIFO/LIFO entry ranks, ``paper``/``rotating`` buffer
policies, rotating input fairness, per-link class rotation) match the
reference engine statement for statement, and the same injection-model
objects drive both, so a run with the same seed produces identical
per-packet latencies on every topology
(``tests/test_sim_compiled.py`` cross-validates this, including the
LIFO and rotating-policy variants).

**Identity guarantees and limitations** (engine matrix:
``docs/ARCHITECTURE.md``): packet-for-packet identical to the
reference engine on every topology, including byte-identical canonical
telemetry event logs, with the *full* feature surface — fault
observers, telemetry probes, route tracing, service/policy variants.
The only behavioral caveat is performance-shaped: unhashable routing
states skip the plan cache and fall back to direct evaluation (still
identical, merely slower).  This is the engine ``auto`` selects for
everything it does not give the vector engine.
"""

from __future__ import annotations

from typing import Hashable

from ..core.routing_function import RoutingAlgorithm
from ..core.queues import QueueId
from .engine import PacketSimulator
from .injection import InjectionModel
from .plans import DELIVER_STEP, SELF_STEP, RoutingPlanCache


class CompiledPacketSimulator(PacketSimulator):
    """Drop-in replacement for :class:`PacketSimulator` (any algorithm)."""

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        injection: InjectionModel,
        plan_cache: RoutingPlanCache | None = None,
        **kwargs,
    ):
        super().__init__(algorithm, injection, **kwargs)
        #: Lazily-populated plan memo; may be shared across simulators
        #: of the same algorithm instance (e.g. an offered-load sweep).
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else RoutingPlanCache(algorithm)
        )
        if self.plan_cache.algorithm is not algorithm:
            raise ValueError("plan_cache was built for a different algorithm")

        # Interned central-queue ids, aligned with self.kinds[u].
        self._qids: dict[Hashable, tuple[QueueId, ...]] = {
            u: tuple(QueueId(u, k) for k in self.kinds[u]) for u in self.nodes
        }
        # Out-buffer slot layout: (neighbor, class) -> position in
        # self.out_keys[u].  Lets fill plans address buffers by integer
        # slot instead of hashing (v, cls) per buffer per cycle.
        self._slot_maps: dict[Hashable, dict[tuple, int]] = {
            u: {(v, cls): j for j, (v, cls, _key) in enumerate(keys)}
            for u, keys in self.out_keys.items()
        }
        # Out-buffer keys per node, aligned with self.out_keys[u]; the
        # fill loop addresses out_buf through these by slot index.
        self._out_bufkeys: dict[Hashable, tuple[tuple, ...]] = {
            u: tuple(key for (_v, _cls, key) in keys)
            for u, keys in self.out_keys.items()
        }
        # Engine-level fill-plan memo: the shared CentralPlan with its
        # external candidates re-keyed to this engine's slot indices.
        # (queue, dst, state) -> (ext, internal) with
        # ext = ((slot, next_queue, new_state), ...) sorted by slot.
        self._fill_memo: dict[tuple, tuple] = {}
        # Per-link buffer keys, pre-rotated: _link_rot[i][r] is the key
        # order the reference engine would use at cycle ≡ r (mod #classes).
        self._link_rot: list[tuple[tuple[tuple, ...], ...]] = []
        for (u, v), classes in self.link_classes.items():
            base = tuple((u, v, cls) for cls in classes)
            self._link_rot.append(
                tuple(tuple(base[r:] + base[:r]) for r in range(len(base)))
            )

    def _build_fill_plan(self, key: tuple) -> tuple:
        """Build (and memoize, if hashable) one slot-indexed fill plan."""
        q_id, dst, state = key
        shared = self.plan_cache.central_plan(q_id, dst, state)
        slot_map = self._slot_maps[q_id.node]
        ext = []
        for slot, (q2, new_state, dyn) in shared.external.items():
            j = slot_map.get(slot)
            # Candidates without a physical buffer are unreachable in
            # the reference engine too; drop them here.
            if j is not None:
                ext.append((j, q2, new_state, slot[1], dyn))
        # Slot-ascending order lets the message-major fill loop take
        # the first free candidate under the "paper" policy (and scan
        # for the min rotated rank under "rotating") without sorting.
        ext.sort(key=lambda cand: cand[0])
        plan = (tuple(ext), shared.internal)
        try:
            self._fill_memo[key] = plan
        except TypeError:  # unhashable state: rebuild per use
            pass
        return plan

    # -- node cycle, part 1: queues -> output buffers + internal moves ----
    def _node_fill_output_buffers(self, u: Hashable) -> None:
        queues = self.central[u]
        qids = self._qids[u]

        # Live views of the non-empty queues, kind-index ascending.  No
        # mutation happens during the scan below (pops are deferred,
        # internal appends run in phase 2), so indexing these live
        # equals the reference engine's entry snapshot.
        active = []
        maxlen = 0
        for ki, kind in enumerate(self.kinds[u]):
            q = queues[kind]
            if q:
                active.append((qids[ki], kind, q))
                if len(q) > maxlen:
                    maxlen = len(q)
        if not active:
            return

        out_buf = self.out_buf
        bufkeys = self._out_bufkeys[u]
        n_keys = len(bufkeys)
        start = self.cycle % n_keys if self.policy == "rotating" else 0
        taken = bytearray(n_keys)
        fill_memo = self._fill_memo
        trace = self.trace
        cycle = self.cycle
        events = self._events
        #: kind -> snapshot positions popped this cycle (compacted below).
        removed: dict[str, list[int]] = {}
        #: kind -> pending removal count; len(queue) + delta is the
        #: effective occupancy the reference engine would observe.
        delta: dict[str, int] = {}
        #: unmoved entries that carry internal steps, in service order.
        pending: list[tuple] = []

        # Message-major assignment, walking entries directly in service
        # order: positions ascending (FIFO) / descending (LIFO), kind
        # index ascending as the tie-break.  Each entry claims the free
        # un-taken buffer its plan ranks first; by the aligned-greedy
        # equivalence this reproduces the reference engine's
        # buffer-major matching exactly.
        positions = (
            range(maxlen)
            if self.service == "fifo"
            else range(maxlen - 1, -1, -1)
        )
        for pos in positions:
            for q_id, kind, q in active:
                if pos >= len(q):
                    continue
                msg = q[pos]
                sig = (q_id, msg.state)
                if msg.plan_sig == sig:
                    ext, internal = msg.plan
                else:
                    key = (q_id, msg.dst, msg.state)
                    try:
                        plan = fill_memo.get(key)
                    except TypeError:
                        plan = self._build_fill_plan(key)
                    else:
                        if plan is None:
                            plan = self._build_fill_plan(key)
                    msg.plan_sig = sig
                    msg.plan = plan
                    ext, internal = plan
                chosen = None
                if ext:
                    if start:
                        # "rotating": rank is the offset from the
                        # cycle's starting slot; take the minimum.
                        best = n_keys
                        for cand in ext:
                            j = cand[0]
                            if taken[j] or out_buf[bufkeys[j]] is not None:
                                continue
                            r = j - start
                            if r < 0:
                                r += n_keys
                            if r < best:
                                best = r
                                chosen = cand
                    else:
                        # "paper": candidates are slot-ascending, so
                        # the first free one is the lowest-rank one.
                        for cand in ext:
                            j = cand[0]
                            if not taken[j] and out_buf[bufkeys[j]] is None:
                                chosen = cand
                                break
                if chosen is not None:
                    j, q2, new_state, cls, dyn = chosen
                    taken[j] = 1
                    removed.setdefault(kind, []).append(pos)
                    delta[kind] = delta.get(kind, 0) - 1
                    msg.state = new_state
                    msg.target = q2
                    if trace:
                        msg.record_hop(q2)
                    out_buf[bufkeys[j]] = msg
                    self._last_progress = cycle
                    if events is not None:
                        events.append(
                            ("hop", cycle, msg.uid, u, q2.node, cls, dyn,
                             q2.kind)
                        )
                elif internal:
                    pending.append((pos, kind, msg, internal))

        # Internal moves (phase change, delivery, self-state updates).
        cap = self.central_capacity
        for pos, kind, msg, internal in pending:
            for action, q2, new_state in internal:
                if action == DELIVER_STEP:
                    removed.setdefault(kind, []).append(pos)
                    delta[kind] = delta.get(kind, 0) - 1
                    self._deliver(msg)
                    break
                if action == SELF_STEP:
                    # Degenerate self-hop: state advances in place.
                    msg.state = new_state
                    if trace:
                        msg.record_hop(q2)
                    self._last_progress = cycle
                    if events is not None:
                        events.append(
                            ("enqueue", cycle, msg.uid, u, q2.kind)
                        )
                    break
                # MOVE_STEP: sibling central queue, capacity permitting.
                k2 = q2.kind
                if len(queues[k2]) + delta.get(k2, 0) < cap:
                    removed.setdefault(kind, []).append(pos)
                    delta[kind] = delta.get(kind, 0) - 1
                    msg.state = new_state
                    if trace:
                        msg.record_hop(q2)
                    queues[k2].append(msg)
                    self._last_progress = cycle
                    if events is not None:
                        events.append(
                            ("enqueue", cycle, msg.uid, u, q2.kind)
                        )
                    break

        # One compaction per touched queue replaces the reference
        # engine's per-move list.remove scans.  Same-cycle appends sit
        # past the snapshot positions, so they always survive.
        for kind, poplist in removed.items():
            q = queues[kind]
            drop = set(poplist)
            queues[kind] = [m for i, m in enumerate(q) if i not in drop]

    # -- node cycle, part 2: input + injection buffers -> queues ----------
    def _node_read_inputs(self, u: Hashable) -> None:
        queues = self.central[u]
        cap = self.central_capacity
        in_keys = self.in_keys[u]
        n_in = len(in_keys)
        total = n_in + 1  # + the injection buffer
        start = self.cycle % total
        in_buf = self.in_buf
        cache = self.plan_cache
        entry_memo = cache.entry_memo
        trace = self.trace
        events = self._events
        for i in range(total):
            idx = (start + i) % total
            if idx == n_in:  # the injection buffer
                msg = self.inj[u]
                if msg is None:
                    continue
                for kind, q2, st in cache.injection_plan(
                    u, msg.dst, msg.state
                ):
                    if len(queues[kind]) < cap:
                        msg.state = st
                        if trace:
                            msg.record_hop(q2)
                        queues[kind].append(msg)
                        self.inj[u] = None
                        self._last_progress = self.cycle
                        if events is not None:
                            events.append(
                                ("enqueue", self.cycle, msg.uid, u, kind)
                            )
                        break
            else:
                src = in_keys[idx]
                msg = in_buf[src]
                if msg is None:
                    continue
                nominal = msg.target
                key = (nominal, msg.dst, msg.state)
                try:
                    resolved = entry_memo.get(key)
                except TypeError:
                    resolved = cache._resolve_entry(*key)
                else:
                    if resolved is None:
                        resolved = cache.entry(*key)
                q2, st = resolved
                if len(queues[q2.kind]) < cap:
                    in_buf[src] = None
                    msg.target = None
                    msg.state = st
                    if trace and q2 != nominal:
                        msg.record_hop(q2)
                    queues[q2.kind].append(msg)
                    self._last_progress = self.cycle
                    if events is not None:
                        events.append(
                            ("enqueue", self.cycle, msg.uid, u, q2.kind)
                        )

    def invalidate_plans(self) -> None:
        """Drop every memoized routing plan (fault-epoch transitions).

        The plan memos are pure functions of ``(queue, dst, state)``
        only while the routing function itself is fixed; a
        :class:`~repro.faults.adapters.FaultAwareRouting` adapter whose
        live fault set just changed invalidates all of them.  Fault
        transitions are rare, so a full rebuild is cheaper than
        epoch-tagging every hot-path key.
        """
        self._fill_memo.clear()
        self.plan_cache = RoutingPlanCache(self.algorithm)
        for u in self.nodes:
            for q in self.central[u].values():
                for msg in q:
                    msg.plan_sig = None
                    msg.plan = None
            msg = self.inj[u]
            if msg is not None:
                msg.plan_sig = None
                msg.plan = None
        for buf in (self.out_buf, self.in_buf):
            for msg in buf.values():
                if msg is not None:
                    msg.plan_sig = None
                    msg.plan = None

    # -- link cycle --------------------------------------------------------
    def _link_cycle(self) -> None:
        cycle = self.cycle
        out_buf = self.out_buf
        in_buf = self.in_buf
        blocked = self.blocked_links
        for rots in self._link_rot:
            if blocked and rots[0][0][:2] in blocked:
                continue  # dead or stalled link: transfers nothing
            keys = rots[cycle % len(rots)] if len(rots) > 1 else rots[0]
            for key in keys:
                msg = out_buf[key]
                if msg is not None and in_buf[key] is None:
                    out_buf[key] = None
                    in_buf[key] = msg
                    self._last_progress = cycle
                    break  # one packet per link direction per cycle
