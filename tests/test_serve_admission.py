"""Admission-control policies (`repro.serve.admission`).

Exercised against a hand-built injection-queue free mask — all the
controller reads — so each policy's decision table is tested in
isolation from any engine.
"""

from __future__ import annotations

import numpy as np

from repro.serve.admission import AdmissionController, Offer
from repro.serve.scenario import AdmissionConfig

N_NODES = 8


def free_mask(free=()):
    """One cycle's free mask over ``N_NODES`` node ids: the ids in
    ``free`` have an empty injection queue."""
    mask = np.zeros(N_NODES, dtype=bool)
    mask[list(free)] = True
    return mask


def controller(**kwargs) -> AdmissionController:
    return AdmissionController(AdmissionConfig(**kwargs))


def collect_placements(ctrl, free, cycle, offers):
    """The admitted offers, each with the cycle it was admitted in."""
    return [(o, cycle) for o in ctrl.admit(free, cycle, offers)]


def offer(src, qos="default", cycle=0):
    return Offer(src, src + 100, qos, cycle)


# ----------------------------------------------------------------------
def test_free_queue_accepts_immediately():
    ctrl = controller(policy="drop")
    placed = collect_placements(ctrl, free_mask({1}), 0, [offer(1)])
    assert len(placed) == 1
    assert ctrl.accepted == {"default": 1}
    assert ctrl.dropped == {}


def test_drop_policy_counts_and_discards():
    ctrl = controller(policy="drop")
    placed = collect_placements(ctrl, free_mask(), 0, [offer(1)])
    assert placed == []
    assert ctrl.dropped == {"default": 1}
    assert ctrl.deferred_total == 0


def test_defer_policy_retries_ahead_of_new_offers():
    ctrl = controller(policy="defer")
    # Cycle 0: node 1 is backpressured; the offer parks.
    assert collect_placements(ctrl, free_mask(), 0, [offer(1, "gold")]) == []
    assert ctrl.deferred_total == 1
    # Cycle 3: queue frees; the deferred offer goes first, the fresh
    # offer at the same node must wait behind it.
    placed = collect_placements(
        ctrl, free_mask({1}), 3, [offer(1, "bronze", cycle=3)]
    )
    assert [(o.qos, c) for o, c in placed] == [("gold", 3)]
    assert ctrl.deferred_total == 1  # the bronze one parked behind
    assert ctrl.defer_wait_cycles == 3
    assert ctrl.deferred_count == {"gold": 1, "bronze": 1}


def test_defer_fifo_is_bounded_dropping_newest():
    ctrl = controller(policy="defer", max_deferred_per_node=2)
    offers = [offer(1, f"c{i}") for i in range(4)]
    collect_placements(ctrl, free_mask(), 0, offers)
    assert ctrl.deferred_total == 2
    assert ctrl.dropped == {"c2": 1, "c3": 1}
    assert [o.qos for o in ctrl.deferred[1]] == ["c0", "c1"]


def test_shed_by_class_protects_high_priority():
    ctrl = controller(
        policy="shed-by-class",
        shed_threshold=2,
        max_deferred_per_node=10,
        class_order=("gold", "bronze"),
    )
    # Fill the backlog past the threshold with gold offers.
    collect_placements(
        ctrl, free_mask(), 0, [offer(1, "gold"), offer(2, "gold")]
    )
    assert ctrl.deferred_total == 2
    # Above threshold: bronze (lower than the best deferred class)
    # sheds, gold still defers.
    collect_placements(
        ctrl, free_mask(), 1, [offer(3, "bronze", 1), offer(4, "gold", 1)]
    )
    assert ctrl.shed == {"bronze": 1}
    assert ctrl.deferred_total == 3
    assert ctrl.deferred_count == {"gold": 3}


def test_shed_never_sheds_the_best_backlogged_class():
    """With one class in play, shed-by-class degrades to plain defer."""
    ctrl = controller(
        policy="shed-by-class", shed_threshold=1, class_order=("gold",)
    )
    collect_placements(ctrl, free_mask(), 0, [offer(1, "gold")])
    collect_placements(ctrl, free_mask(), 1, [offer(2, "gold", 1)])
    assert ctrl.shed == {}
    assert ctrl.deferred_total == 2


def test_unlisted_classes_rank_below_listed():
    ctrl = controller(
        policy="shed-by-class", shed_threshold=1, class_order=("gold",)
    )
    collect_placements(ctrl, free_mask(), 0, [offer(1, "gold")])
    collect_placements(ctrl, free_mask(), 1, [offer(2, "mystery", 1)])
    assert ctrl.shed == {"mystery": 1}


def test_cancel_backlog_counts_everything():
    ctrl = controller(policy="defer")
    collect_placements(
        ctrl, free_mask(), 0, [offer(1, "a"), offer(2, "b"), offer(3, "b")]
    )
    assert ctrl.cancel_backlog() == 3
    assert ctrl.cancelled == {"a": 1, "b": 2}
    assert ctrl.deferred_total == 0 and not ctrl.deferred
    # Counters survive in the snapshot.
    snap = ctrl.snapshot()
    assert snap["cancelled"] == {"a": 1, "b": 2}
    assert snap["deferred_backlog"] == 0


def test_new_offer_waits_behind_deferred_at_same_node():
    """Even with a free queue, FIFO order at a node is preserved."""
    ctrl = controller(policy="defer")
    collect_placements(ctrl, free_mask(), 0, [offer(1, "old")])
    # Queue frees, but this cycle's retry pass already used the slot:
    # the deferred offer is placed, the new one parks behind it.
    placed = collect_placements(
        ctrl, free_mask({1}), 1, [offer(1, "new", 1)]
    )
    assert [o.qos for o, _ in placed] == ["old"]
    assert [o.qos for o in ctrl.deferred[1]] == ["new"]


def test_classes_lists_every_seen_class_sorted():
    ctrl = controller(policy="drop")
    collect_placements(
        ctrl, free_mask({1}), 0, [offer(1, "z"), offer(2, "a")]
    )
    assert ctrl.classes() == ["a", "z"]


def test_second_offer_at_a_node_admitted_this_cycle_meets_backpressure():
    """Admitting an offer clears its node's entry in the free mask, so
    a second offer at that node in the same cycle finds the queue
    occupied, as a real engine's size-1 injection queue would be."""
    for policy in ("drop", "defer"):
        ctrl = controller(policy=policy)
        free = free_mask({1, 2})
        placed = collect_placements(
            ctrl, free, 0, [offer(1, "a"), offer(1, "b"), offer(2, "c")]
        )
        assert [o.qos for o, _ in placed] == ["a", "c"]
        assert not free.any()
        assert ctrl.accepted == {"a": 1, "c": 1}
        if policy == "drop":
            assert ctrl.dropped == {"b": 1}
            assert ctrl.deferred_total == 0
        else:
            assert [o.qos for o in ctrl.deferred[1]] == ["b"]
            assert ctrl.dropped == {}
