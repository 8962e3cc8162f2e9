"""RoutingTables' static structure against a per-element spec.

The tables build their node, queue and slot ids as numpy arrays from
two closed-form hooks (``Topology.link_table`` and
``RoutingAlgorithm.link_class_table``).  The spec below is the
per-element loop those arrays replaced: it walks ``neighbors`` /
``link_index`` / ``buffer_classes`` / ``central_queue_kinds`` node by
node, link by link and class by class.  Every structure field, the
``slot_id`` lookup and the lazily built label-keyed views must match
it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.queues import QueueId
from repro.faults.adapters import FaultAwareRouting
from repro.routing import (
    BenesAdaptiveRouting,
    BenesObliviousRouting,
    CCCAdaptiveRouting,
    HypercubeAdaptiveRouting,
    HypercubeHungRouting,
    HypercubeObliviousRouting,
    Mesh2DAdaptiveRouting,
    Mesh2DRestrictedRouting,
    MeshAdaptiveRouting,
    MeshObliviousRouting,
    MeshRestrictedRouting,
    ShuffleExchangeRouting,
    StructuredBufferPoolRouting,
    TorusRouting,
)
from repro.sim import (
    PacketSimulator,
    RandomTraffic,
    StaticInjection,
    VectorSimulator,
    make_rng,
)
from repro.sim.tables import RoutingTables
from repro.statics import synthesize_routing
from repro.telemetry import TelemetryProbe
from repro.topology import (
    BenesNetwork,
    CubeConnectedCycles,
    Hypercube,
    Mesh,
    Mesh2D,
    ShuffleExchange,
    Torus,
)
from repro.topology.base import Topology

from test_sim_vector import _SingleNode, _SingleNodeRouting


def spec_structure(alg) -> dict:
    """Every structure field, built one element at a time."""
    topo = alg.topology
    nodes = list(topo.nodes())
    nid = {u: i for i, u in enumerate(nodes)}
    node_qids, queue_node, queue_kind, qid_of = [], [], [], {}
    for ui, u in enumerate(nodes):
        ids = []
        for kind in alg.central_queue_kinds(u):
            qid = len(queue_node)
            qid_of[(ui, kind)] = qid
            queue_node.append(ui)
            queue_kind.append(kind)
            ids.append(qid)
        node_qids.append(ids)

    slot_src, slot_dst, slot_cls, slot_of = [], [], [], {}
    node_out_start, node_out_count = [], []
    link_classes, link_first, link_slot_lists = {}, {}, {}
    for ui, u in enumerate(nodes):
        node_out_start.append(len(slot_src))
        nbrs = sorted(topo.neighbors(u), key=lambda v: topo.link_index(u, v))
        for v in nbrs:
            classes = alg.buffer_classes(u, v)
            link_classes[(u, v)] = classes
            vi = nid[v]
            link_first[(ui, vi)] = len(slot_src)
            slots = []
            for cls in classes:
                s = len(slot_src)
                slot_of[(ui, vi, cls)] = s
                slot_src.append(ui)
                slot_dst.append(vi)
                slot_cls.append(cls)
                slots.append(s)
            link_slot_lists.setdefault(len(slots), []).append(slots)
        node_out_count.append(len(slot_src) - node_out_start[-1])

    node_in_slots = [[] for _ in nodes]
    slot_in_pos = [0] * len(slot_src)
    for s, vi in enumerate(slot_dst):
        slot_in_pos[s] = len(node_in_slots[vi])
        node_in_slots[vi].append(s)

    return {
        "nodes": nodes,
        "nid": nid,
        "node_qids": node_qids,
        "queue_node": queue_node,
        "queue_kind": queue_kind,
        "qid_of": qid_of,
        "queue_objs": [
            QueueId(nodes[u], k) for u, k in zip(queue_node, queue_kind)
        ],
        "slot_src": slot_src,
        "slot_dst": slot_dst,
        "slot_cls": slot_cls,
        "slot_of": slot_of,
        "node_out_start": node_out_start,
        "node_out_count": node_out_count,
        "node_in_slots": node_in_slots,
        "slot_in_pos": slot_in_pos,
        "link_classes": link_classes,
        "link_first": link_first,
        "link_groups": {
            k: np.asarray(v, dtype=np.int64).reshape(len(v), k)
            for k, v in link_slot_lists.items()
        },
    }


def assert_structure_matches_spec(alg) -> None:
    t = RoutingTables(alg)
    want = spec_structure(alg)
    n = len(want["nodes"])

    assert t.nodes == want["nodes"]
    assert t.n_queues == len(want["queue_node"])
    assert t.n_slots == len(want["slot_src"])
    assert t.n_links == len(want["link_classes"])
    assert t.node_qids == want["node_qids"]
    assert t.queue_node.tolist() == want["queue_node"]
    assert t.queue_kind == want["queue_kind"]
    assert t.slot_src.tolist() == want["slot_src"]
    assert t.slot_dst.tolist() == want["slot_dst"]
    assert [t.class_names[c] for c in t.slot_cls.tolist()] == want["slot_cls"]
    assert t.node_out_start.tolist() == want["node_out_start"]
    assert t.node_out_count.tolist() == want["node_out_count"]
    assert t.slot_in_pos.tolist() == want["slot_in_pos"]
    assert t.node_in_count.tolist() == [len(s) for s in want["node_in_slots"]]
    assert list(t.link_groups) == list(want["link_groups"])
    for k, mat in want["link_groups"].items():
        assert t.link_groups[k].dtype == np.int64
        assert np.array_equal(t.link_groups[k], mat), k

    # Per-link first slots, indexed like the topology's link table.
    nbr = alg.topology.link_table()
    assert t.link_first_slot.shape == nbr.shape
    for ui, row in enumerate(nbr.tolist()):
        for j, vi in enumerate(row):
            expect = -1 if vi < 0 else want["link_first"][(ui, vi)]
            assert t.link_first_slot[ui, j] == expect, (ui, j)

    # slot_id: every present (link, class), and absent ones.
    for (ui, vi, cls), s in want["slot_of"].items():
        assert t.slot_id(ui, vi, cls) == s
    for ui in range(n):
        assert t.slot_id(ui, ui, "no-such-class") is None

    # The lazy views, in their reference insertion order.
    assert list(t.nid.items()) == list(want["nid"].items())
    assert list(t.qid_of.items()) == list(want["qid_of"].items())
    assert t.queue_objs == want["queue_objs"]
    assert t.queue_labels == [q.node for q in want["queue_objs"]]
    assert t.slot_labels == [
        (want["nodes"][u], want["nodes"][v], c)
        for u, v, c in zip(
            want["slot_src"], want["slot_dst"], want["slot_cls"]
        )
    ]
    assert t.node_in_slots == want["node_in_slots"]
    assert list(t.link_classes.items()) == list(want["link_classes"].items())


def _random_digraph_scheme():
    rng = np.random.default_rng(17)  # lint: ok
    n = 8
    edges = set()
    while len(edges) < 17:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((u, v))
    return synthesize_routing(sorted(edges), name="random8")


CONFIGS = {
    **{
        f"{cls.__name__}-{n}": (lambda cls=cls, n=n: cls(Hypercube(n)))
        for cls in (
            HypercubeAdaptiveRouting,
            HypercubeHungRouting,
            HypercubeObliviousRouting,
        )
        for n in (1, 2, 3, 4, 5)
    },
    **{
        f"{cls.__name__}-{'x'.join(map(str, shape))}": (
            lambda cls=cls, shape=shape: cls(Mesh(shape))
        )
        for cls in (
            MeshAdaptiveRouting,
            MeshRestrictedRouting,
            MeshObliviousRouting,
        )
        for shape in ((2,), (4,), (3, 3), (2, 3, 2), (4, 3))
    },
    "mesh2d-adaptive": lambda: Mesh2DAdaptiveRouting(Mesh2D(3, 4)),
    "mesh2d-restricted": lambda: Mesh2DRestrictedRouting(Mesh2D(3)),
    "torus-3x3": lambda: TorusRouting(Torus((3, 3))),
    "torus-3x4": lambda: TorusRouting(Torus((3, 4))),
    "ccc-3": lambda: CCCAdaptiveRouting(CubeConnectedCycles(3)),
    "shuffle-exchange-3": lambda: ShuffleExchangeRouting(ShuffleExchange(3)),
    "benes-adaptive-2": lambda: BenesAdaptiveRouting(BenesNetwork(2)),
    "benes-oblivious-2": lambda: BenesObliviousRouting(BenesNetwork(2)),
    "buffer-pool-3": lambda: StructuredBufferPoolRouting(Hypercube(3)),
    "fault-aware-cube": lambda: FaultAwareRouting(
        HypercubeAdaptiveRouting(Hypercube(3))
    ),
    "fault-aware-mesh": lambda: FaultAwareRouting(
        MeshAdaptiveRouting(Mesh((3, 3)))
    ),
    "random-digraph": _random_digraph_scheme,
    "single-node": lambda: _SingleNodeRouting(_SingleNode()),
}


@pytest.mark.parametrize("build", list(CONFIGS.values()), ids=list(CONFIGS))
def test_structure_matches_per_element_spec(build):
    assert_structure_matches_spec(build())


def _compact(table: np.ndarray) -> list[list[int]]:
    return [[v for v in row if v >= 0] for row in table.tolist()]


@pytest.mark.parametrize(
    "topo",
    [Hypercube(n) for n in range(1, 7)]
    + [Mesh(s) for s in ((2,), (4,), (3, 3), (2, 3, 2))]
    + [Mesh2D(3, 4)]
    + [Torus(s) for s in ((3, 3), (3, 4, 5))],
    ids=lambda t: t.name,
)
def test_closed_form_link_table_equals_base_loop(topo):
    """Same neighbours in the same (``link_index``) order per row.

    The hypercube fills every column and the torus keeps the base loop,
    so their tables are equal outright; the mesh keeps fixed columns (``2i`` = ``+1``, ``2i+1`` =
    ``-1`` along dimension ``i``) with ``-1`` at the boundary, where the
    base loop packs each row to the left.
    """
    closed = topo.link_table()
    loop = Topology.link_table(topo)
    assert closed.dtype == np.int64
    assert _compact(closed) == _compact(loop)
    if isinstance(topo, Mesh) and not isinstance(topo, Torus):
        assert closed.shape == (topo.num_nodes, 2 * topo.k)
        for ui, u in enumerate(topo.nodes()):
            for i in range(topo.k):
                assert (closed[ui, 2 * i] >= 0) == (u[i] + 1 < topo.shape[i])
                assert (closed[ui, 2 * i + 1] >= 0) == (u[i] > 0)
    else:
        assert np.array_equal(closed, loop)


def test_views_are_built_on_first_use():
    t = RoutingTables(HypercubeAdaptiveRouting(Hypercube(4)))
    for view in RoutingTables._VIEWS:
        assert view not in t.__dict__
    before = t.memory_bytes()
    assert t.nid[5] == 5
    assert "nid" in t.__dict__
    assert t.memory_bytes() > before  # built views are counted


def test_probe_reads_the_link_count_from_the_tables():
    """A probe on the vector engine counts links without building the
    label-keyed ``link_classes`` view; utilization matches the generic
    engine's count."""
    topo = Mesh((3, 4))
    counts = {}
    for engine_cls in (PacketSimulator, VectorSimulator):
        sim = engine_cls(
            MeshAdaptiveRouting(topo),
            StaticInjection(1, RandomTraffic(topo), make_rng(3)),
        )
        probe = TelemetryProbe(events=False).attach(sim)
        counts[engine_cls.__name__] = probe._n_links
        if engine_cls is VectorSimulator:
            assert "link_classes" not in sim.tables.__dict__
    assert counts["VectorSimulator"] == counts["PacketSimulator"] == 34
