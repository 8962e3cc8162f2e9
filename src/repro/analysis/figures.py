"""Programmatic regeneration of the paper's figures.

The paper's figures are structural diagrams, not data plots:

* **Figure 1** — the QDG of a 3-hypercube hung from ``000`` with its
  dynamic links;
* **Figure 2** — the QDG of a 3x3 mesh hung from ``(0,0)``;
* **Figure 3** — the QDG of an 8-node shuffle-exchange;
* **Figures 4-6** — the functional node designs for the three
  algorithms (node ``0101`` of the 4-hypercube, a mesh node, a
  shuffle-exchange node).

This module regenerates each figure as (a) a machine-readable
structure, (b) a Graphviz DOT document, and (c) an ASCII summary, so
the reproduction can be inspected and diffed in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from ..core.qdg import build_qdg, explore, qdg_stats
from ..core.routing_function import RoutingAlgorithm
from ..node.model import NodeDesign, build_node_design
from ..routing.hypercube import HypercubeAdaptiveRouting
from ..routing.mesh import Mesh2DAdaptiveRouting
from ..routing.shuffle_exchange import ShuffleExchangeRouting
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D
from ..topology.shuffle_exchange import ShuffleExchange

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class FigureBundle:
    """One regenerated figure in all its renderings."""

    name: str
    graph: nx.DiGraph | None
    dot: str
    text: str
    stats: dict


def _default_label(q) -> str:
    return f"{q.kind}@{q.node}"


def qdg_to_dot(
    qdg: nx.DiGraph,
    title: str,
    label: Callable = _default_label,
    hide_inject_deliver: bool = True,
) -> str:
    """Graphviz DOT for a QDG; dynamic links are rendered dashed.

    The paper's Figures 1-3 omit the injection and delivery queues;
    ``hide_inject_deliver`` mirrors that.
    """
    lines = [
        f'digraph "{title}" {{',
        "  rankdir=TB;",
        '  node [shape=box, fontsize=10];',
    ]
    visible = {
        q
        for q in qdg.nodes
        if not (hide_inject_deliver and (q.is_injection or q.is_delivery))
    }
    for q in sorted(visible, key=repr):
        lines.append(f'  "{label(q)}";')
    for u, v, dyn in qdg.edges(data="dynamic"):
        if u not in visible or v not in visible:
            continue
        style = ' [style=dashed, color=red]' if dyn else ""
        lines.append(f'  "{label(u)}" -> "{label(v)}"{style};')
    lines.append("}")
    return "\n".join(lines)


def qdg_figure(
    algorithm: RoutingAlgorithm,
    title: str,
    label: Callable = _default_label,
) -> FigureBundle:
    """Regenerate a QDG figure (Figures 1-3) for an algorithm instance."""
    exp = explore(algorithm)
    qdg = build_qdg(algorithm, include_dynamic=True, exploration=exp)
    stats = qdg_stats(qdg)
    static = [e for e in qdg.edges(data="dynamic") if not e[2]]
    dynamic = [e for e in qdg.edges(data="dynamic") if e[2]]
    text_lines = [
        title,
        f"  queues: {stats['queues']}",
        f"  static QDG edges:  {stats['static_edges']}",
        f"  dynamic QDG edges: {stats['dynamic_edges']}",
        "  sample static edges: "
        + ", ".join(f"{label(u)}->{label(v)}" for u, v, _ in static[:6]),
        "  sample dynamic edges: "
        + ", ".join(f"{label(u)}->{label(v)}" for u, v, _ in dynamic[:6]),
    ]
    return FigureBundle(
        name=title,
        graph=qdg,
        dot=qdg_to_dot(qdg, title, label),
        text="\n".join(text_lines),
        stats=stats,
    )


def figure1_hypercube_qdg(n: int = 3) -> FigureBundle:
    """Figure 1: n-hypercube hung from 0...0 with dynamic links."""
    cube = Hypercube(n)
    alg = HypercubeAdaptiveRouting(cube)
    return qdg_figure(
        alg,
        f"Figure 1: {n}-hypercube hung from {'0' * n} with dynamic links",
        label=lambda q: f"{q.kind},{cube.format_node(q.node)}"
        if q.is_central
        else f"{q.kind}@{cube.format_node(q.node)}",
    )


def figure2_mesh_qdg(rows: int = 3) -> FigureBundle:
    """Figure 2: rows x rows mesh hung from (0,0) with dynamic links."""
    mesh = Mesh2D(rows)
    alg = Mesh2DAdaptiveRouting(mesh)
    return qdg_figure(
        alg, f"Figure 2: {rows}-mesh hung from (0,0) with dynamic links"
    )


def figure3_shuffle_qdg(n: int = 3) -> FigureBundle:
    """Figure 3: 2**n-node shuffle-exchange with dynamic links."""
    se = ShuffleExchange(n)
    alg = ShuffleExchangeRouting(se)
    return qdg_figure(
        alg,
        f"Figure 3: {n}-shuffle-exchange hung from {'0' * n} "
        "with dynamic links",
        label=lambda q: f"{q.kind},{se.format_node(q.node)}"
        if q.is_central
        else f"{q.kind}@{se.format_node(q.node)}",
    )


def node_design_figure(
    algorithm: RoutingAlgorithm,
    node: Hashable,
    title: str,
    format_node: Callable = str,
) -> FigureBundle:
    """Regenerate a node-design figure (Figures 4-6)."""
    design: NodeDesign = build_node_design(algorithm, node)
    text = f"{title}\n" + design.describe(format_node)
    stats = {
        "central_queues": design.num_central_queues,
        "buffers": design.num_buffers,
        "out_links": len(design.output_links),
        "in_links": len(design.input_links),
    }
    dot_lines = [f'digraph "{title}" {{', '  node [shape=record];']
    qlabel = "|".join(
        [f"<inj> inj"]
        + [f"<{k}> {k}" for k in design.central_queues]
        + ["<del> del"]
    )
    dot_lines.append(f'  "node" [label="{{{qlabel}}}"];')
    for l in design.output_links:
        for cls in l.classes:
            dot_lines.append(
                f'  "node" -> "out:{format_node(l.link[1])}:{cls}";'
            )
    for l in design.input_links:
        for cls in l.classes:
            dot_lines.append(
                f'  "in:{format_node(l.link[0])}:{cls}" -> "node";'
            )
    dot_lines.append("}")
    return FigureBundle(
        name=title,
        graph=None,
        dot="\n".join(dot_lines),
        text=text,
        stats=stats,
    )


def figure4_hypercube_node(n: int = 4, node: int = 0b0101) -> FigureBundle:
    """Figure 4: node 0101 of the 4-hypercube."""
    cube = Hypercube(n)
    alg = HypercubeAdaptiveRouting(cube)
    return node_design_figure(
        alg,
        node,
        f"Figure 4: node {cube.format_node(node)} of the {n}-hypercube",
        format_node=cube.format_node,
    )


def figure5_mesh_node(rows: int = 4, node=(1, 2)) -> FigureBundle:
    """Figure 5: the node for the mesh."""
    mesh = Mesh2D(rows)
    alg = Mesh2DAdaptiveRouting(mesh)
    return node_design_figure(
        alg, node, f"Figure 5: node {node} of the {rows}x{rows} mesh"
    )


def figure6_shuffle_node(n: int = 3, node: int = 0b001) -> FigureBundle:
    """Figure 6: the node for the shuffle-exchange."""
    se = ShuffleExchange(n)
    alg = ShuffleExchangeRouting(se)
    return node_design_figure(
        alg,
        node,
        f"Figure 6: node {se.format_node(node)} of the {n}-shuffle-exchange",
        format_node=se.format_node,
    )


ALL_FIGURES = {
    "figure1": figure1_hypercube_qdg,
    "figure2": figure2_mesh_qdg,
    "figure3": figure3_shuffle_qdg,
    "figure4": figure4_hypercube_node,
    "figure5": figure5_mesh_node,
    "figure6": figure6_shuffle_node,
}
