"""Deadlock-freedom verification for worm-hole schemes.

Packet routing needs the *queue* dependency graph to be (dynamically)
acyclic; worm-hole routing needs more, because a blocked worm keeps
holding every channel behind its header.  The sufficient condition
(anticipated by [GPS91], later formalised by Duato) is:

1. the **escape** sub-network must offer a candidate at every
   reachable ``(node, state)`` short of the destination, and
2. the escape channels' **extended** dependency graph — including
   *indirect* dependencies, where a worm holds an escape channel,
   travels over adaptive channels, and only later requests another
   escape channel — must be acyclic.

:func:`extended_escape_cdg` builds that graph by exhaustive
exploration of reachable header configurations ``(node, state,
last escape channel taken)``; consecutive-escape edges compose
transitively, so cycle detection over this graph covers arbitrary
held-channel chains.  :func:`verify_wormhole_scheme` packages the
checks into a report, mirroring :mod:`repro.core.verification`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable

from .channels import ChannelId
from .routing import ADAPTIVE, WormholeScheme

if TYPE_CHECKING:
    import networkx as nx


def _freeze(state: Any) -> Any:
    if isinstance(state, dict):
        return tuple(sorted(state.items()))
    return state


@dataclass
class WormholeReport:
    """Outcome of verifying one worm-hole scheme instance."""

    scheme: str
    escape_available: bool = True
    escape_cdg_acyclic: bool = True
    adjacency_ok: bool = True
    minimal: bool | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def deadlock_free(self) -> bool:
        return (
            self.escape_available
            and self.escape_cdg_acyclic
            and self.adjacency_ok
        )

    def fail(self, attr: str, msg: str, cap: int = 20) -> None:
        setattr(self, attr, False)
        if len(self.errors) < cap:
            self.errors.append(msg)

    def summary(self) -> str:
        flags = {
            "escape-available": self.escape_available,
            "extended-escape-CDG": self.escape_cdg_acyclic,
            "adjacency": self.adjacency_ok,
        }
        if self.minimal is not None:
            flags["minimal"] = self.minimal
        body = ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in flags.items()
        )
        return f"{self.scheme}: {body}"


def extended_escape_cdg(
    scheme: WormholeScheme,
    sources: Iterable[Hashable] | None = None,
    destinations: Iterable[Hashable] | None = None,
    report: WormholeReport | None = None,
) -> nx.DiGraph:
    """The escape channels' extended dependency graph.

    Explores every reachable header configuration and adds an edge
    from the last escape channel a worm has taken to every escape
    channel it may request afterwards (directly or after any number of
    adaptive hops).
    """
    import networkx as nx

    topo = scheme.topology
    srcs = list(sources) if sources is not None else list(topo.nodes())
    dsts = (
        list(destinations) if destinations is not None else list(topo.nodes())
    )
    g = nx.DiGraph()
    for dst in dsts:
        seen: set[tuple] = set()
        stack: list[tuple[Hashable, Any, ChannelId | None]] = []
        for src in srcs:
            if src == dst:
                continue
            st = scheme.initial_state(src, dst)
            key = (src, _freeze(st), None)
            if key not in seen:
                seen.add(key)
                stack.append((src, st, None))
        while stack:
            u, st, last = stack.pop()
            if u == dst:
                continue
            escapes = scheme.escape_channels(u, dst, st)
            if report is not None and not escapes:
                report.fail(
                    "escape_available",
                    f"no escape channel at {u} (dst={dst}, state={st})",
                )
            for e in escapes:
                g.add_node(e)
                if last is not None and last != e:
                    g.add_edge(last, e)
            for c in scheme.candidates(u, dst, st):
                if report is not None and not topo.is_adjacent(c.u, c.v):
                    report.fail(
                        "adjacency_ok", f"channel {c} spans non-adjacent nodes"
                    )
                st2 = scheme.update_state(st, c)
                last2 = c if c.vc != ADAPTIVE else last
                key = (c.v, _freeze(st2), last2)
                if key not in seen:
                    seen.add(key)
                    stack.append((c.v, st2, last2))
    return g


def verify_wormhole_scheme(
    scheme: WormholeScheme,
    sources: Iterable[Hashable] | None = None,
    destinations: Iterable[Hashable] | None = None,
    check_minimal: bool | None = None,
) -> WormholeReport:
    """Exhaustively verify one worm-hole scheme instance."""
    import networkx as nx

    report = WormholeReport(scheme=scheme.name)
    g = extended_escape_cdg(scheme, sources, destinations, report)
    if not nx.is_directed_acyclic_graph(g):
        cyc = nx.find_cycle(g)
        report.fail(
            "escape_cdg_acyclic",
            "extended escape CDG cycle: "
            + " -> ".join(str(e[0]) for e in cyc),
        )
    do_min = scheme.is_minimal if check_minimal is None else check_minimal
    if do_min:
        report.minimal = True
        topo = scheme.topology
        srcs = list(sources) if sources is not None else list(topo.nodes())
        dsts = (
            list(destinations)
            if destinations is not None
            else list(topo.nodes())
        )
        for dst in dsts:
            for src in srcs:
                if src == dst:
                    continue
                st = scheme.initial_state(src, dst)
                for c in scheme.candidates(src, dst, st):
                    if (
                        topo.distance(c.v, dst)
                        != topo.distance(src, dst) - 1
                    ):
                        report.fail(
                            "minimal",
                            f"non-minimal first hop {c} for {src}->{dst}",
                        )
    return report
