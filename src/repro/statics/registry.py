"""Registry of everything ``repro lint`` statically analyzes.

Each :class:`LintTarget` names one concrete instance — a packet
algorithm, a worm-hole scheme, or a fault-epoch adapter — and what the
analyzer is *expected* to conclude.  Known-broken instances (the hung
escape scheme, unrestricted minimal routing) are registered with
``expect="fail"``: the gate is green only when the analyzer refutes
them *and* produces a witness, so the witness machinery itself is under
test on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: The analyzer must certify the instance.
PASS = "pass"
#: The analyzer must refute the instance and attach a cycle witness.
FAIL = "fail"
#: Fault-epoch instances: faults may legitimately break Section-2
#: conditions (the adapter withholds dead escapes — see
#: ``verify_under_faults``), but the analyzer must report *evidence*
#: (errors and, for cyclic QDGs, witnesses), never a silent pass.
DEGRADED = "degraded"


@dataclass(frozen=True)
class LintTarget:
    """One registered instance for the static sweep."""

    key: str  #: Stable CLI name, e.g. ``"torus"``.
    model: str  #: "packet" | "wormhole"
    build: Callable[[], Any]  #: Constructs the algorithm/scheme.
    expect: str = PASS
    note: str = ""

    def analyze(self):
        from .analyzer import analyze_algorithm, analyze_wormhole

        if self.model == "wormhole":
            return analyze_wormhole(self.build())
        return analyze_algorithm(self.build())

    @property
    def gate_ok_when(self) -> str:
        return {
            PASS: "certified",
            FAIL: "refuted with witness",
            DEGRADED: "certified, or refuted with evidence",
        }[self.expect]


def gate_ok(analysis, expect: str) -> bool:
    """Whether one analysis outcome keeps the lint gate green."""
    if expect == PASS:
        return analysis.certified
    if expect == FAIL:
        return not analysis.certified and bool(analysis.witnesses)
    if expect == DEGRADED:
        return analysis.certified or bool(
            analysis.report.errors or analysis.witnesses
        )
    raise ValueError(f"unknown expectation {expect!r}")


def _packet_targets() -> list[LintTarget]:
    from ..routing.buffer_pool import StructuredBufferPoolRouting
    from ..routing.ccc import CCCAdaptiveRouting
    from ..routing.hypercube import (
        HypercubeAdaptiveRouting,
        HypercubeHungRouting,
        HypercubeObliviousRouting,
    )
    from ..routing.mesh import Mesh2DAdaptiveRouting
    from ..routing.shuffle_exchange import ShuffleExchangeRouting
    from ..routing.torus import TorusRouting
    from ..topology.ccc import CubeConnectedCycles
    from ..topology.hypercube import Hypercube
    from ..topology.mesh import Mesh2D
    from ..topology.shuffle_exchange import ShuffleExchange
    from ..topology.torus import Torus
    from .examples import broken_torus

    return [
        # The five shipped topology/algorithm pairs (Theorems 1-3 and
        # the torus/shuffle-exchange/CCC reconstructions).
        LintTarget(
            "hypercube-adaptive",
            "packet",
            lambda: HypercubeAdaptiveRouting(Hypercube(3)),
        ),
        LintTarget(
            "mesh-adaptive",
            "packet",
            lambda: Mesh2DAdaptiveRouting(Mesh2D(3)),
        ),
        LintTarget("torus", "packet", lambda: TorusRouting(Torus((3, 3)))),
        LintTarget(
            "shuffle-exchange",
            "packet",
            lambda: ShuffleExchangeRouting(ShuffleExchange(3)),
        ),
        LintTarget(
            "ccc", "packet", lambda: CCCAdaptiveRouting(CubeConnectedCycles(3))
        ),
        # Baselines that must also certify.
        LintTarget(
            "hypercube-hung",
            "packet",
            lambda: HypercubeHungRouting(Hypercube(3)),
        ),
        LintTarget(
            "hypercube-oblivious",
            "packet",
            lambda: HypercubeObliviousRouting(Hypercube(3)),
        ),
        LintTarget(
            "buffer-pool",
            "packet",
            lambda: StructuredBufferPoolRouting(Hypercube(3)),
        ),
        # The canonical negative example (acceptance criteria): a
        # forced-wait witness that replays into a real deadlock.
        LintTarget(
            "unrestricted-torus",
            "packet",
            lambda: broken_torus(5),
            expect=FAIL,
            note="minimal adaptive, one queue, no dynamic links",
        ),
    ]


def _wormhole_targets() -> list[LintTarget]:
    from ..topology.hypercube import Hypercube
    from ..topology.torus import Torus
    from ..wormhole.routing import (
        HungEscapeHypercubeWormhole,
        HypercubeAdaptiveWormhole,
        HypercubeEcubeWormhole,
        TorusAdaptiveWormhole,
        TorusDimensionOrderWormhole,
    )

    return [
        LintTarget(
            "wh-hypercube-ecube",
            "wormhole",
            lambda: HypercubeEcubeWormhole(Hypercube(3)),
        ),
        LintTarget(
            "wh-hypercube-adaptive",
            "wormhole",
            lambda: HypercubeAdaptiveWormhole(Hypercube(3)),
        ),
        LintTarget(
            "wh-torus-dimension-order",
            "wormhole",
            lambda: TorusDimensionOrderWormhole(Torus((4, 4))),
        ),
        LintTarget(
            "wh-torus-adaptive",
            "wormhole",
            lambda: TorusAdaptiveWormhole(Torus((4, 4))),
        ),
        LintTarget(
            "wh-hypercube-hung-escape",
            "wormhole",
            lambda: HungEscapeHypercubeWormhole(Hypercube(3)),
            expect=FAIL,
            note="known-broken escape discipline",
        ),
    ]


def _fault_epoch_targets() -> list[LintTarget]:
    """Fault-epoch topologies: the hypercube scheme behind the
    fault-aware adapter, one target per distinct epoch of a scripted
    schedule (``repro.faults.models``)."""
    from ..faults.adapters import FaultAwareRouting
    from ..faults.models import FaultSchedule, link_down
    from ..routing.hypercube import HypercubeAdaptiveRouting
    from ..topology.hypercube import Hypercube

    def build_epoch(epoch_index: int):
        def build():
            topo = Hypercube(3)
            schedule = FaultSchedule.fixed(
                topo, [link_down(0, 1, at=0), link_down(2, 6, at=50)]
            )
            epochs = schedule.epochs
            return FaultAwareRouting(
                HypercubeAdaptiveRouting(topo), epochs[epoch_index]
            )

        return build

    topo = Hypercube(3)
    schedule = FaultSchedule.fixed(
        topo, [link_down(0, 1, at=0), link_down(2, 6, at=50)]
    )
    return [
        LintTarget(
            f"faults-hypercube-epoch{i}",
            "packet",
            build_epoch(i),
            expect=DEGRADED,
            note=f"epoch {i}: {fs.describe()}",
        )
        for i, fs in enumerate(schedule.epochs)
    ]


def lint_targets() -> list[LintTarget]:
    """Every registered instance, packet + wormhole + fault epochs."""
    return _packet_targets() + _wormhole_targets() + _fault_epoch_targets()


def target_by_key(key: str) -> LintTarget:
    for t in lint_targets():
        if t.key == key:
            return t
    raise KeyError(key)
