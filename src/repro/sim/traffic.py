"""Communication patterns (paper, Section 7).

The paper evaluates four patterns on the hypercube:

* **random routing** — every message picks a destination uniformly
  over the other nodes;
* **complement** — destination is the bitwise complement of the
  source address;
* **transpose** — the two halves of the binary address are swapped
  (the middle bit is kept for odd ``n``);
* **leveled permutation** — a random permutation in which every node
  sends to a node of its own level (Hamming weight); cited from
  [FCS90] as adversarial for oblivious minimal routing.

Extra patterns (bit reversal, shuffle, mesh transpose, tornado) extend
the benchmark surface beyond the paper.

Patterns answer in two forms: :meth:`TrafficPattern.draw` maps one
source *label* to a destination label, and
:meth:`TrafficPattern.draw_ids` maps an int array of source *ids*
(indices into ``topology.nodes()`` order) to destination ids in one
call.  Both consume the RNG identically, so a run that draws a whole
cycle's injections at once replays the per-packet stream byte for
byte.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from ..topology.base import Topology
from ..topology.hypercube import Hypercube, hamming_weight

if TYPE_CHECKING:
    from ..topology.mesh import Mesh
    from ..topology.torus import Torus


class TrafficPattern(ABC):
    """Destination chooser for injected messages."""

    name: str = "traffic"

    #: True when every node has one fixed destination (a permutation
    #: or partial permutation); such patterns ignore the RNG.
    is_permutation: bool = False

    @abstractmethod
    def draw(self, src: Hashable, rng: np.random.Generator) -> Hashable:
        """Destination for the next message injected at ``src``.

        May return ``src`` itself, which callers interpret as "this
        node does not inject" (used by permutations with fixed points).
        """

    def draw_ids(
        self,
        nodes: Sequence[Hashable],
        src_ids: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Destination ids for sources ``src_ids``, drawn in array order.

        ``nodes`` maps ids to labels (``topology.nodes()`` order).  This
        base form calls :meth:`draw` once per source, so a pattern that
        only states :meth:`draw` keeps its exact RNG use; subclasses
        override it with array arithmetic that consumes the RNG the
        same way.
        """
        index = self._index_of(nodes)
        return np.fromiter(
            (index[self.draw(nodes[s], rng)] for s in src_ids.tolist()),
            dtype=np.int64,
            count=len(src_ids),
        )

    def _index_of(self, nodes: Sequence[Hashable]) -> dict[Hashable, int]:
        """Label -> id map of ``nodes``, cached per node list."""
        cached = getattr(self, "_index_cache", None)
        if cached is None or cached[0] is not nodes:
            cached = self._index_cache = (
                nodes, {u: i for i, u in enumerate(nodes)}
            )
        return cached[1]


class RandomTraffic(TrafficPattern):
    """Uniformly random destinations over ``V - {src}``."""

    name = "random"

    def __init__(self, topology: Topology):
        self.nodes = list(topology.nodes())
        self.index = {u: i for i, u in enumerate(self.nodes)}
        self.n = len(self.nodes)

    def draw(self, src: Hashable, rng: np.random.Generator) -> Hashable:
        # Uniform over V - {src}: draw from n-1 slots and skip src.
        r = int(rng.integers(self.n - 1))
        if r >= self.index[src]:
            r += 1
        return self.nodes[r]

    def draw_ids(self, nodes, src_ids, rng):
        # One batched call returns the values (and leaves the generator
        # in the state) of len(src_ids) scalar calls.
        if not len(src_ids):
            return np.empty(0, dtype=np.int64)
        r = rng.integers(self.n - 1, size=len(src_ids))
        return r + (r >= src_ids)


class PermutationTraffic(TrafficPattern):
    """Fixed map ``src -> sigma(src)``; fixed points mean no injection."""

    is_permutation = True

    def __init__(self, mapping: dict[Hashable, Hashable], name: str):
        self.mapping = dict(mapping)
        self.name = name
        targets = list(self.mapping.values())
        if len(set(targets)) != len(targets):
            raise ValueError(f"{name}: mapping is not injective")

    def draw(self, src: Hashable, rng: np.random.Generator) -> Hashable:
        return self.mapping[src]

    def draw_ids(self, nodes, src_ids, rng):
        # The map ignores the RNG: resolve every id once, then gather.
        cached = getattr(self, "_ids_cache", None)
        if cached is None or cached[0] is not nodes:
            every = np.arange(len(nodes), dtype=np.int64)
            cached = self._ids_cache = (
                nodes, super().draw_ids(nodes, every, rng)
            )
        return cached[1][src_ids]


class ComplementTraffic(PermutationTraffic):
    """Hypercube complement: ``dst = ~src`` (Tables 2, 6, 10)."""

    def __init__(self, topology: Hypercube):
        mask = (1 << topology.n) - 1
        super().__init__(
            {u: u ^ mask for u in topology.nodes()}, name="complement"
        )


def transpose_address(u: int, n: int) -> int:
    """Swap the address halves; odd ``n`` keeps the central bit."""
    h = n // 2
    low = u & ((1 << h) - 1)
    high = u >> (n - h)
    middle = u & (((1 << (n - h)) - 1) ^ ((1 << h) - 1))
    return (low << (n - h)) | middle | high


class TransposeTraffic(PermutationTraffic):
    """Hypercube transpose (Tables 3, 7, 11)."""

    def __init__(self, topology: Hypercube):
        n = topology.n
        super().__init__(
            {u: transpose_address(u, n) for u in topology.nodes()},
            name="transpose",
        )


class LeveledPermutationTraffic(PermutationTraffic):
    """Random permutation preserving the Hamming weight (Tables 4, 8, 12)."""

    def __init__(self, topology: Hypercube, rng: np.random.Generator):
        n = topology.n
        by_level: dict[int, list[int]] = {}
        for u in topology.nodes():
            by_level.setdefault(hamming_weight(u), []).append(u)
        mapping: dict[int, int] = {}
        for level_nodes in by_level.values():
            perm = rng.permutation(len(level_nodes))
            for i, u in enumerate(level_nodes):
                mapping[u] = level_nodes[int(perm[i])]
        super().__init__(mapping, name="leveled")


class BitReversalTraffic(PermutationTraffic):
    """Hypercube bit reversal: address bits read backwards."""

    def __init__(self, topology: Hypercube):
        n = topology.n

        def rev(u: int) -> int:
            return int(format(u, f"0{n}b")[::-1], 2)

        super().__init__({u: rev(u) for u in topology.nodes()}, name="bit-reversal")


class ShufflePermutationTraffic(PermutationTraffic):
    """Hypercube perfect-shuffle permutation: one left rotation."""

    def __init__(self, topology: Hypercube):
        n = topology.n
        mask = (1 << n) - 1

        def rot(u: int) -> int:
            return ((u << 1) | (u >> (n - 1))) & mask

        super().__init__({u: rot(u) for u in topology.nodes()}, name="shuffle-perm")


class MeshTransposeTraffic(PermutationTraffic):
    """Mesh/torus transpose: ``(x, y) -> (y, x)`` (square 2-D only)."""

    def __init__(self, topology: Mesh):
        if topology.k != 2 or topology.shape[0] != topology.shape[1]:
            raise ValueError("mesh transpose needs a square 2-D mesh")
        super().__init__(
            {u: (u[1], u[0]) for u in topology.nodes()}, name="mesh-transpose"
        )


class TornadoTraffic(PermutationTraffic):
    """Torus tornado: shift by just under half the ring in dim 0."""

    def __init__(self, topology: Torus):
        s = topology.shape[0]
        shift = (s - 1) // 2
        super().__init__(
            {
                u: (((u[0] + shift) % s),) + u[1:]
                for u in topology.nodes()
            },
            name="tornado",
        )


class HotspotTraffic(TrafficPattern):
    """Uniform traffic with a fraction directed at one hot node.

    With probability ``fraction`` the destination is ``hotspot``;
    otherwise uniform over the other nodes.  A standard stressor for
    adaptive routers (not in the paper's set, used by the extended
    benchmarks).
    """

    def __init__(
        self, topology: Topology, hotspot: Hashable | None = None,
        fraction: float = 0.2,
    ):
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.nodes = list(topology.nodes())
        self.hotspot = hotspot if hotspot is not None else self.nodes[-1]
        if self.hotspot not in self.nodes:
            raise ValueError(f"hotspot {self.hotspot!r} is not a node")
        self.fraction = fraction
        self.uniform = RandomTraffic(topology)
        self.name = f"hotspot({fraction:.0%})"

    def draw(self, src: Hashable, rng: np.random.Generator) -> Hashable:
        if src != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        return self.uniform.draw(src, rng)


def hypercube_pattern(
    name: str, topology: Hypercube, rng: np.random.Generator
) -> TrafficPattern:
    """Factory for the paper's four hypercube patterns (plus extras)."""
    if name == "random":
        return RandomTraffic(topology)
    if name == "complement":
        return ComplementTraffic(topology)
    if name == "transpose":
        return TransposeTraffic(topology)
    if name == "leveled":
        return LeveledPermutationTraffic(topology, rng)
    if name == "bit-reversal":
        return BitReversalTraffic(topology)
    if name == "shuffle-perm":
        return ShufflePermutationTraffic(topology)
    raise ValueError(f"unknown hypercube pattern {name!r}")
