"""Binary hypercube topology.

Nodes are integers ``0 .. 2**n - 1``; two nodes are adjacent iff their
binary addresses differ in exactly one bit.  The link along dimension
``i`` connects ``u`` and ``u ^ (1 << i)``; the paper writes the latter
as ``E^i(u)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .base import Topology


def flip_bit(u: int, i: int) -> int:
    """The paper's ``E^i(u)``: ``u`` with bit ``i`` complemented."""
    return u ^ (1 << i)


def hamming_weight(u: int) -> int:
    """Number of 1 bits (the paper's node *level*)."""
    return bin(u).count("1")


def hamming_distance(u: int, v: int) -> int:
    """Number of differing bits between two addresses."""
    return bin(u ^ v).count("1")


def differing_dimensions(u: int, v: int, n: int) -> tuple[int, ...]:
    """Dimensions in which ``u`` and ``v`` disagree, ascending."""
    x = u ^ v
    return tuple(i for i in range(n) if (x >> i) & 1)


class Hypercube(Topology):
    """The ``n``-dimensional binary hypercube with ``2**n`` nodes."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("hypercube dimension must be >= 1")
        self.n = n
        self.name = f"hypercube({n})"
        self._mask = (1 << n) - 1

    @property
    def num_nodes(self) -> int:
        return 1 << self.n

    def nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(u ^ (1 << i) for i in range(self.n))

    def is_adjacent(self, u: int, v: int) -> bool:
        x = u ^ v
        return x != 0 and (x & (x - 1)) == 0

    def link_index(self, u: int, v: int) -> int:
        """The dimension of link ``u -> v`` (low dims served first)."""
        x = u ^ v
        if x == 0 or (x & (x - 1)) != 0:
            raise ValueError(f"{u} and {v} are not hypercube neighbors")
        return x.bit_length() - 1

    def link_table(self) -> np.ndarray:
        """Column ``d`` is the dimension-``d`` neighbour ``u ^ 2**d``."""
        if type(self).neighbors is not Hypercube.neighbors:
            return super().link_table()
        ids = np.arange(self.num_nodes, dtype=np.int64)
        return ids[:, None] ^ (1 << np.arange(self.n, dtype=np.int64))

    def dimension_of(self, u: int, v: int) -> int:
        """Alias of :meth:`link_index` with hypercube vocabulary."""
        return self.link_index(u, v)

    def distance(self, u: int, v: int) -> int:
        return hamming_distance(u, v)

    @property
    def diameter(self) -> int:
        return self.n

    def level(self, u: int) -> int:
        """The node's level: its Hamming weight (paper, Section 7)."""
        return hamming_weight(u)

    def bits(self, u: int) -> tuple[int, ...]:
        """Address bits ``(u_0, ..., u_{n-1})``, LSB first."""
        return tuple((u >> i) & 1 for i in range(self.n))

    def format_node(self, u: int) -> str:
        """Binary string, MSB first, e.g. ``0101`` (paper notation)."""
        return format(u, f"0{self.n}b")
