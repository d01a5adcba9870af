"""Reference dynamic structures, driven entirely through the simulated
memory, and the point-multiset model of dominance counting that the
acceptance criteria check them against.

Every value (a weight, a prefix counter) is stored whole in one w-bit
cell, as in the cell-probe model the lower bound is stated in; a
structure refuses a memory whose w cannot hold its address space or a
whole value. Query answers are full integers; nothing here reduces mod
anything, the encoding layer does that at recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .cell_probe_sim import SimulatedMemory
from .finite_field import PrimeModulus
from .hard_queries import QueryFamily


def _check_width(memory: SimulatedMemory, cells: int, value_bits: int) -> None:
    w = memory.config.w
    if cells > 1 << w:
        raise ValueError(f"{w}-bit addresses cannot reach {cells} cells")
    if value_bits > w:
        raise ValueError(f"a {value_bits}-bit value does not fit a {w}-bit cell")


class DynamicStructure:
    """Base contract: all state lives in the simulated `memory`, and every
    operation stays within the declared worst-case probe counts. An
    update and a query each take one target: a position or query index
    in the index-weight game, an (x, y) point in the dominance game."""

    memory: SimulatedMemory
    declared_update_probes: int
    declared_query_probes: int

    def update(self, target, weight: int) -> None:
        raise NotImplementedError

    def query(self, q) -> int:
        raise NotImplementedError


class NaiveArtificialStructure(DynamicStructure):
    """One weight per position, in the cell at that position: an update
    writes one cell, a query reads the cell of every position whose
    query-vector coordinate is 1.

    So its per-epoch query probe profile is exactly the number of
    1-coordinates last updated in that epoch, which is what makes it
    the exact test vehicle for probe accounting.
    """

    def __init__(self, family: QueryFamily, delta: PrimeModulus, memory: SimulatedMemory):
        self.family = family
        self.delta = delta
        self.memory = memory
        self.n = family.params.n
        _check_width(memory, self.n, (delta.value - 1).bit_length())
        self.declared_update_probes = 1
        self.declared_query_probes = self.n

    def update(self, index: int, weight: int) -> None:
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range [0, {self.n})")
        if not 0 <= weight < self.delta.value:
            raise ValueError(f"weight {weight} out of range [0, {self.delta.value})")
        self.memory.write(index, weight)

    def query(self, j: int) -> int:
        if not 0 <= j < len(self.family.vectors):
            raise ValueError(f"query index {j} out of range")
        cells = list(compress(range(self.n), self.family.vectors[j]))
        return sum(self.memory.read_many(cells))


class PrefixSumRangeStructure(DynamicStructure):
    """Two-level prefix-sum counter tree over [n] x [n]: an outer
    binary-indexed tree on x whose nodes are inner trees on y.

    Inserts and dominance queries touch at most (floor(lg n) + 1)^2
    counters, one cell each, sized for `capacity` inserts of weights
    below delta.
    """

    def __init__(
        self, n: int, delta: PrimeModulus, memory: SimulatedMemory, capacity: int
    ):
        self.n = n
        self.delta = delta
        self.memory = memory
        self.capacity = capacity
        _check_width(memory, n * n, (capacity * (delta.value - 1)).bit_length())
        chain = n.bit_length()  # floor(lg n) + 1
        self.declared_update_probes = 2 * chain * chain
        self.declared_query_probes = chain * chain
        self._inserted = 0

    def update(self, point: tuple[int, int], weight: int) -> None:
        x, y = point
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"point ({x}, {y}) outside [0, {self.n})^2")
        if not 0 <= weight < self.delta.value:
            raise ValueError(f"weight {weight} out of range [0, {self.delta.value})")
        if self._inserted >= self.capacity:
            raise OverflowError(f"capacity {self.capacity} exceeded")
        self.memory.add_many(self._counters(x, y, up=True), weight)
        self._inserted += 1

    def query(self, q: tuple[int, int]) -> int:
        x, y = q
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"query ({x}, {y}) outside [0, {self.n})^2")
        return sum(self.memory.read_many(self._counters(x, y, up=False)))

    def _counters(self, x: int, y: int, up: bool) -> list[int]:
        """Cells of the counters on the chains from (x, y), row by row:
        up to n for an insert, down to 0 for a query. Counter (xi, yi),
        1-based, is cell (xi - 1) * n + yi - 1."""
        n = self.n
        chains: list[list[int]] = [[], []]
        for chain, i in zip(chains, (x + 1, y + 1)):
            while 0 < i <= n:
                chain.append(i - 1)
                i += i & -i if up else -(i & -i)
        return [xi * n + yi for xi in chains[0] for yi in chains[1]]


@dataclass
class OrcInstance:
    """Reference model of weighted dominance counting: a point multiset."""

    n: int
    points: list[tuple[int, int, int]] = field(default_factory=list)

    def insert(self, x: int, y: int, weight: int) -> None:
        self.points.append((x, y, weight))

    def answer(self, q: tuple[int, int]) -> int:
        qx, qy = q
        return sum(w for (x, y, w) in self.points if x <= qx and y <= qy)

