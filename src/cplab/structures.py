"""Reference dynamic structures, driven entirely through the simulated
memory, and the point-multiset model of dominance counting that the
acceptance criteria check them against.

Values wider than one cell (weights, prefix counters) are split across
consecutive w-bit cells, little-endian. Query answers are full
integers; nothing here reduces mod anything, the encoding layer does
that at recovery time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

from .cell_probe_sim import SimulatedMemory
from .finite_field import PrimeModulus
from .hard_queries import QueryFamily


def _sum_limbs(limbs: list[int], count: int, w: int) -> int:
    """Sum of the values whose little-endian limbs, `count` to a value,
    were read in order: limb k of every value carries weight 2^(w k)."""
    return sum(sum(limbs[k::count]) << (w * k) for k in range(count))


def _write_limbs(mem: SimulatedMemory, base: int, count: int, w: int, value: int) -> None:
    if value >> (w * count):
        raise OverflowError(f"value {value} exceeds {count} limbs of {w} bits")
    for limb in range(count):
        mem.write(base + limb, (value >> (w * limb)) & ((1 << w) - 1))


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
    """One weight per position, stored directly: update writes the
    weight's limbs, a query reads the limbs of every position whose
    query-vector coordinate is 1.

    With weights fitting a single cell this probes exactly one cell per
    update, and its per-epoch query probe profile is exactly the number
    of 1-coordinates last updated in that epoch, which is what makes it
    the exact test vehicle for probe accounting.
    """

    def __init__(self, family: QueryFamily, delta: PrimeModulus, memory: SimulatedMemory):
        self.family = family
        self.delta = delta
        self.memory = memory
        self.n = family.params.n
        w = memory.config.w
        self.cells_per_weight = -(-max(1, (delta.value - 1).bit_length()) // w)
        if self.n * self.cells_per_weight > 1 << w:
            raise ValueError("address space too small; increase w")
        self.declared_update_probes = self.cells_per_weight
        self.declared_query_probes = self.n * self.cells_per_weight

    def update(self, index: int, weight: int) -> None:
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} out of range [0, {self.n})")
        if not 0 <= weight < self.delta.value:
            raise ValueError(f"weight {weight} out of range [0, {self.delta.value})")
        _write_limbs(
            self.memory, index * self.cells_per_weight, self.cells_per_weight,
            self.memory.config.w, weight,
        )

    def query(self, j: int) -> int:
        if not 0 <= j < len(self.family.vectors):
            raise ValueError(f"query index {j} out of range")
        return self.query_vector(self.family.vectors[j].coords)

    def query_vector(self, coords: Sequence[int]) -> int:
        cpw = self.cells_per_weight
        starts = list(compress(range(0, self.n * cpw, cpw), coords))
        # every run sizes w so that a weight fits one cell; then the starts are the cells
        cells = starts if cpw == 1 else [s + limb for s in starts for limb in range(cpw)]
        return _sum_limbs(self.memory.read_many(cells), cpw, self.memory.config.w)


class PrefixSumRangeStructure(DynamicStructure):
    """Two-level prefix-sum counter tree over [n] x [n]: an outer
    binary-indexed tree on x whose nodes are inner trees on y.

    Inserts and dominance queries touch at most (floor(lg n) + 1)^2
    counters; each counter occupies `cells_per_counter` consecutive
    cells sized for `capacity` inserts of weights below delta.
    """

    def __init__(
        self, n: int, delta: PrimeModulus, memory: SimulatedMemory, capacity: int
    ):
        self.n = n
        self.delta = delta
        self.memory = memory
        self.capacity = capacity
        w = memory.config.w
        counter_bits = max(1, (self.capacity * (delta.value - 1)).bit_length())
        self.cells_per_counter = -(-counter_bits // w)
        if n * n * self.cells_per_counter > 1 << w:
            raise ValueError("address space too small; increase w")
        chain = n.bit_length()  # floor(lg n) + 1
        self.declared_update_probes = 2 * self.cells_per_counter * chain * chain
        self.declared_query_probes = self.cells_per_counter * chain * chain
        self._inserted = 0

    def _counter_base(self, xi: int, yi: int) -> int:
        return ((xi - 1) * self.n + (yi - 1)) * self.cells_per_counter

    def update(self, point: tuple[int, int], weight: int) -> None:
        x, y = point
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"point ({x}, {y}) outside [0, {self.n})^2")
        if not 0 <= weight < self.delta.value:
            raise ValueError(f"weight {weight} out of range [0, {self.delta.value})")
        if self._inserted >= self.capacity:
            raise OverflowError(f"capacity {self.capacity} exceeded")
        n = self.n
        rows, columns = [], []  # (xi - 1) * n and yi - 1 along the two chains
        xi = x + 1
        while xi <= n:
            rows.append((xi - 1) * n)
            xi += xi & (-xi)
        yi = y + 1
        while yi <= n:
            columns.append(yi - 1)
            yi += yi & (-yi)
        cpc = self.cells_per_counter
        bases = [(row + column) * cpc for row in rows for column in columns]
        self.memory.add_many(bases, cpc, weight)
        self._inserted += 1

    def query(self, q: tuple[int, int]) -> int:
        x, y = q
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"query ({x}, {y}) outside [0, {self.n})^2")
        cpc = self.cells_per_counter
        cells: list[int] = []
        xi = x + 1
        while xi > 0:
            yi = y + 1
            while yi > 0:
                base = self._counter_base(xi, yi)
                cells.extend(range(base, base + cpc))
                yi -= yi & (-yi)
            xi -= xi & (-xi)
        return _sum_limbs(self.memory.read_many(cells), cpc, self.memory.config.w)


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

