from dataclasses import dataclass, field
from typing import Sequence

import pytest

from cplab.cell_probe_sim import MemoryConfig, SimulatedMemory
from cplab.finite_field import FieldVector, largest_prime_below
from cplab.hard_queries import QueryFamily, QueryFamilyParams
from cplab.structures import (
    NaiveArtificialStructure,
    OrcInstance,
    PrefixSumRangeStructure,
)
from cplab.rng import substream


@dataclass
class ArtificialInstance:
    """Reference model of the index-weight problem: a plain weight array."""

    n: int
    weights: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.weights:
            self.weights = [0] * self.n  # all weights start at 0

    def update(self, index: int, weight: int) -> None:
        self.weights[index] = weight

    def answer(self, coords: Sequence[int]) -> int:
        return sum(w for bit, w in zip(coords, self.weights) if bit)


def family_with_vectors(n, rows):
    params = QueryFamilyParams(n=n, modulus=largest_prime_below(n**4), seed=0)
    vectors = tuple(FieldVector(params.modulus, tuple(r)) for r in rows)
    return QueryFamily(params=params, vectors=vectors)


def naive_setup(w=24):
    family = family_with_vectors(
        4, [(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0)]
    )
    memory = SimulatedMemory(MemoryConfig(w=w))
    return NaiveArtificialStructure(family, family.params.modulus, memory), memory


class TestNaiveStructure:
    def test_update_then_query(self):
        ds, _ = naive_setup()
        ds.update(0, 7)
        assert ds.query(0) == 7  # vector e0

    def test_last_write_wins(self):
        ds, _ = naive_setup()
        ds.update(1, 5)
        ds.update(1, 9)
        assert ds.query_vector((0, 1, 0, 0)) == 9

    def test_weight_at_modulus_rejected(self):
        ds, _ = naive_setup()
        with pytest.raises(ValueError):
            ds.update(0, ds.delta.value)

    def test_index_out_of_range(self):
        ds, _ = naive_setup()
        with pytest.raises(ValueError):
            ds.update(4, 1)

    def test_all_weights_zero(self):
        ds, _ = naive_setup()
        assert ds.query(2) == 0

    def test_masked_sum(self):
        ds, _ = naive_setup()
        for i, w in enumerate((1, 2, 3, 4)):
            ds.update(i, w)
        assert ds.query_vector((1, 0, 1, 0)) == 4
        assert ds.query_vector((1, 1, 1, 1)) == 10

    def test_single_cell_probe_profile(self):
        ds, memory = naive_setup()
        assert ds.cells_per_weight == 1
        memory.begin_operation("u")
        ds.update(0, 3)
        assert len(memory.trace.segment("u")) == 1
        memory.begin_operation("q")
        ds.query(1)  # two 1-coordinates
        assert len(memory.trace.segment("q")) == 2

    def test_multi_limb_weights(self):
        # delta for n=6 needs 11 bits; w=8 forces two limbs per weight
        family = family_with_vectors(6, [(1, 1, 0, 0, 0, 0)])
        memory = SimulatedMemory(MemoryConfig(w=8))
        ds = NaiveArtificialStructure(family, family.params.modulus, memory)
        assert ds.cells_per_weight == 2
        ds.update(0, 1234)
        ds.update(1, 55)
        assert ds.query(0) == 1289
        memory.begin_operation("u")
        ds.update(0, 1)
        assert len(memory.trace.segment("u")) == ds.declared_update_probes


class TestPrefixSumStructure:
    def test_insert_then_query(self):
        delta = largest_prime_below(8**4)
        memory = SimulatedMemory(MemoryConfig(w=32))
        ds = PrefixSumRangeStructure(8, delta, memory, capacity=10)
        ds.update((2, 3), 7)
        assert ds.query((5, 5)) == 7
        assert ds.query((1, 1)) == 0

    def test_point_out_of_range(self):
        delta = largest_prime_below(8**4)
        ds = PrefixSumRangeStructure(8, delta, SimulatedMemory(MemoryConfig(w=32)), capacity=4)
        with pytest.raises(ValueError):
            ds.update((8, 0), 1)

    def test_capacity_guard(self):
        delta = largest_prime_below(8**4)
        ds = PrefixSumRangeStructure(8, delta, SimulatedMemory(MemoryConfig(w=32)), capacity=1)
        ds.update((0, 0), 1)
        with pytest.raises(OverflowError):
            ds.update((0, 0), 1)

    @pytest.mark.parametrize("w", [16, 48])
    def test_matches_reference_model(self, w):
        # w=16 forces multi-limb counters, w=48 keeps one cell per counter
        n = 32
        delta = largest_prime_below(n**4)
        memory = SimulatedMemory(MemoryConfig(w=w))
        ds = PrefixSumRangeStructure(n, delta, memory, capacity=200)
        reference = OrcInstance(n=n)
        rng = substream(4, f"bit-workload-{w}")
        for _ in range(200):
            x, y, weight = rng.randrange(n), rng.randrange(n), rng.randrange(delta.value)
            ds.update((x, y), weight)
            reference.insert(x, y, weight)
        for _ in range(200):
            q = (rng.randrange(n), rng.randrange(n))
            assert ds.query(q) == reference.answer(q)

    def test_probe_counts_within_declared_bounds(self):
        n = 64
        delta = largest_prime_below(n**4)
        memory = SimulatedMemory(MemoryConfig(w=48))
        ds = PrefixSumRangeStructure(n, delta, memory, capacity=100)
        rng = substream(5, "probe-bounds")
        for op in range(100):
            memory.begin_operation(("i", op))
            ds.update((rng.randrange(n), rng.randrange(n)), rng.randrange(delta.value))
            assert len(memory.trace.segment(("i", op))) <= ds.declared_update_probes
        for op in range(100):
            memory.begin_operation(("q", op))
            ds.query((rng.randrange(n), rng.randrange(n)))
            assert len(memory.trace.segment(("q", op))) <= ds.declared_query_probes


class TestOracle:
    def test_empty_log(self):
        assert ArtificialInstance(n=3).answer((1, 1, 1)) == 0
        assert OrcInstance(n=8).answer((5, 5)) == 0

    def test_artificial_matches_definition(self):
        inst = ArtificialInstance(n=3)
        for index, weight in [(0, 5), (2, 7), (0, 1)]:
            inst.update(index, weight)
        assert inst.answer((1, 0, 1)) == 8
        assert inst.answer((0, 1, 0)) == 0

    def test_orc_matches_dominance_scan(self):
        orc = OrcInstance(n=5)
        orc.insert(0, 0, 1)
        orc.insert(4, 4, 10)
        assert orc.answer((3, 3)) == 1
        assert orc.answer((4, 4)) == 11

    def test_instances_accumulate(self):
        inst = ArtificialInstance(n=3)
        inst.update(1, 4)
        assert inst.answer((1, 1, 0)) == 4
        orc = OrcInstance(n=4)
        orc.insert(1, 1, 2)
        orc.insert(1, 1, 3)  # multiset: same point twice
        assert orc.answer((1, 1)) == 5


class TestMultiLimbQueries:
    """Queries over values split across several cells. Production runs
    size w so that every value fits one cell, so only these tests reach
    the limb reassembly; each pins one query's logged addresses."""

    def test_naive_two_limbs_per_weight(self):
        n = 8
        rng = substream(6, "multi-limb-naive")
        family = family_with_vectors(n, [[rng.randrange(2) for _ in range(n)] for _ in range(16)])
        memory = SimulatedMemory(MemoryConfig(w=8))
        ds = NaiveArtificialStructure(family, family.params.modulus, memory)
        assert ds.cells_per_weight == 2
        reference = ArtificialInstance(n=n)
        for i in range(n):
            weight = rng.randrange(ds.delta.value)
            ds.update(i, weight)
            reference.update(i, weight)
        for j, v in enumerate(family.vectors):
            assert ds.query(j) == reference.answer(v.coords)
        memory.begin_operation("q")
        ds.query(5)
        assert list(memory.trace.segment("q")) == [2, 3, 6, 7, 12, 13, 14, 15]

    def test_prefix_sum_two_cells_per_counter(self):
        n = 8
        delta = largest_prime_below(n**4)
        memory = SimulatedMemory(MemoryConfig(w=8))
        ds = PrefixSumRangeStructure(n, delta, memory, capacity=n)
        assert ds.cells_per_counter == 2
        reference = OrcInstance(n=n)
        rng = substream(7, "multi-limb-prefix-sum")
        for _ in range(n):
            x, y, weight = rng.randrange(n), rng.randrange(n), rng.randrange(delta.value)
            ds.update((x, y), weight)
            reference.insert(x, y, weight)
        for x in range(n):
            for y in range(n):
                assert ds.query((x, y)) == reference.answer((x, y))
        memory.begin_operation("q")
        ds.query((6, 5))
        assert list(memory.trace.segment("q")) == [
            106, 107, 102, 103, 90, 91, 86, 87, 58, 59, 54, 55
        ]


def test_prefix_sum_multi_limb_insert_log():
    """One insert's log with two cells per counter: each counter in the
    chain reads its limbs, then writes them, carrying across limbs."""
    n = 8
    memory = SimulatedMemory(MemoryConfig(w=8))
    ds = PrefixSumRangeStructure(n, largest_prime_below(n**4), memory, capacity=n)
    assert ds.cells_per_counter == 2
    memory.begin_epoch(2)
    memory.begin_operation("a")
    ds.update((2, 5), 4000)
    memory.begin_epoch(1)
    memory.begin_operation("b")
    ds.update((3, 4), 200)
    expected = []
    for base, tag in [(56, ""), (58, 2), (62, 2), (120, ""), (122, 2), (126, 2)]:
        expected += [("b", "read", base, tag), ("b", "read", base + 1, tag)]
        expected += [("b", "write", base, 1), ("b", "write", base + 1, 1)]
    assert [row for row in memory.trace.rows() if row[0] == "b"] == expected
    assert len(memory.trace) == 24 + 24
    # 4000 + 200 = 16 * 256 + 104 carries into the high limb; 200 alone does not
    assert [memory.cells[a] for a in (56, 57, 58, 59)] == [(200, 1), (0, 1), (104, 1), (16, 1)]
