from dataclasses import dataclass, field
from typing import Sequence

import pytest
from probe_log import ask, segment

from cplab.cell_probe_sim import MemoryConfig, ProbeTrace, SimulatedMemory
from cplab.finite_field import largest_prime_below
from cplab.hard_queries import QueryFamily, QueryFamilyParams
from cplab.structures import (
    NaiveArtificialStructure,
    OrcInstance,
    PrefixSumRangeStructure,
)
from cplab.rng import substream
from test_hard_queries import bits_of


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
    params = QueryFamilyParams(n=n, seed=0)
    vectors = tuple(bits_of(r) for r in rows)
    return QueryFamily(params=params, vectors=vectors)


def naive_setup(w=24):
    family = family_with_vectors(
        4, [(1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 0, 0)]
    )
    memory = SimulatedMemory(MemoryConfig(w=w))
    return NaiveArtificialStructure(family, memory), memory


class TestNaiveStructure:
    def test_update_then_query(self):
        ds, _ = naive_setup()
        ds.update(0, 7)
        assert ask(ds, 0)[0] == 7  # vector e0

    def test_last_write_wins(self):
        ds, _ = naive_setup()
        ds.update(1, 5)
        ds.update(1, 9)
        assert ask(ds, 4)[0] == 9  # vector e1

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
        assert ask(ds, 2)[0] == 0

    def test_masked_sum(self):
        ds, _ = naive_setup()
        for i, w in enumerate((1, 2, 3, 4)):
            ds.update(i, w)
        assert ask(ds, 1)[0] == 4
        assert ask(ds, 2)[0] == 10

    def test_single_cell_probe_profile(self):
        ds, memory = naive_setup()
        assert (ds.declared_update_probes, ds.declared_query_probes) == (1, 4)
        memory.begin_operation("u")
        ds.update(0, 3)
        assert len(segment(memory.trace, "u")) == 1
        _, addresses = ask(ds, 1)  # two 1-coordinates
        assert len(addresses) == 2
        assert len(memory.trace) == 1  # a query's reads are not in the run's log

    def test_write_log(self):
        ds, memory = naive_setup()
        memory.begin_epoch(2)
        memory.begin_operation("a")
        ds.update(3, 8)
        memory.begin_epoch(1)
        memory.begin_operation("b")
        ds.update(3, 9)
        ds.update(0, 5)
        assert list(memory.trace.rows()) == [
            ("a", "write", 3, 2), ("b", "write", 3, 1), ("b", "write", 0, 1)
        ]
        assert (memory.values, memory.tags) == ({3: 9, 0: 5}, {3: 1, 0: 1})

    # Delta = field_modulus(n) needs about 4 lg n bits, so a cell wide
    # enough for a weight always reaches the n positions
    @pytest.mark.parametrize("n, w", [(4, 7)], ids=["weight-wider-than-cell"])
    def test_too_narrow_memory_rejected(self, n, w):
        family = family_with_vectors(n, [(1,) * n])
        NaiveArtificialStructure(family, SimulatedMemory(MemoryConfig(w=w + 1)))
        with pytest.raises(ValueError):
            NaiveArtificialStructure(family, SimulatedMemory(MemoryConfig(w=w)))


def textbook_chain(i: int, n: int, up: bool) -> list[int]:
    """The binary-indexed-tree chain from 1-based i: i += i & -i up to n,
    or i -= i & -i down to 0."""
    chain = []
    while 0 < i <= n:
        chain.append(i)
        i = i + (i & -i) if up else i - (i & -i)
    return chain


class TestPrefixSumStructure:
    def test_insert_then_query(self):
        delta = largest_prime_below(8**4)
        memory = SimulatedMemory(MemoryConfig(w=32))
        ds = PrefixSumRangeStructure(8, delta, memory, capacity=10)
        ds.update((2, 3), 7)
        assert ask(ds, (5, 5))[0] == 7
        assert ask(ds, (1, 1))[0] == 0

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

    @pytest.mark.parametrize(
        "modulus, capacity, w",
        [(4093, 4, 13), (2, 1, 5)],
        ids=["counter-wider-than-cell", "counters-beyond-addresses"],
    )
    def test_too_narrow_memory_rejected(self, modulus, capacity, w):
        # n = 8 has 64 counters; 4 weights below 4093 sum to 14 bits
        delta = largest_prime_below(modulus + 1)
        PrefixSumRangeStructure(8, delta, SimulatedMemory(MemoryConfig(w=w + 1)), capacity)
        with pytest.raises(ValueError):
            PrefixSumRangeStructure(8, delta, SimulatedMemory(MemoryConfig(w=w)), capacity)

    def test_insert_log(self):
        """Each counter in an insert's chain is read, then written, in
        chain order, with the tag the read found."""
        n = 8
        memory = SimulatedMemory(MemoryConfig(w=16))
        ds = PrefixSumRangeStructure(n, largest_prime_below(n**4), memory, capacity=n)
        assert (ds.declared_update_probes, ds.declared_query_probes) == (2 * 4 * 4, 4 * 4)
        memory.begin_epoch(2)
        memory.begin_operation("a")
        ds.update((2, 5), 4000)
        memory.begin_epoch(1)
        memory.begin_operation("b")
        ds.update((3, 4), 200)
        expected = []
        for cell, tag in [(28, ""), (29, 2), (31, 2), (60, ""), (61, 2), (63, 2)]:
            expected += [("b", "read", cell, tag), ("b", "write", cell, 1)]
        assert [row for row in memory.trace.rows() if row[0] == "b"] == expected
        assert len(memory.trace) == 12 + 12
        assert [(memory.values[c], memory.tags[c]) for c in (21, 28, 29)] == [
            (4000, 2), (200, 1), (4200, 1)
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64])
    def test_cells_follow_the_textbook_chains(self, n):
        """At every point, an insert adds to and a query reads counter
        (xi, yi), cell (xi - 1) * n + yi - 1, for xi on x + 1's chain and
        yi on y + 1's (up to n for an insert, down to 0 for a query), in
        row-major order."""
        memory = SimulatedMemory(MemoryConfig(w=32))
        ds = PrefixSumRangeStructure(n, largest_prime_below(8), memory, capacity=n * n)
        for x in range(n):
            for y in range(n):
                insert, query = (
                    [
                        (xi - 1) * n + yi - 1
                        for xi in textbook_chain(x + 1, n, up)
                        for yi in textbook_chain(y + 1, n, up)
                    ]
                    for up in (True, False)
                )
                memory.trace = ProbeTrace()
                ds.update((x, y), 1)
                assert list(memory.trace.addresses) == [c for c in insert for _ in "rw"]
                assert list(ask(ds, (x, y))[1]) == query

    @pytest.mark.parametrize("w", [48])
    def test_matches_reference_model(self, w):
        n = 32
        delta = largest_prime_below(n**4)
        memory = SimulatedMemory(MemoryConfig(w=w))
        ds = PrefixSumRangeStructure(n, delta, memory, capacity=200)
        reference = OrcInstance()
        rng = substream(4, f"bit-workload-{w}")
        for _ in range(200):
            x, y, weight = rng.randrange(n), rng.randrange(n), rng.randrange(delta.value)
            ds.update((x, y), weight)
            reference.insert(x, y, weight)
        for _ in range(200):
            q = (rng.randrange(n), rng.randrange(n))
            assert ask(ds, q)[0] == reference.answer(q)

    def test_probe_counts_within_declared_bounds(self):
        n = 64
        delta = largest_prime_below(n**4)
        memory = SimulatedMemory(MemoryConfig(w=48))
        ds = PrefixSumRangeStructure(n, delta, memory, capacity=100)
        rng = substream(5, "probe-bounds")
        for op in range(100):
            memory.begin_operation(("i", op))
            ds.update((rng.randrange(n), rng.randrange(n)), rng.randrange(delta.value))
            assert len(segment(memory.trace, ("i", op))) <= ds.declared_update_probes
        for op in range(100):
            _, addresses = ask(ds, (rng.randrange(n), rng.randrange(n)))
            assert len(addresses) <= ds.declared_query_probes


class TestOracle:
    def test_empty_log(self):
        assert ArtificialInstance(n=3).answer((1, 1, 1)) == 0
        assert OrcInstance().answer((5, 5)) == 0

    def test_artificial_matches_definition(self):
        inst = ArtificialInstance(n=3)
        for index, weight in [(0, 5), (2, 7), (0, 1)]:
            inst.update(index, weight)
        assert inst.answer((1, 0, 1)) == 8
        assert inst.answer((0, 1, 0)) == 0

    def test_orc_matches_dominance_scan(self):
        orc = OrcInstance()
        orc.insert(0, 0, 1)
        orc.insert(4, 4, 10)
        assert orc.answer((3, 3)) == 1
        assert orc.answer((4, 4)) == 11

    def test_instances_accumulate(self):
        inst = ArtificialInstance(n=3)
        inst.update(1, 4)
        assert inst.answer((1, 1, 0)) == 4
        orc = OrcInstance()
        orc.insert(1, 1, 2)
        orc.insert(1, 1, 3)  # multiset: same point twice
        assert orc.answer((1, 1)) == 5
