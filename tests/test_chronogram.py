import functools
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe_log import segment

from cplab.cell_probe_sim import MemoryConfig, SimulatedMemory
from cplab.chronogram import (
    EpochUpdates,
    UpdateSequence,
    analytic_epoch_counts,
    default_run_cell_width,
    epoch_probe_profile,
    epoch_schedule,
    execute_epochs,
    replay_queries,
    run_hard_distribution,
)
from cplab.fibonacci_lattice import LatticeSpec, dominance_incidence, scaled_lattice
from cplab.finite_field import largest_prime_below
from cplab.rng import substream
from cplab.structures import NaiveArtificialStructure, OrcInstance, PrefixSumRangeStructure


class TestEpochSchedule:
    def test_example_base_three(self):
        assert epoch_schedule(100, 3).sizes == (61, 27, 9, 3)

    def test_example_base_two(self):
        assert epoch_schedule(12, 2).sizes == (6, 4, 2)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            epoch_schedule(10, 6)  # beta > n/2
        with pytest.raises(ValueError):
            epoch_schedule(10, 1.5)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                epoch_schedule(25, beta)

    def test_sizes_sum_to_n(self):
        for n, beta in ((100, 3), (440, 5), (1000, 2), (50, 3.5)):
            sched = epoch_schedule(n, beta)
            assert sched.total == n
            assert all(s >= 1 for s in sched.sizes)

    def test_epoch_indexing(self):
        sched = epoch_schedule(100, 3)
        assert list(sched.epoch_ids()) == [4, 3, 2, 1]
        assert sched.size_of(1) == 3
        assert sched.size_of(4) == 61
        assert sched.suffix_length(4) == 100
        assert sched.suffix_length(1) == 3
        assert sched.suffix_length(2) == 12

    def test_snap_to_fibonacci(self):
        snapped = epoch_schedule(440, 5).snap_to_fibonacci()
        assert snapped.sizes == (377, 21, 5)


class TestHardDistributionRuns:
    def test_artificial_run_is_deterministic(self):
        a = run_hard_distribution("artificial", 16, 2, seed=11)
        b = run_hard_distribution("artificial", 16, 2, seed=11)
        assert a.updates == b.updates
        assert (a.memory.values, a.memory.tags) == (b.memory.values, b.memory.tags)
        assert len(a.memory.trace) == len(b.memory.trace)

    def test_artificial_total_updates_equals_n(self):
        run = run_hard_distribution("artificial", 16, 2, seed=0)
        assert sum(len(e.weights) for e in run.updates.epochs) == 16

    def test_orc_epochs_insert_scaled_lattices(self):
        run = run_hard_distribution("orc", 55, 5, seed=2)
        for epoch_id in run.run_schedule.epoch_ids():
            expected = scaled_lattice(
                LatticeSpec.create(run.run_schedule.size_of(epoch_id), run.n)
            )
            targets = {e.epoch: e.targets for e in run.updates.epochs}
            assert targets[epoch_id] == expected

    def test_orc_total_is_snapped_sum(self):
        run = run_hard_distribution("orc", 440, 5, seed=0)
        assert run.run_schedule.sizes == (377, 21, 5)
        assert sum(len(e.weights) for e in run.updates.epochs) == 403

    @pytest.mark.parametrize(
        "kind, n", [("artificial", 25), ("artificial", 100), ("orc", 55), ("orc", 440)]
    )
    def test_epoch_cell_sets_bounded(self, kind, n):
        # |S_i| <= size * t_u: each cell an epoch writes last cost it a probe
        run = run_hard_distribution(kind, n, 5, seed=1)
        for epoch_id in run.run_schedule.epoch_ids():
            cells = run.cells_of_epoch(epoch_id)
            bound = run.run_schedule.size_of(epoch_id) * run.structure.declared_update_probes
            assert len(cells) <= bound

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_hard_distribution("nope", 16, 2, seed=0)

    @pytest.mark.parametrize(
        "kind, n", [("artificial", 25), ("artificial", 49), ("orc", 55), ("orc", 440)]
    )
    def test_re_execution_reproduces_the_run(self, kind, n):
        # the run's own structure factory, on a fresh memory of the run's
        # width, rebuilds the run cell for cell and probe for probe
        run = run_hard_distribution(kind, n, 5, seed=0)
        memory = SimulatedMemory(MemoryConfig(w=run.w))
        execute_epochs(run.structure_factory(memory), memory, run.updates)
        assert memory.values == run.memory.values
        assert memory.tags == run.memory.tags
        assert memory.probes == run.memory.probes
        assert list(memory.trace.rows()) == list(run.memory.trace.rows())


class TestProbeProfiles:
    def test_naive_profile_matches_analytic_oracle(self):
        run = run_hard_distribution("artificial", 16, 2, seed=3)
        queries = list(range(40))
        counts, _ = epoch_probe_profile(run, queries)
        for j, by_epoch in zip(queries, counts, strict=True):
            assert by_epoch == {e: c for e, c in analytic_epoch_counts(run, j).items() if c}

    def test_query_probing_nothing_gives_zero_row(self):
        # hand-built run whose family contains the zero vector
        from cplab.hard_queries import QueryFamily, QueryFamilyParams

        params = QueryFamilyParams(n=4, seed=0)
        family = QueryFamily(params=params, vectors=(0b0000, 0b1111))
        memory = SimulatedMemory(MemoryConfig(w=8))
        structure = NaiveArtificialStructure(family, memory)
        updates = UpdateSequence(
            epochs=(
                EpochUpdates(epoch=2, targets=(0, 1), weights=(3, 4)),
                EpochUpdates(epoch=1, targets=(2, 3), weights=(5, 6)),
            ),
        )
        execute_epochs(structure, memory, updates)
        ((answer, addresses),) = replay_queries(structure, [0])
        assert (answer, addresses) == (0, ())
        from cplab.cell_probe_sim import probe_counts_by_epoch

        assert probe_counts_by_epoch(addresses, memory) == {}


class TestReplayQueries:
    @pytest.mark.parametrize("kind, n", [("artificial", 25), ("orc", 55)])
    def test_profile_log_holds_the_replayed_addresses(self, kind, n):
        run = run_hard_distribution(kind, n, 5, seed=4)
        rng = substream(4, "replay-sample")
        if kind == "artificial":
            queries = rng.sample(range(len(run.family.vectors)), 40)
        else:
            queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
        trace = run.memory.trace
        before = (len(trace), bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags))
        _, log = epoch_probe_profile(run, queries)
        replayed = [list(a) for _, a in replay_queries(run.structure, queries)]
        assert [segment(log, ("qry", idx)) for idx in range(40)] == replayed
        assert sum(map(len, replayed)) == len(log)
        assert run.memory.trace is trace
        assert (len(trace), bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags)) == before

    @pytest.mark.parametrize("kind, n", [("artificial", 25), ("orc", 55)])
    def test_query_outside_a_replay_raises_and_changes_nothing(self, kind, n):
        run = run_hard_distribution(kind, n, 5, seed=0)
        memory, trace = run.memory, run.memory.trace
        query = 0 if kind == "artificial" else (n - 1, n - 1)
        before = (dict(memory.values), dict(memory.tags), memory.probes, list(trace.rows()))
        with pytest.raises(AssertionError, match="a read outside a query replay"):
            run.structure.query(query)
        for addresses in ([], [-1], [1 << 70]):  # refused before the address check
            with pytest.raises(AssertionError, match="a read outside a query replay"):
                memory.read_many(addresses)
        assert (dict(memory.values), dict(memory.tags), memory.probes, list(trace.rows())) == before
        assert memory.replay_reads is None
        ((answer, addresses),) = replay_queries(run.structure, [query])
        assert answer == sum(memory.values.get(a, 0) for a in addresses) and addresses

    def test_query_that_writes_raises(self):
        from cplab.encoding_game import decode_epoch, encode_epoch, find_resolved_set

        class WritingQueries(NaiveArtificialStructure):
            def query(self, q):
                self.memory.write(0, 0)
                return super().query(q)

        run = run_hard_distribution("artificial", 25, 5, seed=0)
        resolved = find_resolved_set(
            run, 2, cell_budget=16, probe_threshold=12, max_tries=8, seed=0
        )
        message = encode_epoch(run, 2, resolved)
        assert message.flag == 0
        factory = lambda memory: WritingQueries(run.family, memory)
        run.structure = factory(run.memory)
        with pytest.raises(AssertionError, match="wrote cell 0"):
            list(replay_queries(run.structure, [0]))
        with pytest.raises(AssertionError, match="wrote cell 0"):
            epoch_probe_profile(run, [0])
        with pytest.raises(AssertionError, match="wrote cell 0"):
            decode_epoch(message, run.updates.prefix_above(2), factory)

    @pytest.mark.parametrize("kind, n", [("artificial", 25), ("orc", 55)])
    def test_write_is_refused_before_it_lands(self, kind, n):
        class WritingNaive(NaiveArtificialStructure):
            def query(self, q):
                self.memory.write(0, 7)
                return super().query(q)

        class AddingPrefixSum(PrefixSumRangeStructure):
            def query(self, q):
                self.memory.add_many([0, 1], 1)
                return super().query(q)

        run = run_hard_distribution(kind, n, 5, seed=0)
        memory, trace = run.memory, run.memory.trace
        if kind == "artificial":
            structure, query = WritingNaive(run.family, memory), 0
        else:
            structure = AddingPrefixSum(n, run.delta, memory, capacity=run.run_schedule.total)
            query = (n - 1, n - 1)
        before = (dict(memory.values), dict(memory.tags), memory.probes, len(trace))
        with pytest.raises(AssertionError, match="wrote cell 0"):
            list(replay_queries(structure, [query]))
        assert (dict(memory.values), dict(memory.tags), memory.probes, len(trace)) == before
        assert memory.replay_reads is None

    def test_several_reads_yield_one_sequence_in_probe_order(self):
        class TwoReadQueries(NaiveArtificialStructure):
            def query(self, j):
                cells = list(compress(range(self.n), self.family.coords(j)))
                k = len(cells) // 2
                return sum(self.memory.read_many(cells[k:])) + sum(
                    self.memory.read_many(cells[:k])
                )

        run = run_hard_distribution("artificial", 25, 5, seed=0)
        structure = TwoReadQueries(run.family, run.memory)
        queries = list(range(12))
        plain = list(replay_queries(run.structure, queries))
        replies = replay_queries(structure, queries)
        for (answer, addresses), (want, cells) in zip(replies, plain):
            k = len(cells) // 2
            assert answer == want
            assert tuple(addresses) == tuple(cells[k:]) + tuple(cells[:k])
        run.structure = structure
        _, log = epoch_probe_profile(run, queries)
        for idx, (_, cells) in enumerate(plain):
            k = len(cells) // 2
            assert segment(log, ("qry", idx)) == list(cells[k:]) + list(cells[:k])

    def test_failed_query_restores_the_memory(self):
        class StrayQueries(NaiveArtificialStructure):
            def query(self, j):
                self.memory.read_many([0])
                return sum(self.memory.read_many([1 << self.memory.config.w]))

        run = run_hard_distribution("artificial", 25, 5, seed=0)
        memory = run.memory
        probes, logged = memory.probes, len(memory.trace)
        with pytest.raises(ValueError):
            list(replay_queries(StrayQueries(run.family, memory), [0]))
        assert memory.probes == probes
        assert memory.replay_reads is None
        ((answer, addresses),) = replay_queries(run.structure, [0])
        cells = list(compress(range(25), run.family.coords(0)))
        assert tuple(addresses) == tuple(cells)
        assert answer == sum(memory.values.get(a, 0) for a in cells)
        run.structure.update(0, 5)
        assert memory.values[0] == 5
        assert (memory.probes, len(memory.trace)) == (probes + 1, logged + 1)


@functools.lru_cache(maxsize=None)
def _replay_run(kind: str, n: int):
    return run_hard_distribution(kind, n, 5, seed=0)


@settings(max_examples=25, deadline=None)
@given(
    kind_n=st.sampled_from([("artificial", 25), ("orc", 55)]),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
)
def test_profile_log_matches_the_replay(kind_n, picks):
    """The profile's log holds one read per replayed address, with the
    cell's tag; the run is left as it was."""
    kind, n = kind_n
    run = _replay_run(kind, n)
    memory, trace = run.memory, run.memory.trace
    if kind == "artificial":
        queries = [p % len(run.family.vectors) for p in picks]
    else:
        queries = [divmod(p % (n * n), n) for p in picks]
    rows = list(trace.rows())
    before = (dict(memory.values), dict(memory.tags), memory.probes, rows)
    _, log = epoch_probe_profile(run, queries)
    replayed = list(replay_queries(run.structure, queries))
    tag = lambda a: memory.tags.get(a, "")
    assert list(log.rows()) == [
        (("qry", idx), "read", a, tag(a))
        for idx, (_, addresses) in enumerate(replayed)
        for a in addresses
    ]
    assert (dict(memory.values), dict(memory.tags), memory.probes, list(trace.rows())) == before


class TestIncidenceVectors:
    def test_examples(self):
        run = run_hard_distribution("orc", 25, 5, seed=1)
        # epoch 1 inserts the 5-point lattice scaled to 25
        points = run.epoch_points[1]
        assert dominance_incidence(points, (24, 24)) == (1, 1, 1, 1, 1)
        assert dominance_incidence(points, (12, 16)) == (1, 1, 1, 0, 0)
        assert dominance_incidence(points, (0, 0)) == (1, 0, 0, 0, 0)

    def test_answer_decomposition_small(self):
        run = run_hard_distribution("orc", 55, 5, seed=4)
        reference = OrcInstance()
        for e in run.updates.epochs:
            for (x, y), weight in zip(e.targets, e.weights):
                reference.insert(x, y, weight)
        rng = substream(4, "small-decomposition")
        for _ in range(200):
            q = (rng.randrange(run.n), rng.randrange(run.n))
            total = sum(
                sum(
                    w
                    for bit, w in zip(
                        dominance_incidence(run.epoch_points[i], q), run.updates.u(i)
                    )
                    if bit
                )
                for i in run.run_schedule.epoch_ids()
            )
            assert total == reference.answer(q)


class TestWidthDefaults:
    def test_single_cell_weights_for_artificial(self):
        delta = largest_prime_below(25**4)
        w = default_run_cell_width("artificial", 25, delta, 25)
        assert w % 8 == 0
        assert w >= (delta.value - 1).bit_length()

    def test_orc_width_covers_addresses_and_counters(self):
        delta = largest_prime_below(440**4)
        w = default_run_cell_width("orc", 440, delta, 403)
        assert w % 8 == 0
        assert 440 * 440 <= 1 << w
        assert (403 * (delta.value - 1)).bit_length() <= w


class TestUpdateSequence:
    def test_prefix_above(self):
        run = run_hard_distribution("artificial", 16, 2, seed=0)
        prefix = run.updates.prefix_above(2)
        assert [e.epoch for e in prefix.epochs] == [4, 3]
        sizes = [len(e.weights) for e in prefix.epochs]
        assert sizes == [run.run_schedule.size_of(4), run.run_schedule.size_of(3)]

    def test_declared_update_bound_enforced(self):
        # a structure that lies about its update bound aborts the run,
        # in a memory that logs its probes and in one that only counts them
        delta = largest_prime_below(16**4)
        updates = UpdateSequence(
            epochs=(EpochUpdates(epoch=1, targets=((3, 3),), weights=(5,)),),
        )
        for logged in (True, False):
            memory = SimulatedMemory(MemoryConfig(w=48))
            if not logged:
                memory.trace = None
            structure = PrefixSumRangeStructure(16, delta, memory, capacity=4)
            structure.declared_update_probes = 1  # impossible bound
            with pytest.raises(AssertionError):
                execute_epochs(structure, memory, updates)
