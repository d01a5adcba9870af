import pytest

from cplab.cell_probe_sim import MemoryConfig, ProbeTrace, SimulatedMemory
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
    structure_factory,
)
from cplab.fibonacci_lattice import LatticeSpec, dominance_incidence, scaled_lattice
from cplab.finite_field import largest_prime_below
from cplab.rng import substream
from cplab.structures import NaiveArtificialStructure, OrcInstance


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
            assert run.updates.epoch(epoch_id).targets == expected

    def test_orc_total_is_snapped_sum(self):
        run = run_hard_distribution("orc", 440, 5, seed=0)
        assert run.run_schedule.sizes == (377, 21, 5)
        assert sum(len(e.weights) for e in run.updates.epochs) == 403

    def test_epoch_cell_sets_bounded(self):
        run = run_hard_distribution("orc", 55, 5, seed=1)
        for epoch_id in run.run_schedule.epoch_ids():
            cells = run.cells_of_epoch(epoch_id)
            bound = run.run_schedule.size_of(epoch_id) * run.structure.declared_update_probes
            assert len(cells) <= bound

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_hard_distribution("nope", 16, 2, seed=0)

    def test_epoch_of_position(self):
        run = run_hard_distribution("artificial", 16, 2, seed=0)
        # schedule (2, 8, 4, 2): epochs 4, 3, 2, 1
        assert run.run_schedule.sizes == (2, 8, 4, 2)
        assert run.epoch_of_position(0) == 4
        assert run.epoch_of_position(2) == 3
        assert run.epoch_of_position(10) == 2
        assert run.epoch_of_position(15) == 1


class TestProbeProfiles:
    def test_naive_profile_matches_analytic_oracle(self):
        run = run_hard_distribution("artificial", 16, 2, seed=3)
        queries = list(range(40))
        profile = epoch_probe_profile(run, queries)
        for idx, j in enumerate(queries):
            assert profile.counts[idx] == {
                e: c for e, c in analytic_epoch_counts(run, j).items() if c
            }

    def test_totals_are_epoch_sums(self):
        run = run_hard_distribution("artificial", 16, 2, seed=3)
        profile = epoch_probe_profile(run, list(range(30)))
        for idx in range(30):
            assert profile.totals[idx] == sum(profile.counts[idx].values())

    def test_query_probing_nothing_gives_zero_row(self):
        # hand-built run whose family contains the zero vector
        from cplab.hard_queries import QueryFamily, QueryFamilyParams

        params = QueryFamilyParams(n=4, modulus=largest_prime_below(4**4), seed=0)
        family = QueryFamily(params=params, vectors=((0, 0, 0, 0), (1, 1, 1, 1)))
        memory = SimulatedMemory(MemoryConfig(w=8))
        structure = NaiveArtificialStructure(family, params.modulus, memory)
        updates = UpdateSequence(
            epochs=(
                EpochUpdates(epoch=2, targets=(0, 1), weights=(3, 4)),
                EpochUpdates(epoch=1, targets=(2, 3), weights=(5, 6)),
            ),
        )
        execute_epochs(structure, memory, updates)
        memory.begin_operation(("qry", 0))
        assert structure.query(0) == 0
        from cplab.cell_probe_sim import probe_counts_by_epoch

        assert probe_counts_by_epoch(memory.trace.segment(("qry", 0)), memory) == {}

    def test_profile_csv_schema(self, tmp_path):
        run = run_hard_distribution("artificial", 16, 2, seed=3)
        profile = epoch_probe_profile(run, list(range(10)))
        path = tmp_path / "profile.csv"
        profile.export_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,queries_sampled,mean_t_i,max_t_i"
        assert len(lines) == 1 + run.run_schedule.count


class TestReplayQueries:
    @pytest.mark.parametrize("kind, n", [("artificial", 25), ("orc", 55)])
    def test_replay_without_log_yields_the_logged_addresses(self, kind, n):
        run = run_hard_distribution(kind, n, 5, seed=4)
        rng = substream(4, "replay-sample")
        if kind == "artificial":
            queries = rng.sample(range(len(run.family.vectors)), 40)
        else:
            queries = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
        trace = run.memory.trace
        before = (len(trace), bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags))
        log = ProbeTrace()
        logged = [bytes(a) for _, a in replay_queries(run.structure, queries, log)]
        unlogged = [bytes(a) for _, a in replay_queries(run.structure, queries)]
        assert unlogged == logged
        assert sum(map(len, unlogged)) == len(log) * log.addresses.itemsize
        assert run.memory.trace is trace
        assert (len(trace), bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags)) == before

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
        factory = lambda memory: WritingQueries(run.family, run.delta, memory)
        run.structure = factory(run.memory)
        with pytest.raises(AssertionError, match="wrote cell 0"):
            list(replay_queries(run.structure, [0]))
        with pytest.raises(AssertionError, match="wrote cell 0"):
            epoch_probe_profile(run, [0])
        with pytest.raises(AssertionError, match="wrote cell 0"):
            decode_epoch(message, run.updates.prefix_above(2), factory)


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
        reference = OrcInstance(n=run.n)
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

    def test_factory_needs_the_input_of_its_kind(self):
        delta = largest_prime_below(16**4)
        with pytest.raises(ValueError, match="capacity"):
            structure_factory("orc", 16, delta)
        with pytest.raises(ValueError, match="query family"):
            structure_factory("artificial", 16, delta)

    def test_declared_update_bound_enforced(self):
        # a structure that lies about its update bound aborts the run,
        # in a memory that logs its probes and in one that only counts them
        delta = largest_prime_below(16**4)
        factory = structure_factory("orc", 16, delta, capacity=4)
        updates = UpdateSequence(
            epochs=(EpochUpdates(epoch=1, targets=((3, 3),), weights=(5,)),),
        )
        for logged in (True, False):
            memory = SimulatedMemory(MemoryConfig(w=48))
            if not logged:
                memory.trace = None
            structure = factory(memory)
            structure.declared_update_probes = 1  # impossible bound
            with pytest.raises(AssertionError):
                execute_epochs(structure, memory, updates)
