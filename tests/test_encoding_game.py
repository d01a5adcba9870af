import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab.chronogram import replay_queries, run_hard_distribution
from cplab.encoding_game import (
    DecodingIntegrityError,
    EncodingMessage,
    ResolvedSet,
    ResolvedSetNotFound,
    Section,
    ceil_bits_for_weights,
    decode_epoch,
    encode_epoch,
    entropy_account,
    find_resolved_set,
    pack_weights,
    unpack_weights,
)
from cplab.finite_field import ff_rank, largest_prime_below
from cplab.rng import substream


def _run_with_family_rows(rows, beta=2):
    """Hand-built artificial run over a custom query family."""
    from cplab.cell_probe_sim import MemoryConfig, SimulatedMemory
    from cplab.chronogram import (
        EpochUpdates,
        RunRecord,
        UpdateSequence,
        epoch_schedule,
        execute_epochs,
    )
    from cplab.hard_queries import QueryFamily, QueryFamilyParams
    from cplab.structures import NaiveArtificialStructure

    n = len(rows[0])
    params = QueryFamilyParams(n=n, modulus=largest_prime_below(n**4), seed=0)
    family = QueryFamily(
        params=params,
        vectors=tuple(tuple(r) for r in rows),
    )
    sched = epoch_schedule(n, beta)
    rng = substream(0, "hand-run")
    epochs = []
    position = 0
    for epoch_id in sched.epoch_ids():
        size = sched.size_of(epoch_id)
        epochs.append(
            EpochUpdates(
                epoch=epoch_id,
                targets=tuple(range(position, position + size)),
                weights=tuple(rng.randrange(params.modulus.value) for _ in range(size)),
            )
        )
        position += size
    updates = UpdateSequence(epochs=tuple(epochs))
    memory = SimulatedMemory(MemoryConfig(w=16))
    factory = lambda mem: NaiveArtificialStructure(family, params.modulus, mem)
    structure = factory(memory)
    execute_epochs(structure, memory, updates)
    return RunRecord(
        kind="artificial", n=n, beta=float(beta), seed=0, w=16,
        delta=params.modulus, schedule=sched, run_schedule=sched,
        updates=updates, memory=memory, structure=structure,
        structure_factory=factory,
        family=family, epoch_points=None,
    )


class TestWeightPacking:
    def test_round_trip(self):
        delta = largest_prime_below(10**4)
        rng = substream(0, "pack")
        for count in (0, 1, 5, 20):
            weights = tuple(rng.randrange(delta.value) for _ in range(count))
            packed = pack_weights(weights, delta)
            assert unpack_weights(packed, delta, count) == weights
            assert packed < max(delta.value**count, 1)

    def test_bit_length_is_exact_ceiling(self):
        delta = largest_prime_below(10**4)
        for count in (1, 5, 17):
            expected = math.ceil(count * math.log2(delta.value))
            assert ceil_bits_for_weights(delta, count) == expected
        assert ceil_bits_for_weights(delta, 0) == 0

    def test_out_of_range_weight_rejected(self):
        delta = largest_prime_below(10**4)
        with pytest.raises(ValueError):
            pack_weights((delta.value,), delta)

    def test_trailing_data_rejected(self):
        delta = largest_prime_below(10**4)
        with pytest.raises(ValueError):
            unpack_weights(delta.value**3, delta, 2)


class TestSections:
    def test_payload_must_fit(self):
        with pytest.raises(ValueError):
            Section(label="x", bit_length=3, payload=8)
        with pytest.raises(ValueError):
            Section(label="x", bit_length=0, payload=1)

    def test_serialization_round_trip(self):
        run = run_hard_distribution("artificial", 16, 2, seed=1)
        message = encode_epoch(run, 2, None)
        restored = EncodingMessage.from_bytes(message.to_bytes())
        assert restored == message

    def test_padding_accounted_but_excluded(self):
        run = run_hard_distribution("artificial", 16, 2, seed=1)
        message = encode_epoch(run, 2, None)
        message.sections = (Section("a", 3, 5), Section("b", 9, 256))
        raw = message.to_bytes()
        assert message.total_bits == 1 + 3 + 9  # the padding to whole bytes is not counted
        framed = lambda label, bits, payload: (
            bytes([len(label)]) + label + bits.to_bytes(8, "big")
            + len(payload).to_bytes(8, "big") + payload
        )
        assert raw.endswith(framed(b"a", 3, b"\x05") + framed(b"b", 9, b"\x01\x00"))
        assert EncodingMessage.from_bytes(raw).sections == message.sections

    def test_missing_section_is_a_value_error(self):
        run = run_hard_distribution("artificial", 16, 2, seed=1)
        message = encode_epoch(run, 2, None)
        with pytest.raises(ValueError, match="no section 'resolved_cells'"):
            message.section("resolved_cells")


class TestStrictParsing:
    """`from_bytes` rejects a buffer it cannot frame exactly."""

    def _message(self):
        run = run_hard_distribution("artificial", 25, 5, seed=0)
        resolved = find_resolved_set(
            run, 2, cell_budget=16, probe_threshold=12, max_tries=8, seed=0
        )
        message = encode_epoch(run, 2, resolved)
        assert message.flag == 0
        return run, message

    def test_no_strict_prefix_decodes(self):
        run, message = self._message()
        data = message.to_bytes()
        prefix = run.updates.prefix_above(2)
        for end in range(len(data)):
            # a cut inside a section fails to parse; a cut between sections
            # parses, but the decoder then misses a section it needs
            with pytest.raises((ValueError, KeyError)):
                parsed = EncodingMessage.from_bytes(data[:end])
                decode_epoch(parsed, prefix, run.structure_factory, verify_run=run)

    def test_trailing_byte_rejected(self):
        _, message = self._message()
        with pytest.raises(ValueError, match="runs past the end"):
            EncodingMessage.from_bytes(message.to_bytes() + b"\x00")

    def test_unknown_version_rejected(self):
        _, message = self._message()
        with pytest.raises(ValueError, match="version"):
            EncodingMessage.from_bytes(dataclasses.replace(message, version=7).to_bytes())

    def _flag1_bytes(self):
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        return encode_epoch(run, 1, None).to_bytes()

    def test_repeated_section_rejected(self):
        data = self._flag1_bytes()
        sections = data[data.index(b"\n") + 1 :]
        EncodingMessage.from_bytes(data)
        with pytest.raises(ValueError, match="'raw_weights' appears twice"):
            EncodingMessage.from_bytes(data + sections)

    def test_boolean_version_rejected(self):
        data = self._flag1_bytes()
        forged = data.replace(b'"version": 1,', b'"version": true,', 1)
        assert forged != data
        with pytest.raises(ValueError, match="version True"):
            EncodingMessage.from_bytes(forged)

    @pytest.mark.parametrize("nbytes", [0, 2])
    def test_byte_count_must_match_bit_length(self, nbytes):
        _, message = self._message()
        message.sections = (Section("a", 3, 5),)
        raw = message.to_bytes()
        framed = b"\x01a" + (3).to_bytes(8, "big") + (1).to_bytes(8, "big") + b"\x05"
        assert raw.endswith(framed)
        forged = (
            raw[: -len(framed)] + b"\x01a" + (3).to_bytes(8, "big")
            + nbytes.to_bytes(8, "big") + b"\x05".rjust(nbytes, b"\x00")[:nbytes]
        )
        with pytest.raises(ValueError, match="bytes for 3 bits"):
            EncodingMessage.from_bytes(forged)


class _ShiftFieldWriter:
    """The former writer, kept as the oracle: ORs each field into one int."""

    def __init__(self) -> None:
        self.value = 0
        self.bits = 0

    def put(self, value: int, width: int) -> None:
        if not 0 <= value < 1 << width:
            raise ValueError(f"{value} does not fit in {width} bits")
        self.value |= value << self.bits
        self.bits += width


class _ShiftFieldReader:
    """The former reader, kept as the oracle: shifts the whole payload."""

    def __init__(self, value: int, bits: int):
        self.value = value
        self.remaining = bits

    def take(self, width: int) -> int:
        if width > self.remaining:
            raise ValueError("section payload exhausted")
        out = self.value & ((1 << width) - 1)
        self.value >>= width
        self.remaining -= width
        return out


_fields = st.integers(0, 70).flatmap(
    lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
)


class TestBitFields:
    @given(st.lists(_fields, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_pack_and_parse_match_the_shift_classes(self, fields):
        from cplab.encoding_game import _FieldReader, _FieldWriter

        old, new = _ShiftFieldWriter(), _FieldWriter()
        for value, width in fields:
            old.put(value, width)
            new.put(value, width)
        section = new.section("x")
        assert (section.bit_length, section.payload) == (old.bits, old.value)
        old_reader = _ShiftFieldReader(old.value, old.bits)
        new_reader = _FieldReader(section.payload, section.bit_length)
        for value, width in fields:
            assert new_reader.take(width) == old_reader.take(width) == value
        assert new_reader.remaining == old_reader.remaining == 0
        with pytest.raises(ValueError, match="exhausted"):
            new_reader.take(1)

    @given(st.integers(0, 300), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_widths_parse_like_the_shift_reader(self, bits, data):
        from cplab.encoding_game import _FieldReader

        payload = data.draw(st.integers(0, (1 << bits) - 1))
        old_reader = _ShiftFieldReader(payload, bits)
        new_reader = _FieldReader(payload, bits)
        for width in data.draw(st.lists(st.integers(0, 80), max_size=12)):
            if width > old_reader.remaining:
                with pytest.raises(ValueError, match="exhausted"):
                    new_reader.take(width)
                break
            assert new_reader.take(width) == old_reader.take(width)
            assert new_reader.remaining == old_reader.remaining

    @pytest.mark.parametrize("value, width", [(8, 3), (1, 0), (-1, 4)])
    def test_value_that_does_not_fit_rejected(self, value, width):
        from cplab.encoding_game import _FieldWriter

        with pytest.raises(ValueError):
            _ShiftFieldWriter().put(value, width)
        with pytest.raises(ValueError):
            _FieldWriter().put(value, width)


class TestFindResolvedSet:
    def test_full_budget_resolves_every_cheap_query(self):
        run = run_hard_distribution("artificial", 16, 2, seed=2)
        cells = run.cells_of_epoch(2)
        resolved = find_resolved_set(
            run, 2, cell_budget=len(cells), probe_threshold=1e9, max_tries=1, seed=0
        )
        # C = S_istar, threshold unbounded: the whole sample qualifies
        assert len(resolved.queries) == len(run.family.vectors)
        assert set(resolved.cell_addresses) == {a for a, _ in cells}

    def test_threshold_filters_queries(self):
        run = run_hard_distribution("artificial", 16, 2, seed=2)
        cells = run.cells_of_epoch(2)
        resolved = find_resolved_set(
            run, 2, cell_budget=len(cells), probe_threshold=2, max_tries=1, seed=0
        )
        from cplab.chronogram import analytic_epoch_counts

        expected = [
            j
            for j in range(len(run.family.vectors))
            if analytic_epoch_counts(run, j)[2] <= 2
        ]
        assert list(resolved.queries) == expected

    def test_not_found_raises(self):
        run = run_hard_distribution("artificial", 16, 2, seed=2)
        with pytest.raises(ResolvedSetNotFound):
            find_resolved_set(run, 2, probe_threshold=-1, max_tries=2, seed=0)

    def test_deterministic(self):
        run = run_hard_distribution("artificial", 16, 2, seed=2)
        a = find_resolved_set(run, 2, cell_budget=3, probe_threshold=4, max_tries=4, seed=9)
        b = find_resolved_set(run, 2, cell_budget=3, probe_threshold=4, max_tries=4, seed=9)
        assert a == b

    def test_all_ones_query_needs_full_cell_subset(self):
        # the all-ones query probes every epoch-istar cell, so it joins Q
        # only when C is the entire epoch cell set
        run = _run_with_family_rows(
            [(1,) * 8, (0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0)], beta=2
        )
        partial = find_resolved_set(
            run, 2, cell_budget=1, probe_threshold=1e9, max_tries=4, seed=0
        )
        assert 0 not in partial.queries  # all-ones excluded
        assert 1 in partial.queries  # zero vector probes nothing
        full = find_resolved_set(
            run, 2, cell_budget=len(run.cells_of_epoch(2)),
            probe_threshold=1e9, max_tries=1, seed=0,
        )
        assert list(full.queries) == [0, 1, 2]

    @pytest.mark.parametrize(
        "kind, n, istar, overrides, probes",
        [
            ("artificial", 25, 1, dict(cell_budget=16, probe_threshold=12, max_tries=8), 15606),
            ("orc", 440, 2, dict(probe_threshold=8, max_tries=8), 10667),
        ],
    )
    def test_query_probes_counts_both_replays(self, kind, n, istar, overrides, probes):
        # pinned from the growth of a log shared by the run and both replays
        run = run_hard_distribution(kind, n, 5, seed=3)
        resolved = find_resolved_set(run, istar, seed=3, **overrides)
        assert resolved.query_probes == probes


class TestQueriesLeaveRunUnchanged:
    @pytest.mark.parametrize(
        "kind, n, istar, overrides",
        [
            ("artificial", 25, 2, dict(cell_budget=16, probe_threshold=12, max_tries=8)),
            ("orc", 440, 2, dict(probe_threshold=8, max_tries=8)),
        ],
    )
    def test_profile_resolve_and_decode_keep_the_run(self, kind, n, istar, overrides):
        from cplab.chronogram import epoch_probe_profile

        run = run_hard_distribution(kind, n, 5, seed=0)
        trace = run.memory.trace

        def snapshot():
            return (
                len(trace), bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags),
                list(trace.rows()), dict(run.memory.values), dict(run.memory.tags),
            )

        before = snapshot()
        rng = substream(0, "profile-sample")
        if kind == "artificial":
            sample = rng.sample(range(len(run.family.vectors)), 100)
        else:
            sample = [(rng.randrange(n), rng.randrange(n)) for _ in range(100)]
        first = epoch_probe_profile(run, sample)
        second = epoch_probe_profile(run, sample)
        assert first == second
        assert list(first.log.rows()) == list(second.log.rows())
        resolved = find_resolved_set(run, istar, seed=0, **overrides)
        message = encode_epoch(run, istar, resolved)
        assert message.flag == 0
        result = decode_epoch(
            message, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(istar)
        assert run.memory.trace is trace
        assert snapshot() == before


@pytest.mark.parametrize(
    "kind, n, istar, overrides",
    [
        ("artificial", 25, 1, dict(cell_budget=4, probe_threshold=12, max_tries=8)),
        ("orc", 440, 2, dict(probe_threshold=8, max_tries=8)),
    ],
)
def test_decoder_prefix_memory_counts_without_a_log(kind, n, istar, overrides):
    """The memory the decoder re-executes the preceding epochs in keeps
    no probe log, and its probe count is what those updates probed in
    the run."""
    run = run_hard_distribution(kind, n, 5, seed=0)
    resolved = find_resolved_set(run, istar, seed=0, **overrides)
    message = encode_epoch(run, istar, resolved)
    assert message.flag == 0
    prefix = run.updates.prefix_above(istar)
    handed = []

    def capturing_factory(memory):
        handed.append(memory)
        return run.structure_factory(memory)

    result = decode_epoch(message, prefix, capturing_factory, verify_run=run)
    assert result.u_istar == run.updates.u(istar)
    [memory] = handed
    assert memory.trace is None
    run_probes = sum(
        len(run.memory.trace.segment(("upd", epoch.epoch, j)))
        for epoch in prefix.epochs
        for j in range(len(epoch.targets))
    )
    assert memory.probes == run_probes > 0


class TestFlagOnePath:
    def test_exact_bit_count(self):
        # epoch 1 of the n=25 schedule has exactly 5 updates
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        message = encode_epoch(run, 1, None)
        assert message.flag == 1
        expected_bits = ceil_bits_for_weights(run.delta, 5)
        assert message.sections[0].bit_length == expected_bits
        assert message.total_bits == 1 + expected_bits

    def test_round_trip(self):
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        message = encode_epoch(run, 1, None)
        result = decode_epoch(message, run.updates.prefix_above(1), run.structure_factory)
        assert result.flag == 1
        assert result.u_istar == run.updates.u(1)

    def test_average_cost_test_forces_flag_one(self):
        run = run_hard_distribution("artificial", 16, 2, seed=2)
        resolved = find_resolved_set(
            run, 2, cell_budget=4, probe_threshold=1e9, max_tries=2, seed=0
        )
        message = encode_epoch(run, 2, resolved, expected_t=1e-9)
        assert message.flag == 1

    def test_flag_one_slack_window(self):
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        message = encode_epoch(run, 1, None)
        account = entropy_account(run.run_schedule, 1, run.delta, message)
        assert 0 <= account.slack <= 1 + math.ceil(account.h_bits) - account.h_bits


class TestAccountingIdentities:
    def _flag0_message(self, seed=0):
        run = run_hard_distribution("artificial", 25, 5, seed=seed)
        resolved = find_resolved_set(
            run, 2, cell_budget=16, probe_threshold=12, max_tries=8, seed=seed
        )
        return run, encode_epoch(run, 2, resolved)

    def test_total_is_flag_plus_sections(self):
        _, message = self._flag0_message()
        assert message.flag == 0
        assert message.total_bits == 1 + sum(s.bit_length for s in message.sections)

    def test_completion_section_size(self):
        run, message = self._flag0_message()
        # recompute the independent count with the rank oracle
        k_len = run.run_schedule.suffix_length(2)
        rows = [run.family.vectors[j][-k_len:] for j in _decode_query_ids(message)]
        k = ff_rank(run.delta, rows)
        expected = ceil_bits_for_weights(run.delta, k_len - k)
        assert message.section("completion_products").bit_length == expected

    def test_cells_section_size(self):
        run, message = self._flag0_message()
        section = message.section("resolved_cells")
        count = (section.payload) & ((1 << (2 * run.w)) - 1)
        assert section.bit_length == 2 * run.w + 2 * run.w * count


def _decode_query_ids(message):
    from cplab.encoding_game import _parse_query_ids_section

    return _parse_query_ids_section(message.section("resolved_queries"), message.n, message.w)


class TestArtificialRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_flag0_top_epoch(self, seed):
        run = run_hard_distribution("artificial", 25, 5, seed=seed)
        resolved = find_resolved_set(
            run, 2, cell_budget=16, probe_threshold=12, max_tries=8, seed=seed
        )
        message = encode_epoch(run, 2, resolved)
        assert message.flag == 0
        result = decode_epoch(
            message, run.updates.prefix_above(2), run.structure_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(2)

    @pytest.mark.parametrize("seed", range(4))
    def test_flag0_non_top_epoch_uses_prefix(self, seed):
        run = run_hard_distribution("artificial", 25, 5, seed=seed)
        resolved = find_resolved_set(
            run, 1, cell_budget=4, probe_threshold=12, max_tries=8, seed=seed
        )
        message = encode_epoch(run, 1, resolved)
        assert message.flag == 0
        result = decode_epoch(
            message, run.updates.prefix_above(1), run.structure_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(1)


    @pytest.mark.parametrize("seed, istar", [(0, 2), (1, 1), (3, 1)])
    def test_replays_only_the_kept_queries(self, seed, istar):
        run = run_hard_distribution("artificial", 25, 5, seed=seed)
        resolved = find_resolved_set(
            run, istar, cell_budget=16, probe_threshold=12, max_tries=8, seed=seed
        )
        message = encode_epoch(run, istar, resolved)
        assert message.flag == 0
        replays = []

        def counting_factory(memory):
            # count the queries asked of the decoder's structure
            structure = run.structure_factory(memory)
            query = structure.query
            structure.query = lambda *args: replays.append(args) or query(*args)
            return structure

        result = decode_epoch(
            message, run.updates.prefix_above(istar), counting_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(istar)
        assert len(replays) == result.queries_replayed == result.independent_rows
        assert result.independent_rows <= min(
            message.query_count, run.run_schedule.suffix_length(istar)
        )


def test_decode_from_the_products_alone():
    """Queries whose rows vanish on the suffix resolve trivially and keep no
    row (k = 0): the message then carries every suffix weight, and the
    decoder recovers them with no replay and no solve."""
    run = run_hard_distribution("artificial", 25, 5, seed=0)
    k_len = run.run_schedule.suffix_length(1)
    zero_ids = tuple(
        j for j, v in enumerate(run.family.vectors) if not any(v[-k_len:])
    )
    assert zero_ids
    resolved = ResolvedSet(
        istar=1, cell_addresses=(), queries=zero_ids, sample_mean_t=0.0,
        sample_size=len(zero_ids), tries_used=1, query_probes=0,
    )
    message = EncodingMessage.from_bytes(encode_epoch(run, 1, resolved).to_bytes())
    assert message.flag == 0 and message.query_count == len(zero_ids)
    products = message.section("completion_products")
    assert products.bit_length == ceil_bits_for_weights(run.delta, k_len)
    result = decode_epoch(
        message, run.updates.prefix_above(1), run.structure_factory, verify_run=run
    )
    assert result.u_istar == run.updates.u(1)
    assert result.queries_replayed == result.independent_rows == 0


class TestOrcRoundTrip:
    @pytest.mark.parametrize("seed", range(4))
    def test_flag0_with_snapped_epochs(self, seed):
        run = run_hard_distribution("orc", 55, 5, seed=seed)
        istar = run.run_schedule.count - 1
        try:
            resolved = find_resolved_set(
                run, istar, probe_threshold=8, max_tries=8, seed=seed
            )
        except ResolvedSetNotFound:
            resolved = None
        message = encode_epoch(run, istar, resolved)
        result = decode_epoch(
            message, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(istar)

    def test_smaller_epoch_weights_sections_present(self):
        run = run_hard_distribution("orc", 440, 5, seed=0)
        resolved = find_resolved_set(run, 2, probe_threshold=8, max_tries=8, seed=0)
        message = encode_epoch(run, 2, resolved)
        labels = [s.label for s in message.sections]
        assert "weights_epoch_1" in labels and "cells_epoch_1" in labels
        section = message.section("weights_epoch_1")
        assert section.bit_length == ceil_bits_for_weights(run.delta, 5)


class TestIntegrityChecks:
    def test_replay_outside_c_detected(self):
        run = run_hard_distribution("artificial", 25, 5, seed=3)
        # a hand-made resolved set whose (empty) C cannot cover a query
        # that reads at least one cell written in epoch 2
        epoch2_positions = range(run.run_schedule.size_of(2))
        victim = next(
            j
            for j, v in enumerate(run.family.vectors)
            if any(v[p] for p in epoch2_positions)
        )
        bogus = ResolvedSet(
            istar=2,
            cell_addresses=(),
            queries=(victim,),
            sample_mean_t=1.0,
            sample_size=1,
            tries_used=1,
            query_probes=0,
        )
        message = encode_epoch(run, 2, bogus)
        # the error names the victim's first epoch-2 probe, in probe order
        epoch2 = {addr for addr, _ in run.cells_of_epoch(2)}
        ((_, addresses),) = replay_queries(run.structure, [victim])
        first = next(a for a in addresses if a in epoch2)
        with pytest.raises(DecodingIntegrityError, match=rf"cell {first} outside C"):
            decode_epoch(
                message, run.updates.prefix_above(2), run.structure_factory, verify_run=run
            )

    def test_kept_query_outside_c_detected(self):
        run = run_hard_distribution("artificial", 25, 5, seed=3)
        epoch2 = {addr for addr, _ in run.cells_of_epoch(2)}
        vectors = run.family.vectors
        first = next(j for j, v in enumerate(vectors) if any(v[:20]))
        ((_, addresses),) = replay_queries(run.structure, [first])
        c_cells = epoch2.intersection(addresses)
        # a second query, independent of the first, reading an epoch-2
        # position the first does not read, i.e. a cell outside C
        second = next(
            j
            for j, v in enumerate(vectors)
            if any(b and not a for a, b in zip(vectors[first][:20], v[:20]))
        )

        def decode(queries):
            resolved = ResolvedSet(
                istar=2,
                cell_addresses=tuple(sorted(c_cells)),
                queries=queries,
                sample_mean_t=1.0,
                sample_size=len(queries),
                tries_used=1,
                query_probes=0,
            )
            return decode_epoch(
                encode_epoch(run, 2, resolved),
                run.updates.prefix_above(2),
                run.structure_factory,
                verify_run=run,
            )

        # C resolves the first query alone, so that message decodes exactly
        alone = decode((first,))
        assert alone.u_istar == run.updates.u(2)
        assert alone.queries_replayed == alone.independent_rows == 1
        with pytest.raises(DecodingIntegrityError, match="outside C"):
            decode((first, second))

    def test_prefix_covering_istar_rejected(self):
        run = run_hard_distribution("artificial", 25, 5, seed=3)
        resolved = find_resolved_set(
            run, 2, cell_budget=16, probe_threshold=12, max_tries=8, seed=3
        )
        message = encode_epoch(run, 2, resolved)
        with pytest.raises(ValueError):
            decode_epoch(message, run.updates, run.structure_factory)

    @pytest.mark.parametrize(
        "delta",
        [
            # psi_12: composite, yet a strong probable prime to bases 2..37
            318665857834031151167461,
            # psi_13: the first value the primality test will not answer
            3317044064679887385961981,
            # the Mersenne prime 2^89 - 1, beyond the exact range
            2**89 - 1,
        ],
    )
    def test_untestable_or_composite_delta_rejected(self, delta):
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        forged = dataclasses.replace(encode_epoch(run, 1, None), delta=delta)
        parsed = EncodingMessage.from_bytes(forged.to_bytes())
        assert parsed.delta == delta
        with pytest.raises(ValueError):
            decode_epoch(parsed, run.updates.prefix_above(1), run.structure_factory)


def _with_query_ids(message, qids):
    """The message with its resolved_queries section rewritten to `qids`."""
    from cplab.encoding_game import _query_ids_section

    section = _query_ids_section(qids, message.n, message.w)
    sections = tuple(
        section if s.label == "resolved_queries" else s for s in message.sections
    )
    forged = dataclasses.replace(message, sections=sections, query_count=len(qids))
    return EncodingMessage.from_bytes(forged.to_bytes())


class TestQueryIdRange:
    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize(
        "kind, n, istar, overrides",
        [
            ("artificial", 25, 2, dict(cell_budget=16, probe_threshold=12, max_tries=8)),
            ("orc", 440, 2, dict(probe_threshold=8, max_tries=8)),
        ],
    )
    def test_id_n_squared_rejected(self, kind, n, istar, overrides, position, verify):
        run = run_hard_distribution(kind, n, 5, seed=0)
        message = encode_epoch(run, istar, find_resolved_set(run, istar, seed=0, **overrides))
        qids = _decode_query_ids(message)
        assert max(qids) < n * n < 1 << (n * n - 1).bit_length()
        qids = [n * n] + qids if position == "first" else qids + [n * n]
        with pytest.raises(ValueError, match=rf"query id {n * n} outside"):
            decode_epoch(
                _with_query_ids(message, qids),
                run.updates.prefix_above(istar),
                run.structure_factory,
                verify_run=run if verify else None,
            )

    def test_id_beyond_a_small_family_rejected(self):
        # three family vectors at n = 8, so ids 3..63 fit the field but name no query
        run = _run_with_family_rows(
            [(1,) * 8, (0,) * 8, (1, 0, 0, 0, 0, 0, 0, 0)], beta=2
        )
        resolved = find_resolved_set(
            run, 2, cell_budget=len(run.cells_of_epoch(2)),
            probe_threshold=1e9, max_tries=1, seed=0,
        )
        message = encode_epoch(run, 2, resolved)
        assert decode_epoch(
            message, run.updates.prefix_above(2), run.structure_factory, verify_run=run
        ).u_istar == run.updates.u(2)
        with pytest.raises(ValueError, match="query id 3 outside"):
            decode_epoch(
                _with_query_ids(message, [0, 1, 2, 3]),
                run.updates.prefix_above(2),
                run.structure_factory,
            )


class TestSectionFormats:
    """Each section format has one writer and one reader, which the
    encoder and the decoder share; every writer's output reads back."""

    @given(st.integers(2, 60), st.sampled_from([8, 16, 24]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_query_ids_round_trip(self, n, w, data):
        from cplab.encoding_game import _parse_query_ids_section, _query_ids_section

        ids = st.sampled_from([0, n * n - 1]) | st.integers(0, n * n - 1)
        qids = data.draw(st.lists(ids, max_size=30))
        section = _query_ids_section(qids, n, w)
        assert section.bit_length == 2 * w + len(qids) * (n * n - 1).bit_length()
        assert _parse_query_ids_section(section, n, w) == qids

    @given(st.sampled_from([8, 16, 24]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cells_round_trip(self, w, data):
        from cplab.encoding_game import _cells_section, _parse_cells_section

        field = st.sampled_from([0, (1 << w) - 1]) | st.integers(0, (1 << w) - 1)
        cells = data.draw(st.dictionaries(field, field, max_size=30))
        section = _cells_section("c", sorted(cells.items()), w)
        assert section.bit_length == 2 * w * (1 + len(cells))
        assert _parse_cells_section(section, w) == cells

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weights_round_trip(self, n, data):
        from cplab.encoding_game import _parse_weights_section, _weights_section
        from cplab.finite_field import field_modulus

        delta = field_modulus(n)
        weight = st.sampled_from([0, delta.value - 1]) | st.integers(0, delta.value - 1)
        weights = tuple(data.draw(st.lists(weight, max_size=30)))
        section = _weights_section("u", weights, delta)
        assert section.bit_length == ceil_bits_for_weights(delta, len(weights))
        assert _parse_weights_section(section, delta, len(weights)) == weights
        for count in (len(weights) + 1, len(weights) - 1):
            if count >= 0:
                with pytest.raises(ValueError, match="'u': .* bits for"):
                    _parse_weights_section(section, delta, count)


_FLAG0_GAMES = [
    ("artificial", 25, 2, dict(cell_budget=16, probe_threshold=12, max_tries=8)),
    ("orc", 440, 2, dict(probe_threshold=8, max_tries=8)),
]


class TestTrailingBits:
    @pytest.mark.parametrize("fill", [0, (1 << 40) - 1])
    @pytest.mark.parametrize("label", ["resolved_cells", "resolved_queries"])
    @pytest.mark.parametrize("kind, n, istar, overrides", _FLAG0_GAMES)
    def test_bits_after_the_last_field_rejected(self, kind, n, istar, overrides, label, fill):
        run = run_hard_distribution(kind, n, 5, seed=0)
        message = encode_epoch(run, istar, find_resolved_set(run, istar, seed=0, **overrides))
        assert message.flag == 0
        sections = tuple(
            Section(s.label, s.bit_length + 40, s.payload | fill << s.bit_length)
            if s.label == label
            else s
            for s in message.sections
        )
        forged = EncodingMessage.from_bytes(
            dataclasses.replace(message, sections=sections).to_bytes()
        )
        with pytest.raises(ValueError, match=rf"'{label}': .* bits for .* fields"):
            decode_epoch(
                forged, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
            )


class TestForgedHeaders:
    @pytest.mark.parametrize("flag", [0, 1])
    @pytest.mark.parametrize("kind, n, istar, overrides", _FLAG0_GAMES)
    def test_unknown_kind_rejected(self, kind, n, istar, overrides, flag):
        run = run_hard_distribution(kind, n, 5, seed=0)
        resolved = find_resolved_set(run, istar, seed=0, **overrides) if flag == 0 else None
        message = encode_epoch(run, istar, resolved)
        assert message.flag == flag
        forged = EncodingMessage.from_bytes(dataclasses.replace(message, kind="orb").to_bytes())
        with pytest.raises(ValueError, match="unknown kind 'orb'"):
            decode_epoch(
                forged, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
            )

    @pytest.mark.parametrize("kind, n, istar, overrides", _FLAG0_GAMES)
    def test_kind_of_the_other_game_rejected(self, kind, n, istar, overrides):
        run = run_hard_distribution(kind, n, 5, seed=0)
        message = encode_epoch(run, istar, find_resolved_set(run, istar, seed=0, **overrides))
        assert message.flag == 0
        other = "orc" if kind == "artificial" else "artificial"
        forged = EncodingMessage.from_bytes(dataclasses.replace(message, kind=other).to_bytes())
        with pytest.raises(ValueError, match=rf"'{other}' message does not fit"):
            decode_epoch(
                forged, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
            )

    def test_weights_of_the_wrong_count_rejected(self):
        # as an index-weight message, the snapped 21-weight epoch would be
        # read as its unsnapped 25 weights
        run = run_hard_distribution("orc", 440, 5, seed=0)
        message = encode_epoch(run, 2, None)
        assert run.run_schedule.size_of(2) == 21 and run.schedule.size_of(2) == 25
        forged = dataclasses.replace(message, kind="artificial")
        with pytest.raises(ValueError, match="'raw_weights': .* bits for 25 weights"):
            decode_epoch(forged, run.updates.prefix_above(2), run.structure_factory)


class TestEntropyAccount:
    def test_h_uses_epoch_size(self):
        run = run_hard_distribution("artificial", 25, 5, seed=0)
        message = encode_epoch(run, 2, None)
        account = entropy_account(run.run_schedule, 2, run.delta, message)
        assert account.h_bits == pytest.approx(20 * math.log2(run.delta.value))
        assert account.slack == pytest.approx(message.total_bits - account.h_bits)

    def test_h_formula_five_weights(self):
        from cplab.chronogram import EpochSchedule
        from cplab.finite_field import PrimeModulus

        run = run_hard_distribution("artificial", 25, 5, seed=0)
        message = encode_epoch(run, 1, None)
        schedule = EpochSchedule(n=10, beta=2.0, sizes=(5, 3, 2))
        account = entropy_account(schedule, 3, PrimeModulus(9973), message)
        assert account.h_bits == pytest.approx(5 * math.log2(9973))
