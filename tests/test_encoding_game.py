import dataclasses
import functools
import json
import math
import zlib

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from probe_log import segment

from cplab.chronogram import epoch_schedule, replay_queries, run_hard_distribution
from cplab.encoding_game import (
    DOMINANCE_QUERY_POOL,
    DecodingIntegrityError,
    EncodingMessage,
    MessageFormatError,
    ResolvedSet,
    ResolvedSetNotFound,
    Section,
    ceil_bits_for_weights,
    decode_epoch,
    default_cell_budget,
    encode_epoch,
    entropy_account,
    find_resolved_set,
    pack_weights,
    unpack_weights,
)
from cplab.finite_field import ff_rank, largest_prime_below
from cplab.rng import substream
from test_hard_queries import bits_of


def _sealed(body):
    """A forged message body with the CRC-32 trailer `to_bytes` writes,
    so that parsing reaches the structural check under test."""
    return body + zlib.crc32(body).to_bytes(4, "big")


def _run_with_family_rows(rows, beta=2):
    """Hand-built artificial run over a custom query family."""
    from cplab.cell_probe_sim import MemoryConfig, SimulatedMemory
    from cplab.chronogram import (
        EpochUpdates,
        RunRecord,
        UpdateSequence,
        execute_epochs,
    )
    from cplab.hard_queries import QueryFamily, QueryFamilyParams
    from cplab.structures import NaiveArtificialStructure

    n = len(rows[0])
    params = QueryFamilyParams(n=n, seed=0)
    family = QueryFamily(params=params, vectors=tuple(bits_of(r) for r in rows))
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
    factory = lambda mem: NaiveArtificialStructure(family, mem)
    structure = factory(memory)
    execute_epochs(structure, memory, updates)
    return RunRecord(
        kind="artificial", n=n, beta=float(beta), w=16,
        delta=params.modulus, run_schedule=sched,
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
            bytes([len(label)]) + label + bits.to_bytes(8, "big") + payload
        )
        body = raw[:-4]
        assert body.endswith(framed(b"a", 3, b"\x05") + framed(b"b", 9, b"\x01\x00"))
        assert raw == _sealed(body)
        assert EncodingMessage.from_bytes(raw).sections == message.sections

    def test_set_padding_bit_rejected(self):
        # with no byte count in the framing, a payload bit above the bit
        # length is what tells a forged section from a real one
        run = run_hard_distribution("artificial", 16, 2, seed=1)
        message = encode_epoch(run, 2, None)
        message.sections = (Section("a", 3, 5),)
        body = message.to_bytes()[:-4]
        assert body.endswith(b"\x05")
        with pytest.raises(MessageFormatError, match="exceeds the declared bit length"):
            EncodingMessage.from_bytes(_sealed(body[:-1] + b"\x0d"))

    def test_missing_section_is_a_value_error(self):
        run = run_hard_distribution("artificial", 16, 2, seed=1)
        message = encode_epoch(run, 2, None)
        with pytest.raises(MessageFormatError, match="no section 'resolved_cells'"):
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
        # the checksum refuses every cut buffer (TestCorruptedBuffers); re-sealed,
        # a cut inside a section fails to parse and a cut between sections
        # parses, but the decoder then misses a section it needs
        run, message = self._message()
        body = message.to_bytes()[:-4]
        prefix = run.updates.prefix_above(2)
        for end in range(len(body)):
            with pytest.raises(MessageFormatError) as err:
                parsed = EncodingMessage.from_bytes(_sealed(body[:end]))
                decode_epoch(parsed, prefix, run.structure_factory, verify_run=run)
            assert "checksum" not in str(err.value)

    def test_trailing_byte_rejected(self):
        _, message = self._message()
        data = message.to_bytes()
        with pytest.raises(MessageFormatError, match="checksum"):
            EncodingMessage.from_bytes(data + b"\x00")
        with pytest.raises(MessageFormatError, match="runs past the end"):
            EncodingMessage.from_bytes(_sealed(data[:-4] + b"\x00"))

    @pytest.mark.parametrize("version", [1, 7])
    def test_unknown_version_rejected(self, version):
        # no reader for version 1: its header fields and byte counts are gone
        _, message = self._message()
        with pytest.raises(MessageFormatError, match=rf"unknown message version {version}$"):
            EncodingMessage.from_bytes(dataclasses.replace(message, version=version).to_bytes())

    def _flag1_bytes(self):
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        return encode_epoch(run, 1, None).to_bytes()

    def test_repeated_section_rejected(self):
        data = self._flag1_bytes()
        body = data[:-4]
        sections = body[body.index(b"\n") + 1 :]
        EncodingMessage.from_bytes(data)
        with pytest.raises(MessageFormatError, match="'raw_weights' appears twice"):
            EncodingMessage.from_bytes(_sealed(body + sections))

    def test_boolean_version_rejected(self):
        body = self._flag1_bytes()[:-4]
        forged = body.replace(b'"version": 2}', b'"version": true}', 1)
        assert forged != body
        with pytest.raises(MessageFormatError, match="version True"):
            EncodingMessage.from_bytes(_sealed(forged))

    def test_header_holds_only_what_the_decoder_cannot_derive(self):
        _, message = self._message()
        data = message.to_bytes()
        header = json.loads(data[: data.index(b"\n")])
        assert header == {
            "beta": 5.0, "flag": 0, "istar": 2, "kind": "artificial", "n": 25, "version": 2,
        }

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: [h],
            lambda h: "header",
            lambda h: {k: v for k, v in h.items() if k != "istar"},
            lambda h: {**h, "extra": 0},
            lambda h: {**h, "n": True},
            lambda h: {**h, "istar": 2.0},
            lambda h: {**h, "beta": "5"},
            lambda h: {**h, "kind": 1},
            lambda h: {**h, "flag": "0"},
            lambda h: {**h, "flag": 2},
        ],
        ids=[
            "list", "string", "missing-field", "extra-field", "bool-int", "float-int",
            "string-beta", "int-kind", "string-flag", "flag-2",
        ],
    )
    def test_malformed_header_rejected(self, edit):
        _, message = self._message()
        body = message.to_bytes()[:-4]
        newline = body.index(b"\n")
        header = json.loads(body[:newline])
        forged = json.dumps(edit(header)).encode() + body[newline:]
        with pytest.raises(MessageFormatError) as err:
            EncodingMessage.from_bytes(_sealed(forged))
        assert "checksum" not in str(err.value)

    @pytest.mark.parametrize(
        "forge, error",
        [
            (lambda body: body.replace(b"\n", b" "), "no closing newline"),
            (lambda body: b"{" + body, "not JSON"),
            (lambda body: body.replace(b'"kind": "', b'"kind": "\xff', 1), "not JSON"),
            (lambda body: b"[" * 100_000 + body[body.index(b"\n") :], "not JSON"),
            (lambda body: b"1" * 5000 + body[body.index(b"\n") :], "not JSON"),
            (lambda body: body.replace(b"\x0braw_weights", b"\x0b\xffaw_weights", 1), "UTF-8"),
        ],
        ids=["no-newline", "bad-json", "bad-utf8", "deep-nesting", "long-int", "label-utf8"],
    )
    def test_resealed_garbage_is_a_message_format_error(self, forge, error):
        # each of these leaked a bare ValueError, JSONDecodeError,
        # UnicodeDecodeError or RecursionError before the parser caught it
        body = self._flag1_bytes()[:-4]
        forged = forge(body)
        assert forged != body
        with pytest.raises(MessageFormatError, match=error):
            EncodingMessage.from_bytes(_sealed(forged))


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


def _oracle_section(fields, width, w):
    """(bit length, payload) of a counted section packed by the oracle:
    the count in 2w bits, then each field in `width` bits."""
    writer = _ShiftFieldWriter()
    writer.put(len(fields), 2 * w)
    for field in fields:
        writer.put(field, width)
    return writer.bits, writer.value


# (fields, width, w): up to 40 fields, so a count fits 2w >= 6 bits
_counted = st.tuples(st.integers(1, 70), st.integers(3, 24)).flatmap(
    lambda sizes: st.tuples(
        st.lists(st.integers(0, (1 << sizes[0]) - 1), max_size=40),
        st.just(sizes[0]),
        st.just(sizes[1]),
    )
)


class TestBitFields:
    """`_counted_section` and `_parse_counted_section` against the former
    shift-based writer and reader."""

    @given(_counted)
    @settings(max_examples=200, deadline=None)
    def test_pack_and_parse_match_the_shift_classes(self, case):
        from cplab.encoding_game import _counted_section, _parse_counted_section

        fields, width, w = case
        section = _counted_section("x", fields, width, w)
        bits, value = _oracle_section(fields, width, w)
        assert (section.bit_length, section.payload) == (bits, value)
        reader = _ShiftFieldReader(value, bits)
        assert reader.take(2 * w) == len(fields)
        assert [reader.take(width) for _ in fields] == fields
        assert reader.remaining == 0
        assert _parse_counted_section(section, width, w) == fields

    @given(_counted, st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_widths_parse_like_the_shift_reader(self, case, data):
        from cplab.encoding_game import _parse_counted_section

        fields, width, w = case
        full, value = _oracle_section(fields, width, w)
        # cut the section short, or give it extra high bits of any value
        bits = data.draw(st.integers(0, full + 2 * width))
        value = (value | data.draw(st.integers(0, (1 << bits) - 1)) << full) % (1 << bits)
        section = Section("x", bits, value)
        reader = _ShiftFieldReader(value, bits)
        if bits < 2 * w:
            with pytest.raises(MessageFormatError, match=f"'x': {bits} bits, no count"):
                _parse_counted_section(section, width, w)
            return
        count = reader.take(2 * w)
        if reader.remaining != count * width:
            error = rf"'x': {reader.remaining} bits for {count} fields of {width}$"
            with pytest.raises(MessageFormatError, match=error):
                _parse_counted_section(section, width, w)
            return
        assert _parse_counted_section(section, width, w) == [
            reader.take(width) for _ in range(count)
        ]

    @pytest.mark.parametrize("w", [8, 40])
    @pytest.mark.parametrize("short", [0, 1, -1], ids=["0", "1", "2w-1"])
    @pytest.mark.parametrize("fill", [0, 1])
    def test_section_shorter_than_its_count_rejected(self, w, short, fill):
        from cplab.encoding_game import _parse_counted_section

        bits = short % (2 * w)
        section = Section("x", bits, fill * ((1 << bits) - 1))
        with pytest.raises(MessageFormatError, match=f"'x': {bits} bits, no count"):
            _parse_counted_section(section, 14, w)

    @pytest.mark.parametrize("count", [0, 2, 4, (1 << 16) - 1])
    def test_count_that_disagrees_with_the_bit_length_rejected(self, count):
        from cplab.encoding_game import _counted_section, _parse_counted_section

        section = _counted_section("x", [5, 0, 2**14 - 1], 14, 8)
        forged = Section("x", section.bit_length, section.payload >> 16 << 16 | count)
        with pytest.raises(MessageFormatError, match=rf"'x': 42 bits for {count} fields of 14$"):
            _parse_counted_section(forged, 14, 8)

    @pytest.mark.parametrize("value, width", [(8, 3), (1, 0), (-1, 4), (1 << 70, 70)])
    def test_value_that_does_not_fit_rejected(self, value, width):
        from cplab.encoding_game import _counted_section

        with pytest.raises(ValueError):
            _oracle_section([0, value, 0], width, 8)
        with pytest.raises(ValueError, match="does not fit"):
            _counted_section("x", [0, value, 0], width, 8)

    def test_count_that_does_not_fit_rejected(self):
        from cplab.encoding_game import _counted_section

        with pytest.raises(ValueError):
            _oracle_section([1] * 4, 1, 1)
        with pytest.raises(ValueError, match="does not fit"):
            _counted_section("x", [1] * 4, 1, 1)

    @pytest.mark.parametrize(
        "address, contents",
        [(256, 0), (256, 255), (1 << 20, 0), (0, 256), (255, 1 << 20), (-1, 0), (0, -1)],
    )
    def test_cell_that_does_not_fit_rejected(self, address, contents):
        # one 2w-bit field per cell must not let an address bleed into its contents
        from cplab.encoding_game import _cells_section

        with pytest.raises(ValueError, match="does not fit"):
            _cells_section("c", [(0, 0), (address, contents)], 8)


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
            ("artificial", 25, 1, dict(cell_budget=16, probe_threshold=12, max_tries=8), 7803),
            ("orc", 440, 2, dict(probe_threshold=8, max_tries=8), 7219),
        ],
    )
    def test_query_probes_counts_the_pool_replay(self, kind, n, istar, overrides, probes):
        run = run_hard_distribution(kind, n, 5, seed=3)
        asked = []
        query = run.structure.query
        run.structure.query = lambda q: asked.append(q) or query(q)
        resolved = find_resolved_set(run, istar, seed=3, **overrides)
        assert resolved.query_probes == probes
        # each pool candidate is asked once; a second pass over the
        # resolved queries would ask more than sample_size queries
        assert resolved.queries and len(asked) == resolved.sample_size

    @pytest.mark.parametrize("n", [4, 13, 19, 20, 21])
    def test_dominance_pool_on_a_small_grid(self, n):
        # below n = 20 there are fewer than DOMINANCE_QUERY_POOL points, and
        # the pool holds each of them once instead of drawing forever
        from cplab.encoding_game import DOMINANCE_QUERY_POOL

        run = run_hard_distribution("orc", n, 2, seed=1)
        resolved = find_resolved_set(
            run, 1, cell_budget=len(run.cells_of_epoch(1)), probe_threshold=1e9, max_tries=1
        )
        assert resolved.sample_size == len(resolved.queries) == min(DOMINANCE_QUERY_POOL, n * n)
        assert len(set(resolved.queries)) == len(resolved.queries)


class TestCellSamplingLaw:
    """One try of the resolve search against the exact law of cell
    sampling. A uniform c-subset C of the |S| epoch-istar cells holds
    the u cells of a given set with probability
    h(u) = C(|S| - u, c - u) / C(|S|, c). So an eligible query with t
    distinct epoch-istar probes is resolved with probability h(t), and
    two queries together with h of the size of their probes' union; the
    variance of a yield follows from these pairwise joint probabilities
    exactly."""

    def test_mean_yield_matches_the_exact_law(self):
        import numpy as np

        run = run_hard_distribution("artificial", 25, 5, seed=0)
        istar, budget, threshold, tries = 2, 16, 12, 200
        cells = sorted(a for a, _ in run.cells_of_epoch(istar))
        size = len(cells)
        # the pool is the whole family, so one expectation serves every seed
        pool = range(len(run.family.vectors))
        reads = [set(addresses) for _, addresses in replay_queries(run.structure, pool)]
        hits = np.array([[a in r for a in cells] for r in reads], dtype=np.int64)
        eligible = np.flatnonzero(hits.sum(axis=1) <= threshold)
        hits = hits[eligible]
        t = hits.sum(axis=1)
        union = t[:, None] + t[None, :] - hits @ hits.T
        h = np.array([
            math.comb(size - u, budget - u) / math.comb(size, budget) if u <= budget else 0.0
            for u in range(size + 1)
        ])
        joint = h[union]
        # the yield over every eligible query, then, one per cell, over the
        # eligible queries that probe it: a sampler that never puts some
        # cell in C resolves none of the latter
        subsets = np.vstack([np.ones(len(eligible), dtype=np.int64), hits.T])
        expected = subsets @ h[t]
        sd = np.sqrt(np.einsum("si,ij,sj->s", subsets, joint, subsets) - expected**2)

        column = {int(q): i for i, q in enumerate(eligible)}
        observed = np.zeros(len(subsets))
        for seed in range(tries):
            try:
                resolved = find_resolved_set(
                    run, istar, cell_budget=budget, probe_threshold=threshold,
                    max_tries=1, seed=seed,
                )
            except ResolvedSetNotFound:
                continue  # a yield of 0
            observed += subsets[:, [column[q] for q in resolved.queries]].sum(axis=1)
        observed /= tries
        assert expected[0] == pytest.approx(38.3806, abs=1e-4)
        # 5 standard errors for each of the 21 yields: under the law (normal
        # approximation) a false failure has chance below 1.3e-5
        z = (observed - expected) / (sd / math.sqrt(tries))
        assert np.all(np.abs(z) < 5), list(zip(observed, expected, z))

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_orc_single_tries_match_the_exact_law(self, n):
        """At orc sizes each seed draws its own pool of query points, so
        each seed's expectation and variance come from its own eligible
        pool, and they add up over the independent seeds. The yield over
        every eligible query must lie within 5 standard deviations of the
        law. No cell's yield (over the eligible queries that probe it) may
        fall 4 below: a yield cannot go below 0, and a sampler that never
        puts one of the most-probed cells in C resolves none of them."""
        import numpy as np

        run = run_hard_distribution("orc", n, 5, seed=0)
        istar, threshold, seeds = run.run_schedule.count - 1, 8, 60
        cells = sorted(a for a, _ in run.cells_of_epoch(istar))
        size, budget = len(cells), min(default_cell_budget(run, istar), len(cells))
        h = np.array([
            math.comb(size - u, budget - u) / math.comb(size, budget) if u <= budget else 0.0
            for u in range(2 * threshold + 1)
        ])
        column = {a: i for i, a in enumerate(cells, start=1)}  # column 0 counts every query
        expected, variance, observed = np.zeros((3, size + 1))
        for seed in range(seeds):
            # the seed's pool, drawn as find_resolved_set draws it
            qrng, pool = substream(seed, "query-sample"), {}
            while len(pool) < DOMINANCE_QUERY_POOL:
                pool[qrng.randrange(n), qrng.randrange(n)] = None
            replies = replay_queries(run.structure, pool)
            probed = [{column[a] for a in addresses if a in column} for _, addresses in replies]
            eligible = {q: p for q, p in zip(pool, probed) if len(p) <= threshold}
            hits = np.zeros((len(eligible), size + 1))
            hits[:, 0] = 1
            for row, p in enumerate(eligible.values()):
                hits[row, list(p)] = 1
            touched = np.flatnonzero(hits.any(axis=0))
            hits = hits[:, touched]
            # t_i distinct probes per query; hits @ hits.T counts the shared
            # ones plus column 0, which gives each union |T_i u T_j|
            t = hits.sum(axis=1).astype(int) - 1
            union = t[:, None] + t[None, :] + 1 - (hits @ hits.T).astype(int)
            mean = hits.T @ h[t]
            expected[touched] += mean
            # per column, the sum of h(|T_i u T_j|) over its pairs, less mean^2
            variance[touched] += ((h[union] @ hits) * hits).sum(axis=0) - mean**2
            try:
                resolved = find_resolved_set(
                    run, istar, probe_threshold=threshold, max_tries=1, seed=seed
                )
            except ResolvedSetNotFound:
                continue  # a yield of 0
            rows = {q: row for row, q in enumerate(eligible)}
            observed[touched] += hits[[rows[q] for q in resolved.queries]].sum(axis=0)
        sd = np.sqrt(variance)
        in_sd = lambda x: np.divide(x, sd, out=np.zeros(size + 1), where=sd > 0)
        z = in_sd(observed - expected)
        assert expected[0] > 50 * seeds  # the law is not vacuous here
        # some cell's whole yield is more than 4 sd, so leaving it out would show
        assert in_sd(expected)[1:].max() > 4
        assert abs(z[0]) < 5, (observed[0], expected[0], z[0])
        assert z.min() > -4, (observed[z.argmin()], expected[z.argmin()], z.min())


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
        counts, log = epoch_probe_profile(run, sample)
        again, log_again = epoch_probe_profile(run, sample)
        assert counts == again
        assert list(log.rows()) == list(log_again.rows())
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
        len(segment(run.memory.trace, ("upd", epoch.epoch, j)))
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
        assert message.flag == 1
        assert result.u_istar == run.updates.u(1)

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
        rows = [run.family.coords(j)[-k_len:] for j in _decode_query_ids(message, run.w)]
        k = ff_rank(run.delta, rows)
        expected = ceil_bits_for_weights(run.delta, k_len - k)
        assert message.section("completion_products").bit_length == expected

    def test_cells_section_size(self):
        run, message = self._flag0_message()
        section = message.section("resolved_cells")
        count = (section.payload) & ((1 << (2 * run.w)) - 1)
        assert section.bit_length == 2 * run.w + 2 * run.w * count


def _decode_query_ids(message, w):
    from cplab.encoding_game import _parse_counted_section, _query_id_bits

    section = message.section("resolved_queries")
    return _parse_counted_section(section, _query_id_bits(message.n), w)


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
            len(_decode_query_ids(message, run.w)), run.run_schedule.suffix_length(istar)
        )


def test_decode_from_the_products_alone():
    """Queries whose rows vanish on the suffix resolve trivially and keep no
    row (k = 0): the message then carries every suffix weight, and the
    decoder recovers them with no replay and no solve."""
    run = run_hard_distribution("artificial", 25, 5, seed=0)
    k_len = run.run_schedule.suffix_length(1)
    zero_ids = tuple(
        j for j in range(len(run.family.vectors)) if not any(run.family.coords(j)[-k_len:])
    )
    assert zero_ids
    resolved = ResolvedSet(
        cell_addresses=(), queries=zero_ids,
        sample_size=len(zero_ids), tries_used=1, query_probes=0,
    )
    message = EncodingMessage.from_bytes(encode_epoch(run, 1, resolved).to_bytes())
    assert message.flag == 0 and _decode_query_ids(message, run.w) == list(zero_ids)
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


class TestWholeGames:
    """Whole games across the configuration space, not only at pinned
    sizes: run, resolve (no resolved set falls back to flag 1), encode,
    bytes, parse and a verified decode must recover the epoch exactly.
    This is what checks the counted-field codec over many cell widths w
    and query-id widths."""

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_every_game_recovers_exactly(self, data):
        kind = data.draw(st.sampled_from(["artificial", "orc"]), label="kind")
        n = data.draw(st.integers(4, 60 if kind == "artificial" else 700), label="n")
        beta = data.draw(st.integers(2, n // 2) | st.floats(2, n / 2), label="beta")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        run = run_hard_distribution(kind, n, beta, seed=seed)
        istar = data.draw(st.integers(1, run.run_schedule.count), label="istar")
        try:
            resolved = find_resolved_set(run, istar, seed=seed)
        except ResolvedSetNotFound:
            resolved = None
        if resolved is not None:
            # every resolved query probes epoch istar only inside C
            tags, chosen = run.memory.tags, set(resolved.cell_addresses)
            for _, addresses in replay_queries(run.structure, resolved.queries):
                assert {a for a in addresses if tags.get(a) == istar} <= chosen
        message = encode_epoch(run, istar, resolved)
        assert message.flag == (resolved is None)
        event(f"{kind}, flag {message.flag}")
        result = decode_epoch(
            EncodingMessage.from_bytes(message.to_bytes()),
            run.updates.prefix_above(istar),
            run.structure_factory,
            verify_run=run,
        )
        assert result.u_istar == run.updates.u(istar)


class TestIntegrityChecks:
    def test_replay_outside_c_detected(self):
        run = run_hard_distribution("artificial", 25, 5, seed=3)
        # a hand-made resolved set whose (empty) C cannot cover a query
        # that reads at least one cell written in epoch 2
        epoch2_positions = range(run.run_schedule.size_of(2))
        victim = next(
            j
            for j in range(len(run.family.vectors))
            if any(run.family.coords(j)[p] for p in epoch2_positions)
        )
        bogus = ResolvedSet(
            cell_addresses=(),
            queries=(victim,),
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
        vectors = [run.family.coords(j) for j in range(len(run.family.vectors))]
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
                cell_addresses=tuple(sorted(c_cells)),
                queries=queries,
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

    # psi_13, the first value the primality test will not answer
    _PSI_13 = 3317044064679887385961981

    @pytest.mark.parametrize("n", [math.isqrt(math.isqrt(_PSI_13)) + 1, 2**22])
    def test_n_past_the_exact_prime_range_rejected(self, n):
        # the decoder works Delta out from n; past psi_13 the primality test cannot certify it
        assert n**4 >= self._PSI_13 > math.isqrt(math.isqrt(self._PSI_13)) ** 4
        run = run_hard_distribution("artificial", 25, 5, seed=1)
        forged = dataclasses.replace(encode_epoch(run, 1, None), n=n)
        parsed = EncodingMessage.from_bytes(forged.to_bytes())
        assert parsed.n == n
        with pytest.raises(MessageFormatError, match=rf"n={n} is too large"):
            decode_epoch(parsed, run.updates.prefix_above(1), run.structure_factory)

    @pytest.mark.parametrize("flag", [0, 1])
    @pytest.mark.parametrize("game", [0, 1], ids=["artificial", "orc"])
    @pytest.mark.parametrize(
        "forged, error",
        [
            (dict(istar=0), "epoch 0 outside"),
            (dict(istar=99), "epoch 99 outside"),
            (dict(beta=1.0), "beta=1.0 outside"),
            (dict(n=3), "outside"),
        ],
        ids=["istar-0", "istar-99", "beta-1", "n-3"],
    )
    def test_header_no_run_has_is_a_message_format_error(self, game, flag, forged, error):
        run, istar, data = _game_bytes(game, flag)
        message = dataclasses.replace(EncodingMessage.from_bytes(data), **forged)
        with pytest.raises(MessageFormatError, match=f"message header: .*{error}"):
            decode_epoch(message, run.updates.prefix_above(istar), run.structure_factory)


def _with_query_ids(message, qids, w):
    """The message with its resolved_queries section rewritten to `qids`."""
    from cplab.encoding_game import _counted_section, _query_id_bits

    section = _counted_section("resolved_queries", qids, _query_id_bits(message.n), w)
    sections = tuple(
        section if s.label == "resolved_queries" else s for s in message.sections
    )
    forged = dataclasses.replace(message, sections=sections)
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
        qids = _decode_query_ids(message, run.w)
        assert max(qids) < n * n < 1 << (n * n - 1).bit_length()
        qids = [n * n] + qids if position == "first" else qids + [n * n]
        with pytest.raises(MessageFormatError, match=rf"query id {n * n} outside"):
            decode_epoch(
                _with_query_ids(message, qids, run.w),
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
        with pytest.raises(MessageFormatError, match="query id 3 outside"):
            decode_epoch(
                _with_query_ids(message, [0, 1, 2, 3], run.w),
                run.updates.prefix_above(2),
                run.structure_factory,
            )


class TestSectionFormats:
    """There are two section formats, radix-Delta weights and counted
    fixed-width fields (the cells of C and of the smaller epochs, one
    2w-bit field per cell, and the query ids). Each has one writer and
    one reader, which the encoder and the decoder share; every writer's
    output reads back."""

    @given(st.integers(2, 60), st.sampled_from([8, 16, 24]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_query_ids_round_trip(self, n, w, data):
        from cplab.encoding_game import _counted_section, _parse_counted_section, _query_id_bits

        ids = st.sampled_from([0, n * n - 1]) | st.integers(0, n * n - 1)
        qids = data.draw(st.lists(ids, max_size=30))
        section = _counted_section("q", qids, _query_id_bits(n), w)
        assert section.bit_length == 2 * w + len(qids) * (n * n - 1).bit_length()
        assert _parse_counted_section(section, _query_id_bits(n), w) == qids

    @given(st.sampled_from([8, 16, 24]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cells_round_trip(self, w, data):
        from cplab.encoding_game import _cells_section, _parse_cells_section

        field = st.sampled_from([0, (1 << w) - 1]) | st.integers(0, (1 << w) - 1)
        cells = data.draw(st.dictionaries(field, field, max_size=30))
        section = _cells_section("c", sorted(cells.items()), w)
        assert section.bit_length == 2 * w * (1 + len(cells))
        # bit for bit the former layout: the count, then each address and its contents
        oracle = _ShiftFieldWriter()
        oracle.put(len(cells), 2 * w)
        for address, contents in sorted(cells.items()):
            oracle.put(address, w)
            oracle.put(contents, w)
        assert (section.bit_length, section.payload) == (oracle.bits, oracle.value)
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
                with pytest.raises(MessageFormatError, match="'u': .* bits for"):
                    _parse_weights_section(section, delta, count)
        if weights:
            # every payload bit set reads past delta^count: Delta is odd
            full = Section("u", section.bit_length, (1 << section.bit_length) - 1)
            with pytest.raises(MessageFormatError, match="'u': .* trailing data"):
                _parse_weights_section(full, delta, len(weights))


_FLAG0_GAMES = [
    ("artificial", 25, 2, dict(cell_budget=16, probe_threshold=12, max_tries=8)),
    ("orc", 440, 2, dict(probe_threshold=8, max_tries=8)),
]


@functools.lru_cache(maxsize=None)
def _game_bytes(game, flag):
    """The run of `_FLAG0_GAMES[game]` at seed 0, its istar, and the bytes
    of its flag-0 message, or of its flag-1 message (no resolved set)."""
    kind, n, istar, overrides = _FLAG0_GAMES[game]
    run = run_hard_distribution(kind, n, 5, seed=0)
    resolved = find_resolved_set(run, istar, seed=0, **overrides) if flag == 0 else None
    message = encode_epoch(run, istar, resolved)
    assert message.flag == flag
    return run, istar, message.to_bytes()


def _decoded(run, istar, data):
    """The weights the decoder recovers from the bytes `data`."""
    message = EncodingMessage.from_bytes(data)
    return decode_epoch(message, run.updates.prefix_above(istar), run.structure_factory).u_istar


class TestCorruptedBuffers:
    """A corrupted buffer decodes exactly or raises MessageFormatError; it
    never decodes to wrong weights."""

    @pytest.mark.parametrize("flag", [0, 1])
    def test_every_truncation_raises(self, flag):
        run, istar, data = _game_bytes(0, flag)
        assert _decoded(run, istar, data) == run.updates.u(istar)
        for end in range(len(data)):
            with pytest.raises(MessageFormatError):
                _decoded(run, istar, data[:end])

    @pytest.mark.parametrize("flag", [0, 1])
    def test_every_single_bit_flip_fails_the_checksum(self, flag):
        run, istar, data = _game_bytes(0, flag)
        for bit in range(8 * len(data)):
            forged = bytearray(data)
            forged[bit // 8] ^= 1 << bit % 8
            with pytest.raises(MessageFormatError, match="checksum"):
                _decoded(run, istar, bytes(forged))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_orc_overwrite_or_flip_never_decodes_wrong(self, data):
        run, istar, buffer = _game_bytes(1, 0)
        forged = bytearray(buffer)
        position = data.draw(st.integers(0, len(buffer) - 1))
        if data.draw(st.booleans()):
            forged[position] = data.draw(st.integers(0, 255))
        else:
            forged[position] ^= 1 << data.draw(st.integers(0, 7))
        try:
            weights = _decoded(run, istar, bytes(forged))
        except MessageFormatError:
            return
        assert weights == run.updates.u(istar)


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
        with pytest.raises(MessageFormatError, match=rf"'{label}': .* bits for .* fields"):
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
        with pytest.raises(MessageFormatError, match="unknown kind 'orb'"):
            decode_epoch(
                forged, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
            )

    @pytest.mark.parametrize(
        "kind, n, istar, overrides, error",
        [
            (*_FLAG0_GAMES[0], "'orc' message does not fit a NaiveArtificialStructure"),
            # read at the width of an index-weight run, the cells section
            # no longer parses, before the structure is built
            (*_FLAG0_GAMES[1], "'resolved_cells': 18448 bits for 192 fields of 80$"),
        ],
        ids=["artificial-25-2-overrides0", "orc-440-2-overrides1"],
    )
    def test_kind_of_the_other_game_rejected(self, kind, n, istar, overrides, error):
        run = run_hard_distribution(kind, n, 5, seed=0)
        message = encode_epoch(run, istar, find_resolved_set(run, istar, seed=0, **overrides))
        assert message.flag == 0
        other = "orc" if kind == "artificial" else "artificial"
        forged = EncodingMessage.from_bytes(dataclasses.replace(message, kind=other).to_bytes())
        with pytest.raises(ValueError, match=error):
            decode_epoch(
                forged, run.updates.prefix_above(istar), run.structure_factory, verify_run=run
            )

    def test_weights_of_the_wrong_count_rejected(self):
        # as an index-weight message, the snapped 21-weight epoch would be
        # read as its unsnapped 25 weights
        run = run_hard_distribution("orc", 440, 5, seed=0)
        message = encode_epoch(run, 2, None)
        assert run.run_schedule.size_of(2) == 21 and epoch_schedule(440, 5).size_of(2) == 25
        forged = dataclasses.replace(message, kind="artificial")
        with pytest.raises(MessageFormatError, match="'raw_weights': .* bits for 25 weights"):
            decode_epoch(forged, run.updates.prefix_above(2), run.structure_factory)


class TestPrefixShape:
    """The decoder re-executes exactly the epochs before istar. A prefix
    that leaves out its first or last epoch, is empty, runs backwards,
    lacks an update or reaches istar is refused; without the check these
    decoded to wrong weights (orc) or raised a bare KeyError (artificial)."""

    @pytest.mark.parametrize(
        "kind, n, beta, overrides",
        [
            ("orc", 440, 5, dict(probe_threshold=8, max_tries=8)),
            ("artificial", 25, 2, dict(probe_threshold=1e9, max_tries=1)),
        ],
    )
    def test_prefix_of_another_shape_rejected(self, kind, n, beta, overrides):
        from cplab.chronogram import UpdateSequence

        run = run_hard_distribution(kind, n, beta, seed=0)
        message = encode_epoch(run, 1, find_resolved_set(run, 1, seed=0, **overrides))
        assert message.flag == 0
        epochs = run.updates.prefix_above(1).epochs
        assert len(epochs) >= 2
        top = epochs[0]
        cut = dataclasses.replace(top, targets=top.targets[:-1], weights=top.weights[:-1])
        shapes = {
            "no first": epochs[1:],
            "no last": epochs[:-1],
            "empty": (),
            "backwards": epochs[::-1],
            "top cut": (cut, *epochs[1:]),
            "with istar": run.updates.epochs,
        }
        for shape, prefix in shapes.items():
            with pytest.raises(ValueError, match="prefix updates are not the") as err:
                decode_epoch(message, UpdateSequence(epochs=prefix), run.structure_factory)
            assert type(err.value) is ValueError, shape
        result = decode_epoch(
            message, run.updates.prefix_above(1), run.structure_factory, verify_run=run
        )
        assert result.u_istar == run.updates.u(1)


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
        schedule = EpochSchedule(n=10, sizes=(5, 3, 2))
        account = entropy_account(schedule, 3, PrimeModulus(9973), message)
        assert account.h_bits == pytest.approx(5 * math.log2(9973))
