import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe_log import segment

from cplab.cell_probe_sim import (
    MemoryConfig,
    SimulatedMemory,
    ceil_lg,
    probe_counts_by_epoch,
)


class ReferenceMemory(SimulatedMemory):
    """The simulated memory plus a per-cell `read` that logs a read probe,
    as the read half of an update does: the reference that `add_many` is
    compared with, and a way to put read rows in a log."""

    def read(self, address: int) -> int:
        if not 0 <= address < self._limit:
            raise ValueError(f"address {address} does not fit in {self.config.w} bits")
        trace = self.trace
        trace.addresses.append(address)
        trace.kinds.append(0)
        trace.tags.append(self.tags.get(address, -1))
        self.probes += 1
        return self.values.get(address, 0)


def make_memory(w=16):
    return ReferenceMemory(MemoryConfig(w=w))


def replay_read(mem, addresses):
    """Read as a replayed query does: the contents, and what the memory
    recorded of the reads."""
    mem.replay_reads = []
    try:
        return mem.read_many(addresses), mem.replay_reads
    finally:
        mem.replay_reads = None


class TestConfig:
    def test_width_floor_enforced(self):
        with pytest.raises(ValueError):
            MemoryConfig(w=0)

    def test_ceil_lg(self):
        assert ceil_lg(1) == 0
        assert ceil_lg(2) == 1
        assert ceil_lg(440) == 9


class TestEpochTagging:
    def test_last_writer_rule(self):
        mem = make_memory()
        mem.begin_epoch(3)
        mem.write(0, 1)
        mem.begin_epoch(1)
        mem.write(0, 2)
        assert mem.tags[0] == 1

    def test_tag_survives_without_rewrite(self):
        mem = make_memory()
        mem.begin_epoch(3)
        mem.write(0, 1)
        mem.begin_epoch(1)
        assert mem.tags[0] == 3

    def test_nonmonotonic_epoch_rejected(self):
        mem = make_memory()
        mem.begin_epoch(1)
        with pytest.raises(ValueError):
            mem.begin_epoch(2)

    def test_writes_outside_epochs_tagged_zero(self):
        mem = make_memory()
        mem.write(5, 1)
        assert mem.tags[5] == 0


class TestProbes:
    def test_unwritten_reads_zero(self):
        mem = make_memory()
        assert replay_read(mem, [123]) == ([0], [(123,)])

    def test_write_then_read(self):
        mem = make_memory()
        mem.write(7, 5)
        assert replay_read(mem, [7]) == ([5], [(7,)])

    def test_each_probe_appends_one_entry(self):
        mem = make_memory()
        mem.read(1)
        assert len(mem.trace) == 1
        mem.write(1, 9)
        assert len(mem.trace) == 2
        assert [kind for _, kind, _, _ in mem.trace.rows()] == ["read", "write"]

    def test_value_overflow(self):
        mem = make_memory(w=8)
        with pytest.raises(OverflowError):
            mem.write(0, 256)

    def test_address_out_of_range(self):
        mem = make_memory(w=8)
        with pytest.raises(ValueError):
            replay_read(mem, [256])
        with pytest.raises(ValueError):
            mem.write(-1, 0)
        with pytest.raises(ValueError):
            mem.write(256, 0)

    def test_address_beyond_log_range_changes_nothing(self):
        # the log stores addresses as signed 64-bit integers
        mem = make_memory(w=72)
        with pytest.raises(OverflowError):
            mem.write(1 << 63, 1)
        with pytest.raises(OverflowError):
            replay_read(mem, [1 << 63])
        assert len(mem.trace) == 0 and mem.values == mem.tags == {}


class TestEpochSets:
    def test_empty_epoch(self):
        mem = make_memory()
        mem.begin_epoch(2)
        assert mem.cells_of_epoch(2) == set()

    def test_single_write(self):
        mem = make_memory()
        mem.begin_epoch(2)
        mem.write(4, 9)
        assert mem.cells_of_epoch(2) == {(4, 9)}

    def test_partition_property(self):
        mem = make_memory()
        mem.begin_epoch(3)
        mem.write(0, 1)
        mem.write(1, 1)
        mem.begin_epoch(2)
        mem.write(1, 2)
        mem.begin_epoch(1)
        mem.write(2, 3)
        union = set()
        for epoch in (1, 2, 3):
            addrs = {a for a, _ in mem.cells_of_epoch(epoch)}
            assert union.isdisjoint(addrs)
            union |= addrs
        assert union == mem.written_addresses()


class TestProbeCounts:
    def test_empty_segment(self):
        mem = make_memory()
        assert probe_counts_by_epoch([], mem) == {}

    def test_three_distinct_cells(self):
        mem = make_memory()
        mem.begin_epoch(2)
        for a in (0, 1, 2):
            mem.write(a, 1)
        mem.begin_operation("q")
        for a in (0, 1, 2):
            mem.read(a)
        assert probe_counts_by_epoch(segment(mem.trace, "q"), mem) == {2: 3}

    def test_repeat_probe_counts_once(self):
        mem = make_memory()
        mem.begin_epoch(2)
        mem.write(0, 1)
        mem.begin_operation("q")
        mem.read(0)
        mem.read(0)
        assert probe_counts_by_epoch(segment(mem.trace, "q"), mem) == {2: 1}

    def test_unwritten_cells_belong_to_no_epoch(self):
        mem = make_memory()
        mem.begin_operation("q")
        mem.read(9)
        assert probe_counts_by_epoch(segment(mem.trace, "q"), mem) == {}


class TestTrace:
    def test_segments_isolated(self):
        mem = make_memory()
        mem.begin_operation("a")
        mem.read(0)
        mem.begin_operation("b")
        mem.read(1)
        mem.read(2)
        assert segment(mem.trace, "a") == [0]
        assert segment(mem.trace, "b") == [1, 2]

    def test_rows_name_op_kind_address_and_tag(self):
        mem = make_memory()
        mem.begin_epoch(2)
        mem.begin_operation("u")
        mem.write(3, 7)
        mem.begin_operation("q")
        mem.read(3)
        mem.read(4)
        assert list(mem.trace.rows()) == [
            ("u", "write", 3, 2),
            ("q", "read", 3, 2),
            ("q", "read", 4, ""),  # unwritten cell has no tag
        ]

    def test_reused_op_id_rejected(self):
        mem = make_memory()
        mem.begin_operation("a")
        mem.read(0)
        mem.begin_operation("b")
        with pytest.raises(ValueError):
            mem.begin_operation("a")
        assert segment(mem.trace, "a") == [0]


@given(
    st.lists(
        st.tuples(st.sampled_from(["r", "w"]), st.integers(0, 15), st.integers(0, 255)),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_replay_determinism(ops):
    def run():
        mem = make_memory(w=8)
        mem.begin_epoch(2)
        for kind, addr, value in ops:
            if kind == "w":
                mem.write(addr, value)
            else:
                mem.read(addr)
        return mem

    a, b = run(), run()
    assert (a.values, a.tags) == (b.values, b.tags)
    assert (a.trace.kinds, a.trace.addresses, a.trace.tags) == (
        b.trace.kinds, b.trace.addresses, b.trace.tags
    )


_log_actions = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.integers(0, 5)),
        st.tuples(st.just("epoch")),
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 15), st.integers(0, 255)),
    ),
    max_size=60,
)


@given(_log_actions)
@settings(max_examples=100, deadline=None)
def test_columns_match_list_model(actions):
    """The columnar log against a plain list of (op, kind, address, tag)."""
    mem = make_memory(w=8)
    model: list[tuple] = []
    cells: dict[int, int] = {}  # address -> tag
    op, ops, epoch = None, [], None
    for action in actions:
        if action[0] == "begin":
            if action[1] in ops:
                with pytest.raises(ValueError):
                    mem.begin_operation(action[1])
            else:
                mem.begin_operation(action[1])
                op = action[1]
                ops.append(op)
        elif action[0] == "epoch":
            epoch = 9 if epoch is None else max(1, epoch - 1)
            if epoch != mem.current_epoch:
                mem.begin_epoch(epoch)
        elif action[0] == "read":
            mem.read(action[1])
            model.append((op, "read", action[1], cells.get(action[1], "")))
        else:
            mem.write(action[1], action[2])
            cells[action[1]] = epoch or 0
            model.append((op, "write", action[1], cells[action[1]]))

    trace = mem.trace
    assert len(trace) == len(model)
    assert list(trace.rows()) == model
    for o in [None] + ops:  # every op is closed except the last one begun
        assert segment(trace, o) == [a for m_op, _, a, _ in model if m_op == o]
    assert list(trace.tags) == [-1 if t == "" else t for _, _, _, t in model]


_batch_actions = st.lists(
    st.one_of(
        st.tuples(st.just("epoch")),
        st.tuples(st.just("write"), st.integers(0, 15), st.integers(0, 255)),
        st.tuples(st.just("batch"), st.lists(st.integers(0, 15), max_size=10)),
    ),
    max_size=30,
)


@given(_batch_actions)
@settings(max_examples=100, deadline=None)
def test_read_many_matches_reads(actions):
    """A replayed batch read returns the contents that the same addresses
    read one at a time return, records them as one tuple in probe order,
    and leaves the cells, the probe count and the log as they were."""
    one, many = make_memory(w=8), make_memory(w=8)
    epoch = 9
    for action in actions:
        if action[0] == "epoch":
            if epoch > 1:
                epoch -= 1
                for mem in (one, many):
                    mem.begin_epoch(epoch)
        elif action[0] == "write":
            for mem in (one, many):
                mem.write(action[1], action[2])
        else:
            before = _memory_state(many)
            got, recorded = replay_read(many, action[1])
            assert got == [one.read(a) for a in action[1]]
            assert recorded == [tuple(action[1])]
            assert _memory_state(many) == before
    assert (one.values, one.tags) == (many.values, many.tags)


@pytest.mark.parametrize(
    "w, bad, error",
    [(8, -1, ValueError), (8, 256, ValueError), (64, 2**63, OverflowError)],
)
@pytest.mark.parametrize("position", [0, 2, 4])
def test_read_many_bad_address_changes_nothing(w, bad, error, position):
    mem = make_memory(w=w)
    mem.begin_epoch(2)
    mem.write(3, 7)
    with pytest.raises(error):
        mem.write(bad, 0)  # the type a batch read must raise too
    before = _memory_state(mem)
    batch = [3, 1, 3, 0]
    batch.insert(position, bad)
    mem.replay_reads = [(3,)]
    with pytest.raises(error):
        mem.read_many(batch)
    assert mem.replay_reads == [(3,)]
    assert _memory_state(mem) == before


@pytest.mark.parametrize(
    "call",
    [lambda m: m.write(-1, 0), lambda m: m.add_many([1 << 70], 1), lambda m: m.add_many([], 1)],
    ids=["write", "add", "empty-add"],
)
def test_write_in_a_replay_raises_before_any_check(call):
    mem = make_memory(w=8)
    mem.write(3, 7)
    before = _memory_state(mem)
    mem.replay_reads = []
    with pytest.raises(AssertionError, match="a replayed query wrote cell"):
        call(mem)
    assert mem.replay_reads == []
    assert _memory_state(mem) == before


@given(st.sampled_from([8, 64]), st.data())
@settings(max_examples=150, deadline=None)
def test_add_many_matches_reads_and_writes(w, data):
    """A batched add leaves the same cells and log as reading each cell,
    adding and writing it back, one cell at a time; an add that would
    take any cell past 2^w - 1 or below 0 raises and changes nothing."""
    one, many = make_memory(w=w), make_memory(w=w)
    limit = 1 << w
    epoch, ops = 9, []
    actions = data.draw(st.lists(st.sampled_from(["epoch", "write", "add"]), max_size=20))
    for action in actions:
        if action == "epoch":
            if epoch > 1:
                epoch -= 1
                for mem in (one, many):
                    mem.begin_epoch(epoch)
        elif action == "write":
            address = data.draw(st.integers(0, 7))
            value = data.draw(st.integers(0, limit - 1))
            for mem in (one, many):
                mem.write(address, value)
        else:
            addresses = data.draw(st.lists(st.integers(0, 7), unique=True, max_size=6))
            floor = min((one.values.get(a, 0) for a in addresses), default=0)
            addend = data.draw(
                st.one_of(
                    st.integers(0, 999),
                    st.integers(0, limit - 1),
                    st.integers(-floor, 0),  # fits every cell
                    st.integers(-999, -1),
                    st.integers(-(limit - 1), -1),
                )
            )
            ops.append(len(ops))
            for mem in (one, many):
                mem.begin_operation(ops[-1])
            if any(not 0 <= one.values.get(a, 0) + addend < limit for a in addresses):
                with pytest.raises(OverflowError):
                    many.add_many(addresses, addend)
                continue
            many.add_many(addresses, addend)
            for address in addresses:
                one.write(address, one.read(address) + addend)
    a, b = one.trace, many.trace
    assert (a.addresses, a.kinds, a.tags) == (b.addresses, b.kinds, b.tags)
    for op in [None] + ops:
        assert segment(a, op) == segment(b, op)
    assert list(a.rows()) == list(b.rows())
    assert (one.values, one.tags) == (many.values, many.tags)


@pytest.mark.parametrize(
    "addresses, addend, error",
    [
        ([0, -2], 1, ValueError),
        ([0, 256], 1, ValueError),
        ([0, 2**63], 1, OverflowError),
        ([4, 0, 4], 1, ValueError),
        ([2, 3, 2], 1, ValueError),  # cell 2 holds 1, so adding twice would fit
        ([0, 2], 256, OverflowError),
        ([0, 2], 255, OverflowError),
        ([2, 0], -1, OverflowError),
    ],
    ids=[
        "negative-address",
        "address-beyond-w-bits",
        "address-beyond-int64",
        "repeated-cell",
        "repeated-written-cell",
        "addend-overflows",
        "only-second-value-overflows",
        "only-second-value-below-zero",
    ],
)
def test_add_many_bad_input_changes_nothing(addresses, addend, error):
    mem = make_memory(w=8)
    mem.begin_epoch(2)
    mem.write(2, 1)
    mem.begin_epoch(1)
    mem.begin_operation("u")
    mem.read(3)
    trace = mem.trace
    before = (
        len(trace), trace.addresses[:], trace.kinds[:], trace.tags[:],
        dict(mem.values), dict(mem.tags),
    )
    with pytest.raises(error):
        mem.add_many(addresses, addend)
    assert (len(trace), trace.addresses, trace.kinds, trace.tags, mem.values, mem.tags) == before


def _memory_state(mem):
    trace = mem.trace
    log = None if trace is None else (bytes(trace.addresses), bytes(trace.kinds), bytes(trace.tags))
    return dict(mem.values), dict(mem.tags), mem.probes, log


@given(st.sampled_from([8, 64]), st.data())
@settings(max_examples=150, deadline=None)
def test_log_free_memory_matches_logged(w, data):
    """A memory with no log ends with the same cells and probe count as
    one that logs, over any mix of writes, replayed batch reads and batch
    adds, bad ones included; a logged memory counts one probe per log
    entry, a read counts none, and a rejected call changes neither
    memory."""
    limit = 1 << w
    address = st.sampled_from([*range(8), -1, limit, 2**63])
    value = st.one_of(st.integers(0, 300), st.sampled_from([-1, limit - 1, limit]))
    logged, bare = SimulatedMemory(MemoryConfig(w=w)), SimulatedMemory(MemoryConfig(w=w))
    bare.trace = None
    epoch = 9
    actions = data.draw(st.lists(st.sampled_from(["epoch", "op", "write", "read", "add"])))
    for index, action in enumerate(actions):
        if action == "epoch":
            if epoch > 1:
                epoch -= 1
                for mem in (logged, bare):
                    mem.begin_epoch(epoch)
            continue
        if action == "op":
            for mem in (logged, bare):
                mem.begin_operation(index)
            continue
        if action == "write":
            args = (data.draw(address), data.draw(value))
        elif action == "read":
            args = (data.draw(st.lists(address, max_size=6)),)
        else:
            args = (data.draw(st.lists(address, max_size=6)), data.draw(value))
        outcomes = []
        for mem in (logged, bare):
            before = _memory_state(mem)
            read = lambda addresses: replay_read(mem, addresses)
            call = {"write": mem.write, "read": read, "add": mem.add_many}[action]
            try:
                outcomes.append(call(*args))
            except (ValueError, OverflowError) as exc:
                outcomes.append(type(exc))
                assert _memory_state(mem) == before
            if action == "read":
                assert _memory_state(mem) == before
        assert outcomes[0] == outcomes[1]
    assert _memory_state(logged)[:3] == _memory_state(bare)[:3]
    assert logged.probes == len(logged.trace)
