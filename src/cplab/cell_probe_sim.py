"""Simulated memory of addressable w-bit cells, with a probe count and
a probe log.

An update's probes are counted and logged: each read or write of a cell
adds one to the memory's probe count and lands in its trace, unless the
memory is count-only (the decoder's re-execution of the preceding epochs
only counts). The trace keeps one address per cell a call touched, in
batches; its per-probe columns, and each read's probe-time epoch tag,
are derived from the batches when they are read. A query reads only
while `chronogram.replay_queries` replays it, which records its reads
apart; it may not write. Each written cell of a logged memory carries
the id of the last epoch that wrote it, which is what per-epoch probe
accounting is built on. Cells never written read as zero: a decoder
re-executing a prefix of the updates must see exactly the same blanks
the original execution saw.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Iterator, NoReturn, Sequence


def ceil_lg(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_lg needs a positive argument")
    return (n - 1).bit_length()


@dataclass(frozen=True)
class MemoryConfig:
    w: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("cell width must be positive")


_KINDS = ("read", "write")
# a batch's kind: reads with given tags, writes, read-then-write adds, or a load
_READS, _WRITES, _ADDS, _LOAD = range(4)
_INT64_LIMIT = 1 << 63  # the log keeps addresses as signed 64-bit integers
_EPOCH_LIMIT = 1 << 15  # and epoch tags as signed 16-bit integers


class ProbeTrace:
    """Append-only probe log kept as batches, segmented by operation id.

    Each logging call appends one batch: the addresses of the cells it
    touched, once each, and the batch's end offset, kind and epoch tag.
    A batch of reads (`log_reads`) holds one read probe per cell and the
    tags it was given; a write batch one write probe per cell; an add
    batch one read and then one write per cell; a load batch no probe.

    The per-probe columns are derived from the batches in one pass each
    time they are read: probe k has `addresses[k]`, `kinds[k]` (0 read,
    1 write) and `tags[k]`, the epoch tag on the cell at probe time. A
    write carries its batch's tag. An add's read carries the tag of the
    cell's last write or load in an earlier batch of this log, or -1 if
    there is none, which is the cell's tag at probe time when every
    change to the memory's tags is logged here. Addresses are stored as
    signed 64-bit integers, tags as signed 16-bit ones (epoch ids lie
    below 2^15). An operation owns the probes from its `begin` to the
    next `begin`; probes before the first `begin` belong to op None. Op
    ids are unique within one log.
    """

    def __init__(self) -> None:
        self._cells = array("q")  # the touched cells, batch after batch
        self._ends = array("q")  # each batch's end offset in _cells
        self._batch_kinds = bytearray()
        self._batch_tags = array("h")
        self._read_tags = array("h")  # the given tags of the read batches' cells
        self._probes = 0
        self._op_index: dict[Hashable, int] = {None: 0}  # op id -> position, in begin order
        self._op_starts: list[int] = [0]  # probe counts at each begin

    def begin(self, op_id: Hashable) -> None:
        if op_id in self._op_index:
            raise ValueError(f"op id {op_id!r} already used in this log")
        self._op_index[op_id] = len(self._op_starts)
        self._op_starts.append(self._probes)

    def _append(self, addresses: Iterable[int], kind: int, tag: int, per_cell: int) -> None:
        """Append one batch. The addresses are converted, and the tag
        appended, before anything else changes: an address past 64 bits
        or a tag past 16 raises and leaves the log as it was."""
        cells = array("q", addresses)
        if not cells:
            return
        self._batch_tags.append(tag)
        self._cells.extend(cells)
        self._ends.append(len(self._cells))
        self._batch_kinds.append(kind)
        self._probes += per_cell * len(cells)

    def log_reads(self, addresses: Sequence[int], tags: dict[int, int]) -> None:
        """Append one read per address, tagged from `tags` (-1 if absent)."""
        read_tags = array("h", list(map(tags.get, addresses, repeat(-1))))
        self._append(addresses, _READS, 0, 1)
        self._read_tags.extend(read_tags)

    def log_write(self, address: int, tag: int) -> None:
        self._append((address,), _WRITES, tag, 1)

    def log_adds(self, addresses: Sequence[int], tag: int) -> None:
        """Append one read and then one write per cell; the cells are distinct."""
        self._append(addresses, _ADDS, tag, 2)

    def log_load(self, addresses: Iterable[int], tag: int) -> None:
        """Record cells set without probing: later reads carry their tag."""
        self._append(addresses, _LOAD, tag, 0)

    def __len__(self) -> int:
        return self._probes

    def _columns(self) -> tuple[array, bytearray, array]:
        """(addresses, kinds, tags), one entry per probe, in one pass."""
        addresses, kinds, tags = array("q"), bytearray(), array("h")
        last: dict[int, int] = {}  # address -> tag of its last write or load so far
        cells, read_tags = self._cells, self._read_tags
        start = read_start = 0
        for end, kind, tag in zip(self._ends, self._batch_kinds, self._batch_tags):
            batch = cells[start:end]
            size = end - start
            if kind == _READS:
                addresses.extend(batch)
                kinds.extend(bytes(size))
                tags.extend(read_tags[read_start : read_start + size])
                read_start += size
            elif kind == _WRITES:
                addresses.extend(batch)
                kinds.extend(b"\1" * size)
                tags.extend(array("h", [tag]) * size)
            elif kind == _ADDS:
                logged = batch * 2  # per cell: read, then written
                logged[::2] = logged[1::2] = batch
                addresses.extend(logged)
                kinds.extend(b"\0\1" * size)
                probe_tags = array("h", [tag]) * (2 * size)
                probe_tags[::2] = array("h", list(map(last.get, batch, repeat(-1))))
                tags.extend(probe_tags)
            if kind != _READS:
                last.update(zip(batch, repeat(tag)))
            start = end
        return addresses, kinds, tags

    @property
    def addresses(self) -> array:
        return self._columns()[0]

    @property
    def kinds(self) -> bytearray:
        return self._columns()[1]

    @property
    def tags(self) -> array:
        return self._columns()[2]

    def rows(self) -> Iterator[tuple[Hashable, str, int, int | str]]:
        """(op_id, kind, address, tag) per probe; an unwritten cell's tag is ""."""
        addresses, kinds, tags = self._columns()
        ends = self._op_starts[1:] + [self._probes]
        for op_id, start, end in zip(self._op_index, self._op_starts, ends):
            for k in range(start, end):
                tag = tags[k]
                yield op_id, _KINDS[kinds[k]], addresses[k], "" if tag < 0 else tag


class SimulatedMemory:
    """w-bit cells addressed by integers below 2^w.

    A cell's contents and its epoch tag live in two stores keyed by
    address, `values` and `tags`, which in a logged memory always hold
    the same addresses. Read them freely; change them only through
    `write`, `add_many` and `load`. `probes` counts the update probes
    made so far. `trace` is the probe log; each of those three calls
    appends one batch to it. A memory built with `log=False` is
    count-only, for a re-execution whose probes and tags no one reads:
    it keeps `values` and `probes`, its `trace` and `tags` are None, and the tag readers
    (`tag_store`, `written_addresses`, `cells_of_epoch`,
    `epoch_partition`, `probe_counts_by_epoch`,
    `chronogram.epoch_probe_profile`) raise ValueError on it.

    `replay_reads` is None except while `chronogram.replay_queries` asks
    a query: then it is a list, and `read_many` appends a tuple of its
    addresses to it. `read_many` works only then; `write` and
    `add_many` work only outside it. Each raises AssertionError, before
    any check or change, when called in the wrong mode.

    A single instance is single-threaded mutable state; run independent
    instances for parallel trials. Epoch ids lie in [1, 2^15) and must
    strictly decrease over a run (epochs are numbered largest-first in
    time); writes outside any declared epoch are tagged 0.
    """

    def __init__(self, config: MemoryConfig, *, log: bool = True):
        self.config = config
        self.values: dict[int, int] = {}  # address -> contents
        # address -> epoch of the last write
        self.tags: dict[int, int] | None = {} if log else None
        self.current_epoch: int | None = None
        self.trace: ProbeTrace | None = ProbeTrace() if log else None
        self.replay_reads: list[tuple[int, ...]] | None = None
        self.probes = 0
        self._limit = 1 << config.w
        # an address must also fit the log's signed 64-bit column, logged or not
        self._address_limit = min(self._limit, _INT64_LIMIT)

    def _check_epoch(self, epoch_id: int) -> None:
        """Refuse an id that is not in [1, 2^15) or does not come after
        the current epoch, logged or not."""
        if not 1 <= epoch_id < _EPOCH_LIMIT:
            raise ValueError(f"epoch id {epoch_id} is not in [1, {_EPOCH_LIMIT})")
        if self.current_epoch is not None and epoch_id >= self.current_epoch:
            raise ValueError(
                f"epoch ids must strictly decrease: {epoch_id} after {self.current_epoch}"
            )

    def begin_epoch(self, epoch_id: int) -> None:
        self._check_epoch(epoch_id)
        self.current_epoch = epoch_id

    def begin_operation(self, op_id: Hashable) -> None:
        if self.trace is not None:
            self.trace.begin(op_id)

    def _reject_addresses(self, addresses: Sequence[int]) -> NoReturn:
        array("q", addresses)  # OverflowError past 2^63, whether the memory logs or not
        bad = next(a for a in addresses if not 0 <= a < self._limit)
        raise ValueError(f"address {bad} does not fit in {self.config.w} bits")

    # read_many, add_many and write are the hot path: they record a
    # query's reads, or count probes and append one batch to the log,
    # with no per-probe object
    def read_many(self, addresses: Sequence[int]) -> list[int]:
        """A replayed query reads the cells in order: their addresses go
        to `replay_reads` as one tuple, in probe order. Every address is
        checked first, so a bad one raises and records nothing."""
        reads = self.replay_reads
        if reads is None:
            raise AssertionError("a read outside a query replay")
        if addresses and (min(addresses) < 0 or max(addresses) >= self._address_limit):
            self._reject_addresses(addresses)
        reads.append(tuple(addresses))
        return list(map(self.values.get, addresses, repeat(0)))

    def add_many(self, addresses: Sequence[int], addend: int) -> None:
        """Add `addend` to the value in each cell, in the order given. The
        log gets, per cell, one read and then one write, with the tags
        that probing the cells one at a time would log. The cells must be
        distinct, so one pass reads what the cells in turn would read.
        Every address and every new value is checked before any state
        changes, so a bad one raises and leaves the memory as it was."""
        if self.replay_reads is not None:
            raise AssertionError(
                f"a replayed query wrote cell {addresses[0]}"
                if addresses
                else "a replayed query wrote cells (an empty batch)"
            )
        if not addresses:
            return
        if min(addresses) < 0 or max(addresses) >= self._address_limit:
            self._reject_addresses(addresses)
        if len(set(addresses)) != len(addresses):
            raise ValueError("a cell repeats; add to it once")
        limit = self._limit
        get = self.values.get
        values = [get(a, 0) + addend for a in addresses]
        # a stored value already lies in [0, limit), so only a negative
        # addend can take a cell below 0
        if max(values) >= limit or (addend < 0 and min(values) < 0):
            bad = next(v for v in values if not 0 <= v < limit)
            raise OverflowError(f"value {bad} does not fit in {self.config.w} bits")

        tag = self.current_epoch if self.current_epoch is not None else 0
        self.probes += 2 * len(addresses)
        if self.trace is not None:
            self.trace.log_adds(addresses, tag)
        # masking stores right-sized ints; a sum keeps its addition's spare digit
        mask = limit - 1
        cells, cell_tags = self.values, self.tags
        if cell_tags is None:
            for address, value in zip(addresses, values):
                cells[address] = value & mask
        else:
            for address, value in zip(addresses, values):
                cells[address] = value & mask
                cell_tags[address] = tag

    def write(self, address: int, value: int) -> None:
        if self.replay_reads is not None:
            raise AssertionError(f"a replayed query wrote cell {address}")
        if not 0 <= address < self._address_limit:
            self._reject_addresses((address,))
        if not 0 <= value < self._limit:
            raise OverflowError(f"value {value} does not fit in {self.config.w} bits")
        tag = self.current_epoch if self.current_epoch is not None else 0
        self.probes += 1
        if self.trace is not None:
            self.trace.log_write(address, tag)
        self.values[address] = value
        if self.tags is not None:
            self.tags[address] = tag

    def load(self, cells: dict[int, int], epoch_id: int) -> None:
        """Set each cell to its contents, tagged with the epoch if the
        memory keeps tags, without probing (bookkeeping access: no probe
        counted; a logged memory records the cells as a batch with no
        probes, so that later reads in its log carry the load's tag).
        Every address and value is checked as `write` checks it, and the
        epoch id as `begin_epoch` checks it, before any cell changes."""
        self._check_epoch(epoch_id)
        if not cells:
            return
        if min(cells) < 0 or max(cells) >= self._address_limit:
            self._reject_addresses(list(cells))
        contents = cells.values()
        if min(contents) < 0 or max(contents) >= self._limit:
            bad = next(v for v in contents if not 0 <= v < self._limit)
            raise OverflowError(f"value {bad} does not fit in {self.config.w} bits")
        self.values.update(cells)
        if self.tags is not None:
            self.tags.update(zip(cells, repeat(epoch_id)))
        if self.trace is not None:
            self.trace.log_load(cells, epoch_id)

    def tag_store(self) -> dict[int, int]:
        """The address -> epoch tag store; ValueError on a count-only memory."""
        if self.tags is None:
            raise ValueError("a count-only memory keeps no epoch tags")
        return self.tags

    def written_addresses(self) -> set[int]:
        return set(self.tag_store())

    def cells_of_epoch(self, epoch_id: int) -> set[tuple[int, int]]:
        """(address, contents) pairs whose last write was in the epoch."""
        values = self.values
        return {
            (addr, values[addr]) for addr, tag in self.tag_store().items() if tag == epoch_id
        }

    def epoch_partition(self) -> dict[int, set[int]]:
        partition: dict[int, set[int]] = {}
        for addr, tag in self.tag_store().items():
            partition.setdefault(tag, set()).add(addr)
        return partition


def probe_counts_by_epoch(addresses: Iterable[int], mem: SimulatedMemory) -> dict[int, int]:
    """Distinct cells probed, keyed by the cell's final epoch tag.

    A cell probed twice counts once; cells that were never written
    belong to no epoch and are skipped. Raw probe counts stay available
    in the probe log.
    """
    tags = mem.tag_store()
    counts: dict[int, int] = {}
    for address in dict.fromkeys(addresses):
        tag = tags.get(address)
        if tag is not None:
            counts[tag] = counts.get(tag, 0) + 1
    return counts

