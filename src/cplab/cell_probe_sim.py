"""Simulated memory of addressable w-bit cells, with a probe count and
a probe log.

An update's probes are counted and logged: each read or write of a cell
adds one to the memory's probe count and lands in its trace, unless the
memory keeps no log (the decoder's re-execution of the preceding epochs
only counts). A query reads only while `chronogram.replay_queries`
replays it, which records its reads apart; it may not write. Each
written cell carries the id of the last epoch that wrote it, which is
what per-epoch probe accounting is built on. Cells never written read
as zero: a decoder re-executing a prefix of the updates must see
exactly the same blanks the original execution saw.
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
_INT64_LIMIT = 1 << 63  # the log keeps addresses and tags as signed 64-bit integers


class ProbeTrace:
    """Append-only probe log kept as columns, segmented by operation id.

    Probe k has `addresses[k]`, `kinds[k]` (0 read, 1 write) and
    `tags[k]`, the epoch tag on the cell at probe time (-1 if it was
    unwritten), each stored as a signed 64-bit integer. An operation owns
    the probes from its `begin` to the next `begin`; probes before the
    first `begin` belong to op None. Op ids are unique within one log.
    """

    def __init__(self) -> None:
        self.addresses = array("q")
        self.kinds = bytearray()
        self.tags = array("q")
        self._op_index: dict[Hashable, int] = {None: 0}  # op id -> position, in begin order
        self._op_starts: list[int] = [0]

    def begin(self, op_id: Hashable) -> None:
        if op_id in self._op_index:
            raise ValueError(f"op id {op_id!r} already used in this log")
        self._op_index[op_id] = len(self._op_starts)
        self._op_starts.append(len(self.addresses))

    def log_reads(self, addresses: Sequence[int], tags: dict[int, int]) -> None:
        """Append one read per address, tagged from `tags` (-1 if absent)."""
        self.addresses.extend(array("q", addresses))
        self.kinds.extend(bytes(len(addresses)))
        self.tags.extend(array("q", list(map(tags.get, addresses, repeat(-1)))))

    def __len__(self) -> int:
        return len(self.addresses)

    def rows(self) -> Iterator[tuple[Hashable, str, int, int | str]]:
        """(op_id, kind, address, tag) per probe; an unwritten cell's tag is ""."""
        ends = self._op_starts[1:] + [len(self.addresses)]
        for op_id, start, end in zip(self._op_index, self._op_starts, ends):
            for k in range(start, end):
                tag = self.tags[k]
                yield op_id, _KINDS[self.kinds[k]], self.addresses[k], "" if tag < 0 else tag


class SimulatedMemory:
    """w-bit cells addressed by integers below 2^w.

    A cell's contents and its epoch tag live in two stores keyed by
    address, `values` and `tags`, which always hold the same addresses.
    Read them freely; change them only through `write`, `add_many` and
    `load`. `probes` counts the update probes made so far. `trace` is
    the probe log; a memory whose `trace` is set to None counts its
    probes and logs none of them, for a re-execution whose probes no
    one reads.

    `replay_reads` is None except while `chronogram.replay_queries` asks
    a query: then it is a list, and `read_many` appends a tuple of its
    addresses to it. `read_many` works only then; `write` and
    `add_many` work only outside it. Each raises AssertionError, before
    any check or change, when called in the wrong mode.

    A single instance is single-threaded mutable state; run independent
    instances for parallel trials. Epoch ids must strictly decrease
    over a run (epochs are numbered largest-first in time); writes
    outside any declared epoch are tagged 0.
    """

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.values: dict[int, int] = {}  # address -> contents
        self.tags: dict[int, int] = {}  # address -> epoch of the last write
        self.current_epoch: int | None = None
        self.trace: ProbeTrace | None = ProbeTrace()
        self.replay_reads: list[tuple[int, ...]] | None = None
        self.probes = 0
        self._limit = 1 << config.w
        # an address must also fit the log's signed 64-bit column, logged or not
        self._address_limit = min(self._limit, _INT64_LIMIT)

    def begin_epoch(self, epoch_id: int) -> None:
        if epoch_id < 1:
            raise ValueError("epoch ids start at 1")
        if self.current_epoch is not None and epoch_id >= self.current_epoch:
            raise ValueError(
                f"epoch ids must strictly decrease: {epoch_id} after {self.current_epoch}"
            )
        self.current_epoch = epoch_id

    def begin_operation(self, op_id: Hashable) -> None:
        if self.trace is not None:
            self.trace.begin(op_id)

    def _reject_addresses(self, addresses: Sequence[int]) -> NoReturn:
        array("q", addresses)  # OverflowError past 2^63, whether the memory logs or not
        bad = next(a for a in addresses if not 0 <= a < self._limit)
        raise ValueError(f"address {bad} does not fit in {self.config.w} bits")

    # read_many, add_many and write are the hot path: they record a
    # query's reads, or count probes and append them to the log's
    # columns, with no per-probe object
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
        trace = self.trace
        if trace is not None:
            batch = array("q", addresses)
            logged = batch * 2  # per cell: read, then written
            logged[::2] = logged[1::2] = batch
            tags = array("q", [tag]) * len(logged)
            tags[::2] = array("q", list(map(self.tags.get, addresses, repeat(-1))))
            trace.addresses.extend(logged)
            trace.kinds.extend(b"\0\1" * len(batch))
            trace.tags.extend(tags)
        # masking stores right-sized ints; a sum keeps its addition's spare digit
        mask = limit - 1
        cells, cell_tags = self.values, self.tags
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
        trace = self.trace
        if trace is not None:
            trace.addresses.append(address)
            trace.kinds.append(1)
            trace.tags.append(tag)
        self.values[address] = value
        self.tags[address] = tag

    def load(self, cells: dict[int, int], epoch_id: int) -> None:
        """Set each cell to its contents, tagged with the epoch, without
        probing (bookkeeping access: no trace entry, no probe counted)."""
        self.values.update(cells)
        self.tags.update(zip(cells, repeat(epoch_id)))

    def written_addresses(self) -> set[int]:
        return set(self.tags)

    def cells_of_epoch(self, epoch_id: int) -> set[tuple[int, int]]:
        """(address, contents) pairs whose last write was in the epoch."""
        values = self.values
        return {(addr, values[addr]) for addr, tag in self.tags.items() if tag == epoch_id}

    def epoch_partition(self) -> dict[int, set[int]]:
        partition: dict[int, set[int]] = {}
        for addr, tag in self.tags.items():
            partition.setdefault(tag, set()).add(addr)
        return partition


def probe_counts_by_epoch(addresses: Iterable[int], mem: SimulatedMemory) -> dict[int, int]:
    """Distinct cells probed, keyed by the cell's final epoch tag.

    A cell probed twice counts once; cells that were never written
    belong to no epoch and are skipped. Raw probe counts stay available
    in the probe log.
    """
    counts: dict[int, int] = {}
    for address in dict.fromkeys(addresses):
        tag = mem.tags.get(address)
        if tag is not None:
            counts[tag] = counts.get(tag, 0) + 1
    return counts

