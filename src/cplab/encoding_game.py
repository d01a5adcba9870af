"""The encoder/decoder game over one epoch.

The encoder finds a small cell subset C of the target epoch's cells and
a set of queries resolved by C (their probes into that epoch all land
in C), then emits a message from which a decoder that knows only the
updates of the preceding epochs recovers the target epoch's weights
exactly. Message sections are bit-exact and individually labelled so
their lengths can be audited against the epoch's entropy.

Weight tuples are packed radix-Delta into one big integer, which costs
exactly ceil(count * lg Delta) bits. Query identities use fixed-width
indices of ceil(lg n^2) bits each.

Exhaustively searching for the best (C, Q) pair is infeasible, so C is
sampled uniformly with a retry budget, mirroring the probabilistic
existence argument; when no non-empty Q emerges the caller falls back
to the flag-1 raw encoding, which is always available.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import compress
from typing import Callable, Iterator, Sequence

from .cell_probe_sim import MemoryConfig, SimulatedMemory
from .chronogram import (
    KINDS,
    EpochSchedule,
    RunRecord,
    UpdateSequence,
    epoch_schedule,
    executed_schedule,
    execute_epochs,
    replay_queries,
)
from .fibonacci_lattice import dominance_incidence
from .finite_field import (
    PrimeModulus,
    SingularMatrixError,
    ff_dot,
    ff_solve,
    independent_row_indices,
)
from .grid_analysis import (
    build_grid_family,
    cell_representatives,
    cross_out_extract,
    effective_epoch_index,
)
from .hard_queries import QueryFamily
from .rng import substream


class ResolvedSetNotFound(RuntimeError):
    """No sampled cell subset resolved any query within the budget."""


class DecodingIntegrityError(RuntimeError):
    """The decode replay broke an invariant it relies on."""


# ---------------------------------------------------------------------------
# bit-exact payload packing


def ceil_bits_for_weights(delta: PrimeModulus, count: int) -> int:
    """ceil(count * lg Delta), computed exactly in integer arithmetic."""
    if count <= 0:
        return 0
    return (delta.value**count - 1).bit_length()


def pack_weights(weights: Sequence[int], delta: PrimeModulus) -> int:
    """Radix-Delta packing: the tuple becomes one integer in [Delta^count]."""
    value = 0
    for w in reversed(weights):
        if not 0 <= w < delta.value:
            raise ValueError(f"weight {w} outside [0, {delta.value})")
        value = value * delta.value + w
    return value


def unpack_weights(value: int, delta: PrimeModulus, count: int) -> tuple[int, ...]:
    weights = []
    for _ in range(count):
        value, w = divmod(value, delta.value)
        weights.append(w)
    if value:
        raise ValueError("packed weight payload has trailing data")
    return tuple(weights)


class _FieldWriter:
    """Fixed-width bit fields, LSB first, kept as the callers' ints (a digit
    string per field fragments the allocator) and joined once per section."""

    def __init__(self) -> None:
        self._values: list[int] = []
        self._widths: list[int] = []
        self.bits = 0

    def put(self, value: int, width: int) -> None:
        if not 0 <= value < 1 << width:
            raise ValueError(f"{value} does not fit in {width} bits")
        self._values.append(value)
        self._widths.append(width)
        self.bits += width

    def section(self, label: str) -> "Section":
        fields = zip(reversed(self._values), reversed(self._widths))
        digits = "".join(f"{value:0{width}b}" for value, width in fields if width)
        return Section(label=label, bit_length=self.bits, payload=int(digits or "0", 2))


class _FieldReader:
    """Takes fixed-width bit fields, LSB first, as slices of the
    payload's binary digits, so a whole section parses in linear time."""

    def __init__(self, value: int, bits: int):
        self._digits = format(value, f"0{bits}b")
        self._end = len(self._digits)  # the next field ends here
        self.remaining = bits

    def take(self, width: int) -> int:
        if width > self.remaining:
            raise ValueError("section payload exhausted")
        start = self._end - width
        out = int(self._digits[start : self._end] or "0", 2)
        self._end = start
        self.remaining -= width
        return out


@dataclass(frozen=True)
class Section:
    label: str
    bit_length: int
    payload: int

    def __post_init__(self) -> None:
        if self.bit_length < 0 or self.payload < 0:
            raise ValueError("section lengths and payloads are non-negative")
        if self.payload >> self.bit_length if self.bit_length else self.payload:
            raise ValueError("payload exceeds the declared bit length")


@dataclass
class EncodingMessage:
    """Bit-exact encoder output with a per-section length breakdown."""

    kind: str
    n: int
    beta: float
    istar: int
    delta: int
    seed: int
    w: int
    flag: int
    sections: tuple[Section, ...]
    query_count: int | None = None
    version: int = 1

    @property
    def total_bits(self) -> int:
        """Flag bit plus every declared section length."""
        return 1 + sum(s.bit_length for s in self.sections)

    def section(self, label: str) -> Section:
        """The section with this label; ValueError when there is none."""
        for s in self.sections:
            if s.label == label:
                return s
        raise ValueError(f"message has no section {label!r}")

    def to_bytes(self) -> bytes:
        """A JSON header of every field but `sections`, then the sections."""
        header = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "sections"}
        out = bytearray(json.dumps(header, sort_keys=True).encode() + b"\n")
        for s in self.sections:
            label = s.label.encode()
            out.append(len(label))
            out += label
            out += s.bit_length.to_bytes(8, "big")
            nbytes = -(-s.bit_length // 8)
            out += nbytes.to_bytes(8, "big")
            out += s.payload.to_bytes(nbytes, "big") if nbytes else b""
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodingMessage":
        """Parse `to_bytes` output; a field that runs past the buffer, a
        payload length that disagrees with its bit length, a repeated
        section label, or a version other than the integer 1 raises
        ValueError, and a header without one of the fields KeyError."""
        newline = data.index(b"\n")
        header = json.loads(data[:newline])
        if type(header["version"]) is not int or header["version"] != 1:
            raise ValueError(f"unknown message version {header['version']!r}")
        pos = newline + 1

        def take(size: int, what: str) -> bytes:
            nonlocal pos
            if pos + size > len(data):
                raise ValueError(f"section {what} runs past the end of the message")
            pos += size
            return data[pos - size : pos]

        sections = []
        while pos < len(data):
            label = take(take(1, "label length")[0], "label").decode()
            if any(s.label == label for s in sections):
                raise ValueError(f"section {label!r} appears twice")
            bit_length = int.from_bytes(take(8, f"{label!r} bit length"), "big")
            nbytes = int.from_bytes(take(8, f"{label!r} byte length"), "big")
            if nbytes != -(-bit_length // 8):
                raise ValueError(f"section {label!r}: {nbytes} bytes for {bit_length} bits")
            payload = int.from_bytes(take(nbytes, f"{label!r} payload"), "big")
            sections.append(Section(label=label, bit_length=bit_length, payload=payload))
        names = [f.name for f in fields(cls) if f.name != "sections"]
        return cls(sections=tuple(sections), **{name: header[name] for name in names})


@dataclass(frozen=True)
class ResolvedSet:
    """A cell subset C of the target epoch and the sampled queries whose
    probes into that epoch all land inside C (verified by replay)."""

    istar: int
    cell_addresses: tuple[int, ...]
    queries: tuple
    sample_mean_t: float
    sample_size: int
    tries_used: int
    query_probes: int  # raw probes of the pool replay and the verify replay


def _query_probe_sets(
    run: RunRecord, target_cells: set[int], queries: Sequence
) -> Iterator[tuple[object, set[int], int]]:
    """Per query in order: the query, the distinct target cells it
    probes, and the raw probe count of its replay."""
    for q, (_, addresses) in zip(queries, replay_queries(run.structure, queries)):
        yield q, target_cells.intersection(addresses), len(addresses)


def default_cell_budget(run: RunRecord, istar: int) -> int:
    """About beta^(istar-1) cells, with a factor w for dominance runs."""
    base = max(1, int(run.run_schedule.size_of(istar) / run.beta))
    if run.kind == "orc":
        base *= run.w
    return base


# distinct uniform query points a dominance run's resolve search replays
DOMINANCE_QUERY_POOL = 400
# cell subsets the resolve search samples before it gives up
DEFAULT_MAX_TRIES = 16


def find_resolved_set(
    run: RunRecord,
    istar: int,
    cell_budget: int | None = None,
    probe_threshold: float | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
    seed: int = 0,
) -> ResolvedSet:
    """Sample uniform cell subsets of the target epoch until one
    resolves a non-empty set of low-cost queries; keep the best try.

    The candidates are every family index (index-weight runs) or
    DOMINANCE_QUERY_POOL distinct seeded points (dominance runs).
    Queries qualify when their distinct epoch-istar probe count is at
    most the threshold (default lg_beta(n)/4) and every such probe lands
    in the sampled subset. Raises ResolvedSetNotFound when every try
    comes up empty; the flag-1 raw encoding remains available then.
    """
    cells = {addr for addr, _ in run.cells_of_epoch(istar)}
    if not cells:
        raise ResolvedSetNotFound(f"epoch {istar} owns no cells")
    if cell_budget is None:
        cell_budget = default_cell_budget(run, istar)
    cell_budget = min(cell_budget, len(cells))
    if probe_threshold is None:
        probe_threshold = math.log(run.n, run.beta) / 4

    if run.kind == "artificial":
        pool: list = list(range(len(run.family.vectors)))
    else:
        qrng = substream(seed, "query-sample")
        distinct: dict[tuple[int, int], None] = {}  # keeps first-draw order
        while len(distinct) < DOMINANCE_QUERY_POOL:
            distinct[qrng.randrange(run.n), qrng.randrange(run.n)] = None
        pool = list(distinct)

    # hold only the eligible queries' probe cells, as tuples (a third of a
    # small set's bytes); mean_t needs just the sum
    eligible, probe_sum, query_probes = [], 0, 0
    for q, probes, raw in _query_probe_sets(run, cells, pool):
        probe_sum += len(probes)
        query_probes += raw
        if len(probes) <= probe_threshold:
            eligible.append((q, tuple(probes)))
    mean_t = probe_sum / len(pool)

    crng = substream(seed, "cell-sample")
    population = sorted(cells)
    best: list | None = None
    best_cells: tuple[int, ...] = ()
    tries_used = 0
    for attempt in range(max_tries):
        tries_used = attempt + 1
        chosen = set(crng.sample(population, cell_budget))
        resolved = [q for q, probes in eligible if chosen.issuperset(probes)]
        if best is None or len(resolved) > len(best):
            best = resolved
            best_cells = tuple(sorted(chosen))
    if not best:
        raise ResolvedSetNotFound(
            f"no queries resolved after {max_tries} tries "
            f"(budget {cell_budget}, threshold {probe_threshold})"
        )

    # replay each kept query and re-check the containment directly; the
    # eligible probe sets go first, so they are not held during that replay
    del eligible
    chosen_set = set(best_cells)
    for q, probes, raw in _query_probe_sets(run, cells, best):
        query_probes += raw
        if not probes <= chosen_set:
            raise AssertionError(f"replay of {q} probed epoch {istar} outside C")

    return ResolvedSet(
        istar=istar,
        cell_addresses=best_cells,
        queries=tuple(sorted(best)),
        sample_mean_t=mean_t,
        sample_size=len(pool),
        tries_used=tries_used,
        query_probes=query_probes,
    )


# ---------------------------------------------------------------------------
# message sections and query ids: one writer and one reader per format,
# shared by the encoder and the decoder


def _weights_section(label: str, weights: Sequence[int], delta: PrimeModulus) -> Section:
    return Section(label, ceil_bits_for_weights(delta, len(weights)), pack_weights(weights, delta))


def _parse_weights_section(section: Section, delta: PrimeModulus, count: int) -> tuple[int, ...]:
    """The section's `count` weights; any bit length other than
    ceil_bits_for_weights(delta, count) raises ValueError."""
    bits = section.bit_length
    if bits != ceil_bits_for_weights(delta, count):
        raise ValueError(f"section {section.label!r}: {bits} bits for {count} weights")
    return unpack_weights(section.payload, delta, count)


def _cells_section(label: str, cells: Sequence[tuple[int, int]], w: int) -> Section:
    writer = _FieldWriter()
    writer.put(len(cells), 2 * w)
    for addr, contents in cells:
        writer.put(addr, w)
        writer.put(contents, w)
    return writer.section(label)


def _check_fields_left(reader: _FieldReader, section: Section, count: int, width: int) -> None:
    """After a section's count field, exactly `count` fields of `width`
    bits must remain; anything else raises ValueError."""
    if reader.remaining != count * width:
        raise ValueError(
            f"section {section.label!r}: {reader.remaining} bits for {count} fields of {width}"
        )


def _parse_cells_section(section: Section, w: int) -> dict[int, int]:
    reader = _FieldReader(section.payload, section.bit_length)
    count = reader.take(2 * w)
    _check_fields_left(reader, section, count, 2 * w)
    return {reader.take(w): reader.take(w) for _ in range(count)}


def _query_id_bits(n: int) -> int:
    return (n * n - 1).bit_length()


def _query_ids_section(qids: Sequence[int], n: int, w: int) -> Section:
    qbits = _query_id_bits(n)
    writer = _FieldWriter()
    writer.put(len(qids), 2 * w)
    for qid in qids:
        writer.put(qid, qbits)
    return writer.section("resolved_queries")


def _parse_query_ids_section(section: Section, n: int, w: int) -> list[int]:
    qbits = _query_id_bits(n)
    reader = _FieldReader(section.payload, section.bit_length)
    count = reader.take(2 * w)
    _check_fields_left(reader, section, count, qbits)
    return [reader.take(qbits) for _ in range(count)]


def _query_view(
    kind: str,
    n: int,
    run_sched: EpochSchedule,
    istar: int,
    epoch_points: dict[int, tuple[tuple[int, int], ...]] | None,
    family: QueryFamily | None,
) -> tuple[Callable, Callable, Callable, int, int]:
    """How both parties read a query id: the id of a query, the query an
    id names, the row of an id, the id limit, and the length of u. In a
    dominance game an id is x * n + y and u is epoch istar's m weights;
    in an index-weight game an id is a family index and u is the whole
    suffix of epochs istar..1."""
    if kind == "orc":
        points = epoch_points[istar]
        query_of = lambda qid: divmod(qid, n)
        row_of = lambda qid: dominance_incidence(points, query_of(qid))
        return lambda q: q[0] * n + q[1], query_of, row_of, n * n, run_sched.size_of(istar)
    k_len = run_sched.suffix_length(istar)
    same = lambda q: q
    row_of = lambda qid: family.vectors[qid][-k_len:]
    return same, same, row_of, min(n * n, len(family.vectors)), k_len


# ---------------------------------------------------------------------------
# encoding


def _suffix_weight_vector(run: RunRecord, istar: int) -> tuple[int, ...]:
    """Weights of the last suffix_length(istar) updates, in time order."""
    return tuple(wt for epoch_id in range(istar, 0, -1) for wt in run.updates.u(epoch_id))


def _extract_independent_queries(run: RunRecord, istar: int, queries: Sequence) -> list:
    """For dominance runs, thin the resolved queries with the grid
    crossing-out procedure so the surviving incidence vectors are
    independent by construction. When the epoch is too small to carry
    any grid (2i-2 < 2), fall back to the greedy rank filter alone."""
    m = run.run_schedule.size_of(istar)
    if effective_epoch_index(run.beta, m) < 2:
        return list(queries)
    best: tuple[int, list] | None = None
    for grid in build_grid_family(run.n, run.beta, m).values():
        reps = cell_representatives(queries, grid)
        survivors = list(cross_out_extract(reps, grid).survivors)
        if best is None or len(survivors) > best[0]:
            best = (len(survivors), survivors)
    if best is None or best[0] == 0:
        return list(queries)
    return best[1]


def encode_epoch(
    run: RunRecord,
    istar: int,
    resolved: ResolvedSet | None,
    expected_t: float | None = None,
) -> EncodingMessage:
    """Emit the message that lets a prefix-informed decoder recover the
    target epoch's weights.

    Falls back to the flag-1 raw weight dump when no resolved set is
    available or when the run's measured average epoch cost exceeds
    twice the supplied expectation.
    """
    delta = run.delta
    flag1 = resolved is None or (
        expected_t is not None and resolved.sample_mean_t > 2 * expected_t
    )
    if flag1:
        qids = None
        sections = [_weights_section("raw_weights", run.updates.u(istar), delta)]
    else:
        id_of, _, row_of, _, dim = _query_view(
            run.kind, run.n, run.run_schedule, istar, run.epoch_points, run.family
        )
        queries = resolved.queries
        if run.kind == "orc":
            queries = _extract_independent_queries(run, istar, queries)
        qids = [id_of(q) for q in queries]
        # both parties keep the rows that enlarge the span, scanning in the
        # transmitted query order, so they share its pivot columns P; the
        # message carries u on the complement of P, which the rows leave open
        _, pivots = independent_row_indices(delta, map(row_of, qids))
        pivot_set = set(pivots)
        u = _suffix_weight_vector(run, istar)[:dim]
        cell_pairs = sorted(
            (addr, run.memory.contents_of(addr)) for addr in resolved.cell_addresses
        )
        sections = [
            _cells_section("resolved_cells", cell_pairs, run.w),
            _query_ids_section(qids, run.n, run.w),
            _weights_section(
                "completion_products", [x for j, x in enumerate(u) if j not in pivot_set], delta
            ),
        ]
        smaller = range(istar - 1, 0, -1)
        for j in smaller:
            pairs = sorted(run.cells_of_epoch(j))
            sections.append(_cells_section(f"cells_epoch_{j}", pairs, run.w))
        for j in smaller if run.kind == "orc" else ():
            sections.append(_weights_section(f"weights_epoch_{j}", run.updates.u(j), delta))

    return EncodingMessage(
        kind=run.kind,
        n=run.n,
        beta=run.beta,
        istar=istar,
        delta=delta.value,
        seed=run.seed,
        w=run.w,
        flag=int(flag1),
        sections=tuple(sections),
        query_count=None if qids is None else len(qids),
    )


# ---------------------------------------------------------------------------
# decoding


@dataclass
class DecodeResult:
    u_istar: tuple[int, ...]
    flag: int
    queries_replayed: int = 0
    independent_rows: int = 0


def decode_epoch(
    message: EncodingMessage,
    prefix_updates: UpdateSequence,
    structure_factory: Callable[..., object],
    verify_run: RunRecord | None = None,
) -> DecodeResult:
    """Recover the target epoch's weight vector from the message and the
    updates of the preceding epochs.

    A kind outside `chronogram.KINDS` raises ValueError, as do a kind
    that does not fit the structure (an index-weight message needs a
    structure with a family, a dominance message one without), a missing
    section, and a section whose bit length does not fit its count. The flag-0
    path builds each transmitted query's row from its id alone (an id
    outside the family raises ValueError) and keeps the rows that
    enlarge the span, as the encoder did. It re-executes the
    prefix on a fresh structure, loads C and then the smaller epochs'
    cells into that memory (a smaller-epoch cell wins over C), replays
    only the kept queries on it through `replay_queries` and subtracts
    the known epochs' contributions. The k kept rows X fix u on their
    pivot columns P; the message carries u on the rest, so only the
    k x k system X|_P u_P = z - X|_Pbar u_Pbar is solved. With
    `verify_run`, every replayed probe is checked against the true run:
    an epoch-istar cell outside C is an integrity error.
    (`find_resolved_set`'s verify replay checks every transmitted query.)
    """
    if message.kind not in KINDS:
        raise ValueError(f"unknown kind {message.kind!r}, not one of {KINDS}")
    delta = PrimeModulus(message.delta)
    istar = message.istar
    n = message.n
    # a flag-1 message needs the epoch sizes but no lattice
    sched, epoch_points = executed_schedule(
        message.kind, epoch_schedule(n, message.beta), istar if message.flag == 0 else 0
    )
    m = sched.size_of(istar)

    if message.flag == 1:
        weights = _parse_weights_section(message.section("raw_weights"), delta, m)
        return DecodeResult(u_istar=weights, flag=1)

    if any(e.epoch <= istar for e in prefix_updates.epochs):
        raise ValueError("prefix updates must cover only epochs above istar")

    w = message.w
    c_cells = _parse_cells_section(message.section("resolved_cells"), w)
    smaller = range(istar - 1, 0, -1)
    small_cells = {j: _parse_cells_section(message.section(f"cells_epoch_{j}"), w) for j in smaller}
    qids = _parse_query_ids_section(message.section("resolved_queries"), n, w)
    prefix_memory = SimulatedMemory(MemoryConfig(w=w))
    prefix_memory.trace = None  # the bound check reads the probe count; replay scopes its own log
    structure = structure_factory(prefix_memory)
    family = getattr(structure, "family", None)
    if (family is None) != (message.kind == "orc"):
        raise ValueError(f"a {message.kind!r} message does not fit a {type(structure).__name__}")
    small_weights = {
        j: _parse_weights_section(message.section(f"weights_epoch_{j}"), delta, sched.size_of(j))
        for j in (smaller if message.kind == "orc" else ())
    }
    _, query_of, row_of, id_limit, dim = _query_view(
        message.kind, n, sched, istar, epoch_points, family
    )
    if any(qid >= id_limit for qid in qids):
        raise ValueError(f"query id {max(qids)} outside [0, {id_limit})")
    prefix_points = [pair for e in prefix_updates.epochs for pair in zip(e.targets, e.weights)]
    if message.kind == "orc":

        def known_of(qid: int) -> int:
            q = query_of(qid)
            known = sum(wt for (pt, wt) in prefix_points if pt[0] <= q[0] and pt[1] <= q[1])
            for epoch_id, weights in small_weights.items():
                known += sum(compress(weights, dominance_incidence(epoch_points[epoch_id], q)))
            return known

    else:
        prefix_weight_at = dict(prefix_points)
        prefix_weights = [prefix_weight_at[pos] for pos in range(n - dim)]
        known_of = lambda qid: sum(compress(prefix_weights, family.vectors[qid]))

    # the rows depend on the ids alone, so only the queries whose rows
    # enlarge the span (the encoder's own selection) are replayed
    kept, pivots = independent_row_indices(delta, map(row_of, qids))
    kept_ids = [qids[i] for i in kept]
    kept_rows = [row_of(qid) for qid in kept_ids]

    # re-execute the preceding epochs, then write C and the smaller
    # epochs' cells over them, each with the tag of the epoch it stands for
    execute_epochs(structure, prefix_memory, prefix_updates)
    prefix_memory.load(c_cells, istar)
    for epoch_id, epoch_cells in small_cells.items():
        prefix_memory.load(epoch_cells, epoch_id)
    z_values = []
    replies = replay_queries(structure, map(query_of, kept_ids))
    for qid, (answer, addresses) in zip(kept_ids, replies):
        if verify_run is not None:
            # no replay may probe an epoch-istar cell of the verify run outside C
            for a in addresses:
                if verify_run.memory.epoch_of(a) == istar and a not in c_cells:
                    raise DecodingIntegrityError(f"replay probed epoch-{istar} cell {a} outside C")
        z_values.append((answer - known_of(qid)) % delta.value)

    # u off the pivot columns comes in the message, u on them from the solve
    pivot_set = set(pivots)
    open_columns = [j for j in range(dim) if j not in pivot_set]
    products = _parse_weights_section(
        message.section("completion_products"), delta, len(open_columns)
    )
    u = [0] * dim
    for j, value in zip(open_columns, products):
        u[j] = value
    matrix = [[row[j] for j in pivots] for row in kept_rows]
    rhs = [z - ff_dot(delta, row, u) for row, z in zip(kept_rows, z_values)]
    try:
        solution = ff_solve(delta, matrix, rhs)
    except SingularMatrixError as exc:
        raise DecodingIntegrityError(f"pivot system is singular: {exc}") from exc
    for j, value in zip(pivots, solution):
        u[j] = value

    return DecodeResult(
        u_istar=tuple(u[:m]),  # the whole of u in a dominance game
        flag=0,
        queries_replayed=len(kept_ids),
        independent_rows=len(kept_rows),
    )


# ---------------------------------------------------------------------------
# entropy accounting


@dataclass(frozen=True)
class EntropyAccount:
    h_bits: float  # epoch entropy: size(istar) * lg Delta
    slack: float


def entropy_account(
    schedule: EpochSchedule, istar: int, delta: PrimeModulus, message: EncodingMessage
) -> EntropyAccount:
    """Compare the message length to the entropy of the epoch's weights.

    The entropy uses the epoch's executed size (equal to beta^istar for
    every epoch except the first-in-time one, which absorbs the
    schedule remainder).
    """
    h_bits = schedule.size_of(istar) * math.log2(delta.value)
    return EntropyAccount(
        h_bits=h_bits,
        slack=message.total_bits - h_bits,
    )
