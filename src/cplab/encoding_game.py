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
import zlib
from dataclasses import dataclass, fields
from itertools import compress
from typing import Callable, Sequence

from .cell_probe_sim import MemoryConfig, SimulatedMemory
from .chronogram import (
    KINDS,
    EpochSchedule,
    RunRecord,
    UpdateSequence,
    default_run_cell_width,
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
    field_modulus,
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


class MessageFormatError(ValueError):
    """A message the decoder cannot read: a bad checksum, header or
    framing, a missing or malformed section, or an unknown kind."""


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


# the JSON types a header field may hold, by the field's annotation
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


@dataclass
class EncodingMessage:
    """Bit-exact encoder output with a per-section length breakdown. The
    header holds only what the decoder cannot work out: Delta is
    `field_modulus(n)`, w the run's `default_run_cell_width`, and the
    query-id section counts its own ids."""

    kind: str
    n: int
    beta: float
    istar: int
    flag: int
    sections: tuple[Section, ...]
    version: int = 2

    @property
    def total_bits(self) -> int:
        """Flag bit plus every declared section length."""
        return 1 + sum(s.bit_length for s in self.sections)

    def section(self, label: str) -> Section:
        """The section with this label; MessageFormatError when there is none."""
        for s in self.sections:
            if s.label == label:
                return s
        raise MessageFormatError(f"message has no section {label!r}")

    def to_bytes(self) -> bytes:
        """A JSON header of every field but `sections`; each section as its
        label length, label, 8-byte bit length and ceil(bit length / 8)
        payload bytes; then the CRC-32 of all that as 4 big-endian bytes."""
        header = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "sections"}
        out = bytearray(json.dumps(header, sort_keys=True).encode() + b"\n")
        for s in self.sections:
            label = s.label.encode()
            out.append(len(label))
            out += label
            out += s.bit_length.to_bytes(8, "big")
            out += s.payload.to_bytes(-(-s.bit_length // 8), "big")
        return bytes(out) + zlib.crc32(out).to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncodingMessage":
        """Parse `to_bytes` output. Raises MessageFormatError, checked
        first, when the last 4 bytes are not the CRC-32 of the rest; on a
        header line that is not JSON; on a version other than the integer
        2; on a header that is not a JSON object of exactly the message's
        fields, each of its JSON type (an int field takes no bool or
        float), with a flag of 0 or 1; on a field that runs past the
        buffer, a label that is not UTF-8, a payload with a set bit above
        its bit length, and a repeated section label."""
        end = len(data) - 4  # the sections end where the trailer starts
        if end < 0 or zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "big"):
            raise MessageFormatError("message checksum does not match its CRC-32 trailer")
        newline = data.find(b"\n", 0, end)
        if newline < 0:
            raise MessageFormatError("message header has no closing newline")
        try:
            header = json.loads(data[:newline])
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise MessageFormatError(f"message header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise MessageFormatError("message header is not a JSON object")
        version = header.get("version")
        if type(version) is not int or version != cls.version:
            raise MessageFormatError(f"unknown message version {version!r}")
        types = {f.name: _JSON_TYPES[f.type] for f in fields(cls) if f.name != "sections"}
        if header.keys() != types.keys():
            raise MessageFormatError(
                f"message header fields {sorted(header)} are not {sorted(types)}"
            )
        for name, allowed in types.items():
            if type(header[name]) not in allowed:
                raise MessageFormatError(f"header field {name!r} holds {header[name]!r}")
        if header["flag"] not in (0, 1):
            raise MessageFormatError(f"flag {header['flag']} is neither 0 nor 1")
        pos = newline + 1

        def take(size: int, what: str) -> bytes:
            nonlocal pos
            if pos + size > end:
                raise MessageFormatError(f"section {what} runs past the end of the message")
            pos += size
            return data[pos - size : pos]

        sections = []
        while pos < end:
            raw_label = take(take(1, "label length")[0], "label")
            try:
                label = raw_label.decode()
            except UnicodeDecodeError:
                raise MessageFormatError(f"section label {raw_label!r} is not UTF-8") from None
            if any(s.label == label for s in sections):
                raise MessageFormatError(f"section {label!r} appears twice")
            bit_length = int.from_bytes(take(8, f"{label!r} bit length"), "big")
            payload = int.from_bytes(take(-(-bit_length // 8), f"{label!r} payload"), "big")
            try:
                sections.append(Section(label=label, bit_length=bit_length, payload=payload))
            except ValueError as exc:  # a set bit above the bit length
                raise MessageFormatError(f"section {label!r}: {exc}") from None
        return cls(sections=tuple(sections), **header)


@dataclass(frozen=True)
class ResolvedSet:
    """A cell subset C of the target epoch and the sampled queries whose
    probes into that epoch all land inside C (one replay of the pool)."""

    cell_addresses: tuple[int, ...]
    queries: tuple
    sample_size: int
    tries_used: int
    query_probes: int  # raw probes of the pool replay


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
    DOMINANCE_QUERY_POOL distinct seeded points (dominance runs; all n^2
    points when there are fewer).
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
        while len(distinct) < min(DOMINANCE_QUERY_POOL, run.n * run.n):
            distinct[qrng.randrange(run.n), qrng.randrange(run.n)] = None
        pool = list(distinct)

    # hold only the eligible queries' probe cells, as tuples (a third of a
    # small set's bytes)
    eligible, query_probes = [], 0
    for q, (_, addresses) in zip(pool, replay_queries(run.structure, pool)):
        query_probes += len(addresses)
        probes = cells.intersection(addresses)
        if len(probes) <= probe_threshold:
            eligible.append((q, tuple(probes)))

    crng = substream(seed, "cell-sample")
    population = sorted(cells)
    best: list = []
    best_cells: tuple[int, ...] = ()
    for _ in range(max_tries):
        chosen = set(crng.sample(population, cell_budget))
        resolved = [q for q, probes in eligible if chosen.issuperset(probes)]
        if len(resolved) > len(best):
            best = resolved
            best_cells = tuple(sorted(chosen))
    if not best:
        raise ResolvedSetNotFound(
            f"no queries resolved after {max_tries} tries "
            f"(budget {cell_budget}, threshold {probe_threshold})"
        )

    return ResolvedSet(
        cell_addresses=best_cells,
        queries=tuple(sorted(best)),
        sample_size=len(pool),
        tries_used=max_tries,
        query_probes=query_probes,
    )


# ---------------------------------------------------------------------------
# message sections and query ids: one writer and one reader per format,
# shared by the encoder and the decoder


def _weights_section(label: str, weights: Sequence[int], delta: PrimeModulus) -> Section:
    return Section(label, ceil_bits_for_weights(delta, len(weights)), pack_weights(weights, delta))


def _parse_weights_section(section: Section, delta: PrimeModulus, count: int) -> tuple[int, ...]:
    """The section's `count` weights; any bit length other than
    ceil_bits_for_weights(delta, count), or a payload past delta^count,
    raises MessageFormatError."""
    bits = section.bit_length
    if bits != ceil_bits_for_weights(delta, count):
        raise MessageFormatError(f"section {section.label!r}: {bits} bits for {count} weights")
    try:
        return unpack_weights(section.payload, delta, count)
    except ValueError as exc:
        raise MessageFormatError(f"section {section.label!r}: {exc}") from None


def _counted_section(label: str, fields: Sequence[int], width: int, w: int) -> Section:
    """A 2w-bit count, then each field in `width` >= 1 bits, LSB first. The
    fields stay ints (a digit string per field fragments the allocator)
    until their binary digits are joined once."""
    if len(fields) >> 2 * w or fields and (min(fields) < 0 or max(fields) >> width):
        raise ValueError(f"section {label!r}: a field or the count does not fit its width")
    digits = "".join(f"{field:0{width}b}" for field in reversed(fields))
    payload = int(f"{digits}{len(fields):0{2 * w}b}", 2)
    return Section(label, 2 * w + len(fields) * width, payload)


def _parse_counted_section(section: Section, width: int, w: int) -> list[int]:
    """The fields of a `_counted_section`, sliced from the payload's binary
    digits; a section shorter than its count field, or whose remaining
    bits are not that many fields of `width`, raises MessageFormatError."""
    bits = section.bit_length - 2 * w  # after the count field
    if bits < 0:
        raise MessageFormatError(f"section {section.label!r}: {section.bit_length} bits, no count")
    digits = format(section.payload, f"0{section.bit_length}b")
    count = int(digits[bits:], 2)
    if bits != count * width:
        raise MessageFormatError(
            f"section {section.label!r}: {bits} bits for {count} fields of {width}"
        )
    return [int(digits[end - width : end], 2) for end in range(bits, 0, -width)]


def _cells_section(label: str, cells: Sequence[tuple[int, int]], w: int) -> Section:
    """Each (address, contents) cell as one 2w-bit field, contents << w | address."""
    if any(addr >> w for addr, _ in cells):  # it would bleed into the contents
        raise ValueError(f"section {label!r}: an address does not fit in {w} bits")
    return _counted_section(label, [contents << w | addr for addr, contents in cells], 2 * w, w)


def _parse_cells_section(section: Section, w: int) -> dict[int, int]:
    mask = (1 << w) - 1
    return {field & mask: field >> w for field in _parse_counted_section(section, 2 * w, w)}


def _query_id_bits(n: int) -> int:
    return (n * n - 1).bit_length()


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
    row_of = lambda qid: family.coords(qid)[-k_len:]
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


def encode_epoch(run: RunRecord, istar: int, resolved: ResolvedSet | None) -> EncodingMessage:
    """Emit the message that lets a prefix-informed decoder recover the
    target epoch's weights: flag 0 from the resolved set, or the flag-1
    raw weight dump when there is none."""
    delta = run.delta
    flag1 = resolved is None
    if flag1:
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
        values = run.memory.values
        cell_pairs = sorted((addr, values[addr]) for addr in resolved.cell_addresses)
        sections = [
            _cells_section("resolved_cells", cell_pairs, run.w),
            _counted_section("resolved_queries", qids, _query_id_bits(run.n), run.w),
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
        flag=int(flag1),
        sections=tuple(sections),
    )


# ---------------------------------------------------------------------------
# decoding


@dataclass
class DecodeResult:
    u_istar: tuple[int, ...]
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

    The decoder works out Delta as `field_modulus(n)` and w as the run's
    `default_run_cell_width`. A kind outside `chronogram.KINDS` raises
    MessageFormatError, as do an n, beta or istar that no run can have
    (an n past the exact prime range included), a missing section and a
    section whose bit length does not fit its count. On the flag-0 path a
    kind that does not fit the structure (an index-weight message needs a
    structure with a family, a dominance message one without) raises
    ValueError, as does a prefix other than epochs count..istar+1 in time
    order, each of its executed size. That path builds each transmitted
    query's row from its id alone (an id outside the family raises
    MessageFormatError) and keeps the rows that enlarge the span, as the
    encoder did. It re-executes the
    prefix on a fresh structure, loads C and then the smaller epochs'
    cells into that memory (a smaller-epoch cell wins over C), replays
    only the kept queries on it through `replay_queries` and subtracts
    the known epochs' contributions. The k kept rows X fix u on their
    pivot columns P; the message carries u on the rest, so only the
    k x k system X|_P u_P = z - X|_Pbar u_Pbar is solved. With
    `verify_run`, every replayed probe is checked against the true run:
    an epoch-istar cell outside C is an integrity error. A transmitted
    query the decoder does not replay cannot change what it recovers.
    """
    if message.kind not in KINDS:
        raise MessageFormatError(f"unknown kind {message.kind!r}, not one of {KINDS}")
    n = message.n
    istar = message.istar
    try:
        delta = field_modulus(n)
        # a flag-1 message needs the epoch sizes but no lattice
        sched, epoch_points = executed_schedule(
            message.kind, epoch_schedule(n, message.beta), istar if message.flag == 0 else 0
        )
        m = sched.size_of(istar)
    except ValueError as exc:  # an n, beta or istar that no run has
        raise MessageFormatError(f"message header: {exc}") from None

    if message.flag == 1:
        weights = _parse_weights_section(message.section("raw_weights"), delta, m)
        return DecodeResult(u_istar=weights)

    w = default_run_cell_width(message.kind, n, delta, sched.total)
    c_cells = _parse_cells_section(message.section("resolved_cells"), w)
    smaller = range(istar - 1, 0, -1)
    small_cells = {j: _parse_cells_section(message.section(f"cells_epoch_{j}"), w) for j in smaller}
    qids = _parse_counted_section(message.section("resolved_queries"), _query_id_bits(n), w)
    prefix_memory = SimulatedMemory(MemoryConfig(w=w))
    prefix_memory.trace = None  # the bound check reads the probe count; replay records its reads
    structure = structure_factory(prefix_memory)
    family = getattr(structure, "family", None)
    if (family is None) != (message.kind == "orc"):
        raise ValueError(f"a {message.kind!r} message does not fit a {type(structure).__name__}")
    small_weights = {
        j: _parse_weights_section(message.section(f"weights_epoch_{j}"), delta, sched.size_of(j))
        for j in (smaller if message.kind == "orc" else ())
    }
    # any other prefix re-executes into the wrong cells
    shape = [(i, sched.size_of(i)) for i in range(sched.count, istar, -1)]
    if [(e.epoch, len(e.weights)) for e in prefix_updates.epochs] != shape:
        raise ValueError(f"prefix updates are not the (epoch, size) pairs {shape} in time order")
    _, query_of, row_of, id_limit, dim = _query_view(
        message.kind, n, sched, istar, epoch_points, family
    )
    if any(qid >= id_limit for qid in qids):
        raise MessageFormatError(f"query id {max(qids)} outside [0, {id_limit})")
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
        known_of = lambda qid: sum(compress(prefix_weights, family.coords(qid)))

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
                if verify_run.memory.tags.get(a) == istar and a not in c_cells:
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
