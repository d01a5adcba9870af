"""Epoch schedules, hard-distribution runs, and per-epoch probe
accounting.

Epochs are numbered largest-first in time: epoch `count` performs the
first block of updates, epoch 1 the last. For the dominance problem
each epoch size is snapped to the largest Fibonacci number not above
it so the epoch can insert a scaled lattice; the snapped schedule is
recorded next to the ideal one. The final query of the distribution is
generalised to a seeded query sample so per-epoch averages come out of
a single run.
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .cell_probe_sim import (
    MemoryConfig,
    ProbeTrace,
    SimulatedMemory,
    ceil_lg,
    probe_counts_by_epoch,
)
from .fibonacci_lattice import (
    LatticeSpec,
    largest_fibonacci_at_most,
    scaled_lattice,
)
from .finite_field import PrimeModulus, field_modulus
from .hard_queries import QueryFamily, QueryFamilyParams, build_query_family
from .rng import substream, substream_seed
from .structures import (
    DynamicStructure,
    NaiveArtificialStructure,
    PrefixSumRangeStructure,
)

KINDS = ("artificial", "orc")


@dataclass(frozen=True)
class EpochSchedule:
    """Epoch sizes in time order: epoch `count` first, epoch 1 last."""

    n: int
    beta: float
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def epoch_ids(self) -> range:
        """Epoch ids in time order (descending)."""
        return range(self.count, 0, -1)

    def size_of(self, epoch: int) -> int:
        if not 1 <= epoch <= self.count:
            raise ValueError(f"epoch {epoch} outside [1, {self.count}]")
        return self.sizes[self.count - epoch]

    def suffix_length(self, epoch: int) -> int:
        """Number of updates in epochs `epoch`..1 (the time suffix)."""
        return sum(self.size_of(i) for i in range(epoch, 0, -1))

    def snap_to_fibonacci(self) -> "EpochSchedule":
        return EpochSchedule(
            n=self.n,
            beta=self.beta,
            sizes=tuple(largest_fibonacci_at_most(s) for s in self.sizes),
        )


def epoch_schedule(n: int, beta: float) -> EpochSchedule:
    """Sizes beta^i for epochs i < count, with the first-in-time epoch
    absorbing the remaining n - sum(beta^i) updates."""
    if not 2 <= beta <= n / 2:
        raise ValueError(f"beta={beta} outside [2, n/2] for n={n}")
    if float(beta).is_integer():
        beta = int(beta)
    count = 1
    power = beta
    while power * beta <= n:
        power *= beta
        count += 1
    smaller = [int(beta**i) for i in range(1, count)]
    top = n - sum(smaller)
    sizes = tuple([top] + smaller[::-1])
    if any(s < 1 for s in sizes):
        raise ValueError(f"degenerate epoch sizes {sizes} for n={n}, beta={beta}")
    return EpochSchedule(n=n, beta=float(beta), sizes=sizes)


@dataclass(frozen=True)
class EpochUpdates:
    """One epoch's updates: targets are positions (artificial) or
    points (dominance), weights line up with targets."""

    epoch: int
    targets: tuple
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.targets) != len(self.weights):
            raise ValueError("targets/weights length mismatch")


@dataclass(frozen=True)
class UpdateSequence:
    epochs: tuple[EpochUpdates, ...]  # time order, largest epoch first

    def epoch(self, epoch_id: int) -> EpochUpdates:
        for e in self.epochs:
            if e.epoch == epoch_id:
                return e
        raise KeyError(epoch_id)

    def u(self, epoch_id: int) -> tuple[int, ...]:
        """The epoch's weight vector (targets are fixed, weights vary)."""
        return self.epoch(epoch_id).weights

    def prefix_above(self, istar: int) -> "UpdateSequence":
        """Updates of the epochs preceding istar in time (ids > istar)."""
        return UpdateSequence(epochs=tuple(e for e in self.epochs if e.epoch > istar))


@dataclass
class RunRecord:
    kind: str
    n: int
    beta: float
    seed: int
    w: int
    delta: PrimeModulus
    schedule: EpochSchedule  # ideal beta^i schedule
    run_schedule: EpochSchedule  # executed sizes (snapped for dominance runs)
    updates: UpdateSequence
    memory: SimulatedMemory
    structure: DynamicStructure
    structure_factory: Callable[[SimulatedMemory], DynamicStructure]
    family: QueryFamily | None
    epoch_points: dict[int, tuple[tuple[int, int], ...]] | None

    def cells_of_epoch(self, epoch_id: int) -> set[tuple[int, int]]:
        return self.memory.cells_of_epoch(epoch_id)

    def epoch_of_position(self, position: int) -> int:
        """Epoch id owning the update at the given sequence position."""
        sched = self.run_schedule
        offset = 0
        for epoch_id in sched.epoch_ids():
            offset += sched.size_of(epoch_id)
            if position < offset:
                return epoch_id
        raise ValueError(f"position {position} beyond {sched.total} updates")


def default_run_cell_width(kind: str, n: int, delta: PrimeModulus, capacity: int) -> int:
    """The cell width of every run: the smallest multiple of 8 wide
    enough for addresses and for whole weights/counters in one cell."""
    weight_bits = (delta.value - 1).bit_length()
    if kind == "artificial":
        need = max(ceil_lg(n), weight_bits)
    else:
        counter_bits = max(1, (capacity * (delta.value - 1)).bit_length())
        need = max(ceil_lg(n), ceil_lg(n * n), counter_bits)
    return -(-need // 8) * 8


def structure_factory(
    kind: str,
    n: int,
    delta: PrimeModulus,
    family: QueryFamily | None = None,
    capacity: int | None = None,
) -> Callable[[SimulatedMemory], DynamicStructure]:
    if kind == "artificial":
        if family is None:
            raise ValueError("artificial structures need a query family")
        return lambda memory: NaiveArtificialStructure(family, delta, memory)
    if kind == "orc":
        if capacity is None:
            raise ValueError("dominance structures need a capacity")
        return lambda memory: PrefixSumRangeStructure(n, delta, memory, capacity=capacity)
    raise ValueError(f"unknown kind {kind!r}")


def execute_epochs(
    structure: DynamicStructure,
    memory: SimulatedMemory,
    updates: UpdateSequence,
) -> None:
    """Apply epochs largest-first, enforcing the declared update bound."""
    for epoch in updates.epochs:
        memory.begin_epoch(epoch.epoch)
        for j, (target, weight) in enumerate(zip(epoch.targets, epoch.weights)):
            memory.begin_operation(("upd", epoch.epoch, j))
            before = memory.probes
            structure.update(target, weight)
            used = memory.probes - before
            if used > structure.declared_update_probes:
                raise AssertionError(
                    f"update ({epoch.epoch}, {j}) probed {used} cells, declared "
                    f"bound is {structure.declared_update_probes}"
                )


def executed_schedule(
    kind: str, schedule: EpochSchedule, lattices_up_to: int | None = None
) -> tuple[EpochSchedule, dict[int, tuple[tuple[int, int], ...]] | None]:
    """The schedule a run of this kind executes and, for dominance runs,
    the scaled lattice each epoch inserts (only epochs up to
    `lattices_up_to`, when given). A dominance epoch's size is snapped
    to a Fibonacci number so that the epoch can insert a lattice."""
    if kind != "orc":
        return schedule, None
    run_sched = schedule.snap_to_fibonacci()
    top = run_sched.count if lattices_up_to is None else lattices_up_to
    return run_sched, {
        i: scaled_lattice(LatticeSpec.create(run_sched.size_of(i), schedule.n))
        for i in run_sched.epoch_ids()
        if i <= top
    }


def run_hard_distribution(kind: str, n: int, beta: float, seed: int) -> RunRecord:
    """Execute the full hard distribution for one seed, on cells of the
    width `default_run_cell_width` derives.

    Deterministic given the seed: weights, the query family (artificial
    runs) and the epoch point sets are all reproduced exactly.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    delta = field_modulus(n)
    schedule = epoch_schedule(n, beta)
    run_sched, epoch_points = executed_schedule(kind, schedule)

    family = None
    if kind == "artificial":
        family = build_query_family(
            QueryFamilyParams(n=n, modulus=delta, seed=substream_seed(seed, "family"))
        )

    weights_rng = substream(seed, "weights")
    epochs = []
    position = 0
    for epoch_id in run_sched.epoch_ids():
        size = run_sched.size_of(epoch_id)
        if kind == "artificial":
            targets: tuple = tuple(range(position, position + size))
            position += size
        else:
            targets = epoch_points[epoch_id]
        weights = tuple(weights_rng.randrange(delta.value) for _ in range(size))
        epochs.append(EpochUpdates(epoch=epoch_id, targets=targets, weights=weights))
    updates = UpdateSequence(epochs=tuple(epochs))

    w = default_run_cell_width(kind, n, delta, run_sched.total)
    memory = SimulatedMemory(MemoryConfig(w=w))
    factory = structure_factory(
        kind, n, delta, family=family, capacity=run_sched.total if kind == "orc" else None
    )
    instance = factory(memory)
    execute_epochs(instance, memory, updates)

    epoch_sizes = Counter(memory.tags.values())
    for epoch_id in run_sched.epoch_ids():
        bound = run_sched.size_of(epoch_id) * instance.declared_update_probes
        if epoch_sizes[epoch_id] > bound:
            raise AssertionError(
                f"|S_{epoch_id}| = {epoch_sizes[epoch_id]} exceeds size * t_u = {bound}"
            )

    return RunRecord(
        kind=kind,
        n=n,
        beta=beta,
        seed=seed,
        w=w,
        delta=delta,
        schedule=schedule,
        run_schedule=run_sched,
        updates=updates,
        memory=memory,
        structure=instance,
        structure_factory=factory,
        family=family,
        epoch_points=epoch_points,
    )


@dataclass
class ProbeProfile:
    """Per-query, per-epoch distinct-cell probe counts for one run."""

    epochs: tuple[int, ...]  # descending epoch ids
    queries: tuple
    counts: tuple[dict[int, int], ...]
    totals: tuple[int, ...]
    log: ProbeTrace = field(compare=False, repr=False)  # the queries' scoped probe log

    def t(self, query_index: int, epoch: int) -> int:
        return self.counts[query_index].get(epoch, 0)

    def mean_t(self, epoch: int) -> float:
        if not self.queries:
            return 0.0
        return sum(c.get(epoch, 0) for c in self.counts) / len(self.queries)

    def max_t(self, epoch: int) -> int:
        return max((c.get(epoch, 0) for c in self.counts), default=0)

    def total_mean(self) -> float:
        """Estimate of the total query cost: sum of per-epoch means."""
        return sum(self.mean_t(i) for i in self.epochs)

    def export_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "queries_sampled", "mean_t_i", "max_t_i"])
            for epoch in self.epochs:
                writer.writerow(
                    [epoch, len(self.queries), self.mean_t(epoch), self.max_t(epoch)]
                )


def replay_queries(
    structure: DynamicStructure, queries: Iterable, log: ProbeTrace | None = None
) -> Iterator[tuple[int, array]]:
    """Ask the structure the queries one at a time after its updates,
    logging their probes in `log` with op ids ("qry", index), and yield
    each query's answer and probed addresses as it finishes. Without a
    `log`, each query runs in a log of its own, dropped after its
    addresses are yielded. The memory's own log and probe count are
    put back around every yield, so they are left as they were. A query
    that writes raises AssertionError: a query must not mutate the run
    it reads."""
    memory = structure.memory
    saved, probes = memory.trace, memory.probes
    for idx, q in enumerate(queries):
        scoped = ProbeTrace() if log is None else log
        scoped.begin(("qry", idx))
        start = len(scoped)
        memory.trace = scoped
        try:
            answer = structure.query(q)
        finally:
            memory.trace, memory.probes = saved, probes
        write = scoped.kinds.find(1, start)
        if write >= 0:
            raise AssertionError(f"query {q!r} wrote cell {scoped.addresses[write]}")
        yield answer, scoped.segment(("qry", idx))


def epoch_probe_profile(run: RunRecord, queries: Sequence) -> ProbeProfile:
    """Execute the sample read-only after all updates and count, per
    query, the distinct cells probed from each epoch's cell set."""
    log = ProbeTrace()
    counts = tuple(
        probe_counts_by_epoch(addresses, run.memory)
        for _, addresses in replay_queries(run.structure, queries, log)
    )
    return ProbeProfile(
        epochs=tuple(run.run_schedule.epoch_ids()),
        queries=tuple(queries),
        counts=counts,
        totals=tuple(sum(by_epoch.values()) for by_epoch in counts),
        log=log,
    )


def analytic_epoch_counts(run: RunRecord, j: int) -> dict[int, int]:
    """Exact probe profile of the naive structure for query j: per
    epoch, the number of 1-coordinates whose position that epoch owns."""
    if run.kind != "artificial" or run.family is None:
        raise ValueError("the analytic profile is for artificial runs")
    result = {i: 0 for i in run.run_schedule.epoch_ids()}
    for position, bit in enumerate(run.family.vectors[j]):
        if bit:
            result[run.epoch_of_position(position)] += 1
    return result
