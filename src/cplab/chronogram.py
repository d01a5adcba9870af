"""Epoch schedules, hard-distribution runs, and per-epoch probe
accounting.

Epochs are numbered largest-first in time: epoch `count` performs the
first block of updates, epoch 1 the last. For the dominance problem
each epoch size is snapped to the largest Fibonacci number not above
it so the epoch can insert a scaled lattice; a run records the snapped
schedule it executed. The final query of the distribution is
generalised to a seeded query sample so per-epoch averages come out of
a single run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
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
            n=self.n, sizes=tuple(largest_fibonacci_at_most(s) for s in self.sizes)
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
    return EpochSchedule(n=n, sizes=sizes)


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

    def u(self, epoch_id: int) -> tuple[int, ...]:
        """The epoch's weight vector (targets are fixed, weights vary)."""
        for e in self.epochs:
            if e.epoch == epoch_id:
                return e.weights
        raise KeyError(epoch_id)

    def prefix_above(self, istar: int) -> "UpdateSequence":
        """Updates of the epochs preceding istar in time (ids > istar)."""
        return UpdateSequence(epochs=tuple(e for e in self.epochs if e.epoch > istar))


@dataclass
class RunRecord:
    kind: str
    n: int
    beta: float
    w: int
    delta: PrimeModulus
    run_schedule: EpochSchedule  # executed sizes (snapped for dominance runs)
    updates: UpdateSequence
    memory: SimulatedMemory
    structure: DynamicStructure
    structure_factory: Callable[[SimulatedMemory], DynamicStructure]
    family: QueryFamily | None
    epoch_points: dict[int, tuple[tuple[int, int], ...]] | None

    def cells_of_epoch(self, epoch_id: int) -> set[tuple[int, int]]:
        return self.memory.cells_of_epoch(epoch_id)


def default_run_cell_width(kind: str, n: int, delta: PrimeModulus, capacity: int) -> int:
    """The cell width of every run: the smallest multiple of 8 wide
    enough for addresses and for whole weights/counters in one cell."""
    weight_bits = (delta.value - 1).bit_length()
    if kind == "artificial":
        need = max(ceil_lg(n), weight_bits)
    else:
        counter_bits = (capacity * (delta.value - 1)).bit_length()
        need = max(ceil_lg(n * n), counter_bits)
    return -(-need // 8) * 8


def execute_epochs(
    structure: DynamicStructure,
    memory: SimulatedMemory,
    updates: UpdateSequence,
) -> None:
    """Apply epochs largest-first, enforcing the declared update bound."""
    update, bound = structure.update, structure.declared_update_probes
    begin_operation = memory.begin_operation
    for epoch in updates.epochs:
        memory.begin_epoch(epoch.epoch)
        for j, (target, weight) in enumerate(zip(epoch.targets, epoch.weights)):
            begin_operation(("upd", epoch.epoch, j))
            before = memory.probes
            update(target, weight)
            used = memory.probes - before
            if used > bound:
                raise AssertionError(
                    f"update ({epoch.epoch}, {j}) probed {used} cells, declared "
                    f"bound is {bound}"
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
    run_sched, epoch_points = executed_schedule(kind, epoch_schedule(n, beta))

    if kind == "artificial":
        family = build_query_family(QueryFamilyParams(n=n, seed=substream_seed(seed, "family")))
        positions = iter(range(n))  # each epoch updates the next block of positions
        targets = {
            i: tuple(islice(positions, run_sched.size_of(i))) for i in run_sched.epoch_ids()
        }
        factory = lambda memory: NaiveArtificialStructure(family, memory)
    else:
        family, targets = None, epoch_points
        capacity = run_sched.total
        factory = lambda memory: PrefixSumRangeStructure(n, delta, memory, capacity=capacity)

    weights_rng = substream(seed, "weights")
    updates = UpdateSequence(
        epochs=tuple(
            EpochUpdates(
                epoch=i,
                targets=targets[i],
                weights=tuple(weights_rng.randrange(delta.value) for _ in targets[i]),
            )
            for i in run_sched.epoch_ids()
        )
    )

    w = default_run_cell_width(kind, n, delta, run_sched.total)
    memory = SimulatedMemory(MemoryConfig(w=w))
    instance = factory(memory)
    execute_epochs(instance, memory, updates)

    return RunRecord(
        kind=kind,
        n=n,
        beta=beta,
        w=w,
        delta=delta,
        run_schedule=run_sched,
        updates=updates,
        memory=memory,
        structure=instance,
        structure_factory=factory,
        family=family,
        epoch_points=epoch_points,
    )


def replay_queries(
    structure: DynamicStructure, queries: Iterable
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Ask the structure the queries one at a time after its updates and
    yield each query's answer and probed addresses, a tuple in probe
    order. This is the only way to read a cell: the memory records a
    query's reads in `replay_reads`, and refuses its writes before they
    land (a query must not mutate the run it reads)."""
    memory = structure.memory
    for q in queries:
        reads = memory.replay_reads = []
        try:
            answer = structure.query(q)
        finally:
            memory.replay_reads = None
        yield answer, reads[0] if len(reads) == 1 else tuple(chain.from_iterable(reads))


def epoch_probe_profile(
    run: RunRecord, queries: Sequence
) -> tuple[list[dict[int, int]], ProbeTrace]:
    """Execute the sample read-only after all updates and count, per
    query, the distinct cells probed from each epoch's cell set: one
    `{epoch: distinct cells}` dict per query, with no entry for an epoch
    the query does not probe. The returned log gets each query's
    addresses as reads, op id ("qry", index), tagged with the memory's
    tags: a replayed query cannot write. A count-only run memory keeps
    no tags, so it raises ValueError before any query is asked."""
    memory, log = run.memory, ProbeTrace()
    tags = memory.tag_store()
    counts = []
    for idx, (_, addresses) in enumerate(replay_queries(run.structure, queries)):
        log.begin(("qry", idx))
        log.log_reads(addresses, tags)
        counts.append(probe_counts_by_epoch(addresses, memory))
    return counts, log


def analytic_epoch_counts(run: RunRecord, j: int) -> dict[int, int]:
    """Exact probe profile of the naive structure for query j: per
    epoch, the number of 1-coordinates whose position that epoch owns
    (an index-weight epoch's targets are its positions)."""
    if run.kind != "artificial" or run.family is None:
        raise ValueError("the analytic profile is for artificial runs")
    vector = run.family.coords(j)
    return {e.epoch: sum(vector[p] for p in e.targets) for e in run.updates.epochs}
