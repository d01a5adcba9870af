"""Grids over the query domain, hitting numbers, well-separated query
sampling, and the crossing-out procedure that thins a one-per-cell
query set until the surviving incidence vectors are independent.

Grid side lengths are kept as exact rationals whenever the half-integer
power of beta is rational (beta a perfect square, or an even grid
index); otherwise they are floored to integers of at least 1 and the
grid records that rounding happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .fibonacci_lattice import dominance_incidence
from .finite_field import PrimeModulus, ff_rank
from .rng import substream

Query = tuple[int, int]


@dataclass(frozen=True)
class Grid:
    """Half-open cells [j*width, (j+1)*width) x [h*height, (h+1)*height)
    tiling [0, n)^2."""

    width: Fraction
    height: Fraction
    extent: int
    rounded: bool = False

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid cells must be at least 1 wide and tall")

    @property
    def columns(self) -> int:
        return math.ceil(Fraction(self.extent) / self.width)

    @property
    def rows(self) -> int:
        return math.ceil(Fraction(self.extent) / self.height)

    def cell_of(self, q: Query) -> tuple[int, int]:
        x, y = q
        if not (0 <= x < self.extent and 0 <= y < self.extent):
            raise ValueError(f"query {q} outside [0, {self.extent})^2")
        return (int(Fraction(x) / self.width), int(Fraction(y) / self.height))


def _beta_half_power(beta: float, j: int) -> Fraction | None:
    """beta^(j/2) as an exact Fraction when that is rational, else None."""
    if float(beta).is_integer():
        b = int(beta)
        if j % 2 == 0:
            return Fraction(b ** (j // 2))
        s = math.isqrt(b)
        if s * s == b:
            return Fraction(s**j)
    return None


def effective_epoch_index(beta: float, epoch_size: int) -> int:
    """The largest i >= 1 with beta^i <= epoch_size (1 if there is none):
    the epoch index whose grid family fits an epoch of that size."""
    if not beta > 1:  # NaN included; beta <= 1 never outgrows the epoch
        raise ValueError(f"beta={beta} must exceed 1")
    i = 1
    while beta ** (i + 1) <= epoch_size:
        i += 1
    return i


def build_grid_family(n: int, beta: float, m: int) -> dict[int, Grid]:
    """Grids G_2..G_{2i-2} for an epoch of size m, keyed by j in
    increasing order, with i its effective epoch index: G_j has width
    n/(m/beta^(j/2)) and height n/beta^(j/2), so every grid shares the
    cell area n^2/m. The actual (possibly Fibonacci-snapped) epoch size
    m stands for the ideal beta^i, so the constant-area identity tracks
    the executed lattice."""
    i = effective_epoch_index(beta, m)
    if i < 2:
        raise ValueError(f"epoch size {m} carries no grid at beta={beta}")
    grids: dict[int, Grid] = {}
    for j in range(2, 2 * i - 1):
        half = _beta_half_power(beta, j)
        if half is not None:
            width = Fraction(n) * half / m  # n / (m / beta^(j/2))
            height = Fraction(n) / half
            rounded = False
        else:
            width = Fraction(max(1, int(n * beta ** (j / 2) / m)))
            height = Fraction(max(1, int(n / beta ** (j / 2))))
            rounded = True
        width = max(width, Fraction(1))
        height = max(height, Fraction(1))
        grids[j] = Grid(width=width, height=height, extent=n, rounded=rounded)
    return grids


def hit_cells(queries: Iterable[Query], grid: Grid) -> dict[tuple[int, int], list[Query]]:
    cells: dict[tuple[int, int], list[Query]] = {}
    for q in queries:
        cells.setdefault(grid.cell_of(q), []).append(q)
    return cells


def hitting_number(queries: Iterable[Query], grid: Grid) -> int:
    """Number of distinct grid cells containing at least one query."""
    return len({grid.cell_of(q) for q in queries})


def cell_representatives(queries: Iterable[Query], grid: Grid) -> list[Query]:
    """One query per hit cell: the lowest (x, y) in each, for determinism."""
    return sorted(min(qs) for qs in hit_cells(queries, grid).values())


def well_separated_subset(queries: Sequence[Query], area_threshold: float) -> list[Query]:
    """Queries whose minimal enclosing rectangle with every other query
    has area |dx|*|dy| >= threshold; a degenerate side makes the area 0."""
    kept = []
    for idx, (x, y) in enumerate(queries):
        ok = True
        for other_idx, (ox, oy) in enumerate(queries):
            if other_idx == idx:
                continue
            if abs(x - ox) * abs(y - oy) < area_threshold:
                ok = False
                break
        if ok:
            kept.append((x, y))
    return kept


def separation_area_threshold(n: int, beta: float, epoch_size: int) -> float:
    """The enclosing-rectangle area n^2/beta^(i-1/2) below which two
    queries count as crowded, with beta^i read as the epoch size."""
    return n * n * math.sqrt(beta) / epoch_size


def sample_slab_queries(
    n: int, beta: float, seed: int, epoch_size: int
) -> tuple[Query, ...]:
    """Draw one uniform random integer point from each of the
    epoch_size/beta vertical slabs (beta^(i-1) for an epoch of size
    beta^i), in slab order."""
    slab_count = max(1, int(epoch_size / beta))
    if slab_count > n:
        raise ValueError(f"{slab_count} slabs do not fit in extent {n}")
    rng = substream(seed, "slab-sample")
    queries = []
    for h in range(slab_count):
        lo = h * n // slab_count
        hi = (h + 1) * n // slab_count
        queries.append((rng.randrange(lo, hi), rng.randrange(n)))
    return tuple(queries)


@dataclass(frozen=True)
class CrossOutResult:
    survivors: tuple[Query, ...]
    initial: int
    boundary_removed: int  # queries lost to the bottom rows / left columns


def cross_out_extract(hit_queries: Sequence[Query], grid: Grid) -> CrossOutResult:
    """Thin a one-per-cell query set so surviving cells are isolated.

    Removes the bottom two rows and leftmost two columns, then runs two
    parity passes over the remaining grid columns and two over the
    remaining rows, each pass crossing out whichever parity class holds
    fewer surviving queries (ties cross out the even ranks). Surviving
    cells end up with at least three crossed-out columns/rows between
    them, which is what makes their incidence vectors independent, and
    each parity pass keeps at least half the queries, so
    |survivors| >= (initial - boundary_removed) / 16.
    """
    cells = {}
    for q in hit_queries:
        cell = grid.cell_of(q)
        if cell in cells:
            raise ValueError("cross-out input must hold at most one query per cell")
        cells[cell] = q
    initial = len(cells)

    live = {cell: q for cell, q in cells.items() if cell[0] >= 2 and cell[1] >= 2}
    boundary_removed = initial - len(live)

    for axis, extent in ((0, grid.columns), (1, grid.rows)):
        live_indices = list(range(2, extent))
        for _ in range(2):
            ranks = {idx: r for r, idx in enumerate(live_indices)}
            by_parity = [0, 0]
            for cell in live:
                by_parity[ranks[cell[axis]] % 2] += 1
            crossed_parity = 0 if by_parity[0] <= by_parity[1] else 1
            live = {
                cell: q
                for cell, q in live.items()
                if ranks[cell[axis]] % 2 != crossed_parity
            }
            live_indices = [idx for idx in live_indices if ranks[idx] % 2 != crossed_parity]

    return CrossOutResult(
        survivors=tuple(sorted(live.values())),
        initial=initial,
        boundary_removed=boundary_removed,
    )


def survivor_rank(
    points: Sequence[tuple[int, int]], survivors: Sequence[Query], delta: PrimeModulus
) -> int:
    """Rank over Z_delta of the survivors' dominance incidence vectors
    over the points; 0 when nothing survived."""
    return ff_rank(delta, (dominance_incidence(points, q) for q in survivors))


@dataclass(frozen=True)
class WellSeparatedBaseline:
    """A recorded configuration with its oracle-calibrated frequency of
    well-separated slab samples.

    The 3/4 guarantee from the theory needs beta far beyond desk scale
    (it is vacuous here), so regressions compare against frequencies
    fixed by a prior >= 10^4-trial Monte Carlo run instead; the first
    configuration sits at the run scale of the dominance game, where
    the frequency is simply 0.
    """

    n: int
    beta: float
    epoch_size: int
    frequency: float


# frozen by scripts/calibrate_well_separated.py (20000 trials each,
# seeds starting at 1_000_000; regression runs use disjoint seeds)
WELL_SEPARATED_BASELINES: tuple[WellSeparatedBaseline, ...] = (
    WellSeparatedBaseline(440, 5.0, 55, 0.0000),
    WellSeparatedBaseline(1024, 64.0, 512, 0.3260),
    WellSeparatedBaseline(1024, 81.0, 405, 0.5349),
)


def well_separated_frequency(
    n: int, beta: float, epoch_size: int, trials: int, seed_base: int = 0
) -> float:
    """Fraction of seeded slab samples that are well-separated at the
    configuration's area threshold: at least half of a sample qualifies."""
    threshold = separation_area_threshold(n, beta, epoch_size)
    hits = 0
    for s in range(trials):
        sample = sample_slab_queries(n, beta, seed_base + s, epoch_size)
        if 2 * len(well_separated_subset(sample, threshold)) >= len(sample):
            hits += 1
    return hits / trials
