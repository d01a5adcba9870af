import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cplab.fibonacci_lattice import LatticeSpec, scaled_lattice
from cplab.finite_field import largest_prime_below
from cplab.grid_analysis import (
    WELL_SEPARATED_BASELINES,
    Grid,
    build_grid_family,
    cell_representatives,
    cross_out_extract,
    effective_epoch_index,
    hitting_number,
    sample_slab_queries,
    separation_area_threshold,
    survivor_rank,
    well_separated_frequency,
    well_separated_subset,
)


class TestGrid:
    def test_cell_indexing(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        assert grid.cell_of((0, 0)) == (0, 0)
        assert grid.cell_of((4, 9)) == (0, 1)
        assert grid.cell_of((24, 24)) == (4, 4)
        assert grid.columns == 5 and grid.rows == 5

    def test_query_outside_extent(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        with pytest.raises(ValueError):
            grid.cell_of((25, 0))

    def test_degenerate_cells_rejected(self):
        with pytest.raises(ValueError):
            Grid(width=Fraction(1, 2), height=Fraction(5), extent=25)

    def test_fractional_widths_tile_correctly(self):
        grid = Grid(width=Fraction(25, 2), height=Fraction(25, 3), extent=25)
        assert grid.columns == 2 and grid.rows == 3
        assert grid.cell_of((12, 8)) == (0, 0)
        assert grid.cell_of((13, 8)) == (1, 0)


class TestGridFamily:
    def test_example_dimensions(self):
        grids = build_grid_family(64, 4, 4**3)
        assert list(grids) == [2, 3, 4]
        g2 = grids[2]
        assert (g2.width, g2.height) == (Fraction(4), Fraction(16))

    def test_constant_cell_area(self):
        for grid in build_grid_family(64, 4, 4**3).values():
            assert grid.width * grid.height == Fraction(64 * 64, 4**3)
            assert not grid.rounded

    def test_snapped_epoch_size_override(self):
        grid = build_grid_family(440, 5, 55)[2]
        assert (grid.width, grid.height) == (Fraction(40), Fraction(88))
        assert grid.width * grid.height == Fraction(440 * 440, 55)

    def test_small_epoch_rejected(self):
        with pytest.raises(ValueError):
            build_grid_family(64, 4, 4**1)

    def test_irrational_dimensions_floored(self):
        g3 = build_grid_family(125, 5, 5**3)[3]  # odd index, non-square beta
        assert g3.rounded
        assert g3.width >= 1 and g3.height >= 1

    def test_effective_epoch_index(self):
        # the largest i >= 1 with beta^i <= epoch size
        assert effective_epoch_index(5, 55) == 2
        assert effective_epoch_index(5, 25) == 2
        assert effective_epoch_index(5, 24) == 1
        assert effective_epoch_index(5, 3) == 1
        assert effective_epoch_index(4, 64) == 3
        for beta in (1, 0.5, float("nan")):  # no power of beta outgrows the epoch
            with pytest.raises(ValueError):
                effective_epoch_index(beta, 55)


class TestHittingNumber:
    def test_empty(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        assert hitting_number([], grid) == 0

    def test_example(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        assert hitting_number([(1, 1), (6, 6), (7, 8)], grid) == 2

    def test_single_cell(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        assert hitting_number([(0, 0), (1, 1), (2, 3)], grid) == 1

    def test_monotone_under_inclusion(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        queries = [(1, 1), (6, 6), (7, 8), (20, 20), (13, 2)]
        for cut in range(len(queries)):
            assert hitting_number(queries[:cut], grid) <= hitting_number(
                queries[: cut + 1], grid
            )

    def test_representatives_lowest_per_cell(self):
        grid = Grid(width=Fraction(5), height=Fraction(5), extent=25)
        reps = cell_representatives([(7, 8), (6, 6), (1, 1)], grid)
        assert reps == [(1, 1), (6, 6)]


class TestWellSeparated:
    def test_single_query(self):
        assert well_separated_subset([(3, 3)], 1000) == [(3, 3)]

    def test_close_pair_excluded(self):
        assert well_separated_subset([(0, 0), (1, 1)], 4) == []

    def test_far_pair_included(self):
        assert well_separated_subset([(0, 0), (10, 10)], 4) == [(0, 0), (10, 10)]

    def test_degenerate_side_is_area_zero(self):
        assert well_separated_subset([(0, 0), (0, 10)], 1) == []

    def test_threshold_value(self):
        thr = separation_area_threshold(440, 5, 55)
        assert thr == pytest.approx(440 * 440 * 5**0.5 / 55)


class TestSlabSampling:
    def test_count_and_bounds(self):
        sample = sample_slab_queries(440, 5, seed=0, epoch_size=55)
        assert len(sample) == 11
        for h, (x, y) in enumerate(sample):
            assert h * 40 <= x < (h + 1) * 40
            assert 0 <= y < 440

    def test_deterministic(self):
        a = sample_slab_queries(128, 4, seed=5, epoch_size=4**3)
        b = sample_slab_queries(128, 4, seed=5, epoch_size=4**3)
        assert a == b
        assert len(a) == 16

    def test_too_many_slabs(self):
        with pytest.raises(ValueError):
            sample_slab_queries(8, 2, seed=0, epoch_size=2**5)


class TestCrossOut:
    GRID = Grid(width=Fraction(10), height=Fraction(10), extent=100)

    def test_empty_input(self):
        result = cross_out_extract([], self.GRID)
        assert result.survivors == ()
        assert result.initial == 0
        points = scaled_lattice(LatticeSpec.create(13, 100))
        assert survivor_rank(points, result.survivors, largest_prime_below(100**4)) == 0

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError):
            cross_out_extract([(0, 0), (1, 1)], self.GRID)

    def test_interior_query_survives_with_rank_one(self):
        result = cross_out_extract([(55, 55)], self.GRID)
        assert result.survivors == ((55, 55),)
        points = scaled_lattice(LatticeSpec.create(13, 100))
        delta = largest_prime_below(100**4)
        assert survivor_rank(points, result.survivors, delta) == 1

    def test_boundary_rows_and_columns_removed(self):
        queries = [(5, 5), (5, 55), (55, 5), (55, 55)]
        result = cross_out_extract(queries, self.GRID)
        assert result.boundary_removed == 3
        # a lone interior query always survives the parity passes
        assert result.survivors == ((55, 55),)

    def test_size_bound_holds(self):
        for seed in range(30):
            sample = sample_slab_queries(440, 5, seed=seed, epoch_size=55)
            grid = build_grid_family(440, 5, 55)[2]
            reps = cell_representatives(sample, grid)
            result = cross_out_extract(reps, grid)
            assert len(result.survivors) >= (result.initial - result.boundary_removed) / 16
            assert result.initial == len(reps)

    def test_survivor_incidence_rank_is_full(self):
        n, beta, m = 440, 5, 55
        delta = largest_prime_below(n**4)
        points = scaled_lattice(LatticeSpec.create(m, n))
        grid = build_grid_family(n, beta, m)[2]
        for seed in range(20):
            sample = sample_slab_queries(n, beta, seed=seed, epoch_size=m)
            reps = cell_representatives(sample, grid)
            survivors = cross_out_extract(reps, grid).survivors
            assert survivor_rank(points, survivors, delta) == len(survivors)

    def test_surviving_cells_have_gaps(self):
        # survivors sit in columns/rows with >= 3 crossed lines between
        queries = [(x * 10 + 5, y * 10 + 5) for x in range(10) for y in range(10)]
        result = cross_out_extract(queries, self.GRID)
        cols = sorted({self.GRID.cell_of(q)[0] for q in result.survivors})
        rows = sorted({self.GRID.cell_of(q)[1] for q in result.survivors})
        assert all(b - a >= 4 for a, b in zip(cols, cols[1:]))
        assert all(b - a >= 4 for a, b in zip(rows, rows[1:]))


class TestFrequencies:
    def test_frequency_deterministic(self):
        a = well_separated_frequency(440, 5, 55, trials=50, seed_base=0)
        b = well_separated_frequency(440, 5, 55, trials=50, seed_base=0)
        assert a == b

    def test_midrange_configuration(self):
        freq = well_separated_frequency(1024, 64, 512, trials=300, seed_base=0)
        assert 0.2 < freq < 0.45


def test_calibration_script_prints_one_frequency_per_baseline():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "calibrate_well_separated.py"), "--trials", "20"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if "frequency=" in line]
    assert [line.split(":")[0] for line in lines] == [
        f"n={b.n} beta={b.beta:g} m={b.epoch_size}" for b in WELL_SEPARATED_BASELINES
    ]
