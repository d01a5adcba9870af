import csv
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from cplab.fibonacci_lattice import (
    A1,
    A2,
    LatticeSpec,
    RectangleSweep,
    check_all_lattice_rectangles,
    dominance_incidence,
    fibonacci_predecessor,
    largest_fibonacci_at_most,
    scaled_lattice,
)
from cplab.rng import substream


# Reference for the rectangle sweep: one rectangle at a time, by brute force.


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: int
    x1: int
    y0: int
    y1: int

    def __post_init__(self) -> None:
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError("rectangle sides must be ordered")

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def count_in_rectangle(points: Iterable[tuple[int, int]], rect: Rect) -> int:
    """Brute-force closed-rectangle membership count."""
    return sum(
        1
        for (x, y) in points
        if rect.x0 <= x <= rect.x1 and rect.y0 <= y <= rect.y1
    )


@dataclass(frozen=True)
class BoundCheck:
    alpha: float
    lower: int
    upper: int
    actual: int
    passed: bool


def check_area_bounds(
    spec: LatticeSpec,
    rect: Rect,
    slack: int = 1,
    points: tuple[tuple[int, int], ...] | None = None,
) -> BoundCheck:
    """Test floor(alpha/A1) - slack <= count <= ceil(alpha/A2) + slack.

    alpha is the rectangle area in units of n^2/m. The rectangle must
    lie inside [0, n - n/m]^2, the domain on which the bound holds.
    Bounds are computed with exact rational arithmetic.
    """
    m, n = spec.m, spec.n
    # domain test m*x1 <= m*n - n avoids forming the rational n/m
    if rect.x0 < 0 or rect.y0 < 0 or m * rect.x1 > m * n - n or m * rect.y1 > m * n - n:
        raise ValueError(f"rectangle {rect} outside the bound's domain [0, n - n/m]^2")
    alpha = Fraction(rect.area * m, n * n)
    lower = math.floor(alpha / A1)
    upper = math.ceil(alpha / A2)
    if points is None:
        points = scaled_lattice(spec)
    actual = count_in_rectangle(points, rect)
    passed = lower - slack <= actual <= upper + slack
    return BoundCheck(alpha=float(alpha), lower=lower, upper=upper, actual=actual, passed=passed)


class TestFibonacci:
    def test_base_case(self):
        assert fibonacci_predecessor(1) == 1
        assert fibonacci_predecessor(2) == 1

    def test_recurrence_values(self):
        assert fibonacci_predecessor(5) == 3
        assert fibonacci_predecessor(55) == 34

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fibonacci_predecessor(0)

    def test_is_fibonacci(self):
        def accepted(m):
            try:
                fibonacci_predecessor(m)
            except ValueError:
                return False
            return True

        assert [m for m in range(1, 60) if accepted(m)] == [1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_largest_at_most(self):
        assert largest_fibonacci_at_most(1) == 1
        assert largest_fibonacci_at_most(25) == 21
        assert largest_fibonacci_at_most(410) == 377
        with pytest.raises(ValueError):
            largest_fibonacci_at_most(0)


class TestScaledLattice:
    def test_single_point(self):
        assert list(scaled_lattice(LatticeSpec.create(1, 8))) == [(0, 0)]

    def test_five_points_scaled(self):
        points = list(scaled_lattice(LatticeSpec.create(5, 25)))
        assert points == [(0, 0), (5, 15), (10, 5), (15, 20), (20, 10)]

    def test_eight_points_unit_scale(self):
        points = list(scaled_lattice(LatticeSpec.create(8, 8)))
        assert points == [(0, 0), (1, 5), (2, 2), (3, 7), (4, 4), (5, 1), (6, 6), (7, 3)]

    def test_non_fibonacci_size_rejected(self):
        with pytest.raises(ValueError):
            LatticeSpec.create(6, 12)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 21])
    def test_unscaled_second_coordinates_are_a_permutation(self, m):
        ys = [y for _, y in scaled_lattice(LatticeSpec.create(m, m))]  # n = m: unscaled
        assert sorted(ys) == list(range(m))

    @pytest.mark.parametrize("m,n", [(5, 25), (8, 8), (13, 100), (21, 21 * 8)])
    def test_one_distinct_point_per_column(self, m, n):
        points = list(scaled_lattice(LatticeSpec.create(m, n)))
        assert len(points) == m
        assert len(set(points)) == m
        assert [x for x, _ in points] == [j * n // m for j in range(m)]


class TestCountInRectangle:
    def test_rectangle_beyond_extent(self):
        points = scaled_lattice(LatticeSpec.create(8, 8))
        assert count_in_rectangle(points, Rect(100, 200, 100, 200)) == 0

    def test_unscaled_f8(self):
        points = scaled_lattice(LatticeSpec.create(8, 8))
        assert count_in_rectangle(points, Rect(0, 3, 0, 3)) == 2

    def test_scaled_f5(self):
        points = scaled_lattice(LatticeSpec.create(5, 25))
        assert count_in_rectangle(points, Rect(0, 20, 0, 20)) == 5


class TestAreaBounds:
    def test_constants_ordering_enforced(self):
        assert (A1, A2) == (Fraction(19, 10), Fraction(9, 20))
        assert A1 > A2 > 0

    def test_example_rectangle(self):
        check = check_area_bounds(LatticeSpec.create(5, 25), Rect(0, 20, 0, 20))
        assert check == BoundCheck(alpha=3.2, lower=1, upper=8, actual=5, passed=True)

    def test_zero_area_rectangle(self):
        check = check_area_bounds(LatticeSpec.create(5, 25), Rect(10, 10, 5, 5))
        assert check.lower == 0
        assert check.actual >= 0
        assert check.passed

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            check_area_bounds(LatticeSpec.create(5, 25), Rect(0, 21, 0, 20))

    def test_random_rectangles_m55_unit_scale(self):
        # 10^4 random rectangles inside the bound's domain all pass
        spec = LatticeSpec.create(55, 55)
        points = scaled_lattice(spec)
        rng = substream(55, "lattice-random-rects")
        limit = 55 - 1  # n - n/m
        for _ in range(10_000):
            x0, x1 = sorted((rng.randint(0, limit), rng.randint(0, limit)))
            y0, y1 = sorted((rng.randint(0, limit), rng.randint(0, limit)))
            check = check_area_bounds(spec, Rect(x0, x1, y0, y1), points=points)
            assert check.passed, (x0, x1, y0, y1, check)


class TestRectangleSweep:
    @pytest.mark.parametrize("m", [13, 21])
    def test_exhaustive_sweep_passes(self, m):
        sweep = check_all_lattice_rectangles(m, 8 * m)
        per_axis = m * (m + 1) // 2
        assert sweep.rectangles == per_axis * per_axis
        assert sweep.violations == 0

    def test_sweep_counting_agrees_with_brute_force(self):
        # the sweeps count in index space (columns a..b, rows c..d of the
        # permutation); check that against the brute-force scan on random
        # lattice rectangles
        m, n = 13, 104
        spec = LatticeSpec.create(m, n)
        points = scaled_lattice(spec)
        coords = [j * n // m for j in range(m)]
        perm = [(j * spec.multiplier) % m for j in range(m)]
        rng = substream(9, "sweep-cross-check")
        for _ in range(300):
            a, b = sorted((rng.randrange(m), rng.randrange(m)))
            c, d = sorted((rng.randrange(m), rng.randrange(m)))
            rect = Rect(coords[a], coords[b], coords[c], coords[d])
            brute = count_in_rectangle(points, rect)
            prefix = sum(1 for j in range(a, b + 1) if c <= perm[j] <= d)
            assert brute == prefix
            assert check_area_bounds(spec, rect, points=points).passed

    @pytest.mark.parametrize("slack,violations", [(-1, 3872), (0, 912), (1, 0)])
    def test_sweep_bounds_agree_with_reference(self, slack, violations):
        # the sweep's integer floor/ceil against the exact rational bounds,
        # over every lattice rectangle; at slack < 1 some must fail
        m, n = 13, 104
        spec = LatticeSpec.create(m, n)
        points = scaled_lattice(spec)
        coords = [j * n // m for j in range(m)]
        spans = [(a, b) for a in coords for b in coords if a <= b]
        failed = sum(
            not check_area_bounds(spec, Rect(x0, x1, y0, y1), slack, points).passed
            for x0, x1 in spans
            for y0, y1 in spans
        )
        assert failed == violations
        assert check_all_lattice_rectangles(m, n, slack).violations == violations


def reference_sweep(m: int, n: int, slack: int = 1) -> RectangleSweep:
    """Reference for check_all_lattice_rectangles, in int64 arrays: full
    m x m count and bound arrays per x-range, one prefix sum over the
    column->row permutation per (a, b), masked to c <= d."""
    spec = LatticeSpec.create(m, n)
    xs = np.array([j * n // m for j in range(m)], dtype=np.int64)
    ys = xs.copy()
    perm = np.array([(j * spec.multiplier) % m for j in range(m)], dtype=np.int64)
    if np.any(m * xs > m * n - n):
        raise ValueError("lattice coordinates leave the bound's domain")
    n2 = n * n
    rectangles = 0
    violations = 0
    hy = ys[None, :] - ys[:, None]  # hy[c, d] = ys[d] - ys[c]
    upper_tri = np.triu(np.ones((m, m), dtype=bool))
    a1_num, a1_den = A1.numerator, A1.denominator
    a2_num, a2_den = A2.numerator, A2.denominator
    for a in range(m):
        indicator = np.zeros(m + 1, dtype=np.int64)
        for b in range(a, m):
            indicator[perm[b] + 1] += 1
            cums = np.cumsum(indicator)
            counts = cums[None, 1:] - cums[:-1, None]  # counts[c, d]
            area = (xs[b] - xs[a]) * hy * m
            lower = (a1_den * area) // (a1_num * n2)
            upper = -((-a2_den * area) // (a2_num * n2))
            bad = (counts < lower - slack) | (counts > upper + slack)
            violations += int(np.count_nonzero(bad & upper_tri))
            rectangles += int(np.count_nonzero(upper_tri))
    return RectangleSweep(rectangles=rectangles, violations=violations)


class TestSweepAgainstReference:
    # n = 6m + ceil(m/2) is not a multiple of m (for m > 1), and n/m is
    # about 6.5, so the floor-scaled x-widths of b - a columns take two values
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_sweep_equals_reference(self, m):
        for n in (m, 8 * m, 6 * m + (m + 1) // 2):
            for slack in (-1, 0, 1, 2):
                expected = reference_sweep(m, n, slack)
                assert check_all_lattice_rectangles(m, n, slack) == expected, (n, slack)

    # m = 89 is criterion 1's largest lattice and the largest Fibonacci
    # size whose counts fit 1-byte fields
    @pytest.mark.parametrize("n", [89, 712])
    @pytest.mark.parametrize("slack", [0, 1])
    def test_sweep_equals_reference_at_m89(self, n, slack):
        assert check_all_lattice_rectangles(89, n, slack) == reference_sweep(89, n, slack)

    def test_sweep_equals_reference_with_2_byte_fields(self):
        # m = 144 is the first Fibonacci size with m + 1 >= 128, so its
        # fields take 2 bytes; slack 0 makes some rectangles fail
        expected = reference_sweep(144, 144, 0)
        assert expected.violations > 0
        assert check_all_lattice_rectangles(144, 144, 0) == expected


SRC = Path(__file__).resolve().parents[1] / "src"


def test_cplab_never_loads_numpy(tmp_path):
    # the rectangle sweep runs on packed ints: importing cplab, the sweep,
    # criterion 1 and `cplab lattice` all leave numpy unloaded
    code = (
        "import sys\n"
        "import cplab.cli, cplab.acceptance, cplab.chronogram, cplab.encoding_game\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded at import'\n"
        "from cplab.fibonacci_lattice import check_all_lattice_rectangles\n"
        "check_all_lattice_rectangles(13, 104)\n"
        "assert 'numpy' not in sys.modules, 'the sweep loaded numpy'\n"
        "assert cplab.acceptance.AcceptanceSuite().fibonacci_area_bounds().passed\n"
        "assert 'numpy' not in sys.modules, 'criterion 1 loaded numpy'\n"
        f"assert cplab.cli.main(['lattice', '--m', '13', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'cplab lattice loaded numpy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_sweep_script_writes_one_row_per_size(tmp_path):
    out = tmp_path / "sweep.csv"
    script = SRC.parent / "scripts" / "sweep_lattice_bounds.py"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, str(script), "--sizes", "13", "21", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["m", "n", "rectangles", "violations", "seconds"]
    assert [row[:4] for row in rows[1:]] == [["13", "104", "8281", "0"], ["21", "168", "53361", "0"]]


class TestSweepPastInt64:
    @pytest.mark.parametrize("slack,violations", [(0, 14532), (1, 0)])
    def test_bounds_do_not_depend_on_the_scale(self, slack, violations):
        # with m | n every area in units of n^2/m is the same as at n = m,
        # so the sweep must not change where w * h * m overflows int64
        m = 34
        assert check_all_lattice_rectangles(m, m, slack).violations == violations
        assert check_all_lattice_rectangles(m, m * 10**9, slack).violations == violations


class TestDominanceIncidence:
    def test_masks(self):
        points = scaled_lattice(LatticeSpec.create(5, 25))
        assert dominance_incidence(points, (24, 24)) == (1, 1, 1, 1, 1)
        assert dominance_incidence(points, (12, 16)) == (1, 1, 1, 0, 0)
        assert dominance_incidence(points, (0, 0)) == (1, 0, 0, 0, 0)
