"""Fibonacci lattices, their scaling to an [n] x [n] grid, and the
rectangle point-count bounds that make them useful hard inputs.

The two-sided bound relating a rectangle's normalised area to the
number of lattice points it contains is tested with rational constants
A1 = 19/10 and A2 = 9/20 plus one point of slack; the constants are
only known approximately, and floor-scaling to grids the lattice size
does not divide shifts counts by at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

# the rectangle bound's two divisors, as exact decimals
A1 = Fraction(19, 10)
A2 = Fraction(9, 20)


def fibonacci_pair_for(m: int) -> tuple[int, int]:
    """Return (k, f_{k-1}) with f_k = m; m = 1 resolves to k = 2."""
    if m < 1:
        raise ValueError("lattice size must be >= 1")
    prev, cur, k = 1, 1, 2
    while cur < m:
        prev, cur = cur, prev + cur
        k += 1
    if cur != m:
        raise ValueError(f"{m} is not a Fibonacci number")
    return k, prev


def largest_fibonacci_at_most(x: int) -> int:
    if x < 1:
        raise ValueError("no Fibonacci number <= 0")
    prev, cur = 1, 1
    while cur <= x:
        prev, cur = cur, prev + cur
    return prev


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of a Fibonacci lattice scaled onto [0, n)^2."""

    m: int
    multiplier: int
    n: int

    @classmethod
    def create(cls, m: int, n: int) -> "LatticeSpec":
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        _, multiplier = fibonacci_pair_for(m)
        return cls(m=m, multiplier=multiplier, n=n)


def scaled_lattice(spec: LatticeSpec) -> tuple[tuple[int, int], ...]:
    """The m lattice points floor-scaled by n/m, one per column j*n//m,
    in insertion order (the order an epoch updates them)."""
    m, mult, n = spec.m, spec.multiplier, spec.n
    return tuple((j * n // m, ((j * mult) % m) * n // m) for j in range(m))


def dominance_incidence(
    points: Iterable[tuple[int, int]], q: tuple[int, int]
) -> tuple[int, ...]:
    """0/1 mask, in point order, of the points dominated by q."""
    qx, qy = q
    return tuple(1 if (x <= qx and y <= qy) else 0 for (x, y) in points)


@dataclass(frozen=True)
class RectangleSweep:
    rectangles: int
    violations: int


def check_all_lattice_rectangles(m: int, n: int, slack: int = 1) -> RectangleSweep:
    """Exhaustive bound check over every rectangle with corners on
    lattice coordinates inside [0, n - n/m]^2.

    Vectorised sweep: per x-range, a prefix sum over the column->row
    permutation answers all y-ranges at once. The test is the one a
    single rectangle gets: floor(alpha/A1) - slack <= count <=
    ceil(alpha/A2) + slack, with alpha the area in units of n^2/m.
    """
    spec = LatticeSpec.create(m, n)
    xs = np.array([j * n // m for j in range(m)], dtype=np.int64)
    ys = xs.copy()  # row values are the same floor-scaled multiples
    perm = np.array([(j * spec.multiplier) % m for j in range(m)], dtype=np.int64)
    limit = m * n - n  # times m: lattice coords c with m*c <= m*n - n
    if np.any(m * xs > limit):
        raise ValueError("lattice coordinates leave the bound's domain")

    n2 = n * n
    rectangles = 0
    violations = 0
    hy = ys[None, :] - ys[:, None]  # hy[c, d] = ys[d] - ys[c]
    upper_tri = np.triu(np.ones((m, m), dtype=bool))
    # plain ints, so the arrays below stay int64
    a1_num, a1_den = A1.numerator, A1.denominator
    a2_num, a2_den = A2.numerator, A2.denominator
    for a in range(m):
        indicator = np.zeros(m + 1, dtype=np.int64)
        for b in range(a, m):
            indicator[perm[b] + 1] += 1
            cums = np.cumsum(indicator)
            counts = cums[None, 1:] - cums[:-1, None]  # counts[c, d]
            area = (xs[b] - xs[a]) * hy * m
            lower = (a1_den * area) // (a1_num * n2)  # floor(alpha / A1)
            upper = -((-a2_den * area) // (a2_num * n2))  # ceil(alpha / A2)
            bad = (counts < lower - slack) | (counts > upper + slack)
            violations += int(np.count_nonzero(bad & upper_tri))
            rectangles += int(np.count_nonzero(upper_tri))
    return RectangleSweep(rectangles=rectangles, violations=violations)
