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

# the rectangle bound's two divisors, as exact decimals
A1 = Fraction(19, 10)
A2 = Fraction(9, 20)


def fibonacci_predecessor(m: int) -> int:
    """f_{k-1} for the Fibonacci number m = f_k; m = 1 resolves to k = 2."""
    if m < 1:
        raise ValueError("lattice size must be >= 1")
    prev, cur = 1, 1
    while cur < m:
        prev, cur = cur, prev + cur
    if cur != m:
        raise ValueError(f"{m} is not a Fibonacci number")
    return prev


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
        return cls(m=m, multiplier=fibonacci_predecessor(m), n=n)


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

    Vectorised sweep over the y-ranges c <= d, one flat array each: per
    x-range [a, b], the counts grow by one column's "y-range holds this
    column's row" mask as b advances. The test is the one a single
    rectangle gets: floor(alpha/A1) - slack <= count <= ceil(alpha/A2) +
    slack, with alpha the area in units of n^2/m. The bounds are worked
    out in Python integers, so they stay exact at any n.
    """
    # the sweep is numpy's only user in cplab: importing it here keeps
    # every other process from paying for it at start-up
    import numpy as np

    spec = LatticeSpec.create(m, n)
    xs = [j * n // m for j in range(m)]  # row values are the same multiples
    if any(m * x > m * n - n for x in xs):  # lattice coords c with m*c <= m*n - n
        raise ValueError("lattice coordinates leave the bound's domain")

    # the distinct side lengths, x-widths and y-heights alike
    sides = sorted({xs[b] - xs[a] for a in range(m) for b in range(a, m)})
    side_index = {side: i for i, side in enumerate(sides)}
    c, d = np.triu_indices(m)  # every y-range [xs[c], xs[d]]
    height_of = np.array([side_index[xs[j] - xs[i]] for i, j in zip(c.tolist(), d.tolist())])
    perm = np.array([(j * spec.multiplier) % m for j in range(m)])
    holds = (c <= perm[:, None]) & (perm[:, None] <= d)  # holds[j]: y-ranges holding column j's row
    # counts lie in [0, m], so bounds clipped to [-1, m + 1] compare the
    # same, and both fit the narrowest signed dtype holding m + 1
    dtype = np.min_scalar_type(-(m + 1))
    # per x-width, each y-range's floor(alpha/A1) - slack and
    # ceil(alpha/A2) + slack, in exact integers: alpha = w * h * m / n^2
    lower_den, upper_den = A1.numerator * n * n, A2.numerator * n * n
    bounds = {}
    for w in sides:
        m_areas = [w * h * m for h in sides]
        lower = [min(max(A1.denominator * a // lower_den - slack, 0), m + 1) for a in m_areas]
        upper = [min(max(-(-A2.denominator * a // upper_den) + slack, -1), m) for a in m_areas]
        bounds[w] = (np.array(lower, dtype)[height_of], np.array(upper, dtype)[height_of])

    violations = 0
    for a in range(m):
        counts = np.zeros(len(c), dtype=dtype)
        for b in range(a, m):
            counts += holds[b]
            lower, upper = bounds[xs[b] - xs[a]]
            violations += int(np.count_nonzero((counts < lower) | (counts > upper)))
    return RectangleSweep(rectangles=len(c) ** 2, violations=violations)
