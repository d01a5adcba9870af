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

    Incremental sweep over the y-ranges c <= d, each one fixed-width
    field of a packed int: per x-range [a, b], the counts grow by one
    column's "y-range holds this column's row" int as b advances. The
    test is the one a single rectangle gets: floor(alpha/A1) - slack <=
    count <= ceil(alpha/A2) + slack, with alpha the area in units of
    n^2/m. The bounds are worked out in Python integers, so they stay
    exact at any n.
    """
    spec = LatticeSpec.create(m, n)
    xs = [j * n // m for j in range(m)]  # row values are the same multiples
    if any(m * x > m * n - n for x in xs):  # lattice coords c with m*c <= m*n - n
        raise ValueError("lattice coordinates leave the bound's domain")

    # the distinct side lengths, x-widths and y-heights alike
    sides = sorted({xs[b] - xs[a] for a in range(m) for b in range(a, m)})
    # the y-ranges [xs[c], xs[d]] in field order, grouped by height, so
    # that a width's bounds are one run of equal fields per height
    by_height: dict[int, list[tuple[int, int]]] = {h: [] for h in sides}
    for c in range(m):
        for d in range(c, m):
            by_height[xs[d] - xs[c]].append((c, d))
    ranges = [cd for h in sides for cd in by_height[h]]
    runs = [len(by_height[h]) for h in sides]

    # A field holds a count in [0, m] under its top (guard) bit. Bounds
    # clipped to lower in [0, m + 1] and upper in [-1, m] compare the same,
    # and with top > m + 1 both top + lower - 1 - count and
    # top - upper - 1 + count lie in [0, 2 top): no field borrows from or
    # carries into the next, and the guard bit is set exactly when
    # count < lower or count > upper.
    size = ((m + 1).bit_length() + 8) // 8  # bytes a field: 1 while m + 1 < 128
    top = 1 << (8 * size - 1)

    def packed(values: Iterable[int], repeats: Iterable[int]) -> int:
        fields = b"".join(v.to_bytes(size, "little") * k for v, k in zip(values, repeats))
        return int.from_bytes(fields, "little")

    guards = packed([top], [len(ranges)])

    def marked(rows: Iterable[list[int]]) -> list[int]:
        # the running union of the rows' fields, a 1 in each, after each row
        buf, union = bytearray(size * len(ranges)), []
        for fields in rows:
            for i in fields:
                buf[size * i] = 1
            union.append(int.from_bytes(buf, "little"))
        return union

    starting: list[list[int]] = [[] for _ in range(m)]
    ending: list[list[int]] = [[] for _ in range(m)]
    for i, (c, d) in enumerate(ranges):
        starting[c].append(i)
        ending[d].append(i)
    # hold[row]: a 1 in every y-range c <= row <= d; holds[j]: column j's row
    hold = [
        low & high
        for low, high in zip(marked(starting), reversed(marked(reversed(ending))))
    ]
    holds = [hold[(j * spec.multiplier) % m] for j in range(m)]

    # per x-width, each y-range's floor(alpha/A1) - slack and
    # ceil(alpha/A2) + slack, in exact integers: alpha = w * h * m / n^2
    lower_den, upper_den = A1.numerator * n * n, A2.numerator * n * n
    bounds = {}
    for w in sides:
        m_areas = [w * h * m for h in sides]
        lower = [min(max(A1.denominator * a // lower_den - slack, 0), m + 1) for a in m_areas]
        upper = [min(max(-(-A2.denominator * a // upper_den) + slack, -1), m) for a in m_areas]
        bounds[w] = (
            packed([top + v - 1 for v in lower], runs),
            packed([top - v - 1 for v in upper], runs),
        )

    violations = 0
    for a in range(m):
        counts = 0
        for b in range(a, m):
            counts += holds[b]
            lo, hi = bounds[xs[b] - xs[a]]
            violations += ((lo - counts | counts + hi) & guards).bit_count()
    return RectangleSweep(rectangles=len(ranges) ** 2, violations=violations)
