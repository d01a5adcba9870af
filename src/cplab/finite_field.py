"""Exact linear algebra over the prime field Z_p.

Everything here is integer arithmetic; no floating point enters any
code path. Vectors and matrices are immutable values, operations are
pure functions, so results can move freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class SingularMatrixError(ValueError):
    """A square solve hit a rank-deficient matrix."""


# Sorenson & Webster (Math. Comp. 86, 2017): a strong probable prime to
# the first 13 prime bases is prime below psi_13, the first exception.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(value: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or past psi_13."""
    if value >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"{value} is past the exact Miller-Rabin range")
    if value < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if value % p == 0:
            return value == p
    s = ((value - 1) & (1 - value)).bit_length() - 1  # value - 1 = d * 2^s, d odd
    d = (value - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeModulus:
    """A prime modulus; construction checks primality."""

    value: int

    def __post_init__(self) -> None:
        if not is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")


def largest_prime_below(limit: int) -> PrimeModulus:
    """Largest prime strictly below `limit`, by a downward scan."""
    for value in range(limit - 1, 1, -1):
        if is_prime(value):
            return PrimeModulus(value)
    raise ValueError(f"no prime below {limit}")


def field_modulus(n: int) -> PrimeModulus:
    """The lab's field modulus Delta: the largest prime below n^4."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if n**4 >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"n={n} is too large: n^4 must stay below {_MILLER_RABIN_EXACT_BELOW}")
    return largest_prime_below(n**4)


@dataclass(frozen=True)
class FieldVector:
    """A vector over Z_p; coordinates are normalised into [0, p)."""

    modulus: PrimeModulus
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.modulus.value
        coords = tuple(c % p for c in self.coords)
        if not coords:
            raise ValueError("vectors must have positive dimension")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def last(self, k: int) -> "FieldVector":
        """Restriction onto the last k coordinates."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"cannot restrict dimension {self.dimension} to last {k}")
        return FieldVector(self.modulus, self.coords[-k:])


@dataclass(frozen=True)
class FieldMatrix:
    """A rectangular matrix over Z_p, stored as a tuple of row vectors."""

    modulus: PrimeModulus
    rows: tuple[FieldVector, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("matrices must have at least one row")
        dim = rows[0].dimension
        for r in rows:
            if r.modulus != self.modulus:
                raise ValueError("row modulus mismatch")
            if r.dimension != dim:
                raise ValueError("ragged rows")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.rows[0].dimension)


def matrix_from_lists(modulus: PrimeModulus, rows: Iterable[Sequence[int]]) -> FieldMatrix:
    return FieldMatrix(modulus, tuple(FieldVector(modulus, tuple(r)) for r in rows))


def ff_dot(a: FieldVector, b: FieldVector) -> int:
    """Inner product mod p."""
    if a.modulus != b.modulus or a.dimension != b.dimension:
        raise ValueError("dimension or modulus mismatch")
    p = a.modulus.value
    return sum(x * y for x, y in zip(a.coords, b.coords)) % p


def mat_vec(A: FieldMatrix, y: FieldVector) -> FieldVector:
    """Matrix-vector product mod p."""
    if y.dimension != A.shape[1]:
        raise ValueError("dimension mismatch")
    return FieldVector(A.modulus, tuple(ff_dot(row, y) for row in A.rows))


class _Echelon:
    """Incremental row-echelon form keyed by pivot column.

    Stored rows have pivot coefficient 1 and are reduced against all
    earlier pivots, which makes membership and rank queries cheap.
    """

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        self.pivots: dict[int, list[int]] = {}

    def reduce(self, coords: Sequence[int]) -> list[int]:
        p = self.p
        row = [c % p for c in coords]
        for col in range(self.dim):
            c = row[col]
            if c == 0:
                continue
            pivot_row = self.pivots.get(col)
            if pivot_row is None:
                continue
            for j in range(col, self.dim):
                row[j] = (row[j] - c * pivot_row[j]) % p
        return row

    def insert(self, coords: Sequence[int]) -> bool:
        """Add a row; returns False when it is already in the span."""
        row = self.reduce(coords)
        for col in range(self.dim):
            if row[col]:
                inv = pow(row[col], -1, self.p)
                self.pivots[col] = [(inv * v) % self.p for v in row]
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def ff_rank(A: FieldMatrix) -> int:
    """Dimension of the row span over Z_p."""
    ech = _Echelon(A.modulus.value, A.shape[1])
    for row in A.rows:
        ech.insert(row.coords)
    return ech.rank


def independent_row_indices(rows: Iterable[FieldVector]) -> tuple[list[int], list[int]]:
    """Greedy scan keeping each row that enlarges the span.

    Returns the kept indices and the pivot columns P of their span: the
    j at which some vector of the span has its *last* nonzero coordinate,
    in increasing order. Together with the k kept rows X, the unit
    vectors outside P complete a basis, and X restricted to P is
    invertible, since every nonzero vector of the span is nonzero on P.

    The scan order is the input order, so any two parties holding the
    same row sequence select the same subset. Rows are pulled lazily and
    the scan stops once the span is full: no later row could enlarge it.
    """
    kept: list[int] = []
    ech = None
    for idx, row in enumerate(rows):
        if ech is None:
            ech = _Echelon(row.modulus.value, row.dimension)
        # reversed, the echelon's leading columns are the last nonzeros
        if ech.insert(row.coords[::-1]):
            kept.append(idx)
            if ech.rank == ech.dim:
                break
    if ech is None:
        return kept, []
    return kept, sorted(ech.dim - 1 - col for col in ech.pivots)


def ff_solve(A: FieldMatrix, z: FieldVector) -> FieldVector:
    """Unique y with A y = z (mod p) for square full-rank A.

    Gaussian elimination with pivoting on the first nonzero entry;
    magnitude pivoting is pointless over a field.
    """
    m, ncols = A.shape
    if m != ncols:
        raise ValueError("matrix must be square")
    if z.dimension != m or z.modulus != A.modulus:
        raise ValueError("dimension or modulus mismatch")
    p = A.modulus.value
    aug = [list(row.coords) + [zc] for row, zc in zip(A.rows, z.coords)]
    for col in range(ncols):
        pivot = None
        for r in range(col, m):
            if aug[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(inv * v) % p for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return FieldVector(A.modulus, tuple(aug[r][ncols] for r in range(m)))
