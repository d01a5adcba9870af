"""Exact linear algebra over the prime field Z_p.

Everything here is integer arithmetic; no floating point enters any
code path. A vector is a sequence of ints and a matrix a sequence of
rows; each function takes the modulus once, accepts any ints and
returns values reduced into [0, p).
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


def ff_dot(modulus: PrimeModulus, a: Sequence[int], b: Sequence[int]) -> int:
    """Inner product mod p."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum(x * y for x, y in zip(a, b)) % modulus.value


def mat_vec(
    modulus: PrimeModulus, rows: Iterable[Sequence[int]], y: Sequence[int]
) -> tuple[int, ...]:
    """Matrix-vector product mod p."""
    return tuple(ff_dot(modulus, row, y) for row in rows)


class _Echelon:
    """Incremental row-echelon form keyed by pivot column.

    A stored row has pivot coefficient 1 and zeros before its pivot,
    which makes membership and rank queries cheap.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, list[int]] = {}

    def insert(self, coords: Sequence[int]) -> bool:
        """Add a row; returns False when it is already in the span."""
        p = self.p
        row = [c % p for c in coords]
        for col, c in enumerate(row):
            if c == 0:
                continue
            pivot_row = self.pivots.get(col)
            if pivot_row is None:
                inv = pow(c, -1, p)
                self.pivots[col] = [(inv * v) % p for v in row]
                return True
            for j in range(col, len(row)):
                row[j] = (row[j] - c * pivot_row[j]) % p
        return False


def ff_rank(modulus: PrimeModulus, rows: Iterable[Sequence[int]]) -> int:
    """Dimension of the row span over Z_p; 0 for no rows."""
    ech = _Echelon(modulus.value)
    return sum(ech.insert(row) for row in rows)


def independent_row_indices(
    modulus: PrimeModulus, rows: Iterable[Sequence[int]]
) -> tuple[list[int], list[int]]:
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
    ech = _Echelon(modulus.value)
    dim = 0
    for idx, row in enumerate(rows):
        dim = len(row)
        # reversed, the echelon's leading columns are the last nonzeros
        if ech.insert(row[::-1]):
            kept.append(idx)
            if len(ech.pivots) == dim:
                break
    return kept, sorted(dim - 1 - col for col in ech.pivots)


def ff_solve(
    modulus: PrimeModulus, rows: Sequence[Sequence[int]], z: Sequence[int]
) -> tuple[int, ...]:
    """Unique y with A y = z (mod p) for square full-rank A, given by rows.

    Gaussian elimination with pivoting on the first nonzero entry;
    magnitude pivoting is pointless over a field.
    """
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("matrix must be square")
    if len(z) != m:
        raise ValueError("dimension mismatch")
    p = modulus.value
    aug = [[a % p for a in row] + [zc % p] for row, zc in zip(rows, z)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(inv * v) % p for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return tuple(row[m] for row in aug)
