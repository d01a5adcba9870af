"""Families of {0,1} query vectors whose small subsets stay linearly
independent on every length-k suffix.

Exhaustively checking all subsets for all k is combinatorially
infeasible, so construction audits each candidate with seeded Monte
Carlo subset sampling plus two cheap deterministic checks (nonzero
shortest binding suffix, and no collision on the shortest suffix where
pairs are constrained). Violations of the suffix property are
exponentially rare for random vectors, which is what makes random
auditing a faithful surrogate. lg means log base 2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TextIO

from .finite_field import PrimeModulus, ff_rank
from .rng import substream


# random subset-rank audits per candidate, and the consecutive rejections
# after which construction gives up
VALIDATION_TRIALS = 48
RETRY_BUDGET = 500


class FamilyConstructionError(RuntimeError):
    """Family construction rejected too many candidates in a row."""


@dataclass(frozen=True)
class QueryFamilyParams:
    n: int
    modulus: PrimeModulus
    independence_constant: float = 22.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("family needs n >= 4")
        if self.independence_constant <= 0:
            raise ValueError("independence constant must be positive")
        if not self.n**4 // 2 <= self.modulus.value <= self.n**4:
            raise ValueError(
                f"modulus {self.modulus.value} outside [n^4/2, n^4] for n={self.n}"
            )


@dataclass(frozen=True)
class QueryFamily:
    """Query vectors indexed by position; built families hold n^2 vectors."""

    params: QueryFamilyParams
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not set(chain.from_iterable(self.vectors)) <= {0, 1}:
            raise ValueError("family vectors must be 0/1 valued")


def subset_bound(k: int, c: float) -> int:
    """Largest subset size constrained at suffix length k: floor(k / (c lg k))."""
    if k < 2:
        return 0
    return int(k / (c * math.log2(k)))


def _k_range(n: int) -> range:
    k_min = math.isqrt(n)
    if k_min * k_min < n:
        k_min += 1
    return range(k_min, n + 1)


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bits_to_coords(bits: int, n: int) -> tuple[int, ...]:
    """The n bits of `bits` as 0/1 coordinates, most significant first."""
    return tuple(format(bits, f"0{n}b").encode().translate(_BIT_VALUES))


def build_query_family(params: QueryFamilyParams) -> QueryFamily:
    """Greedily sample uniform {0,1}^n vectors into a family of n^2.

    A candidate is accepted only when the deterministic suffix checks
    and VALIDATION_TRIALS random subset-rank audits all pass. The
    whole construction is a pure function of the params.
    """
    n = params.n
    c = params.independence_constant
    rng = substream(params.seed, "family-build")
    ks = list(_k_range(n))
    k_single = next((k for k in ks if subset_bound(k, c) >= 1), None)
    k_pair = next((k for k in ks if subset_bound(k, c) >= 2), None)
    ks_multi = [k for k in ks if subset_bound(k, c) >= 2]

    accepted: list[tuple[int, ...]] = []
    pair_suffixes: set[tuple[int, ...]] = set()
    rejects_in_a_row = 0
    last_k: int | None = None
    while len(accepted) < n * n:
        coords = bits_to_coords(rng.getrandbits(n), n)

        ok = True
        if k_single is not None and not any(coords[-k_single:]):
            ok, last_k = False, k_single
        if ok and k_pair is not None and coords[-k_pair:] in pair_suffixes:
            ok, last_k = False, k_pair
        if ok and ks_multi and accepted:
            for _ in range(VALIDATION_TRIALS):
                k = rng.choice(ks_multi)
                top = min(subset_bound(k, c), len(accepted) + 1)
                if top < 2:
                    continue
                size = rng.randint(2, top)
                others = rng.sample(range(len(accepted)), size - 1)
                rows = [accepted[i][-k:] for i in others]
                rows.append(coords[-k:])
                if ff_rank(params.modulus, rows) < size:
                    ok, last_k = False, k
                    break

        if not ok:
            rejects_in_a_row += 1
            if rejects_in_a_row > RETRY_BUDGET:
                raise FamilyConstructionError(
                    f"family construction stalled after {RETRY_BUDGET} consecutive "
                    f"rejections at k={last_k}"
                )
            continue
        rejects_in_a_row = 0
        accepted.append(coords)
        if k_pair is not None:
            pair_suffixes.add(coords[-k_pair:])

    return QueryFamily(params=params, vectors=tuple(accepted))


@dataclass(frozen=True)
class IndependenceReport:
    trials: int
    violations: int


def check_suffix_independence(
    family: QueryFamily, k: int, subset_size: int, trials: int, seed: int
) -> IndependenceReport:
    """Audit `trials` random subsets of the given size for full rank on
    the last k coordinates. Reports the violation count.
    """
    n = family.params.n
    if not _k_range(n).start <= k <= n:
        raise ValueError(f"k={k} outside [ceil(sqrt(n)), n]")
    bound = subset_bound(k, family.params.independence_constant)
    if subset_size < 1 or subset_size > bound:
        raise ValueError(
            f"subset size {subset_size} outside [1, k/(c lg k)] = [1, {bound}]"
        )
    if subset_size > len(family.vectors):
        raise ValueError("subset size exceeds family size")
    rng = substream(seed, "independence-check")
    violations = 0
    for _ in range(trials):
        idxs = rng.sample(range(len(family.vectors)), subset_size)
        rows = [family.vectors[i][-k:] for i in idxs]
        if ff_rank(family.params.modulus, rows) < subset_size:
            violations += 1
    return IndependenceReport(trials=trials, violations=violations)


def write_family(family: QueryFamily, fh: TextIO) -> None:
    """Serialize: header `n delta c seed`, then one 0/1 string per vector."""
    p = family.params
    fh.write(f"{p.n} {p.modulus.value} {p.independence_constant} {p.seed}\n")
    for v in family.vectors:
        fh.write("".join(str(c) for c in v) + "\n")


def read_family(fh: TextIO) -> QueryFamily:
    header = fh.readline().split()
    if len(header) != 4:
        raise ValueError("malformed family header")
    n, delta, c, seed = int(header[0]), int(header[1]), float(header[2]), int(header[3])
    params = QueryFamilyParams(
        n=n, modulus=PrimeModulus(delta), independence_constant=c, seed=seed
    )
    vectors = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"malformed family line: {line!r}")
        vectors.append(tuple(int(ch) for ch in line))
    return QueryFamily(params=params, vectors=tuple(vectors))
