"""Families of {0,1} query vectors whose small subsets stay linearly
independent on every length-k suffix.

A vector is held as one n-bit int whose bit n - 1 - i is coordinate i,
so its length-k suffix is its k low bits; `QueryFamily.coords` expands
one vector into 0/1 coordinates for the callers that read them.

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
from dataclasses import dataclass, field
from typing import TextIO

from .finite_field import PrimeModulus, ff_rank, field_modulus
from .rng import substream


# random subset-rank audits per candidate, and the consecutive rejections
# after which construction gives up
VALIDATION_TRIALS = 48
RETRY_BUDGET = 500


class FamilyConstructionError(RuntimeError):
    """Family construction rejected too many candidates in a row."""


@dataclass(frozen=True)
class QueryFamilyParams:
    """A family's parameters; its field modulus is derived from n, once."""

    n: int
    independence_constant: float = 22.0
    seed: int = 0
    modulus: PrimeModulus = field(init=False)  # field_modulus(n)

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("family needs n >= 4")
        if not 0 < self.independence_constant < math.inf:  # NaN fails both tests
            raise ValueError("independence constant must be finite and positive")
        object.__setattr__(self, "modulus", field_modulus(self.n))


@dataclass(frozen=True)
class QueryFamily:
    """Query vectors indexed by position; built families hold n^2 vectors.
    Each vector is an int in [0, 2^n) whose bit n - 1 - i is coordinate i."""

    params: QueryFamilyParams
    vectors: tuple[int, ...]

    def __post_init__(self) -> None:
        limit = 1 << self.params.n
        for v in self.vectors:
            if type(v) is not int or not 0 <= v < limit:
                raise ValueError(f"family vector {v!r} is not an int in [0, 2^{self.params.n})")

    def coords(self, j: int) -> bytes:
        """Vector j as n 0/1 coordinates, coordinate i being bit n - 1 - i."""
        return _low_coords(self.vectors[j], self.params.n)


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


def _low_coords(bits: int, k: int) -> bytes:
    """The length-k suffix of the vector `bits`: its k low bits as 0/1
    coordinates, most significant first."""
    # the sentinel bit 1 << k fixes the width; bin's "0b1" prefix drops it
    return bin(bits & ((1 << k) - 1) | 1 << k)[3:].encode().translate(_BIT_VALUES)


def _suffix_rank(modulus: PrimeModulus, vectors: list[int], k: int) -> int:
    """Rank over Z_modulus of the vectors' length-k suffixes.

    Zero and repeated suffixes add nothing to the span, and two distinct
    nonzero 0/1 vectors are independent over any field, so only three or
    more distinct suffixes are expanded into coordinates for `ff_rank`.
    """
    mask = (1 << k) - 1
    suffixes = {v & mask for v in vectors}
    suffixes.discard(0)
    if len(suffixes) <= 2:
        return len(suffixes)
    return ff_rank(modulus, [_low_coords(s, k) for s in suffixes])


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

    # a length-k suffix is the k low bits, so these masks take it whole
    single_mask = (1 << k_single) - 1 if k_single is not None else 0
    pair_mask = (1 << k_pair) - 1 if k_pair is not None else 0

    accepted: list[int] = []
    pair_suffixes: set[int] = set()
    rejects_in_a_row = 0
    last_k: int | None = None
    while len(accepted) < n * n:
        bits = rng.getrandbits(n)

        ok = True
        if k_single is not None and not bits & single_mask:
            ok, last_k = False, k_single
        if ok and k_pair is not None and bits & pair_mask in pair_suffixes:
            ok, last_k = False, k_pair
        if ok and ks_multi and accepted:
            for _ in range(VALIDATION_TRIALS):
                k = rng.choice(ks_multi)
                top = min(subset_bound(k, c), len(accepted) + 1)
                if top < 2:
                    continue
                size = rng.randint(2, top)
                others = rng.sample(range(len(accepted)), size - 1)
                rows = [accepted[i] for i in others]
                rows.append(bits)
                if _suffix_rank(params.modulus, rows, k) < size:
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
        accepted.append(bits)
        if k_pair is not None:
            pair_suffixes.add(bits & pair_mask)

    return QueryFamily(params=params, vectors=tuple(accepted))


def check_suffix_independence(
    family: QueryFamily, k: int, subset_size: int, trials: int, seed: int
) -> int:
    """Audit `trials` random subsets of the given size for full rank on
    the last k coordinates; return how many fall short of it.
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
        rows = [family.vectors[i] for i in idxs]
        if _suffix_rank(family.params.modulus, rows, k) < subset_size:
            violations += 1
    return violations


def write_family(family: QueryFamily, fh: TextIO) -> None:
    """Serialize: header `n delta c seed`, then one 0/1 string per vector."""
    p = family.params
    fh.write(f"{p.n} {p.modulus.value} {p.independence_constant} {p.seed}\n")
    for v in family.vectors:
        fh.write(format(v, f"0{p.n}b") + "\n")


def read_family(fh: TextIO) -> QueryFamily:
    header = fh.readline().split()
    if len(header) != 4:
        raise ValueError("malformed family header")
    n, delta, c, seed = int(header[0]), int(header[1]), float(header[2]), int(header[3])
    params = QueryFamilyParams(n=n, independence_constant=c, seed=seed)
    if delta != params.modulus.value:
        raise ValueError(f"family modulus {delta} is not field_modulus({n}) = {params.modulus.value}")
    vectors = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if len(line) != n or set(line) - {"0", "1"}:
            raise ValueError(f"malformed family line: {line!r}")
        vectors.append(int(line, 2))
    return QueryFamily(params=params, vectors=tuple(vectors))
