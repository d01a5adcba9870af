import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cplab.finite_field import (
    PrimeModulus,
    SingularMatrixError,
    ff_dot,
    ff_rank,
    ff_solve,
    field_modulus,
    independent_row_indices,
    is_prime,
    largest_prime_below,
    mat_vec,
)
from cplab.rng import substream

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def unit_vector(index, dim):
    coords = [0] * dim
    coords[index] = 1
    return tuple(coords)


def complete_basis(X, dim, modulus):
    """Reference: extend an independent set X to a basis of Z_p^dim with
    unit vectors, scanned in increasing coordinate order and skipped when
    already spanned. Returns only the added vectors, in scan order."""
    X = list(X)
    if ff_rank(modulus, X) < len(X):
        raise ValueError("input vectors are linearly dependent")
    added = []
    for idx in range(dim):
        if len(X) + len(added) == dim:
            break
        e = unit_vector(idx, dim)
        if ff_rank(modulus, X + added + [e]) > len(X) + len(added):
            added.append(e)
    return added


def identity(dim):
    return tuple(unit_vector(i, dim) for i in range(dim))


# psi_12 and psi_13: the smallest composites that are strong probable
# primes to all of the first 12 (resp. 13) prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _trial_division_is_prime(value):
    # reference oracle: the original O(sqrt(value)) primality test
    if value < 2:
        return False
    if value < 4:
        return True
    if value % 2 == 0:
        return False
    f = 3
    while f * f <= value:
        if value % f == 0:
            return False
        f += 2
    return True


def _oracle_largest_prime_below(limit):
    for v in range(limit - 1, 1, -1):
        if _trial_division_is_prime(v):
            return v
    raise ValueError


def _strong_probable_prime(value, base):
    d, s = value - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, value)
    if x in (1, value - 1):
        return True
    for _ in range(s - 1):
        x = x * x % value
        if x == value - 1:
            return True
    return False


_PRIMES_BELOW_10K = [p for p in range(10_000) if _trial_division_is_prime(p)]
_FIRST_PRIMES = _PRIMES_BELOW_10K[:13]


class TestIsPrime:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(-10, 10**7))
    def test_agrees_with_trial_division(self, value):
        assert is_prime(value) == _trial_division_is_prime(value)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_PRIMES_BELOW_10K), st.sampled_from(_PRIMES_BELOW_10K))
    def test_rejects_products_of_two_primes(self, p, q):
        assert is_prime(p * q) is False

    def test_bases_themselves_are_prime(self):
        assert [v for v in range(50) if is_prime(v)] == _FIRST_PRIMES + [43, 47]

    @pytest.mark.parametrize(
        "composite, factors, fooled",
        [
            (3215031751, (151, 751, 28351), 4),
            (3825123056546413051, (149491, 747451, 34233211), 11),
            # fools all 12 bases 2..37, so a 12-base test is not exact here
            (PSI_12, (399165290221, 798330580441), 12),
        ],
    )
    def test_rejects_strong_pseudoprimes(self, composite, factors, fooled):
        assert math.prod(factors) == composite
        assert all(_strong_probable_prime(composite, a) for a in _FIRST_PRIMES[:fooled])
        assert not is_prime(composite)

    def test_scan_from_the_exact_bound(self):
        assert largest_prime_below(PSI_13).value < PSI_13

    def test_beyond_exact_range_raises(self):
        assert 1287836182261 * 2575672364521 == PSI_13
        assert all(_strong_probable_prime(PSI_13, a) for a in _FIRST_PRIMES)
        with pytest.raises(ValueError):
            is_prime(PSI_13)
        with pytest.raises(ValueError):
            is_prime(10**30)
        with pytest.raises(ValueError):
            PrimeModulus(PSI_13)


class TestLargestPrimeBelow:
    def test_only_prime_below_three(self):
        assert largest_prime_below(3).value == 2

    def test_matches_oracle_at_ten_thousand(self):
        assert largest_prime_below(10_000).value == _oracle_largest_prime_below(10_000)

    def test_no_prime_below_two(self):
        with pytest.raises(ValueError):
            largest_prime_below(2)

    @pytest.mark.parametrize("limit", [4, 100, 65_536, 390_625, 123_457])
    def test_matches_oracle(self, limit):
        assert largest_prime_below(limit).value == _oracle_largest_prime_below(limit)

    def test_matches_oracle_at_two_to_the_twenty(self):
        value = largest_prime_below(2**20).value
        assert value == _oracle_largest_prime_below(2**20)
        assert is_prime(value)

    def test_lab_modulus_within_bertrand_window(self):
        for n in (10, 25, 64):
            delta = largest_prime_below(n**4).value
            assert n**4 // 2 <= delta < n**4


class TestFieldModulus:
    @pytest.mark.parametrize(
        "n, delta",
        [(2, 13), (440, 37480959979), (1000, 999999999989), (3000, 80999999999987)],
    )
    def test_pinned_values(self, n, delta):
        assert field_modulus(n).value == delta

    def test_largest_supported_n(self):
        n = 1_349_546
        assert n**4 < PSI_13 <= (n + 1) ** 4
        delta = field_modulus(n).value
        assert delta < n**4
        assert not any(is_prime(v) for v in range(delta + 1, n**4))

    @pytest.mark.parametrize("n", [-3, 0, 1, 1_349_547, 10**7])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(ValueError):
            field_modulus(n)


class TestPrimeModulus:
    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeModulus(9)


class TestRank:
    def test_identity(self):
        assert ff_rank(P5, identity(3)) == 3

    def test_dependent_rows(self):
        assert ff_rank(P5, [(1, 2), (2, 4)]) == 1

    def test_all_zero(self):
        assert ff_rank(P5, [(0, 0), (0, 0)]) == 0

    def test_rank_bounded_by_shape(self):
        rng = substream(0, "rank-shape")
        for _ in range(50):
            rows = rng.randint(1, 6)
            dim = rng.randint(1, 6)
            A = [[rng.randrange(7) for _ in range(dim)] for _ in range(rows)]
            assert ff_rank(P7, A) <= min(rows, dim)


class TestInSpan:
    """independent_row_indices skips a row that lies in the span of the
    rows it kept before it."""

    def test_scalar_multiple(self):
        assert independent_row_indices(P5, [(1, 0), (3, 0)])[0] == [0]

    def test_independent(self):
        assert independent_row_indices(P5, [(1, 0), (0, 1)])[0] == [0, 1]

    def test_empty_set_spans_zero(self):
        assert independent_row_indices(P7, [(0, 0)]) == ([], [])
        assert independent_row_indices(P7, [(0, 1)]) == ([0], [1])

    def test_agrees_with_rank_identity(self):
        rng = substream(1, "span-rank")
        for _ in range(100):
            dim = rng.randint(1, 5)
            count = rng.randint(1, 4)
            X = [tuple(rng.randrange(7) for _ in range(dim)) for _ in range(count)]
            x = tuple(rng.randrange(7) for _ in range(dim))
            base = ff_rank(P7, X)
            extended = ff_rank(P7, X + [x])
            in_span = count not in independent_row_indices(P7, X + [x])[0]
            assert in_span == (base == extended)


class TestCompleteBasis:
    def test_adds_first_unit_vector(self):
        added = complete_basis([(1, 1)], 2, P5)
        assert added == [(1, 0)]

    def test_full_basis_adds_nothing(self):
        basis = [unit_vector(i, 3) for i in range(3)]
        assert complete_basis(basis, 3, P5) == []

    def test_empty_set(self):
        added = complete_basis([], 2, P5)
        assert added == [(1, 0), (0, 1)]

    def test_dependent_input_rejected(self):
        with pytest.raises(ValueError):
            complete_basis([(1, 2), (2, 4)], 2, P5)

    def test_deterministic(self):
        X = [(1, 2, 3), (0, 1, 5)]
        assert complete_basis(X, 3, P7) == complete_basis(X, 3, P7)

    def test_completion_spans(self):
        rng = substream(2, "basis-completion")
        for _ in range(50):
            dim = rng.randint(1, 6)
            X = []
            for _ in range(rng.randint(0, dim)):
                candidate = tuple(rng.randrange(7) for _ in range(dim))
                if ff_rank(P7, X + [candidate]) > len(X):
                    X.append(candidate)
            added = complete_basis(X, dim, P7)
            assert ff_rank(P7, X + added) == dim


_rows_with_dim = st.integers(1, 5).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.lists(st.one_of(st.just(0), st.integers(0, 6)), min_size=dim, max_size=dim),
            max_size=8,
        ),
    )
)


@given(_rows_with_dim)
@example((3, []))  # k = 0, no rows at all
@example((3, [[0, 0, 0], [0, 0, 0]]))  # k = 0, only zero rows
@example((3, [[1, 2, 3], [0, 1, 5], [4, 0, 1]]))  # k = dim
@example((2, [[1, 1]]))
@settings(max_examples=200, deadline=None)
def test_pivot_complement_is_the_greedy_completion(case):
    """The unit vectors the greedy completion adds are exactly those off
    the kept rows' pivot columns, and the rows restricted to the pivot
    columns form an invertible k x k matrix."""
    dim, coords = case
    rows = [tuple(c) for c in coords]
    kept, pivots = independent_row_indices(P7, rows)
    X = [rows[i] for i in kept]
    added = complete_basis(X, dim, P7)
    assert [v.index(1) for v in added] == [j for j in range(dim) if j not in pivots]
    assert pivots == sorted(set(pivots)) and len(pivots) == len(kept)
    if kept:
        restricted = [[row[j] for j in pivots] for row in X]
        assert ff_rank(P7, restricted) == len(kept)


class TestSolve:
    def test_identity(self):
        z = (3, 5)
        assert ff_solve(P7, identity(2), z) == z

    def test_back_substitution(self):
        A = [(1, 1), (0, 1)]
        assert ff_solve(P7, A, (3, 5)) == (5, 5)

    def test_singular(self):
        A = [(1, 2), (2, 4)]
        with pytest.raises(SingularMatrixError):
            ff_solve(P5, A, (1, 1))

    def test_non_square(self):
        A = [(1, 2, 3), (0, 1, 1)]
        with pytest.raises(ValueError):
            ff_solve(P5, A, (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ff_solve(P5, identity(2), (1, 1, 1))

    def test_round_trip_random_systems(self):
        delta = largest_prime_below(10_000)
        rng = substream(3, "solve-round-trip")
        for _ in range(200):
            dim = rng.randint(1, 10)
            while True:
                A = [[rng.randrange(delta.value) for _ in range(dim)] for _ in range(dim)]
                if ff_rank(delta, A) == dim:
                    break
            y = tuple(rng.randrange(delta.value) for _ in range(dim))
            assert ff_solve(delta, A, mat_vec(delta, A, y)) == y


class TestIndependentRows:
    def test_greedy_selection_is_independent_and_spanning(self):
        rng = substream(4, "greedy-rows")
        for _ in range(50):
            dim = rng.randint(1, 5)
            rows = [
                tuple(rng.randrange(7) for _ in range(dim)) for _ in range(rng.randint(1, 8))
            ]
            kept, _ = independent_row_indices(P7, rows)
            if kept:
                assert ff_rank(P7, [rows[i] for i in kept]) == len(kept)
            assert ff_rank(P7, rows) == len(kept)


def _full_scan_independent_rows(rows):
    """Reference: every row is tested, none is skipped once the span is full."""
    kept = []
    for idx, row in enumerate(rows):
        if ff_rank(P7, [rows[i] for i in kept] + [row]) > len(kept):
            kept.append(idx)
    return kept


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(0, 6), min_size=dim, max_size=dim), min_size=1, max_size=10
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_independent_rows_stop_once_the_span_is_full(coords):
    rows = [tuple(c) for c in coords]
    expected = _full_scan_independent_rows(rows)
    # the index of the row that completes the span, if any row does
    last_needed = expected[-1] if len(expected) == len(rows[0]) else len(rows)

    def pulled():
        for idx, row in enumerate(rows):
            if idx > last_needed:
                raise AssertionError(f"row {idx} pulled after the span was full")
            yield row

    assert independent_row_indices(P7, pulled())[0] == expected
    assert independent_row_indices(P7, rows)[0] == expected


def test_independent_rows_of_nothing():
    assert independent_row_indices(P7, []) == ([], [])
    assert independent_row_indices(P7, iter(())) == ([], [])
    assert ff_rank(P7, []) == 0


_any_ints = st.integers(-(10**6), 10**6)


@given(
    st.sampled_from([P5, P7, largest_prime_below(10_000)]),
    st.integers(1, 5).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(_any_ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim),
            st.lists(_any_ints, min_size=dim, max_size=dim),
        )
    ),
)
@example(P7, ([[-1, 8], [15, -20]], [-7, 50]))
@settings(max_examples=200, deadline=None)
def test_field_functions_reduce_any_ints(modulus, case):
    """On any ints, negative or at least p, the field functions return
    values in [0, p) equal to their results on the inputs reduced mod p,
    and a full-rank solve inverts the product."""
    A, y = case
    p = modulus.value
    A_mod = [[a % p for a in row] for row in A]
    y_mod = [c % p for c in y]
    in_field = lambda values: all(0 <= v < p for v in values)

    dot = ff_dot(modulus, A[0], y)
    assert in_field([dot]) and dot == ff_dot(modulus, A_mod[0], y_mod)
    product = mat_vec(modulus, A, y)
    assert in_field(product) and product == mat_vec(modulus, A_mod, y_mod)
    assert ff_rank(modulus, A) == ff_rank(modulus, A_mod)
    if ff_rank(modulus, A) == len(A):
        solution = ff_solve(modulus, A, y)
        assert in_field(solution) and solution == ff_solve(modulus, A_mod, y_mod)
        assert ff_solve(modulus, A, mat_vec(modulus, A, y)) == tuple(y_mod)
