import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab.finite_field import PrimeModulus, largest_prime_below
from cplab.hard_queries import (
    QueryFamily,
    QueryFamilyParams,
    bits_to_coords,
    build_query_family,
    check_suffix_independence,
    read_family,
    subset_bound,
    write_family,
)
from test_finite_field import unit_vector


def params_for(n, c=2.0, seed=0):
    return QueryFamilyParams(
        n=n, modulus=largest_prime_below(n**4), independence_constant=c, seed=seed
    )


class TestParams:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            params_for(3)

    def test_modulus_window_enforced(self):
        with pytest.raises(ValueError):
            QueryFamilyParams(n=16, modulus=PrimeModulus(101), seed=0)

    def test_non_binary_vectors_rejected(self):
        p = params_for(4)
        with pytest.raises(ValueError):
            QueryFamily(params=p, vectors=((2, 0, 0, 0),))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_coordinate_in_last_vector_rejected(self, bad):
        p = params_for(4)
        vectors = [(1, 0, 1, 1) for _ in range(5)]
        vectors.append((0, 1, 0, bad))
        with pytest.raises(ValueError):
            QueryFamily(params=p, vectors=tuple(vectors))


@given(st.integers(1, 130).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
@settings(max_examples=200, deadline=None)
def test_bits_to_coords_matches_shifts(case):
    """The byte-level coordinate generator against the per-bit shifts it replaced."""
    n, bits = case
    assert bits_to_coords(bits, n) == tuple((bits >> (n - 1 - i)) & 1 for i in range(n))


class TestSubsetBound:
    def test_values(self):
        assert subset_bound(4, 2.0) == 1
        assert subset_bound(8, 2.0) == 1
        assert subset_bound(16, 2.0) == 2
        assert subset_bound(16, 22.0) == 0


class TestBuild:
    def test_small_family_shape(self):
        family = build_query_family(params_for(4, c=2.0, seed=1))
        assert len(family.vectors) == 16
        assert all(len(v) == 4 for v in family.vectors)
        assert all(set(v) <= {0, 1} for v in family.vectors)

    def test_deterministic(self):
        a = build_query_family(params_for(8, seed=3))
        b = build_query_family(params_for(8, seed=3))
        assert a.vectors == b.vectors

    def test_seed_changes_family(self):
        a = build_query_family(params_for(8, seed=3))
        b = build_query_family(params_for(8, seed=4))
        assert a.vectors != b.vectors

    def test_built_family_survives_audit(self):
        family = build_query_family(params_for(16, c=2.0, seed=1))
        violations = check_suffix_independence(family, k=16, subset_size=2, trials=1000, seed=1)
        assert violations == 0


class TestCheck:
    def test_unit_vector_family_clean(self):
        n = 16
        p = QueryFamilyParams(
            n=n, modulus=largest_prime_below(n**4), independence_constant=1.0, seed=0
        )
        vectors = tuple(unit_vector(i, n) for i in range(n))
        family = QueryFamily(params=p, vectors=vectors)
        violations = check_suffix_independence(family, k=16, subset_size=4, trials=200, seed=0)
        assert violations == 0

    def test_duplicate_vector_detected_with_witness(self):
        n = 16
        p = QueryFamilyParams(
            n=n, modulus=largest_prime_below(n**4), independence_constant=1.0, seed=0
        )
        dup = (1, 0) * 8
        family = QueryFamily(params=p, vectors=(dup, dup))
        violations = check_suffix_independence(family, k=16, subset_size=2, trials=50, seed=0)
        assert violations == 50

    def test_oversized_subset_rejected(self):
        family = build_query_family(params_for(16, seed=2))
        with pytest.raises(ValueError):
            check_suffix_independence(family, k=16, subset_size=3, trials=10, seed=0)

    def test_k_out_of_range_rejected(self):
        family = build_query_family(params_for(16, seed=2))
        with pytest.raises(ValueError):
            check_suffix_independence(family, k=3, subset_size=1, trials=10, seed=0)

    def test_check_reproducible(self):
        family = build_query_family(params_for(16, seed=5))
        a = check_suffix_independence(family, k=8, subset_size=1, trials=100, seed=9)
        b = check_suffix_independence(family, k=8, subset_size=1, trials=100, seed=9)
        assert a == b


class TestSerialization:
    def test_round_trip(self):
        family = build_query_family(params_for(8, c=2.0, seed=7))
        buffer = io.StringIO()
        write_family(family, buffer)
        buffer.seek(0)
        loaded = read_family(buffer)
        assert loaded == family

    def test_header_format(self):
        family = build_query_family(params_for(8, c=2.0, seed=7))
        buffer = io.StringIO()
        write_family(family, buffer)
        header = buffer.getvalue().splitlines()[0].split()
        assert header == ["8", str(family.params.modulus.value), "2.0", "7"]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            read_family(io.StringIO("8 4093 2.0 1\n01x10101\n"))
