import hashlib
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cplab import hard_queries
from cplab.finite_field import ff_rank, field_modulus, largest_prime_below
from cplab.hard_queries import (
    QueryFamily,
    QueryFamilyParams,
    _low_coords,
    _suffix_rank,
    build_query_family,
    check_suffix_independence,
    read_family,
    subset_bound,
    write_family,
)
from test_finite_field import unit_vector


def params_for(n, c=2.0, seed=0):
    return QueryFamilyParams(n=n, independence_constant=c, seed=seed)


def bits_of(coords):
    """The family vector of 0/1 coordinates: coordinate i is bit n - 1 - i."""
    return int("".join(map(str, coords)), 2)


class TestParams:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            params_for(3)

    @pytest.mark.parametrize("n", [4, 16, 100])
    def test_modulus_is_derived_from_n(self, n):
        assert params_for(n).modulus == field_modulus(n)
        with pytest.raises(TypeError):
            QueryFamilyParams(n=n, modulus=field_modulus(n))

    @pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_constant_not_finite_and_positive_rejected(self, c):
        with pytest.raises(ValueError, match="must be finite and positive"):
            params_for(16, c=c)

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "0", "-2.0"])
    def test_family_file_with_such_a_constant_rejected(self, c):
        # field_modulus(16) is 65521
        with pytest.raises(ValueError, match="must be finite and positive"):
            read_family(io.StringIO(f"16 65521 {c} 0\n{'01' * 8}\n"))

    def test_non_binary_vectors_rejected(self):
        p = params_for(4)
        with pytest.raises(ValueError):
            QueryFamily(params=p, vectors=(0b10000,))

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_coordinate_in_last_vector_rejected(self, bad):
        # coordinates (bad, 0, 1, 0) as base-2 digits: 2 overflows the
        # 4 bits, -1 makes the vector negative
        p = params_for(4)
        vectors = [0b1011] * 5
        vectors.append(bad << 3 | 0b010)
        with pytest.raises(ValueError):
            QueryFamily(params=p, vectors=tuple(vectors))

    @pytest.mark.parametrize(
        "bad",
        [-1, 1 << 4, 1 << 100, 3.0, "1011", True, None, (1, 0, 1, 1)],
        ids=["negative", "2^n", "2^100", "float", "string", "bool", "none", "legacy-tuple"],
    )
    def test_vector_outside_n_bit_ints_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="is not an int in"):
            QueryFamily(params=params_for(4), vectors=(0b0110, bad))

    def test_every_n_bit_int_accepted(self):
        family = QueryFamily(params=params_for(4), vectors=tuple(range(16)))
        assert family.coords(0) == bytes(4) and family.coords(15) == bytes([1] * 4)


@given(st.integers(4, 130).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))))
@settings(max_examples=200, deadline=None)
def test_coords_match_shifts(case):
    """The byte-level coordinates against per-bit shifts; the audits' k
    low bits against the last k coordinates."""
    n, bits = case
    family = QueryFamily(params=params_for(n), vectors=(bits,))
    coords = family.coords(0)
    assert coords == bytes((bits >> (n - 1 - i)) & 1 for i in range(n))
    assert bits_of(coords) == bits
    for k in range(n + 1):
        assert _low_coords(bits, k) == coords[n - k :]


@st.composite
def suffix_rank_cases(draw):
    """k, and 0-6 rows drawn from a few base vectors, zero among them, each
    with random bits above k, so zero and repeated suffixes are common."""
    k = draw(st.integers(1, 24))
    bases = draw(st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=4))
    row = st.tuples(st.sampled_from([0, *bases]), st.integers(0, 15)).map(
        lambda t: t[0] | t[1] << k
    )
    return k, draw(st.lists(row, max_size=6))


@given(suffix_rank_cases(), st.sampled_from([largest_prime_below(4), field_modulus(24)]))
@settings(max_examples=300, deadline=None)
def test_suffix_rank_matches_ff_rank(case, modulus):
    k, rows = case
    assert _suffix_rank(modulus, rows, k) == ff_rank(modulus, [_low_coords(v, k) for v in rows])


def test_pinned_three_row_family_audits_three_rows(monkeypatch):
    # the (20, 1.5, 0) pin below is the one whose audits reach ff_rank
    sizes = []

    def counting_rank(modulus, rows):
        sizes.append(len(rows))
        return ff_rank(modulus, rows)

    monkeypatch.setattr(hard_queries, "ff_rank", counting_rank)
    build_query_family(params_for(20, c=1.5, seed=0))
    assert set(sizes) == {3}


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
        assert all(0 <= v < 1 << 4 for v in family.vectors)
        assert all(len(family.coords(j)) == 4 for j in range(16))
        assert all(set(family.coords(j)) <= {0, 1} for j in range(16))

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
        p = params_for(n, c=1.0)
        vectors = tuple(bits_of(unit_vector(i, n)) for i in range(n))
        family = QueryFamily(params=p, vectors=vectors)
        violations = check_suffix_independence(family, k=16, subset_size=4, trials=200, seed=0)
        assert violations == 0

    def test_duplicate_vector_detected_with_witness(self):
        n = 16
        p = params_for(n, c=1.0)
        dup = bits_of((1, 0) * 8)
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

    # field_modulus(8) is 4093; 4091 is the next prime down, 4099 the next up
    @pytest.mark.parametrize("delta", [4091, 4099, 2, 4093 * 2])
    def test_header_modulus_other_than_the_field_modulus_rejected(self, delta):
        with pytest.raises(ValueError, match=r"is not field_modulus\(8\) = 4093"):
            read_family(io.StringIO(f"8 {delta} 2.0 1\n01010101\n"))

    @pytest.mark.parametrize(
        "n, c, seed, digest",
        [
            (16, 2.0, 1, "6146f9a67f659aa22805070fc77c2ca60c60238d33188fd6c7f7f6fd754e9c32"),
            (20, 1.5, 0, "f83d7b048bfd63b9e8e542c09bc262c71fa9947fb6ac84ee069431fed2fbe511"),
            (100, 22.0, 0, "ef7f146986d1ab31bff3ccc60dda70ea09e5d68957b0a4013dcffba76e9e114d"),
        ],
    )
    def test_family_file_bytes_pinned(self, n, c, seed, digest):
        # (16, 2.0, 1) and (100, 22.0, 0) are pinned from the coordinate-tuple
        # family the n-bit form replaced, (20, 1.5, 0) from the audits that
        # ranked every subset with ff_rank; it audits 3-row subsets at k = 20
        buffer = io.StringIO()
        write_family(build_query_family(params_for(n, c=c, seed=seed)), buffer)
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest

    @given(
        st.integers(4, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(0, 2**n - 1) | st.integers(0, 2 ** (n // 2)), max_size=20
                ),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_family_round_trips(self, case):
        # the second integer range draws vectors with many leading zero bits
        n, vectors = case
        family = QueryFamily(params=params_for(n), vectors=tuple(vectors))
        buffer = io.StringIO()
        write_family(family, buffer)
        lines = buffer.getvalue().splitlines()[1:]
        assert lines == [format(v, f"0{n}b") for v in vectors]
        buffer.seek(0)
        assert read_family(buffer) == family


def test_built_family_holds_one_int_per_vector():
    # 10 000 vectors of 100 bits: ~0.5 MB as ints, ~8.5 MB as coordinate tuples
    tracemalloc.start()
    try:
        family = build_query_family(params_for(100, c=22.0))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(family.vectors) == 100 * 100
    assert live < 2_000_000
