import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apth.progressions import (
    N_CAP,
    Progression,
    _DiffRange,
    contained_in,
    count_aps,
    element_mask,
    elements,
    enumerate_aps,
    intersection_size,
)

from oracles import ap_tuples


class TestProgression:
    def test_elements_expansion(self):
        assert elements(Progression(1, 2, 3)) == [1, 3, 5]
        assert elements(Progression(4, 4, 3)) == [4, 8, 12]
        assert elements(Progression(2, 1, 4)) == [2, 3, 4, 5]

    def test_elements_strictly_increasing_constant_gap(self):
        es = elements(Progression(7, 5, 6))
        gaps = [b - a for a, b in zip(es, es[1:])]
        assert gaps == [5] * 5

    @pytest.mark.parametrize(
        "start,diff,length",
        [(0, 1, 3), (1, 0, 3), (1, 1, 2), (-2, 3, 4)],
    )
    def test_invalid_construction_rejected(self, start, diff, length):
        with pytest.raises(ValueError):
            Progression(start, diff, length)

    def test_element_cap_enforced_at_construction(self):
        half = (N_CAP - 1) // 2
        Progression(2, half, 3)  # last element exactly at the cap
        with pytest.raises(ValueError):
            Progression(3, half, 3)  # one past it


class TestContainment:
    def test_contained(self):
        assert contained_in(Progression(1, 2, 3), 5)
        assert not contained_in(Progression(1, 2, 3), 4)
        # last element exactly n is a boundary hit
        assert contained_in(Progression(4, 4, 3), 12)

    def test_n_cap(self):
        with pytest.raises(ValueError):
            contained_in(Progression(1, 1, 3), N_CAP + 1)

    def test_huge_n_is_reported_by_bit_length(self):
        with pytest.raises(ValueError, match="n of 8001 bits exceeds the cap 2"):
            count_aps(3, 1 << 8000)


class TestCountAps:
    def test_known_counts(self):
        # brute-force enumeration of all 3-APs in [1,5]:
        # {1,2,3},{2,3,4},{3,4,5},{1,3,5}
        assert count_aps(3, 5) == 4
        assert count_aps(3, 3) == 1
        assert count_aps(4, 3) == 0

    def test_matches_enumeration_oracle(self):
        for k in range(3, 9):
            for n in range(k, 201):
                assert count_aps(k, n) == len(ap_tuples(k, n)), (k, n)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            count_aps(2, 10)

    def test_asymptotic_density(self):
        # count * (2k-2) / n^2 -> 1
        n = 10**5
        for k in range(3, 11):
            ratio = count_aps(k, n) * (2 * k - 2) / n**2
            assert 0.99 <= ratio <= 1.01, (k, ratio)

    @given(st.integers(3, 8), st.integers(3, 300))
    def test_monotone_in_n(self, k, n):
        assert count_aps(k, n + 1) >= count_aps(k, n)


class TestEnumerateAps:
    def test_order_and_content(self):
        got = [(p.start, p.diff) for p in enumerate_aps(3, 5)]
        assert got == [(1, 1), (2, 1), (3, 1), (1, 2)]

    def test_diff_range_restriction(self):
        got = [(p.start, p.diff) for p in enumerate_aps(3, 5, (2, 2))]
        assert got == [(1, 2)]

    def test_empty_when_interval_too_small(self):
        assert list(enumerate_aps(3, 2)) == []

    @pytest.mark.parametrize("rng", [(0, 2), (2, 1), (1, 3), (3, 3)])
    def test_invalid_diff_range_rejected(self, rng):
        with pytest.raises(ValueError):
            list(enumerate_aps(3, 5, rng))

    def test_open_ends_of_diff_range(self):
        # None leaves an end open; both open is no restriction at all
        assert list(enumerate_aps(3, 7, (2, None))) == list(enumerate_aps(3, 7, (2, 3)))
        assert list(enumerate_aps(3, 7, (None, 1))) == list(enumerate_aps(3, 7, (1, 1)))
        assert list(enumerate_aps(3, 2, (None, None))) == []
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            enumerate_aps(3, 2, (1, None))

    def test_count_matches_for_full_range(self):
        # closed form vs generator length over the whole contract range
        for k in range(3, 9):
            for n in range(k, 201):
                assert sum(1 for _ in enumerate_aps(k, n)) == count_aps(k, n)

    def test_matches_oracle_with_range(self):
        got = [tuple(elements(p)) for p in enumerate_aps(4, 30, (2, 5))]
        assert got == ap_tuples(4, 30, d_lo=2, d_hi=5)


#: (k, n, d_lo, d_hi): empty ranges (d_hi < d_lo, and n < k), one
#: difference, several, and every difference of [1, n]
RANGES = [
    (3, 20, 4, 3), (4, 3, 1, 0), (3, 3, 1, 1), (3, 20, 3, 5), (4, 30, 2, 5),
    (5, 41, 1, 10), (3, 12, 4, 5),
]


def naive_range(k, n, d_lo, d_hi):
    """The (start, diff) pairs of the range, by two loops."""
    return [(a, d) for d in range(d_lo, d_hi + 1) for a in range(1, n + 1)
            if a + (k - 1) * d <= n]


class TestDiffRange:
    @pytest.mark.parametrize("k, n, d_lo, d_hi", RANGES)
    def test_length_and_order(self, k, n, d_lo, d_hi):
        aps = _DiffRange(k, n, d_lo, d_hi)
        naive = naive_range(k, n, d_lo, d_hi)
        assert len(aps) == sum(n - (k - 1) * d for d in range(d_lo, d_hi + 1))
        assert len(aps) == len(naive)
        assert [(p.start, p.diff) for p in aps] == naive
        assert all(p.length == k for p in aps)

    @pytest.mark.parametrize("k, n, d_lo, d_hi", RANGES)
    def test_count_upto_below_inside_and_above(self, k, n, d_lo, d_hi):
        aps = _DiffRange(k, n, d_lo, d_hi)
        naive = naive_range(k, n, d_lo, d_hi)
        for d in range(d_lo - 3, d_hi + 4):
            assert aps._count_upto(d) == sum(1 for _, e in naive if e <= d), d

    @pytest.mark.parametrize("k, n, d_lo, d_hi", RANGES)
    def test_indexing(self, k, n, d_lo, d_hi):
        aps = _DiffRange(k, n, d_lo, d_hi)
        naive = naive_range(k, n, d_lo, d_hi)
        for i in range(-len(naive), len(naive)):
            assert (aps[i].start, aps[i].diff) == naive[i], i
        for i in (len(naive), -len(naive) - 1):
            with pytest.raises(IndexError):
                aps[i]
        with pytest.raises(TypeError, match="slicing is not supported"):
            aps[0:1]

    @pytest.mark.parametrize("k, n, d_lo, d_hi", RANGES)
    def test_slabs_and_arrays(self, k, n, d_lo, d_hi):
        aps = _DiffRange(k, n, d_lo, d_hi)
        naive = naive_range(k, n, d_lo, d_hi)
        for size in (1, 7, len(naive), len(naive) + 1):
            if size == 0:
                continue
            slabs = list(aps.slabs(size))
            assert [len(a) for a, _ in slabs] == [
                min(size, len(naive) - lo) for lo in range(0, len(naive), size)
            ]
            assert all(a.dtype == d.dtype == np.int64 for a, d in slabs)
            got = [(a, d) for s, t in slabs for a, d in zip(s.tolist(), t.tolist())]
            assert got == naive, size
        starts, diffs = aps.arrays()
        assert starts.dtype == diffs.dtype == np.int64
        assert list(zip(starts.tolist(), diffs.tolist())) == naive


class TestIntersectionSize:
    def test_examples(self):
        assert intersection_size(Progression(1, 2, 3), Progression(2, 1, 3)) == 1
        p = Progression(5, 3, 4)
        assert intersection_size(p, p) == 4
        assert intersection_size(Progression(1, 1, 3), Progression(7, 1, 3)) == 0

    @given(
        st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(3, 7)),
        st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(3, 7)),
    )
    def test_matches_set_oracle_and_symmetry(self, t1, t2):
        p, q = Progression(*t1), Progression(*t2)
        expected = len(set(elements(p)) & set(elements(q)))
        assert intersection_size(p, q) == expected
        assert intersection_size(q, p) == expected


def test_element_mask_round_trip():
    p = Progression(2, 3, 4)
    mask = element_mask(p)
    assert [i + 1 for i in range(16) if mask >> i & 1] == elements(p)
