import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apth import family
from apth.family import (
    _KEY_BUDGET,
    _bands,
    GREEDY_MAX_N,
    APFamily,
    block_count,
    block_plan,
    family_density,
    greedy_max_family,
    is_almost_disjoint,
    large_diff_family,
    large_diff_family_size,
)
from apth.progressions import _DiffRange, Progression, elements, intersection_size

from oracles import ap_tuples, naive_block_count, naive_greedy, table_greedy


def brute_family_members(k, n):
    """Direct enumeration of k-APs with n/k <= d < n/(k-1), via rationals."""
    out = []
    for ap in ap_tuples(k, n):
        d = ap[1] - ap[0]
        if Fraction(n, k) <= d < Fraction(n, k - 1):
            out.append((ap[0], d))
    return out


def overlapping_3aps(p, n):
    """Every 3-AP in [1, n] other than p through two elements of p."""
    out = set()
    for x, y in combinations(elements(p), 2):
        for i, j in ((0, 1), (0, 2), (1, 2)):  # positions of x and y
            if (y - x) % (j - i) == 0:
                d = (y - x) // (j - i)
                start = x - i * d
                inside = start >= 1 and start + 2 * d <= n
                if inside and (start, d) != (p.start, p.diff):
                    out.add(Progression(start, d, 3))
    return out


#: One-overlap plants for large_diff_family(3, 300), sorted for Hypothesis.
PLANTS_300 = sorted(
    {q for p in large_diff_family(3, 300) for q in overlapping_3aps(p, 300)},
    key=lambda q: (q.diff, q.start),
)


class TestLargeDiffFamily:
    def test_small_cases(self):
        # 5/3 <= d < 5/2 forces d = 2; only start 1 fits
        assert [(p.start, p.diff) for p in large_diff_family(3, 5)] == [(1, 2)]
        # d in {4, 5}: starts 1..4 and 1..2
        assert [(p.start, p.diff) for p in large_diff_family(3, 12)] == [
            (1, 4), (2, 4), (3, 4), (4, 4), (1, 5), (2, 5),
        ]
        # 1 <= d < 1.5 forces d = 1
        assert [tuple(elements(p)) for p in large_diff_family(3, 3)] == [(1, 2, 3)]

    def test_matches_rational_filter_oracle(self):
        for k in (3, 4, 5, 7):
            for n in range(k, 160):
                fam = [(p.start, p.diff) for p in large_diff_family(k, n)]
                assert fam == brute_family_members(k, n), (k, n)

    def test_may_be_empty_for_small_n(self):
        assert len(large_diff_family(3, 4)) == 0

    def test_start_at_most_diff(self):
        for n in (9, 47, 200):
            assert all(p.start <= p.diff for p in large_diff_family(3, n))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            large_diff_family(2, 10)

    def test_lazy_indexing(self):
        fam = large_diff_family(3, 300)
        members = fam.members
        listed = list(fam)
        assert members[0] == listed[0]
        assert members[len(fam) - 1] == listed[-1]
        assert members[-1] == listed[-1]
        assert members[17] == listed[17]
        with pytest.raises(IndexError):
            members[len(fam)]

    def test_huge_family_has_closed_form_length(self):
        fam = large_diff_family(3, 10**6)
        assert len(fam) == large_diff_family_size(3, 10**6)
        assert fam.certified_almost_disjoint

    def test_two_huge_families_compare_without_arrays(self):
        # two large-difference families compare by their difference bounds:
        # their arrays at n = 10^6 would take 444 GB each
        tracemalloc.start()
        try:
            same = large_diff_family(3, 10**6) == large_diff_family(3, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same
        assert peak < 1 << 20

    def test_empty_family_is_almost_disjoint(self):
        assert is_almost_disjoint(large_diff_family(3, 4)) == (True, None)

    def test_virtual_members_refuse_slicing(self):
        with pytest.raises(TypeError, match="slicing is not supported"):
            large_diff_family(3, 30).members[1:3]


class TestPackedMembers:
    def test_sorted_by_diff_then_start(self):
        fam = APFamily(3, 20, [Progression(5, 2, 3), Progression(2, 4, 3),
                               Progression(1, 2, 3), Progression(9, 1, 3)])
        assert [(p.start, p.diff) for p in fam] == [(9, 1), (1, 2), (5, 2), (2, 4)]

    @pytest.mark.parametrize("members, message", [
        # the first offending member in (diff, start) order is named
        ([(1, 1, 3), (7, 1, 4), (2, 1, 4)],
         r"Progression\(start=2, diff=1, length=4\) does not have length k=3"),
        ([(5, 3, 3), (1, 1, 3), (1, 5, 3)],
         r"Progression\(start=5, diff=3, length=3\) is not contained in \[1, 10\]"),
        ([(9, 1, 3), (2, 5, 4)],
         r"Progression\(start=9, diff=1, length=3\) is not contained"),
        ([(1, 1, 3), (2, 2, 3), (1, 1, 3)],
         r"duplicate member Progression\(start=1, diff=1, length=3\)"),
    ])
    def test_rejects_bad_members(self, members, message):
        with pytest.raises(ValueError, match=message):
            APFamily(3, 10, [Progression(*m) for m in members])

    @pytest.mark.parametrize("k, n, message", [
        # members reach element 99, past n = 5
        (3, 5, r"Progression\(start=1, diff=34, length=3\) is not contained "
               r"in \[1, 5\]"),
        (4, 100, r"Progression\(start=1, diff=34, length=3\) does not have "
                 r"length k=4"),
    ], ids=["outside_n", "wrong_length"])
    def test_construction_members_are_validated(self, k, n, message):
        # a construction's members passed to the constructor are checked
        # like any other progressions; the certificate is not carried over
        with pytest.raises(ValueError, match=message):
            APFamily(k, n, large_diff_family(3, 100).members)

    def test_revalidated_family_is_equal_and_uncertified(self):
        big = large_diff_family(3, 100)
        fam = APFamily(3, 100, big.members)
        assert fam == big and list(fam) == list(big)
        assert big.certified_almost_disjoint
        assert not fam.certified_almost_disjoint

    def test_constructor_cannot_certify(self):
        with pytest.raises(TypeError):
            APFamily(3, 10, [], certified_almost_disjoint=True)

    def test_accepts_any_iterable(self):
        members = [Progression(4, 3, 3), Progression(1, 2, 3)]
        assert APFamily(3, 10, iter(members)) == APFamily(3, 10, members)

    def test_sequence_access(self):
        fam = greedy_max_family(3, 30)
        listed = list(fam)
        assert [fam.members[i] for i in range(len(fam))] == listed
        assert fam.members[-1] == listed[-1]
        assert fam.members[2:7] == tuple(listed[2:7])
        assert listed[5] in fam.members
        assert Progression(2, 1, 3) not in fam.members  # clashes with (1, 1)
        with pytest.raises(IndexError):
            fam.members[len(fam)]
        assert all(type(p.start) is int and type(p.diff) is int for p in fam)

    @pytest.mark.parametrize("lazy", [True, False], ids=["virtual", "packed"])
    def test_index_types(self, lazy):
        # a numpy integer indexes as an int does, into plain-int fields;
        # a float is refused
        fam = large_diff_family(3, 30) if lazy else greedy_max_family(3, 30)
        got = fam.members[np.int64(2)]
        assert got == fam.members[2]
        assert all(type(v) is int for v in (got.start, got.diff, got.length))
        with pytest.raises(TypeError):
            fam.members[2.0]

    def test_virtual_and_packed_agree(self):
        for k in (3, 4, 7):
            for n in (k, 2 * k, 100, 451):
                virtual = large_diff_family(k, n)
                packed = APFamily(k, n, list(virtual))
                assert virtual == packed and packed == virtual
                assert list(packed) == list(virtual)
        assert APFamily(3, 30, []) == APFamily(3, 30, [])
        assert large_diff_family(3, 30) != APFamily(3, 30, [Progression(1, 1, 3)])


class TestFamilySize:
    def test_known_sizes(self):
        assert large_diff_family_size(3, 12) == 6  # 4 + 2
        assert large_diff_family_size(3, 5) == 1  # single term d=2: 5-4
        assert large_diff_family_size(3, 4) == 0

    def test_matches_member_count(self):
        for k in (3, 4, 6):
            for n in range(k, 400, 3):
                assert large_diff_family_size(k, n) == len(
                    large_diff_family(k, n)
                )

    def test_million_scale_normalization(self):
        # exact sum approaches n^2 / (2 k^2 (k-1))
        n = 10**6
        size = large_diff_family_size(3, n)
        assert abs(size * 36 / n**2 - 1) < 1e-4

    def test_size_window_for_large_k(self):
        # s^2/4k^3 <= size <= s^2/k^3 once s is large relative to k
        for k in range(10, 21):
            s = 50 * k**3
            size = large_diff_family_size(k, s)
            assert s * s <= 4 * k**3 * size
            assert k**3 * size <= s * s


class TestAlmostDisjoint:
    def test_construction_is_almost_disjoint(self):
        ok, witness = is_almost_disjoint(large_diff_family(3, 12))
        assert ok and witness is None

    def test_violation_witnessed(self):
        fam = APFamily(
            3, 5, [Progression(1, 1, 3), Progression(1, 2, 3)]
        )
        ok, witness = is_almost_disjoint(fam)
        assert not ok
        assert set(witness) == {Progression(1, 1, 3), Progression(1, 2, 3)}

    def test_empty_family(self):
        assert is_almost_disjoint(APFamily(3, 5, [])) == (True, None)

    def test_inverted_index_path_agrees_with_pairwise(self):
        # large_diff_family(3, 300) is a true family of more than
        # ALL_PAIRS_FALLBACK members; the sorted pair-key pass must pass it
        big = large_diff_family(3, 300)
        assert len(big) >= 1000
        assert is_almost_disjoint(big)[0]
        # ... and on a corrupted copy with one planted overlap
        spoiled = list(big)
        first = spoiled[0]
        spoiled.append(Progression(first.start, first.diff * 2, 3))
        # doubling the diff keeps elements 1 and 3 of `first`, so overlap = 2
        corrupted = APFamily(3, 600, spoiled)
        ok, witness = is_almost_disjoint(corrupted)
        assert not ok
        assert intersection_size(*witness) >= 2

    @given(st.integers(3, 5), st.integers(6, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_oracle(self, k, n, data):
        aps = ap_tuples(k, n)
        if not aps:
            return
        picks = data.draw(
            st.lists(st.sampled_from(aps), min_size=1, max_size=25, unique=True)
        )
        members = [Progression(ap[0], ap[1] - ap[0], k) for ap in picks]
        fam = APFamily(k, n, members)
        expected = all(
            intersection_size(p, q) <= 1
            for i, p in enumerate(members)
            for q in members[i + 1 :]
        )
        ok, witness = is_almost_disjoint(fam)
        assert ok == expected
        if not ok:
            p, q = witness
            assert p != q and p in members and q in members
            assert intersection_size(p, q) >= 2

    @given(st.sampled_from(PLANTS_300))
    @settings(max_examples=40, deadline=None)
    def test_planted_overlap_witnessed(self, plant):
        planted = APFamily(3, 300, list(large_diff_family(3, 300)) + [plant])
        ok, witness = is_almost_disjoint(planted)
        assert not ok
        p, q = witness
        assert p != q and p in planted.members and q in planted.members
        assert intersection_size(p, q) >= 2

    def test_keys_safe_at_the_element_cap(self):
        n = 1 << 40  # x*(n+1)+y overflows int64 here
        p = Progression(1, 1 << 38, 3)  # 1, 1+2^38, 1+2^39
        two = Progression(1, 1 << 37, 3)  # shares 1 and 1+2^38 with p
        ok, witness = is_almost_disjoint(APFamily(3, n, [p, two]))
        assert not ok and set(witness) == {p, two}
        one = Progression(1, (1 << 38) + 1, 3)  # shares only 1 with p
        assert is_almost_disjoint(APFamily(3, n, [p, one])) == (True, None)
        # disjoint members whose pair keys agree modulo 2^64:
        # (1+2^24, 1+2^30) and (1, 1+2^30+2^24)
        q = Progression(1 + (1 << 24), (1 << 30) - (1 << 24), 3)
        r = Progression(1, (1 << 30) + (1 << 24), 3)
        assert is_almost_disjoint(APFamily(3, n, [q, r])) == (True, None)


class TestGreedy:
    def test_hand_traced_scan(self):
        # {2,3,4} clashes with {1,2,3} on two elements, {3,4,5} is kept,
        # {1,3,5} clashes with both
        got = [(p.start, p.diff) for p in greedy_max_family(3, 5)]
        assert got == [(1, 1), (3, 1)]

    def test_single_member_case(self):
        assert [(p.start, p.diff) for p in greedy_max_family(3, 4)] == [(1, 1)]

    def test_refuses_n_beyond_cap(self):
        assert GREEDY_MAX_N == 1 << 14
        with pytest.raises(ValueError, match="pair table"):
            greedy_max_family(3, GREEDY_MAX_N + 1)

    def test_no_fit_allocates_nothing(self):
        # with n < k no k-AP fits, and C(2000, 2) pair offsets took 81 MB
        tracemalloc.start()
        try:
            fam = greedy_max_family(2000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fam) == 0 and fam.certified_almost_disjoint
        assert peak < 1 << 20

    def test_seeding_guarantees_base_size(self):
        for order in ("lex_by_diff_start", "lex_by_start_diff"):
            fam = greedy_max_family(3, 100, seed_with_large_diff=True, order=order)
            assert len(fam) >= large_diff_family_size(3, 100)

    def test_result_always_almost_disjoint(self):
        for k, n in [(3, 30), (4, 40), (5, 26)]:
            for order in ("lex_by_diff_start", "lex_by_start_diff"):
                fam = greedy_max_family(k, n, order=order)
                assert is_almost_disjoint(fam)[0], (k, n, order)

    def test_deterministic(self):
        a = greedy_max_family(3, 60)
        b = greedy_max_family(3, 60)
        assert a == b

    def test_scan_orders_differ(self):
        # both orders are valid greedy runs but need not agree
        by_diff = greedy_max_family(3, 40, order="lex_by_diff_start")
        by_start = greedy_max_family(3, 40, order="lex_by_start_diff")
        assert is_almost_disjoint(by_diff)[0]
        assert is_almost_disjoint(by_start)[0]

    @pytest.mark.parametrize("order", ["lex_by_diff_start", "lex_by_start_diff"])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_naive_oracle(self, k, seeded, order):
        for n in range(1, 37):
            fam = greedy_max_family(k, n, seed_with_large_diff=seeded, order=order)
            got = sorted((p.start, p.diff) for p in fam)
            assert got == naive_greedy(k, n, seeded, order), (n,)

    @pytest.mark.parametrize("order", ["lex_by_diff_start", "lex_by_start_diff"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_table_oracle(self, seeded, order):
        for k in range(3, 8):
            for n in range(1, 121):
                fam = greedy_max_family(k, n, seed_with_large_diff=seeded, order=order)
                got = [(p.start, p.diff) for p in fam]
                assert got == table_greedy(k, n, seeded, order), (k, n)

    @pytest.mark.parametrize("order", ["lex_by_diff_start", "lex_by_start_diff"])
    @pytest.mark.parametrize("k, n, seeded", [
        (4, 600, True), (3, 1000, True), (40, 400, False), (40, 400, True),
        # past k = 16 each batch is screened on its first pair row first;
        # past C(k, 2) = _KEY_BUDGET a candidate's pairs take several gathers
        (17, 300, False), (20, 500, True), (400, 1000, False),
    ])
    def test_matches_table_oracle_at_scale(self, k, n, seeded, order):
        fam = greedy_max_family(k, n, seed_with_large_diff=seeded, order=order)
        got = [(p.start, p.diff) for p in fam]
        assert got == table_greedy(k, n, seeded, order)

    def test_gathers_stay_within_the_key_budget(self):
        # one unslabbed d=1 batch would gather 901 x C(100, 2) int64 keys,
        # 36 MB; slabs of _KEY_BUDGET keys keep the peak near the table
        n = 1000
        tracemalloc.start()
        try:
            fam = greedy_max_family(100, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(fam) == 10
        # 8 bytes a key for the key matrix, as much again for the gather,
        # the pair offsets and the candidates
        assert peak < (n + 1) ** 2 + 16 * _KEY_BUDGET

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            greedy_max_family(3, 10, order="by_moon_phase")


class TestBands:
    @pytest.mark.parametrize("k", range(3, 41))
    def test_no_two_differences_of_a_band_clash(self, k):
        # k-APs of differences d < d' share two elements only if
        # i*d = j*d' for some 1 <= i, j <= k-1
        bands = list(_bands(k, 1, 300))
        assert [d for d0, d1 in bands for d in range(d0, d1 + 1)] == list(range(1, 301))
        for d0, d1 in bands:
            for d in range(d0, d1 + 1):
                steps = {i * d for i in range(1, k)}
                for e in range(d + 1, d1 + 1):
                    assert steps.isdisjoint(j * e for j in range(1, k)), (d0, d, e)
            # each band is as wide as the bound allows
            assert d1 == 300 or (d1 + 1) * (k - 2) >= d0 * (k - 1), (d0, d1)

    @pytest.mark.parametrize("order", ["lex_by_diff_start", "lex_by_start_diff"])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("k, n, budget", [
        (3, 80, 24), (4, 90, 24), (5, 101, 24), (17, 301, 64),
    ])
    def test_small_budget_matches_table_oracle(
        self, monkeypatch, k, n, budget, seeded, order
    ):
        # with a budget of a few dozen keys a band spans several slabs, a
        # slab several differences, and at k = 17 a candidate's pairs
        # several gathers
        monkeypatch.setattr(family, "_KEY_BUDGET", budget)
        slabs, spans = _DiffRange.slabs, []

        def recorded(self, size):
            for starts, diffs in slabs(self, size):
                spans.append(len(set(diffs.tolist())))
                yield starts, diffs

        monkeypatch.setattr(_DiffRange, "slabs", recorded)
        fam = greedy_max_family(k, n, seed_with_large_diff=seeded, order=order)
        assert [(p.start, p.diff) for p in fam] == table_greedy(k, n, seeded, order)
        if order == "lex_by_diff_start":
            assert any(s > 1 for s in spans)
            assert len(spans) > len(list(_bands(k, 1, n)))

    def test_a_band_is_produced_a_slab_at_a_time(self):
        # at k = 3 and n = GREEDY_MAX_N the band 2048..4095 holds 20,973,568
        # k-APs: 336 MB of starts and diffs if it were built whole
        n, slab = GREEDY_MAX_N, _KEY_BUDGET // 3
        assert list(_bands(3, 2048, 4095)) == [(2048, 4095)]
        assert sum(n - 2 * d for d in range(2048, 4096)) == 20_973_568
        tracemalloc.start()
        try:
            slabs = _DiffRange(3, n, 2048, 4095).slabs(slab)
            first = next(slabs)
            second = next(slabs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the first 43,690 k-APs of the band have differences 2048..2051
        head = [(a, d) for d in range(2048, 2052) for a in range(1, n - 2 * d + 1)]
        got = [
            (a, d)
            for starts, diffs in (first, second)
            for a, d in zip(starts.tolist(), diffs.tolist())
        ]
        assert got == head[: 2 * slab]

    def test_slabs_cover_the_band_in_order(self):
        # the last slab of 3..5 at n = 20 holds d = 4 and d = 5
        got = [
            (a, d)
            for starts, diffs in _DiffRange(3, 20, 3, 5).slabs(7)
            for a, d in zip(starts.tolist(), diffs.tolist())
        ]
        assert got == [(a, d) for d in range(3, 6) for a in range(1, 21 - 2 * d)]
        assert [len(s) for s, _ in _DiffRange(3, 20, 3, 5).slabs(7)] == [7, 7, 7, 7, 7, 1]


class TestDensity:
    def test_single_member_density(self):
        fam = APFamily(3, 3, [Progression(1, 1, 3)])
        assert family_density(fam) == pytest.approx(4 / 9)

    def test_large_diff_family_at_scale(self):
        assert family_density(large_diff_family(3, 10**6)) == pytest.approx(
            1 / 9, rel=0.01
        )

    def test_greedy_beats_construction_density(self):
        fam = greedy_max_family(3, 1000, seed_with_large_diff=True)
        assert len(fam) == 116895
        assert is_almost_disjoint(fam) == (True, None)
        d = family_density(fam)
        assert 1 / 9 < d <= 0.485

    def test_rejects_overlapping_family(self):
        fam = APFamily(3, 5, [Progression(1, 1, 3), Progression(1, 2, 3)])
        with pytest.raises(ValueError, match="almost disjoint"):
            family_density(fam)


class TestIntervalContainment:
    def test_elements_land_in_their_windows(self):
        # element a + l*d of a member must lie in (l*n/k, (l+1)*n/k]
        for k in (3, 5, 8):
            for n in (k * (k - 1), 100, 299):
                for p in large_diff_family(k, n):
                    for l, e in enumerate(elements(p)):
                        assert e * k > l * n
                        assert e * k <= (l + 1) * n


class TestBlockPlan:
    def test_examples(self):
        plan = block_plan(10, 3)
        assert (plan.s, plan.r) == (3, 1)
        assert plan.blocks == ((1, 3), (4, 6), (7, 9), (10, 10))
        plan = block_plan(12, 4)
        assert (plan.s, plan.r) == (3, 0)
        assert len(plan.blocks) == 4
        plan = block_plan(5320, 2)
        assert (plan.s, plan.r) == (2660, 0)

    def test_blocks_tile_the_interval(self):
        for n, q in [(10, 3), (100, 7), (5320, 2), (97, 9), (12, 4)]:
            plan = block_plan(n, q)
            assert plan.n == plan.q * plan.s + plan.r
            assert 0 <= plan.r < plan.s
            covered = []
            for lo, hi in plan.blocks:
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, n + 1))

    def test_rejects_oversized_residual(self):
        # s = 2, r = 2 would break 0 <= r < s
        with pytest.raises(ValueError, match="0 <= r < s"):
            block_plan(10, 4)
        with pytest.raises(ValueError, match="0 <= r < s"):
            block_plan(10, 12)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError, match="q must be >= 1, got 0"):
            block_plan(10, 0)


class TestBlockCount:
    def test_values(self):
        assert block_count(1) == 1
        assert block_count(2) == 2  # 2^(4/3) = 2.5198..
        assert block_count(8) == 16  # 8^(4/3) exactly
        assert block_count(2.5) == 3  # 2.5^(4/3) = 3.3903..

    def test_exact_at_integer_powers(self):
        # f^(4/3) is an integer for these f; float powering alone would
        # land just below it (8**(4/3) == 15.999...)
        for f, expected in [(8, 16), (27, 81), (64, 256)]:
            assert block_count(f) == expected
            assert block_count(float(f)) == expected

    def test_rejects_sub_one(self):
        with pytest.raises(ValueError):
            block_count(0.5)

    @given(st.one_of(st.floats(1, 1e6), st.integers(1, 10**6)))
    def test_matches_naive_search(self, f):
        assert block_count(f) == naive_block_count(f)

    def test_edges_of_exact_powers(self):
        # just below 8, f^(4/3) is just below 16; 10^6 and 4096 are exact
        below_eight = 8 - 2.0**-50
        for f in (below_eight, 4096, 4096.0, 10**6, 1e6, 10**6 - 1):
            assert block_count(f) == naive_block_count(f), f
        assert block_count(below_eight) == 15
        assert block_count(10**6) == 10**8

    def test_huge_f_is_fast_and_exact(self):
        # a float seed for the floor was off by ~2^38 steps at f = 1e20
        assert block_count(10**30) == 10**40
        assert block_count(1e300) ** 3 <= Fraction(1e300) ** 4
        assert (block_count(1e300) + 1) ** 3 > Fraction(1e300) ** 4

    @pytest.mark.parametrize("f", [float("inf"), float("nan")])
    def test_rejects_non_finite(self, f):
        with pytest.raises(ValueError, match="finite"):
            block_count(f)
