from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apth.family import (
    APFamily,
    block_count,
    block_plan,
    family_density,
    greedy_max_family,
    is_almost_disjoint,
    large_diff_family,
    large_diff_family_size,
)
from apth.progressions import Progression, elements, intersection_size

from oracles import ap_tuples, naive_greedy


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

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            greedy_max_family(3, 10, order="by_moon_phase")


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
