import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apth import coloring, probability
from apth.errors import BruteForceCapError
from apth.family import APFamily, large_diff_family, large_diff_family_size
from apth.probability import (
    bonferroni_lower,
    clump_threshold,
    exact_prob_mono,
    expected_mono,
    markov_upper,
    mono_count_distribution,
    mono_pair_count,
    mono_single_count,
    p0_lower_first_moment,
    p0_upper_blocks,
    threshold_scale_lower,
    threshold_scale_upper,
    union_mono_exact,
)
from apth.progressions import Progression, count_aps, enumerate_aps

from oracles import (
    ap_tuples,
    naive_distribution,
    naive_pair_count,
    naive_prob_mono,
    naive_single_count,
    naive_union_count,
)


def prog(ap):
    return Progression(ap[0], ap[1] - ap[0], len(ap))


class TestExactProbMono:
    def test_single_ap_interval(self):
        assert exact_prob_mono(3, 3) == Fraction(1, 4)

    def test_unavoidable_at_nine(self):
        assert exact_prob_mono(3, 9) == 1

    def test_avoidable_at_eight(self):
        # witness: 1 1 0 0 1 1 0 0 has no monochromatic 3-AP
        assert exact_prob_mono(3, 8) < 1

    def test_zero_below_k(self):
        assert exact_prob_mono(4, 3) == 0
        assert exact_prob_mono(3, 1) == 0

    def test_matches_naive_enumeration(self):
        for k in (3, 4):
            for n in range(k - 1, 13):
                assert exact_prob_mono(k, n) == naive_prob_mono(k, n), (k, n)

    def test_cap_enforced(self):
        with pytest.raises(BruteForceCapError):
            exact_prob_mono(3, 40)
        # explicit cap overrides the default in both directions
        with pytest.raises(BruteForceCapError):
            exact_prob_mono(3, 12, cap=10)
        assert exact_prob_mono(3, 12, cap=12) == naive_prob_mono(3, 12)

    def test_refuses_past_the_word_width_before_enumerating(self, monkeypatch):
        # a raised cap still cannot index colorings past one 64-bit word
        def no_base(m):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(coloring, "_base", no_base)
        with pytest.raises(ValueError, match="architectural limit 63"):
            exact_prob_mono(3, 64, cap=64)

    def test_monotone_in_n(self):
        probs = [exact_prob_mono(3, n) for n in range(3, 15)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestDistribution:
    def test_three_three(self):
        dist = mono_count_distribution(3, 3)
        assert dist.counts == {0: 6, 1: 2}
        assert dist.total == 8

    def test_expectation_is_one_at_five(self):
        assert mono_count_distribution(3, 5).mean() == 1

    def test_no_avoiding_coloring_at_nine(self):
        assert 0 not in mono_count_distribution(3, 9).counts

    def test_matches_naive_distribution(self):
        for k in (3, 4):
            for n in range(k, 13):
                dist = mono_count_distribution(k, n)
                assert dist.counts == naive_distribution(k, n), (k, n)

    def test_p_none_complements_exact_prob(self):
        for n in range(3, 12):
            dist = mono_count_distribution(3, n)
            assert dist.p_none() == 1 - exact_prob_mono(3, n)

    def test_expectation_identity(self):
        # sum_r r p_r == count_aps * 2^(1-k), exactly
        for k in (3, 4):
            for n in range(k, 15):
                dist = mono_count_distribution(k, n)
                assert dist.mean() == Fraction(count_aps(k, n), 1 << (k - 1))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_second_moment_from_ap_pairs(self, k):
        # sum_r r^2 counts[r] counts the colorings under which both of an
        # ordered pair of k-APs (p = q included) are monochromatic
        for n in range(k, 19):
            aps = [prog(ap) for ap in ap_tuples(k, n)]
            pairs = sum(mono_pair_count(p, q, n) for p in aps for q in aps)
            dist = mono_count_distribution(k, n)
            assert sum(r * r * c for r, c in dist.counts.items()) == pairs, (k, n)

    def test_below_k_is_all_zero(self):
        dist = mono_count_distribution(5, 4)
        assert dist.counts == {0: 16}

    def test_cap_enforced(self):
        with pytest.raises(BruteForceCapError):
            mono_count_distribution(3, 27)

    def test_counts_must_sum_to_total(self):
        with pytest.raises(ValueError, match="must sum to 2\\^n"):
            probability.ExactDistribution(3, 3, {0: 6, 1: 1}, 8)


class TestSingleCount:
    def test_formula_values(self):
        assert mono_single_count(3, 3) == 2
        assert mono_single_count(3, 10) == 256

    def test_matches_enumeration(self):
        for s in (3, 6, 10, 14):
            for k in (3, 4):
                if k > s:
                    continue
                for ap in ap_tuples(k, s)[:: max(1, s - 2)]:
                    assert naive_single_count(ap, s) == mono_single_count(k, s)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            mono_single_count(5, 4)


class TestPairCount:
    def test_disjoint_pair(self):
        assert mono_pair_count(prog((1, 2, 3)), prog((4, 5, 6)), 6) == 4

    def test_one_shared_element(self):
        assert mono_pair_count(prog((1, 2, 3)), prog((3, 4, 5)), 6) == 4

    def test_identical_pair(self):
        p = prog((1, 2, 3))
        assert mono_pair_count(p, p, 3) == 2

    def test_two_shared_elements_double_the_count(self):
        # overlap t inflates the count by 2^(t-1); this is exactly why the
        # pair bound needs almost-disjointness
        p, q = prog((1, 2, 3)), prog((1, 3, 5))
        assert mono_pair_count(p, q, 6) == 8
        assert naive_pair_count((1, 2, 3), (1, 3, 5), 6) == 8

    def test_matches_enumeration_over_all_pairs(self):
        for s, k in [(8, 3), (9, 4)]:
            aps = ap_tuples(k, s)
            for i, p in enumerate(aps):
                for q in aps[i:]:
                    assert mono_pair_count(prog(p), prog(q), s) == \
                        naive_pair_count(p, q, s), (s, p, q)

    def test_almost_disjoint_pairs_share_one_value(self):
        # every pair with overlap <= 1 lands on exactly 2^(s-2k+2)
        from apth.progressions import intersection_size

        for k in (3, 4):
            for s in range(2 * k, 19):
                aps = [prog(ap) for ap in ap_tuples(k, s)]
                for i, p in enumerate(aps):
                    for q in aps[i + 1 :]:
                        if intersection_size(p, q) <= 1:
                            assert mono_pair_count(p, q, s) == \
                                1 << (s - 2 * k + 2), (s, p, q)

    def test_requires_containment(self):
        with pytest.raises(ValueError):
            mono_pair_count(prog((1, 2, 3)), prog((4, 5, 6)), 5)

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            mono_pair_count(prog((1, 2, 3)), prog((1, 2, 3, 4)), 10)


class TestBonferroni:
    def test_single_set(self):
        bound = bonferroni_lower(1, 10, 3)
        assert bound.value == 256 and bound.strong

    def test_two_sets(self):
        # equals the exact union size for two disjoint APs in [1, 10];
        # 2*256 - 64
        bound = bonferroni_lower(2, 10, 3)
        assert bound.value == 448 and bound.strong

    def test_big_family_loses_strength(self):
        bound = bonferroni_lower(2234, 2660, 12)
        assert not bound.strong  # 2234 > 2^11
        assert bound.value > 0

    def test_clamped_at_zero(self):
        # enormous m drives the pair term past the first-order term
        assert bonferroni_lower(10**6, 10, 3).value == 0

    def test_exponent_underflow_rejected(self):
        with pytest.raises(ValueError):
            bonferroni_lower(2, 3, 3)

    def test_negative_set_count_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            bonferroni_lower(-1, 10, 3)

    def test_strong_bound_implies_half_first_term(self):
        for m in (1, 2, 4):  # all <= 2^2 for k=3
            bound = bonferroni_lower(m, 12, 3)
            assert bound.strong
            assert bound.value >= m * (1 << (12 - 3))


class TestUnionExact:
    def test_single_member(self):
        fam = APFamily(3, 3, [prog((1, 2, 3))])
        assert union_mono_exact(fam, 3) == 2

    def test_two_disjoint_members(self):
        fam = APFamily(3, 6, [prog((1, 2, 3)), prog((4, 5, 6))])
        assert union_mono_exact(fam, 6) == 28  # 2*16 - 4

    def test_empty_family(self):
        assert union_mono_exact(APFamily(3, 6, []), 6) == 0

    def test_matches_naive_union(self):
        fam = large_diff_family(3, 12)
        aps = [tuple(range(p.start, p.last + 1, p.diff)) for p in fam]
        assert union_mono_exact(fam, 12) == naive_union_count(aps, 12) == 3358

    def test_bonferroni_sandwich(self):
        fam = large_diff_family(3, 12)
        u = union_mono_exact(fam, 12)
        assert bonferroni_lower(len(fam), 12, 3).value <= u <= len(fam) * (1 << 10)

    def test_requires_containment(self):
        fam = large_diff_family(3, 12)
        with pytest.raises(ValueError):
            union_mono_exact(fam, 11)

    def test_cap_enforced(self):
        fam = large_diff_family(3, 12)
        with pytest.raises(BruteForceCapError):
            union_mono_exact(fam, 12, cap=10)


class TestChunkedEnumeration:
    @pytest.mark.parametrize("k, n", [(3, 12), (4, 13)])
    def test_many_chunks_match_naive(self, monkeypatch, k, n):
        # a one-group (64-coloring) base, cut at 7, and dozens of top
        # colorings: no top coloring may drop or repeat a coloring
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", n)
        assert coloring._cut(n) == 7
        assert exact_prob_mono(k, n) == naive_prob_mono(k, n)
        assert mono_count_distribution(k, n).counts == naive_distribution(k, n)
        fam = large_diff_family(k, n)
        aps = [tuple(range(p.start, p.last + 1, p.diff)) for p in fam]
        assert union_mono_exact(fam, n) == naive_union_count(aps, n)

    def test_narrower_last_chunk(self, monkeypatch):
        # a base of 4 groups (cut 9) and 8 top colorings, whose planes are
        # walked 3 top colorings side by side: the last walk holds 2, and
        # reads a view of the planes sized for the first
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 3 * 12)
        monkeypatch.setattr(coloring, "_RUN_WORDS", 3 * 4)
        assert coloring._cut(12) == 9
        assert mono_count_distribution(3, 12).counts == naive_distribution(3, 12)
        assert exact_prob_mono(3, 12) == naive_prob_mono(3, 12)


class TestSplitEnumeration:
    # every coloring of [1, n] is a coloring of the base [1, m] and one of
    # the top elements m+1..n, for the cut m: the widest base within the
    # kernel budget, which a budget of m << (m - 7) words sets to m

    @pytest.mark.parametrize("n, ks", [
        # n < 7: one cut, n, and a base group with padding slots
        (3, (3,)),
        (5, (3, 4, 5)),
        (6, (3, 4, 5, 6)),
        (7, (3, 5, 7)),
        # cuts below k, where the base holds no k-AP
        (9, (3, 4, 8, 9)),
        # cuts at most n - k, where a k-AP lies wholly among the top
        # elements and one top coloring fills it
        (12, (3, 4, 5, 8, 12)),
    ])
    def test_every_cut_matches_naive(self, monkeypatch, n, ks):
        rng = random.Random(n)
        for k in ks:
            aps = ap_tuples(k, n)
            # a family with members inside every base and past it
            chosen = sorted(rng.sample(range(len(aps)), len(aps) // 2 + 1))
            fam = APFamily(k, n, [prog(aps[i]) for i in chosen])
            expected = (
                naive_prob_mono(k, n),
                naive_distribution(k, n),
                naive_union_count([aps[i] for i in chosen], n),
            )
            for m in range(min(n, 7), n + 1):
                monkeypatch.setattr(coloring, "_KERNEL_WORDS", m << max(0, m - 7))
                assert coloring._cut(n) == m
                got = (
                    exact_prob_mono(k, n),
                    mono_count_distribution(k, n).counts,
                    union_mono_exact(fam, n),
                )
                assert got == expected, (n, k, m)

    def test_three_oracles_agree_at_the_cap(self):
        # the default cap at the default budget: a base of [1, 19] and 7
        # top elements, the widest split the oracles run
        k, n = 6, probability.DEFAULT_BRUTE_CAP
        assert n == 26 and coloring._cut(n) == 19
        union = union_mono_exact(APFamily(k, n, enumerate_aps(k, n)), n)
        assert union == exact_prob_mono(k, n) * (1 << n)
        assert union == (1 << n) - mono_count_distribution(k, n).counts[0]


class TestMomentBounds:
    def test_expected_mono_values(self):
        assert expected_mono(3, 5) == 1.0  # 4 APs, each mono w.p. 1/4
        assert expected_mono(3, 3) == 0.25

    def test_markov_dominates_exact(self):
        for k in (3, 4):
            for n in range(k, 14):
                assert float(exact_prob_mono(k, n)) <= markov_upper(k, n) + 1e-12

    def test_markov_caps_at_one(self):
        assert markov_upper(3, 5) == 1.0

    def test_markov_tight_when_no_multiples(self):
        # at (3,3) no coloring holds two mono APs, so Markov is equality
        assert markov_upper(3, 3) == 0.25 == float(exact_prob_mono(3, 3))

    def test_small_at_lower_scale(self):
        assert markov_upper(14, threshold_scale_lower(14, 0.3)) < 0.12

    def test_lower_scale_expectation_bound(self):
        # E <= k g^2 / (k-2) holds at the floor()ed scale for the whole range
        g = 0.3
        for k in range(10, 21):
            n = threshold_scale_lower(k, g)
            assert expected_mono(k, n) <= k * g * g / (k - 2), k


class TestBlockBound:
    def test_verification_scenario(self):
        rep = p0_upper_blocks(12, 5320, 2)
        assert (rep.q, rep.s, rep.r) == (2, 2660, 0)
        assert rep.value == pytest.approx(0.6066, abs=2e-4)
        assert rep.flags["family_size_in_window"]
        assert not rep.flags["bonferroni_strong"]

    def test_bonferroni_strong_at_its_boundary(self):
        # one block of s = n: the family holds exactly 2^(k-1) members at
        # (9, 540), which is still strong, and more at (9, 549)
        assert large_diff_family_size(9, 540) == 1 << 8 < large_diff_family_size(9, 549)
        assert p0_upper_blocks(9, 540, 1).flags["bonferroni_strong"]
        assert not p0_upper_blocks(9, 549, 1).flags["bonferroni_strong"]

    def test_single_block_reduction(self):
        import math

        rep = p0_upper_blocks(10, 400, 1)
        assert (rep.q, rep.s) == (1, 400)
        assert rep.value == pytest.approx(
            math.exp(-(400**2) / (2**12 * 10**3))
        )

    def test_decreasing_in_n(self):
        values = [p0_upper_blocks(12, n, 2).value for n in (4000, 5320, 8000)]
        assert values[0] > values[1] > values[2]

    def test_block_precondition_propagates(self):
        with pytest.raises(ValueError, match="0 <= r < s"):
            p0_upper_blocks(12, 10, 8)  # q = 16 but n = 10

    def test_value_in_unit_interval(self):
        for n in (100, 10**6):
            assert 0.0 <= p0_upper_blocks(5, n, 3).value <= 1.0


class TestFirstMomentBound:
    def test_value(self):
        assert p0_lower_first_moment(10, 0.5) == pytest.approx(0.6875)

    def test_limit_toward_one(self):
        assert p0_lower_first_moment(10, 1e-9) == pytest.approx(1.0)

    def test_clamped(self):
        assert p0_lower_first_moment(10, 1) == 0.0  # raw value -0.25

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            p0_lower_first_moment(2, 0.5)
        with pytest.raises(ValueError):
            p0_lower_first_moment(10, 0)
        with pytest.raises(ValueError):
            p0_lower_first_moment(10, 1.5)


class TestThresholdScales:
    def test_frozen_values(self):
        assert threshold_scale_upper(10, 1) == 1011  # 32 * 31.62..
        assert threshold_scale_lower(10, 1) == 101  # 32 * 3.162..
        assert threshold_scale_upper(12, 2) == 5320
        assert threshold_scale_upper(14, 2) == 13410

    def test_floor_is_exact(self):
        # value^2 <= f^2 2^k k^3 < (value+1)^2
        for k, f in [(10, 1), (12, 2), (15, 3.5)]:
            v = threshold_scale_upper(k, f)
            assert v * v <= f * f * 2**k * k**3 < (v + 1) * (v + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_scale_upper(10, 0.5)
        for f in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                threshold_scale_upper(10, f)
            with pytest.raises(ValueError, match="finite"):
                p0_upper_blocks(10, 400, f)
        with pytest.raises(ValueError):
            threshold_scale_lower(10, 2.0)

    def test_rejects_k_beyond_bound(self):
        k = probability._BOUND_K_MAX
        # the largest k accepted: 2^(k/2) sqrt(k) with sqrt(2^14) = 2^7
        assert threshold_scale_lower(k, 1) == 1 << (k // 2 + 7)
        for fn in (
            lambda: threshold_scale_upper(k + 1, 1),
            lambda: threshold_scale_lower(k + 1, 1),
            lambda: p0_upper_blocks(k + 1, 400, 2),
        ):
            with pytest.raises(ValueError, match="exceeds 16384"):
                fn()

    @given(st.integers(3, 30))
    def test_upper_dominates_lower(self, k):
        assert threshold_scale_upper(k, 1) >= threshold_scale_lower(k, 1)


class TestClumpThreshold:
    @staticmethod
    def _runs(k, n):
        # E_c(k, n) term by term: a k-AP (a, d) starts a maximal
        # monochromatic run with probability 2^(1-k) when a - d < 1
        return sum(
            Fraction(2 if ap[0] - (ap[1] - ap[0]) < 1 else 1, 2**k)
            for ap in ap_tuples(k, n)
        )

    def test_closed_form_matches_the_sum_over_aps(self):
        for k in range(3, 8):
            for n in range(0, 90):
                assert probability._clump_runs(k, n) == self._runs(k, n) * 2**k, (k, n)

    @pytest.mark.parametrize("target", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_smallest_n_reaching_the_target(self, k, target):
        n = clump_threshold(k, target)

        def reached(n):
            return 1 - math.exp(-self._runs(k, n)) >= target

        assert reached(n) and not reached(n - 1)

    def test_exact_medians(self):
        # the exact median of the first hit at k = 4, 5, 6 sits at or just
        # above the declumped first-moment threshold
        for k, median in ((4, 9), (5, 15), (6, 23)):
            assert exact_prob_mono(k, median) >= Fraction(1, 2) > exact_prob_mono(k, median - 1)
            assert 1.0 <= median / clump_threshold(k, 0.5) <= 1.1, k

    def test_frozen_values(self):
        assert [clump_threshold(k, 0.5) for k in (4, 5, 6, 8, 16, 24)] == [
            9, 14, 22, 51, 1140, 22673
        ]

    def test_rejects_out_of_range(self):
        for target in (0, 1, -0.5, float("nan")):
            with pytest.raises(ValueError, match="target"):
                clump_threshold(8, target)
        for k in (2, probability._BOUND_K_MAX + 1):
            with pytest.raises(ValueError):
                clump_threshold(k, 0.5)
