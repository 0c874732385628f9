import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apth import montecarlo
from apth.errors import SearchCeilingError
from apth.montecarlo import (
    ProbEstimate,
    estimate_prob,
    scaling_report,
    standard_error,
    threshold_search,
    wilson_interval,
)
from apth.probability import exact_prob_mono, markov_upper
from oracles import estimate_driven_search


class TestWilson:
    def test_interval_orders_around_p_hat(self):
        lo, hi = wilson_interval(30, 100)
        assert 0 < lo < 0.3 < hi < 1

    @given(st.integers(1, 10_000), st.data())
    def test_invariants(self, samples, data):
        successes = data.draw(st.integers(0, samples))
        lo, hi = wilson_interval(successes, samples)
        assert 0.0 <= lo <= successes / samples <= hi <= 1.0

    def test_clopper_pearson_at_zero(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / 50))

    def test_clopper_pearson_at_full(self):
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo == pytest.approx(0.025 ** (1 / 50))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestEstimateProb:
    def test_impossible_event(self):
        est = estimate_prob(3, 2, 1000, 0)
        assert est.successes == 0 and est.p_hat == 0.0

    def test_certain_event(self):
        # every coloring of [1, 9] has a mono 3-AP
        est = estimate_prob(3, 9, 10_000, 1, workers=4)
        assert est.p_hat == 1.0

    def test_worker_invariance(self):
        a = estimate_prob(3, 5, 100_000, 42, workers=1)
        b = estimate_prob(3, 5, 100_000, 42, workers=8)
        assert a == b

    def test_run_to_run_determinism(self):
        a = estimate_prob(4, 18, 20_000, 7, workers=2)
        b = estimate_prob(4, 18, 20_000, 7, workers=3)
        assert a == b

    def test_three_sigma_agreement_with_exact(self):
        p = float(exact_prob_mono(3, 5))  # 9/16
        est = estimate_prob(3, 5, 100_000, 42)
        assert abs(est.p_hat - p) <= 3 * standard_error(p, est.samples)

    def test_seed_changes_estimate(self):
        a = estimate_prob(3, 6, 5000, 1)
        b = estimate_prob(3, 6, 5000, 2)
        assert a.successes != b.successes  # astronomically unlikely to tie

    def test_estimate_fields(self):
        est = estimate_prob(3, 7, 4096, 9)
        assert est.samples == 4096
        assert est.p_hat == est.successes / est.samples
        assert 0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1
        assert est.seed == 9

    def test_coupled_monotone_in_n(self):
        # shared streams make the estimated curve exactly nondecreasing
        phats = [estimate_prob(3, n, 4000, 3).p_hat for n in range(3, 12)]
        assert all(a <= b for a, b in zip(phats, phats[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            estimate_prob(2, 5, 10, 0)
        with pytest.raises(ValueError):
            estimate_prob(3, 5, 0, 0)
        with pytest.raises(ValueError):
            estimate_prob(3, 5, 10, 0, workers=0)
        with pytest.raises(ValueError):
            estimate_prob(3, 5, 10, -1)

    # van der Waerden numbers W(2; k) (Kouril & Paul, Exp. Math. 2008):
    # every coloring of [1, W] has a mono k-AP
    @pytest.mark.parametrize("k, w", [(4, 35), (5, 178), (6, 1132)])
    def test_van_der_waerden_points(self, k, w):
        assert estimate_prob(k, w, 300, 6).p_hat == 1.0

    def test_markov_certifies_estimates(self):
        # true p <= markov bound, so p_hat exceeds it by at most noise
        for k, n in [(3, 4), (3, 7), (4, 12), (5, 25), (10, 30)]:
            est = estimate_prob(k, n, 20_000, 8)
            bound = markov_upper(k, n)
            assert est.p_hat <= bound + 3 * standard_error(
                max(est.p_hat, 1e-9), est.samples
            ), (k, n)


class TestChunkBudget:
    def test_sizes_up_to_512_words(self):
        assert montecarlo._chunk_size(1) == 16384
        assert montecarlo._chunk_size(16) == 16384
        assert montecarlo._chunk_size(17) == (1 << 18) // 17
        assert montecarlo._chunk_size(512) == 512

    def test_shrinks_to_one_row_then_refuses(self):
        assert montecarlo._chunk_size(513) == (1 << 18) // 513
        assert montecarlo._chunk_size(1 << 18) == 1
        with pytest.raises(ValueError, match="generation buffer"):
            montecarlo._chunk_size((1 << 18) + 1)

    def test_one_row_chunks_keep_estimates(self, monkeypatch):
        # n=300 takes 5 words, so a 5-word budget leaves one sample a chunk
        ref = estimate_prob(12, 300, 120, 3)
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 5)
        assert montecarlo._chunk_size(5) == 1
        assert estimate_prob(12, 300, 120, 3) == ref
        assert estimate_prob(12, 300, 120, 3, workers=2) == ref
        assert 0 < ref.successes < ref.samples

    def test_tiny_budget_rejects_wide_rows(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 4)
        with pytest.raises(ValueError, match="n must be at most 256"):
            estimate_prob(12, 300, 10, 3)
        assert estimate_prob(3, 256, 10, 3).samples == 10


class TestRanges:
    def test_one_worker_takes_whole_chunks(self):
        for samples, chunk in [(1, 5), (5, 5), (12, 5), (8000, 13797)]:
            assert montecarlo._ranges(samples, chunk, 1) == [
                (lo, min(lo + chunk, samples))
                for lo in range(0, samples, chunk)
            ]

    def test_one_chunk_spreads_over_workers(self):
        # estimate_prob(16, 1156, 8000): 19-word rows, one 13,797-row chunk
        chunk = montecarlo._chunk_size(19)
        assert montecarlo._ranges(8000, chunk, 1) == [(0, 8000)]
        assert montecarlo._ranges(8000, chunk, 2) == [(0, 4000), (4000, 8000)]
        assert len(montecarlo._ranges(8000, chunk, 3)) == 3

    @given(st.integers(1, 3000), st.integers(1, 700), st.integers(1, 8))
    def test_ranges_tile_the_samples(self, samples, chunk, workers):
        ranges = montecarlo._ranges(samples, chunk, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == samples
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        share = -(-samples // workers)
        assert all(0 < hi - lo <= min(chunk, share) for lo, hi in ranges)

    def test_single_chunk_estimate_keeps_result(self):
        ref = estimate_prob(16, 1156, 600, 4)
        assert estimate_prob(16, 1156, 600, 4, workers=2) == ref
        assert estimate_prob(16, 1156, 600, 4, workers=3) == ref


class TestThresholdSearch:
    def test_crossing_matches_exact_oracle(self):
        # exact curve: p(3,4) = 3/8 < 1/2 <= 9/16 = p(3,5)
        res = threshold_search(3, 0.5, 100_000, 20260810)
        assert res.n_star == 5
        assert exact_prob_mono(3, res.n_star) >= Fraction(1, 2)
        assert exact_prob_mono(3, res.n_star - 1) < Fraction(1, 2)

    def test_bracket_semantics(self):
        res = threshold_search(3, 0.5, 20_000, 11)
        by_n = {n: est for n, est in res.trace}
        assert res.bracket_low < res.n_star <= res.bracket_high
        assert by_n[res.n_star].p_hat >= res.target
        assert by_n[res.bracket_low].p_hat < res.target
        step = res.n_star - res.bracket_low
        assert step <= max(1, math.ceil(0.01 * res.n_star))

    def test_never_below_k(self):
        for k in (3, 5, 8):
            res = threshold_search(k, 0.5, 2000, 4)
            assert res.n_star >= k

    def test_deterministic(self):
        a = threshold_search(4, 0.5, 5000, 99)
        b = threshold_search(4, 0.5, 5000, 99, workers=4)
        assert a == b

    def test_low_target(self):
        res = threshold_search(3, 0.05, 20_000, 5)
        by_n = {n: est for n, est in res.trace}
        assert by_n[res.n_star].p_hat >= 0.05
        # p(3,3) = 1/4 >= 0.05 and no 3-AP exists before n=3
        assert res.n_star == 3

    def test_rejects_extreme_targets(self):
        with pytest.raises(ValueError):
            threshold_search(3, 0.96, 100, 0)
        with pytest.raises(ValueError):
            threshold_search(3, 0.02, 100, 0)

    def test_ceiling_error(self):
        with pytest.raises(SearchCeilingError):
            threshold_search(8, 0.95, 200, 3, ceiling=16)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("k", range(3, 13))
    def test_matches_estimate_driven_search(self, k, target, workers):
        # walk-down, doubling, bisection and budget escalation all occur
        # over this grid; every trace entry must equal estimate_prob's
        ref = estimate_driven_search(k, target, 300, 2026)
        assert threshold_search(k, target, 300, 2026, workers=workers) == ref

    def test_capped_horizons_match(self, monkeypatch):
        # a 4-word budget caps rows at n = 256, where doubling lands
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 4)
        ref = estimate_driven_search(10, 0.95, 60, 1, ceiling=256)
        assert 256 in [n for n, _ in ref.trace]
        assert threshold_search(10, 0.95, 60, 1) == ref

    def test_default_ceiling_is_the_row_limit(self, monkeypatch):
        assert montecarlo.DEFAULT_SEARCH_CEILING == 1 << 24
        assert montecarlo.DEFAULT_SEARCH_CEILING == 64 * montecarlo._CHUNK_WORDS
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 4)
        with pytest.raises(SearchCeilingError) as exc:
            threshold_search(12, 0.9, 200, 3)
        assert exc.value.ceiling == 256

    def test_one_pool_per_search(self, monkeypatch):
        started = []

        class Counted(montecarlo.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        ref = threshold_search(12, 0.5, 600, 3)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Counted)
        assert threshold_search(12, 0.5, 600, 3, workers=2) == ref
        assert started == [2]
        assert threshold_search(12, 0.5, 600, 3) == ref
        assert started == [2]
        with Counted(max_workers=3) as pool:
            assert threshold_search(12, 0.5, 600, 3, workers=3, pool=pool) == ref
        assert started == [2, 3]

    def test_trace_records_every_evaluation(self):
        res = threshold_search(3, 0.5, 3000, 17)
        ns = [n for n, _ in res.trace]
        assert len(ns) == len(set((n, e.samples) for n, e in res.trace))
        assert res.n_star in ns


class TestScalingReport:
    def test_small_range(self):
        rep = scaling_report(3, 5, 0.5, 3000, 12)
        assert [r.k for r in rep.rows] == [3, 4, 5]
        ns = [r.n_star for r in rep.rows]
        assert ns == sorted(ns)
        for row in rep.rows:
            assert row.log2_n_star == pytest.approx(math.log2(row.n_star))
            scale = 2 ** (row.k / 2)
            assert row.ratio_sqrt == pytest.approx(
                row.n_star / (scale * math.sqrt(row.k))
            )
            assert row.ratio_3half == pytest.approx(
                row.n_star / (scale * row.k ** 1.5)
            )
        assert math.isfinite(rep.slope)

    def test_single_k_slope_is_nan(self):
        rep = scaling_report(4, 4, 0.5, 1000, 1)
        assert math.isnan(rep.slope)
        assert rep.n_star_increasing  # vacuous

    def test_deterministic(self):
        a = scaling_report(3, 4, 0.5, 1500, 5)
        b = scaling_report(3, 4, 0.5, 1500, 5, workers=3)
        assert a == b

    def test_one_pool_per_report(self, monkeypatch):
        started = []

        class Counted(montecarlo.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        ref = scaling_report(8, 11, 0.5, 300, 5)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Counted)
        assert scaling_report(8, 11, 0.5, 300, 5, workers=2) == ref
        assert started == [2]

    def test_ratio_envelope(self):
        # n_star / (2^(k/2) sqrt(k)) should not wander by more than 8x
        rep = scaling_report(3, 6, 0.5, 2000, 2)
        ratios = [r.ratio_sqrt for r in rep.rows]
        assert max(ratios) / min(ratios) < 8

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scaling_report(5, 4, 0.5, 100, 0)
        with pytest.raises(ValueError):
            scaling_report(2, 4, 0.5, 100, 0)

    def test_k_budget_guard(self):
        with pytest.raises(ValueError, match="k_budget"):
            scaling_report(3, 25, 0.5, 100, 0)
        # explicit opt-in raises the bound
        rep = scaling_report(3, 3, 0.5, 200, 0, k_budget=30)
        assert rep.rows[0].k == 3
