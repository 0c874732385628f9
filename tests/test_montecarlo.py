import bisect
import itertools
import math
import random
import statistics
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apth import _philox, coloring, montecarlo
from apth.errors import SearchCeilingError
from apth.montecarlo import (
    ProbEstimate,
    estimate_prob,
    scaling_report,
    standard_error,
    threshold_search,
    wilson_interval,
)
from apth.probability import (
    clump_threshold,
    exact_prob_mono,
    markov_upper,
    mono_count_distribution,
)
from oracles import ap_tuples, estimate_driven_search, is_mono, naive_walk


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

    @pytest.mark.parametrize("successes, samples", [
        (1, 2), (1, 10), (13, 500), (30, 100), (250, 500), (499, 500),
        (2120, 5000), (7, 64000), (63993, 64000),
    ])
    def test_interior_endpoints_match_reference(self, successes, samples):
        # the score interval restated in its closed form, with z from the
        # stdlib's normal quantile: every digit of every printed ci_low and
        # ci_high depends on z
        z = statistics.NormalDist().inv_cdf(0.975)
        p = successes / samples
        root = z * math.sqrt(z * z + 4 * samples * p * (1 - p))
        scale = 2 * (samples + z * z)
        lo = (2 * successes + z * z - root) / scale
        hi = (2 * successes + z * z + root) / scale
        assert wilson_interval(successes, samples) == (
            pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12)
        )

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

    def test_standard_error_of_the_estimate(self):
        est = estimate_prob(3, 6, 5000, 1)
        assert 0 < est.p_hat < 1
        assert est.standard_error() == standard_error(est.p_hat, est.samples)
        assert est.standard_error() == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / 5000)
        )
        # a certain event has no spread
        assert estimate_prob(3, 9, 1000, 1).standard_error() == 0.0

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

    def test_prefix_first_pass(self, monkeypatch):
        # at k=16 the first stage covers [1, 960]; of these samples some
        # hit there, some only beyond it, and some not at all
        k, n = 16, 1600
        table = _philox.words(7, np.arange(12, dtype=np.uint64), n // 64)
        aps = ap_tuples(k, n)
        head = [ap for ap in aps if ap[-1] <= 960]
        bits = [int.from_bytes(r.astype("<u8").tobytes(), "little") for r in table]
        expected = np.array([any(is_mono(b, ap) for ap in aps) for b in bits])
        in_prefix = np.array([any(is_mono(b, ap) for ap in head) for b in bits])
        assert in_prefix.any()
        assert (expected & ~in_prefix).any()
        assert (~expected).any()
        # Ranges hold whole 64-sample groups, so the 12 colorings repeat
        # over 260 samples.  First the samples without a hit, then those
        # that hit only past [1, 960], so the first sample of the second
        # stage must come out False; then the reverse, so a second stage
        # that detected the first samples of a range instead of its misses
        # would count too many.
        samples = 260
        base = np.resize(np.arange(12), samples)
        misses_first = base[np.lexsort((in_prefix[base], expected[base]))]
        for order in (misses_first, misses_first[::-1]):
            rows, want = table[order], expected[order].sum()
            monkeypatch.setattr(
                _philox,
                "words",
                lambda seed, ids, count: rows[ids.astype(np.intp), :count].copy(),
            )
            assert estimate_prob(k, n, samples, 0).successes == want
            # a 1,920-word kernel budget: ranges of two groups at the first
            # stage's 15 words, and second-stage slices of one group at n's
            # 25, so a range's more than 64 misses take two slices
            monkeypatch.setattr(coloring, "_KERNEL_WORDS", 1920)
            assert montecarlo._range_rows(960) == 128
            assert montecarlo._range_rows(n) == 64
            misses = [np.count_nonzero(~in_prefix[order][lo : lo + 128]) for lo in (0, 128)]
            assert max(misses) > 64
            assert estimate_prob(k, n, samples, 0).successes == want
            # three workers, each given a share: ranges of 87 samples, not
            # whole groups
            monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
            assert _run_ranges(samples, n, 3, 960)[0][0] == (0, 87)
            assert estimate_prob(k, n, samples, 0, workers=3).successes == want
            monkeypatch.undo()

    @pytest.mark.parametrize("k", [14, 16])
    def test_stages_match_one_pass(self, k):
        # around the end of the first stage, [1, 64(k-1)], the staged count
        # equals one pass of the kernel over whole rows; at head + 1 some
        # samples hit only through the last element
        head, samples = 64 * (k - 1), 3000
        ids = np.arange(samples, dtype=np.uint64)
        one_pass = {
            n: montecarlo.batch_has_mono_ap(_philox.words(5, ids, -(-n // 64)), n, k)
            for n in (head - 1, head, head + 1, head + 70)
        }
        assert (one_pass[head + 1] & ~one_pass[head]).any()
        for n, hits in one_pass.items():
            assert estimate_prob(k, n, samples, 5).successes == hits.sum(), n

    def test_prefix_stage_generates_fewer_words(self, monkeypatch):
        # supercritical: nearly every sample hits within its first k-1
        # words, so few whole rows are generated; each generated batch
        # feeds exactly one detection call
        k, n, samples = 8, 2000, 3000
        generated, detected = [], []
        words, detect = _philox.words, montecarlo.batch_has_mono_ap

        def counted_words(*args, **kwargs):
            out = words(*args, **kwargs)
            generated.append(out.size)
            return out

        def counted_detect(rows, *args):
            detected.append(rows.size)
            return detect(rows, *args)

        ref = estimate_prob(k, n, samples, 1)
        monkeypatch.setattr(_philox, "words", counted_words)
        monkeypatch.setattr(montecarlo, "batch_has_mono_ap", counted_detect)
        assert estimate_prob(k, n, samples, 1) == ref
        assert ref.p_hat == 1.0
        assert generated == detected
        assert sum(generated) < samples * -(-n // 64)

    def test_markov_certifies_estimates(self):
        # true p <= markov bound, so p_hat exceeds it by at most noise
        for k, n in [(3, 4), (3, 7), (4, 12), (5, 25), (10, 30)]:
            est = estimate_prob(k, n, 20_000, 8)
            bound = markov_upper(k, n)
            assert est.p_hat <= bound + 3 * standard_error(
                max(est.p_hat, 1e-9), est.samples
            ), (k, n)


class TestChunkBudget:
    # a range's rows: whole 64-sample groups whose generated words fit the
    # kernel budget, coloring._KERNEL_WORDS, read at call time

    def test_sizes_up_to_512_words(self):
        for w in range(1, 513):
            assert montecarlo._range_rows(64 * w) == 64 * ((1 << 11) // w), w
        assert montecarlo._range_rows(1) == 1 << 17
        assert montecarlo._range_rows(1168) == 6848  # 19 words, 107 groups

    def test_shrinks_to_one_group_then_refuses(self):
        assert montecarlo._range_rows(1 << 17) == 64
        assert montecarlo._range_rows((1 << 17) + 1) == 64
        assert montecarlo._range_rows(1 << 24) == 64
        # refused before any word is generated
        with pytest.raises(ValueError, match="16777216-word budget"):
            estimate_prob(3, (1 << 24) + 1, 1, 0)

    def test_one_row_chunks_keep_estimates(self, monkeypatch):
        # one group a range under a 1-word budget, then one sample a range
        # with as many workers as samples, each given a share
        ref = estimate_prob(12, 300, 12, 3)
        assert 0 < ref.successes < ref.samples
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 1)
        assert montecarlo._range_rows(300) == 64
        assert estimate_prob(12, 300, 12, 3) == ref
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        ranges, total = _run_ranges(12, 300, 12)
        assert ranges == [(i, i + 1) for i in range(12)]
        assert total == sum(range(12))
        assert estimate_prob(12, 300, 12, 3, workers=12) == ref

    def test_tiny_budget_rejects_wide_rows(self, monkeypatch):
        # the kernel budget must not pass the matrix budget
        monkeypatch.setattr(coloring, "_MATRIX_WORDS", 256)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 256)
        with pytest.raises(ValueError, match="256-word budget"):
            estimate_prob(12, 300, 10, 3)
        assert estimate_prob(3, 256, 10, 3).samples == 10


def _run_ranges(samples, n, workers, width=None):
    """The ranges, in order, that a ``_runner`` of ``workers`` hands to
    ``fn`` for a batch, and the sum it returns; each range's ``fn`` gives
    the sum of its sample indices."""
    ranges = []

    def fn(lo, hi):
        ranges.append((lo, hi))
        return sum(range(lo, hi))

    with montecarlo._runner(workers) as run:
        total = run(fn, samples, n, width)
    return sorted(ranges), total


class TestRanges:
    # the ranges a runner hands to fn, recorded through _runner itself

    def test_one_worker_takes_whole_chunks(self, monkeypatch):
        # one worker walks the whole batch in ranges of _range_rows(width)
        # rows; a 960-word kernel budget makes that one group at 15 words
        for budget, chunk in [(None, 8704), (960, 64)]:
            if budget is not None:
                monkeypatch.setattr(coloring, "_KERNEL_WORDS", budget)
            assert montecarlo._range_rows(960) == chunk
            for samples in (1, 5, 63, 64, 65, 8000, 8704, 8705, 30000):
                ranges, total = _run_ranges(samples, 1156, 1, 960)
                assert ranges == [
                    (lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk)
                ]
                assert total == samples * (samples - 1) // 2

    def test_one_chunk_spreads_over_workers(self, monkeypatch):
        # estimate_prob(16, 1156, 8000) lays its ranges out for the first
        # stage's [1, 960]: 15-word rows, one 8,704-row chunk.  Its 8000 x
        # 1156 coloring bits engage two shares of 2^22, so a third worker
        # takes none until every bit is a share
        assert montecarlo._range_rows(960) == 8704
        assert _run_ranges(8000, 1156, 1, 960)[0] == [(0, 8000)]
        halves = [(0, 4000), (4000, 8000)]
        assert _run_ranges(8000, 1156, 2, 960)[0] == halves
        assert _run_ranges(8000, 1156, 3, 960)[0] == halves
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        assert len(_run_ranges(8000, 1156, 3, 960)[0]) == 3

    @given(st.integers(1, 3000), st.integers(1, 8), st.integers(1, 1 << 17), st.data())
    def test_ranges_tile_the_samples(self, samples, workers, width, data):
        # up to 2^17 words a row, chunks run from 2^17 rows down to one
        # group, and samples x n reach 93 shares of 2^22 bits, so every
        # worker count can be engaged
        n = data.draw(st.integers(width, 1 << 17))
        ranges, total = _run_ranges(samples, n, workers, width)
        assert ranges[0][0] == 0 and ranges[-1][1] == samples
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        engaged = min(workers, max(1, samples * n // montecarlo._MIN_SHARE_BITS))
        most = min(montecarlo._range_rows(width), -(-samples // engaged))
        assert all(0 < hi - lo <= most for lo, hi in ranges)
        assert total == samples * (samples - 1) // 2

    def test_ranges_are_made_as_they_are_walked(self):
        # a batch of 10^14 samples lists no ranges up front: the first
        # range reaches fn before 1 MB is allocated
        class Stop(Exception):
            pass

        def first(lo, hi):
            peak.append(tracemalloc.get_traced_memory()[1])
            raise Stop

        for workers in (1, 2):
            peak = []
            tracemalloc.start()
            try:
                with pytest.raises(Stop):
                    with montecarlo._runner(workers) as run:
                        run(first, 10**14, 24)
            finally:
                tracemalloc.stop()
            assert peak and max(peak) < 1 << 20, workers

    def test_at_most_one_task_per_worker(self, monkeypatch):
        # at the worker cap and 10^14 samples of [1, 10^6], the pool is
        # handed one task per share, each share's start, and no thread
        # starts: the fake pool runs nothing
        tasks = []

        class Unstarted:
            def __init__(self, max_workers):
                assert max_workers == montecarlo._MAX_WORKERS

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, starts):
                tasks.extend(starts)
                return [0] * len(tasks)

        def never(lo, hi):
            raise AssertionError("a range ran")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Unstarted)
        threads = threading.active_count()
        samples, workers = 10**14, montecarlo._MAX_WORKERS
        with montecarlo._runner(workers) as run:
            assert run(never, samples, 10**6) == 0
        share = -(-samples // workers)
        assert tasks == list(range(0, samples, share))
        assert len(tasks) == workers
        assert threading.active_count() == threads

    def test_an_exception_stops_the_other_shares(self, monkeypatch):
        # at n = 2^22 a range is one 64-row group, so each of two shares of
        # 64,000 samples walks 500 ranges.  Share 0 raises while share 1
        # has a range in flight, which returns only once the pool shuts
        # down: share 1 must walk no further range
        samples, n = 64_000, 1 << 22
        assert montecarlo._range_rows(n) == 64
        in_flight, shutting = threading.Event(), threading.Event()
        threads, ranges = set(), []

        class Pool(montecarlo.ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutting.set()
                super().shutdown(*args, **kwargs)

        class Boom(Exception):
            pass

        def fn(lo, hi):
            threads.add(threading.get_ident())
            if lo < samples // 2:
                assert in_flight.wait(10)
                raise Boom
            ranges.append((lo, hi))
            in_flight.set()
            assert shutting.wait(10)
            return hi - lo

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
        with pytest.raises(Boom):
            with montecarlo._runner(2) as run:
                run(fn, samples, n)
        assert ranges == [(32_000, 32_064)]
        assert len(threads) == 2

    def test_single_chunk_estimate_keeps_result(self):
        ref = estimate_prob(16, 1156, 600, 4)
        assert estimate_prob(16, 1156, 600, 4, workers=2) == ref
        assert estimate_prob(16, 1156, 600, 4, workers=3) == ref


class TestKernelBudget:
    # every batch producer sizes its kernel calls from one budget,
    # coloring._KERNEL_WORDS, read at call time

    @staticmethod
    def _outputs():
        return (
            estimate_prob(16, 1600, 700, 5),
            threshold_search(12, 0.5, 600, 3),
            exact_prob_mono(5, 16),
            mono_count_distribution(5, 16),
        )

    def test_small_budget_bounds_every_matrix(self, monkeypatch, scans):
        # a 4,096-word budget splits every producer's batches; no matrix
        # passes max(budget, n) words, and no result changes.  Every sink
        # scans its whole matrix through _breaks, once per d
        calls = scans(lambda b, d, done, chain: (b.size, b.shape[0]))
        ref = self._outputs()
        whole = len(calls)
        assert max(words for words, _ in calls) > 4096
        calls.clear()
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 4096)
        assert self._outputs() == ref
        assert len(calls) > whole
        assert all(words <= max(4096, n) for words, n in calls)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_second_stage_slices_keep_estimates(self, monkeypatch, workers):
        # a 1,920-word budget lays ranges out at two groups of the first
        # stage's [1, 960] and slices the second stage at one group of
        # [1, 1600], so most ranges' misses take two slices; every thread
        # count gets a share, and the count equals one pass on whole rows.
        # The second stage skips the k-APs that end in [1, 960].  A range's
        # m misses take ceil(m / slice rows) slices of whole groups but the
        # last, whose group counts differ by at most one, so none is left
        # short: at 4,800 words (slices of up to three groups) one or two
        # workers' ranges of five groups cut their misses 2 + 2 groups
        k, n, samples, seed = 16, 1600, 700, 5
        ids = np.arange(samples, dtype=np.uint64)
        words = _philox.words(seed, ids, n // 64)
        one_pass = int(montecarlo.batch_has_mono_ap(words, n, k).sum())
        detected = []  # per detection call: its thread, n, rows and skipped prefix
        detect, resume = montecarlo.batch_has_mono_ap, montecarlo._has_mono

        def counted(rows, n, k):
            detected.append((threading.get_ident(), n, rows.shape[0], 0))
            return detect(rows, n, k)

        def resumed(rows, n, k, done):
            detected.append((threading.get_ident(), n, rows.shape[0], done))
            return resume(rows, n, k, done)

        monkeypatch.setattr(montecarlo, "batch_has_mono_ap", counted)
        monkeypatch.setattr(montecarlo, "_has_mono", resumed)
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        for budget, range_rows, slice_rows in ((1920, 128, 64), (4800, 320, 192)):
            detected.clear()
            monkeypatch.setattr(coloring, "_KERNEL_WORDS", budget)
            assert estimate_prob(k, n, samples, seed, workers=workers).successes == one_pass
            first = [rows for _, m, rows, done in detected if m == 960 and done == 0]
            second = [rows for _, m, rows, done in detected if m == n and done == 960]
            assert len(first) + len(second) == len(detected)
            assert max(first) == min(range_rows, -(-samples // workers))
            assert budget > 1920 or len(second) > len(first)
            # each range's misses follow its first stage on its thread
            slices = {}
            for thread, m, rows, _ in detected:
                if m == 960:
                    slices.setdefault(thread, []).append([])
                else:
                    slices[thread][-1].append(rows)
            for cut in (c for per_thread in slices.values() for c in per_thread if c):
                groups = [-(-rows // 64) for rows in cut]
                assert len(cut) == -(-sum(cut) // slice_rows), cut
                assert all(rows % 64 == 0 for rows in cut[:-1]), cut
                assert max(groups) - min(groups) <= 1, cut

    @pytest.mark.parametrize("k, n, samples", [(12, 700, 3000), (14, 1500, 1200)])
    def test_repacks_keep_estimates(self, monkeypatch, k, n, samples):
        # a 4,096-word budget cuts both stages into many kernel calls, each
        # of which bit-slices its live rows again as they hit; every thread
        # count gets a share, and the count equals one scan of the whole
        # rows that keeps every sample to the end
        words = _philox.words(2, np.arange(samples, dtype=np.uint64), -(-n // 64))
        b = coloring._bitsliced(words, n)
        found = coloring._any_mono(b, n, k, samples)[0]
        ref = estimate_prob(k, n, samples, 2)
        assert ref.successes == int(np.bitwise_count(found).sum())
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 4096)
        for workers in (1, 2, 3):
            assert estimate_prob(k, n, samples, 2, workers=workers) == ref, workers

    def test_two_workers_split_the_simulate_batch(self, monkeypatch):
        # estimate_prob(20, 4700, 5000): ranges are laid out at the first
        # stage's [1, 1216], where one range holds the whole batch, but
        # threads are engaged by samples x n, so two workers take half each
        ranges, threads = [], set()
        count_hits = montecarlo._count_hits

        def counted(k, n, head, seed, lo, hi):
            ranges.append((lo, hi))
            threads.add(threading.get_ident())
            return count_hits(k, n, head, seed, lo, hi)

        ref = estimate_prob(20, 4700, 5000, 1)
        monkeypatch.setattr(montecarlo, "_count_hits", counted)
        assert estimate_prob(20, 4700, 5000, 1) == ref
        assert ranges == [(0, 5000)]
        ranges.clear()
        threads.clear()
        assert estimate_prob(20, 4700, 5000, 1, workers=2) == ref
        assert sorted(ranges) == [(0, 2500), (2500, 5000)]
        assert threading.get_ident() not in threads


def _sample_ids(seed, count, words):
    """The ids below ``count`` of the streams of ``seed`` whose first words
    are the rows of ``words``."""
    drawn = _philox.words(seed, np.arange(count, dtype=np.uint64), words.shape[1])
    index = {row.tobytes(): i for i, row in enumerate(drawn)}
    assert len(index) == count
    return [index[row.tobytes()] for row in words]


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

    def test_samples_cap_is_read_from_the_arguments(self, monkeypatch):
        # budget doublings reach 8 x samples rows, so the cap is
        # _MATRIX_WORDS // 8 samples (2^21), refused before the record of
        # the samples is built
        assert montecarlo._SEARCH_SAMPLES * 8 == coloring._MATRIX_WORDS == 1 << 24

        def unbuilt(seed):
            raise AssertionError("the record of the samples was built")

        monkeypatch.setattr(montecarlo, "_Samples", unbuilt)
        for samples in ((1 << 21) + 1, 2_000_000_000):
            with pytest.raises(ValueError, match="search's cap 2097152"):
                threshold_search(8, 0.5, samples, 1)
            with pytest.raises(ValueError, match="cap 2097152"):
                scaling_report(8, 9, 0.5, samples, 1)
        # at the cap the search goes on to build its record
        with pytest.raises(AssertionError, match="record"):
            threshold_search(8, 0.5, 1 << 21, 1)

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
        # p_hat(14) is 0.51 at 300 samples but 0.488 at 600, so here the
        # ceiling stops the bracket's restore after a budget doubling
        with pytest.raises(SearchCeilingError):
            threshold_search(5, 0.5, 300, 4, ceiling=14)
        with pytest.raises(SearchCeilingError):
            estimate_driven_search(5, 0.5, 300, 4, ceiling=14)
        res = threshold_search(5, 0.5, 300, 4, ceiling=15)
        assert res == estimate_driven_search(5, 0.5, 300, 4, ceiling=15)
        assert res.n_star == 15
        # at k = 3 the search starts at n = 3, where p_hat passes 0.05, so
        # a ceiling of 2 must start it at 2, which never reaches the target
        with pytest.raises(SearchCeilingError):
            threshold_search(3, 0.05, 200, 1, ceiling=2)
        with pytest.raises(SearchCeilingError):
            estimate_driven_search(3, 0.05, 200, 1, ceiling=2)
        res = threshold_search(3, 0.05, 200, 1, ceiling=3)
        assert res == estimate_driven_search(3, 0.05, 200, 1, ceiling=3)
        assert res.n_star == 3

    @pytest.mark.parametrize("ceiling", [0, -1])
    def test_rejects_ceiling_below_one(self, ceiling):
        with pytest.raises(ValueError):
            threshold_search(3, 0.05, 200, 1, ceiling=ceiling)
        with pytest.raises(ValueError):
            scaling_report(3, 4, 0.5, 200, 1, ceiling=ceiling)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("target", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("k", range(3, 13))
    def test_matches_estimate_driven_search(self, k, target, workers):
        # walk-down, doubling, bisection and budget escalation all occur
        # over this grid; every trace entry must equal estimate_prob's
        ref = estimate_driven_search(k, target, 300, 2026)
        assert threshold_search(k, target, 300, 2026, workers=workers) == ref

    def test_capped_horizons_match(self, monkeypatch):
        # a 256-word matrix budget caps rows at n = 256, where doubling
        # lands; the kernel budget shrinks with it, as it must not pass it
        monkeypatch.setattr(coloring, "_MATRIX_WORDS", 256)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 256)
        ref = estimate_driven_search(10, 0.95, 60, 1, ceiling=256)
        assert 256 in [n for n, _ in ref.trace]
        assert threshold_search(10, 0.95, 60, 1) == ref

    def test_default_ceiling_is_the_row_limit(self, monkeypatch):
        # the default ceiling reads the matrix budget at call time
        assert coloring._MATRIX_WORDS == 1 << 24
        monkeypatch.setattr(coloring, "_MATRIX_WORDS", 256)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 256)
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

    @pytest.mark.parametrize("args, philox", [
        ((12, 0.5, 600, 3), (5, 20616)),
        # a store narrowed to the bracket's hi at a doubling would generate
        # 1,733 of this search's words twice
        ((16, 0.5, 494, 2), (7, 81040)),
    ], ids=["k12", "k16"])
    def test_generates_each_word_once(self, monkeypatch, args, philox):
        # points carry words: no (stream, word) pair is generated twice,
        # and a point below one already run at its budget (every bisection
        # midpoint) generates nothing
        generated = []  # per point: the (stream, word) pairs generated
        pending = []
        calls = []
        words, from_counts = _philox.words, ProbEstimate.from_counts.__func__

        def counted_words(seed, ids, nwords, first_word=0):
            calls.append(len(ids) * nwords)
            pending.extend(
                (int(i), j) for i in ids for j in range(first_word, first_word + nwords)
            )
            return words(seed, ids, nwords, first_word=first_word)

        def counted_from_counts(cls, k, n, m, successes, seed):
            generated.append(pending[:])
            pending.clear()
            return from_counts(cls, k, n, m, successes, seed)

        ref = threshold_search(*args)
        monkeypatch.setattr(_philox, "words", counted_words)
        monkeypatch.setattr(ProbEstimate, "from_counts", classmethod(counted_from_counts))
        assert threshold_search(*args) == ref
        pairs = [p for point in generated for p in point]
        assert len(pairs) == len(set(pairs))
        assert (len(calls), sum(calls)) == philox
        below = [
            i for i, (n, e) in enumerate(ref.trace)
            if any(e2.samples == e.samples and n2 > n for n2, e2 in ref.trace[:i])
        ]
        assert len(below) >= 5
        assert all(generated[i] == [] for i in below)

    @pytest.mark.parametrize("store_words", [0, 300, 1000, 2 * 300 * 6])
    def test_small_word_store_keeps_results(self, monkeypatch, store_words):
        # past its budget the store keeps fewer columns, or none, and the
        # rest is generated at each point
        monkeypatch.setattr(montecarlo, "_STORE_WORDS", store_words)
        for k, target in ((10, 0.5), (12, 0.95)):
            ref = estimate_driven_search(k, target, 300, 2026)
            assert threshold_search(k, target, 300, 2026) == ref

    @pytest.mark.parametrize("store_words", [montecarlo._STORE_WORDS, 2400])
    def test_store_narrows_only_for_its_budget(self, monkeypatch, store_words):
        # the store stays within its budget after every resize, and loses
        # columns only when its new rows would pass the budget at the old
        # width, as 2,400 words force at the budget doublings of both a
        # search and a report
        monkeypatch.setattr(montecarlo, "_STORE_WORDS", store_words)
        shrunk = []
        grow = montecarlo._Samples.grow

        def checked(self, m, n):
            rows, cols = self.store.shape
            grow(self, m, n)
            assert self.store.size <= store_words
            assert self.store.shape[0] >= max(rows, m)
            if self.store.shape[1] < cols:
                assert self.store.shape[0] * cols > store_words
                shrunk.append((rows, cols))

        monkeypatch.setattr(montecarlo._Samples, "grow", checked)
        assert threshold_search(12, 0.5, 300, 5) == estimate_driven_search(12, 0.5, 300, 5)
        scaling_report(8, 10, 0.5, 300, 5)
        assert bool(shrunk) == (store_words == 2400)

    def test_split_ranges_keep_results(self, monkeypatch):
        # with every point split over the threads, each writes its own
        # rows of the word store; frequent thread switches would expose a
        # lost or crossed write
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        ref = estimate_driven_search(11, 0.5, 300, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                assert threshold_search(11, 0.5, 300, 7, workers=workers) == ref
        finally:
            sys.setswitchinterval(interval)

    def test_no_sample_is_detected_after_its_first_hit(self, monkeypatch):
        # every detection reports each sample's exact first hit, so a
        # sample seen to hit never reaches the kernel again, and points
        # below the widest one already run detect nothing
        seed = 3
        calls = []  # per kernel call: n, the sample ids, their first hits
        first_hits = montecarlo._first_hits

        def wrapped(words, n, k, done=0):
            out = first_hits(words, n, k, done)
            calls.append((n, _sample_ids(seed, 8 * 600, words), out.tolist()))
            return out

        ref = threshold_search(12, 0.5, 600, seed)
        monkeypatch.setattr(montecarlo, "_first_hits", wrapped)
        assert threshold_search(12, 0.5, 600, seed) == ref
        hit_at = {}
        for n, ids, firsts in calls:
            assert not hit_at.keys() & set(ids), n
            hit_at.update((i, f) for i, f in zip(ids, firsts) if f <= n)
        # every count in the trace is read from the first hits
        for n, e in ref.trace:
            assert e.successes == sum(i < e.samples and f <= n for i, f in hit_at.items())
        assert len(calls) < len(ref.trace) - 5

    def test_doubling_detects_its_new_samples_once(self, monkeypatch):
        # the samples a doubling adds first reach the kernel together, in
        # one call at the bracket's hi, and the points that restore the
        # bracket read them without detecting
        seed, samples = 3, 600
        calls = []  # per kernel call: n and the sample ids it detects
        first_hits = montecarlo._first_hits

        def wrapped(words, n, k, done=0):
            calls.append((n, set(_sample_ids(seed, 8 * samples, words))))
            return first_hits(words, n, k, done)

        ref = threshold_search(12, 0.5, samples, seed)
        monkeypatch.setattr(montecarlo, "_first_hits", wrapped)
        assert threshold_search(12, 0.5, samples, seed) == ref
        assert len(calls) == 8
        for m in (samples, 2 * samples, 4 * samples):
            # the bracket's hi at budget m: its smallest point at the target
            hi = min(n for n, e in ref.trace if e.samples == m and e.p_hat >= 0.5)
            new = set(range(m, 2 * m))
            assert next((n, got) for n, got in calls if got & new) == (hi, new)

    def test_pinned_result(self):
        # how a search detects must never change what it reports
        res = threshold_search(16, 0.5, 500, 1)
        assert (res.n_star, res.bracket_low, res.bracket_high) == (1180, 1168, 1180)
        assert len(res.trace) == 17

    def test_trace_records_every_evaluation(self):
        res = threshold_search(3, 0.5, 3000, 17)
        ns = [n for n, _ in res.trace]
        assert len(ns) == len(set((n, e.samples) for n, e in res.trace))
        assert res.n_star in ns


#: Calls of a synthetic ``count`` after which it fails: a walk that never
#: ends fails instead of hanging.  The longest walk of the laws below
#: makes a few hundred.
_COUNT_CALLS = 10_000


def _counts(first_hits: list[int]):
    """``count(n, m)`` = #{i < m : first_hits[i] <= n}, the count a search
    reads from its record, with no detection behind it."""
    calls = itertools.count(1)
    ordered = {}

    def count(n, m):
        assert next(calls) < _COUNT_CALLS, "the walk does not end"
        assert m <= len(first_hits)
        if m not in ordered:
            ordered[m] = sorted(first_hits[:m])
        return bisect.bisect_right(ordered[m], n)

    return count


@st.composite
def _first_hit_laws(draw):
    """(k, target, samples, ceiling, first hits of 8 x samples samples).

    Each sample's first hit is drawn from up to 16 values of at least k,
    as no real sample hits on [1, k - 1]: so ties and plateaus are
    common, and k itself and values past the ceiling occur too.  In
    runs of samples / 4 equal first hits, with samples a multiple of 4,
    a point's p_hat often equals a target of 1/4, 1/2 or 3/4 exactly."""
    k = draw(st.integers(3, 12))
    samples = 4 * draw(st.integers(1, 12))
    target = draw(st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.05, 0.95))
    ceiling = draw(st.integers(1, 3000) | st.just(coloring._MATRIX_WORDS))
    values = draw(
        st.lists(st.integers(k, k + 60) | st.integers(k, 3000), min_size=1, max_size=16)
    )
    run = draw(st.sampled_from([1, samples // 4]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    hits = [v for _ in range(8 * samples // run) for v in [rnd.choice(values)] * run]
    return k, target, samples, ceiling, hits


def _ends(walk):
    """What a walk returns, or the ceiling it stops at."""
    try:
        return walk()
    except SearchCeilingError as exc:
        return "ceiling", exc.k, exc.target, exc.ceiling


class TestWalk:
    """The search's walk reads only counts of first hits, so synthetic laws
    drive it with no detection, against the oracle's naive walk."""

    @settings(max_examples=300, deadline=None)
    # p_hat sits exactly at the target from n = 50 to 199 at every budget:
    # n* is 50, where it first reaches it
    @example(law=(3, 0.5, 4, coloring._MATRIX_WORDS, [50, 50, 200, 200] * 8))
    @given(law=_first_hit_laws())
    def test_walk_matches_naive_walk(self, law):
        k, target, samples, ceiling, hits = law
        seed = 7
        got = _ends(
            lambda: montecarlo._walk(k, target, samples, ceiling, _counts(hits), seed)
        )
        count = _counts(hits)
        ref = _ends(lambda: naive_walk(
            k, target, samples, seed, ceiling,
            lambda n, m: ProbEstimate.from_counts(k, n, m, count(n, m), seed),
        ))
        assert got == ref

    def test_walk_reads_nothing_but_counts(self):
        # no name that the walk or its nested functions load reaches the
        # record, the kernel, the generator or numpy
        names, codes = set(), [montecarlo._walk.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if hasattr(c, "co_names")]
        assert not names & {"np", "coloring", "_philox", "_Samples", "_first_hits"}


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

    @staticmethod
    def _recorded_searches(monkeypatch):
        # every search a report runs, each checked to keep the word store
        # that it hands to the next k within its budget
        results = []
        search = montecarlo._search

        def recorded(*args):
            results.append(search(*args))
            assert args[-1].store.size <= montecarlo._STORE_WORDS
            return results[-1]

        monkeypatch.setattr(montecarlo, "_search", recorded)
        return results

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_k_equals_a_fresh_search(self, monkeypatch, workers):
        # each k starts from the words and known misses of the k below,
        # yet finds exactly what a search of its own finds, trace included
        fresh = [threshold_search(k, 0.5, 300, 5) for k in range(8, 13)]
        results = self._recorded_searches(monkeypatch)
        rep = scaling_report(8, 12, 0.5, 300, 5, workers=workers)
        assert results == fresh
        assert [row.n_star for row in rep.rows] == [res.n_star for res in fresh]

    def test_split_ranges_keep_report(self, monkeypatch):
        # with every point split over the threads, the record carried from
        # k to k+1 is written range by range from several threads
        ref = scaling_report(8, 11, 0.5, 300, 7)
        monkeypatch.setattr(montecarlo, "_MIN_SHARE_BITS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3):
                assert scaling_report(8, 11, 0.5, 300, 7, workers=workers) == ref
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("store_words", [0, 300, 2400])
    def test_small_word_store_keeps_results(self, monkeypatch, store_words):
        # after k = 8 the report holds 8 x 300 samples, so 300 and 2,400
        # words leave the store no column, or one, at every budget
        fresh = [threshold_search(k, 0.5, 300, 5) for k in range(8, 13)]
        ref = scaling_report(8, 12, 0.5, 300, 5)
        monkeypatch.setattr(montecarlo, "_STORE_WORDS", store_words)
        results = self._recorded_searches(monkeypatch)
        assert scaling_report(8, 12, 0.5, 300, 5) == ref
        assert results == fresh

    def test_report_reuses_words_across_k(self, monkeypatch):
        # each k reads the words the k below stored; a report whose searches
        # each started afresh made 23 Philox calls of 56,056 words
        calls = []
        words = _philox.words

        def counted_words(seed, ids, nwords, first_word=0):
            calls.append(len(ids) * nwords)
            return words(seed, ids, nwords, first_word=first_word)

        ref = scaling_report(8, 12, 0.5, 300, 5)
        monkeypatch.setattr(_philox, "words", counted_words)
        assert scaling_report(8, 12, 0.5, 300, 5) == ref
        assert (len(calls), sum(calls)) == (8, 17656)

    def test_thresholds_track_the_declumped_first_moment(self):
        # n* sits at or just above the smallest n whose expected number
        # of maximal monochromatic runs reaches ln 2 (seed 1 reads
        # 1.03-1.05 over k = 8..12)
        rep = scaling_report(8, 12, 0.5, 500, 1)
        for row in rep.rows:
            assert 0.95 <= row.n_star / clump_threshold(row.k, 0.5) <= 1.10, row

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
