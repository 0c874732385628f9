import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apth import _philox, coloring, montecarlo, probability
from apth.coloring import (
    Coloring,
    RandomStream,
    _any_mono,
    _bitsliced,
    _breaks,
    _carry_save,
    _first_hits,
    _mono_counts,
    _padding,
    _plane_histogram,
    _plane_values,
    _resolve,
    batch_count_mono_aps,
    batch_has_mono_ap,
    count_mono_aps,
    has_mono_ap,
    mono_in_family,
    random_coloring,
)
from apth.family import APFamily, large_diff_family
from oracles import (
    ap_tuples,
    is_mono,
    mono_free_frontiers,
    naive_count_mono,
    naive_first_hit,
    naive_has_mono,
)


class TestColoring:
    def test_string_round_trip(self):
        c = Coloring.from01("10101")
        assert c.n == 5 and c.bits == 0b10101
        assert c.to01() == "10101"

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            Coloring.from01("")
        with pytest.raises(ValueError):
            Coloring.from01("10x1")

    def test_padding_must_be_zero(self):
        with pytest.raises(ValueError):
            Coloring(3, 0b1000)

    def test_words_and_hex(self):
        c = Coloring(70, (1 << 69) | 0b11)
        words = c.words()
        assert len(words) == 2
        assert words[0] == 3
        assert words[1] == 1 << 5
        assert c.hex_words() == ["0000000000000003", "0000000000000020"]
        assert Coloring.from_words(70, words) == c
        # a word out of range, a set bit above n, a word too many
        for bad in ([-1, 0], [1 << 64, 0], [0, 1 << 6], [0, 0, 0]):
            with pytest.raises(ValueError):
                Coloring.from_words(70, bad)

    def test_words_of_a_stream(self):
        words = RandomStream(3).next_words(2)
        c = Coloring.from_words(128, words)
        assert c.words() == words.tolist()
        assert c == random_coloring(128, RandomStream(3))

    def test_large_round_trip(self):
        # the conversions are linear in n
        c = random_coloring(200_000, RandomStream(7))
        start = time.perf_counter()
        assert Coloring.from01(c.to01()) == c
        assert Coloring.from_words(c.n, c.words()) == c
        assert time.perf_counter() - start < 1.0

    def test_flip(self):
        c = Coloring.from01("1100")
        assert c.flipped().to01() == "0011"
        assert c.flipped().flipped() == c

    def test_red_count(self):
        assert Coloring.from01("10110").red_count() == 3


class TestRandomStream:
    def test_matches_numpy_philox(self):
        # the generator contract: stream (seed, id) is numpy's Philox
        # keyed by [seed, id]
        for seed, sid, count in [(0, 0, 4), (42, 7, 13), (2**63, 5, 9)]:
            ref = np.random.Philox(
                key=np.array([seed, sid], dtype=np.uint64)
            ).random_raw(count)
            got = RandomStream(seed, sid).next_words(count)
            assert np.array_equal(ref, got), (seed, sid)

    def test_sequential_draws_are_stream_slices(self):
        s = RandomStream(9, 1)
        a = s.next_words(3)
        b = s.next_words(5)
        assert s.position == 8
        fresh = RandomStream(9, 1)
        assert np.array_equal(np.concatenate([a, b]), fresh.next_words(8))

    def test_words_at_is_pure(self):
        s = RandomStream(11, 2)
        assert np.array_equal(s.words_at(5, 4), s.words_at(5, 4))
        assert s.position == 0

    def test_distinct_streams_differ(self):
        a = RandomStream(1, 0).next_words(4)
        b = RandomStream(1, 1).next_words(4)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(0, 1 << 64)

    @pytest.mark.parametrize("nwords, first_word", [(-1, 0), (3, -1)])
    def test_batched_words_refuse_negative_positions(self, nwords, first_word):
        ids = np.arange(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="nonnegative"):
            _philox.words(1, ids, nwords, first_word)

    def test_batched_words_equal_per_stream_words(self):
        ids = np.arange(50, dtype=np.uint64)
        batch = _philox.words(123, ids, 7)
        for i in range(50):
            assert np.array_equal(
                batch[i], RandomStream(123, i).next_words(7)
            )


def _numpy_words(seed: int, sid: int, nwords: int, first_word: int) -> np.ndarray:
    """Words [first_word, first_word+nwords) of stream (seed, sid), read
    from ``numpy.random.Philox`` started at the block holding first_word:
    with counter c its first block is the one at counter c+1."""
    block, skip = divmod(first_word, 4)
    gen = np.random.Philox(
        key=np.array([seed, sid], dtype=np.uint64),
        counter=np.array([block, 0, 0, 0], dtype=np.uint64),
    )
    return gen.random_raw(skip + nwords)[skip:]


class TestPhiloxTiles:
    # _philox.words generates its batch in tiles of rows; every stream must
    # still be numpy's Philox word for word, wherever the tiles fall

    _TOP = (1 << 64) - 1

    def _check(self, seed, ids, nwords, first_word):
        got = _philox.words(seed, np.array(ids, dtype=np.uint64), nwords, first_word)
        assert got.shape == (len(ids), nwords) and got.dtype == np.uint64
        for row, sid in zip(got, ids):
            assert np.array_equal(
                row, _numpy_words(seed, sid, nwords, first_word)
            ), (seed, sid, nwords, first_word)

    @pytest.mark.parametrize("seed", [0, _TOP])
    @pytest.mark.parametrize("first_word", [0, 1, 2, 3, 1 << 40])
    def test_extreme_keys_and_offsets(self, seed, first_word):
        ids = [0, 1, 12345, self._TOP - 2, self._TOP - 1, self._TOP]
        for nwords in (1, 3, 4, 9):
            self._check(seed, ids, nwords, first_word)

    def test_empty_batches(self):
        self._check(5, [], 7, 2)
        self._check(5, [3, 4], 0, 2)
        assert _philox.words(5, np.zeros(0, dtype=np.uint64), 0).shape == (0, 0)

    @pytest.mark.parametrize("tile_blocks", [1, 2, 3, 5])
    def test_rows_straddle_tiles(self, monkeypatch, tile_blocks):
        # tiles of a few blocks: up to 5 rows of one block per tile, rows of
        # several blocks one to a tile, and rows wider than a tile
        monkeypatch.setattr(_philox, "_TILE_BLOCKS", tile_blocks)
        ids = [7, 0, self._TOP, 99, 3, 1 << 63, 42]
        for nwords, first_word in ((1, 0), (4, 4), (5, 3), (11, 2), (30, 1)):
            self._check(2**64 - 1, ids, nwords, first_word)

    def test_large_batch_spans_tiles(self):
        # 40 rows of 251 blocks: 32 rows to a tile, the last tile short
        ids = list(range(1000, 1040))
        self._check(9, ids, 1001, 3)

    @pytest.mark.parametrize("tile_blocks", [1, 1 << 13])
    def test_last_words_of_a_stream(self, monkeypatch, tile_blocks):
        # a stream ends with the block at counter 2^64 - 1, the largest the
        # counter's first lane holds: word 4(2^64 - 1) - 1
        monkeypatch.setattr(_philox, "_TILE_BLOCKS", tile_blocks)
        end = 4 * self._TOP
        for nwords, first_word in ((1, end - 1), (4, end - 4), (3, end - 6), (9, end - 9)):
            self._check(3, [0, 5, self._TOP], nwords, first_word)
        assert _philox.words(3, np.array([5], dtype=np.uint64), 0, end).shape == (1, 0)

    def test_words_past_the_last_are_refused(self):
        end = 4 * self._TOP
        ids = np.array([0, 5], dtype=np.uint64)
        for nwords, first_word in ((1, end), (5, end - 4), (8, end - 4), (8, 1 << 66), (2, 1 << 70)):
            with pytest.raises(ValueError, match=f"word 4\\*\\(2\\^64-1\\)-1 = {end - 1}"):
                _philox.words(3, ids, nwords, first_word)
        with pytest.raises(ValueError, match="2\\^64"):
            RandomStream(1, 2).words_at((1 << 66) - 8, 8)


class TestRandomColoring:
    def test_deterministic_for_fixed_key(self):
        a = random_coloring(100, RandomStream(42, 7))
        b = random_coloring(100, RandomStream(42, 7))
        assert a == b

    def test_padding_cleared(self):
        for n in (1, 63, 64, 65, 100):
            c = random_coloring(n, RandomStream(3, 4))
            assert c.bits < (1 << n)

    def test_prefix_coupling(self):
        # growing n extends the same coloring rather than redrawing it
        small = random_coloring(40, RandomStream(5, 6))
        large = random_coloring(200, RandomStream(5, 6))
        assert large.bits & ((1 << 40) - 1) == small.bits

    def test_single_element_uniformity(self):
        ids = np.arange(100_000, dtype=np.uint64)
        first_bits = _philox.words(2024, ids, 1)[:, 0] & np.uint64(1)
        assert abs(first_bits.mean() - 0.5) < 0.01

    def test_word_popcount_mean(self):
        ids = np.arange(100_000, dtype=np.uint64)
        words = _philox.words(99, ids, 1)[:, 0]
        mean = np.bitwise_count(words).astype(np.float64).mean()
        assert abs(mean - 32.0) < 0.25


class TestMonoDetection:
    def test_all_red_interval(self):
        for k in (3, 4, 5):
            c = Coloring(k, (1 << k) - 1)
            assert has_mono_ap(c, k)

    def test_no_ap_fits(self):
        for bits in range(1 << 2):
            assert not has_mono_ap(Coloring(2, bits), 3)

    def test_hand_checked_patterns(self):
        assert has_mono_ap(Coloring.from01("10101"), 3)  # {1,3,5} red
        assert not has_mono_ap(Coloring.from01("11001100"), 3)

    def test_count_examples(self):
        assert count_mono_aps(Coloring(5, 0b11111), 3) == 4
        assert count_mono_aps(Coloring.from01("11001100"), 3) == 0
        assert count_mono_aps(Coloring.from01("10101"), 3) == 1

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            has_mono_ap(Coloring(5, 0), 2)
        with pytest.raises(ValueError):
            count_mono_aps(Coloring(5, 0), 2)

    def test_exhaustive_oracle_equivalence_small(self):
        # every coloring of [1, n], tuple-based oracle
        for n in range(3, 11):
            for k in (3, 4):
                for bits in range(1 << n):
                    c = Coloring(n, bits)
                    assert has_mono_ap(c, k) == naive_has_mono(bits, k, n)
                    assert count_mono_aps(c, k) == naive_count_mono(bits, k, n)

    def test_exhaustive_oracle_equivalence_to_16(self):
        # every coloring of [1, n] up to n = 16, as one batch, against a
        # direct scan over enumerate_aps (per-AP element masks; no
        # shifted-AND anywhere)
        for n in range(3, 17):
            words = np.arange(1 << n, dtype=np.uint64).reshape(-1, 1)
            for k in (3, 4):
                masks = [
                    sum(1 << (e - 1) for e in ap) for ap in ap_tuples(k, n)
                ]
                expected = np.array([
                    sum(1 for m in masks if bits & m == m or bits & m == 0)
                    for bits in range(1 << n)
                ])
                counts = batch_count_mono_aps(words, n, k)
                assert np.array_equal(counts, expected), (n, k)
                assert np.array_equal(
                    batch_has_mono_ap(words, n, k), expected > 0
                ), (n, k)

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_colorings_match_oracle(self, k, data):
        n = data.draw(st.integers(k, 70))
        bits = data.draw(st.integers(0, (1 << n) - 1))
        c = Coloring(n, bits)
        assert has_mono_ap(c, k) == naive_has_mono(bits, k, n)
        assert count_mono_aps(c, k) == naive_count_mono(bits, k, n)

    @given(st.integers(3, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_color_flip_symmetry(self, k, data):
        n = data.draw(st.integers(k, 64))
        bits = data.draw(st.integers(0, (1 << n) - 1))
        c = Coloring(n, bits)
        assert has_mono_ap(c, k) == has_mono_ap(c.flipped(), k)
        assert count_mono_aps(c, k) == count_mono_aps(c.flipped(), k)

    @given(st.integers(3, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_count_positive_iff_detected(self, k, data):
        n = data.draw(st.integers(k, 50))
        bits = data.draw(st.integers(0, (1 << n) - 1))
        c = Coloring(n, bits)
        assert (count_mono_aps(c, k) > 0) == has_mono_ap(c, k)


class TestMonoInFamily:
    def test_all_red_hits_any_nonempty_family(self):
        fam = large_diff_family(3, 12)
        assert mono_in_family(Coloring(12, (1 << 12) - 1), fam)

    def test_empty_family_never_hits(self):
        fam = APFamily(3, 5, [])
        assert not mono_in_family(Coloring.from01("10101"), fam)

    def test_single_member_hit(self):
        fam = large_diff_family(3, 5)  # just {1,3,5}
        assert mono_in_family(Coloring.from01("10101"), fam)
        assert not mono_in_family(Coloring.from01("00101"), fam)

    def test_family_must_fit_in_coloring(self):
        fam = large_diff_family(3, 12)
        with pytest.raises(ValueError):
            mono_in_family(Coloring(5, 0), fam)


class TestBatchKernel:
    def _random_words(self, seed, rows, n):
        nwords = -(-n // 64)
        words = _philox.words(seed, np.arange(rows, dtype=np.uint64), nwords)
        top = n - (nwords - 1) * 64
        if top < 64:
            words[:, -1] &= np.uint64((1 << top) - 1)
        return words

    @pytest.mark.parametrize("n", [3, 12, 63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_matches_scalar_kernel(self, n, k):
        # the scalar API wraps this kernel, so the reference is the
        # tuple-based oracle
        words = self._random_words(77, 128, n)
        got = batch_has_mono_ap(words, n, k)
        aps = ap_tuples(k, n)
        for i in range(words.shape[0]):
            bits = int.from_bytes(words[i].astype("<u8").tobytes(), "little")
            expected = any(is_mono(bits, ap) for ap in aps)
            assert bool(got[i]) == expected, (n, k, i)

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_counts_match_naive_oracle(self, k, data):
        n = data.draw(st.sampled_from([63, 64, 65, 129]) | st.integers(k, 140))
        rows = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3)
        )
        words = np.concatenate([_packed(bits, n) for bits in rows])
        got = batch_count_mono_aps(words, n, k)
        assert got.dtype == np.int64
        assert got.tolist() == [naive_count_mono(bits, k, n) for bits in rows]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 200])
    def test_shift_into_dirty_buffer(self, n):
        # the chain of every d reuses one scratch buffer: whatever it held
        # before, the result must be the direct scan of that d
        words = self._random_words(n, 70, n)
        bits = _bits(words, n)
        b = _bitsliced(words, n)
        buf = np.full_like(b, np.uint64(0xFFFFFFFFFFFFFFFF))
        for k in (3, 4, 7):
            for d in range(1, (n - 1) // (k - 1) + 1):
                got = _breaks(b, d, k, buf)
                assert np.shares_memory(got, buf)
                steps = np.arange(n - (k - 1) * d)[:, None] + d * np.arange(k)
                for r, row in enumerate(bits):
                    vals = row[steps]
                    mono = vals.all(axis=1) | ~vals.any(axis=1)
                    clear = (got[:, r // 64] >> np.uint64(r % 64)) & np.uint64(1) == 0
                    assert np.array_equal(clear, mono), (n, k, d, r)

    def test_batch_rows_match_random_coloring(self):
        # the Monte Carlo engine's row i must be exactly the library
        # coloring drawn from stream (seed, i)
        n, seed = 130, 31337
        words = self._random_words(seed, 32, n)
        for i in range(32):
            c = random_coloring(n, RandomStream(seed, i))
            bits = int.from_bytes(words[i].astype("<u8").tobytes(), "little")
            assert bits == c.bits

    def test_no_ap_possible(self):
        words = self._random_words(5, 16, 3)
        assert not batch_has_mono_ap(words, 3, 4).any()

    def test_shape_validation(self):
        # rows of too few words, and one row not held in a 2-D batch
        words = self._random_words(5, 4, 100)
        for bad in (words, np.zeros(4, dtype=np.uint64)):
            with pytest.raises(ValueError):
                batch_has_mono_ap(bad, 200, 3)
            with pytest.raises(ValueError):
                batch_count_mono_aps(bad, 200, 3)


def _peak(fn) -> int:
    """The peak bytes Python allocates while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refused(fn, *args):
    with pytest.raises(ValueError, match="budget"):
        fn(*args)


class TestMatrixBudget:
    def test_scalar_call_refuses_before_building_its_row(self):
        # the row of n = 2^40 alone would take 128 GB
        c = Coloring(1 << 40, 0)
        for fn in (has_mono_ap, count_mono_aps):
            assert _peak(lambda: _refused(fn, c, 3)) < 1 << 20
        for fn in (Coloring.words, Coloring.hex_words, Coloring.to01, Coloring.flipped):
            assert _peak(lambda: _refused(fn, c)) < 1 << 20
        stream = RandomStream(1)
        assert _peak(lambda: _refused(random_coloring, 1 << 40, stream)) < 1 << 20

    def test_refused_random_coloring_keeps_the_cursor(self):
        stream = RandomStream(1)
        _refused(random_coloring, 1 << 40, stream)
        assert random_coloring(100, stream) == random_coloring(100, RandomStream(1))

    def test_batch_past_the_budget_refuses(self):
        # 65 colorings of [1, 2^24] take two 64-sample groups: 2^25 words;
        # a broadcast view stands in for the rows without allocating them
        words = np.broadcast_to(np.uint64(0), (65, 1 << 18))
        for fn in (batch_has_mono_ap, batch_count_mono_aps):
            assert _peak(lambda: _refused(fn, words, 1 << 24, 3)) < 1 << 20

    def test_budget_admits_one_coloring_at_the_row_limit(self):
        assert coloring._MATRIX_WORDS == 1 << 24
        at_limit = np.broadcast_to(np.uint64(0), (64, 1 << 18))
        assert _peak(lambda: coloring._check_rows(at_limit, 1 << 24, 3)) < 1 << 20
        _refused(coloring._check_matrix, (1 << 24) + 1, 1)
        _refused(coloring._check_matrix, 1 << 24, 65)

    def test_monte_carlo_batches_fit_the_budget(self):
        # a Monte Carlo range of colorings of [1, n], computed without
        # allocating it: whole groups, whose generated words and matrix fit
        # the kernel budget unless one group alone passes it, and the
        # matrix budget always
        kernel, matrix = coloring._KERNEL_WORDS, coloring._MATRIX_WORDS
        edges = {(1 << j) + e for j in range(25) for e in (-1, 0, 1)}
        for n in sorted({*range(1, 1 << 24, 9973), *edges} - {0, (1 << 24) + 1}):
            rows = montecarlo._range_rows(n)
            groups, nwords = rows // 64, -(-n // 64)
            assert rows > 0 and rows % 64 == 0, n
            generated, built = rows * nwords, n * groups
            if 64 * nwords <= kernel:
                assert generated <= kernel and built <= kernel, n
            else:
                assert groups == 1, n
            assert generated <= matrix and built <= matrix, n


def _prefix(words: np.ndarray, n: int) -> np.ndarray:
    """Rows cut to their coloring of [1, n]: ceil(n/64) words, zero above n."""
    nwords = -(-n // 64)
    prefix = words[:, :nwords].copy()
    top = n - (nwords - 1) * 64
    if top < 64:
        prefix[:, -1] &= np.uint64((1 << top) - 1)
    return prefix


class TestFirstHit:
    # The first hit of a coloring is the smallest n whose prefix [1, n]
    # holds a monochromatic k-AP (see TestFirstHits for the kernel that
    # finds it).  These check first hits through the detection and count
    # kernels on prefixes of wider rows.
    _random_words = TestBatchKernel._random_words

    # van der Waerden numbers W(2; k) (Kouril & Paul, Exp. Math. 2008):
    # every coloring of [1, W] has a mono k-AP, so every first hit lies
    # in [k, W]
    @pytest.mark.parametrize("k, w", [(4, 35), (5, 178), (6, 1132)])
    def test_van_der_waerden_points(self, k, w):
        words = self._random_words(k, 64, w + 70)
        at_w = _prefix(words, w)
        assert batch_has_mono_ap(at_w, w, k).all()
        assert (batch_count_mono_aps(at_w, w, k) > 0).all()
        below_k = _prefix(words, k - 1)
        assert not batch_has_mono_ap(below_k, k - 1, k).any()

    def test_no_ap_possible(self):
        # no first hit comes before k: a prefix shorter than k holds no k-AP
        words = self._random_words(5, 16, 3)
        for k in (4, 5, 8):
            for n in range(1, 4):
                prefix = _prefix(words, n)
                assert not batch_has_mono_ap(prefix, n, k).any(), (k, n)
                assert not batch_count_mono_aps(prefix, n, k).any(), (k, n)

    def test_shape_validation(self):
        # a prefix must be cut to exactly ceil(n/64) words
        words = self._random_words(5, 4, 100)
        wide = self._random_words(5, 4, 200)
        flat = np.zeros(3, dtype=np.uint64)
        for bad, n in ((words, 200), (wide, 100), (flat, 100)):
            with pytest.raises(ValueError):
                batch_has_mono_ap(bad, n, 3)
            with pytest.raises(ValueError):
                batch_count_mono_aps(bad, n, 3)
        assert batch_has_mono_ap(_prefix(wide, 100), 100, 3).shape == (4,)


def _packed(bits: int, n: int) -> np.ndarray:
    nwords = -(-n // 64)
    return np.array(
        [[(bits >> (64 * i)) & ((1 << 64) - 1) for i in range(nwords)]],
        dtype=np.uint64,
    )


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) booleans: entry [r, i] is element i+1 of row r."""
    as_bytes = words.astype("<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n].view(bool)


def _first_mono_d(bits: np.ndarray, k: int) -> np.ndarray:
    """Per row of (rows, n) booleans, the smallest d of a monochromatic
    k-AP, or 0 if it has none: a direct scan over every (start, d), with
    no chains and no bit-slicing, which stops once every row has one."""
    n = bits.shape[1]
    first = np.zeros(bits.shape[0], dtype=int)
    for d in range(1, (n - 1) // (k - 1) + 1):
        steps = np.arange(n - (k - 1) * d)[:, None] + d * np.arange(k)
        vals = bits[:, steps]
        mono = (vals.all(axis=2) | ~vals.any(axis=2)).any(axis=1)
        first[(first == 0) & mono] = d
        if first.all():
            break
    return first


def _mono_end_range(bits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (rows, n) booleans, the first and the last element at
    which one of its monochromatic k-APs ends (n + 1 and 0 if it has
    none), by the direct scan of ``_first_mono_d``."""
    n = bits.shape[1]
    first = np.full(bits.shape[0], n + 1)
    last = np.zeros(bits.shape[0], dtype=int)
    for d in range(1, (n - 1) // (k - 1) + 1):
        steps = np.arange(n - (k - 1) * d)[:, None] + d * np.arange(k)
        vals = bits[:, steps]
        mono = vals.all(axis=2) | ~vals.any(axis=2)
        ends = steps[:, -1] + 1
        first = np.minimum(first, np.where(mono, ends, n + 1).min(axis=1))
        last = np.maximum(last, np.where(mono, ends, 0).max(axis=1))
    return first, last


class TestFirstHits:
    # _first_hits gives each sample the smallest n' <= n with a
    # monochromatic k-AP in [1, n'], or n + 1; the threshold search keeps
    # it per sample, so no sample that has hit is detected again
    _random_words = TestBatchKernel._random_words

    @pytest.mark.parametrize("k", range(3, 9))
    def test_matches_naive_oracle(self, k):
        wide = 300
        words = self._random_words(100 + k, 70, wide)
        rows = [int.from_bytes(r.astype("<u8").tobytes(), "little") for r in words]
        # the first hit on [1, wide] fixes it on every prefix [1, n]
        first = np.array([naive_first_hit(bits, k, wide) for bits in rows])
        rng = np.random.default_rng(k)
        # 127..129 and 256, 257 put n - done on both sides of powers of two
        for n in (1, k - 1, 63, 64, 65, 127, 128, 129, 130, 256, 257, wide):
            prefix = _prefix(words, n)
            expected = np.minimum(first, n + 1)
            got = _first_hits(prefix, n, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (k, n)
            # done just below some row's first hit keeps that row on the edge
            edges = [f - 1 for f in expected.tolist() if f <= n][:3]
            for done in {0, k - 1, int(rng.integers(n)), n - 1, *edges}:
                keep = expected > done
                if done >= n or not keep.any():
                    continue
                got = _first_hits(prefix[keep], n, k, done=done)
                assert np.array_equal(got, expected[keep]), (k, n, done)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_first_hit_grows_with_k(self, k):
        # a monochromatic (k+1)-AP holds a monochromatic k-AP, its first k
        # terms, so no sample hits at k+1 before its first hit at k: a
        # scaling report carries each sample's misses at k over to k+1
        n = 160
        words = self._random_words(200 + k, 60, n)
        rows = [int.from_bytes(r.astype("<u8").tobytes(), "little") for r in words]
        at_k = _first_hits(words, n, k)
        at_next = _first_hits(words, n, k + 1)
        assert at_k.tolist() == [naive_first_hit(bits, k, n) for bits in rows]
        assert at_next.tolist() == [naive_first_hit(bits, k + 1, n) for bits in rows]
        assert (at_next >= at_k).all()
        assert (at_next > at_k).any()
        # so k+1 may resume past the smallest first hit at k
        done = int(at_k.min()) - 1
        assert np.array_equal(_first_hits(words, n, k + 1, done=done), at_next)

    def test_agrees_with_detection_and_counts(self):
        k, n = 5, 200
        words = self._random_words(9, 500, n)
        first = _first_hits(words, n, k)
        assert np.array_equal(first <= n, batch_has_mono_ap(words, n, k))
        assert np.array_equal(first <= n, batch_count_mono_aps(words, n, k) > 0)
        for cut in (int(first.min()), int(np.median(first)), n):
            at_cut = batch_has_mono_ap(_prefix(words, cut), cut, k)
            assert np.array_equal(first <= cut, at_cut), cut

    def test_hit_ending_at_done_reads_as_no_hit(self):
        # a row whose monochromatic k-APs all end at one element e: from
        # done = e on, only later ends are checked, so it reads as no hit
        k, n = 4, 20
        words = self._random_words(4, 4096, n)
        first, last = _mono_end_range(_bits(words, n), k)
        r = np.flatnonzero((first == last) & (last < n))[0]
        e = int(first[r])
        row = words[r : r + 1]
        assert naive_first_hit(int(row[0, 0]), k, n) == e
        assert _first_hits(row, n, k).tolist() == [e]
        assert _first_hits(row, n, k, done=e - 1).tolist() == [e]
        assert _first_hits(row, n, k, done=e).tolist() == [n + 1]
        assert _first_hits(row, n, k, done=n - 1).tolist() == [n + 1]

    @pytest.mark.parametrize("done", [-1, 100, 101])
    def test_rejects_done_outside_the_row(self, done):
        words = self._random_words(5, 70, 100)
        with pytest.raises(ValueError):
            _first_hits(words, 100, 3, done=done)


class TestMonoFreeFrontier:
    # the frontier grows one element at a time through the resumed scan,
    # done = n - 1, so it checks that path at every n below W(2; k)
    # against known van der Waerden numbers and exact enumeration

    @pytest.mark.parametrize("k, w", [(3, 9), (4, 35)])
    def test_first_empties_at_the_van_der_waerden_number(self, k, w):
        assert [n for n, f in mono_free_frontiers(k) if f.size == 0] == [w]

    @pytest.mark.parametrize("k, n_max", [(3, 8), (4, 19)])
    def test_matches_exact_probability(self, k, n_max):
        for n, f in mono_free_frontiers(k):
            if n > n_max:
                break
            # the free colorings with element 1 blue are the flips of F_n
            free = Fraction(2 * f.size, 1 << n)
            assert 1 - free == probability.exact_prob_mono(k, n), n


class TestBitSliced:
    _random_words = TestBatchKernel._random_words

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("rows", [1, 63, 65, 130])
    def test_transpose_and_padding(self, n, rows):
        words = self._random_words(rows + n, rows, n)
        b = _bitsliced(words, n)
        assert b.shape == (n, -(-rows // 64))
        bits = _bits(words, n)
        for r in range(-(-rows // 64) * 64):
            col = (b[:, r // 64] >> np.uint64(r % 64)) & np.uint64(1)
            # padding slots read as blue
            expected = bits[r] if r < rows else np.zeros(n, dtype=bool)
            assert np.array_equal(col.astype(bool), expected), (n, rows, r)
        # the same rows as drawn, with random bits above n and the first
        # of them set
        ids = np.arange(rows, dtype=np.uint64)
        drawn = _philox.words(rows + n, ids, words.shape[1])
        if n % 64:
            drawn[:, -1] |= np.uint64(1 << n % 64)
        assert np.array_equal(_bitsliced(drawn, n), b)
        for k in (3, 4):
            has = batch_has_mono_ap(words, n, k)
            counts = batch_count_mono_aps(words, n, k)
            assert has.shape == counts.shape == (rows,)
            assert has.tolist() == (_first_mono_d(bits, k) > 0).tolist()
            assert has.tolist() == (counts > 0).tolist()
            # any memory layout of the rows reads the same
            strided = np.asfortranarray(words)
            assert batch_has_mono_ap(strided, n, k).tolist() == has.tolist()
            # bits above n are ignored
            assert batch_has_mono_ap(drawn, n, k).tolist() == has.tolist()
            assert batch_count_mono_aps(drawn, n, k).tolist() == counts.tolist()

    def test_padding_slots_never_count(self, scans):
        # 70 all-blue rows: the 58 padding slots of the second group are
        # blue too, and must neither be reported nor keep the scan going
        # past d = 1, where every real row hits
        scanned = scans(lambda b, d, done, chain: d)
        words = np.zeros((70, 1), dtype=np.uint64)
        found, d = _any_mono(_bitsliced(words, 5), 5, 3, 70)
        assert found.tolist() == [0xFFFFFFFFFFFFFFFF, (1 << 6) - 1]
        assert scanned == [1] and d == 2
        planes = _mono_counts(_bitsliced(words, 5), 5, 3)
        assert _plane_values(planes, 70).tolist() == [4] * 70

    @pytest.mark.parametrize("n", [1, 64, 200])
    def test_empty_batch(self, n):
        words = np.zeros((0, -(-n // 64)), dtype=np.uint64)
        assert batch_has_mono_ap(words, n, 3).shape == (0,)
        counts = batch_count_mono_aps(words, n, 3)
        assert counts.shape == (0,) and counts.dtype == np.int64

    @pytest.mark.parametrize("groups_per_chunk", [1, 1 << 14])
    def test_enumerated_chunks_match_packed_rows(self, monkeypatch, groups_per_chunk):
        # the exact oracles build element-major chunks directly; they must
        # be the transpose of the one-word rows (y << 1) | 1 they enumerate
        for n in range(1, 17):
            # a budget of groups_per_chunk groups of [1, n]
            monkeypatch.setattr(coloring, "_KERNEL_WORDS", groups_per_chunk * n)
            y = np.arange(1 << (n - 1), dtype=np.uint64)
            rows = ((y << np.uint64(1)) | np.uint64(1)).reshape(-1, 1)
            # each chunk overwrites the one before, so keep copies
            chunks = [(x.copy(), c) for x, c in coloring._coloring_chunks(n)]
            assert sum(count for _, count in chunks) == rows.shape[0]
            groups = -(-rows.shape[0] // 64)
            assert chunks[0][0].shape[1] == min(groups_per_chunk, groups)
            got = np.concatenate([x for x, _ in chunks], axis=1)
            valid = ~_padding(rows.shape[0])
            assert np.array_equal(got & valid, _bitsliced(rows, n)), n
            for k in range(3, 7):
                has = np.concatenate([
                    np.unpackbits(
                        _any_mono(x, n, k, count)[0].view(np.uint8),
                        count=count, bitorder="little",
                    )
                    for x, count in chunks
                ]).astype(bool)
                counts = np.concatenate([
                    _plane_values(_mono_counts(x, n, k), count)
                    for x, count in chunks
                ])
                assert has.tolist() == batch_has_mono_ap(rows, n, k).tolist()
                assert counts.tolist() == batch_count_mono_aps(rows, n, k).tolist()


class TestAnyMonoSplit:
    # _any_mono ANDs each chain down its rows in two levels: q full blocks
    # of r rows as one (q, r * groups) matrix, then fewer than r rows left,
    # with r = _REDUCE_WORDS // groups; at r = 1 it is one plain reduce

    _random_words = TestBatchKernel._random_words

    @pytest.mark.parametrize("n, k, groups, qs", [
        # r = 2048: q = 1 while the scan lasts
        (2200, 12, 1, {1}),
        # r = 75: q = 2, then 1, then 0 as the chains shorten
        (200, 10, 27, {0, 1, 2}),
        # r = 6: q from 8 down to 0, 18 rows at d = 6 split evenly
        (60, 8, 300, {0, 1, 3, 4, 5, 6, 7, 8}),
        # r = 1: one plain reduce of the chain's 17 to 2 rows
        (20, 4, 2050, {17, 14, 11, 8, 5, 2}),
    ])
    def test_matches_direct_scan(self, scans, n, k, groups, qs):
        r = max(1, coloring._REDUCE_WORDS // groups)
        calls = scans(lambda b, d, done, chain: (d, chain.shape[0] // r))
        samples = 64 * groups - 5
        words = self._random_words(n + groups, samples, n)
        found, d = _any_mono(_bitsliced(words, n), n, k, samples)
        got = np.unpackbits(found.view(np.uint8), count=64 * groups, bitorder="little")
        first = _first_mono_d(_bits(words, n), k)
        assert got[:samples].astype(bool).tolist() == (first > 0).tolist()
        assert not got[samples:].any()
        # the scan stops at the d where the last sample first hits, or
        # runs through every d if some sample never does
        stop = first.max() if first.all() else (n - 1) // (k - 1)
        assert [d for d, _ in calls] == list(range(1, stop + 1)) and d == stop + 1
        assert {q for _, q in calls} == qs
        if n <= 200:
            for i in range(8):
                bits = int.from_bytes(words[i].astype("<u8").tobytes(), "little")
                assert bool(got[i]) == naive_has_mono(bits, k, n), i


class TestLiveRepack:
    # batch_has_mono_ap scans d = 1, 2, ... on the bit-sliced rows; once at
    # most half of the matrix's slots are live (no hit yet), it bit-slices
    # the live rows alone again and resumes at the next d

    _random_words = TestBatchKernel._random_words

    @staticmethod
    def _naive(words: np.ndarray, n: int, k: int) -> list[bool]:
        return [
            naive_has_mono(int.from_bytes(row.astype("<u8").tobytes(), "little"), k, n)
            for row in words
        ]

    @staticmethod
    def _counted_slices(monkeypatch) -> list[int]:
        """Rows of every ``_bitsliced`` call from now on."""
        sliced = []

        def bitsliced(words, n):
            sliced.append(words.shape[0])
            return _bitsliced(words, n)

        monkeypatch.setattr(coloring, "_bitsliced", bitsliced)
        return sliced

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 700])
    def test_matches_naive_oracle(self, monkeypatch, rows):
        # k = 7 on [1, 64]: about 60 % of the rows hit at d = 1 and most of
        # the rest at d = 2 or 3, so 700 rows take several repacks
        n, k = 64, 7
        words = self._random_words(rows + 11, rows, n)
        sliced = self._counted_slices(monkeypatch)
        got = batch_has_mono_ap(words, n, k)
        assert got.dtype == bool and got.shape == (rows,)
        assert got.tolist() == self._naive(words, n, k)
        if rows == 700:
            assert len(sliced) >= 3 and sliced[0] == 700
            # each repack takes the live rows, at most half of the slots
            for before, after in zip(sliced, sliced[1:]):
                assert 2 * after <= 64 * -(-before // 64)
        elif rows <= 64:
            # one group: nothing to gain from a repack
            assert sliced == [rows]

    def test_layouts_read_the_same(self):
        # strided, Fortran-ordered and column-sliced rows, all with random
        # bits above n
        n, k = 60, 7
        wide = _philox.words(3, np.arange(1400, dtype=np.uint64), 2)
        words = wide[:, :1].copy()
        want = self._naive(words, n, k)
        for layout in (words, np.asfortranarray(words), wide[:, :1]):
            assert batch_has_mono_ap(layout, n, k).tolist() == want
        assert batch_has_mono_ap(wide[::2, :1], n, k).tolist() == want[::2]
        assert batch_has_mono_ap(wide[::-3, :1], n, k).tolist() == want[::-3]

    def test_no_difference_fits(self, monkeypatch):
        # n < k: no d at all, so nothing is bit-sliced
        sliced = self._counted_slices(monkeypatch)
        words = self._random_words(2, 200, 6)
        assert not batch_has_mono_ap(words, 6, 7).any()
        assert sliced == []

    def test_repack_after_the_last_d(self, monkeypatch, scans):
        # on [1, 13] k = 7 has d = 1 and 2 only.  100 rows hit at d = 2
        # (the odd elements are red), 28 never do; 28 live of 128 slots
        # would call for a repack, but no d is left, so none is made
        n, k = 13, 7
        odd = int("1010101010101"[::-1], 2)
        free = int("1100110011001"[::-1], 2)
        words = np.array([[odd]] * 100 + [[free]] * 28, dtype=np.uint64)
        assert self._naive(words, n, k) == [True] * 100 + [False] * 28
        sliced = self._counted_slices(monkeypatch)
        scanned = scans(lambda b, d, done, chain: (d, b.shape[1]))
        assert batch_has_mono_ap(words, n, k).tolist() == [True] * 100 + [False] * 28
        assert sliced == [128] and scanned == [(1, 2), (2, 2)]

    def test_groups_follow_the_live_samples(self, scans):
        # estimate_prob(10, 576, 2000, 1) is one range of 32 groups on the
        # first stage's [1, 576], with no second stage.  Every sample hits
        # by d = 14; after d = 1, 2, ... there are 1154, 716, 424, 268, 141,
        # 93, 50, ... samples live, so the scan of each d reads 32 groups
        # until at most half of the slots are live, then ceil(live / 64)
        k, n, samples = 10, 576, 2000
        want = [32, 32, 12, 12, 5, 3, 2] + [1] * 7
        # the same, from each sample's first d, found by a direct scan
        first = _first_mono_d(_bits(_philox.words(1, np.arange(samples), 9), n), k)
        assert first.all() and first.max() == len(want)
        live, groups = samples, 32
        for d, g in enumerate(want, 1):
            assert g == groups, d
            live -= np.count_nonzero(first == d)
            if groups > 1 and 2 * live <= 64 * groups:
                groups = -(-live // 64)
        scanned = scans(lambda b, d, done, chain: b.shape[1])
        est = montecarlo.estimate_prob(k, n, samples, 1)
        assert est.successes == np.count_nonzero(first)
        assert scanned == want
        # a scan that kept all 32 groups would read 4.3x the words
        assert 32 * len(want) == 448 and sum(want) == 105

    @pytest.mark.parametrize("done", [6, 30, 63])
    def test_resumed_scan_matches_naive_oracle(self, monkeypatch, scans, done):
        # rows with no monochromatic 7-AP in [1, done]: the k-APs ending
        # there are skipped, and the rest decide the row
        n, k = 90, 7
        words = self._random_words(done, 1200, n)
        free = np.array([
            not naive_has_mono(
                int.from_bytes(row.astype("<u8").tobytes(), "little"), k, done
            )
            for row in words
        ])
        rows = words[free][:400]
        assert rows.shape[0] > 64
        scanned = scans(lambda b, d, resume, chain: (d, resume, chain.shape[0]))
        got = coloring._has_mono(rows, n, k, done)
        # each d's scan resumes at done: its starts run from
        # max(1, done - (k-1)d + 1) to n - (k-1)d
        assert all(
            r == done and m == n - (k - 1) * d - max(0, done - (k - 1) * d)
            for d, r, m in scanned
        )
        monkeypatch.undo()
        assert got.tolist() == self._naive(rows, n, k)
        assert got.tolist() == batch_has_mono_ap(rows, n, k).tolist()


def _unpacked(words: np.ndarray) -> np.ndarray:
    """(rows, 64 * groups) bits of a (rows, groups) word matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _add_rows(words: np.ndarray, held: np.ndarray, heights: list[int]) -> None:
    """Add the rows of ``words`` into a carry-save total, in buffers
    sized as ``_mono_counts`` sizes them."""
    rows, groups = words.shape
    x = np.empty((rows + 2, groups), dtype=np.uint64)
    x[:rows] = words
    spare = np.empty((x.shape[0] // 2 + 2, groups), dtype=np.uint64)
    _carry_save(x, rows, held, heights, spare)
    assert max(heights) <= 2


def _plane_sums(planes: np.ndarray) -> np.ndarray:
    """Per bit position, the value of the vertical counter in ``planes``."""
    weights = np.arange(planes.shape[0])[:, None]
    return (_unpacked(planes).astype(np.int64) << weights).sum(axis=0)


class TestCarrySave:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 8, 63, 64, 200])
    def test_matches_unpacked_column_sums(self, rows):
        rng = np.random.default_rng(rows)
        words = rng.integers(0, 1 << 64, size=(rows, 5), dtype=np.uint64)
        words[rows // 2] = ~np.uint64(0)  # an all-ones row
        words[:, 0] = ~np.uint64(0)  # 64 columns that reach the largest count
        planes = rows.bit_length()
        held, heights = np.empty((planes, 2, 5), dtype=np.uint64), [0] * planes
        _add_rows(words, held, heights)
        sums = _plane_sums(_resolve(held, heights))
        assert np.array_equal(sums, _unpacked(words).sum(axis=0))
        assert sums.max() == rows

    def test_adds_into_a_carry_save_total(self):
        # a total with rows at several weights takes two batches of rows
        rng = np.random.default_rng(5)
        held = rng.integers(0, 1 << 64, size=(7, 2, 3), dtype=np.uint64)
        heights = [2, 1, 0, 2, 1, 0, 0]
        expected = sum(
            _unpacked(held[w, : heights[w]]).sum(axis=0) << w for w in range(7)
        )
        for rows in (40, 9):  # the sums stay below 2^7
            words = rng.integers(0, 1 << 64, size=(rows, 3), dtype=np.uint64)
            _add_rows(words, held, heights)
            expected = expected + _unpacked(words).sum(axis=0)
        assert np.array_equal(_plane_sums(_resolve(held, heights)), expected)

    @pytest.mark.parametrize("run_words", [1, 1 << 20])
    def test_one_d_or_all_d_per_compression(self, monkeypatch, run_words):
        # the run rows of one d at a time, or of every d at once
        monkeypatch.setattr(coloring, "_RUN_WORDS", run_words)
        words = TestBatchKernel._random_words(None, 11, 70, 100)
        for k in (3, 5):
            expected = [
                naive_count_mono(int.from_bytes(row.tobytes(), "little"), k, 100)
                for row in words
            ]
            assert batch_count_mono_aps(words, 100, k).tolist() == expected


class TestPlaneHistogram:
    @pytest.mark.parametrize("top", [0, 1, 46, 63, 64, 1000])
    @pytest.mark.parametrize("samples", [1, 63, 64, 130, 200])
    def test_matches_bincount(self, top, samples):
        rng = np.random.default_rng(top + samples)
        slots = -(-samples // 64) * 64
        # padding slots hold values too; they must not be counted
        values = rng.integers(0, top + 1, size=slots, dtype=np.uint64)
        values[rng.integers(0, slots, size=3)] = top
        planes = _bitsliced(values.reshape(-1, 1), max(1, top.bit_length()))
        assert _plane_values(planes, slots).tolist() == values.tolist()
        hist = _plane_histogram(planes, samples, top)
        expected = np.bincount(_plane_values(planes, samples), minlength=top + 1)
        assert hist.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 9])
    def test_single_group_chunks(self, n):
        # below n = 7 the one group of the enumeration has padding slots
        for k in range(3, n + 1):
            top = probability.count_aps(k, n)
            for x, count in coloring._coloring_chunks(n):
                planes = _mono_counts(x, n, k)
                hist = _plane_histogram(planes, count, top)
                expected = np.bincount(_plane_values(planes, count), minlength=top + 1)
                assert hist.tolist() == expected.tolist(), (n, k)
