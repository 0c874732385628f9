import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apth import _philox, probability
from apth.coloring import (
    Coloring,
    RandomStream,
    _any_mono,
    _bitsliced,
    _breaks,
    _has_rows,
    _mono_counts,
    _padding,
    _plane_values,
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
    naive_count_mono,
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

    def test_batched_words_equal_per_stream_words(self):
        ids = np.arange(50, dtype=np.uint64)
        batch = _philox.words(123, ids, 7)
        for i in range(50):
            assert np.array_equal(
                batch[i], RandomStream(123, i).next_words(7)
            )


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
        words = self._random_words(5, 4, 100)
        with pytest.raises(ValueError):
            batch_has_mono_ap(words, 200, 3)
        with pytest.raises(ValueError):
            batch_count_mono_aps(words, 200, 3)


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
    # holds a monochromatic k-AP; the threshold search brackets it per
    # sample between miss_to and hit_from, detecting on prefixes through
    # _has_rows.  These check first hits through the kernels on prefixes
    # of wider rows.
    _random_words = TestBatchKernel._random_words

    # van der Waerden numbers W(2; k) (Kouril & Paul, Exp. Math. 2008):
    # every coloring of [1, W] has a mono k-AP, so every first hit lies
    # in [k, W]
    @pytest.mark.parametrize("k, w", [(4, 35), (5, 178), (6, 1132)])
    def test_van_der_waerden_points(self, k, w):
        words = self._random_words(k, 64, w + 70)
        at_w = _prefix(words, w)
        assert batch_has_mono_ap(at_w, w, k).all()
        assert _has_rows(at_w, w, k).all()
        assert (batch_count_mono_aps(at_w, w, k) > 0).all()
        below_k = _prefix(words, k - 1)
        assert not batch_has_mono_ap(below_k, k - 1, k).any()
        assert not _has_rows(below_k, k - 1, k).any()

    def test_no_ap_possible(self):
        # no first hit comes before k: a prefix shorter than k holds no k-AP
        words = self._random_words(5, 16, 3)
        for k in (4, 5, 8):
            for n in range(1, 4):
                prefix = _prefix(words, n)
                assert not batch_has_mono_ap(prefix, n, k).any(), (k, n)
                assert not _has_rows(prefix, n, k).any(), (k, n)
                assert not batch_count_mono_aps(prefix, n, k).any(), (k, n)

    def test_shape_validation(self):
        # a prefix must be cut to exactly ceil(n/64) words
        words = self._random_words(5, 4, 100)
        with pytest.raises(ValueError):
            batch_has_mono_ap(words, 200, 3)
        with pytest.raises(ValueError):
            batch_count_mono_aps(words, 200, 3)
        wide = self._random_words(5, 4, 200)
        with pytest.raises(ValueError):
            batch_has_mono_ap(wide, 100, 3)
        with pytest.raises(ValueError):
            batch_count_mono_aps(wide, 100, 3)
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


def _scan_has_mono(bits: np.ndarray, k: int) -> np.ndarray:
    """Per row of (rows, n) booleans, whether some k-AP is one color: a
    direct scan over every (start, d), with no chains and no bit-slicing."""
    n = bits.shape[1]
    found = np.zeros(bits.shape[0], dtype=bool)
    for d in range(1, (n - 1) // (k - 1) + 1):
        steps = np.arange(n - (k - 1) * d)[:, None] + d * np.arange(k)
        vals = bits[:, steps]
        found |= (vals.all(axis=2) | ~vals.any(axis=2)).any(axis=1)
    return found


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
        for k in (3, 4):
            has = batch_has_mono_ap(words, n, k)
            counts = batch_count_mono_aps(words, n, k)
            assert has.shape == counts.shape == (rows,)
            assert has.tolist() == _scan_has_mono(bits, k).tolist()
            assert has.tolist() == (counts > 0).tolist()
            # any memory layout of the rows reads the same
            strided = np.asfortranarray(words)
            assert batch_has_mono_ap(strided, n, k).tolist() == has.tolist()

    def test_padding_slots_never_count(self):
        # 70 all-blue rows: the 58 padding slots of the second group are
        # blue too, and must neither be reported nor keep the group alive
        words = np.zeros((70, 1), dtype=np.uint64)
        found = _any_mono(_bitsliced(words, 5), 5, 3, _padding(70))
        assert found[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert found[1] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert np.bitwise_count(found & ~_padding(70)).sum() == 70
        planes = _mono_counts(_bitsliced(words, 5), 5, 3)
        assert _plane_values(planes, 70).tolist() == [4] * 70

    @pytest.mark.parametrize("n", [1, 64, 200])
    def test_empty_batch(self, n):
        words = np.zeros((0, -(-n // 64)), dtype=np.uint64)
        assert batch_has_mono_ap(words, n, 3).shape == (0,)
        counts = batch_count_mono_aps(words, n, 3)
        assert counts.shape == (0,) and counts.dtype == np.int64

    def test_prefix_first_pass(self):
        # at k=16 the prefix pass covers [1, 960]; with these rows some hit
        # there, some only beyond it, and some not at all
        k, n = 16, 1600
        words = self._random_words(7, 40, n)
        expected = _scan_has_mono(_bits(words, n), k)
        # rows without a hit first, so the first survivor of the prefix
        # pass must come out False
        words = words[np.argsort(expected, kind="stable")]
        bits = _bits(words, n)
        in_prefix = _scan_has_mono(bits[:, : 64 * (k - 1)], k)
        expected = _scan_has_mono(bits, k)
        assert in_prefix.any()
        assert (expected & ~in_prefix).any()
        assert (~expected).any()
        assert batch_has_mono_ap(words, n, k).tolist() == expected.tolist()
        assert (batch_count_mono_aps(words, n, k) > 0).tolist() == expected.tolist()

    @pytest.mark.parametrize("groups_per_chunk", [1, 1 << 14])
    def test_enumerated_chunks_match_packed_rows(self, monkeypatch, groups_per_chunk):
        # the exact oracles build element-major chunks directly; they must
        # be the transpose of the one-word rows (y << 1) | 1 they enumerate
        monkeypatch.setattr(probability, "_CHUNK", groups_per_chunk)
        for n in range(1, 17):
            y = np.arange(1 << (n - 1), dtype=np.uint64)
            rows = ((y << np.uint64(1)) | np.uint64(1)).reshape(-1, 1)
            chunks = list(probability._coloring_chunks(n))
            assert sum(count for _, count in chunks) == rows.shape[0]
            got = np.concatenate([x for x, _ in chunks], axis=1)
            valid = ~_padding(rows.shape[0])
            assert np.array_equal(got & valid, _bitsliced(rows, n)), n
            for k in range(3, 7):
                has = np.concatenate([
                    np.unpackbits(
                        _any_mono(x, n, k, _padding(count)).view(np.uint8),
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
