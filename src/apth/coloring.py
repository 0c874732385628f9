"""Bit-packed 2-colorings of [1, n] and monochromatic k-AP detection.

A coloring assigns red (bit 1) or blue (bit 0) to each element; element i
lives at bit i-1.  Detection works per common difference d by AND-ing the
color mask with itself shifted by multiples of d: a set bit at position
i-1 in the result marks a monochromatic run starting at element i.  The
shift chain is built by doubling, so a length-k run costs O(log k) shifted
ANDs instead of k-1.

There is one kernel, on (rows, words) numpy uint64 matrices of colorings.
The Monte Carlo engine and the exact oracles call it on batches, and the
scalar ``Coloring`` API on a batch of one row.  Its agreement with direct
scans over element tuples is asserted by the test suite.  Besides
detection, it counts monochromatic k-APs per row and reports each row's
first-hit time, the smallest last element of any monochromatic k-AP,
which answers detection on every prefix [1, n'] at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _philox
from .progressions import _check_k, _check_n, element_mask
from .family import APFamily

WORD_BITS = 64

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

#: ``batch_first_hit`` value of a row with no monochromatic k-AP.
NO_HIT = np.iinfo(np.int64).max


def _word_count(n: int) -> int:
    return -(-n // WORD_BITS)


def _pad_mask(n: int) -> np.uint64:
    """Mask of the significant bits of the top word of an n-bit vector."""
    top = n - (_word_count(n) - 1) * WORD_BITS
    return _FULL_WORD if top == WORD_BITS else np.uint64((1 << top) - 1)


@dataclass(frozen=True)
class Coloring:
    """A 2-coloring of [1, n]: bit i-1 of ``bits`` is 1 iff element i is red."""

    n: int
    bits: int

    def __post_init__(self):
        _check_n(self.n)
        # bit_length comparison instead of bits < 2^n: n may be huge
        if self.bits < 0 or self.bits.bit_length() > self.n:
            raise ValueError(
                f"bits must have at most n={self.n} significant bits "
                "(padding above n must be zero)"
            )

    @classmethod
    def from01(cls, text: str) -> "Coloring":
        """Parse a 0/1 string, element 1 first."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError("coloring string must be nonempty and contain only 0/1")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def to01(self) -> str:
        """Serialize as a 0/1 string, element 1 first."""
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.n))

    @classmethod
    def from_words(cls, n: int, words: list[int]) -> "Coloring":
        _check_n(n)
        if len(words) != _word_count(n):
            raise ValueError(
                f"expected {_word_count(n)} words for n={n}, got {len(words)}"
            )
        bits = 0
        for i, w in enumerate(words):
            if not 0 <= w < (1 << WORD_BITS):
                raise ValueError("words must be unsigned 64-bit integers")
            bits |= w << (i * WORD_BITS)
        return cls(n, bits)

    def words(self) -> list[int]:
        """Little-endian 64-bit words (word 0 holds elements 1..64)."""
        return [
            (self.bits >> (i * WORD_BITS)) & ((1 << WORD_BITS) - 1)
            for i in range(_word_count(self.n))
        ]

    def hex_words(self) -> list[str]:
        """Words as fixed-width hex strings, for JSON dumps."""
        return [f"{w:016x}" for w in self.words()]

    def flipped(self) -> "Coloring":
        """The coloring with both colors exchanged."""
        return Coloring(self.n, self.bits ^ ((1 << self.n) - 1))

    def red_count(self) -> int:
        return self.bits.bit_count()


class RandomStream:
    """Deterministic stream of random 64-bit words keyed by (seed, stream_id).

    Word j of a stream is a pure function of (seed, stream_id, j); distinct
    stream ids under one seed give statistically independent sequences, so
    parallel workers can each own their own ids with no coordination.  The
    instance keeps a cursor for sequential draws; ``words_at`` is the pure
    random-access form.
    """

    __slots__ = ("seed", "stream_id", "_pos")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _philox.check_u64(seed, "seed")
        self.stream_id = _philox.check_u64(stream_id, "stream_id")
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def words_at(self, offset: int, count: int) -> np.ndarray:
        ids = np.array([self.stream_id], dtype=np.uint64)
        return _philox.words(self.seed, ids, count, first_word=offset)[0]

    def next_words(self, count: int) -> np.ndarray:
        out = self.words_at(self._pos, count)
        self._pos += count
        return out

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


def random_coloring(n: int, stream: RandomStream) -> Coloring:
    """Draw a uniform coloring of [1, n] from the stream's next words.

    Each element's color comes from its own bit of the word stream, so a
    coloring of [1, n] is the prefix of the coloring of [1, n'] (n' > n)
    drawn from the same stream position.  Padding above n is cleared.
    """
    _check_n(n)
    raw = stream.next_words(_word_count(n))
    bits = int.from_bytes(raw.astype("<u8").tobytes(), "little")
    return Coloring(n, bits & ((1 << n) - 1))


def _row(c: Coloring) -> np.ndarray:
    """``c`` as a batch of one row of little-endian uint64 words."""
    raw = c.bits.to_bytes(8 * _word_count(c.n), "little")
    return np.frombuffer(raw, dtype="<u8").reshape(1, -1)


def has_mono_ap(c: Coloring, k: int) -> bool:
    """True iff some k-AP in [1, c.n] is monochromatic under ``c``."""
    return bool(batch_has_mono_ap(_row(c), c.n, k)[0])


def count_mono_aps(c: Coloring, k: int) -> int:
    """Exact number of monochromatic k-APs in [1, c.n] under ``c``."""
    return int(batch_count_mono_aps(_row(c), c.n, k)[0])


def mono_in_family(c: Coloring, family: APFamily) -> bool:
    """True iff some member of ``family`` is monochromatic under ``c``."""
    if family.n > c.n:
        raise ValueError(
            f"family lives in [1, {family.n}] but the coloring covers "
            f"only [1, {c.n}]"
        )
    bits = c.bits
    for p in family:
        m = element_mask(p)
        hit = bits & m
        if hit == m or hit == 0:
            return True
    return False


# --- batch kernel -----------------------------------------------------------


def _shift_right_words(v: np.ndarray, bits: int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the logical right shift of each row of ``v`` by
    ``bits``, and return ``out``.

    Rows are little-endian uint64 words; vacated high positions fill with
    zero.  Equivalent to ``row_as_int >> bits`` on every row.  ``out`` has
    the shape of ``v`` and must not overlap it.
    """
    nwords = v.shape[1]
    w, b = divmod(bits, WORD_BITS)
    if w >= nwords:
        out.fill(0)
        return out
    if b == 0:
        out[:, : nwords - w] = v[:, w:]
    else:
        np.right_shift(v[:, w:], np.uint64(b), out=out[:, : nwords - w])
        if w + 1 < nwords:
            out[:, : nwords - w - 1] |= v[:, w + 1 :] << np.uint64(WORD_BITS - b)
    out[:, nwords - w :] = 0
    return out


def _batch_run_starts(mask: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per row, the bits i with ``mask`` bits i, i+d, ..., i+(k-1)d all set.

    The shift chain doubles the covered run length at each step, so it
    costs O(log k) shifted ANDs instead of k-1, all through one scratch
    buffer.
    """
    shifted = np.empty_like(mask)
    cur = mask & _shift_right_words(mask, d, shifted)
    t = 2
    while 2 * t <= k:
        cur &= _shift_right_words(cur, t * d, shifted)
        t *= 2
    if t < k:
        cur &= _shift_right_words(cur, (k - t) * d, shifted)
    return cur


def _mono_runs(red: np.ndarray, blue: np.ndarray, d: int, k: int) -> np.ndarray:
    """Per row, the starts of k-term runs of difference d in either color."""
    runs = _batch_run_starts(red, d, k)
    runs |= _batch_run_starts(blue, d, k)
    return runs


def _blue_rows(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Check that ``words`` packs colorings of [1, n] for k-AP detection
    and return their blue masks (complements within [1, n])."""
    _check_k(k)
    _check_n(n)
    _, nwords = words.shape
    if nwords != _word_count(n):
        raise ValueError(f"expected {_word_count(n)} words per row for n={n}")
    full = np.full(nwords, _FULL_WORD, dtype=np.uint64)
    full[-1] = _pad_mask(n)
    return words ^ full


def batch_has_mono_ap(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``has_mono_ap`` over a (rows, words) matrix of colorings.

    Row r packs a coloring of [1, n] into ceil(n/64) little-endian words
    with zero padding above n.  Returns a boolean vector.  Rows are retired
    from the scan as soon as they are decided, which makes supercritical
    batches (where nearly every row has a hit at small d) cheap.
    """
    return _any_mono(words, _blue_rows(words, n, k), n, k)


def batch_count_mono_aps(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``count_mono_aps``: per row of a (rows, words) matrix laid
    out as for ``batch_has_mono_ap``, the number of monochromatic k-APs in
    [1, n], as an int64 vector."""
    return _mono_counts(words, _blue_rows(words, n, k), n, k)


# The exact oracles in ``probability`` call these bodies on the chunks they
# enumerate rather than the public kernels above: ``bench/tracing.py``
# counts calls of the public kernels as the detection layer and the exact
# oracles as a layer of their own.


def _any_mono(red: np.ndarray, blue: np.ndarray, n: int, k: int) -> np.ndarray:
    """``batch_has_mono_ap`` of checked rows ``red`` with their blue masks."""
    found = np.zeros(red.shape[0], dtype=bool)
    rows = np.arange(red.shape[0])
    for d in range(1, (n - 1) // (k - 1) + 1):
        hit = _mono_runs(red, blue, d, k).any(axis=1)
        if hit.any():
            found[rows[hit]] = True
            # index arrays: a boolean row mask on a 2-D array is far slower
            keep = np.flatnonzero(~hit)
            if keep.size == 0:
                break
            red, blue, rows = red.take(keep, 0), blue.take(keep, 0), rows[keep]
    return found


def _mono_counts(red: np.ndarray, blue: np.ndarray, n: int, k: int) -> np.ndarray:
    """``batch_count_mono_aps`` of checked rows ``red`` with their blue masks."""
    counts = np.zeros(red.shape, dtype=np.int64)
    for d in range(1, (n - 1) // (k - 1) + 1):
        counts += np.bitwise_count(_mono_runs(red, blue, d, k))
    return counts.sum(axis=1)


def batch_first_hit(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per row, the smallest last element of a monochromatic k-AP in [1, n],
    or ``NO_HIT`` if there is none, as an int64 vector.

    Rows are laid out as for ``batch_has_mono_ap``, and d is scanned in the
    same order.  At each d the lowest set bit of the run mask is the
    earliest start, so its AP ends first.  A hit row keeps scanning while a
    larger d could still end earlier, and retires once (k-1)(d+1)+1, the
    smallest last element at the next d, reaches its best.  Since the
    coloring of [1, n'] is a prefix of the coloring of [1, n],
    ``batch_first_hit(words, n, k) <= n'`` is detection on [1, n'] for
    every n' <= n.
    """
    red, blue = words, _blue_rows(words, n, k)
    first = np.full(words.shape[0], NO_HIT, dtype=np.int64)
    rows = np.arange(words.shape[0])
    best = first.copy()
    for d in range(1, (n - 1) // (k - 1) + 1):
        runs = _mono_runs(red, blue, d, k)
        nonzero = runs != 0
        hit = np.flatnonzero(nonzero.any(axis=1))
        if hit.size:
            col = nonzero[hit].argmax(axis=1)
            word = runs[hit, col]
            # trailing zeros of the lowest nonzero word: the start's bit
            low = np.bitwise_count(~word & (word - np.uint64(1)))
            last = col * WORD_BITS + low.astype(np.int64) + 1 + (k - 1) * d
            best[hit] = np.minimum(best[hit], last)
        done = best <= (k - 1) * (d + 1) + 1
        if done.any():
            first[rows[done]] = best[done]
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return first
            red, blue, rows = red.take(keep, 0), blue.take(keep, 0), rows[keep]
            best = best[keep]
    first[rows] = best
    return first
