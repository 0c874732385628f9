"""Bit-packed 2-colorings of [1, n] and monochromatic k-AP detection.

A coloring assigns red (bit 1) or blue (bit 0) to each element; element i
lives at bit i-1 of a little-endian row of 64-bit words.  That row layout
is what the random streams produce and what the public batch functions
take.

Detection runs in one bit-sliced kernel.  Rows are transposed to an
element-major matrix B, where B[i, g] holds element i+1 of samples
64g..64g+63, one sample per bit, so one word operation tests 64 samples.
For each common difference d the kernel builds the equal-neighbour chain
of B[:-d] and B[d:]: a monochromatic k-AP of difference d is a run of k-1
equal neighbours at stride d.  The run is found by doubling in O(log k)
operations, and each operation shortens the chain, so the last one holds
exactly the valid starts and no padding masks are needed.  A 64-sample
group leaves the scan once all of its samples have hit.

The Monte Carlo engine, the scalar ``Coloring`` API (a batch of one row)
and the exact oracles (which build element-major chunks directly) all
call this kernel.  Besides detection, it counts monochromatic k-APs per
sample in vertical bit-plane counters.  Its agreement with direct scans
over element tuples is asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _philox
from .progressions import _check_k, _check_n, count_aps, element_mask
from .family import APFamily

WORD_BITS = 64

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

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


# --- bit-sliced kernel ------------------------------------------------------
#
# Element-major matrices: B[i, g] holds element i+1 of samples 64g..64g+63,
# one sample per bit.  A common difference d is the row offset B[d:], so
# every sample in a word is tested at once, with no cross-word shifts.


#: Words transposed at a time by ``_bitsliced`` (128 KB), which bounds its
#: scratch memory whatever the batch size.
_SLAB_WORDS = 1 << 14

#: (mask, shift) of the three delta swaps that transpose the 8x8 bit
#: matrix held in a word: bit j of byte i goes to bit i of byte j
#: (Knuth, TAOCP 4A, 7.1.3).
_TRANSPOSE8 = tuple(
    (np.uint64(mask), np.uint64(shift))
    for mask, shift in (
        (0x00AA00AA00AA00AA, 7),
        (0x0000CCCC0000CCCC, 14),
        (0x00000000F0F0F0F0, 28),
    )
)


def _check_rows(words: np.ndarray, n: int, k: int) -> None:
    """Check that ``words`` packs colorings of [1, n] for k-AP detection."""
    _check_k(k)
    _check_n(n)
    if words.shape[1] != _word_count(n):
        raise ValueError(f"expected {_word_count(n)} words per row for n={n}")


def _bitsliced(words: np.ndarray, n: int) -> np.ndarray:
    """The (n, ceil(rows/64)) element-major matrix of sample-major rows.

    Row r of ``words`` becomes bit r % 64 of column r // 64; slots past
    the last row read as blue.  Per slab of rows (a multiple of 8 rows
    holding at most ``_SLAB_WORDS`` words, or 8 rows), byte j of 8
    consecutive rows is gathered into one word, whose 8x8 bit matrix is
    then transposed in place: byte e of the result holds element 8j+e+1
    of those 8 samples.
    """
    rows, nwords = words.shape
    out = np.zeros((n, -(-rows // WORD_BITS)), dtype=np.uint64)
    out_bytes = out.view(np.uint8)
    step = max(8, _SLAB_WORDS // max(nwords, 1) // 8 * 8)
    for lo in range(0, rows, step):
        slab = np.ascontiguousarray(words[lo : lo + step], dtype=np.uint64)
        octets = -(-slab.shape[0] // 8)
        gathered = np.zeros((8 * nwords, 8 * octets), dtype=np.uint8)
        gathered[:, : slab.shape[0]] = slab.view(np.uint8).T
        v = gathered.view(np.uint64)
        for mask, shift in _TRANSPOSE8:
            t = (v ^ (v >> shift)) & mask
            v ^= t ^ (t << shift)
        elements = (
            v.view(np.uint8)
            .reshape(8 * nwords, octets, 8)
            .transpose(0, 2, 1)
            .reshape(WORD_BITS * nwords, octets)
        )
        out_bytes[:, lo // 8 : lo // 8 + octets] = elements[:n]
    return out


def _padding(samples: int) -> np.ndarray:
    """Per 64-sample group, the bits of the slots past ``samples``."""
    pad = np.zeros(-(-samples // WORD_BITS), dtype=np.uint64)
    if samples % WORD_BITS:
        pad[-1] = _FULL_WORD << np.uint64(samples % WORD_BITS)
    return pad


def _breaks(b: np.ndarray, d: int, k: int, buf: np.ndarray) -> np.ndarray:
    """Bit s of row i is clear iff elements i+1, i+1+d, ..., i+1+(k-1)d are
    one color in sample s, for the n-(k-1)d starts of difference d.

    This is the complement of the equal-neighbour chain ~(B[i] ^ B[i+d]):
    a monochromatic k-AP is a run of k-1 equal neighbours, that is k-1
    clear bits of B[:-d] ^ B[d:] at stride d.  The run is found by doubling,
    so it costs O(log k) ORs; each one shortens the chain in place in
    ``buf``, and the last leaves exactly the valid starts.
    """
    size = b.shape[0] - d
    chain = np.bitwise_xor(b[:-d], b[d:], out=buf[:size])
    covered = 1
    while covered < k - 1:
        step = min(covered, k - 1 - covered)
        shift = step * d
        np.bitwise_or(chain[: size - shift], chain[shift:size], out=chain[: size - shift])
        size -= shift
        covered += step
    return chain[:size]


def _any_mono(b: np.ndarray, n: int, k: int, found: np.ndarray) -> np.ndarray:
    """Set in ``found`` the bit of every sample of the element-major ``b``
    with a monochromatic k-AP in [1, n], and return it.

    Bits already set in ``found`` count as decided: a 64-sample group
    leaves the scan once all of its bits are set, so padding slots start
    out set.  Supercritical batches, where most samples hit at small d,
    are therefore cheap.
    """
    groups = np.flatnonzero(found != _FULL_WORD)
    if groups.size < b.shape[1]:
        b = b.take(groups, axis=1)
    buf = np.empty_like(b)
    for d in range(1, (n - 1) // (k - 1) + 1):
        if groups.size == 0:
            break
        hit = found[groups] | ~np.bitwise_and.reduce(_breaks(b, d, k, buf), axis=0)
        found[groups] = hit
        done = hit == _FULL_WORD
        if done.any():
            # index arrays: a boolean column mask on a 2-D array is slower
            keep = np.flatnonzero(~done)
            b, groups = b.take(keep, axis=1), groups[keep]
            buf = np.empty_like(b)
    return found


def _add_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for vertical counters: bit planes on axis -2, least
    significant first, with one more plane than the wider operand."""
    if a.shape[-2] < b.shape[-2]:
        a, b = b, a
    out = np.empty(a.shape[:-2] + (a.shape[-2] + 1, a.shape[-1]), dtype=np.uint64)
    carry = np.zeros_like(a[..., 0, :])
    for j in range(a.shape[-2]):
        x = a[..., j, :]
        if j < b.shape[-2]:
            y = b[..., j, :]
            half = x ^ y
            out[..., j, :] = half ^ carry
            carry = (x & y) | (carry & half)
        else:
            out[..., j, :] = x ^ carry
            carry = x & carry
    out[..., -1, :] = carry
    return out


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Bit planes of the per-bit sum over the rows of a (rows, groups)
    word matrix, added pairwise over all rows at once."""
    sums = rows[:, None, :]
    while sums.shape[0] > 1:
        if sums.shape[0] % 2:
            sums = np.concatenate([sums, np.zeros_like(sums[:1])])
        sums = _add_planes(sums[0::2], sums[1::2])
    return sums[0]


def _mono_counts(b: np.ndarray, n: int, k: int) -> np.ndarray:
    """Per sample of the element-major ``b``, the number of monochromatic
    k-APs in [1, n], as bit planes (least significant first) of words."""
    planes = max(1, count_aps(k, n).bit_length())
    total = np.zeros((planes, b.shape[1]), dtype=np.uint64)
    buf = np.empty_like(b)
    for d in range(1, (n - 1) // (k - 1) + 1):
        runs = ~_breaks(b, d, k, buf)
        # no sample exceeds count_aps(k, n), so the top plane stays clear
        total = _add_planes(total, _column_sums(runs))[:planes]
    return total


def _plane_values(planes: np.ndarray, samples: int) -> np.ndarray:
    """The int64 values of the first ``samples`` vertical counters.

    Read as sample-major rows, the planes transpose to one word per
    sample whose bit j is plane j.
    """
    return _bitsliced(planes, samples)[:, 0].view(np.int64)


def _has_rows(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """``batch_has_mono_ap`` of checked rows, scanned in full."""
    rows = words.shape[0]
    found = _any_mono(_bitsliced(words, n), n, k, _padding(rows))
    return np.unpackbits(found.view(np.uint8), count=rows, bitorder="little").view(bool)


def batch_has_mono_ap(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``has_mono_ap`` over a (rows, words) matrix of colorings.

    Row r packs a coloring of [1, n] into ceil(n/64) little-endian words
    with zero padding above n.  Returns a boolean vector.

    Rows are first scanned on their first k-1 words, the prefix
    [1, 64(k-1)]; only the rows without a hit there are bit-sliced and
    scanned in full.  In supercritical batches nearly every row hits
    early, so most rows are never transposed whole.
    """
    _check_rows(words, n, k)
    head = WORD_BITS * (k - 1)
    if head >= n:
        return _has_rows(words, n, k)
    found = _has_rows(words[:, : k - 1], head, k)
    rest = np.flatnonzero(~found)
    found[rest] = _has_rows(words.take(rest, axis=0), n, k)
    return found


def batch_count_mono_aps(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``count_mono_aps``: per row of a (rows, words) matrix laid
    out as for ``batch_has_mono_ap``, the number of monochromatic k-APs in
    [1, n], as an int64 vector."""
    _check_rows(words, n, k)
    planes = _mono_counts(_bitsliced(words, n), n, k)
    return _plane_values(planes, words.shape[0])
