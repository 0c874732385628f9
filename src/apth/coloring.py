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
exactly the valid starts and no padding masks are needed.  Detection
scans the whole matrix for each d and stops once every sample has hit.
Samples that hit early leave the scan: once at most half of the
matrix's slots are live, the rows of the live samples alone are
bit-sliced again into a narrower matrix, and the scan resumes at the next
d on it.

The Monte Carlo engine and the scalar ``Coloring`` API hand this kernel
rows; the exact oracles hand it only n.  Their enumeration is split at a
cut m <= n, the widest whose colorings fit one kernel call: every
coloring of [1, m] with element 1 red, the base, is built here
element-major once, with no rows to slice, and the kernel's sinks read
the k-APs inside [1, m] off it.  Each coloring of the top elements
m+1..n then reads only the k-APs that end past m: such a k-AP is
monochromatic where its top elements are one color and its base elements
are that color too, one precomputed row of the base per k-AP and color.
No other module builds or reads an element-major matrix.  The kernel has
one path and three sinks for its chains.  Besides detection, it counts
monochromatic k-APs per sample: the run rows of every d are summed
column-wise by carry-save (3:2) adder layers into a total kept as bit
planes, plane j holding bit j of 64 samples' counts.
The exact count distribution reads its histogram from those planes
directly.  The third sink gives each sample's first hit, the smallest n
whose prefix [1, n] holds a monochromatic k-AP, which the threshold
search keeps per sample: the chains of every d are ANDed into one row per
element at which a k-AP ends, and those rows are prefix-ANDed, so each
sample's rows are set up to its first hit and each bit of that count is
the parity of a stride of rows.  The kernel's agreement with direct
scans over element tuples is asserted by the test suite.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import _philox
from .progressions import _DiffRange, _check_k, _check_n, count_aps, element_mask
from .family import APFamily

WORD_BITS = 64

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def _check_byteorder(byteorder: str) -> None:
    """Refuse a host that is not little-endian: the kernel views native
    words as bytes (``_bitsliced``'s slabs and matrix, ``_has_mono``'s hit
    words), which on a big-endian host would permute the samples within
    each word and give wrong results with no error."""
    if byteorder != "little":
        raise ImportError(
            f"apth needs a little-endian host; this one is {byteorder}-endian"
        )


_check_byteorder(sys.byteorder)


def _word_count(n: int) -> int:
    return -(-n // WORD_BITS)


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
        # "0" and "1" differ in their lowest bit
        digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) & 1
        raw = np.packbits(digits, bitorder="little").tobytes()
        return cls(len(text), int.from_bytes(raw, "little"))

    def to01(self) -> str:
        """Serialize as a 0/1 string, element 1 first."""
        _check_output(f"the 0/1 string of [1, {self.n}]", -(-self.n // 8))
        raw = np.frombuffer(self.bits.to_bytes(-(-self.n // 8), "little"), np.uint8)
        digits = np.unpackbits(raw, count=self.n, bitorder="little") | ord("0")
        return digits.tobytes().decode("ascii")

    @classmethod
    def from_words(cls, n: int, words: list[int] | np.ndarray) -> "Coloring":
        """Inverse of ``words``; takes Python or NumPy integers."""
        _check_n(n)
        if len(words) != _word_count(n):
            raise ValueError(
                f"expected {_word_count(n)} words for n={n}, got {len(words)}"
            )
        try:
            raw = b"".join(operator.index(w).to_bytes(8, "little") for w in words)
        except OverflowError:
            raise ValueError("words must be unsigned 64-bit integers") from None
        return cls(n, int.from_bytes(raw, "little"))

    def words(self) -> list[int]:
        """Little-endian 64-bit words (word 0 holds elements 1..64)."""
        _check_output(f"the word list of [1, {self.n}]", _word_count(self.n))
        return _row(self)[0].tolist()

    def hex_words(self) -> list[str]:
        """Words as fixed-width hex strings, for JSON dumps."""
        return [f"{w:016x}" for w in self.words()]

    def flipped(self) -> "Coloring":
        """The coloring with both colors exchanged."""
        _check_output(f"the flipped coloring of [1, {self.n}]", _word_count(self.n))
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
    _check_output(f"a random coloring of [1, {n}]", _word_count(n))
    raw = stream.next_words(_word_count(n))
    bits = int.from_bytes(raw.astype("<u8").tobytes(), "little")
    return Coloring(n, bits & ((1 << n) - 1))


def _row(c: Coloring) -> np.ndarray:
    """``c`` as a batch of one row of little-endian uint64 words."""
    raw = c.bits.to_bytes(8 * _word_count(c.n), "little")
    return np.frombuffer(raw, dtype="<u8").reshape(1, -1)


def has_mono_ap(c: Coloring, k: int) -> bool:
    """True iff some k-AP in [1, c.n] is monochromatic under ``c``."""
    _check_matrix(c.n, 1)
    return bool(batch_has_mono_ap(_row(c), c.n, k)[0])


def count_mono_aps(c: Coloring, k: int) -> int:
    """Exact number of monochromatic k-APs in [1, c.n] under ``c``."""
    _check_matrix(c.n, 1)
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


#: Words of the element-major matrix one direct detection call may build
#: (128 MB; the kernel's scratch takes as much again).  One 64-sample group
#: of [1, 2^24] fills it exactly, so it is also the widest n that
#: ``montecarlo`` samples and the default ceiling of a threshold search.
_MATRIX_WORDS = 1 << 24


#: Words of the element-major matrix that apth's own batch producers (the
#: Monte Carlo ranges and second-stage slices, the exact oracles' chunks)
#: hand to one kernel call (1 MB); a Monte Carlo range's generated words
#: fit it too.  The kernel's scratch comes on top, so
#: matrix and scratch fit a 2 MB L2 and the doubling passes of ``_breaks``
#: need not stream from L3.  One 64-sample group of [1, n] may pass it.
_KERNEL_WORDS = 1 << 17


def _kernel_groups(n: int) -> int:
    """64-sample groups of [1, n] per kernel call: as many as
    ``_KERNEL_WORDS`` holds, and at least one."""
    return max(1, _KERNEL_WORDS // n)


def _check_matrix(n: int, rows: int) -> None:
    """Refuse a detection whose (n, ceil(rows/64)) matrix passes the budget."""
    words = n * -(-rows // WORD_BITS)
    if words > _MATRIX_WORDS:
        raise ValueError(
            f"detection on {rows} colorings of [1, {n}] needs a {words}-word "
            f"matrix, above the {_MATRIX_WORDS}-word budget"
        )


def _check_output(what: str, words: int) -> None:
    """Refuse an output of more words than a detection matrix may take."""
    if words > _MATRIX_WORDS:
        raise ValueError(f"{what}, {words} words, passes the {_MATRIX_WORDS}-word budget")


def _check_rows(words: np.ndarray, n: int, k: int) -> None:
    """Check that ``words`` packs colorings of [1, n] for k-AP detection,
    within the matrix budget."""
    _check_k(k)
    _check_n(n)
    if words.ndim != 2 or words.shape[1] != _word_count(n):
        raise ValueError(
            f"expected a (rows, {_word_count(n)}) matrix of words for n={n}"
        )
    _check_matrix(n, words.shape[0])


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


#: Words per row of the first level of ``_any_mono``'s AND reduce.
_REDUCE_WORDS = 2048


def _breaks(
    b: np.ndarray, d: int, k: int, buf: np.ndarray, done: int = 0
) -> np.ndarray:
    """Bit s of row i is clear iff elements a+i, a+i+d, ..., a+i+(k-1)d are
    one color in sample s, for the starts a+i <= n-(k-1)d of difference d
    from a = max(1, done-(k-1)d+1), the first whose k-AP ends past ``done``.

    This is the complement of the equal-neighbour chain ~(B[i] ^ B[i+d]):
    a monochromatic k-AP is a run of k-1 equal neighbours, that is k-1
    clear bits of B[:-d] ^ B[d:] at stride d.  The run is found by doubling,
    so it costs O(log k) ORs; each one shortens the chain in place in
    ``buf``, and the last leaves exactly the valid starts.
    """
    b = b[max(0, done - (k - 1) * d) :]
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


def _any_mono(
    b: np.ndarray, n: int, k: int, samples: int, d: int = 1, *,
    done: int = 0, halve: bool = False,
) -> tuple[np.ndarray, int]:
    """Per 64-sample group of the element-major ``b``, the bits of those of
    its first ``samples`` samples with a monochromatic k-AP in [1, n] of
    difference d or more, and the next difference left to scan.

    Only the k-APs ending past element ``done`` are checked (see
    ``_breaks``), which is exact for samples with none in [1, done].  The
    whole matrix is scanned for each d until no sample is left alive, that
    is without a hit: a sample stays alive while its bit is set in every
    break row.
    The padding slots start out dead, so they never prolong the scan, and
    are cleared from the result.  With ``halve``, on a matrix of more than
    one group, the scan also stops once at most half of its slots are
    alive, so that the caller can go on with the live samples alone on a
    narrower matrix (see ``_has_mono``).

    Each d's break rows are ANDed in two levels.  Their first q*r rows,
    read as one contiguous (q, r*groups) matrix, reduce along rows of
    about ``_REDUCE_WORDS`` words; the fewer than r rows left are ANDed
    into the first rows of that result, and a short reduce of its r rows
    finishes.  A plain reduce of a narrow chain would loop over only
    ``groups`` words at a time.  Past ``_REDUCE_WORDS`` / 2 groups, r is
    1 and the plain reduce is kept.
    """
    groups = b.shape[1]
    pad = _padding(samples)
    alive = ~pad
    buf = np.empty_like(b)
    r = max(1, _REDUCE_WORDS // max(groups, 1))
    part = np.empty(r * groups, dtype=np.uint64)
    halve = halve and groups > 1
    while d <= (n - 1) // (k - 1):
        chain = _breaks(b, d, k, buf, done)
        q = chain.shape[0] // r
        if r > 1 and q:
            np.bitwise_and.reduce(
                chain[: q * r].reshape(q, r * groups), axis=0, out=part
            )
            rest = chain[q * r :].reshape(-1)
            part[: rest.size] &= rest
            chain = part.reshape(r, groups)
        alive &= np.bitwise_and.reduce(chain, axis=0)
        d += 1
        # counting the live bits costs two ufunc calls a d, so only a scan
        # that may stop for them counts them
        if halve:
            if 2 * int(np.bitwise_count(alive).sum()) <= WORD_BITS * groups:
                break
        elif not alive.any():
            break
    return ~alive ^ pad, d


def _carry_save(
    x: np.ndarray, used: int, held: np.ndarray, heights: list[int], spare: np.ndarray
) -> None:
    """Add the rows x[:used], each of weight 1, into a carry-save total.

    held[w, :heights[w]] are the total's rows of weight 2^w, at most two
    per weight.  Weight by weight from the lowest, the rows of a weight
    (its held ones included) pass through layers of full adders (3:2
    counters; Wallace, IEEE TEC 1964) until at most two remain.  A layer
    splits the stack into thirds a, b and c: five in-place ufunc calls
    for all triples at once leave the sums in a's rows and append the
    carries to the next weight's stack, which is built in ``spare``; then
    the two buffers swap roles, so nothing is allocated.  ``x`` needs two
    rows past ``used`` and ``spare`` half as many rows as ``x``, plus two.

    Carries out of the top weight are dropped: callers size ``held`` so
    that no column sum reaches 2^len(held), and every row is a
    nonnegative part of that sum, so those carries are zero.
    """
    top = held.shape[0] - 1
    x[used : used + heights[0]] = held[0, : heights[0]]
    used += heights[0]
    for w in range(top + 1):
        fed = heights[w + 1] if w < top else 0
        if fed:
            spare[:fed] = held[w + 1, :fed]
        nxt = fed
        while used > 2:
            t = used // 3
            a, b, c = x[:t], x[t : 2 * t], x[2 * t : 3 * t]
            carry = spare[nxt : nxt + t]
            np.bitwise_and(a, b, out=carry)
            np.bitwise_xor(a, b, out=b)
            np.bitwise_and(b, c, out=a)
            carry |= a
            np.bitwise_xor(b, c, out=a)
            x[t : used - 2 * t] = x[3 * t : used]
            used -= 2 * t
            nxt += t
        held[w, :used] = x[:used]
        heights[w] = used
        if nxt == fed:  # no carries: the weights above stay as they are
            return
        x, spare, used = spare, x, nxt


def _resolve(
    held: np.ndarray, heights: list[int], planes: np.ndarray | None = None
) -> np.ndarray:
    """The bit planes (least significant first) of a carry-save total,
    by one ripple-carry pass up the weights, in ``planes`` if given."""
    if planes is None:
        planes = np.empty((held.shape[0], held.shape[2]), dtype=np.uint64)
    carry = np.zeros(held.shape[2], dtype=np.uint64)
    for w, plane in enumerate(planes):
        plane[...] = carry
        carry[...] = 0
        for row in held[w, : heights[w]]:
            carry |= plane & row
            plane ^= row
    return planes


#: Words of run rows gathered, over as many d as fit, before each
#: carry-save compression in ``_mono_counts`` (128 KB).  Few-sample
#: batches thus compress the rows of hundreds of d at once.
_RUN_WORDS = 1 << 14


def _count_buffers(
    n: int, k: int, groups: int, least: int = 0
) -> tuple[np.ndarray, ...]:
    """Scratch for ``_mono_counts`` on up to ``groups`` columns of [1, n],
    or of a base of it, which a caller may allocate once and reuse: the
    run rows, at least ``least`` of them, the next weight's stack, and the
    carry-save total."""
    rows = max(n, least, _RUN_WORDS // max(groups, 1)) + 2
    planes = max(1, count_aps(k, n).bit_length())
    return (
        np.empty((rows, groups), dtype=np.uint64),
        np.empty((rows // 2 + 2, groups), dtype=np.uint64),
        np.empty((planes, 2, groups), dtype=np.uint64),
    )


def _mono_counts(
    b: np.ndarray, n: int, k: int, buffers: tuple[np.ndarray, ...] | None = None
) -> np.ndarray:
    """Per sample of the element-major ``b``, the number of monochromatic
    k-APs in [1, n], as bit planes (least significant first) of words.

    The total is kept in carry-save form, at most two rows per weight.
    The run rows ~_breaks(...) of each d, all of weight 1, are built in
    place after those already gathered in ``runs``, until the next d would
    not fit (one d at a time on wide batches); ``_carry_save`` then adds
    them into the total.  One ripple-carry pass at the end gives the
    planes.  No sample exceeds count_aps(k, n), which fixes the number of
    planes.
    """
    groups = b.shape[1]
    runs, spare, held = (
        x[..., :groups] for x in buffers or _count_buffers(n, k, groups)
    )
    heights = [0] * held.shape[0]
    used = 0
    for d in range(1, (n - 1) // (k - 1) + 1):
        # _breaks needs n - d rows of scratch, and _carry_save two more
        if used + n - d + 2 > runs.shape[0]:
            _carry_save(runs, used, held, heights, spare)
            used = 0
        chain = _breaks(b, d, k, runs[used:])
        np.invert(chain, out=chain)
        used += chain.shape[0]
    _carry_save(runs, used, held, heights, spare)
    return _resolve(held, heights)


def _plane_values(planes: np.ndarray, samples: int) -> np.ndarray:
    """The int64 values of the first ``samples`` vertical counters.

    Read as sample-major rows, the planes transpose to one word per
    sample whose bit j is plane j.
    """
    return _bitsliced(planes, samples)[:, 0].view(np.int64)


def _first_hits(words: np.ndarray, n: int, k: int, done: int = 0) -> np.ndarray:
    """Per row of ``words`` (laid out as for ``batch_has_mono_ap``), its
    first hit: the smallest n' <= n whose prefix [1, n'] holds a
    monochromatic k-AP, or n + 1 if [1, n] holds none, as an int64 vector.

    Only the k-APs ending past element ``done`` are checked (see
    ``_breaks``).  That is exact for rows with no monochromatic k-AP in
    [1, done], which the caller must guarantee; a row whose only ones end
    at or before ``done`` reads n + 1.  ``ValueError`` unless 0 <= done < n.

    The break rows of each d are ANDed into an end-aligned matrix, whose
    row e is clear for a sample once a monochromatic k-AP of it ends at
    element done+e+1.  ANDing each row into all later ones, by doubling,
    leaves a sample's column set on exactly its first c rows, where c is
    its first hit - done - 1.  Bit j of c is then the parity of its rows
    (m+1)2^j - 1 for m >= 0, so one XOR reduction gives each bit plane.
    """
    if not 0 <= done < n:
        raise ValueError(f"done must lie in [0, n={n}), got {done}")
    b = _bitsliced(words, n)
    rows = n - done
    ends = np.full((rows, b.shape[1]), _FULL_WORD)
    buf = np.empty_like(b)
    for d in range(1, (n - 1) // (k - 1) + 1):
        chain = _breaks(b, d, k, buf, done)
        ends[rows - chain.shape[0] :] &= chain
    shift = 1
    while shift < rows:
        np.bitwise_and(ends[shift:], ends[:-shift], out=ends[shift:])
        shift *= 2
    planes = np.empty((rows.bit_length(), b.shape[1]), dtype=np.uint64)
    for j, plane in enumerate(planes):
        np.bitwise_xor.reduce(ends[(1 << j) - 1 :: 1 << j], axis=0, out=plane)
    return done + 1 + _plane_values(planes, words.shape[0])


def _plane_histogram(planes: np.ndarray, samples: int, top: int) -> np.ndarray:
    """hist[v], for v = 0..top, is the number of the first ``samples``
    vertical counters of value v; no counter may exceed ``top``.

    The planes are read as they are, not transposed.  A depth-first walk
    from the top plane narrows a mask of samples, starting from all real
    slots, to each prefix of bits: the plane at each level, or its
    complement.  Prefixes above ``top`` hold no sample and are not
    entered.  Each leaf is one popcount, and at most one mask per level
    waits on the stack.
    """
    hist = np.zeros(top + 1, dtype=np.int64)
    # (level, prefix value, mask); the stack holds one mask per level
    stack = [(planes.shape[0] - 1, 0, ~_padding(samples))]
    while stack:
        j, value, mask = stack.pop()
        if j < 0:
            hist[value] = np.bitwise_count(mask).sum()
            continue
        high = value | 1 << j
        if high <= top:
            ones = mask & planes[j]
            mask ^= ones
            stack.append((j - 1, high, ones))
        stack.append((j - 1, value, mask))
    return hist


def batch_has_mono_ap(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``has_mono_ap`` over a (rows, words) matrix of colorings.

    Row r packs a coloring of [1, n] into ceil(n/64) little-endian words;
    bits above n are ignored.  Returns a boolean vector.  Rows that hit
    early leave the scan (see ``_has_mono``), but each still costs its
    ceil(n/64) words to generate, so callers that expect most rows to hit
    early detect on a prefix first (see ``apth.montecarlo``).
    """
    _check_rows(words, n, k)
    return _has_mono(words, n, k)


def _has_mono(words: np.ndarray, n: int, k: int, done: int = 0) -> np.ndarray:
    """``batch_has_mono_ap`` of checked arguments, skipping the k-APs that
    end at or before element ``done`` (0 <= done < n): exact for rows with
    no monochromatic k-AP in [1, done].

    The rows are bit-sliced and scanned from d = 1.  Once at most half of
    the matrix's slots are still live (no hit yet), the scan stops, the
    live rows alone are bit-sliced again, and the scan resumes at the next
    d on the narrower matrix, until no row is live or no d is left.  A
    row's hit depends on that row alone, so the result is the same as one
    scan of every row.
    """
    rows = words.shape[0]
    if n < k:
        return np.zeros(rows, dtype=bool)
    # no name holds a matrix past its scan, so each is freed before the
    # next is built
    found, d = _any_mono(_bitsliced(words, n), n, k, rows, done=done, halve=True)
    hit = np.unpackbits(found.view(np.uint8), count=rows, bitorder="little").view(bool)
    live = np.flatnonzero(~hit)
    while live.size and d <= (n - 1) // (k - 1):
        found, d = _any_mono(
            _bitsliced(words[live], n), n, k, live.size, d, done=done, halve=True
        )
        got = np.unpackbits(
            found.view(np.uint8), count=live.size, bitorder="little"
        ).view(bool)
        hit[live[got]] = True
        live = live[~got]
    return hit


def batch_count_mono_aps(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized ``count_mono_aps``: per row of a (rows, words) matrix laid
    out as for ``batch_has_mono_ap`` (bits above n are ignored), the number
    of monochromatic k-APs in [1, n], as an int64 vector."""
    _check_rows(words, n, k)
    planes = _mono_counts(_bitsliced(words, n), n, k)
    return _plane_values(planes, words.shape[0])


# --- exact enumeration ------------------------------------------------------
#
# The exact oracles' matrices go to the kernel bodies, not to the public
# functions on rows, which ``bench/tracing.py`` counts as detection.
#
# Coloring y of [1, n] (element j+2 red iff bit j of y is set) is lane
# y % 2^(m-1) of the base [1, m], m = _cut(n), under the top coloring
# t = y >> (m-1) of the elements m+1..n: element m+1+j is red iff bit j of
# t is set.

#: Elements 2..7 of the 64 colorings of one group: element j+2 of the
#: coloring in bit s is bit j of s (0xAAAA..., 0xCCCC..., 0xF0F0..., ...).
_LOW_ELEMENTS = np.array(
    [sum(1 << s for s in range(64) if s >> j & 1) for j in range(6)],
    dtype=np.uint64,
)


def _cut(n: int) -> int:
    """The largest m <= n whose base, 2^(m-7) groups (one for m <= 7),
    fits ``_kernel_groups(m)``: 19 for every n >= 19 at the default
    budget, and never less than min(n, 7)."""
    m = n
    while 1 << max(0, m - 7) > _kernel_groups(m):
        m -= 1
    return m


def _base(m: int) -> np.ndarray:
    """All colorings of [1, m] with element 1 red, as one element-major
    matrix.

    Coloring y (element j+2 red iff bit j of y is set) sits in bit y % 64
    of group y // 64.  So element 1 is all ones, elements 2..7 are the
    fixed ``_LOW_ELEMENTS`` words, and every higher element is all ones or
    all zeros by one bit of the group index.  For m < 7 the single group
    holds fewer than 64 colorings; its other slots are padding.
    """
    low = min(m, 7)
    g = np.arange(1 << (m - low), dtype=np.uint64)
    b = np.empty((m, g.size), dtype=np.uint64)
    b[0] = _FULL_WORD
    b[1:low] = _LOW_ELEMENTS[: low - 1, None]
    high = b[low:]
    np.right_shift(g, np.arange(m - low, dtype=np.uint64)[:, None], out=high)
    high &= np.uint64(1)
    np.negative(high, out=high)  # all ones where the bit is set
    return b


def _ap_elements(k: int, n: int, m: int) -> np.ndarray:
    """The (count, k) int64 elements of the k-APs of [1, n] that end past
    element m, in (diff, start) order."""
    starts, diffs = _DiffRange(k, n, 1, (n - 1) // (k - 1)).arrays()
    elems = starts[:, None] + diffs[:, None] * np.arange(k)
    return elems[elems[:, -1] > m]


def _top_rows(b: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and top masks of ``members``, element rows of [1, n] that
    each end past m, on the base ``b`` of [1, m].

    Row i holds the lanes in which member i's elements <= m are all red,
    and row M+i those in which they are all blue, for M members; a member
    with no element <= m has all ones in both.  Bit j of mask i is set
    iff element m+1+j is one of member i's.
    """
    m, count = len(b), len(members)
    rows = np.full((2 * count, b.shape[1]), _FULL_WORD)
    for i, e in enumerate(members):
        low = b[e[e <= m] - 1]
        if len(low):
            np.bitwise_and.reduce(low, axis=0, out=rows[i])
            np.bitwise_or.reduce(low, axis=0, out=rows[count + i])
            np.invert(rows[count + i], out=rows[count + i])
    top = members - (m + 1)
    masks = (np.left_shift(1, top.clip(0)) * (top >= 0)).sum(axis=1)
    return rows, masks


def _selected(t: int, masks: np.ndarray) -> np.ndarray:
    """Indices into ``_top_rows``' rows under top coloring t: the red rows
    of the members whose top elements t colors all red, then the blue rows
    of those it colors all blue."""
    red = masks & t
    return np.flatnonzero(np.concatenate((red == masks, red == 0)))


def _union_colorings(b: np.ndarray, n: int, hits: np.ndarray, members: np.ndarray) -> int:
    """How many colorings of [1, n] with element 1 red make some member
    monochromatic, given ``hits``, the lanes of the base ``b`` of [1, m]
    with a monochromatic member inside [1, m], and ``members``, the
    element rows of those that end past m."""
    m = len(b)
    rows, masks = _top_rows(b, members)
    valid = ~_padding(1 << (m - 1))
    total = 0
    for t in range(1 << (n - m)):
        mono = np.bitwise_or.reduce(rows[_selected(t, masks)], axis=0)
        mono |= hits
        mono &= valid
        total += int(np.bitwise_count(mono).sum())
    return total


def _mono_colorings(n: int, k: int) -> int:
    """How many colorings of [1, n] with element 1 red hold a
    monochromatic k-AP."""
    m = _cut(n)
    b = _base(m)
    hits = _any_mono(b, m, k, 1 << (m - 1))[0]
    return _union_colorings(b, n, hits, _ap_elements(k, n, m))


def _mono_count_histogram(n: int, k: int) -> np.ndarray:
    """hist[r], for r = 0..count_aps(k, n), is how many colorings of [1, n]
    with element 1 red hold exactly r monochromatic k-APs.

    ``_mono_counts`` sums the run rows of the base into bit planes with
    carry-save adders.  Per top coloring, the rows it selects are added
    onto those planes by the same adders, and ``_plane_histogram`` counts
    the colorings of each value by a depth-first walk over the planes of
    several top colorings side by side, about ``_RUN_WORDS`` words, one
    popcount per value; the counts are never transposed to one word per
    coloring.
    """
    top = count_aps(k, n)
    m = _cut(n)
    b = _base(m)
    groups = b.shape[1]
    members = _ap_elements(k, n, m)
    rows, masks = _top_rows(b, members)
    runs, spare, held = _count_buffers(n, k, groups, len(members))
    base = _mono_counts(b, m, k, (runs, spare, held))
    del b  # the top colorings read only the rows and the base's planes
    tops = 1 << (n - m)
    side = min(tops, max(1, _RUN_WORDS // groups))
    planes = np.empty((held.shape[0], side * groups), dtype=np.uint64)
    hist = np.zeros(top + 1, dtype=np.int64)
    for t in range(tops):
        chosen = _selected(t, masks)
        np.take(rows, chosen, axis=0, out=runs[: len(chosen)])
        held[:, 0] = base
        heights = [1] * len(held)
        _carry_save(runs, len(chosen), held, heights, spare)
        j = t % side
        _resolve(held, heights, planes[:, j * groups : (j + 1) * groups])
        if j == side - 1 or t == tops - 1:
            hist += _plane_histogram(planes[:, : (j + 1) * groups], (j + 1) << (m - 1), top)
    return hist


def _member_mono_colorings(n: int, members: np.ndarray) -> int:
    """How many colorings of [1, n] with element 1 red make some row of
    ``members``, a matrix of elements of [1, n], monochromatic."""
    if not len(members):
        return 0
    m = _cut(n)
    b = _base(m)
    inside = members[:, -1] <= m
    hits = np.zeros(b.shape[1], dtype=np.uint64)
    for e in members[inside] - 1:
        # a member is mono where no element differs from its first
        hits |= ~np.bitwise_or.reduce(b[e[1:]] ^ b[e[0]], axis=0)
    return _union_colorings(b, n, hits, members[~inside])
