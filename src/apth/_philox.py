"""Vectorized Philox 4x64-10 counter-based generator.

Word j of the stream keyed by (seed, stream_id) is a pure function of
(seed, stream_id, j), which is what makes sampling reproducible under any
worker decomposition: workers can claim arbitrary index ranges and still
produce bit-identical output.

The constants and round structure follow the Philox 4x64 round function with
10 rounds, and the counter convention matches ``numpy.random.Philox`` with
``key=[seed, stream_id]``: output block b (4 words) uses counter value b+1.
``words()`` therefore agrees word-for-word with
``np.random.Philox(key=[seed, stream_id]).random_raw(...)``, which the test
suite asserts.  numpy's own Philox is not used on the hot path because its
per-instance API cannot be vectorized across thousands of stream keys.

The four lanes are held as two stacked (2, rows, blocks) arrays, x = (c0, c2)
and y = (c1, c3), so both 64x64-bit multiplies of a round share one set of
ufunc calls.  Streams are generated in tiles of rows holding about
``_TILE_BLOCKS`` blocks, and every call of a round writes into scratch
allocated once per ``words()`` call, so a round's operands stay in L2
however large the batch.  Round 0's products depend on the counter alone
(its lanes c1..c3 are 0: a stream ends at the last block whose counter
fits c0, word 4(2^64 - 1) - 1), so they are taken once, on the block
counters, for every tile.
"""

from __future__ import annotations

import numpy as np

_W0 = 0x9E3779B97F4A7C15
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

#: The multipliers (M0, M1) and their 32-bit halves, shaped to broadcast
#: over the stacked lanes.
_M = np.array(
    [0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64
).reshape(2, 1, 1)
_M_HI = _M >> _S32
_M_LO = _M & _MASK32

_ROUNDS = 10
_WORDS_PER_BLOCK = 4

#: Blocks of one tile (64 KB per lane); a tile holds whole rows, at least one.
_TILE_BLOCKS = 1 << 13

_U64 = 1 << 64


def check_u64(value: int, name: str) -> int:
    if not 0 <= value < _U64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


def _round(x, y, lo, a, b, c):
    """One round on the stacked lanes x = (c0, c2) and y = (c1, c3),
    before the key is XORed in: x becomes (hi(M1 c2) ^ c1, hi(M0 c0) ^ c3)
    and ``lo`` the low products (M0 c0, M1 c2), so the new y is lo[::-1].

    The high product is assembled from 32-bit partial products, all of
    which stay below 2^64; ``a``, ``b`` and ``c`` are scratch, and x is
    reused once its products are taken.
    """
    np.multiply(x, _M, out=lo)
    np.right_shift(x, _S32, out=a)
    np.bitwise_and(x, _MASK32, out=b)
    np.multiply(b, _M_LO, out=c)
    np.right_shift(c, _S32, out=c)
    np.multiply(a, _M_LO, out=x)
    np.add(x, c, out=x)  # t = ah*bl + (al*bl >> 32)
    np.multiply(b, _M_HI, out=c)
    np.bitwise_and(x, _MASK32, out=b)
    np.add(c, b, out=c)  # u = al*bh + (t & mask)
    np.multiply(a, _M_HI, out=a)
    np.right_shift(x, _S32, out=b)
    np.add(a, b, out=a)
    np.right_shift(c, _S32, out=c)
    np.add(a, c, out=a)  # hi = ah*bh + (t >> 32) + (u >> 32)
    np.bitwise_xor(a[::-1], y, out=x)


def words(
    seed: int,
    stream_ids: np.ndarray,
    nwords: int,
    first_word: int = 0,
) -> np.ndarray:
    """Words [first_word, first_word+nwords) of each (seed, id) stream.

    ``stream_ids`` is a 1-d uint64 array of m stream ids; the result has
    shape (m, nwords).  Words past the end of a stream are refused.
    """
    check_u64(seed, "seed")
    if nwords < 0 or first_word < 0:
        raise ValueError("word positions must be nonnegative")
    if first_word + nwords > _WORDS_PER_BLOCK * (_U64 - 1):
        raise ValueError(
            f"a stream ends at word 4*(2^64-1)-1 = {_WORDS_PER_BLOCK * (_U64 - 1) - 1}, "
            "the last whose block counter fits 64 bits"
        )
    ids = np.ascontiguousarray(stream_ids, dtype=np.uint64)
    m = ids.shape[0]
    if nwords == 0 or m == 0:
        return np.zeros((m, nwords), dtype=np.uint64)
    b_lo = first_word // _WORDS_PER_BLOCK
    b_hi = (first_word + nwords - 1) // _WORDS_PER_BLOCK
    nblocks = b_hi - b_lo + 1
    tile = min(m, max(1, _TILE_BLOCKS // nblocks))
    # y_rev holds y reversed, (c3, c1): the low products of the last round,
    # written into the spare buffer and swapped in
    x, y_rev, spare, a, b, c = np.empty((6, 2, tile, nblocks), dtype=np.uint64)
    key = np.empty((tile, 1), dtype=np.uint64)
    out = np.empty((m, nblocks, _WORDS_PER_BLOCK), dtype=np.uint64)
    with np.errstate(over="ignore"):
        # round 0, keyless, on the counters alone: (c0, c2) = (b+1, 0) and
        # y = 0, as block b holds words [4b, 4b+4) at counter b+1
        x0, y0 = x[:, :1], y_rev[:, :1]
        x0[0] = np.arange(b_lo + 1, b_hi + 2, dtype=np.uint64)
        x0[1] = 0
        y0[...] = 0
        _round(x0, y0, spare[:, :1], a[:, :1], b[:, :1], c[:, :1])
        hi0, lo0 = x0[1, 0].copy(), spare[0, 0].copy()
        for r0 in range(0, m, tile):
            rows = min(tile, m - r0)
            xt, yt, st = x[:, :rows], y_rev[:, :rows], spare[:, :rows]
            scratch = a[:, :rows], b[:, :rows], c[:, :rows]
            k1 = key[:rows]
            k1[:, 0] = ids[r0 : r0 + rows]
            # round 0 keyed: x = (k0, hi(M0 ctr) ^ k1), y = (0, lo(M0 ctr))
            xt[0] = seed
            np.bitwise_xor(hi0, k1, out=xt[1])
            yt[0] = lo0
            yt[1] = 0
            for r in range(1, _ROUNDS):
                k1 += _W1
                _round(xt, yt[::-1], st, *scratch)
                xt[0] ^= np.uint64((seed + r * _W0) % _U64)
                xt[1] ^= k1
                yt, st = st, yt
            tile_out = out[r0 : r0 + rows]
            tile_out[..., 0] = xt[0]
            tile_out[..., 1] = yt[1]
            tile_out[..., 2] = xt[1]
            tile_out[..., 3] = yt[0]
    flat = out.reshape(m, nblocks * _WORDS_PER_BLOCK)
    off = first_word - b_lo * _WORDS_PER_BLOCK
    return flat[:, off : off + nwords]
