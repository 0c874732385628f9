"""Arithmetic progressions with k terms inside an integer interval [1, n].

A k-AP is determined by (start, diff, length): {a, a+d, ..., a+(k-1)d}.
Everything here is exact integer arithmetic on 1-based elements; bit-level
representations (0-based) live in :mod:`apth.coloring`.

The k-APs with common difference in [d_lo, d_hi] are one lazy sequence,
``_DiffRange``, counted in closed form and given as numpy slabs on demand;
``count_aps``, ``enumerate_aps``, the large-difference family and the
clumping count all read one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

#: Largest admissible interval endpoint.  Threshold sweeps stay orders of
#: magnitude below this; an explicit cap makes runaway inputs diagnosable.
N_CAP = 1 << 40


def _check_k(k: int, name: str = "k") -> None:
    if k < 3:
        raise ValueError(f"progression length {name} must be >= 3, got {k}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"interval endpoint n must be >= 1, got {n}")
    if n > N_CAP:
        # by bit length: a runaway n may have thousands of digits
        raise ValueError(
            f"interval endpoint n of {n.bit_length()} bits exceeds the cap 2^40"
        )


@dataclass(frozen=True)
class Progression:
    """One k-term arithmetic progression {start, start+diff, ...}."""

    start: int
    diff: int
    length: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError(f"start must be >= 1, got {self.start}")
        if self.diff < 1:
            raise ValueError(f"diff must be >= 1, got {self.diff}")
        _check_k(self.length)
        if self.last > N_CAP:
            raise ValueError(
                f"last element {self.last} exceeds the 2^40 element cap"
            )

    @property
    def last(self) -> int:
        return self.start + (self.length - 1) * self.diff


def elements(p: Progression) -> list[int]:
    """The elements of ``p`` in increasing order."""
    return [p.start + j * p.diff for j in range(p.length)]


def contained_in(p: Progression, n: int) -> bool:
    """True iff every element of ``p`` lies in [1, n]."""
    _check_n(n)
    return p.last <= n


class _DiffRange(Sequence):
    """The k-APs of [1, n] with common difference d_lo <= d <= d_hi, in
    (diff, start) order, empty when d_hi < d_lo; each d must leave a
    start: (k-1)*d_hi < n.  A range can hold ~n^2/(2k-2) progressions, so
    it is never materialized: d has the starts 1..n-(k-1)d, which gives
    its length in closed form and its i-th item by binary search over d.
    """

    __slots__ = ("k", "n", "d_lo", "d_hi")

    def __init__(self, k: int, n: int, d_lo: int, d_hi: int):
        self.k, self.n, self.d_lo, self.d_hi = k, n, d_lo, d_hi

    def _count_upto(self, d: int) -> int:
        """k-APs of the range with diff <= d: sum of n - (k-1)d'."""
        if d < self.d_lo:
            return 0
        d = min(d, self.d_hi)
        m = d - self.d_lo + 1
        return m * self.n - (self.k - 1) * (self.d_lo + d) * m // 2

    def __len__(self) -> int:
        return self._count_upto(self.d_hi)

    def __iter__(self) -> Iterator[Progression]:
        k, n = self.k, self.n
        for d in range(self.d_lo, self.d_hi + 1):
            for a in range(1, n - (k - 1) * d + 1):
                yield Progression(a, d, k)

    def __getitem__(self, idx: int) -> Progression:
        if isinstance(idx, slice):
            raise TypeError("slicing is not supported on the virtual member list")
        size = len(self)
        if idx < 0:
            idx += size
        if not 0 <= idx < size:
            raise IndexError(idx)
        lo, hi = self.d_lo, self.d_hi
        while lo < hi:  # smallest d with _count_upto(d) > idx
            mid = (lo + hi) // 2
            if self._count_upto(mid) > idx:
                hi = mid
            else:
                lo = mid + 1
        a = idx - self._count_upto(lo - 1) + 1
        return Progression(a, lo, self.k)

    def slabs(self, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The int64 starts and diffs of the range, in order, ``size`` at
        a time: the range is never built whole (at k = 3 and n = 2^14 a
        band of the greedy holds about 21M k-APs)."""
        ds = np.arange(self.d_lo, self.d_hi + 1, dtype=np.int64)
        # k-APs of difference ds[i] hold the flat positions ends[i]..ends[i+1]-1
        ends = np.zeros(len(ds) + 1, dtype=np.int64)
        np.cumsum(self.n - (self.k - 1) * ds, out=ends[1:])
        for lo in range(0, int(ends[-1]), size):
            cut = ends.clip(lo, lo + size)
            counts = cut[1:] - cut[:-1]
            diffs = ds.repeat(counts)
            starts = np.arange(lo + 1, lo + 1 + len(diffs), dtype=np.int64)
            starts -= ends[:-1].repeat(counts)
            yield starts, diffs

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every start and diff of the range, in order, as one slab."""
        none = np.empty(0, dtype=np.int64)
        return next(self.slabs(len(self) or 1), (none, none))


def count_aps(k: int, n: int) -> int:
    """Number of k-APs contained in [1, n], in closed form.

    For each common difference d there are n - (k-1)d admissible starts,
    so the total is sum_{d=1}^{D} (n - (k-1)d) with D = floor((n-1)/(k-1)).
    """
    _check_k(k)
    _check_n(n)
    return len(_DiffRange(k, n, 1, (n - 1) // (k - 1)))


def enumerate_aps(
    k: int, n: int, diff_range: tuple[int | None, int | None] | None = None
) -> Iterator[Progression]:
    """Every k-AP contained in [1, n], ordered by (diff, start).

    ``diff_range=(lo, hi)`` restricts to common differences in [lo, hi],
    a subinterval of [1, floor((n-1)/(k-1))]; an end given as None is left
    open, and (None, None) restricts nothing.  Arguments are validated
    eagerly (before the first item is produced).
    """
    _check_k(k)
    _check_n(n)
    d_cap = (n - 1) // (k - 1)
    lo, hi = diff_range or (None, None)
    d_lo = 1 if lo is None else lo
    d_hi = d_cap if hi is None else hi
    if (lo, hi) != (None, None) and not 1 <= d_lo <= d_hi <= d_cap:
        raise ValueError(
            f"diff_range {(d_lo, d_hi)} is not a subinterval of [1, {d_cap}]"
        )
    return iter(_DiffRange(k, n, d_lo, d_hi))


def intersection_size(p: Progression, q: Progression) -> int:
    """Exact size of the element-set intersection, by a two-pointer merge."""
    i = j = 0
    count = 0
    ep, eq = elements(p), elements(q)
    while i < len(ep) and j < len(eq):
        if ep[i] == eq[j]:
            count += 1
            i += 1
            j += 1
        elif ep[i] < eq[j]:
            i += 1
        else:
            j += 1
    return count


def element_mask(p: Progression) -> int:
    """Bitmask of ``p``'s elements (element i maps to bit i-1)."""
    mask = 0
    for e in elements(p):
        mask |= 1 << (e - 1)
    return mask
