"""Arithmetic progressions with k terms inside an integer interval [1, n].

A k-AP is determined by (start, diff, length): {a, a+d, ..., a+(k-1)d}.
Everything here is exact integer arithmetic on 1-based elements; bit-level
representations (0-based) live in :mod:`apth.coloring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


def count_aps(k: int, n: int) -> int:
    """Number of k-APs contained in [1, n], in closed form.

    For each common difference d there are n - (k-1)d admissible starts,
    so the total is sum_{d=1}^{D} (n - (k-1)d) with D = floor((n-1)/(k-1)).
    """
    _check_k(k)
    _check_n(n)
    if n < k:
        return 0
    d_max = (n - 1) // (k - 1)
    return d_max * n - (k - 1) * d_max * (d_max + 1) // 2


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
    d_cap = (n - 1) // (k - 1) if n >= k else 0
    lo, hi = diff_range or (None, None)
    d_lo = 1 if lo is None else lo
    d_hi = d_cap if hi is None else hi
    if (lo, hi) != (None, None) and not 1 <= d_lo <= d_hi <= d_cap:
        raise ValueError(
            f"diff_range {(d_lo, d_hi)} is not a subinterval of [1, {d_cap}]"
        )

    def generate() -> Iterator[Progression]:
        for d in range(d_lo, d_hi + 1):
            for a in range(1, n - (k - 1) * d + 1):
                yield Progression(a, d, k)

    return generate()


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
