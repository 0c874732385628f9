"""Families of k-APs in [1, n]: the large-difference almost-disjoint
construction, greedy maximization, and the block decomposition.

The central construction is the family of all k-APs whose common difference
d satisfies n/k <= d < n/(k-1).  Each such progression places its l-th
element inside the half-open window (l*n/k, (l+1)*n/k], and because those
windows are pairwise disjoint, two distinct members can never share two
elements: the family is almost disjoint.  Its size n^2/(2k^2(k-1)) + O(n)
is within a 1 + O(1/k) factor of n^2/(2k^3) and is quadratic in n, while a
family of disjoint progressions could only reach linear size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .progressions import Progression, _check_k, _check_n, contained_in

#: Member count at which the benchmark splits small-family from
#: large-family check times.  It selects no algorithm: every family takes
#: the same sorted pair-key pass in ``is_almost_disjoint``.
ALL_PAIRS_FALLBACK = 1000

#: Largest n ``greedy_max_family`` accepts: its pair table takes (n+1)^2
#: bytes (268 MB here) and its scan is quadratic in n.
GREEDY_MAX_N = 1 << 14


def _diff_bounds(k: int, n: int) -> tuple[int, int]:
    """Integer d range for n/k <= d < n/(k-1), as exact comparisons.

    d >= n/k  <=>  k*d >= n; d < n/(k-1)  <=>  (k-1)*d < n.  May be empty
    (d_lo > d_hi) for small n.  Never evaluated in floating point: boundary
    d values decide family membership.
    """
    d_lo = -(-n // k)
    d_hi = -(-n // (k - 1)) - 1
    return d_lo, d_hi


class _LargeDiffMembers(Sequence):
    """Virtual sorted member list of the large-difference family.

    The family can hold ~n^2/(2k^3) progressions (2.8e10 at k=3, n=1e6),
    so the sequence is never materialized: length comes from the closed
    form and items are computed on demand.
    """

    __slots__ = ("k", "n", "d_lo", "d_hi")

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        self.d_lo, self.d_hi = _diff_bounds(k, n)

    def _count_upto(self, d: int) -> int:
        """Members with diff <= d."""
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


class APFamily:
    """An immutable family of k-APs contained in [1, n].

    Members are kept sorted by (diff, start) and pairwise distinct.
    ``certified_almost_disjoint`` marks families whose construction
    guarantees almost-disjointness, letting density computations skip a
    re-check that would be infeasible at large n.
    """

    __slots__ = ("k", "n", "_members", "certified_almost_disjoint")

    def __init__(
        self,
        k: int,
        n: int,
        members: Iterable[Progression],
        certified_almost_disjoint: bool = False,
    ):
        _check_k(k)
        _check_n(n)
        self.k = k
        self.n = n
        if isinstance(members, _LargeDiffMembers):
            self._members: Sequence[Progression] = members
        else:
            ordered = sorted(members, key=lambda p: (p.diff, p.start))
            for p in ordered:
                if p.length != k:
                    raise ValueError(f"member {p} does not have length k={k}")
                if not contained_in(p, n):
                    raise ValueError(f"member {p} is not contained in [1, {n}]")
            for prev, cur in zip(ordered, ordered[1:]):
                if prev == cur:
                    raise ValueError(f"duplicate member {cur}")
            self._members = tuple(ordered)
        self.certified_almost_disjoint = certified_almost_disjoint

    @property
    def members(self) -> Sequence[Progression]:
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Progression]:
        return iter(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, APFamily):
            return NotImplemented
        if self.k != other.k or self.n != other.n or len(self) != len(other):
            return False
        return all(p == q for p, q in zip(self, other))

    def __repr__(self) -> str:
        return f"APFamily(k={self.k}, n={self.n}, members={len(self)})"


@dataclass(frozen=True)
class BlockPlan:
    """Decomposition of [1, n] into q blocks of length s plus a residual r."""

    n: int
    q: int
    s: int
    r: int

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The (first, last) elements of each block, the residual last.

        Built on demand: with n near 2^40 there are about 10^6 blocks, and
        the block bound needs only q, s and r.
        """
        s = self.s
        blocks = tuple((i * s + 1, (i + 1) * s) for i in range(self.q))
        if self.r > 0:
            blocks += ((self.q * s + 1, self.n),)
        return blocks


def large_diff_family(k: int, n: int) -> APFamily:
    """All k-APs in [1, n] with common difference in [n/k, n/(k-1)).

    The result is almost disjoint by construction (see the module
    docstring); every member has start <= diff.  May be empty when no
    integer d falls in the interval, which callers must tolerate.
    """
    _check_k(k)
    _check_n(n)
    return APFamily(k, n, _LargeDiffMembers(k, n), certified_almost_disjoint=True)


def large_diff_family_size(k: int, n: int) -> int:
    """Closed form of sum over n/k <= d < n/(k-1) of (n - d(k-1))."""
    _check_k(k)
    _check_n(n)
    return _LargeDiffMembers(k, n)._count_upto(n)


def _pair_keys(family: APFamily, members: Sequence[Progression]) -> np.ndarray:
    """The C(k, 2) keys x*(n+1)+y of the element pairs x < y of every
    member, one row per member.

    When (n+1)^2 would overflow int64 (n past ~3e9), the elements are first
    replaced by their ranks among all member elements: ranks keep equality,
    and equality is all the keys are compared by.
    """
    k, m = family.k, len(members)
    elems = np.empty((m, k), dtype=np.int64)
    np.multiply(
        np.fromiter((p.diff for p in members), np.int64, m)[:, None],
        np.arange(k, dtype=np.int64),
        out=elems,
    )
    elems += np.fromiter((p.start for p in members), np.int64, m)[:, None]
    base = family.n + 1
    if base * base >= 1 << 63:
        ranked, inverse = np.unique(elems, return_inverse=True)
        elems, base = inverse.reshape(m, k), len(ranked)
    x, y = np.triu_indices(k, 1)
    keys = elems[:, x]
    keys *= base
    keys += elems[:, y]
    return keys


def is_almost_disjoint(
    family: APFamily,
) -> tuple[bool, tuple[Progression, Progression] | None]:
    """Check that every two distinct members share at most one element.

    Returns (True, None) or (False, witness_pair).  Members are distinct,
    so two of them share two elements exactly when some element pair
    {x < y} is covered twice: the C(k, 2) pair keys of all members are
    sorted together and any equal neighbours are a violation.  The two
    members owning the smallest repeated key are the witness, looked up
    only on failure.
    """
    members = list(family)
    keys = _pair_keys(family, members).ravel()
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    if not repeated.any():
        return True, None
    owners = (_pair_keys(family, members) == keys[repeated.argmax()]).any(axis=1)
    i, j = np.flatnonzero(owners)[:2]
    return False, (members[i], members[j])


GreedyOrder = Literal["lex_by_diff_start", "lex_by_start_diff"]


def greedy_max_family(
    k: int,
    n: int,
    seed_with_large_diff: bool = False,
    order: GreedyOrder = "lex_by_diff_start",
) -> APFamily:
    """Greedily grow an almost-disjoint family over all k-APs in [1, n].

    Scans every k-AP in the chosen order and inserts each one that keeps
    the family almost disjoint.  A byte per element pair {x < y}, indexed
    by the key x*(n+1)+y, records whether a member covers it; a candidate
    is admissible iff none of its C(k, 2) pairs is covered yet, so the
    table takes (n+1)^2 bytes; n above ``GREEDY_MAX_N`` is refused before
    anything is allocated.  With ``seed_with_large_diff`` the
    large-difference family is inserted first, so the result size is at
    least ``large_diff_family_size(k, n)``.

    The scan order is part of the contract: it pins the result, making
    density figures reproducible across runs and platforms.
    """
    _check_k(k)
    _check_n(n)
    if order not in ("lex_by_diff_start", "lex_by_start_diff"):
        raise ValueError(f"unknown scan order {order!r}")
    if n > GREEDY_MAX_N:
        raise ValueError(
            f"greedy search needs an (n+1)^2-byte pair table; n={n} exceeds "
            f"the cap n <= {GREEDY_MAX_N}"
        )
    if n < k:  # no k-AP fits: skip the table and the C(k, 2) pair offsets
        return APFamily(k, n, [], certified_almost_disjoint=True)

    covered = bytearray((n + 1) ** 2)
    # key of the pair (a + i*d, a + j*d) is a*(n+2) + d*(i*(n+1) + j)
    offsets = [i * (n + 1) + j for i in range(k) for j in range(i + 1, k)]
    accepted: list[Progression] = []

    def try_insert(a: int, d: int) -> None:
        base = a * (n + 2)
        for c in offsets:
            if covered[base + d * c]:
                return
        for c in offsets:
            covered[base + d * c] = 1
        accepted.append(Progression(a, d, k))

    if seed_with_large_diff:
        for p in large_diff_family(k, n):
            try_insert(p.start, p.diff)

    # a member covers its own pairs, so the scan rejects it a second time
    d_cap = (n - 1) // (k - 1)
    if order == "lex_by_diff_start":
        scan = (
            (a, d)
            for d in range(1, d_cap + 1)
            for a in range(1, n - (k - 1) * d + 1)
        )
    else:
        scan = (
            (a, d)
            for a in range(1, n - (k - 1) + 1)
            for d in range(1, (n - a) // (k - 1) + 1)
        )
    for a, d in scan:
        try_insert(a, d)

    return APFamily(k, n, accepted, certified_almost_disjoint=True)


def family_density(family: APFamily) -> float:
    """|F| * (2k-2) / n^2 for an almost-disjoint family F.

    This is the normalization under which the maximum almost-disjoint
    family in [1, n] has size density * n^2/(2k-2); the large-difference
    construction gives density -> 1/k^2 as n grows.  Only a finite-n
    estimate is ever reported.  Rejects families that are not almost
    disjoint (construction-certified families skip the re-check).
    """
    if not family.certified_almost_disjoint:
        ok, witness = is_almost_disjoint(family)
        if not ok:
            raise ValueError(f"family is not almost disjoint: witness {witness}")
    return len(family) * (2 * family.k - 2) / family.n**2


def block_plan(n: int, q: int) -> BlockPlan:
    """Split [1, n] into q blocks of length s = floor(n/q) plus a residual.

    The decomposition n = q s + r demands 0 <= r < s.  With s = floor(n/q)
    that constraint holds automatically whenever q^2 <= n (then
    r = n mod q < q <= s) and additionally whenever q divides n; anything
    else is rejected.
    """
    _check_n(n)
    if q < 1:
        raise ValueError(f"block count q must be >= 1, got {q}")
    s = n // q
    r = n - q * s
    if s < 1 or r >= s:
        raise ValueError(
            f"q={q} cannot decompose n={n}: block length s={s} and "
            f"residual r={r} violate the constraint 0 <= r < s "
            f"(q^2 <= n suffices)"
        )
    return BlockPlan(n=n, q=q, s=s, r=r)


def _check_f(f: float) -> None:
    if not 1 <= f < inf:
        raise ValueError(f"scale parameter f must be finite and >= 1, got {f}")


def block_count(f: float) -> int:
    """floor(f^(4/3)), the block count used at scale parameter f.

    The integer cube root of floor(f^4), by Newton's method on integers:
    exact where floats are not (8 ** (4/3) is 15.999...), and a few dozen
    steps even for huge f.
    """
    _check_f(f)
    x = int(Fraction(f) ** 4)
    # start above the root; a step from above never falls below it
    c = 1 << -(-x.bit_length() // 3)
    while c**3 > x:
        c = (2 * c + x // (c * c)) // 3
    return c
