"""Families of k-APs in [1, n]: the large-difference almost-disjoint
construction, greedy maximization, and the block decomposition.

The central construction is the family of all k-APs whose common difference
d satisfies n/k <= d < n/(k-1).  Each such progression places its l-th
element inside the half-open window (l*n/k, (l+1)*n/k], and because those
windows are pairwise disjoint, two distinct members can never share two
elements: the family is almost disjoint.  Its size n^2/(2k^2(k-1)) + O(n)
is within a 1 + O(1/k) factor of n^2/(2k^3) and is quadratic in n, while a
family of disjoint progressions could only reach linear size.

Families are stored packed: a member is one entry of two int64 arrays,
starts and diffs, and ``Progression`` objects are built only when a caller
iterates or indexes; the large-difference family is not stored at all,
being one difference range of :mod:`apth.progressions`.  The
almost-disjointness check and the greedy maximization work on those
arrays and on the C(k, 2) element-pair keys x*(n+1)+y they give, never on
one progression at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .progressions import Progression, _check_k, _check_n, _DiffRange

#: Member count at which the benchmark splits small-family from
#: large-family check times.  It selects no algorithm: every family takes
#: the same sorted pair-key pass in ``is_almost_disjoint``.
ALL_PAIRS_FALLBACK = 1000

#: Largest n ``greedy_max_family`` accepts: its uint8 pair table takes
#: (n+1)^2 bytes (268 MB at the cap) and its scan offers all
#: ~n^2/(2k-2) k-APs, one numpy batch per band of differences or per start.
GREEDY_MAX_N = 1 << 14

#: Most pair keys one gather of ``greedy_max_family`` holds (512 KB of
#: int64), whatever C(k, 2) is: a batch is cut into slabs of candidates,
#: and past C(k, 2) = _KEY_BUDGET a candidate's pairs into blocks, to fit.
_KEY_BUDGET = 1 << 16


def _diff_bounds(k: int, n: int) -> tuple[int, int]:
    """Integer d range for n/k <= d < n/(k-1), as exact comparisons.

    d >= n/k  <=>  k*d >= n; d < n/(k-1)  <=>  (k-1)*d < n.  May be empty
    (d_lo > d_hi) for small n.  Never evaluated in floating point: boundary
    d values decide family membership.
    """
    d_lo = -(-n // k)
    d_hi = -(-n // (k - 1)) - 1
    return d_lo, d_hi


class _PackedMembers(Sequence):
    """Member list stored as int64 start and diff arrays sorted by
    (diff, start); a ``Progression`` is built only when one is asked for."""

    __slots__ = ("k", "starts", "diffs")

    def __init__(self, k: int, starts: np.ndarray, diffs: np.ndarray):
        self.k = k
        self.starts = starts
        self.diffs = diffs

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[Progression]:
        k = self.k
        for a, d in zip(self.starts.tolist(), self.diffs.tolist()):
            yield Progression(a, d, k)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(_PackedMembers(self.k, self.starts[idx], self.diffs[idx]))
        return Progression(int(self.starts[idx]), int(self.diffs[idx]), self.k)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.starts, self.diffs


def _pack(k: int, n: int, members: Iterable[Progression]) -> _PackedMembers:
    """Sort progressions by (diff, start) into packed arrays, refusing a
    member whose length is not k, one not inside [1, n] (the first such in
    that order) and duplicates."""
    fields = np.array(
        [(p.start, p.diff, p.length) for p in members], dtype=np.int64
    ).reshape(-1, 3)
    fields = fields[np.lexsort((fields[:, 0], fields[:, 1]))]
    starts, diffs, lengths = np.ascontiguousarray(fields.T)
    bad = (lengths != k) | (starts + (lengths - 1) * diffs > n)
    if bad.any():
        p = Progression(*fields[bad.argmax()].tolist())
        if p.length != k:
            raise ValueError(f"member {p} does not have length k={k}")
        raise ValueError(f"member {p} is not contained in [1, {n}]")
    same = (starts[1:] == starts[:-1]) & (diffs[1:] == diffs[:-1])
    if same.any():
        p = Progression(*fields[same.argmax() + 1].tolist())
        raise ValueError(f"duplicate member {p}")
    return _PackedMembers(k, starts, diffs)


class APFamily:
    """An immutable family of k-APs contained in [1, n].

    Members are pairwise distinct and ordered by (diff, start).  They are
    stored packed, as int64 start and diff arrays, and ``members``,
    iteration and indexing build ``Progression`` objects on demand; the
    large-difference family stays virtual and gives its arrays by closed
    form.  Progressions passed in are always validated: length k, inside
    [1, n], no duplicates.  ``certified_almost_disjoint`` is set only on
    the results of ``large_diff_family`` and ``greedy_max_family``, whose
    constructions guarantee almost-disjointness; it lets density
    computations skip a re-check that would be infeasible at large n.
    """

    __slots__ = ("k", "n", "_members", "certified_almost_disjoint")

    def __init__(self, k: int, n: int, members: Iterable[Progression]):
        _check_k(k)
        _check_n(n)
        self.k = k
        self.n = n
        self._members: _PackedMembers | _DiffRange = _pack(k, n, members)
        self.certified_almost_disjoint = False

    @classmethod
    def _certified(
        cls, k: int, n: int, members: _PackedMembers | _DiffRange
    ) -> APFamily:
        """A family a construction guarantees: members sorted by (diff,
        start), distinct, inside [1, n] and almost disjoint; nothing is
        checked."""
        fam = cls.__new__(cls)
        fam.k = k
        fam.n = n
        fam._members = members
        fam.certified_almost_disjoint = True
        return fam

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
        mine, theirs = self._members, other._members
        if isinstance(mine, _DiffRange) and isinstance(theirs, _DiffRange):
            # never built: equal bounds give equal members, as does no member
            return (mine.d_lo, mine.d_hi) == (theirs.d_lo, theirs.d_hi) or not mine
        return all(
            np.array_equal(x, y) for x, y in zip(mine.arrays(), theirs.arrays())
        )

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
    return APFamily._certified(k, n, _DiffRange(k, n, *_diff_bounds(k, n)))


def large_diff_family_size(k: int, n: int) -> int:
    """Closed form of sum over n/k <= d < n/(k-1) of (n - d(k-1))."""
    _check_k(k)
    _check_n(n)
    return len(_DiffRange(k, n, *_diff_bounds(k, n)))


def _member_elements(family: APFamily) -> np.ndarray:
    """The (members, k) int64 matrix of member elements, start + diff*j for
    j < k, one row per member in (diff, start) order."""
    starts, diffs = family._members.arrays()
    elems = diffs[:, None] * np.arange(family.k, dtype=np.int64)
    elems += starts[:, None]
    return elems


def _pair_keys(family: APFamily) -> np.ndarray:
    """The C(k, 2) keys x*(n+1)+y of the element pairs x < y of every
    member, one row per member.

    When (n+1)^2 would overflow int64 (n past ~3e9), the elements are first
    replaced by their ranks among all member elements: ranks keep equality,
    and equality is all the keys are compared by.
    """
    elems = _member_elements(family)
    m, k = elems.shape
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
    only on failure; they are the only ``Progression`` objects built.
    """
    keys = _pair_keys(family).ravel()
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    if not repeated.any():
        return True, None
    owners = (_pair_keys(family) == keys[repeated.argmax()]).any(axis=1)
    i, j = np.flatnonzero(owners)[:2].tolist()
    return False, (family.members[i], family.members[j])


GreedyOrder = Literal["lex_by_diff_start", "lex_by_start_diff"]


def greedy_max_family(
    k: int,
    n: int,
    seed_with_large_diff: bool = False,
    order: GreedyOrder = "lex_by_diff_start",
) -> APFamily:
    """Greedily grow an almost-disjoint family over all k-APs in [1, n].

    Offers every k-AP in the chosen order and keeps each one that keeps
    the family almost disjoint.  A uint8 table over the keys x*(n+1)+y of
    the element pairs {x < y} records which pairs kept members cover; a
    candidate is admissible iff none of its C(k, 2) pairs is covered yet,
    so the table takes (n+1)^2 bytes; n above ``GREEDY_MAX_N`` is refused
    before anything is allocated.  With ``seed_with_large_diff`` the
    large-difference family is offered first, so the result size is at
    least ``large_diff_family_size(k, n)``.

    Candidates are offered a batch at a time: for ``lex_by_diff_start``
    and for the seed, all starts of a band of differences d0 <= d with
    d*(k-2) < d0*(k-1); for ``lex_by_start_diff``, all diffs of one start
    a.  One gather of the table keeps the candidates whose pairs are all
    free; an in-batch rule then drops each one that clashes (shares two
    elements) with a kept candidate before it in the batch, and one
    scatter marks the kept candidates' pairs.  k-APs of differences
    d < d' that share x < y have y - x = i*d = j*d' with 1 <= j < i <= k-1,
    so d'/d >= (k-1)/(k-2) and two candidates of one band clash only if
    they have the same d: iff their starts are congruent mod d and less
    than (k-1)d apart.  With one a, two clash iff they share an element
    besides a.  A gather holds at most ``_KEY_BUDGET`` keys, whatever k
    is: a batch is produced and offered in slabs, never built whole, each
    filtered against the table as it stands when the slab starts.  Each
    gather runs along its longer axis, offsets or candidates.  The result
    is the one-candidate-at-a-time greedy's.

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
        none = np.empty(0, dtype=np.int64)
        return APFamily._certified(k, n, _PackedMembers(k, none, none))

    covered = np.zeros((n + 1) ** 2, dtype=np.uint8)
    # key of the pair (a + i*d, a + j*d) is a*(n+2) + d*(i*(n+1) + j)
    offsets = np.concatenate(
        [i * (n + 1) + np.arange(i + 1, k, dtype=np.int64) for i in range(k - 1)]
    )
    # Past k = 16 the first row (the k-1 pairs through a) is under an
    # eighth of all pairs; at large k it rejects most candidates, so each
    # chunk of a batch is first tested on it alone, against the table as
    # the chunk starts.  A candidate that passes is tested in full in its
    # slab.
    head = k - 1 if k > 16 else 0
    width = min(len(offsets) - head, _KEY_BUDGET)
    blocks = [offsets[:head]] if head else []
    blocks += [offsets[i : i + width] for i in range(head, len(offsets), width)]
    slab = _KEY_BUDGET // width
    kept_starts: list[np.ndarray] = []
    kept_diffs: list[np.ndarray] = []

    def free(a: np.ndarray, d: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Which candidates (a[i], d[i]) have none of the pairs at
        ``block`` covered.  The gather runs along its longer axis:
        offset-major rows OR-ed together when the candidates are at least
        as many as the offsets, one row per candidate otherwise."""
        if len(a) >= len(block):
            keys = np.multiply.outer(block, d)
            keys += a * (n + 2)
            return np.bitwise_or.reduce(covered[keys], axis=0) == 0
        return ~covered[_keys(a, d, block, n)].any(axis=1)

    def insert(starts: np.ndarray, diffs: np.ndarray, rule) -> None:
        """Offer the candidates (starts[i], diffs[i]) in order; ``rule``
        picks, from a slab's free candidates, if any, those to keep.  The
        screen on the first row is one gather within the budget: a band
        comes in chunks of _KEY_BUDGET // head candidates, and one start
        has fewer than GREEDY_MAX_N / head."""
        if head:  # a first row is one run of keys d apart: candidate-major
            ok = ~covered[_keys(starts, diffs, blocks[0], n)].any(axis=1)
            starts, diffs = starts[ok], diffs[ok]
        for lo in range(0, len(starts), slab):
            a, d = starts[lo : lo + slab], diffs[lo : lo + slab]
            for block in blocks:
                ok = free(a, d, block)
                a, d = a[ok], d[ok]
            if not len(a):
                continue
            picks = rule(a, d)
            a, d = a[picks], d[picks]
            for block in blocks:
                covered[_keys(a, d, block, n)] = 1
            kept_starts.append(a)
            kept_diffs.append(d)

    def insert_diffs(d_lo: int, d_hi: int) -> None:
        size = _KEY_BUDGET // head if head else slab
        for d0, d1 in _bands(k, d_lo, d_hi):
            for starts, diffs in _DiffRange(k, n, d0, d1).slabs(size):
                insert(starts, diffs, lambda a, d: _by_residue(k, a, d))

    if seed_with_large_diff:
        insert_diffs(*_diff_bounds(k, n))
    # a member covers its own pairs, so the scan rejects it a second time
    if order == "lex_by_diff_start":
        insert_diffs(1, (n - 1) // (k - 1))
    else:
        for a in range(1, n - (k - 1) + 1):
            diffs = np.arange(1, (n - a) // (k - 1) + 1, dtype=np.int64)
            insert(np.full_like(diffs, a), diffs, lambda _, d: _by_steps(k, d))

    starts, diffs = np.concatenate(kept_starts), np.concatenate(kept_diffs)
    ranked = np.lexsort((starts, diffs))
    members = _PackedMembers(k, starts[ranked], diffs[ranked])
    return APFamily._certified(k, n, members)


def _bands(k: int, d_lo: int, d_hi: int) -> Iterator[tuple[int, int]]:
    """Split d_lo..d_hi into bands d0..d1, each holding every d with
    d*(k-2) < d0*(k-1): two k-APs of one band clash only if they have the
    same difference (see ``greedy_max_family``)."""
    d0 = d_lo
    while d0 <= d_hi:
        d1 = min(d_hi, ((k - 1) * d0 - 1) // (k - 2))
        yield d0, d1
        d0 = d1 + 1


def _keys(
    starts: np.ndarray, diffs: np.ndarray, offsets: np.ndarray, n: int
) -> np.ndarray:
    """Pair keys a*(n+2) + d*c: a row per candidate (a, d), a column per
    offset c."""
    keys = np.multiply.outer(diffs, offsets)
    keys += (starts * (n + 2))[:, None]
    return keys


def _by_residue(k: int, starts: np.ndarray, diffs: np.ndarray) -> list[int]:
    """Greedy picks among a nonempty run of k-APs of one band (see
    ``_bands``) in (d, a) order, by position: two of one difference d
    clash iff their starts are congruent mod d and less than (k-1)d apart,
    so a start is kept iff it lies (k-1)d or more past the last one kept
    in its residue class."""
    picks = []
    cuts = []
    if diffs[0] != diffs[-1]:  # ascending: more than one difference
        cuts = (np.flatnonzero(diffs[1:] != diffs[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(diffs)]):
        d = int(diffs[lo])
        span = (k - 1) * d
        last = [-span] * d  # the last start kept, by residue
        for i, a in enumerate(starts[lo:hi].tolist(), lo):
            r = a % d
            if a - last[r] >= span:
                last[r] = a
                picks.append(i)
    return picks


def _by_steps(k: int, diffs: np.ndarray) -> list[int]:
    """Greedy picks among k-APs of one start, by position: two clash iff
    they share an element besides the start, that is a step i*d of one
    equals a step j*d' of the other (0 < i, j < k)."""
    taken: set[int] = set()
    picks = []
    for i, d in enumerate(diffs.tolist()):
        steps = range(d, k * d, d)
        if taken.isdisjoint(steps):
            taken.update(steps)
            picks.append(i)
    return picks


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
