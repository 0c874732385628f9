"""Exact small-scale probability oracles and closed-form bound evaluators.

The exact oracles enumerate all 2^n colorings of [1, n] (halved by fixing
element 1 red, since complementation preserves monochromaticity) and are
gated by a brute-force cap.  Results are exact integers / rationals.

The bound evaluators are plain double-precision formulas:

* expectation and Markov (first moment) bounds on P(some mono k-AP),
* the block-product upper bound exp(-s^2 q / (2^(k+2) k^3)) on the
  probability p0 that no large-difference progression of any block is
  monochromatic, together with the Bonferroni union lower bound that
  drives it,
* the first-moment lower bound (k-2-k g^2)/(k-2) on p0,
* the threshold scales 2^(k/2) k^(3/2) f and 2^(k/2) k^(1/2) g at which
  the mono-AP probability is pushed to 1 (resp. 0) as k grows,
* the declumped first-moment threshold ``clump_threshold``, an exact
  rational reference for where the mono probability crosses a target.

The asymptotic inequalities behind the bounds need not hold at finite k;
evaluators therefore report validity flags instead of refusing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, isqrt, log1p
from typing import Iterator, NamedTuple

import numpy as np

from .coloring import (
    _any_mono,
    _count_buffers,
    _kernel_groups,
    _mono_counts,
    _padding,
    _plane_histogram,
)
from .errors import BruteForceCapError
from .family import (
    APFamily,
    _check_f,
    _member_elements,
    block_count,
    block_plan,
    large_diff_family_size,
)
from .progressions import (
    Progression,
    _DiffRange,
    _check_k,
    _check_n,
    contained_in,
    count_aps,
    intersection_size,
)

#: Default exact-enumeration cap: 2^25 colorings after symmetry halving.
DEFAULT_BRUTE_CAP = 26

#: Coloring indices are 64-bit words; enumeration beyond this is
#: unreachable anyway.
_HARD_ENUM_LIMIT = 63

#: Largest k the threshold scales and the block bound accept.  Their exact
#: arithmetic squares and roots numbers of about k bits, quadratic in k;
#: at 2^14 it takes well under a millisecond and the scales print in
#: about 2,500 digits, far beyond any k a Monte Carlo run can reach.
_BOUND_K_MAX = 1 << 14

#: Elements 2..7 of the 64 colorings of one group: element j+2 of the
#: coloring in bit s is bit j of s (0xAAAA..., 0xCCCC..., 0xF0F0..., ...).
_LOW_ELEMENTS = np.array(
    [sum(1 << s for s in range(64) if s >> j & 1) for j in range(6)],
    dtype=np.uint64,
)


def _check_cap(n: int, cap: int | None) -> None:
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    if n > cap:
        raise BruteForceCapError(n, cap)
    if n > _HARD_ENUM_LIMIT:
        raise ValueError(
            f"exact enumeration indexes colorings by 64-bit words; "
            f"n={n} exceeds the architectural limit {_HARD_ENUM_LIMIT}"
        )


# The chunks are element-major already, so the oracles call the kernel
# bodies, not the public functions on sample-major rows; those are what
# ``bench/tracing.py`` counts as the detection layer.


def _coloring_chunks(n: int) -> Iterator[tuple[np.ndarray, int]]:
    """All colorings of [1, n] with element 1 red, as element-major chunks
    for the ``coloring`` kernel, each with its number of colorings.

    Coloring y (element j+2 red iff bit j of y is set) sits in bit y % 64
    of group y // 64.  So element 1 is all ones, elements 2..7 are the
    fixed ``_LOW_ELEMENTS`` words, and every higher element is all ones or
    all zeros by one bit of the group index.  For n < 7 the single group
    holds fewer than 64 colorings; its other slots are padding.  A chunk
    holds the kernel budget's groups, ``_kernel_groups(n)``: 5,461 groups
    (349,504 colorings) at n = 24.

    Every chunk is written into one buffer, so a chunk is valid only until
    the next is requested; a caller that keeps chunks copies them.  Freed
    and fresh chunk-sized blocks would otherwise alternate with whatever
    scratch the caller holds, taking new pages for most chunks.
    """
    half = 1 << (n - 1)
    groups = -(-half // 64)
    low = min(n, 7)
    one = np.uint64(1)
    step = min(_kernel_groups(n), groups)
    buf = np.empty((n, step), dtype=np.uint64)
    buf[0] = ~np.uint64(0)
    buf[1:low] = _LOW_ELEMENTS[: low - 1, None]
    for lo in range(0, groups, step):
        g = np.arange(lo, min(lo + step, groups), dtype=np.uint64)
        chunk = buf[:, : g.size]
        high = chunk[low:]
        np.right_shift(g, np.arange(n - low, dtype=np.uint64)[:, None], out=high)
        high &= one
        np.negative(high, out=high)  # all ones where the bit is set
        yield chunk, min(64 * g.size, half)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution of the number of monochromatic k-APs.

    ``counts[r]`` is the number of colorings of [1, n] with exactly r
    monochromatic k-APs; ``total`` is 2^n.
    """

    k: int
    n: int
    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("distribution counts must sum to 2^n")

    def prob(self, r: int) -> Fraction:
        return Fraction(self.counts.get(r, 0), self.total)

    def p_none(self) -> Fraction:
        """Probability of zero monochromatic k-APs."""
        return self.prob(0)

    def mean(self) -> Fraction:
        """Expected number of monochromatic k-APs, exact."""
        return Fraction(
            sum(r * c for r, c in self.counts.items()), self.total
        )


class BonferroniBound(NamedTuple):
    """Truncated inclusion-exclusion lower bound on a union of m events."""

    value: int
    #: With m <= 2^(k-1) the pair term eats at most half the first term,
    #: so value >= m * 2^(s-k).
    strong: bool


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the geometry and validity flags behind it.

    The field order less ``k`` is the order of the CLI's ``p0_upper``
    record."""

    k: int
    n: int
    f: float
    q: int
    s: int
    r: int
    value: float
    flags: dict[str, bool]


def exact_prob_mono(k: int, n: int, cap: int | None = None) -> Fraction:
    """Exact P(a uniform coloring of [1, n] has a monochromatic k-AP)."""
    _check_k(k)
    _check_n(n)
    _check_cap(n, cap)
    if n < k:
        return Fraction(0)
    hits = 0
    for x, count in _coloring_chunks(n):
        # the last chunk's padding slots past ``count`` are not reported
        hits += int(np.bitwise_count(_any_mono(x, n, k, count)[0]).sum())
    return Fraction(2 * hits, 1 << n)


def mono_count_distribution(
    k: int, n: int, cap: int | None = None
) -> ExactDistribution:
    """Exact counts of colorings by their number of monochromatic k-APs.

    Per chunk, ``_mono_counts`` sums the run rows into bit planes with
    carry-save adders, and ``_plane_histogram`` counts the colorings of
    each value by a depth-first walk over the planes, one popcount per
    value; the counts are never transposed to one word per coloring.
    """
    _check_k(k)
    _check_n(n)
    _check_cap(n, cap)
    if n < k:
        return ExactDistribution(k, n, {0: 1 << n}, 1 << n)
    top = count_aps(k, n)
    hist = np.zeros(top + 1, dtype=np.int64)
    buffers = None
    for x, count in _coloring_chunks(n):
        buffers = buffers or _count_buffers(n, k, x.shape[1])
        hist += _plane_histogram(_mono_counts(x, n, k, buffers), count, top)
    counts = {int(r): 2 * int(c) for r, c in enumerate(hist) if c}
    return ExactDistribution(k, n, counts, 1 << n)


def mono_single_count(k: int, s: int) -> int:
    """Colorings of [1, s] making one fixed k-AP monochromatic: 2^(s-k+1)."""
    _check_k(k)
    if k > s:
        raise ValueError(f"k={k} does not fit in [1, s={s}]")
    return 1 << (s - k + 1)


def mono_pair_count(p: Progression, q: Progression, s: int) -> int:
    """Colorings of [1, s] making both ``p`` and ``q`` monochromatic.

    With t shared elements the union pins 2k - t elements; the two
    progressions choose colors independently when t = 0 and jointly
    otherwise:

        t = 0:  4 * 2^(s-2k)
        t >= 1: 2 * 2^(s-(2k-t))

    For t <= 1 both equal 2^(s-2k+2), which is why almost-disjoint
    families admit a clean second-order union bound; larger overlaps
    inflate the count by 2^(t-1).
    """
    if p.length != q.length:
        raise ValueError("pair counting requires equal progression lengths")
    k = p.length
    if not (contained_in(p, s) and contained_in(q, s)):
        raise ValueError(f"both progressions must be contained in [1, {s}]")
    t = intersection_size(p, q)
    if t == 0:
        return 1 << (s - 2 * k + 2)
    return 1 << (s - 2 * k + t + 1)


def bonferroni_lower(m: int, s: int, k: int) -> BonferroniBound:
    """Second-order lower bound on |union of m single-AP coloring sets|.

    For m almost-disjoint k-APs in [1, s]:

        |union| >= m * 2^(s-k+1) - C(m, 2) * 2^(s-2k+2)

    clamped at zero.  ``strong`` records m <= 2^(k-1), under which the
    bound is at least m * 2^(s-k).
    """
    _check_k(k)
    if m < 0:
        raise ValueError(f"set count m must be >= 0, got {m}")
    if 2 * k > s + 2:
        raise ValueError(
            f"exponent underflow: need 2k <= s+2, got k={k}, s={s}"
        )
    value = m * (1 << (s - k + 1)) - comb(m, 2) * (1 << (s - 2 * k + 2))
    return BonferroniBound(value=max(0, value), strong=m <= 1 << (k - 1))


def union_mono_exact(family: APFamily, s: int, cap: int | None = None) -> int:
    """Exact number of colorings of [1, s] with some family member mono."""
    _check_n(s)
    _check_cap(s, cap)
    # members are distinct, so at most count_aps(k, s) of them pass: the
    # loop stops early even on a huge virtual family
    for p in family:
        if not contained_in(p, s):
            raise ValueError(f"member {p} is not contained in [1, {s}]")
    members = _member_elements(family) - 1
    if not len(members):
        return 0
    hits = 0
    for x, count in _coloring_chunks(s):
        # a member is mono where no element differs from its first
        mono = np.zeros(x.shape[1], dtype=np.uint64)
        for e in members:
            mono |= ~np.bitwise_or.reduce(x[e[1:]] ^ x[e[0]], axis=0)
        hits += int(np.bitwise_count(mono & ~_padding(count)).sum())
    return 2 * hits


def expected_mono(k: int, n: int) -> float:
    """Expected number of monochromatic k-APs: count_aps(k, n) * 2^(1-k)."""
    return count_aps(k, n) * 2.0 ** (1 - k)


def markov_upper(k: int, n: int) -> float:
    """min(1, E[mono k-AP count]): a certified upper bound on the mono
    probability, by the first moment method."""
    return min(1.0, expected_mono(k, n))


def _check_bound_k(k: int) -> None:
    _check_k(k)
    if k > _BOUND_K_MAX:
        raise ValueError(
            f"progression length k={k} exceeds {_BOUND_K_MAX}, the largest "
            "the threshold scales and bounds accept"
        )


def p0_upper_blocks(k: int, n: int, f: float) -> BoundReport:
    """Upper bound on P(no mono k-AP) from the block decomposition.

    Splits [1, n] into q = floor(f^(4/3)) blocks of length s = floor(n/q).
    Within one block, the Bonferroni bound on the union over the
    large-difference family gives each block independently a

        >= s^2 / (2^(k+2) k^3)

    chance of containing a monochromatic member, whence

        p0 < (1 - s^2/(2^(k+2) k^3))^q < exp(-s^2 q / (2^(k+2) k^3)).

    The chain needs the family size to sit in [s^2/4k^3, s^2/k^3] and to
    stay below 2^(k-1); both are reported as flags (computed exactly),
    never assumed.
    """
    _check_bound_k(k)
    plan = block_plan(n, block_count(f))
    size = large_diff_family_size(k, plan.s)
    s2 = plan.s * plan.s
    k3 = k**3
    value = exp(-s2 * plan.q / (2 ** (k + 2) * k3))
    flags = {
        "family_size_in_window": 4 * k3 * size >= s2 and k3 * size <= s2,
        "bonferroni_strong": size <= 1 << (k - 1),
    }
    return BoundReport(
        k=k,
        n=n,
        f=float(f),
        q=plan.q,
        s=plan.s,
        r=plan.r,
        value=min(1.0, max(0.0, value)),
        flags=flags,
    )


def _check_g(g: float) -> None:
    if not 0 < g <= 1:
        raise ValueError(f"scale parameter g must be in (0, 1], got {g}")


def p0_lower_first_moment(k: int, g: float) -> float:
    """First-moment lower bound (k-2-k*g^2)/(k-2) on P(no mono k-AP) at the
    lower threshold scale, clamped to [0, 1]."""
    _check_k(k)
    _check_g(g)
    return min(1.0, max(0.0, (k - 2 - k * g * g) / (k - 2)))


def _floor_sqrt(value: Fraction) -> int:
    """Exact floor(sqrt(value)) for a nonnegative rational."""
    return isqrt(value.numerator * value.denominator) // value.denominator


def threshold_scale_upper(k: int, f: float) -> int:
    """floor(2^(k/2) * k^(3/2) * f): the interval length at which a mono
    k-AP becomes almost certain as k grows (for f growing with k)."""
    _check_bound_k(k)
    _check_f(f)
    return _floor_sqrt(Fraction(f) ** 2 * (1 << k) * k**3)


def threshold_scale_lower(k: int, g: float) -> int:
    """floor(2^(k/2) * k^(1/2) * g): the interval length at which a mono
    k-AP becomes almost impossible as k grows (for g shrinking with k)."""
    _check_bound_k(k)
    _check_g(g)
    return _floor_sqrt(Fraction(g) ** 2 * (1 << k) * k)


def _clump_runs(k: int, n: int) -> int:
    """2^k E_c(k, n), where E_c is the expected number of maximal
    monochromatic runs (a, d), (a+d, d), ... of k-APs in [1, n]: each k-AP
    (a, d) starts a run with probability 2^(1-k) when a - d < 1, and
    2^(-k) otherwise, so E_c = sum_d [min(d, s_d) 2^(1-k) +
    max(0, s_d - d) 2^(-k)] over the differences d with s_d = n - (k-1)d
    >= 1 starts.  That is 2^(-k) sum_d (s_d + min(d, s_d)), and
    min(d, s_d) = d exactly for d <= floor(n/k), so the sum has a closed
    form."""
    top = max(0, (n - 1) // (k - 1))  # the largest difference
    mid = min(top, n // k)  # the largest d with d <= s_d
    # sum of s_d over all d, then over the d past mid
    starts = len(_DiffRange(k, n, 1, top)) + len(_DiffRange(k, n, mid + 1, top))
    return starts + mid * (mid + 1) // 2


def clump_threshold(k: int, target: float) -> int:
    """The smallest n with 1 - exp(-E_c(k, n)) >= target (see ``_clump_runs``).

    The paper's first-moment heuristic P(no mono k-AP) ~ exp(-E[X]) counts
    every monochromatic k-AP, but one is followed by a monochromatic
    (a+d, d) with probability 1/2, so they come in clumps; counting the
    starts of maximal runs instead is the Poisson clumping heuristic
    (Aldous 1989).  It is a heuristic reference, not a bound.  E_c is an
    exact rational, nondecreasing in n, and n is found by a binary
    search; the one float is the level -ln(1 - target)."""
    _check_bound_k(k)
    if not 0 < target < 1:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    level = Fraction(-log1p(-target)) * (1 << k)
    lo, hi = k - 1, k  # E_c(k, k-1) = 0 < level
    while _clump_runs(k, hi) < level:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _clump_runs(k, mid) >= level:
            hi = mid
        else:
            lo = mid
    return hi
