"""Exact small-scale probability oracles and closed-form bound evaluators.

The exact oracles count over all 2^n colorings of [1, n], halved by
fixing element 1 red, since complementation preserves monochromaticity.
``apth.coloring`` enumerates them once per call: every coloring of a base
[1, m] in one kernel matrix, then each coloring of the elements past m,
which reads only the k-APs (or family members) that end past m.  They are
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
from typing import NamedTuple

from .coloring import _member_mono_colorings, _mono_colorings, _mono_count_histogram
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


def _check_cap(n: int, cap: int | None) -> None:
    cap = DEFAULT_BRUTE_CAP if cap is None else cap
    if n > cap:
        raise BruteForceCapError(n, cap)
    if n > _HARD_ENUM_LIMIT:
        raise ValueError(
            f"exact enumeration indexes colorings by 64-bit words; "
            f"n={n} exceeds the architectural limit {_HARD_ENUM_LIMIT}"
        )


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
    return Fraction(2 * _mono_colorings(n, k), 1 << n)


def mono_count_distribution(
    k: int, n: int, cap: int | None = None
) -> ExactDistribution:
    """Exact counts of colorings by their number of monochromatic k-APs."""
    _check_k(k)
    _check_n(n)
    _check_cap(n, cap)
    if n < k:
        return ExactDistribution(k, n, {0: 1 << n}, 1 << n)
    counts = {r: 2 * int(c) for r, c in enumerate(_mono_count_histogram(n, k)) if c}
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
    return 2 * _member_mono_colorings(s, _member_elements(family))


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
