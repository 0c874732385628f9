"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive pure Python (nested loops over
element tuples, no bit tricks, no shared code with the library kernels) so
that agreement with the library is a genuine two-route check.  The one
exception, ``mono_free_frontiers``, drives the detection kernel itself
and is checked against exact enumeration and known van der Waerden
numbers.
"""

from collections import Counter
from fractions import Fraction


def ap_tuples(k: int, n: int, d_lo: int = 1, d_hi: int | None = None):
    """All k-APs in [1, n] as element tuples, ordered by (diff, start)."""
    out = []
    d = d_lo
    while 1 + (k - 1) * d <= n and (d_hi is None or d <= d_hi):
        for a in range(1, n - (k - 1) * d + 1):
            out.append(tuple(a + j * d for j in range(k)))
        d += 1
    return out


def is_mono(bits: int, ap: tuple[int, ...]) -> bool:
    vals = [(bits >> (e - 1)) & 1 for e in ap]
    return all(vals) or not any(vals)


def naive_has_mono(bits: int, k: int, n: int) -> bool:
    return any(is_mono(bits, ap) for ap in ap_tuples(k, n))


def naive_first_hit(bits: int, k: int, n: int) -> int:
    """The smallest e <= n with a monochromatic k-AP in [1, e], or n + 1."""
    return next((e for e in range(1, n + 1) if naive_has_mono(bits, k, e)), n + 1)


def mono_free_frontiers(k: int):
    """Yield (n, F_n) for n = 1, 2, ... up to the first empty F_n, where
    F_n holds the colorings of [1, n] with element 1 red and no
    monochromatic k-AP, one uint64 word each.  An F_n of more than 4096
    rows (k = 4 peaks at 974) fails an assertion, so a kernel that misses
    hits fails fast instead of doubling F_n at every n, and n stays far
    below 64.

    Unlike the oracles above, this one drives the library's kernel: F_n is
    F_{n-1} with element n added in both colors, less the rows in which
    ``_first_hits`` resumed at done = n - 1 finds a monochromatic k-AP.
    Every row is free on [1, n - 1], which is exactly what the resumed
    scan assumes, so a row reads n + 1 iff it stays free on [1, n]."""
    import numpy as np

    from apth.coloring import _first_hits

    frontier = np.ones((1, 1), dtype=np.uint64)
    n = 1
    while frontier.size:
        yield n, frontier[:, 0]
        n += 1
        rows = np.concatenate([frontier, frontier | np.uint64(1 << (n - 1))])
        first = _first_hits(rows, n, k, done=n - 1)
        frontier = rows[first == n + 1]
        assert len(frontier) <= 1 << 12, (n, len(frontier))
    yield n, frontier[:, 0]


def naive_count_mono(bits: int, k: int, n: int) -> int:
    return sum(is_mono(bits, ap) for ap in ap_tuples(k, n))


def naive_prob_mono(k: int, n: int) -> Fraction:
    aps = ap_tuples(k, n)
    hits = sum(
        any(is_mono(bits, ap) for ap in aps) for bits in range(1 << n)
    )
    return Fraction(hits, 1 << n)


def naive_distribution(k: int, n: int) -> dict[int, int]:
    aps = ap_tuples(k, n)
    counts = Counter(
        sum(is_mono(bits, ap) for ap in aps) for bits in range(1 << n)
    )
    return dict(counts)


def naive_union_count(aps: list[tuple[int, ...]], s: int) -> int:
    return sum(
        any(is_mono(bits, ap) for ap in aps) for bits in range(1 << s)
    )


def naive_single_count(ap: tuple[int, ...], s: int) -> int:
    return sum(is_mono(bits, ap) for bits in range(1 << s))


def naive_pair_count(p: tuple[int, ...], q: tuple[int, ...], s: int) -> int:
    return sum(
        is_mono(bits, p) and is_mono(bits, q) for bits in range(1 << s)
    )


def naive_block_count(f) -> int:
    """floor(f^(4/3)) for f >= 1: the largest integer c with c^3 <= f^4,
    found by bisection on exact rationals."""
    f4 = Fraction(f) ** 4
    lo, hi = 0, int(f4) + 1  # c = f4 + 1 > f4^(1/3) already fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if Fraction(mid) ** 3 <= f4:
            lo = mid
        else:
            hi = mid
    return lo


def naive_greedy(k: int, n: int, seeded: bool = False,
                 order: str = "lex_by_diff_start") -> list[tuple[int, int]]:
    """Greedy almost-disjoint family as (start, diff) pairs: offer the
    large-difference members (n <= k d, (k-1) d < n) first when seeded,
    then every k-AP in scan order, keeping each one that meets every kept
    member in at most one element.  Sorted by (start, diff)."""
    aps = ap_tuples(k, n)
    if order == "lex_by_start_diff":
        aps = sorted(aps, key=lambda ap: (ap[0], ap[1] - ap[0]))
    seed = [
        ap for ap in ap_tuples(k, n)
        if seeded and k * (ap[1] - ap[0]) >= n > (k - 1) * (ap[1] - ap[0])
    ]
    kept = []
    for ap in seed + aps:
        if all(len(set(ap) & set(q)) <= 1 for q in kept):
            kept.append(ap)
    return sorted((ap[0], ap[1] - ap[0]) for ap in kept)


def estimate_driven_search(k, target, samples, seed, workers=1,
                           ceiling=1 << 32):
    """``threshold_search`` with every point run by ``estimate_prob`` from
    scratch, the reference the search's per-sample bookkeeping must
    reproduce."""
    from apth.montecarlo import estimate_prob

    return naive_walk(
        k, target, samples, seed, ceiling,
        lambda n, m: estimate_prob(k, n, m, seed, workers=workers),
    )


def naive_walk(k, target, samples, seed, ceiling, estimate):
    """``threshold_search``'s walk-down, doubling, bisection and budget
    escalation verbatim (argument checks aside), over ``estimate(n, m)``,
    the estimate from the first m samples on [1, n], called once a point
    in the order the points are first read; its results, in that order,
    are the trace.  Written with its own loops, apart from the library's
    walk."""
    from apth.errors import SearchCeilingError
    from apth.montecarlo import ThresholdResult
    from apth.probability import threshold_scale_lower

    trace = []
    cache = {}

    def p_hat(n, m):
        if (n, m) not in cache:
            cache[n, m] = estimate(n, m)
            trace.append((n, cache[n, m]))
        return cache[n, m].p_hat

    def step(n):
        return max(1, -(-n // 100))

    def bisect(lo, hi, m):
        while hi - lo > step(hi):
            mid = (lo + hi) // 2
            if p_hat(mid, m) >= target:
                hi = mid
            else:
                lo = mid
        return lo, hi

    m = samples
    n0 = min(max(k, threshold_scale_lower(k, 1.0) // 4), ceiling)
    if p_hat(n0, m) >= target:
        # already supercritical at the starting point: walk down
        hi = n0
        lo = n0
        while p_hat(lo, m) >= target:  # reaches 0 at n = k-1 at the latest
            hi = lo
            lo = max(k - 1, lo // 2)
    else:
        lo = n0
        while True:
            if lo >= ceiling:
                raise SearchCeilingError(k, target, ceiling)
            hi = min(2 * lo, ceiling)
            if p_hat(hi, m) >= target:
                break
            lo = hi

    lo, hi = bisect(lo, hi, m)

    while m < 8 * samples:
        e_lo, e_hi = cache[lo, m], cache[hi, m]
        undecided = (
            e_lo.ci_low <= target <= e_lo.ci_high
            and e_hi.ci_low <= target <= e_hi.ci_high
        )
        if not undecided:
            break
        m *= 2
        # estimates move at the new budget; restore the bracket, re-bisect
        while p_hat(lo, m) >= target:
            hi = lo
            lo = max(k - 1, lo - step(hi))
        while p_hat(hi, m) < target:
            lo = hi
            if hi >= ceiling:
                raise SearchCeilingError(k, target, ceiling)
            hi = min(hi + step(hi), ceiling)
        lo, hi = bisect(lo, hi, m)

    return ThresholdResult(
        k=k,
        target=target,
        n_star=hi,
        bracket_low=lo,
        bracket_high=hi,
        samples_per_point=samples,
        seed=seed,
        trace=tuple(trace),
    )


def table_greedy(k: int, n: int, seeded: bool = False,
                 order: str = "lex_by_diff_start") -> list[tuple[int, int]]:
    """Greedy almost-disjoint family as (start, diff) pairs sorted by
    (diff, start), one candidate at a time: a byte per element pair
    {x < y} at x*(n+1)+y marks the pairs kept members cover, and a
    candidate is kept iff it covers none of them.  Offers the
    large-difference members (n <= k d, (k-1) d < n) first when seeded.
    Linear in the candidates, so it reaches n in the thousands where
    ``naive_greedy`` cannot."""
    covered = bytearray((n + 1) ** 2)
    # the pair (a + i*d, a + j*d) sits at a*(n+2) + d*(i*(n+1) + j)
    offsets = [i * (n + 1) + j for i in range(k) for j in range(i + 1, k)]
    kept = []

    def offer(a, d):
        base = a * (n + 2)
        for c in offsets:
            if covered[base + d * c]:
                return
        for c in offsets:
            covered[base + d * c] = 1
        kept.append((a, d))

    d_cap = (n - 1) // (k - 1) if n >= k else 0
    if seeded:
        for d in range(1, d_cap + 1):
            if k * d >= n > (k - 1) * d:
                for a in range(1, n - (k - 1) * d + 1):
                    offer(a, d)
    if order == "lex_by_diff_start":
        scan = [(a, d) for d in range(1, d_cap + 1)
                for a in range(1, n - (k - 1) * d + 1)]
    else:
        scan = [(a, d) for a in range(1, n - k + 2)
                for d in range(1, (n - a) // (k - 1) + 1)]
    for a, d in scan:
        offer(a, d)
    return sorted(kept, key=lambda ad: (ad[1], ad[0]))
