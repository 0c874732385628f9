"""Reproducible parallel Monte Carlo estimation of the mono-k-AP probability,
threshold location in n, and scaling reports.

Reproducibility contract: sample i always draws its coloring from the word
stream keyed by (seed, i).  Workers claim fixed ranges of the sample index
range and the only aggregation is a sum of successes, so estimates are
bit-identical for every worker count.  A second consequence: estimates at
different n under one seed are coupled through shared streams, and since a
coloring of [1, n] is a prefix of the coloring of [1, n'] for n' > n, the
estimated probability is *exactly* nondecreasing in n at fixed sample count.
That, plus monotonicity of the true probability (verified exactly at small
scale in :mod:`apth.probability`), is what makes bisection on n sound.

The coupling also makes the estimate an exact empirical CDF: with N_i the
first-hit time of sample i (the smallest last element of a monochromatic
k-AP in its coloring), p_hat(n) over m samples is #{i < m : N_i <= n} / m.
``threshold_search`` therefore computes N_i once per sample, up to a
horizon a little past the point that asked for it, and answers every
search point from those times; it recomputes a sample only when a later
point lies beyond the horizon of a sample still without a hit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _philox
from .coloring import (
    NO_HIT,
    _pad_mask,
    _word_count,
    batch_first_hit,
    batch_has_mono_ap,
)
from .errors import SearchCeilingError
from .progressions import _check_k, _check_n
from .probability import threshold_scale_lower

#: Word budget per generation buffer (~2 MB), sized to keep each task's
#: working set cache-resident at large n.  Ranges never influence results:
#: sample i is keyed by its absolute index.
_CHUNK_WORDS = 1 << 18

#: Hard ceiling for threshold bracketing: the widest coloring one
#: generation buffer holds, so a runaway search stops with
#: SearchCeilingError before the estimates refuse the row width.
DEFAULT_SEARCH_CEILING = 64 * _CHUNK_WORDS


def _max_n() -> int:
    """Widest coloring a generation buffer holds (``_CHUNK_WORDS`` is read
    at call time, so tests can shrink it)."""
    return 64 * _CHUNK_WORDS


def _chunk_size(nwords: int) -> int:
    """Rows per generation buffer: as many as fit in ``_CHUNK_WORDS``, down
    to one, and at most 16384.  A row larger than the whole budget is
    refused, so the buffer stays bounded whatever n is."""
    rows = min(16384, _CHUNK_WORDS // nwords)
    if rows < 1:
        raise ValueError(
            f"a coloring of {nwords} words exceeds the {_CHUNK_WORDS}-word "
            f"generation buffer; n must be at most {_max_n()}"
        )
    return rows


def _ranges(samples: int, chunk: int, workers: int) -> list[tuple[int, int]]:
    """Split [0, samples) into ranges of at most ``chunk`` rows and at most
    a worker's share, ceil(samples / workers), so a batch that fits one
    chunk still spreads over the threads.  With one worker the ranges are
    whole chunks."""
    size = min(chunk, -(-samples // workers))
    return [(lo, min(lo + size, samples)) for lo in range(0, samples, size)]


def _map(fn, ranges: list[tuple[int, int]], workers: int) -> list:
    """``fn(lo, hi)`` for every range, in order, on up to ``workers``
    threads."""
    if workers == 1 or len(ranges) == 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


#: Normal quantile for 95% two-sided coverage.
_Z95 = 1.959963984540054

_ALPHA = 0.05


def wilson_interval(successes: int, samples: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    At the boundaries (0 or all successes) the score interval degenerates,
    so the exact Clopper-Pearson endpoint is used there instead; both
    behave correctly near probabilities 0 and 1, which threshold searches
    visit routinely.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0 <= successes <= samples:
        raise ValueError(f"successes {successes} outside [0, {samples}]")
    if successes == 0:
        return 0.0, 1.0 - (_ALPHA / 2) ** (1.0 / samples)
    if successes == samples:
        return (_ALPHA / 2) ** (1.0 / samples), 1.0
    p = successes / samples
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / samples
    center = (p + z2 / (2 * samples)) / denom
    margin = (_Z95 / denom) * math.sqrt(
        p * (1 - p) / samples + z2 / (4.0 * samples * samples)
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def standard_error(p: float, samples: int) -> float:
    """Binomial standard error sqrt(p(1-p)/samples)."""
    return math.sqrt(p * (1 - p) / samples)


@dataclass(frozen=True)
class ProbEstimate:
    """Monte Carlo estimate of P(mono k-AP) with its 95% interval."""

    k: int
    n: int
    samples: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int

    @classmethod
    def from_counts(
        cls, k: int, n: int, samples: int, successes: int, seed: int
    ) -> "ProbEstimate":
        lo, hi = wilson_interval(successes, samples)
        return cls(
            k=k,
            n=n,
            samples=samples,
            successes=successes,
            p_hat=successes / samples,
            ci_low=lo,
            ci_high=hi,
            seed=seed,
        )

    def standard_error(self) -> float:
        return standard_error(self.p_hat, self.samples)


@dataclass(frozen=True)
class ThresholdResult:
    """Located crossing point of the estimated probability curve.

    ``n_star`` is the smallest sampled n whose estimate reached the target;
    the estimate at ``bracket_low`` (the final step below n_star) stayed
    under it.  ``trace`` lists every (n, estimate) evaluated, in order.
    """

    k: int
    target: float
    n_star: int
    bracket_low: int
    bracket_high: int
    samples_per_point: int
    seed: int
    trace: tuple[tuple[int, ProbEstimate], ...]


@dataclass(frozen=True)
class ScalingRow:
    k: int
    n_star: int
    log2_n_star: float
    #: n_star / (2^(k/2) k^(1/2))
    ratio_sqrt: float
    #: n_star / (2^(k/2) k^(3/2))
    ratio_3half: float


@dataclass(frozen=True)
class ScalingReport:
    """Threshold locations across k with the fitted log2(n_star) slope."""

    rows: tuple[ScalingRow, ...]
    slope: float
    #: Whether n_star increased strictly with k (reported, never assumed).
    n_star_increasing: bool
    target: float
    samples: int
    seed: int


def _colorings(seed: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Packed colorings of [1, n] drawn from streams (seed, i), i in ids."""
    words = _philox.words(seed, ids, _word_count(n))
    words[:, -1] &= _pad_mask(n)
    return words


def _count_chunk(k: int, n: int, seed: int, lo: int, hi: int) -> int:
    words = _colorings(seed, np.arange(lo, hi, dtype=np.uint64), n)
    return int(np.count_nonzero(batch_has_mono_ap(words, n, k)))


def _first_hits(
    k: int, n: int, seed: int, ids: np.ndarray, workers: int
) -> np.ndarray:
    """``batch_first_hit`` of the colorings of [1, n] of samples ``ids``,
    computed in generation-buffer ranges."""
    chunk = _chunk_size(_word_count(n))

    def first(lo: int, hi: int) -> np.ndarray:
        return batch_first_hit(_colorings(seed, ids[lo:hi], n), n, k)

    return np.concatenate(_map(first, _ranges(ids.size, chunk, workers), workers))


def estimate_prob(
    k: int, n: int, samples: int, seed: int, workers: int = 1
) -> ProbEstimate:
    """Estimate P(a uniform coloring of [1, n] has a mono k-AP).

    Sample i is the coloring drawn from stream (seed, i); successes are
    counted with the batch detection kernel.  The result is a pure
    function of (k, n, samples, seed) regardless of ``workers``.
    """
    _check_k(k)
    _check_n(n)
    _philox.check_u64(seed, "seed")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunk = _chunk_size(_word_count(n))
    successes = sum(
        _map(
            lambda lo, hi: _count_chunk(k, n, seed, lo, hi),
            _ranges(samples, chunk, workers),
            workers,
        )
    )
    return ProbEstimate.from_counts(k, n, samples, successes, seed)


def threshold_search(
    k: int,
    target: float,
    samples: int,
    seed: int,
    workers: int = 1,
    ceiling: int | None = None,
) -> ThresholdResult:
    """Locate the n at which the estimated mono probability crosses target.

    Brackets upward by doubling from max(k, lower_scale/4), then bisects;
    coupling of estimates across n (see the module docstring) keeps the
    bracket invariant exact.  The stopping width is max(1, ceil(0.01 n)):
    the scaling analysis consumes log2(n_star), so sub-percent precision
    would be wasted sampling.  If the Wilson intervals at both final
    endpoints still contain the target, the per-point budget is doubled
    (up to 8x) and the bracket re-verified before concluding.

    Every point is answered from per-sample first-hit times (see the module
    docstring), so the trace holds exactly the ``estimate_prob`` results
    the points would give.  A sample is computed up to a horizon of
    n + n//16 for the point n that needs it, so the bisection steps below
    n reuse it; it is recomputed only if it has no hit by its horizon and
    a later point lies beyond it.  ``ceiling`` defaults to
    ``DEFAULT_SEARCH_CEILING``, the widest coloring a generation buffer
    holds.
    """
    _check_k(k)
    if not 0.05 <= target <= 0.95:
        raise ValueError(
            f"target must lie in [0.05, 0.95], got {target} "
            "(estimation near 0 or 1 is sample-inefficient)"
        )
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _philox.check_u64(seed, "seed")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if ceiling is None:
        ceiling = _max_n()
    trace: list[tuple[int, ProbEstimate]] = []
    cache: dict[tuple[int, int], ProbEstimate] = {}
    # first[i] is N_i wherever N_i <= horizon[i]; NO_HIT means N_i > horizon[i]
    first = np.empty(0, dtype=np.int64)
    horizon = np.empty(0, dtype=np.int64)

    def estimate(n: int, m: int) -> ProbEstimate:
        nonlocal first, horizon
        key = (n, m)
        if key not in cache:
            _chunk_size(_word_count(n))  # refuse what estimate_prob refuses
            if m > first.size:
                grow = m - first.size
                first = np.concatenate([first, np.full(grow, NO_HIT, np.int64)])
                horizon = np.concatenate([horizon, np.full(grow, -1, np.int64)])
            ids = np.flatnonzero((first[:m] == NO_HIT) & (horizon[:m] < n))
            if ids.size:
                h = min(n + n // 16, max(n, _max_n()))
                first[ids] = _first_hits(k, h, seed, ids.astype(np.uint64), workers)
                horizon[ids] = h
            successes = int(np.count_nonzero(first[:m] <= n))
            e = ProbEstimate.from_counts(k, n, m, successes, seed)
            cache[key] = e
            trace.append((n, e))
        return cache[key]

    def p_hat(n: int, m: int) -> float:
        return estimate(n, m).p_hat

    def step(n: int) -> int:
        return max(1, -(-n // 100))

    def bisect(lo: int, hi: int, m: int) -> tuple[int, int]:
        while hi - lo > step(hi):
            mid = (lo + hi) // 2
            if p_hat(mid, m) >= target:
                hi = mid
            else:
                lo = mid
        return lo, hi

    m = samples
    n0 = max(k, threshold_scale_lower(k, 1.0) // 4)
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
        e_lo, e_hi = estimate(lo, m), estimate(hi, m)
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


def scaling_report(
    k_low: int,
    k_high: int,
    target: float,
    samples: int,
    seed: int,
    workers: int = 1,
    ceiling: int | None = None,
    k_budget: int = 20,
) -> ScalingReport:
    """Threshold locations for every k in [k_low, k_high] plus the
    least-squares slope of log2(n_star) against k.

    The ratio columns divide n_star by 2^(k/2) k^(1/2) and 2^(k/2) k^(3/2);
    a slope near 1/2 and a slowly varying ratio_sqrt column are the
    signatures of the 2^(k/2)-type threshold growth.  ``k_budget`` caps
    k_high: per-point cost grows like 2^k, so ranges past ~20 need an
    explicit opt-in.
    """
    _check_k(k_low)
    if k_high < k_low:
        raise ValueError(f"need k_low <= k_high, got [{k_low}, {k_high}]")
    if k_high > k_budget:
        raise ValueError(
            f"k_high={k_high} exceeds the runtime budget k_budget={k_budget}; "
            "raise k_budget explicitly to sweep further"
        )
    rows = []
    for k in range(k_low, k_high + 1):
        res = threshold_search(
            k, target, samples, seed, workers=workers, ceiling=ceiling
        )
        n_star = res.n_star
        scale = 2.0 ** (k / 2.0)
        rows.append(
            ScalingRow(
                k=k,
                n_star=n_star,
                log2_n_star=math.log2(n_star),
                ratio_sqrt=n_star / (scale * math.sqrt(k)),
                ratio_3half=n_star / (scale * k * math.sqrt(k)),
            )
        )
    ks = np.array([row.k for row in rows], dtype=float)
    ys = np.array([row.log2_n_star for row in rows])
    dk = ks - ks.mean()
    denom = float(dk @ dk)
    slope = float(dk @ (ys - ys.mean()) / denom) if denom > 0 else math.nan
    increasing = all(
        a.n_star < b.n_star for a, b in zip(rows, rows[1:])
    )
    return ScalingReport(
        rows=tuple(rows),
        slope=slope,
        n_star_increasing=increasing,
        target=target,
        samples=samples,
        seed=seed,
    )
