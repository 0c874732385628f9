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

Estimates are staged on it: ``estimate_prob`` detects every sample on
[1, 64(k-1)] first and generates [1, n] only for the samples that missed
there, so past the threshold most rows are never generated whole.  The
second stage knows that its samples miss on the first stage's prefix, so
it scans only the k-APs that end past it.  Every detection hands the
kernel rows of words, and it drops the samples that have hit as it goes
(see ``apth.coloring``).

The same prefix property lets ``threshold_search`` carry what it learns
from point to point: a sample with a monochromatic k-AP in [1, n] has one
in every longer prefix, and a sample without one has none in any shorter
prefix, so its status at every n is fixed by its first hit, the smallest
n whose prefix holds one.  Search points detect first hits, not just
hits: a sample that hits keeps its exact first hit and is never detected
again, and a sample that misses keeps the largest n at which it is known
to miss.  A search point detects only the samples that have not hit and
are not known to miss at its n.  None of those hits at or before the
smallest of their known misses, so detection resumes there, scanning only
the k-APs that end past it.  A budget doubling detects its new samples
once, on [1, hi] of the bracket.  Points carry words as well: each
sample keeps the words of its stream generated so far, up to a bounded
store (``_STORE_WORDS``), and a point generates only the words past the
shortest stored prefix among its samples (one that stores more has the
extra generated again), so a point below one already run at its budget
generates none and detects none.

``scaling_report`` carries the same record from each k to k+1, as every
k reads the same streams.  A monochromatic (k+1)-AP holds a monochromatic
k-AP, its first k terms, so a sample known to miss at k on [1, n] misses
at k+1 there too: each k starts from the words and known misses of the k
below, and forgets only the hits.  ``scaling_report(8, 16, 0.5, 500, 1)``
makes 29 Philox calls of 96,804 words, against 49 of 321,128 with every k
starting afresh.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import _philox, coloring
from .coloring import (
    WORD_BITS,
    _check_matrix,
    _first_hits,
    _has_mono,
    _kernel_groups,
    _word_count,
    batch_has_mono_ap,
)
from .errors import SearchCeilingError
from .progressions import _check_k, _check_n
from .probability import threshold_scale_lower

#: Word budget of a threshold search's word store (8 MB).  Each of the m
#: samples of the search keeps at most ``_STORE_WORDS // m`` words of its
#: stream; words past that column are generated at every point that
#: needs them.
_STORE_WORDS = 1 << 20


#: Coloring bits (samples times n) each thread must get before a batch is
#: split over threads.  Smaller shares make each numpy operation of the
#: per-d loop too short to pay for handing the interpreter lock between
#: threads: on 2 vCPUs, a batch of 2,000 colorings of [1, 1100] took
#: 16 ms on one thread and 30 ms on two.
_MIN_SHARE_BITS = 1 << 22

#: Most worker threads a Monte Carlo run may use.  Each engaged thread is
#: an operating-system thread with its own stack (8 MB of address space
#: by default on Linux, so 2 GB at this count), and detection is a loop of
#: numpy calls that hand the interpreter lock between threads, so counts
#: past the cores of a large host only cost.
_MAX_WORKERS = 256


def _range_rows(n: int) -> int:
    """Rows of colorings of [1, n] per range: whole 64-sample groups, as
    many as keep the words generated for them within the kernel budget
    (``coloring._KERNEL_WORDS``), and at least one group.  Their matrix,
    n words a group, then fits it too.  Ranges never influence results:
    sample i is keyed by its absolute index."""
    return WORD_BITS * _kernel_groups(WORD_BITS * _word_count(n))


@contextmanager
def _runner(workers: int):
    """Yield ``run(fn, samples, n, width=None)``, which returns the sum of
    ``fn(lo, hi)`` over ranges that tile [0, samples) of a batch of
    colorings of [1, n] whose first detection reads [1, width] (all of
    [1, n] by default).  The batch is cut into one contiguous share for
    each engaged thread: at most ``workers``, and only as many as get
    ``_MIN_SHARE_BITS`` of [1, n] each.  Each thread walks its share in
    ranges of at most ``_range_rows(width)`` rows, made as it goes, so
    memory does not grow with ``samples``.  One pool of ``workers``
    threads, built only for more than one, serves every call; a single
    share runs in the calling thread.  Leaving the runner, as an exception
    from ``run`` (Ctrl-C included) does, stops every thread's walk after
    the range in flight: the pool's shutdown would otherwise wait for
    whole shares."""
    threads = ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    stop = threading.Event()
    with threads as pool:

        def run(fn, samples: int, n: int, width: int | None = None) -> int:
            engaged = min(workers, max(1, samples * n // _MIN_SHARE_BITS))
            share = -(-samples // engaged)
            size = min(share, _range_rows(n if width is None else width))

            def walk(lo: int) -> int:
                hi = min(lo + share, samples)
                total = 0
                for at in range(lo, hi, size):
                    if stop.is_set():
                        break
                    total += fn(at, min(at + size, hi))
                return total

            if engaged == 1:
                return walk(0)
            return sum(pool.map(walk, range(0, samples, share)))

        try:
            yield run
        finally:
            stop.set()


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
    """Monte Carlo estimate of P(mono k-AP) with its 95% interval.

    The field order is the order of the CLI's ``simulate`` record and of
    each ``sweep`` trace entry."""

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
    The field order is the order of the CLI's ``sweep`` record.
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
    """One k of a scaling report; the field order is the order of the
    CLI's ``report`` columns."""

    k: int
    n_star: int
    log2_n_star: float
    #: n_star / (2^(k/2) k^(1/2))
    ratio_sqrt: float
    #: n_star / (2^(k/2) k^(3/2))
    ratio_3half: float


@dataclass(frozen=True)
class ScalingReport:
    """Threshold locations across k with the fitted log2(n_star) slope.

    The field order less ``rows`` is the order of the CLI's ``report``
    metadata."""

    rows: tuple[ScalingRow, ...]
    slope: float
    #: Whether n_star increased strictly with k (reported, never assumed).
    n_star_increasing: bool
    target: float
    samples: int
    seed: int


def _count_hits(k: int, n: int, head: int, seed: int, lo: int, hi: int) -> int:
    """Successes among samples lo..hi-1, detected in two stages: all of
    them on [1, head], then those that missed there on [1, n], scanning
    only the k-APs that end past head.  The m misses are cut into
    ceil(m / ``_range_rows(n)``) slices of whole 64-sample groups whose
    group counts differ by at most one, the last holding what is left of
    its group, so no slice is left short.  Slices of equal rows would pad
    a group in every slice."""
    # no name holds a batch's words, so each is freed before the next is
    # generated
    ids = np.arange(lo, hi, dtype=np.uint64)
    misses = ids[~batch_has_mono_ap(_philox.words(seed, ids, _word_count(head)), head, k)]
    successes = ids.size - misses.size
    if head < n and misses.size:
        groups = -(-misses.size // WORD_BITS)
        slices = -(-misses.size // _range_rows(n))
        cuts = [WORD_BITS * (groups * j // slices) for j in range(1, slices)]
        for ids in np.split(misses, cuts):
            hits = _has_mono(_philox.words(seed, ids, _word_count(n)), n, k, done=head)
            successes += int(np.count_nonzero(hits))
    return successes


def _check_target(target: float) -> None:
    if not 0.05 <= target <= 0.95:
        raise ValueError(
            f"target must lie in [0.05, 0.95], got {target} "
            "(estimation near 0 or 1 is sample-inefficient)"
        )


def _check_ceiling(ceiling: int | None) -> None:
    if ceiling is not None and ceiling < 1:
        raise ValueError(f"ceiling must be >= 1, got {ceiling}")


#: Most samples a threshold search takes (2^21): budget doublings take it
#: to 8 x samples, each a row of its record (``_Samples``, 17 bytes a row
#: besides the word store), and 8 x 2^21 is the detection matrix budget,
#: ``coloring._MATRIX_WORDS``.
_SEARCH_SAMPLES = coloring._MATRIX_WORDS // 8


def _check_search(samples: int) -> None:
    """Refuse a search of more samples than ``_SEARCH_SAMPLES``."""
    if samples > _SEARCH_SAMPLES:
        raise ValueError(
            f"samples={samples} exceeds a threshold search's cap {_SEARCH_SAMPLES}: "
            f"budget doublings reach 8 x samples, within the "
            f"{8 * _SEARCH_SAMPLES}-word detection budget"
        )


def _check_run(samples: int, seed: int, workers: int) -> None:
    """Check the sample count, seed and worker count of a Monte Carlo run;
    ``workers`` lies in [1, ``_MAX_WORKERS``]."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _philox.check_u64(seed, "seed")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > _MAX_WORKERS:
        raise ValueError(f"workers={workers} exceeds the thread cap {_MAX_WORKERS}")


def estimate_prob(
    k: int, n: int, samples: int, seed: int, workers: int = 1
) -> ProbEstimate:
    """Estimate P(a uniform coloring of [1, n] has a mono k-AP).

    Sample i is the coloring drawn from stream (seed, i); successes are
    counted in the two stages the module docstring describes, and summed
    over ranges that each thread makes as it walks its share of the
    samples.  The ranges are sized for the first stage, on [1, head];
    each range's misses reach the second in near-equal slices sized for
    [1, n], and no range keeps more than its own, so memory does not grow
    with ``samples``.  The result is a pure function of (k, n, samples,
    seed) regardless of ``workers``.
    """
    _check_k(k)
    _check_n(n)
    _check_run(samples, seed, workers)
    _check_matrix(n, WORD_BITS)  # refuse a row wider than one group's matrix
    head = min(n, WORD_BITS * (k - 1))
    with _runner(workers) as run:
        successes = run(
            lambda lo, hi: _count_hits(k, n, head, seed, lo, hi), samples, n, head
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

    One bracket routine keeps one invariant, p_hat(lo) < target <=
    p_hat(hi): it steps lo down while p_hat(lo) reaches the target, steps
    hi up while p_hat(hi) falls short (refusing to pass ``ceiling``), then
    bisects to the stopping width max(1, ceil(0.01 n)).  The scaling
    analysis consumes log2(n_star), so sub-percent precision would be
    wasted sampling.  At the first budget both ends start at
    min(max(k, lower_scale/4), ceiling), and the steps halve lo and
    double hi.  If the Wilson intervals at both final endpoints still
    contain the target, the per-point budget is doubled (up to 8x) and
    the routine restores the bracket in steps of that width before
    bisecting again.  Coupling of estimates across n (see the module
    docstring) keeps the invariant exact at each budget.

    Each sample keeps its exact first hit once a point has seen it hit,
    and otherwise the largest n at which it is known to miss.  A point
    (n, m) detects, on [1, n], only those of its m samples that have not
    hit and are not known to miss at n, from the smallest of their known
    misses on, and generates only the words past those that earlier
    points kept (see the module docstring).  A budget doubling detects
    its new samples once, at the bracket's hi.  The trace holds exactly the
    ``estimate_prob`` results the points would give.  ``ceiling``, at
    least 1, defaults to ``coloring._MATRIX_WORDS``, the widest coloring
    whose one-group matrix the detection budget admits, so a runaway
    search stops with SearchCeilingError before its estimates refuse n.
    ``samples`` above ``_SEARCH_SAMPLES`` (2^21) are refused before
    anything is allocated, as ``scaling_report`` refuses them.

    Every point runs on one pool of ``workers`` threads; results never
    depend on ``workers``.
    """
    _check_k(k)
    _check_target(target)
    _check_run(samples, seed, workers)
    _check_search(samples)
    _check_ceiling(ceiling)
    with _runner(workers) as run:
        return _search(k, target, samples, run, ceiling, _Samples(seed))


def _block_end(words: int) -> int:
    """``words`` rounded up to the end of a Philox block."""
    return -(-words // _philox._WORDS_PER_BLOCK) * _philox._WORDS_PER_BLOCK


class _Samples:
    """What a search knows of sample i, the coloring of stream (seed, i),
    for every i below the rows it has grown to: sample i misses on [1, n]
    for n <= miss_to[i] and, if hit[i], hits for every larger n, so its
    first hit is miss_to[i] + 1; store[i, :have[i]] are the first words of
    its stream.  The store holds at most ``_STORE_WORDS`` words, shared
    among all the rows."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hit = np.empty(0, dtype=bool)
        self.miss_to = np.empty(0, dtype=np.int64)
        self.have = np.empty(0, dtype=np.int64)
        self.store = np.empty((0, 0), dtype=np.uint64)

    def grow(self, m: int, n: int) -> None:
        """Give the per-sample arrays at least m rows, and the store at least
        the words of [1, n] a row, to the end of their last Philox block;
        it narrows only to stay within its budget."""
        rows = max(m, self.miss_to.size)
        cols = max(self.store.shape[1], _block_end(_word_count(n)))
        cols = min(cols, _STORE_WORDS // rows)
        if (rows, cols) == self.store.shape:
            return
        new = rows - self.miss_to.size
        self.hit = np.concatenate([self.hit, np.zeros(new, bool)])
        self.miss_to = np.concatenate([self.miss_to, np.full(new, -1, np.int64)])
        self.have = np.minimum(np.concatenate([self.have, np.zeros(new, np.int64)]), cols)
        kept = min(cols, self.store.shape[1])
        grown = np.empty((rows, cols), dtype=np.uint64)
        grown[: self.store.shape[0], :kept] = self.store[:, :kept]
        self.store = grown

    def colorings(self, n: int, rows: np.ndarray) -> np.ndarray:
        """The words of the samples ``rows`` on [1, n], bits above n as drawn:
        their stored words up to the smallest stored length, then one
        Philox call for the rest, run on to the end of its last block when
        the store has room for it, whose stored columns are kept.  Philox
        computes whole 4-word blocks, so a later point reads the block's
        other words from the store instead of computing the block again.
        The words a sample stores past the smallest are generated again:
        in a report, one that hit early at k stored only what k needed
        (``scaling_report(8, 16, 0.5, 500, 1)``: 13,720 of 96,804 words)."""
        nw = _word_count(n)
        h = min(nw, int(self.have[rows].min()))
        words = np.empty((rows.size, nw), dtype=np.uint64)
        words[:, :h] = self.store[rows, :h]
        if h < nw:
            kept = min(_block_end(nw), self.store.shape[1])
            fresh = _philox.words(
                self.seed, rows.astype(np.uint64), max(nw, kept) - h, first_word=h
            )
            words[:, h:] = fresh[:, : nw - h]
            if kept > h:
                self.store[rows, h:kept] = fresh[:, : kept - h]
                self.have[rows] = kept
        return words


def _search(
    k: int,
    target: float,
    samples: int,
    run,
    ceiling: int | None,
    known: _Samples,
) -> ThresholdResult:
    """``threshold_search`` of checked arguments, detecting through the
    ``run`` of a ``_runner`` and reading and updating what ``known``
    holds of each sample (see ``scaling_report`` for what it may hold on
    entry)."""
    if ceiling is None:
        ceiling = coloring._MATRIX_WORDS
    seed = known.seed
    cache: dict[tuple[int, int], ProbEstimate] = {}
    known.hit[:] = False

    def detect(n: int, rows: np.ndarray) -> int:
        """Record the first hits on [1, n] of the undecided samples ``rows``,
        and return how many hit; none hits on [1, min(miss_to)], so only
        later ends are scanned.  Threads detect disjoint rows."""
        done = max(0, int(known.miss_to[rows].min()))
        first = _first_hits(known.colorings(n, rows), n, k, done)
        known.hit[rows] = first <= n
        known.miss_to[rows] = first - 1
        return int(np.count_nonzero(first <= n))

    def successes(n: int, m: int) -> int:
        """How many of the first m samples hit on [1, n], detecting the undecided."""
        _check_matrix(n, WORD_BITS)  # refuse what estimate_prob refuses
        known.grow(m, n)
        ids = np.flatnonzero(~known.hit[:m] & (known.miss_to[:m] < n))
        hits = int(np.count_nonzero(known.hit[:m] & (known.miss_to[:m] < n)))
        if ids.size:
            hits += run(lambda lo, hi: detect(n, ids[lo:hi]), ids.size, n)
        return hits

    def estimate(n: int, m: int) -> ProbEstimate:
        """The point (n, m), recorded once; the record is the trace."""
        if (n, m) not in cache:
            cache[n, m] = ProbEstimate.from_counts(k, n, m, successes(n, m), seed)
        return cache[n, m]

    def p_hat(n: int, m: int) -> float:
        return estimate(n, m).p_hat

    def undecided(n: int, m: int) -> bool:
        e = estimate(n, m)
        return e.ci_low <= target <= e.ci_high

    def step(n: int) -> int:
        return max(1, -(-n // 100))

    def bracket(lo: int, hi: int, m: int, down, up) -> tuple[int, int]:
        """Step lo by ``down`` and hi by ``up`` until p_hat(lo) < target
        <= p_hat(hi), then bisect to within step(hi)."""
        while p_hat(lo, m) >= target:  # reaches 0 at n = k-1 at the latest
            lo, hi = max(k - 1, down(lo)), lo
        while p_hat(hi, m) < target:
            if hi >= ceiling:
                raise SearchCeilingError(k, target, ceiling)
            lo, hi = hi, min(up(hi), ceiling)
        while hi - lo > step(hi):
            mid = (lo + hi) // 2
            if p_hat(mid, m) >= target:
                hi = mid
            else:
                lo = mid
        return lo, hi

    m = samples
    n0 = min(max(k, threshold_scale_lower(k, 1.0) // 4), ceiling)
    lo, hi = bracket(n0, n0, m, lambda n: n // 2, lambda n: 2 * n)
    while m < 8 * samples and undecided(lo, m) and undecided(hi, m):
        m *= 2
        successes(hi, m)  # the new samples' first hits on [1, hi], in one detection
        # estimates move at the new budget: restore the bracket in steps
        lo, hi = bracket(lo, hi, m, lambda n: n - step(n), lambda n: n + step(n))

    return ThresholdResult(
        k=k,
        target=target,
        n_star=hi,
        bracket_low=lo,
        bracket_high=hi,
        samples_per_point=samples,
        seed=seed,
        trace=tuple((n, e) for (n, _), e in cache.items()),
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

    The searches walk k upwards, and each starts from the words and known
    misses of the one below (see the module docstring); every n_star is
    the one ``threshold_search`` finds for its k alone.
    """
    _check_k(k_low, "k_low")
    if k_high < k_low:
        raise ValueError(f"need k_low <= k_high, got [{k_low}, {k_high}]")
    if k_high > k_budget:
        raise ValueError(
            f"k_high={k_high} exceeds the runtime budget k_budget={k_budget}; "
            "raise k_budget explicitly to sweep further"
        )
    _check_target(target)
    _check_run(samples, seed, workers)
    _check_search(samples)
    _check_ceiling(ceiling)
    rows = []
    # One record of the samples serves every k.  Its known misses carry
    # over only because k walks upwards: a miss at k+1 says nothing at k.
    # A hit at k says nothing at k+1, so each search forgets the hits.
    known = _Samples(seed)
    with _runner(workers) as run:
        n_stars = [
            _search(k, target, samples, run, ceiling, known).n_star
            for k in range(k_low, k_high + 1)
        ]
    for k, n_star in zip(range(k_low, k_high + 1), n_stars):
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
