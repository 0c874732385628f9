"""Output checks for the benchmark workloads.

Every check is computed apart from apth (its own AP enumeration, its own
Philox route through ``numpy.random.Philox``, its own detector and pair
keys) or tests a property the method must have.  None compares against a
saved copy of earlier output.  Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


# --- arithmetic progressions, counted here ------------------------------------


def ap_list(k: int, n: int) -> list[tuple[int, int]]:
    """Every k-AP in [1, n] as (start, diff)."""
    return [
        (a, d)
        for d in range(1, (n - 1) // (k - 1) + 1)
        for a in range(1, n - (k - 1) * d + 1)
    ]


def large_diff_count(k: int, n: int) -> int:
    """Members of the large-difference family: k-APs with n <= k d and
    (k-1) d < n, summed over d."""
    return sum(n - (k - 1) * d for d in range(-(-n // k), (n - 1) // (k - 1) + 1))


# --- Monte Carlo: an independent route to the success count ------------------


def philox_coloring(seed: int, i: int, n: int) -> int:
    """Coloring of [1, n] for sample i, from numpy's own Philox: bit e-1 of
    the little-endian word stream keyed by (seed, i) colors element e."""
    key = np.array([seed, i], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(-(-n // 64))
    return int.from_bytes(raw.astype("<u8").tobytes(), "little") & ((1 << n) - 1)


def has_mono_ap(bits: int, k: int, n: int) -> bool:
    """Direct detector: for each difference d, AND the k shifted copies of
    each color class (no doubling chain, unlike the library kernel)."""
    for color in (bits, bits ^ ((1 << n) - 1)):
        for d in range(1, (n - 1) // (k - 1) + 1):
            run = color
            for j in range(1, k):
                run &= color >> (j * d)
                if not run:
                    break
            if run:
                return True
    return False


def independent_successes(k: int, n: int, samples: int, seed: int) -> int:
    """Success count over samples 0..samples-1, by the route above."""
    return sum(
        has_mono_ap(philox_coloring(seed, i, n), k, n) for i in range(samples)
    )


def check_estimate(est, k: int, n: int, samples: int, seed: int) -> list[str]:
    """Fields of a ProbEstimate against the inputs it was asked for."""
    got = (est.k, est.n, est.samples, est.seed)
    if got != (k, n, samples, seed):
        return [f"estimate echoes {got}, asked for {(k, n, samples, seed)}"]
    if not 0 <= est.successes <= samples or est.p_hat != est.successes / samples:
        return [f"inconsistent estimate {est}"]
    if not est.ci_low <= est.p_hat <= est.ci_high:
        return [f"p_hat outside its interval: {est}"]
    return []


def check_prefix(prefix_successes: int, k: int, n: int, prefix: int, seed: int) -> list[str]:
    """apth's success count on the first ``prefix`` samples must equal the
    independent route's."""
    want = independent_successes(k, n, prefix, seed)
    if prefix_successes != want:
        return [
            f"k={k} n={n}: {prefix_successes} successes on the first "
            f"{prefix} samples, the independent route finds {want}"
        ]
    return []


# --- scaling report -----------------------------------------------------------


SLOPE_WINDOW = (0.40, 0.62)


def parse_report_csv(text: str) -> tuple[list[tuple[int, int, float]], dict]:
    """(k, n_star, log2_n_star) rows and the trailing JSON metadata."""
    lines = text.splitlines()
    rows = []
    for line in lines[1:-1]:
        k, n_star, log2_n = line.split(",")[:3]
        rows.append((int(k), int(n_star), float(log2_n)))
    return rows, json.loads(lines[-1])


def check_report(
    text: str, k_low: int, k_high: int, target: float, samples: int, seed: int
) -> list[str]:
    """Slope recomputed from the rows, strict growth of n*, the slope
    window of acceptance criterion 12, and an independent estimate at n*
    for the smallest k."""
    try:
        rows, meta = parse_report_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unparseable report: {exc!r}"]
    failures = []
    ks = [r[0] for r in rows]
    if ks != list(range(k_low, k_high + 1)):
        return [f"report covers k={ks}, asked for [{k_low}, {k_high}]"]
    n_stars = [r[1] for r in rows]
    for k, n_star, log2_n in rows:
        if log2_n != math.log2(n_star):
            failures.append(f"k={k}: log2_n_star {log2_n} != log2({n_star})")
    xs = [float(k) for k in ks]
    ys = [math.log2(n) for n in n_stars]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sum(
        (x - x_bar) ** 2 for x in xs
    )
    if not math.isclose(slope, meta["slope"], rel_tol=1e-9):
        failures.append(f"emitted slope {meta['slope']} != refit {slope}")
    if not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        failures.append(f"slope {slope} outside {SLOPE_WINDOW}")
    increasing = all(a < b for a, b in zip(n_stars, n_stars[1:]))
    if not increasing or meta["n_star_increasing"] is not True:
        failures.append(f"n_star not strictly increasing: {n_stars}")
    if (meta["samples"], meta["seed"], meta["target"]) != (samples, seed, target):
        failures.append(f"metadata {meta} does not echo the inputs")
    # p_hat(n*) >= target > p_hat(n* - 1%) at the search's budget, so an
    # estimate at n* over the same sample indices sits within a few
    # standard errors of the target.
    p = independent_successes(k_low, n_stars[0], samples, seed) / samples
    se = math.sqrt(target * (1 - target) / samples)
    if abs(p - target) > 4 * se:
        failures.append(
            f"k={k_low}: independent estimate {p} at n*={n_stars[0]} is more "
            f"than 4 standard errors from {target}"
        )
    return failures


# --- exact enumeration --------------------------------------------------------


def check_distribution(dist, p_mono, k: int, n: int) -> list[str]:
    """Histogram mass, first and second moments against AP counts made
    here, and P(mono) = 1 - P(no mono AP)."""
    counts = dist.counts
    total = 1 << n
    failures = []
    if (dist.k, dist.n, dist.total) != (k, n, total):
        failures.append(f"distribution header {(dist.k, dist.n, dist.total)}")
    if sum(counts.values()) != total:
        failures.append(f"histogram sums to {sum(counts.values())}, not 2^{n}")
    aps = [frozenset(range(a, a + k * d, d)) for a, d in ap_list(k, n)]
    mean = Fraction(sum(r * c for r, c in counts.items()), total)
    want_mean = Fraction(len(aps), 1 << (k - 1))
    if mean != want_mean:
        failures.append(f"mean {mean} != N 2^(1-k) = {want_mean}")
    # E[X^2] = sum over ordered AP pairs of P(both monochromatic)
    want_second = Fraction(0)
    for p in aps:
        for q in aps:
            t = len(p & q)
            want_second += Fraction(1, 1 << (2 * k - 2)) if t == 0 else Fraction(
                1 << t, 1 << (2 * k - 1)
            )
    second = Fraction(sum(r * r * c for r, c in counts.items()), total)
    if second != want_second:
        failures.append(f"second moment {second} != {want_second}")
    if p_mono != 1 - Fraction(counts.get(0, 0), total):
        failures.append(f"exact_prob_mono {p_mono} != 1 - p_none")
    return failures


def check_van_der_waerden(p_at_9, p_at_8) -> list[str]:
    """W(2;3) = 9: every 2-coloring of [1, 9] has a monochromatic 3-AP,
    some coloring of [1, 8] has none."""
    failures = []
    if p_at_9 != 1:
        failures.append(f"P(mono 3-AP in [1, 9]) = {p_at_9}, not 1")
    if not p_at_8 < 1:
        failures.append(f"P(mono 3-AP in [1, 8]) = {p_at_8}, not < 1")
    return failures


# --- almost-disjoint families -------------------------------------------------


def _pairs(a: int, d: int, k: int, n: int):
    es = range(a, a + k * d, d)
    return [x * (n + 1) + y for i, x in enumerate(es) for y in es[i + 1 :]]


def covered_pairs(family):
    """Pair keys x(n+1)+y covered by the members, plus the first two
    members found covering one pair (None when almost disjoint)."""
    owner: dict[int, tuple[int, int]] = {}
    for p in family:
        for key in _pairs(p.start, p.diff, family.k, family.n):
            if key in owner:
                return owner.keys(), (owner[key], (p.start, p.diff))
            owner[key] = (p.start, p.diff)
    return owner.keys(), None


def check_almost_disjoint(family) -> list[str]:
    _, clash = covered_pairs(family)
    return [f"members {clash} share two elements"] if clash else []


def check_greedy(family) -> list[str]:
    """Almost disjoint, maximal (every k-AP outside the family covers an
    already covered pair), and at least as large as the large-difference
    family it was seeded with."""
    k, n = family.k, family.n
    covered, clash = covered_pairs(family)
    if clash:
        return [f"greedy members {clash} share two elements"]
    failures = []
    inside = {(p.start, p.diff) for p in family}
    for a, d in ap_list(k, n):
        if (a, d) not in inside and covered.isdisjoint(_pairs(a, d, k, n)):
            failures.append(f"not maximal: ({a}, {d}) could still be added")
            break
    floor = large_diff_count(k, n)
    if len(family) < floor:
        failures.append(f"{len(family)} members, fewer than the seed family's {floor}")
    return failures


def check_witness(ok: bool, witness, family) -> list[str]:
    """``is_almost_disjoint`` on a family with one planted overlap must say
    False and name two members sharing at least two elements."""
    if ok or witness is None:
        return ["planted overlap not reported"]
    p, q = witness
    members = set(family)
    if p not in members or q not in members or p == q:
        return [f"witness {witness} is not a pair of distinct members"]
    shared = set(range(p.start, p.last + 1, p.diff)) & set(
        range(q.start, q.last + 1, q.diff)
    )
    if len(shared) < 2:
        return [f"witness {witness} shares only {sorted(shared)}"]
    return []
