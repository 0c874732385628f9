"""Tests of the benchmark's own checks: each accepts apth's real output and
rejects a planted wrong answer.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

workloads = run._import_workloads()

import apth  # noqa: E402
import apth.cli  # noqa: E402
import apth.probability  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from apth.progressions import Progression  # noqa: E402

SEED = 7


# --- Monte Carlo --------------------------------------------------------------


@pytest.mark.parametrize("k, n, m", [(3, 20, 64), (5, 130, 40)])
def test_prefix_matches_and_rejects_off_by_one(k, n, m):
    est = apth.estimate_prob(k, n, m, SEED)
    assert checks.check_prefix(est.successes, k, n, m, SEED) == []
    assert checks.check_prefix(est.successes + 1, k, n, m, SEED) != []


def test_estimate_echo():
    est = apth.estimate_prob(3, 20, 100, SEED)
    assert checks.check_estimate(est, 3, 20, 100, SEED) == []
    assert checks.check_estimate(est, 3, 21, 100, SEED) != []
    wrong = dataclasses.replace(est, successes=est.successes + 1)
    assert checks.check_estimate(wrong, 3, 20, 100, SEED) != []


# --- scaling report -----------------------------------------------------------

ARGS = (8, 16, 0.5, 500, SEED)


@pytest.fixture(scope="module")
def report_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert apth.cli.main(
            ["report", "--k-low", "8", "--k-high", "16", "--samples", "500",
             "--seed", str(SEED)]
        ) == 0
    return out.getvalue()


def _with_n_stars(text: str, n_stars: list[int], refit: bool) -> str:
    """The report with its n* column replaced, the slope refitted or not."""
    rows, meta = checks.parse_report_csv(text)
    lines = [text.splitlines()[0]]
    for (k, _, _), n in zip(rows, n_stars):
        lines.append(f"{k},{n},{math.log2(n)!r},0.0,0.0")
    if refit:
        ks = [r[0] for r in rows]
        kb = sum(ks) / len(ks)
        ys = [math.log2(n) for n in n_stars]
        yb = sum(ys) / len(ys)
        meta["slope"] = sum((k - kb) * (y - yb) for k, y in zip(ks, ys)) / sum(
            (k - kb) ** 2 for k in ks
        )
    return "\n".join(lines) + "\n" + json.dumps(meta) + "\n"


def test_report_accepts_real_output(report_text):
    assert checks.check_report(report_text, *ARGS) == []


def test_report_rejects_stale_slope(report_text):
    n_stars = [r[1] for r in checks.parse_report_csv(report_text)[0]]
    n_stars[2] += 5  # k=10: off the centre of the k range, so the slope moves
    assert checks.check_report(_with_n_stars(report_text, n_stars, False), *ARGS)


def test_report_rejects_non_increasing(report_text):
    n_stars = [r[1] for r in checks.parse_report_csv(report_text)[0]]
    n_stars[3], n_stars[4] = n_stars[4], n_stars[3]
    assert checks.check_report(_with_n_stars(report_text, n_stars, True), *ARGS)


def test_report_rejects_wrong_threshold(report_text):
    # a consistent report whose smallest-k threshold is 20% too low
    n_stars = [r[1] for r in checks.parse_report_csv(report_text)[0]]
    n_stars[0] = int(n_stars[0] * 0.8)
    failures = checks.check_report(_with_n_stars(report_text, n_stars, True), *ARGS)
    assert any("independent estimate" in f for f in failures)


# --- exact enumeration --------------------------------------------------------


def _moved(dist, moves: dict[int, int]):
    counts = dict(dist.counts)
    for r, delta in moves.items():
        counts[r] = counts.get(r, 0) + delta
    return dataclasses.replace(dist, counts={r: c for r, c in counts.items() if c})


@pytest.fixture(scope="module")
def exact_3_12():
    return apth.exact_prob_mono(3, 12), apth.mono_count_distribution(3, 12)


def test_distribution_accepts_real_output(exact_3_12):
    p, dist = exact_3_12
    assert checks.check_distribution(dist, p, 3, 12) == []


def test_distribution_rejects_one_moved_coloring(exact_3_12):
    p, dist = exact_3_12
    assert checks.check_distribution(_moved(dist, {2: -1, 3: 1}), p, 3, 12)


def test_distribution_rejects_second_moment_only(exact_3_12):
    # r -> r+1 and r' -> r'-1 keep mass and mean, not the second moment
    p, dist = exact_3_12
    failures = checks.check_distribution(
        _moved(dist, {2: -1, 3: 1, 6: -1, 5: 1}), p, 3, 12
    )
    assert failures and all("second moment" in f for f in failures)


def test_distribution_rejects_wrong_probability(exact_3_12):
    p, dist = exact_3_12
    assert checks.check_distribution(dist, p - Fraction(2, 1 << 12), 3, 12)


def test_van_der_waerden():
    assert checks.check_van_der_waerden(Fraction(1), Fraction(255, 256)) == []
    assert checks.check_van_der_waerden(Fraction(511, 512), Fraction(1, 2))
    assert checks.check_van_der_waerden(Fraction(1), Fraction(1))


# --- families -----------------------------------------------------------------


def test_greedy_accepts_real_output():
    fam = apth.greedy_max_family(3, 60, seed_with_large_diff=True)
    assert checks.check_greedy(fam) == []


def test_greedy_rejects_removed_member():
    fam = apth.greedy_max_family(3, 60, seed_with_large_diff=True)
    fewer = apth.APFamily(3, 60, list(fam)[:-1])
    assert any("not maximal" in f for f in checks.check_greedy(fewer))


def test_greedy_rejects_overlap():
    fam = apth.greedy_max_family(3, 60, seed_with_large_diff=True)
    extra = next(
        Progression(a, d, 3) for a, d in checks.ap_list(3, 60)
        if Progression(a, d, 3) not in set(fam)
    )
    assert checks.check_greedy(apth.APFamily(3, 60, list(fam) + [extra]))


def test_witness_of_planted_overlap():
    inputs = workloads.WORKLOADS["family"].setup(SEED)
    planted = inputs["planted"]
    assert checks.check_almost_disjoint(planted)
    ok, witness = apth.is_almost_disjoint(planted)
    assert checks.check_witness(ok, witness, planted) == []
    assert checks.check_witness(True, None, planted)
    p = planted.members[0]
    apart = next(
        q for q in planted.members[1:]
        if len(set(range(p.start, p.last + 1, p.diff))
               & set(range(q.start, q.last + 1, q.diff))) < 2
    )
    assert checks.check_witness(False, (p, apart), planted)


# --- whole runs ---------------------------------------------------------------


@pytest.fixture
def small_exact(monkeypatch):
    monkeypatch.setattr(workloads.Exact, "K", 3)
    monkeypatch.setattr(workloads.Exact, "N", 12)
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def test_run_reports_planted_wrong_answer(small_exact, monkeypatch):
    real = apth.probability.mono_count_distribution
    monkeypatch.setattr(
        apth.probability, "mono_count_distribution",
        lambda k, n, cap=None: _moved(real(k, n, cap), {2: -1, 3: 1}),
    )
    result = run.run_workload("exact", SEED, 0.1, trace=False)
    assert result["correct"] is False and result["failed"] == 0


def test_traced_run_counts(small_exact, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run_workload("exact", SEED, 0.1, trace=True)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == {name for name, _, _ in tracing.METRICS}
    assert values["probability.calls"] == 2
    assert values["probability.colorings"] == 2 * (1 << 11)
    assert values["philox.calls"] == 0
    spans = (tmp_path / f"trace-exact-seed{SEED}.jsonl").read_text().splitlines()
    assert len(spans) == 2 * result["attempted"]


def test_tracer_counts_and_restores():
    original = apth.montecarlo.estimate_prob
    tracer = tracing.Tracer()
    tracer.install()
    try:
        apth.montecarlo.estimate_prob(5, 130, 40, SEED)
    finally:
        tracer.uninstall()
    assert apth.montecarlo.estimate_prob is original
    assert apth.estimate_prob is original
    m = tracing.rep_metrics(tracer.spans, 1.0)
    assert m["montecarlo.estimate_calls"] == 1
    assert m["montecarlo.samples"] == 40
    assert m["philox.words"] == m["coloring.row_words"] == 40 * 3
    assert m["coloring.rows"] == 40
    assert m["coloring.hit_rows"] == apth.estimate_prob(5, 130, 40, SEED).successes


def test_timed_rounds_counts_failures():
    seen = []

    def job(rep):
        if rep == 1:
            raise RuntimeError("planted failure")
        return rep

    times, failed = run.timed_rounds(job, 0.01, lambda rep, out: seen.append(out))
    assert failed == 1
    assert seen == [rep for rep in range(len(times)) if rep != 1]
