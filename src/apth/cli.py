"""Command-line interface.

Subcommands map one-to-one onto library operations and emit CSV or JSON
(all numeric, header row, no quoting) to stdout or ``--out``.  Exit codes:

* 0 success, also when the reader closes stdout early (``| head -1``)
* 2 argument/usage error, an ``--out`` that cannot be written included
* 3 exact-enumeration cap exceeded
* 4 threshold search ceiling exceeded

The library validates every argument and names the parameter and the
value it got; the CLI checks only what the library cannot know (``bounds``
needs ``--f`` or ``--g``, and a threshold scale must fit the n cap) and
maps exceptions to exit codes.  Each record is read off the dataclass the
library returns, in its field order.  Errors print a single
machine-parsable line ``error: <code>: <message>`` to stderr.  Identical
invocations (same flags, same seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from . import _philox
from .coloring import (
    Coloring,
    RandomStream,
    batch_has_mono_ap,
    has_mono_ap,
    random_coloring,
)
from .errors import BruteForceCapError, SearchCeilingError
from .family import (
    greedy_max_family,
    is_almost_disjoint,
    large_diff_family,
    large_diff_family_size,
)
from .montecarlo import (
    ScalingReport,
    ScalingRow,
    ThresholdResult,
    estimate_prob,
    scaling_report,
    threshold_search,
    wilson_interval,
)
from .probability import (
    exact_prob_mono,
    expected_mono,
    markov_upper,
    mono_count_distribution,
    p0_lower_first_moment,
    p0_upper_blocks,
    threshold_scale_lower,
    threshold_scale_upper,
)
from .progressions import N_CAP, Progression, count_aps, enumerate_aps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CEILING = 4

ENV_BRUTE_CAP = "APTH_BRUTE_CAP"


# --- emitters and readers ----------------------------------------------------
#
# Every emission below is parseable by the reader next to it; `selftest`
# exercises the round trips.


def _jdump(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _record(fields: dict, fmt: str) -> str:
    """One record: a JSON object, or a CSV header and one row."""
    if fmt == "json":
        return _jdump(fields)
    return _csv(list(fields), [tuple(fields.values())])


def _fields_without(obj, name: str) -> dict:
    """The fields of dataclass ``obj`` in their order, less field ``name``."""
    return {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if f.name != name
    }


def _field(text: str):
    """A CSV field as an int, else a float, else the string itself."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_record(text: str, fmt: str) -> dict:
    """The fields of a ``_record``."""
    if fmt == "json":
        return json.loads(text)
    header, row = text.splitlines()
    return dict(zip(header.split(","), map(_field, row.split(","))))


def read_table(text: str, header: Sequence[str]) -> list[tuple]:
    """The rows of CSV output whose header row is ``header``."""
    lines = text.splitlines()
    if lines[0] != ",".join(header):
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [tuple(map(_field, line.split(","))) for line in lines[1:]]


def stream_family(members: Iterable[Progression], fmt: str) -> Iterator[str]:
    """Family output in constant memory; chunks concatenate to the same
    bytes a whole-document dump would produce."""
    if fmt == "json":
        yield "["
        sep = ""
        for p in members:
            yield sep + json.dumps(
                {"start": p.start, "diff": p.diff}, separators=(",", ":")
            )
            sep = ","
        yield "]\n"
    else:
        yield "start,diff,k\n"
        for p in members:
            yield f"{p.start},{p.diff},{p.length}\n"


def emit_family(members: Iterable[Progression], fmt: str) -> str:
    return "".join(stream_family(members, fmt))


def emit_dist(dist, fmt: str) -> str:
    rows = [
        (r, c, c / dist.total) for r, c in sorted(dist.counts.items())
    ]
    if fmt == "json":
        return _jdump(
            {
                "k": dist.k,
                "n": dist.n,
                "total": dist.total,
                "rows": [
                    {"r": r, "count": c, "probability": p} for r, c, p in rows
                ],
            }
        )
    return _csv(["r", "count", "probability"], rows)


def emit_sweep(res: ThresholdResult) -> str:
    return _jdump(
        {
            **_fields_without(res, "trace"),
            "version": __version__,
            "trace": [
                {"n": n, **dataclasses.asdict(est)} for n, est in res.trace
            ],
        }
    )


_REPORT_COLUMNS = [f.name for f in dataclasses.fields(ScalingRow)]


def emit_report(rep: ScalingReport, fmt: str) -> str:
    meta = {**_fields_without(rep, "rows"), "version": __version__}
    rows = [dataclasses.astuple(r) for r in rep.rows]
    if fmt == "json":
        return _jdump(
            {
                "rows": [dict(zip(_REPORT_COLUMNS, row)) for row in rows],
                **meta,
            }
        )
    return _csv(_REPORT_COLUMNS, rows) + _jdump(meta)


def read_report_csv(text: str) -> tuple[list[tuple], dict]:
    """The rows of ``emit_report``'s CSV and its trailing JSON line."""
    table, meta = text.rstrip("\n").rsplit("\n", 1)
    return read_table(table, _REPORT_COLUMNS), json.loads(meta)


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {EXIT_USAGE}: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="apth",
        description=(
            "Monochromatic k-term arithmetic progressions in random "
            "2-colorings of {1..n}: counting, almost-disjoint families, "
            "exact oracles, bounds, and Monte Carlo threshold estimation."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def cmd(name, help_text, fmt_default="csv", formats=("csv", "json"), kn=True):
        p = sub.add_parser(name, help=help_text)
        if formats:
            p.add_argument("--format", choices=formats, default=fmt_default)
        p.add_argument("--out", help="write output to this file instead of stdout")
        if kn:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        return p

    cmd("count", "number of k-APs contained in [1, n]", "json")

    p = cmd("enumerate", "list k-APs in [1, n], ordered by (diff, start)")
    p.add_argument("--dmin", type=int, help="restrict to diff >= dmin")
    p.add_argument("--dmax", type=int, help="restrict to diff <= dmax")

    cmd("family", "the almost-disjoint family with diff in [n/k, n/(k-1))")

    p = cmd("greedy", "greedy maximal almost-disjoint family over all k-APs")
    p.add_argument(
        "--seed-large-diff",
        action="store_true",
        help="insert the large-difference family before scanning",
    )
    p.add_argument(
        "--order",
        choices=("lex_by_diff_start", "lex_by_start_diff"),
        default="lex_by_diff_start",
    )

    p = cmd("exact", "exact mono-k-AP probability by full enumeration", "json")
    p.add_argument("--brute-cap", type=int)

    p = cmd("dist", "exact distribution of the mono-k-AP count")
    p.add_argument("--brute-cap", type=int)

    p = cmd("bounds", "closed-form bound evaluators", "json", ("json",), kn=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--f", type=float, help="upper-scale parameter (>= 1)")
    p.add_argument("--g", type=float, help="lower-scale parameter in (0, 1]")

    p = cmd("simulate", "Monte Carlo estimate of the mono-k-AP probability", "json")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)

    p = cmd("sweep", "locate the n where the estimate crosses the target",
            "json", ("json",), kn=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--ceiling", type=int)

    p = cmd("report", "threshold scaling table over a k range", kn=False)
    p.add_argument("--k-low", type=int, required=True)
    p.add_argument("--k-high", type=int, required=True)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--ceiling", type=int)
    p.add_argument("--k-budget", type=int, default=20,
                   help="refuse k-high beyond this (per-point cost ~ 2^k)")

    cmd("selftest", "run the built-in invariant suite", formats=(), kn=False)

    return parser


def _resolve_cap(args) -> int | None:
    """--brute-cap beats APTH_BRUTE_CAP beats the library default."""
    if getattr(args, "brute_cap", None) is not None:
        return args.brute_cap
    env = os.environ.get(ENV_BRUTE_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_BRUTE_CAP} must be an integer, got {env!r}"
            ) from None
    return None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _dispatch(args) -> str:
    sc = args.subcommand

    if sc == "count":
        count = count_aps(args.k, args.n)
        return _record({"k": args.k, "n": args.n, "count": count}, args.format)

    if sc == "enumerate":
        return stream_family(
            enumerate_aps(args.k, args.n, (args.dmin, args.dmax)), args.format
        )

    if sc == "family":
        return stream_family(large_diff_family(args.k, args.n), args.format)

    if sc == "greedy":
        fam = greedy_max_family(
            args.k, args.n,
            seed_with_large_diff=args.seed_large_diff,
            order=args.order,
        )
        return stream_family(fam, args.format)

    if sc == "exact":
        prob = exact_prob_mono(args.k, args.n, cap=_resolve_cap(args))
        fields = {
            "k": args.k,
            "n": args.n,
            "numerator": prob.numerator,
            "denominator": prob.denominator,
            "probability": float(prob),
        }
        return _record(fields, args.format)

    if sc == "dist":
        dist = mono_count_distribution(args.k, args.n, cap=_resolve_cap(args))
        return emit_dist(dist, args.format)

    if sc == "bounds":
        _require(
            args.f is not None or args.g is not None,
            "bounds needs --f and/or --g",
        )
        obj: dict = {"k": args.k, "version": __version__}

        def at(scale: int) -> int:
            """--n if given, else the threshold scale itself."""
            if args.n is not None:
                return args.n
            _require(
                scale <= N_CAP,
                f"the threshold scale at k={args.k} is above the 2^40 cap "
                "on n; pass --n",
            )
            return scale

        if args.f is not None:
            scale = threshold_scale_upper(args.k, args.f)
            rep = p0_upper_blocks(args.k, at(scale), args.f)
            obj["n_upper_scale"] = scale
            obj["p0_upper"] = _fields_without(rep, "k")
        if args.g is not None:
            scale = threshold_scale_lower(args.k, args.g)
            n = at(scale)
            obj["n_lower_scale"] = scale
            obj["p0_lower"] = {
                "n": n,
                "g": args.g,
                "value": p0_lower_first_moment(args.k, args.g),
                "expected_mono": expected_mono(args.k, n),
                "markov_upper": markov_upper(args.k, n),
            }
        return _record(obj, args.format)

    if sc == "simulate":
        est = estimate_prob(args.k, args.n, args.samples, args.seed, args.workers)
        fields = {**dataclasses.asdict(est), "version": __version__}
        return _record(fields, args.format)

    if sc == "sweep":
        res = threshold_search(
            args.k, args.target, args.samples, args.seed, args.workers, args.ceiling
        )
        return emit_sweep(res)

    if sc == "report":
        rep = scaling_report(
            args.k_low, args.k_high, args.target, args.samples, args.seed,
            args.workers, args.ceiling, args.k_budget,
        )
        return emit_report(rep, args.format)

    if sc == "selftest":
        return _selftest()

    raise AssertionError(f"unhandled subcommand {sc}")  # pragma: no cover


# --- selftest -----------------------------------------------------------------


def _naive_has_mono(c: Coloring, k: int) -> bool:
    for p in enumerate_aps(k, c.n):
        m = 0
        for e in range(p.start, p.last + 1, p.diff):
            m |= 1 << (e - 1)
        if (c.bits & m) == m or (c.bits & m) == 0:
            return True
    return False


def _selftest_checks():
    def count_vs_enumeration():
        for k in (3, 4, 5):
            for n in range(k, 41):
                assert count_aps(k, n) == sum(1 for _ in enumerate_aps(k, n))

    def large_diff_family_invariants():
        for k in (3, 4, 5):
            for n in range(k * (k - 1), 121, 7):
                fam = large_diff_family(k, n)
                assert len(fam) == large_diff_family_size(k, n)
                assert is_almost_disjoint(fam)[0]
                assert all(p.start <= p.diff for p in fam)

    def detection_matches_direct_scan():
        stream = RandomStream(20260810, 0)
        for n in (12, 40, 64, 65, 130):
            for k in (3, 4, 5):
                for _ in range(20):
                    c = random_coloring(n, stream)
                    assert has_mono_ap(c, k) == _naive_has_mono(c, k)

    def batch_matches_scalar():
        # named for the `Coloring` rows it compares; the scalar functions
        # wrap the batch kernel, so the reference is the direct scan
        seed = 424242
        for n in (12, 64, 65, 130):
            ids = np.arange(64, dtype=np.uint64)
            words = _philox.words(seed, ids, -(-n // 64))
            got = batch_has_mono_ap(words, n, 3)
            for i in range(64):
                c = random_coloring(n, RandomStream(seed, int(i)))
                assert _naive_has_mono(c, 3) == bool(got[i])

    def stream_reproducibility():
        a = RandomStream(7, 3).next_words(9)
        b = RandomStream(7, 3).next_words(9)
        assert np.array_equal(a, b)
        s = RandomStream(7, 3)
        first = s.next_words(5)
        assert np.array_equal(first, s.words_at(0, 5))

    def philox_reference():
        for seed, sid in ((0, 0), (1, 2), (12345, 678)):
            ref = np.random.Philox(
                key=np.array([seed, sid], dtype=np.uint64)
            ).random_raw(11)
            got = _philox.words(seed, np.array([sid], dtype=np.uint64), 11)[0]
            assert np.array_equal(ref, got)
        # words 3..1003 are blocks 0..250, so 32 rows fill a tile and
        # this batch of 40 spans two
        batch = _philox.words(7, np.arange(40, dtype=np.uint64), 1001, first_word=3)
        for sid in (0, 31, 32, 39):
            ref = np.random.Philox(
                key=np.array([7, sid], dtype=np.uint64)
            ).random_raw(1004)[3:]
            assert np.array_equal(ref, batch[sid])

    def estimate_worker_invariance():
        a = estimate_prob(3, 12, 5000, 5, workers=1)
        b = estimate_prob(3, 12, 5000, 5, workers=4)
        assert a == b

    def estimate_degenerate_points():
        assert estimate_prob(3, 2, 500, 1).p_hat == 0.0
        assert estimate_prob(3, 9, 500, 1).p_hat == 1.0

    def wilson_sanity():
        for samples in (1, 10, 1000):
            for successes in range(0, samples + 1, max(1, samples // 7)):
                lo, hi = wilson_interval(successes, samples)
                assert 0.0 <= lo <= successes / samples <= hi <= 1.0

    def cli(*argv: str) -> str:
        return _dispatch(_build_parser().parse_args(argv))

    def roundtrip_count():
        for fmt in ("csv", "json"):
            text = cli("count", "--k", "3", "--n", "5", "--format", fmt)
            assert read_record(text, fmt) == {"k": 3, "n": 5, "count": 4}

    def roundtrip_family():
        fam = large_diff_family(3, 12)
        rows = read_table(emit_family(fam, "csv"), ["start", "diff", "k"])
        assert rows == [(p.start, p.diff, p.length) for p in fam]
        objs = json.loads(emit_family(fam, "json"))
        assert objs == [{"start": p.start, "diff": p.diff} for p in fam]

    def roundtrip_exact():
        prob = exact_prob_mono(3, 8)
        for fmt in ("csv", "json"):
            text = cli("exact", "--k", "3", "--n", "8", "--format", fmt)
            obj = read_record(text, fmt)
            assert obj["numerator"] == prob.numerator
            assert obj["denominator"] == prob.denominator
            assert obj["probability"] == float(prob)

    def roundtrip_dist():
        dist = mono_count_distribution(3, 6)
        rows = read_table(emit_dist(dist, "csv"), ["r", "count", "probability"])
        assert [(r, c) for r, c, _ in rows] == sorted(dist.counts.items())
        obj = json.loads(emit_dist(dist, "json"))
        assert {row["r"]: row["count"] for row in obj["rows"]} == dist.counts

    def roundtrip_simulate():
        est = estimate_prob(3, 9, 200, 1)
        for fmt in ("csv", "json"):
            text = cli("simulate", "--k", "3", "--n", "9", "--samples", "200",
                       "--seed", "1", "--format", fmt)
            row = read_record(text, fmt)
            assert row["successes"] == est.successes and row["seed"] == est.seed
            assert row["p_hat"] == est.p_hat and row["version"] == __version__

    def roundtrip_bounds():
        obj = json.loads(cli("bounds", "--k", "10", "--g", "0.5"))
        assert obj["p0_lower"]["value"] == 0.6875

    def roundtrip_sweep():
        res = threshold_search(3, 0.5, 400, 1)
        obj = json.loads(emit_sweep(res))
        assert obj["n_star"] == res.n_star
        assert len(obj["trace"]) == len(res.trace)

    def roundtrip_report():
        rep = scaling_report(3, 4, 0.5, 400, 1)
        rows, meta = read_report_csv(emit_report(rep, "csv"))
        assert [r[0] for r in rows] == [3, 4]
        assert meta["slope"] == rep.slope
        obj = json.loads(emit_report(rep, "json"))
        assert [r["k"] for r in obj["rows"]] == [3, 4]

    return [
        count_vs_enumeration,
        large_diff_family_invariants,
        detection_matches_direct_scan,
        batch_matches_scalar,
        stream_reproducibility,
        philox_reference,
        estimate_worker_invariance,
        estimate_degenerate_points,
        wilson_sanity,
        roundtrip_count,
        roundtrip_family,
        roundtrip_exact,
        roundtrip_dist,
        roundtrip_simulate,
        roundtrip_bounds,
        roundtrip_sweep,
        roundtrip_report,
    ]


def _selftest() -> str:
    lines = []
    failures = 0
    for check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report every failure
            failures += 1
            lines.append(f"FAIL {check.__name__}: {exc!r}")
        else:
            lines.append(f"ok {check.__name__}")
    text = "\n".join(lines) + "\n"
    if failures:
        raise _SelftestFailure(failures, text)
    return text


class _SelftestFailure(Exception):
    def __init__(self, failures: int, text: str):
        self.failures = failures
        self.text = text
        super().__init__(f"{failures} selftest check(s) failed")


# --- entry point --------------------------------------------------------------


def _write(output: str | Iterable[str], out: str | None) -> None:
    chunks = (output,) if isinstance(output, str) else output
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _write(_dispatch(args), getattr(args, "out", None))
    except BruteForceCapError as exc:
        sys.stderr.write(f"error: {EXIT_CAP}: {exc}\n")
        return EXIT_CAP
    except SearchCeilingError as exc:
        sys.stderr.write(f"error: {EXIT_CEILING}: {exc}\n")
        return EXIT_CEILING
    except ValueError as exc:
        sys.stderr.write(f"error: {EXIT_USAGE}: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (``| head``): end quietly, with stdout
        # on devnull so that the interpreter's last flush cannot fail
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _SelftestFailure as exc:
        _write(exc.text, args.out)
        sys.stderr.write(f"error: 1: {exc}\n")
        return 1
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
