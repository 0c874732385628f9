import hashlib
import io
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from apth import __version__, cli, coloring, montecarlo
from apth.cli import (
    main,
    read_record,
    read_report_csv,
    read_table,
)
from apth.family import large_diff_family
from apth.probability import mono_count_distribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_json_schema(self, capsys):
        code, out, err = run(capsys, "count", "--k", "3", "--n", "5",
                             "--format", "json")
        assert code == 0 and err == ""
        assert out == '{"k":3,"n":5,"count":4}\n'

    def test_module_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "apth", "count", "--k", "3", "--n", "5",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert res.stdout == '{"k":3,"n":5,"count":4}\n'

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "3", "--n", "5",
                           "--format", "csv")
        assert code == 0
        assert out == "k,n,count\n3,5,4\n"
        assert read_record(out, "csv") == {"k": 3, "n": 5, "count": 4}


class TestEnumerateAndFamily:
    def test_family_csv_matches_library(self, capsys):
        code, out, _ = run(capsys, "family", "--k", "3", "--n", "12")
        assert code == 0
        rows = read_table(out, ["start", "diff", "k"])
        assert rows == [
            (p.start, p.diff, 3) for p in large_diff_family(3, 12)
        ]

    def test_family_json(self, capsys):
        code, out, _ = run(capsys, "family", "--k", "3", "--n", "5",
                           "--format", "json")
        assert json.loads(out) == [{"start": 1, "diff": 2}]

    def test_enumerate_with_range(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--n", "5",
                           "--dmin", "2", "--dmax", "2")
        assert code == 0
        assert read_table(out, ["start", "diff", "k"]) == [(1, 2, 3)]

    def test_enumerate_bad_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "3", "--n", "5",
                             "--dmin", "3", "--dmax", "9")
        assert code == 2
        assert err.startswith("error: 2:")

    def test_greedy(self, capsys):
        code, out, _ = run(capsys, "greedy", "--k", "3", "--n", "5")
        assert code == 0
        assert read_table(out, ["start", "diff", "k"]) == [(1, 1, 3), (3, 1, 3)]

    def test_greedy_with_no_fit_prints_header(self, capsys):
        code, out, err = run(capsys, "greedy", "--k", "2000", "--n", "100")
        assert (code, out, err) == (0, "start,diff,k\n", "")

    def test_greedy_refuses_oversized_n(self, capsys):
        # n=20000 would need a 400 MB pair table; nothing may be allocated
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "greedy", "--k", "3", "--n", "20000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: 2:") and "pair table" in err
        assert peak < 1 << 20


class TestExactAndDist:
    def test_exact_json(self, capsys):
        code, out, _ = run(capsys, "exact", "--k", "3", "--n", "9")
        obj = json.loads(out)
        assert code == 0
        assert obj == {"k": 3, "n": 9, "numerator": 1, "denominator": 1,
                       "probability": 1.0}

    def test_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "exact", "--k", "3", "--n", "40")
        assert code == 3
        assert out == ""
        assert err.startswith("error: 3:")

    def test_brute_cap_flag_overrides_default(self, capsys):
        code, _, err = run(capsys, "exact", "--k", "3", "--n", "12",
                           "--brute-cap", "11")
        assert code == 3 and "n <= 11" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("APTH_BRUTE_CAP", "10")
        code, _, err = run(capsys, "exact", "--k", "3", "--n", "12")
        assert code == 3
        # flag takes precedence over the environment
        code, _, _ = run(capsys, "exact", "--k", "3", "--n", "12",
                         "--brute-cap", "12")
        assert code == 0

    def test_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("APTH_BRUTE_CAP", "many")
        code, _, err = run(capsys, "exact", "--k", "3", "--n", "5")
        assert code == 2 and "APTH_BRUTE_CAP" in err

    def test_dist_csv(self, capsys):
        code, out, _ = run(capsys, "dist", "--k", "3", "--n", "3")
        assert code == 0
        rows = read_table(out, ["r", "count", "probability"])
        assert rows == [(0, 6, 0.75), (1, 2, 0.25)]

    def test_dist_json_total(self, capsys):
        code, out, _ = run(capsys, "dist", "--k", "3", "--n", "6",
                           "--format", "json")
        obj = json.loads(out)
        dist = mono_count_distribution(3, 6)
        assert obj["total"] == 64
        assert {row["r"]: row["count"] for row in obj["rows"]} == dist.counts


class TestSimulate:
    def test_certain_point(self, capsys):
        code, out, _ = run(capsys, "simulate", "--k", "3", "--n", "9",
                           "--samples", "1000", "--seed", "1")
        obj = json.loads(out)
        assert code == 0
        assert obj["p_hat"] == 1.0
        assert obj["successes"] == 1000
        assert obj["seed"] == 1
        assert obj["version"] == __version__

    def test_csv_has_header_and_row(self, capsys):
        code, out, _ = run(capsys, "simulate", "--k", "3", "--n", "5",
                           "--samples", "100", "--seed", "2",
                           "--format", "csv")
        header, row = out.splitlines()
        assert header.split(",")[:4] == ["k", "n", "samples", "successes"]

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--k", "4", "--n", "15", "--samples", "2000",
                "--seed", "5", "--workers", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestSweepAndReport:
    def test_sweep_schema(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k", "3", "--target", "0.5",
                           "--samples", "2000", "--seed", "7")
        obj = json.loads(out)
        assert code == 0
        assert obj["n_star"] == 5
        assert obj["bracket_low"] < obj["n_star"] <= obj["bracket_high"]
        assert obj["samples_per_point"] == 2000
        trace_ns = [t["n"] for t in obj["trace"]]
        assert obj["n_star"] in trace_ns and obj["bracket_low"] in trace_ns

    def test_sweep_rejects_csv(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--k", "3", "--format", "csv"])
        assert exc.value.code == 2

    def test_report_csv_with_trailing_json(self, capsys):
        code, out, _ = run(capsys, "report", "--k-low", "3", "--k-high", "4",
                           "--target", "0.5", "--samples", "800",
                           "--seed", "3")
        assert code == 0
        rows, meta = read_report_csv(out)
        assert [r[0] for r in rows] == [3, 4]
        assert set(meta) == {"slope", "n_star_increasing", "target",
                             "samples", "seed", "version"}
        assert meta["samples"] == 800 and meta["seed"] == 3

    def test_report_json(self, capsys):
        code, out, _ = run(capsys, "report", "--k-low", "3", "--k-high", "3",
                           "--samples", "500", "--seed", "1",
                           "--format", "json")
        obj = json.loads(out)
        assert [r["k"] for r in obj["rows"]] == [3]

    def test_report_output_is_pinned(self, capsys):
        # changes to the search must leave every reported number as it is
        code, out, _ = run(capsys, "report", "--k-low", "8", "--k-high", "12",
                           "--samples", "300", "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "25fe4896bb0363e4ba32c9eceac801ef7a7139046ae9bbe5e76ba4aab3280971"
        )

    def test_ceiling_exit_code(self, capsys):
        code, _, err = run(capsys, "sweep", "--k", "8", "--target", "0.9",
                           "--samples", "200", "--seed", "1",
                           "--ceiling", "16")
        assert code == 4
        assert err.startswith("error: 4:")

    @pytest.mark.parametrize("cmd", [["sweep", "--k", "3"],
                                     ["report", "--k-low", "3", "--k-high", "4"]])
    @pytest.mark.parametrize("ceiling", ["0", "-1"])
    def test_ceiling_below_one_is_a_usage_error(self, capsys, cmd, ceiling):
        code, out, err = run(capsys, *cmd, "--samples", "200",
                             "--ceiling", ceiling)
        assert code == 2 and out == ""
        assert err.startswith("error: 2:")

    @pytest.mark.parametrize("cmd", [["sweep", "--k", "8"],
                                     ["report", "--k-low", "8", "--k-high", "9"]])
    def test_samples_past_the_search_cap_exit_2(self, capsys, cmd):
        # the record of 8 x 2e9 samples ended in a numpy memory error
        code, out, err = run(capsys, *cmd, "--samples", "2000000000", "--seed", "1")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 2: ")
        assert "samples=2000000000 exceeds a threshold search's cap 2097152" in err

    @pytest.mark.parametrize("cmd", [["simulate", "--k", "6", "--n", "24"],
                                     ["sweep", "--k", "8"],
                                     ["report", "--k-low", "8", "--k-high", "9"]])
    @pytest.mark.parametrize("workers", ["257", "10000"])
    def test_workers_past_the_cap_exit_2_before_any_pool(
        self, capsys, monkeypatch, cmd, workers
    ):
        # the refusal reads the arguments alone: no pool is built, so no
        # thread starts
        class Unbuilt:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was built")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Unbuilt)
        code, out, err = run(capsys, *cmd, "--samples", "1000000000",
                             "--seed", "1", "--workers", workers)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 2: ")
        assert f"workers={workers} exceeds the thread cap 256" in err
        # at the cap the run goes on to build its pool
        with pytest.raises(AssertionError, match="pool"):
            main([*cmd, "--samples", "1000", "--seed", "1", "--workers", "256"])

    def test_default_ceiling_stops_before_row_limit(self, capsys, monkeypatch):
        # a 256-word matrix budget stands in for the 2^24-word one (and a
        # kernel budget no larger): without --ceiling a runaway search
        # reports the ceiling (4), not a row too wide (2)
        monkeypatch.setattr(coloring, "_MATRIX_WORDS", 256)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 256)
        code, out, err = run(capsys, "sweep", "--k", "12", "--target", "0.9",
                             "--samples", "200", "--seed", "3")
        assert code == 4 and out == ""
        assert err.startswith("error: 4:") and "n <= 256" in err


class TestBounds:
    def test_upper_scale_block_bound(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "12", "--f", "2")
        obj = json.loads(out)
        assert code == 0
        assert obj["n_upper_scale"] == 5320
        assert obj["p0_upper"]["q"] == 2
        assert obj["p0_upper"]["s"] == 2660
        assert abs(obj["p0_upper"]["value"] - 0.6066) < 2e-4

    def test_bonferroni_strong_at_its_boundary(self, capsys):
        # the large-difference family of [1, 540] holds 2^(k-1) = 256 members
        code, out, _ = run(capsys, "bounds", "--k", "9", "--n", "540", "--f", "1")
        assert code == 0 and '"bonferroni_strong":true' in out

    def test_lower_scale_first_moment(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "10", "--g", "0.5")
        obj = json.loads(out)
        assert obj["p0_lower"]["value"] == pytest.approx(0.6875)
        assert obj["n_lower_scale"] == 50  # floor(32 * sqrt(10) / 2)

    def test_requires_f_or_g(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "10")
        assert code == 2 and "--f" in err

    def test_block_bound_at_the_n_cap_builds_no_blocks(self, capsys):
        # q = 1,058,486 blocks at n = 2^40; the bound reads only q, s and r
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "bounds", "--k", "12", "--n", str(1 << 40), "--f", "33000"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["p0_upper"]["q"] == 1_058_486
        assert peak < 1 << 20


    @pytest.mark.parametrize("f", ["1e20", "1e300", "inf"])
    def test_huge_or_infinite_f_is_usage_error(self, capsys, f):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--k", "3", "--f", f)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 2: ")

    @pytest.mark.parametrize(
        "argv", [["sweep"], ["bounds", "--g", "0.5"], ["bounds", "--f", "2"]]
    )
    def test_huge_k_is_usage_error(self, capsys, argv):
        # the scales of a 3,000,000-bit 2^k took seconds and overflowed
        # Python's integer-to-string limit
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--k", "3000000", *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 2: ")

    @pytest.mark.parametrize("flag", ["--f", "--g"])
    @pytest.mark.parametrize("k", ["80", "16000"])
    def test_scale_beyond_the_n_cap_asks_for_n(self, capsys, k, flag):
        # without --n the bounds are taken at the threshold scale, which
        # passes 2^40 from k of about 76 on
        code, out, err = run(capsys, "bounds", "--k", k, flag, "0.5" if flag == "--g" else "2")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200
        assert err.startswith("error: 2: ") and "--n" in err

    def test_huge_n_is_short_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--k", "80", "--n", str(10**3000), "--g", "0.5")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200


class TestErrorDiscipline:
    def test_bad_k_names_flag(self, capsys):
        code, out, err = run(capsys, "count", "--k", "2", "--n", "5")
        assert code == 2
        assert out == ""
        assert err == "error: 2: progression length k must be >= 3, got 2\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: 2:")

    def test_negative_samples(self, capsys):
        code, _, err = run(capsys, "simulate", "--k", "3", "--n", "5",
                           "--samples", "-4")
        assert code == 2 and "samples must be >= 1, got -4" in err

    def test_row_beyond_buffer_is_usage_error(self, capsys, monkeypatch):
        # a 256-word matrix budget stands in for an n too wide for the
        # real one
        monkeypatch.setattr(coloring, "_MATRIX_WORDS", 256)
        monkeypatch.setattr(coloring, "_KERNEL_WORDS", 256)
        code, out, err = run(capsys, "simulate", "--k", "3", "--n", "300",
                             "--samples", "10")
        assert code == 2 and out == ""
        assert "above the 256-word budget" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--k", "3", "--n", str((1 << 24) + 1), "--samples", "1"],
        # k = 48 starts its search at n = 29,058,990, past the row limit
        ["sweep", "--k", "48", "--samples", "10", "--ceiling", str(1 << 25)],
    ])
    def test_row_past_the_matrix_budget_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: 2:") and "16777216-word budget" in err


@pytest.mark.parametrize(
    "cmd, says",
    [
        *[
            (f"{sc} {bad}", says)
            for sc in ("count", "enumerate", "family", "greedy", "exact",
                       "dist", "simulate")
            for bad, says in (("--k 2 --n 5", "k must be >= 3, got 2"),
                              ("--k 3 --n 0", "n must be >= 1, got 0"))
        ],
        ("bounds --k 2 --f 2", "k must be >= 3, got 2"),
        ("bounds --k 2 --g 0.5", "k must be >= 3, got 2"),
        ("bounds --k 3 --f 0.5", "f must be finite and >= 1, got 0.5"),
        ("bounds --k 3 --f nan", "f must be finite and >= 1, got nan"),
        ("bounds --k 3 --f inf", "f must be finite and >= 1, got inf"),
        ("bounds --k 3 --g 0", "g must be in (0, 1], got 0.0"),
        ("bounds --k 3 --g 1.5", "g must be in (0, 1], got 1.5"),
        ("bounds --k 3 --g nan", "g must be in (0, 1], got nan"),
        ("simulate --k 3 --n 5 --samples 0", "samples must be >= 1, got 0"),
        ("simulate --k 3 --n 5 --workers 0", "workers must be >= 1, got 0"),
        ("sweep --k 2", "k must be >= 3, got 2"),
        ("sweep --k 3 --target 0.01", "target must lie in [0.05, 0.95], got 0.01"),
        ("sweep --k 3 --samples 0", "samples must be >= 1, got 0"),
        ("report --k-low 2 --k-high 4", "k_low must be >= 3, got 2"),
        ("report --k-low 5 --k-high 4", "need k_low <= k_high, got [5, 4]"),
        ("report --k-low 3 --k-high 4 --target 0.99",
         "target must lie in [0.05, 0.95], got 0.99"),
        ("report --k-low 3 --k-high 4 --samples 0", "samples must be >= 1, got 0"),
        ("enumerate --k 1 --n 5 --dmin 1", "k must be >= 3, got 1"),
        # the open end is named as resolved
        ("enumerate --k 3 --n 2 --dmin 1",
         "diff_range (1, 0) is not a subinterval of [1, 0]"),
    ],
)
def test_bad_argument_exits_2_in_one_line(capsys, cmd, says):
    # the library checks every argument; its message names the parameter
    # and the value it got
    code, out, err = run(capsys, *cmd.split())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: 2: ")
    assert says in err


def test_enumerate_with_no_ap_prints_header(capsys):
    code, out, err = run(capsys, "enumerate", "--k", "3", "--n", "2")
    assert (code, out, err) == (0, "start,diff,k\n", "")


_ESTIMATE_KEYS = ["k", "n", "samples", "successes", "p_hat", "ci_low",
                  "ci_high", "seed"]
_ROW_KEYS = ["k", "n_star", "log2_n_star", "ratio_sqrt", "ratio_3half"]
_META_KEYS = ["slope", "n_star_increasing", "target", "samples", "seed",
              "version"]


class TestKeyOrder:
    # records follow the field order of the library's dataclasses, so
    # reordering a field must fail here

    def test_simulate(self, capsys):
        argv = ("simulate", "--k", "3", "--n", "5", "--samples", "50")
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert out.splitlines()[0].split(",") == [*_ESTIMATE_KEYS, "version"]
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert list(json.loads(out)) == [*_ESTIMATE_KEYS, "version"]

    def test_sweep(self, capsys):
        _, out, _ = run(capsys, "sweep", "--k", "3", "--samples", "200")
        obj = json.loads(out)
        assert list(obj) == ["k", "target", "n_star", "bracket_low",
                             "bracket_high", "samples_per_point", "seed",
                             "version", "trace"]
        # "n" leads, and the estimate's own n keeps that place
        assert list(obj["trace"][0]) == ["n", "k", "samples", "successes",
                                         "p_hat", "ci_low", "ci_high", "seed"]

    def test_report(self, capsys):
        argv = ("report", "--k-low", "3", "--k-high", "4", "--samples", "200")
        _, out, _ = run(capsys, *argv, "--format", "csv")
        header, *_, meta = out.splitlines()
        assert header.split(",") == _ROW_KEYS
        assert list(json.loads(meta)) == _META_KEYS
        _, out, _ = run(capsys, *argv, "--format", "json")
        obj = json.loads(out)
        assert list(obj) == ["rows", *_META_KEYS]
        assert all(list(row) == _ROW_KEYS for row in obj["rows"])

    def test_bounds_block_bound(self, capsys):
        _, out, _ = run(capsys, "bounds", "--k", "12", "--f", "2")
        assert list(json.loads(out)["p0_upper"]) == ["n", "f", "q", "s", "r",
                                                      "value", "flags"]


class TestOutFile:
    def test_out_matches_stdout_bytes(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "family", "--k", "3", "--n", "12")
        path = tmp_path / "family.csv"
        code, out, _ = run(capsys, "family", "--k", "3", "--n", "12",
                           "--out", str(path))
        assert code == 0
        assert out == ""  # nothing on stdout when --out is given
        assert path.read_bytes() == stdout_text.encode()

    def test_identical_invocations_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("simulate", "--k", "3", "--n", "12", "--samples", "3000",
                "--seed", "9")
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("where", ["directory", "missing/x.json"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        (tmp_path / "directory").mkdir()
        path = tmp_path / where
        code, out, err = run(capsys, "count", "--k", "3", "--n", "5",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 2: cannot write --out: ")
        assert err.count("\n") == 1 and str(path) in err

    def test_closed_stdout_ends_quietly(self, capsys, monkeypatch):
        # a reader that stops early (``| head -1``) closes the pipe
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "--k", "3", "--n", "3000"]) == 0
        assert capsys.readouterr().err == ""


class TestSelftest:
    def test_passes(self, capsys):
        code, out, err = run(capsys, "selftest")
        assert code == 0
        assert all(line.startswith("ok ") for line in out.splitlines())

    def test_failure_is_reported_and_exits_1(self, capsys, monkeypatch, tmp_path):
        def passes():
            pass

        def fails():
            raise AssertionError("planted")

        monkeypatch.setattr(cli, "_selftest_checks", lambda: [passes, fails])
        code, out, err = run(capsys, "selftest")
        assert code == 1
        assert out == "ok passes\nFAIL fails: AssertionError('planted')\n"
        assert err == "error: 1: 1 selftest check(s) failed\n"
        path = tmp_path / "selftest.txt"
        code, report, err = run(capsys, "selftest", "--out", str(path))
        assert code == 1 and report == ""
        assert path.read_text() == out
        assert err == "error: 1: 1 selftest check(s) failed\n"


def test_read_table_refuses_another_header():
    with pytest.raises(ValueError, match="unexpected CSV header 'r,count'"):
        read_table("r,count\n0,6\n", ["start", "diff", "k"])
