import json
import subprocess
import sys
import tracemalloc

import pytest

from apth import __version__, montecarlo
from apth.cli import (
    main,
    read_count,
    read_dist_csv,
    read_family_csv,
    read_report_csv,
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
        assert read_count(out, "csv") == {"k": 3, "n": 5, "count": 4}


class TestEnumerateAndFamily:
    def test_family_csv_matches_library(self, capsys):
        code, out, _ = run(capsys, "family", "--k", "3", "--n", "12")
        assert code == 0
        rows = read_family_csv(out)
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
        assert read_family_csv(out) == [(1, 2, 3)]

    def test_enumerate_bad_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "3", "--n", "5",
                             "--dmin", "3", "--dmax", "9")
        assert code == 2
        assert err.startswith("error: 2:")

    def test_greedy(self, capsys):
        code, out, _ = run(capsys, "greedy", "--k", "3", "--n", "5")
        assert code == 0
        assert read_family_csv(out) == [(1, 1, 3), (3, 1, 3)]

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
        assert read_dist_csv(out) == [(0, 6, 0.75), (1, 2, 0.25)]

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

    def test_ceiling_exit_code(self, capsys):
        code, _, err = run(capsys, "sweep", "--k", "8", "--target", "0.9",
                           "--samples", "200", "--seed", "1",
                           "--ceiling", "16")
        assert code == 4
        assert err.startswith("error: 4:")

    def test_default_ceiling_stops_before_row_limit(self, capsys, monkeypatch):
        # a 4-word budget stands in for the 2^18-word one: without --ceiling
        # a runaway search reports the ceiling (4), not a row too wide (2)
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 4)
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


class TestErrorDiscipline:
    def test_bad_k_names_flag(self, capsys):
        code, out, err = run(capsys, "count", "--k", "2", "--n", "5")
        assert code == 2
        assert out == ""
        assert err == "error: 2: --k must be >= 3\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: 2:")

    def test_negative_samples(self, capsys):
        code, _, err = run(capsys, "simulate", "--k", "3", "--n", "5",
                           "--samples", "-4")
        assert code == 2 and "--samples" in err

    def test_row_beyond_buffer_is_usage_error(self, capsys, monkeypatch):
        # a 4-word budget stands in for an n too wide for the real one
        monkeypatch.setattr(montecarlo, "_CHUNK_WORDS", 4)
        code, out, err = run(capsys, "simulate", "--k", "3", "--n", "300",
                             "--samples", "10")
        assert code == 2 and out == ""
        assert "generation buffer" in err


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


class TestSelftest:
    def test_passes(self, capsys):
        code, out, err = run(capsys, "selftest")
        assert code == 0
        assert all(line.startswith("ok ") for line in out.splitlines())
