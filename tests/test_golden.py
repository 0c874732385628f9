"""Golden CLI outputs: a fixed matrix of small runs whose stdout is kept,
byte for byte, under ``tests/golden/``.

Each run's output must equal its file, so any change to a printed
number, a key order or a format fails here.  After a change to the output
that is meant, regenerate the files from the repo root, and say which
changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from apth.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _runs() -> dict[str, list[str]]:
    runs = {}
    # the simulate workload's two points
    for k, n, samples in ((20, 4700, 5000), (12, 5320, 64000)):
        for fmt in ("json", "csv"):
            for workers in (1, 2):
                runs[f"simulate-k{k}-n{n}-w{workers}.{fmt}"] = [
                    "simulate", "--k", str(k), "--n", str(n),
                    "--samples", str(samples), "--seed", "1",
                    "--workers", str(workers), "--format", fmt,
                ]
    for seed in (1, 2):
        runs[f"sweep-k12-seed{seed}.json"] = [
            "sweep", "--k", "12", "--samples", "500", "--seed", str(seed),
        ]
    for cmd in ("exact", "dist"):
        for fmt in ("json", "csv"):
            runs[f"{cmd}-k6-n24.{fmt}"] = [
                cmd, "--k", "6", "--n", "24", "--format", fmt,
            ]
    # small n and many samples: one range of 24-element colorings holds
    # up to 131,072 of them
    for workers in (1, 2):
        runs[f"simulate-k6-n24-w{workers}.json"] = [
            "simulate", "--k", "6", "--n", "24", "--samples", "40000",
            "--seed", "1", "--workers", str(workers),
        ]
    for fmt in ("json", "csv"):
        runs[f"count-k5-n100.{fmt}"] = ["count", "--k", "5", "--n", "100", "--format", fmt]
        runs[f"enumerate-k4-n20.{fmt}"] = ["enumerate", "--k", "4", "--n", "20", "--format", fmt]
        runs[f"enumerate-k4-n40-d3-5.{fmt}"] = [
            "enumerate", "--k", "4", "--n", "40", "--dmin", "3", "--dmax", "5",
            "--format", fmt,
        ]
        runs[f"family-k4-n40.{fmt}"] = ["family", "--k", "4", "--n", "40", "--format", fmt]
        for seed in (1, 2):
            for workers in (1, 2):
                runs[f"report-k8-13-seed{seed}-w{workers}.{fmt}"] = [
                    "report", "--k-low", "8", "--k-high", "13", "--samples", "500",
                    "--seed", str(seed), "--workers", str(workers), "--format", fmt,
                ]
    for order in ("lex_by_diff_start", "lex_by_start_diff"):
        for seeded in (False, True):
            name = f"greedy-k3-n120-{order}{'-seeded' if seeded else ''}.csv"
            runs[name] = ["greedy", "--k", "3", "--n", "120", "--order", order]
            runs[name] += ["--seed-large-diff"] if seeded else []
    runs["greedy-k4-n120.json"] = ["greedy", "--k", "4", "--n", "120", "--format", "json"]
    for name, extra in (
        ("f2", ["--f", "2"]),
        ("g0.5", ["--g", "0.5"]),
        ("n500-f2-g0.5", ["--n", "500", "--f", "2", "--g", "0.5"]),
    ):
        runs[f"bounds-k12-{name}.json"] = ["bounds", "--k", "12", *extra]
    return runs


#: File name -> CLI arguments.
RUNS = _runs()


def _output(argv: list[str]) -> bytes:
    """The stdout of ``apth <argv>``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"apth {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def test_every_golden_file_has_a_run():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_is_golden(name):
    assert _output(RUNS[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS.items():
        (GOLDEN / name).write_bytes(_output(argv))
        print(name)
