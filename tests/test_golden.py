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
