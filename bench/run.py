"""apth benchmark: one workload per process, one thread per process.

    python3 bench/run.py --workload scaling --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

A run builds the workload's inputs from ``--seed``, runs a warm-up, then
repeats the workload's job in whole rounds for about ``--seconds``
seconds and checks the outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` jobs, and the
metrics.  With ``--trace 0`` those are the end-to-end metrics ``wall_s``
(median job time), ``setup_s`` (median time from interpreter start to
the first job being ready, over separate set-up processes) and
``peak_rss_mb``; with ``--trace 1`` they are the per-layer metrics of
``tracing.METRICS``, and the spans go to ``bench/out/``.

apth is imported from ``src/`` next to this directory; without it the
run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("scaling", "simulate", "exact", "family")

#: Set-up processes timed per run; setup_s is their median.
SETUP_REPS = 7


def _import_workloads():
    if not (SRC / "apth" / "__init__.py").is_file():
        sys.exit(f"error: apth sources not found under {SRC}")
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import workloads

    return workloads


def _setup_child(workload: str, seed: int) -> None:
    """Body of a set-up process: import apth, build the inputs, report."""
    _import_workloads().WORKLOADS[workload].setup(seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_REPS fresh interpreters of the time from process
    start until the workload's inputs are built."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process for {workload} failed")
        times.append(elapsed)
    return statistics.median(times)


def timed_rounds(job, seconds: float, record) -> tuple[list[float], int]:
    """Run ``job(rep)`` in whole rounds while another round is expected to
    finish within ``seconds``; at least one round.  ``record(rep, output)``
    sees each output outside the timed region.  Returns the round times
    and the number of rounds that raised."""
    times, failed = [], 0
    t0 = time.perf_counter()
    while True:
        rep = len(times)
        start = time.perf_counter()
        try:
            out, ok = job(rep), True
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            failed, ok = failed + 1, False
        times.append(time.perf_counter() - start)
        if ok:
            record(rep, out)
        if time.perf_counter() - t0 + statistics.median(times) > seconds:
            return times, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = _import_workloads().WORKLOADS[name]
    setup_s = None if trace else measure_setup(name, seed)
    inputs = wl.setup(seed)
    wl.warmup(inputs)
    # the traced run repeats one variant, so its counts repeat exactly
    variant_of = (lambda rep: 0) if trace else (lambda rep: rep % wl.variants)
    first: dict[int, object] = {}  # first output of each variant
    problems: list[str] = []

    def job(rep):
        return wl.job(inputs, variant_of(rep))

    def record(rep, out):
        # only one output per variant is kept, so peak memory does not
        # grow with the number of rounds
        v = variant_of(rep)
        if v not in first:
            first[v] = out
        elif out != first[v]:
            problems.append(f"round {rep} differs from an earlier round on the same input")

    if trace:
        import tracing

        tracer = tracing.Tracer()

        def traced_job(rep):
            tracer.rep = rep
            return job(rep)

        tracer.install()
        try:
            times, failed = timed_rounds(traced_job, seconds, record)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        per_rep = [
            tracing.rep_metrics([s for s in tracer.spans if s["rep"] == rep], t)
            for rep, t in enumerate(times)
        ]
        values, differing = tracing.summarize(per_rep)
        problems += differing
        units = {m: u for m, u, _ in tracing.METRICS}
    else:
        times, failed = timed_rounds(job, seconds, record)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_s": statistics.median(times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    print("round times (s): " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    for v, out in first.items():
        problems += wl.check(inputs, out, v)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": bool(first) and not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metric names gain a prefix."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}", flush=True)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one thread: keep any BLAS pool numpy starts (here and in child
    # processes) at a single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if args.setup_only:
        _setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
