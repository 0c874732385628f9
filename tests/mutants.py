"""Mutation harness: does tier-1 catch a one-line fault in each fast path?

Each mutant below is one (file, old text, new text, reason) edit of
``src/apth``.  The harness first runs tier-1 on an unmutated copy, which
must pass; then, for each mutant, it copies ``src/apth`` to a temporary
directory, makes the edit there and runs tier-1 on the copy with ``-x``.
It prints one JSON line per mutant: killed (tier-1 failed) or survived,
and the seconds taken.  An old text that does not occur exactly once is
an error, so the list cannot silently drift from the code.  A survivor
names a fault tier-1 cannot see: mend it with a test.  The exit code is
1 if any mutant survives.

Run from the repository root (it is not collected by pytest):

    python tests/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "apth"

#: A mutant that runs this long is counted as killed: tier-1 hung on it.
TIMEOUT_S = 600

MUTANTS = [
    ("coloring.py",
     "step = min(covered, k - 1 - covered)",
     "step = covered",
     "the doubling in _breaks overshoots the run"),
    ("coloring.py",
     "b = b[max(0, done - (k - 1) * d) :]",
     "b = b[max(0, done - (k - 1) * d) + 1 :]",
     "a resumed scan starts one row late"),
    ("coloring.py",
     "live = live[~got]",
     "live = live",
     "the live rows are not narrowed after a repack"),
    ("coloring.py",
     "return ~alive ^ pad, d\n",
     "return ~alive ^ pad, d + 1\n",
     "the scan resumes one d late after a repack"),
    ("coloring.py",
     "    for d in range(1, (n - 1) // (k - 1) + 1):\n"
     "        chain = _breaks(b, d, k, buf, done)",
     "    for d in range(1, (n - 1) // (k - 1)):\n"
     "        chain = _breaks(b, d, k, buf, done)",
     "_first_hits skips the largest d"),
    ("coloring.py",
     "np.right_shift(g, np.arange(m - low, dtype=np.uint64)[:, None], out=high)",
     "np.right_shift(g, np.arange(1, m - low + 1, dtype=np.uint64)[:, None], out=high)",
     "the exact enumeration's high elements skip a bit of the group index"),
    ("coloring.py",
     "np.concatenate((red == masks, red == 0))",
     "np.concatenate((red != 0, red == 0))",
     "a top coloring whose top elements disagree still applies the k-AP's row"),
    ("coloring.py",
     "return elems[elems[:, -1] > m]",
     "return elems[elems[:, -1] > m + 1]",
     "the split drops the k-APs that end at the cut plus one"),
    ("coloring.py",
     "if high <= top:",
     "if high < top:",
     "the plane histogram drops its top value"),
    ("montecarlo.py",
     "known.hit[:] = False",
     "pass",
     "the report's hit reset dropped: a report keeps hits across k"),
    ("montecarlo.py",
     "return 0.0, 1.0 - (_ALPHA / 2) ** (1.0 / samples)",
     "return 0.0, 1.0 - _ALPHA ** (1.0 / samples)",
     "Clopper-Pearson at zero made one-sided"),
    ("montecarlo.py",
     "threshold_scale_lower(k, 1.0) // 4)",
     "threshold_scale_lower(k, 1.0) // 2)",
     "the search's start point"),
    ("montecarlo.py",
     "return max(1, -(-n // 100))",
     "return max(1, n // 100)",
     "the search's step rounds down"),
    ("probability.py",
     "mid = min(top, n // k)",
     "mid = min(top, n // k + 1)",
     "_clump_runs counts d starts at one difference too many"),
    ("progressions.py",
     "m = d - self.d_lo + 1",
     "m = d - self.d_lo",
     "a difference range counts one difference too few"),
    ("progressions.py",
     "starts = np.arange(lo + 1, lo + 1 + len(diffs), dtype=np.int64)",
     "starts = np.arange(lo, lo + len(diffs), dtype=np.int64)",
     "a difference range's slabs start one start low"),
    ("family.py",
     "d1 = min(d_hi, ((k - 1) * d0 - 1) // (k - 2))",
     "d1 = min(d_hi, (k - 1) * d0 // (k - 2))",
     "the band bound admits d*(k-2) = d0*(k-1): <= in place of <"),
    ("family.py",
     "d1 = min(d_hi, ((k - 1) * d0 - 1) // (k - 2))",
     "d1 = min(d_hi, 2 * d0 - 1)",
     "bands of [d, 2d) whatever k is"),
    ("family.py",
     "keys += (starts * (n + 2))[:, None]",
     "keys += (starts * (n + 1))[:, None]",
     "the greedy's pair-key stride"),
    ("_philox.py",
     "_ROUNDS = 10",
     "_ROUNDS = 9",
     "Philox at 9 rounds"),
    ("montecarlo.py",
     "_Z95 = 1.959963984540054",
     "_Z95 = 1.96",
     "the Wilson z rounded to 1.96"),
    ("coloring.py",
     "planes = max(1, count_aps(k, n).bit_length())",
     "planes = max(1, count_aps(k, n).bit_length() - 1)",
     "the carry-save total loses its top weight"),
    ("montecarlo.py",
     "h = min(nw, int(self.have[rows].min()))",
     "h = min(nw, int(self.have[rows].max()))",
     "the store's have: a point reads the longest stored prefix"),
    ("montecarlo.py",
     "total += fn(at, min(at + size, hi))",
     "total += fn(at, min(at + size - 1, hi))",
     "the share walk drops the last sample of each range"),
    ("montecarlo.py",
     "np.split(misses, cuts)",
     "np.split(misses[1:], cuts)",
     "estimate_prob's stage-2 slice skips a miss"),
    ("montecarlo.py",
     "self.miss_to[rows] = first - 1",
     "self.miss_to[rows] = first",
     "a known miss recorded at the first hit itself"),
    ("montecarlo.py",
     "cols = min(cols, _STORE_WORDS // rows)",
     "cols = min(cols, _STORE_WORDS)",
     "the word store's columns without its budget cap"),
    ("montecarlo.py",
     "if estimate(mid, m).p_hat >= target:",
     "if estimate(mid, m).p_hat > target:",
     "the walk's bisection skips a point whose p_hat equals the target"),
    ("coloring.py",
     "step = max(8, _SLAB_WORDS",
     "step = max(7, _SLAB_WORDS",
     "_bitsliced slabs of 7 rows overwrite each other's bytes past 2,048 words a row"),
    ("probability.py",
     "size <= 1 << (k - 1)",
     "size < 1 << (k - 1)",
     "bonferroni_strong false at a family of exactly 2^(k-1) members"),
]


def _tier1(src: Path) -> bool:
    """Whether tier-1 passes with ``src`` as the package's parent directory."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", str(ROOT / "tests")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _copy(scratch: Path, mutant: tuple[str, str, str, str] | None) -> Path:
    """A fresh copy of ``src/apth`` under ``scratch``, with ``mutant`` made."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(SRC, src / "apth", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        name, old, new, reason = mutant
        path = src / "apth" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(
                f"{name}: {reason}: old text occurs {text.count(old)} times, not once"
            )
        path.write_text(text.replace(old, new))
    return src


def main() -> int:
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for mutant in MUTANTS:  # check every edit before the long runs
            _copy(scratch, mutant)
        if not _tier1(_copy(scratch, None)):
            raise SystemExit("tier-1 fails on the unmutated copy")
        for mutant in MUTANTS:
            start = time.perf_counter()
            survived = _tier1(_copy(scratch, mutant))
            killed += not survived
            print(json.dumps({
                "file": mutant[0],
                "reason": mutant[3],
                "status": "survived" if survived else "killed",
                "seconds": round(time.perf_counter() - start, 1),
            }), flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed", file=sys.stderr)
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
