"""Run the steps of the CI workflow on this machine, offline.

Reads ``.github/workflows/tests.yml`` and runs every ``run:`` step of every
job, with the step's ``env`` and ``working-directory``, in bash as CI
does (``-eo pipefail``), on the interpreter running this script, with
``python`` meaning that interpreter and ``apth`` meaning ``python -m
apth``.  A job's matrix collapses to that interpreter, with ``numpy``
read as ``'latest'``, the numpy installed here; a step's ``if:`` is
evaluated against it.  Where CI installs apth, this script stands in:

- the ``tests`` job (an editable install) imports apth from ``src/``;
- the ``installed-package`` job imports it from a copy of ``src/apth``
  in a temporary ``site-packages`` directory, with ``src/`` off the path.

``uses:`` actions and pip steps need the network, so they are listed as
skipped, each with its reason, never as passed.  One JSON line is printed
per step to stdout: ran or skipped, its exit code and seconds; the
steps' own output goes to stderr.  The exit code is 1 if any step that
ran failed.

Run from the repository root (it is not collected by pytest):

    python tests/ci_local.py
"""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

#: The matrix every job runs with here.
MATRIX = {"python-version": "%d.%d" % sys.version_info[:2], "numpy": "latest"}

_CONDITION = re.compile(r"matrix\.([\w-]+) (==|!=) '([^']*)'")
_EXPRESSION = re.compile(r"\$\{\{\s*([\w.-]+)\s*\}\}")


def _skip_reason(step: dict) -> str | None:
    """Why ``step`` cannot run here, or None if it can."""
    if "uses" in step:
        return f"action {step['uses']}: the local checkout and interpreter stand in"
    if "if" in step:
        cond = _CONDITION.fullmatch(step["if"].strip())
        if cond is None:
            return f"condition {step['if']!r} is not evaluated here"
        key, op, value = cond.groups()
        if (MATRIX.get(key) == value) != (op == "=="):
            return f"condition {step['if']!r} is false for the local matrix {MATRIX}"
    if re.search(r"\bpip\b", step["run"]):
        return "pip needs the network"
    return None


def _expand(text: str, temp: Path) -> str:
    """``text`` with its ``${{ runner.temp }}`` and ``${{ matrix.* }}`` filled."""

    def value(match: re.Match) -> str:
        name = match.group(1)
        if name == "runner.temp":
            return str(temp)
        if name.startswith("matrix."):
            return MATRIX[name.removeprefix("matrix.")]
        raise SystemExit(f"unknown expression {match.group(0)} in {WORKFLOW}")

    return _EXPRESSION.sub(value, text)


def _job_path(job: str, temp: Path) -> str:
    """The PYTHONPATH standing in for ``job``'s install of apth."""
    if job != "installed-package":
        return str(ROOT / "src")
    site = temp / "site-packages"
    if not site.exists():
        shutil.copytree(ROOT / "src" / "apth", site / "apth",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(site)


def _run(job: str, step: dict, temp: Path) -> int:
    """Run one step's script and return its exit code."""
    env = dict(os.environ, PYTHONPATH=_job_path(job, temp))
    env.update({key: _expand(str(v), temp) for key, v in step.get("env", {}).items()})
    python = shlex.quote(sys.executable)
    prelude = f'python() {{ {python} "$@"; }}\napth() {{ {python} -m apth "$@"; }}\n'
    cwd = ROOT / _expand(step.get("working-directory", "."), temp)
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
         prelude + _expand(step["run"], temp)],
        cwd=cwd, env=env, stdout=sys.stderr,
    )
    return done.returncode


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for job, spec in workflow["jobs"].items():
            temp = Path(tmp) / job
            temp.mkdir()
            for step in spec["steps"]:
                name = step.get("name") or step.get("run", step.get("uses", "")).splitlines()[0]
                record = {"job": job, "step": name}
                reason = _skip_reason(step)
                if reason is not None:
                    record.update(status="skipped", reason=reason)
                else:
                    start = time.perf_counter()
                    code = _run(job, step, temp)
                    failed += code != 0
                    record.update(status="ran", exit=code,
                                  seconds=round(time.perf_counter() - start, 1))
                print(json.dumps(record), flush=True)
    print(f"{failed} step(s) that ran failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
