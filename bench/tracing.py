"""Per-layer tracing from outside the program.

``Tracer`` replaces the public functions listed in ``LAYERS`` by wrappers
in every loaded ``apth`` module namespace that refers to them, so calls
between apth modules pass through the wrappers too.  Each call becomes a
span (name, start, end, parent span, rep, attributes) kept in memory;
``uninstall`` restores the originals and ``write`` dumps the spans as JSON
lines.  Attributes are read from arguments and results only: counts
marked *computed* in the README come from input shapes, not from inside
the program.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time

import apth.family
import checks

#: layer -> module -> functions wrapped.  The module ``apth._philox`` is
#: named ``philox`` in metric names, which must start with a letter.
LAYERS = {
    "philox": ("apth._philox", ("words",)),
    "coloring": ("apth.coloring", ("batch_has_mono_ap",)),
    "montecarlo": (
        "apth.montecarlo",
        ("estimate_prob", "threshold_search", "scaling_report"),
    ),
    "probability": ("apth.probability", ("exact_prob_mono", "mono_count_distribution")),
    "family": ("apth.family", ("greedy_max_family", "is_almost_disjoint")),
    "cli": ("apth.cli", ("main",)),
}


def _attrs(name: str, args: dict, result, out_before: int | None) -> dict:
    """Counts read from one call's arguments and result."""
    if name == "philox.words":
        return {"words": int(result.size), "bytes": int(result.nbytes)}
    if name == "coloring.batch_has_mono_ap":
        rows, nwords = args["words"].shape
        return {"rows": rows, "row_words": rows * nwords, "hit_rows": int(result.sum())}
    if name == "montecarlo.estimate_prob":
        return {"samples": args["samples"]}
    if name in ("probability.exact_prob_mono", "probability.mono_count_distribution"):
        k, n = args["k"], args["n"]
        return {"colorings": 1 << (n - 1) if n >= k else 0}
    if name == "family.greedy_max_family":
        # every k-AP in [1, n] is offered to the family exactly once
        return {
            "candidates": len(checks.ap_list(args["k"], args["n"])),
            "members": len(result),
        }
    if name == "family.is_almost_disjoint":
        return {"members": len(args["family"])}
    if name == "cli.main" and out_before is not None:
        return {"output_bytes": sys.stdout.tell() - out_before}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.rep = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "rep": self.rep,
            }
            spans.append(span)
            stack.append(span["id"])
            out_before = sys.stdout.tell() if sys.stdout.seekable() else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(_attrs(name, bound.arguments, result, out_before))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        apth_modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "apth"]
        for layer, (module_name, functions) in LAYERS.items():
            module = sys.modules[module_name]
            for fname in functions:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in apth_modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("philox.calls", "count", "lower"),
    ("philox.words", "count", "lower"),
    ("philox.busy_s", "s", "lower"),
    ("philox.words_per_s", "words/s", "higher"),
    ("philox.max_call_bytes", "B", "lower"),
    ("coloring.calls", "count", "lower"),
    ("coloring.rows", "count", "lower"),
    ("coloring.row_words", "count", "lower"),
    ("coloring.hit_rows", "count", "higher"),
    ("coloring.busy_s", "s", "lower"),
    ("coloring.row_words_per_s", "row_words/s", "higher"),
    ("montecarlo.search_calls", "count", "lower"),
    ("montecarlo.estimate_calls", "count", "lower"),
    ("montecarlo.samples", "count", "lower"),
    ("montecarlo.search_self_s", "s", "lower"),
    ("montecarlo.estimate_self_s", "s", "lower"),
    ("probability.calls", "count", "lower"),
    ("probability.colorings", "count", "lower"),
    ("probability.busy_s", "s", "lower"),
    ("probability.colorings_per_s", "colorings/s", "higher"),
    ("family.greedy_candidates", "count", "lower"),
    ("family.greedy_members", "count", "higher"),
    ("family.greedy_accept_ratio", "ratio", "higher"),
    ("family.greedy_busy_s", "s", "lower"),
    ("family.greedy_candidates_per_s", "candidates/s", "higher"),
    ("family.check_calls", "count", "lower"),
    ("family.check_members", "count", "lower"),
    ("family.check_small_s", "s", "lower"),
    ("family.check_large_s", "s", "lower"),
    ("family.check_members_per_s", "members/s", "higher"),
    ("cli.calls", "count", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
)

#: Metrics that are counts of work and must repeat exactly for a seed.
EXACT = tuple(name for name, unit, _ in METRICS if unit in ("count", "B", "ratio"))


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def rep_metrics(spans: list[dict], wall_s: float) -> dict:
    """Every per-layer metric for the spans of one job repetition."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name, key=None):
        # .get: a call that raised has no counts
        return sum(s.get(key, 0) if key else dur(s) for s in by_name.get(name, ()))

    def self_time(name, child_names=None):
        return sum(
            dur(s) - sum(
                dur(c) for c in children.get(s["id"], ())
                if child_names is None or c["name"] in child_names
            )
            for s in by_name.get(name, ())
        )

    words = by_name.get("philox.words", [])
    detect = "coloring.batch_has_mono_ap"
    exact = ("probability.exact_prob_mono", "probability.mono_count_distribution")
    check = "family.is_almost_disjoint"
    fallback = apth.family.ALL_PAIRS_FALLBACK
    small = [s for s in by_name.get(check, ()) if s.get("members", 0) < fallback]
    large = [s for s in by_name.get(check, ()) if s.get("members", 0) >= fallback]
    candidates = total("family.greedy_max_family", "candidates")
    greedy_s = total("family.greedy_max_family")
    members = total("family.greedy_max_family", "members")
    colorings = sum(total(name, "colorings") for name in exact)
    exact_s = sum(total(name) for name in exact)
    check_members = total(check, "members")
    return {
        "philox.calls": len(words),
        "philox.words": total("philox.words", "words"),
        "philox.busy_s": total("philox.words"),
        "philox.words_per_s": _rate(total("philox.words", "words"), total("philox.words")),
        "philox.max_call_bytes": max((s.get("bytes", 0) for s in words), default=0),
        "coloring.calls": len(by_name.get(detect, ())),
        "coloring.rows": total(detect, "rows"),
        "coloring.row_words": total(detect, "row_words"),
        "coloring.hit_rows": total(detect, "hit_rows"),
        "coloring.busy_s": total(detect),
        "coloring.row_words_per_s": _rate(total(detect, "row_words"), total(detect)),
        "montecarlo.search_calls": len(by_name.get("montecarlo.threshold_search", ())),
        "montecarlo.estimate_calls": len(by_name.get("montecarlo.estimate_prob", ())),
        "montecarlo.samples": total("montecarlo.estimate_prob", "samples"),
        "montecarlo.search_self_s": self_time(
            "montecarlo.threshold_search", {"montecarlo.estimate_prob"}
        ),
        "montecarlo.estimate_self_s": self_time(
            "montecarlo.estimate_prob", {"philox.words", detect}
        ),
        "probability.calls": sum(len(by_name.get(name, ())) for name in exact),
        "probability.colorings": colorings,
        "probability.busy_s": exact_s,
        "probability.colorings_per_s": _rate(colorings, exact_s),
        "family.greedy_candidates": candidates,
        "family.greedy_members": members,
        "family.greedy_accept_ratio": members / candidates if candidates else 0.0,
        "family.greedy_busy_s": greedy_s,
        "family.greedy_candidates_per_s": _rate(candidates, greedy_s),
        "family.check_calls": len(by_name.get(check, ())),
        "family.check_members": check_members,
        "family.check_small_s": sum(dur(s) for s in small),
        "family.check_large_s": sum(dur(s) for s in large),
        "family.check_members_per_s": _rate(check_members, total(check)),
        "cli.calls": len(by_name.get("cli.main", ())),
        "cli.busy_s": total("cli.main"),
        "cli.self_s": self_time("cli.main"),
        "cli.output_bytes": total("cli.main", "output_bytes"),
        "trace.wall_s": wall_s,
    }


def summarize(per_rep: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first repetition (they must agree across all of
    them), times and rates as medians over repetitions."""
    failures = [
        f"{name} differs between repetitions: {[m[name] for m in per_rep]}"
        for name in EXACT
        if len({m[name] for m in per_rep}) > 1
    ]
    out = {}
    for name, _, _ in METRICS:
        if name in EXACT:
            out[name] = per_rep[0][name]
        else:
            out[name] = statistics.median(m[name] for m in per_rep)
    return out, failures
