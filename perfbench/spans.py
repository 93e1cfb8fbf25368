"""Spans around calls into sievekit, and the per-layer metrics made from them.

Every call the benchmark makes into a sievekit module goes through
:meth:`Tracer.call`.  With tracing off that is a plain call.  With tracing
on it records one span (name, start, end, parent, operation id) per call,
plus the rise of the ``ru_maxrss`` high-water mark across the call and any
work counts the caller derives from the call's inputs and result.

Spans are recorded only here, in the benchmark, never inside the package:
work a public function does in another module (``linnik_bound`` calling
``largesieve.dual_ls_check``) is charged to the layer that was called.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("arith", "problem", "legendre", "brun", "selberg", "largesieve", "rosser", "cli")

# Public functions the workloads call, per layer; each gets a .busy_s metric.
FUNCTIONS = {
    "arith": ("primes_up_to", "pi_count"),
    "problem": ("build_problem", "exact_sift"),
    "legendre": ("legendre_decompose",),
    "brun": ("pure_sieve_bound",),
    "selberg": ("selberg_upper_bound", "linnik_bound"),
    "largesieve": ("character_table", "multiplicative_ls_check", "additive_ls_check", "farey_points"),
    "rosser": ("buchstab_check", "rosser_identity", "linear_sieve_bound", "parity_extremal", "chen_decomposition"),
    "cli": ("main",),
}

# Functions called at least P50_MIN_CALLS times per round on some workload also get .p50_ms.
P50_FUNCTIONS = (
    "brun.pure_sieve_bound",
    "selberg.selberg_upper_bound",
    "legendre.legendre_decompose",
    "largesieve.character_table",
    "rosser.linear_sieve_bound",
    "rosser.parity_extremal",
    "rosser.chen_decomposition",
    "cli.main",
)
P50_MIN_CALLS = 10

# Work counts, each named <layer>.<count> and summed over a round.
COUNTS = {
    "arith.table_bytes": "bytes",
    "problem.elements": "count",
    "legendre.divisors": "count",
    "brun.divisors": "count",
    "selberg.support": "count",
    "selberg.phase_entries": "count",
    "largesieve.characters": "count",
    "largesieve.table_bytes": "bytes",
    "cli.bytes_out": "bytes",
}


def maxrss_mb() -> float:
    """The process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    round: int
    rss_growth_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans when ``enabled``; otherwise passes calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.round = -1  # -1 marks set-up
        self._op = 0
        self._parent: int | None = None

    def op(self, name: str, fn):
        """Run one benchmark operation; its layer calls become its child spans."""
        if not self.enabled:
            return fn()
        self._op += 1
        span = Span(len(self.spans), f"op.{name}", 0.0, 0.0, None, self._op, self.round)
        self.spans.append(span)
        self._parent = span.id
        span.start = time.perf_counter()
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self._parent = None

    def call(self, fn, *args, counts=None, **kwargs):
        """Call ``fn``; when tracing, record a span named <layer>.<fn name>.

        The layer is the sievekit module that defines ``fn``.
        ``counts(result)`` returns the work counts for this call.  It runs
        after the span has ended, so its cost is not charged to the layer.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        rss0 = maxrss_mb()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(
                len(self.spans), f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", start, end, self._parent,
                self._op, self.round, maxrss_mb() - rss0,
            ))
        if counts is not None:
            self.spans[-1].counts = counts(result)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = "s"
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.rss_growth_mb"] = "MB"
        for fn in FUNCTIONS[layer]:
            out[f"{layer}.{fn}.busy_s"] = "s"
    for name in P50_FUNCTIONS:
        out[f"{name}.p50_ms"] = "ms"
    out.update(COUNTS)
    out["trace.overhead_s"] = "s"
    return out


def per_layer_metrics(spans: list[Span], traced_rounds: list[int], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Times and counts are per round: the spans of one set-up pass added to
    those of one traced round, with the median taken over traced rounds.
    ``rss_growth_mb`` sums over the whole run, since the high-water mark
    only rises once.  ``p50_ms`` is the median call time over all traced
    rounds, reported when there are at least ``P50_MIN_CALLS`` calls per
    round and 0 otherwise.
    """
    calls = [s for s in spans if not s.name.startswith("op.")]
    setup = [s for s in calls if s.round == -1]
    per_round: list[dict[str, float]] = []
    for rnd in traced_rounds:
        totals: dict[str, float] = {}
        for s in setup + [s for s in calls if s.round == rnd]:
            dur = s.end - s.start
            for key, val in ((f"{s.layer}.busy_s", dur), (f"{s.layer}.calls", 1), (f"{s.name}.busy_s", dur)):
                totals[key] = totals.get(key, 0.0) + val
            for key, val in s.counts.items():
                totals[key] = totals.get(key, 0.0) + val
        per_round.append(totals)

    out = {}
    for name in per_layer_names():
        if name.endswith(".rss_growth_mb"):
            layer = name.split(".", 1)[0]
            out[name] = sum(s.rss_growth_mb for s in calls if s.layer == layer)
        elif name.endswith(".p50_ms"):
            fn = name[: -len(".p50_ms")]
            durs = [(s.end - s.start) * 1e3 for s in calls if s.name == fn and s.round in traced_rounds]
            enough = len(durs) >= P50_MIN_CALLS * len(traced_rounds)
            out[name] = statistics.median(durs) if enough else 0.0
        elif name == "trace.overhead_s":
            out[name] = overhead_s
        else:
            out[name] = statistics.median(r.get(name, 0.0) for r in per_round)
    return out
