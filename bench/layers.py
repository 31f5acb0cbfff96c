"""Per-layer trace of one CLI run inside the benchmark's own process.

The package stays untouched: for the length of one `cli.main(argv)` call,
`Tracer.installed` replaces public functions at the names the package
looks up at call time with timing wrappers, and restores them afterwards.
Timed runs never see these wrappers; they run in a separate process.

Each wrapper records a span. Spans nest through a stack, and a span's
self time is its duration minus the durations of the spans it directly
contains, so self times partition the time covered by top-level spans.
Only totals per span name are kept, which keeps a run of a million
spans small.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

#: Span names that more than one wrapper records.
LEAF_CHECK = "hypergraph.leaf_check"
CHILD_BUILD = "hypergraph.child"
SINK = "cli.sink"
FILTER = "compression.filter"


class Tracer:
    """Aggregated spans of one run: calls, total and self time per name."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans as [name, seconds in child spans]
        self.calls: Counter[str] = Counter()
        self.parent_calls: Counter[tuple[str, str]] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.first_start: dict[str, float] = {}
        self.top_s = 0.0
        self.empty_subproblems = 0
        self.missing: list[str] = []

    def span(self, name: str, fn, sink_span: str | None = None):
        """fn wrapped in a span; with sink_span, its sink argument is wrapped too."""
        stack = self.stack

        def traced(*args, **kwargs):
            if sink_span is not None:
                if "sink" in kwargs:
                    kwargs["sink"] = self.span(sink_span, kwargs["sink"])
                else:
                    args = (args[0], self.span(sink_span, args[1]), *args[2:])
            frame = [name, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - started
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - frame[1]
                self.first_start.setdefault(name, started)
                if stack:
                    stack[-1][1] += took
                    self.parent_calls[stack[-1][0], name] += 1
                else:
                    self.top_s += took

        return traced

    def inner_engine(self, name: str, fn):
        """compression's inner engine: one subproblem per call, counted empty
        when it hands no candidate to the final filter."""
        traced = self.span("compression.inner", self.span(name, fn, sink_span=FILTER))

        def run(*args, **kwargs):
            before = self.calls[FILTER]
            try:
                return traced(*args, **kwargs)
            finally:
                if self.calls[FILTER] == before:
                    self.empty_subproblems += 1

        return run

    @contextlib.contextmanager
    def installed(self):
        """Wrap the run path's public functions for the duration of the block."""
        from transversals import cli, compression, hypergraph, rank3

        wrap = {
            (cli, "parse_hypergraph"): lambda f: self.span("cli.parse", f),
            (cli, "enumerate_rank3"): lambda f: self.span("rank3.search", f, SINK),
            (cli, "enumerate_rankk"): lambda f: self.span("rankk.search", f, SINK),
            (cli, "enumerate_compression"): lambda f: self.span("compression.search", f, SINK),
            (compression, "enumerate_rank3"): lambda f: self.inner_engine("rank3.search", f),
            (compression, "enumerate_rankk"): lambda f: self.inner_engine("rankk.search", f),
            (compression, "project"): lambda f: self.span("compression.project", f),
            (rank3, "next_rule"): lambda f: self.span("rank3.next_rule", f),
            (rank3, "apply_rule"): lambda f: self.span("rank3.apply_rule", f),
            (hypergraph.Instance, "select"): lambda f: self.span(CHILD_BUILD, f),
            (hypergraph.Instance, "discard"): lambda f: self.span(CHILD_BUILD, f),
            (hypergraph.Instance, "drop_edge"): lambda f: self.span(CHILD_BUILD, f),
            (hypergraph.Hypergraph, "is_transversal"): lambda f: self.span("hypergraph.scan_check", f),
            (hypergraph.Hypergraph, "is_minimal_transversal"): lambda f: self.span(LEAF_CHECK, f),
        }
        saved = []
        try:
            for (owner, attr), make in wrap.items():
                original = owner.__dict__.get(attr)
                if original is None:
                    # A renamed or removed function leaves its layer at zero.
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of a traced run whose `cli.main` call took wall_s."""
        calls, total, own = self.calls, self.total_s, self.self_s
        if "compression.project" in self.first_start:
            phase1_s = self.first_start["compression.project"] - self.first_start["compression.search"]
        else:
            phase1_s = total["compression.search"]
        return {
            "rank3.next_rule_s": total["rank3.next_rule"],
            "rank3.next_rule_calls": calls["rank3.next_rule"],
            "rank3.apply_rule_self_s": own["rank3.apply_rule"],
            "rank3.self_s": own["rank3.search"],
            "rankk.self_s": own["rankk.search"],
            "compression.phase1_subsets": calls["hypergraph.scan_check"]
            + self.parent_calls["compression.search", LEAF_CHECK],
            "compression.phase1_s": phase1_s,
            "compression.subproblems": calls["compression.inner"],
            "compression.project_s": total["compression.project"],
            "compression.inner_s": total["compression.inner"],
            "compression.empty_subproblems": self.empty_subproblems,
            "compression.filter_checks": calls[FILTER],
            "compression.filter_rejects": calls[FILTER] - self.parent_calls[FILTER, SINK],
            "hypergraph.child_s": total[CHILD_BUILD],
            "hypergraph.child_calls": calls[CHILD_BUILD],
            "hypergraph.leaf_check_s": total[LEAF_CHECK],
            "hypergraph.leaf_check_calls": calls[LEAF_CHECK],
            "cli.sink_s": total[SINK],
            "cli.parse_s": total["cli.parse"],
            "trace.unattributed_frac": (wall_s - self.top_s) / wall_s,
        }

    def reconciles(self, wall_s: float, tolerance: float = 1e-6) -> bool:
        """Self times plus the unattributed rest must add up to wall_s."""
        unattributed = wall_s - self.top_s
        return unattributed >= 0 and abs(sum(self.self_s.values()) + unattributed - wall_s) <= tolerance * wall_s
