"""Per-layer tracing of a tagwalk run from outside the package.

The traced child installs wrappers, with ``setattr``, at the names that
callers inside tagwalk actually look up, then calls ``tagwalk.cli.main``.
Each wrapped call records a span (name, start, end, parent) in memory; the
spans are written out when the child exits and turned into per-layer
metrics by :func:`layer_metrics`.  Counts come from the wrapped calls'
arguments, return values and output file sizes.

A target that no longer exists (a function renamed or removed by a later
refactor) is recorded as absent and skipped, never raised.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time
from dataclasses import dataclass

_MB = 1024.0  # ru_maxrss is in KiB on Linux


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Counters: (tracer, args, kwargs, result) -> None, run outside the span
# ---------------------------------------------------------------------------

def _substrate_graph(t, args, kwargs, g):
    t.counts["substrate.edges"] = g.edge_count


def _substrate_written(t, args, kwargs, _):
    t.add("substrate.bytes_written", os.path.getsize(args[1]))


def _ensemble(t, args, kwargs, ens):
    t.counts["walker.walks"] = ens.walk_count
    t.counts["walker.trace_nodes"] = int(ens.nodes.size)


def _pairs(t, args, kwargs, result):
    t.counts["walker.pairs"] = int(result[0].size)


def _vocabulary(t, args, kwargs, result):
    if result[1].size:
        t.counts["walker.vocabulary"] = int(result[1][-1])


def _cooc_graph(t, args, kwargs, g):
    t.counts["cooc.nodes"] = g.node_count
    t.counts["cooc.edges"] = g.edge_count
    t.counts["cooc.total_weight"] = g.total_weight


def _cooc_written(t, args, kwargs, _):
    t.add("cooc.bytes_written", os.path.getsize(args[1]))


def _spgemm_flops(t, args, kwargs, _):
    # A@A over a graph with degrees k costs sum_i k_i^2 multiply-adds.
    k = args[0].degrees()
    t.add("observables.spgemm_flops_computed", int((k * k).sum()))


def _similarity(t, args, kwargs, hist):
    t.add("observables.similarity_pairs", hist.pair_count)
    t.counts["observables.similarity_sampled"] = int(hist.sampled)


def _theory_points(t, args, kwargs, _):
    n_rw = args[1] if len(args) > 1 else kwargs["n_rw"]
    t.add("theory.points", int(getattr(n_rw, "size", 1)))


def _parsed(t, args, kwargs, result):
    report = result[1]
    t.counts["ingest.lines"] = report.total_lines
    t.counts["ingest.accepted"] = report.accepted
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        t.counts["ingest.input_bytes"] = os.path.getsize(source)


def _focus(t, args, kwargs, stream):
    t.counts["ingest.focus_posts"] = len(stream)


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One wrapped name and the metrics reported for it.

    ``where`` is ``module:attribute`` or ``module:Class.method``, the name
    a caller inside tagwalk resolves at call time.
    """

    where: str
    metric: str
    self_time: bool = False
    calls: bool = False
    rss: bool = False
    counter: object = None


TARGETS = (
    Target("tagwalk.pipeline:build_graph", "substrate.build_graph",
           counter=_substrate_graph),
    Target("tagwalk.substrate:SubstrateGraph.write_edge_list",
           "substrate.write_edge_list", counter=_substrate_written),
    Target("tagwalk.substrate:SubstrateGraph.read_edge_list",
           "substrate.read_edge_list", calls=True, counter=_substrate_graph),
    Target("tagwalk.pipeline:bfs_rings", "substrate.bfs_rings"),
    Target("tagwalk.walker:simulate_walks", "walker.simulate_walks",
           counter=_ensemble),
    Target("tagwalk.walker:WalkEnsemble.walk_node_pairs",
           "walker.walk_node_pairs", calls=True, rss=True, counter=_pairs),
    Target("tagwalk.walker:heaps_curve", "walker.heaps_curve",
           counter=_vocabulary),
    Target("tagwalk.walker:node_frequencies", "walker.node_frequencies",
           self_time=True),
    Target("tagwalk.walker:WalkEnsemble.write_traces", "walker.write_traces"),
    Target("tagwalk.walker:WalkEnsemble.read_traces", "walker.read_traces",
           calls=True, counter=_ensemble),
    Target("tagwalk.cooc:build_from_traces", "cooc.build_from_traces",
           self_time=True, counter=_cooc_graph),
    Target("tagwalk.ingest:build_from_posts", "cooc.build_from_posts",
           counter=_cooc_graph),
    Target("tagwalk.cooc:CoocGraph.write_edge_list",
           "cooc.CoocGraph.write_edge_list", counter=_cooc_written),
    Target("tagwalk.cooc:CoocGraph.read_edge_list",
           "cooc.CoocGraph.read_edge_list", rss=True, counter=_cooc_graph),
    Target("tagwalk.observables:degree_strength_weight_distributions",
           "observables.degree_strength_weight_distributions"),
    Target("tagwalk.observables:s_of_k", "observables.s_of_k"),
    Target("tagwalk.observables:knn_of_k", "observables.knn_of_k"),
    Target("tagwalk.observables:clustering_of_k", "observables.clustering_of_k",
           rss=True, counter=_spgemm_flops),
    Target("tagwalk.observables:weight_vs_kikj", "observables.weight_vs_kikj"),
    Target("tagwalk.observables:cosine_similarity_distribution",
           "observables.cosine_similarity_distribution", rss=True,
           counter=_similarity),
    Target("tagwalk.observables:frequency_rank", "observables.frequency_rank"),
    Target("tagwalk.observables:assert_accounting",
           "observables.assert_accounting"),
    Target("tagwalk.observables:fit_power_law", "observables.fit_power_law"),
    Target("tagwalk.theory:n_distinct_random_length",
           "theory.n_distinct_random_length", counter=_theory_points),
    Target("tagwalk.ingest:parse_posts", "ingest.parse_posts", rss=True,
           counter=_parsed),
    Target("tagwalk.ingest:filter_by_tag", "ingest.filter_by_tag",
           counter=_focus),
    Target("tagwalk.ingest:vocabulary_growth", "ingest.vocabulary_growth"),
    Target("tagwalk.ingest:empirical_cooc", "ingest.empirical_cooc",
           self_time=True),
    Target("tagwalk.ingest:tag_post_counts", "ingest.tag_post_counts"),
    Target("tagwalk.ingest:Corpus.write_jsonl", "ingest.Corpus.write_jsonl"),
    Target("tagwalk.pipeline:write_csv", "formats.write_csv", calls=True),
    Target("tagwalk.pipeline:read_csv", "formats.read_csv"),
    Target("tagwalk.pipeline:write_json", "formats.write_json"),
    Target("tagwalk.pipeline:sha256_of", "formats.sha256_of"),
)

ROOT_SPAN = "cli.main"
# Counter callbacks run in a span of their own, so their cost lands in the
# tracing overhead and not in the self time of the caller.
COUNT_SPAN = "trace.count"

# Counts taken directly from the wrapped calls, and ratios derived from them.
COUNTS = (
    "substrate.edges", "substrate.bytes_written",
    "walker.walks", "walker.trace_nodes", "walker.pairs", "walker.vocabulary",
    "cooc.nodes", "cooc.edges", "cooc.total_weight", "cooc.bytes_written",
    "observables.similarity_pairs", "observables.similarity_sampled",
    "observables.spgemm_flops_computed",
    "theory.points",
    "ingest.lines", "ingest.accepted", "ingest.focus_posts",
    "ingest.input_bytes",
)
RATIOS = {
    "walker.dedup_ratio": ("walker.pairs", "walker.trace_nodes"),
    "cooc.edge_yield": ("cooc.edges", "cooc.total_weight"),
    "ingest.accept_ratio": ("ingest.accepted", "ingest.lines"),
}


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------

def _resolve(where: str):
    """(owner, attribute, raw class attribute or None) for a target name."""
    module_name, _, path = where.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        raw = owner.__dict__[attr]  # KeyError when not defined on the class
        return owner, attr, raw
    getattr(owner, attr)
    return owner, attr, None


class Tracer:
    """Span recorder plus the counters filled in by wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.rss_rise_kib: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []   # indices of the open spans

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, target: Target):
        name = target.metric

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _maxrss_kib() if target.rss else 0
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if target.rss:
                self.rss_rise_kib[name] = (self.rss_rise_kib.get(name, 0)
                                           + _maxrss_kib() - rss_before)
            if target.counter is not None:
                index = self.begin(COUNT_SPAN)
                try:
                    target.counter(self, args, kwargs, result)
                finally:
                    self.end(index)
            return result
        return traced

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                owner, attr, raw = _resolve(target.where)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target.where)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(self.wrap(raw.__func__, target)))
            else:
                setattr(owner, attr, self.wrap(getattr(owner, attr), target))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "rss_rise_kib": self.rss_rise_kib, "absent": self.absent}


# ---------------------------------------------------------------------------
# Spans to metrics
# ---------------------------------------------------------------------------

def span_times(spans) -> dict[str, dict[str, float]]:
    """Inclusive time, self time and call count per span name.

    A span's self time is its duration minus the durations of its child
    spans.  Every wrapped function runs on the main thread and none of
    them calls itself, so child spans never overlap and a name never
    nests inside itself.
    """
    child_time: dict[int, float] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - child_time.get(index, 0.0)
    return out


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: list[tuple[str, str]] = []
    for t in TARGETS:
        names.append((f"{t.metric}.s", "s"))
        if t.self_time:
            names.append((f"{t.metric}.self_s", "s"))
        if t.calls:
            names.append((f"{t.metric}.calls", "count"))
        if t.rss:
            names.append((f"{t.metric}.rss_rise_mb", "MB"))
    for key in COUNTS:
        names.append((key, "bytes" if key.endswith("bytes_written")
                      or key.endswith("input_bytes") else "count"))
    for key in RATIOS:
        names.append((key, "ratio"))
    names += [(f"{ROOT_SPAN}.self_s", "s"), ("trace.overhead_s", "s"),
              ("trace.absent", "count")]
    return names


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child from its :meth:`Tracer.dump`.

    Functions never called report 0, so every metric is always present.
    ``trace.overhead_s`` needs the untraced wall time and is filled in by
    the caller.
    """
    times = span_times(dump["spans"])
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    out: dict[str, float] = {}
    for t in TARGETS:
        rec = times.get(t.metric, zero)
        out[f"{t.metric}.s"] = rec["s"]
        if t.self_time:
            out[f"{t.metric}.self_s"] = rec["self_s"]
        if t.calls:
            out[f"{t.metric}.calls"] = rec["calls"]
        if t.rss:
            out[f"{t.metric}.rss_rise_mb"] = \
                dump["rss_rise_kib"].get(t.metric, 0) / _MB
    counts = dump["counts"]
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    for key, (num, den) in RATIOS.items():
        out[key] = counts[num] / counts[den] if counts.get(den) else 0.0
    out[f"{ROOT_SPAN}.self_s"] = times.get(ROOT_SPAN, zero)["self_s"]
    out["trace.absent"] = len(dump["absent"])
    return out
