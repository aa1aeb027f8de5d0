"""Random-walk ensembles on a substrate graph.

Every walk starts at a fixed origin, draws its length (number of steps)
from a shared distribution, and then moves to uniformly random neighbors.
Each walk consumes an independent counter-based random stream keyed by
``(master_seed, walk_index)``: counter 0 feeds the length draw and counter
``t`` feeds step ``t``.  Because no state is shared between walks, the
ensemble is reproducible node-for-node regardless of batching, and a
one-walk scalar loop can replay any walk exactly (the test suite's
``naive_reference.run_walk`` does).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import substrate
from .errors import ContractError, ParameterError
from .formats import read_int_rows, write_int_rows
from .rng import stream_uniforms, walk_seeds
from .substrate import SubstrateGraph, sorted_unique

__all__ = [
    "FixedLength",
    "PowerLawLength",
    "LengthDist",
    "sample_lengths",
    "length_pmf",
    "WalkConfig",
    "WalkEnsemble",
    "simulate_walks",
    "run_ensemble",
    "heaps_checkpoints",
    "heaps_curve",
    "node_frequencies",
]

log = logging.getLogger(__name__)

# Walks are generated in fixed-size index blocks, one after another, so that
# the per-walk state of a step (position, stream, neighbor draw) is held for
# one block at a time, not for the whole ensemble.
BLOCK_SIZE = 16384


# ---------------------------------------------------------------------------
# Walk-length distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedLength:
    """Every walk takes exactly ``value`` steps."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError("value must be >= 0")


@dataclass(frozen=True)
class PowerLawLength:
    """Discrete power law P(l) proportional to l**(-exponent) on [l_min, l_max]."""

    exponent: float = 3.0
    l_min: int = 1
    l_max: int = 1000

    def __post_init__(self):
        if not (1 <= self.l_min <= self.l_max):
            raise ParameterError("need 1 <= l_min <= l_max")


LengthDist = Union[FixedLength, PowerLawLength]


@dataclass(frozen=True, kw_only=True)
class WalkConfig:
    """Everything that determines an ensemble besides the substrate."""

    origin: int = 0
    n_rw: int
    lengths: LengthDist = PowerLawLength()
    seed: int
    count_origin: bool = True
    non_backtracking: bool = False

    def __post_init__(self):
        if self.origin < 0:
            raise ParameterError("origin must be >= 0")
        if self.n_rw < 0:
            raise ParameterError("n_rw must be >= 0")


@lru_cache(maxsize=32)
def _length_cdf(dist: LengthDist) -> tuple[np.ndarray, np.ndarray]:
    values, pmf = length_pmf(dist)
    return values, np.cumsum(pmf)


def sample_lengths(dist: LengthDist, u):
    """Map uniforms in [0, 1) to lengths by inverting the distribution's CDF."""
    values, cdf = _length_cdf(dist)
    return values[np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)]


def length_pmf(dist: LengthDist) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the length distribution."""
    if isinstance(dist, FixedLength):
        return (np.asarray([dist.value], dtype=np.int64),
                np.asarray([1.0], dtype=np.float64))
    values = np.arange(dist.l_min, dist.l_max + 1, dtype=np.int64)
    weights = values.astype(np.float64) ** (-dist.exponent)
    return values, weights / weights.sum()


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkEnsemble:
    """Concatenated traces of an ordered collection of walks.

    Walk ``w`` visited ``nodes[offsets[w]:offsets[w+1]]`` in step order,
    origin first.  A walk of length ``l`` therefore spans ``l + 1`` entries.
    """

    origin: int
    node_count: int
    offsets: np.ndarray  # int64, (walk_count + 1,)
    nodes: np.ndarray    # int32 flat traces

    @property
    def walk_count(self) -> int:
        return self.offsets.size - 1

    def walk_node_pairs(self, count_origin: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (walk_id, node) pairs, walk-major, nodes ascending."""
        n = self.node_count
        keys = np.repeat(np.arange(self.walk_count, dtype=np.int64) * n, np.diff(self.offsets))
        keys += self.nodes
        if not count_origin:
            keys = keys[self.nodes != self.origin]
        return np.divmod(sorted_unique(keys), n)

    # -- trace file: one walk per line, node ids space-separated --

    def write_traces(self, path) -> None:
        seps = np.full(self.nodes.size, ord(" "), dtype=np.uint8)
        seps[self.offsets[1:] - 1] = ord("\n")
        with open(path, "wb") as fh:
            write_int_rows(fh, self.nodes, seps)

    @classmethod
    def read_traces(cls, path, graph: SubstrateGraph | int, origin: int) -> "WalkEnsemble":
        """Load a trace file of walks on ``graph`` that all start at ``origin``.

        ``graph`` is the substrate, or only its node count.  Ids must lie in
        ``[0, node_count)``, and when the substrate is given each step must
        follow one of its edges; violations raise ``ContractError`` at
        ``path:line``.  An empty file holds no walks, and is read only if
        ``origin`` is a node.
        """
        _, nodes, lengths, lines = read_int_rows(path)
        limit = graph if isinstance(graph, int) else graph.node_count
        if lengths.size == 0 and not 0 <= origin < limit:
            raise ContractError(f"{path}: no walks found and no origin in [0, {limit}) given")
        offsets = np.concatenate([[0], np.cumsum(lengths)])

        def fail(pos: int, message: str) -> ContractError:
            walk = np.searchsorted(offsets, pos, side="right") - 1
            return ContractError(f"{path}:{lines[walk]}: {message}")

        bad = np.flatnonzero((nodes < 0) | (nodes >= limit))
        if bad.size:
            raise fail(bad[0], f"node id {nodes[bad[0]]} outside [0, {limit})")
        bad = offsets[:-1][nodes[offsets[:-1]] != origin]
        if bad.size:
            raise fail(bad[0], f"walk starts at node {nodes[bad[0]]}, not at the origin {origin}")
        if not isinstance(graph, int):
            # the steps from positions [lo, hi), a block at a time, so that the
            # probes' memory scales with one block, not with the file
            for lo in range(0, nodes.size, substrate._KEY_BLOCK):
                hi = min(lo + substrate._KEY_BLOCK, nodes.size)
                steps = np.ones(hi - lo, dtype=bool)
                # no step from the last node of a walk, at each offset in (lo, hi] less one
                ends = offsets[np.searchsorted(offsets, lo, "right"):
                               np.searchsorted(offsets, hi, "right")]
                steps[ends - 1 - lo] = False
                steps = np.flatnonzero(steps) + lo
                bad = steps[~graph.has_edges(nodes[steps], nodes[steps + 1])]
                if bad.size:
                    raise fail(bad[0], f"step {nodes[bad[0]]} -> {nodes[bad[0] + 1]} "
                                       "is not a substrate edge")
        return cls(origin=int(origin), node_count=limit, offsets=offsets,
                   nodes=nodes.astype(np.int32))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _walk_block(graph: SubstrateGraph, origin: int, seeds: np.ndarray,
                lengths: np.ndarray, non_backtracking: bool) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one block of walks; returns (trace lengths, flat nodes) in walk order."""
    n = seeds.size
    if graph.degree(origin) == 0:
        # stuck at an isolated origin: every trace collapses to one node
        if np.any(lengths > 0):
            log.warning("origin %d is isolated; walks truncated to [origin]", origin)
        return np.ones(n, dtype=np.int64), np.full(n, origin, dtype=np.int32)
    spans = lengths + 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(spans, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int32)
    flat[offsets[:-1]] = origin

    order = np.argsort(-lengths, kind="stable")
    seeds_s = seeds[order]
    neg_lengths = -lengths[order]           # ascending
    base = offsets[:-1][order]              # origin slot of each sorted walk
    longest = int(lengths[order[0]])

    indptr, indices = graph.indptr, graph.indices
    pos = np.full(n, origin, dtype=np.int64)
    prev = np.full(n, -1, dtype=np.int64)
    for t in range(longest):
        na = int(np.searchsorted(neg_lengths, -t, side="left"))   # >= 1: t < longest
        u = stream_uniforms(seeds_s[:na], t + 1)
        cur = pos[:na]
        start = indptr[cur]
        deg = indptr[cur + 1] - start
        if non_backtracking and t > 0:
            k = np.maximum(np.minimum((u * (deg - 1)).astype(np.int64), deg - 2), 0)
            cand = indices[start + k].astype(np.int64)
            last = indices[start + deg - 1].astype(np.int64)
            nxt = np.where(cand == prev[:na], last, cand)
        else:
            choice = np.minimum((u * deg).astype(np.int64), deg - 1)
            nxt = indices[start + choice].astype(np.int64)
        flat[base[:na] + (t + 1)] = nxt
        prev[:na] = cur
        pos[:na] = nxt
    return spans, flat


def simulate_walks(graph: SubstrateGraph, origin: int, n_walks: int,
                   lengths: LengthDist, seed: int,
                   non_backtracking: bool = False) -> WalkEnsemble:
    """Run ``n_walks`` independent walks from ``origin``."""
    if not (0 <= origin < graph.node_count):
        raise ParameterError(f"origin {origin} out of range")
    if n_walks < 0:
        raise ParameterError("n_walks must be >= 0")
    spans, flat = [np.zeros(1, dtype=np.int64)], [np.empty(0, dtype=np.int32)]
    for start in range(0, n_walks, BLOCK_SIZE):
        seeds = walk_seeds(seed, start, min(BLOCK_SIZE, n_walks - start))
        block_lengths = sample_lengths(lengths, stream_uniforms(seeds, 0))
        block_spans, block_nodes = _walk_block(graph, origin, seeds, block_lengths,
                                               non_backtracking)
        spans.append(block_spans)
        flat.append(block_nodes)
    return WalkEnsemble(origin=origin, node_count=graph.node_count,
                        offsets=np.cumsum(np.concatenate(spans)), nodes=np.concatenate(flat))


# ---------------------------------------------------------------------------
# Ensemble summaries
# ---------------------------------------------------------------------------

def heaps_checkpoints(n_walks: int) -> np.ndarray:
    """Ensemble sizes at which to record vocabulary growth.

    Dense coverage up to 1000 walks, then about 50 points per decade, always
    including the final size.
    """
    parts = [np.arange(1, min(n_walks, 1000) + 1, dtype=np.int64)]
    if n_walks > 1000:
        span = np.log10(n_walks) - 3.0
        num = max(2, int(np.ceil(span * 50)) + 1)
        parts.append(np.round(np.logspace(3.0, np.log10(n_walks), num=num)).astype(np.int64))
        parts.append(np.asarray([n_walks], dtype=np.int64))
    pts = sorted_unique(np.concatenate(parts))
    return pts[pts <= n_walks]


def heaps_curve(walk_ids: np.ndarray, nodes: np.ndarray, walk_count: int,
                checkpoints: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct visited nodes as a function of the number of walks.

    Takes the (walk, node) pairs of :meth:`WalkEnsemble.walk_node_pairs`
    over ``walk_count`` walks and returns ``(n_rw, n_distinct)`` sampled at
    ``checkpoints`` (1-based walk counts).
    """
    if checkpoints is None:
        checkpoints = heaps_checkpoints(walk_count)
    checkpoints = np.asarray(checkpoints, dtype=np.int64)
    if np.any((checkpoints < 1) | (checkpoints > walk_count)):
        raise ParameterError("checkpoints must lie in [1, walk_count]")
    # pairs are walk-major, so a node's first pair is in its first walk
    _, first = np.unique(nodes, return_index=True)
    new_per_walk = np.bincount(walk_ids[first], minlength=walk_count)
    return checkpoints, np.cumsum(new_per_walk)[checkpoints - 1]


def node_frequencies(nodes: np.ndarray, node_count: int) -> np.ndarray:
    """Number of walks whose trace contains each node, from the pairs' ``nodes``."""
    return np.bincount(nodes, minlength=node_count).astype(np.int64)


def run_ensemble(graph: SubstrateGraph, config: WalkConfig
                 ) -> tuple[WalkEnsemble, tuple[np.ndarray, np.ndarray],
                            tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Simulate a configured ensemble and summarize it.

    Returns the ensemble, its (walk, node) pairs, the vocabulary-growth
    curve ``(n_rw, n_distinct)`` and the per-node visit frequencies; the
    curve and the frequencies are read off the pairs.
    """
    ens = simulate_walks(graph, config.origin, config.n_rw, config.lengths,
                         config.seed, non_backtracking=config.non_backtracking)
    pairs = ens.walk_node_pairs(count_origin=config.count_origin)
    return (ens, pairs, heaps_curve(*pairs, ens.walk_count),
            node_frequencies(pairs[1], graph.node_count))
