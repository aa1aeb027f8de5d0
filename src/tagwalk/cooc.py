"""Weighted co-occurrence networks built by clique projection.

Each walk trace (or each post's tag set) contributes a clique over its
distinct members; an edge weight counts the distinct walks or posts in
which the pair appeared together.  Weights are exact integers.  Graphs
built over disjoint chunks of input merge into exactly the graph a
single pass would produce, which is what makes parallel reduction safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ParameterError
from .formats import declared_nodes, read_int_table, write_int_rows
from .substrate import sorted_unique
from .walker import WalkEnsemble

__all__ = ["CoocGraph", "build_from_traces", "build_from_posts"]


@dataclass(frozen=True)
class CoocGraph:
    """Undirected integer-weighted graph over a vocabulary of nodes.

    ``node_ids`` lists every vocabulary member (isolated ones included),
    sorted ascending.  Edges reference original ids with ``src < dst``,
    sorted lexicographically.  ``labels``, when present, maps a vocabulary
    of strings onto ids 0..len(labels)-1.
    """

    node_ids: np.ndarray          # int64, sorted, unique
    src: np.ndarray               # int64
    dst: np.ndarray               # int64
    weights: np.ndarray           # int64, >= 1
    labels: tuple[str, ...] | None = None

    @property
    def node_count(self) -> int:
        return self.node_ids.size

    @property
    def edge_count(self) -> int:
        return self.src.size

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    def compact_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as positions into ``node_ids``."""
        return (np.searchsorted(self.node_ids, self.src),
                np.searchsorted(self.node_ids, self.dst))

    def degrees(self) -> np.ndarray:
        eu, ev = self.compact_edges()
        both = np.concatenate([eu, ev])
        return np.bincount(both, minlength=self.node_count).astype(np.int64)

    def strengths(self) -> np.ndarray:
        eu, ev = self.compact_edges()
        s = np.zeros(self.node_count, dtype=np.int64)
        np.add.at(s, eu, self.weights)
        np.add.at(s, ev, self.weights)
        return s

    def validate(self) -> None:
        if self.node_ids.size and np.any(np.diff(self.node_ids) <= 0):
            raise ContractError("node_ids must be sorted and unique")
        if self.node_ids.size and self.node_ids[0] < 0:
            raise ContractError(f"negative node id {self.node_ids[0]}")
        if not (self.src.size == self.dst.size == self.weights.size):
            raise ContractError("edge arrays disagree in length")
        if self.src.size == 0:
            return
        if np.any(self.weights < 1):
            raise ContractError("weights must be >= 1")
        if np.any(self.src >= self.dst):
            raise ContractError("edges must satisfy src < dst")
        keys = self.src * (self.node_ids[-1] + 1) + self.dst
        if np.any(np.diff(keys) <= 0):
            raise ContractError("edges must be sorted and unique")
        present = np.isin(np.concatenate([self.src, self.dst]), self.node_ids)
        if not present.all():
            raise ContractError("edge endpoint outside node set")

    # -- file format: "# nodes=<n> edges=<m> total_weight=<W>", then "i<TAB>j<TAB>w" --

    def write_edge_list(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(f"# nodes={self.node_count} edges={self.edge_count} "
                     f"total_weight={self.total_weight}\n".encode("ascii"))
            write_int_rows(fh, np.stack([self.src, self.dst, self.weights], axis=1),
                           b"\t\t\n")

    def write_labels(self, path) -> None:
        """Companion id-to-label table for graphs built from tag posts."""
        if self.labels is None:
            raise ParameterError("graph carries no labels")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tlabel\n")
            for i, lab in enumerate(self.labels):
                fh.write(f"{i}\t{lab}\n")

    @classmethod
    def read_edge_list(cls, path) -> "CoocGraph":
        headers, table = read_int_table(path, 3)
        src, dst, weights = table.T.copy()
        # isolated vocabulary members are not recoverable from an edge list;
        # the node set is the set of edge endpoints
        node_ids = sorted_unique(np.concatenate([src, dst]))
        g = cls(node_ids=node_ids, src=src, dst=dst, weights=weights)
        try:
            g.validate()
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None
        header_nodes = declared_nodes(path, headers)
        if header_nodes is not None and node_ids.size > header_nodes:
            raise ContractError(f"{path}: more endpoints than declared nodes")
        return g


# ---------------------------------------------------------------------------
# Pair counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(m, k=1)

_EMPTY = np.empty(0, dtype=np.int64)


def _count_pairs(group_ids: np.ndarray, members: np.ndarray,
                 scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate unordered pairs within each group of ``members``.

    ``members`` must be grouped by ``group_ids`` (non-decreasing) and sorted
    ascending inside each group.  Returns (src, dst, weights) with src < dst.
    """
    if members.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    _, counts = np.unique(group_ids, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    key_chunks: list[np.ndarray] = []
    for m in sorted_unique(counts):
        m = int(m)
        if m < 2:
            continue
        sel = starts[counts == m]
        rows = members[sel[:, None] + np.arange(m)]
        iu, ju = _triu_pairs(m)
        key_chunks.append((rows[:, iu] * scale + rows[:, ju]).ravel())
    if not key_chunks:
        return _EMPTY, _EMPTY, _EMPTY
    keys, weights = np.unique(np.concatenate(key_chunks), return_counts=True)
    return keys // scale, keys % scale, weights.astype(np.int64)


def build_from_traces(traces: WalkEnsemble | Iterable[Sequence[int]],
                      count_origin: bool = True,
                      node_count: int | None = None) -> CoocGraph:
    """Project walk traces into a weighted co-occurrence graph.

    Every trace contributes one clique over its distinct visited nodes
    (origin excluded when ``count_origin`` is false); each pair gains
    weight 1 per contributing trace, revisits within a trace count once.
    """
    if not isinstance(traces, WalkEnsemble):
        traces = _ensemble_from_sequences(traces, node_count)
    walk_ids, nodes = traces.walk_node_pairs(count_origin=count_origin)
    vocabulary = sorted_unique(nodes)
    src, dst, weights = _count_pairs(walk_ids, nodes, traces.node_count)
    g = CoocGraph(node_ids=vocabulary, src=src, dst=dst, weights=weights)
    g.validate()
    return g


def _ensemble_from_sequences(traces: Iterable[Sequence[int]],
                             node_count: int | None) -> WalkEnsemble:
    seqs = [np.asarray(t, dtype=np.int32) for t in traces]
    if not seqs:
        return WalkEnsemble(origin=0, node_count=node_count or 1,
                            offsets=np.zeros(1, dtype=np.int64),
                            nodes=np.empty(0, dtype=np.int32))
    lengths = np.asarray([s.size for s in seqs], dtype=np.int64)
    if np.any(lengths == 0):
        raise ParameterError("empty trace")
    flat = np.concatenate(seqs)
    if node_count is None:
        node_count = int(flat.max()) + 1
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return WalkEnsemble(origin=int(seqs[0][0]), node_count=node_count,
                        offsets=offsets, nodes=flat)


def build_from_posts(posts: Iterable[Sequence[str]], focus_tag: str) -> CoocGraph:
    """Project posts' tag sets into a co-occurrence graph around ``focus_tag``.

    All posts must contain the focus tag; the focus tag itself is dropped
    from every clique.  Nodes are indices into the sorted tag vocabulary,
    carried in ``labels``.
    """
    tag_sets: list[list[str]] = []
    vocab: set[str] = set()
    for k, post in enumerate(posts):
        tags = set(post)
        if focus_tag not in tags:
            raise ContractError(f"post {k} does not contain focus tag {focus_tag!r}")
        tags.discard(focus_tag)
        tag_sets.append(sorted(tags))
        vocab.update(tags)
    labels = tuple(sorted(vocab))
    index = {t: i for i, t in enumerate(labels)}
    group_ids = np.repeat(np.arange(len(tag_sets), dtype=np.int64),
                          [len(t) for t in tag_sets])
    members = np.asarray([index[t] for ts in tag_sets for t in ts], dtype=np.int64)
    src, dst, weights = _count_pairs(group_ids, members, max(len(labels), 1))
    g = CoocGraph(node_ids=np.arange(len(labels), dtype=np.int64),
                  src=src, dst=dst, weights=weights, labels=labels)
    g.validate()
    return g
