"""Weighted co-occurrence networks built by clique projection.

Each walk trace (or each post's tag set) contributes a clique over its
distinct members; an edge weight counts the distinct walks or posts in
which the pair appeared together.  Weights are exact integers.  Graphs
built over disjoint chunks of input merge into exactly the graph a
single pass would produce, which is what makes parallel reduction safe.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ParameterError
from .formats import declared_nodes, read_int_table, write_int_rows
from .substrate import sorted_unique

__all__ = ["CoocGraph", "project"]

# The edge lookup finds adjacency entries through a table of 2-byte row
# offsets (4-byte if a row has more than 2^15 entries), at least this many
# bytes per entry, with a power-of-two slot count.
EDGE_TABLE_BYTES = 8


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _EdgeTable(NamedTuple):
    mask: int                # slot count - 1
    table: np.ndarray        # per slot: a row offset, -1 (no key) or -2 (shared)
    shared_keys: np.ndarray  # keys of the shared slots, ascending, then a sentinel
    shared_ids: np.ndarray   # their adjacency entries, then -1


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

    # Arrays derived from the edges are computed on first use and cached
    # read-only on the instance, so that every observable shares them.

    def compact_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as positions into ``node_ids``."""
        return self._ends

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The symmetric adjacency in CSR form, ``(indptr, neighbors, weights)``.

        Node ``i`` links to the positions ``neighbors[indptr[i]:indptr[i+1]]``,
        ascending, with those weights.
        """
        return self._csr

    def degrees(self) -> np.ndarray:
        return self._k_s[0]

    def strengths(self) -> np.ndarray:
        return self._k_s[1]

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``values`` (aligned with ``adjacency()[1]``) over its row."""
        total = np.concatenate([[0], np.cumsum(values)])
        indptr = self._csr[0]
        return total[indptr[1:]] - total[indptr[:-1]]

    def find_edges(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which probes ``(rows[p], cols[p])`` are edges, and their adjacency entries.

        Returns the positions p of the probes that are edges, ascending, and
        for each the entry e of row ``rows[p]`` with ``neighbors[e] == cols[p]``.
        A probe looks up the key ``row * stride + col`` by its low bits in a
        direct-address table (:class:`_EdgeTable`) and reads the entry at
        the offset found there, so it finds its own entry whichever key the
        offset came from, and nothing when it has none.  Per-probe arrays
        shrink to the candidates as soon as those are known.
        """
        indptr, neighbors, _ = self._csr
        lookup = self._edge_table
        stride = self.node_count | 1
        slot = np.multiply(rows, stride, dtype=np.int64)
        slot += cols
        slot &= lookup.mask
        offset = lookup.table[slot]
        del slot
        probe = np.flatnonzero(offset != -1)
        rows = rows[probe]        # one array at a time, so that only one is held twice
        cols = cols[probe]
        offset = offset[probe]
        found = offset < self.degrees()[rows]
        entry = indptr[rows] + offset
        found &= np.take(neighbors, entry, mode="clip") == cols
        shared = np.flatnonzero(offset == -2)
        wanted = np.multiply(rows[shared], stride, dtype=np.int64) + cols[shared]
        at = np.searchsorted(lookup.shared_keys, wanted)
        found[shared] = lookup.shared_keys[at] == wanted
        entry[shared] = lookup.shared_ids[at]
        del rows, cols, offset
        return probe[found], entry[found]

    @cached_property
    def _edge_table(self) -> _EdgeTable:
        indptr, neighbors, _ = self._csr
        k = self.degrees()
        stride = self.node_count | 1        # odd, so rows start at distinct slots
        dtype = np.dtype(np.int16 if k.max(initial=0) <= 2 ** 15 else np.int32)
        size = max(1, EDGE_TABLE_BYTES * neighbors.size // dtype.itemsize)
        mask = (1 << (size - 1).bit_length()) - 1
        keys = np.repeat(np.arange(self.node_count, dtype=np.int64) * stride, k)
        keys += neighbors
        slot = (keys & mask).astype(np.int32 if mask < 2 ** 31 else np.int64)
        del keys
        offsets = np.arange(neighbors.size)
        offsets -= np.repeat(indptr[:-1], k)
        offsets = offsets.astype(dtype)
        table = np.full(mask + 1, -1, dtype=dtype)
        table[slot] = offsets
        table[slot[table[slot] != offsets]] = -2
        shared = np.flatnonzero(table[slot] == -2)     # entries, ascending
        rows = np.searchsorted(indptr, shared, side="right") - 1
        shared_keys = np.append(rows * stride + neighbors[shared], np.iinfo(np.int64).max)
        return _EdgeTable(mask, *_read_only(table, shared_keys, np.append(shared, -1)))

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        pos = np.int32 if self.node_count < 2 ** 31 else np.int64
        return _read_only(np.searchsorted(self.node_ids, self.src).astype(pos),
                          np.searchsorted(self.node_ids, self.dst).astype(pos))

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        eu, ev = self._ends
        # Row i lists first the edges (j, i), then the edges (i, j).  Edges
        # are sorted by (src, dst), so a stable sort by row leaves each row
        # ascending: every j of the first part is below i, every j after it above.
        rows = np.concatenate([ev, eu])
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.node_count), out=indptr[1:])
        return _read_only(indptr, np.concatenate([eu, ev])[order],
                          np.concatenate([self.weights, self.weights])[order])

    @cached_property
    def _k_s(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(np.diff(self._csr[0]), self.neighbor_sums(self._csr[2]))

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
        s, d = self.src, self.dst
        if np.any((s[1:] < s[:-1]) | ((s[1:] == s[:-1]) & (d[1:] <= d[:-1]))):
            raise ContractError("edges must be sorted and unique")
        if not (np.isin(self.src, self.node_ids).all() and np.isin(self.dst, self.node_ids).all()):
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
        src, dst, weights = table.T             # contiguous columns of one array
        # isolated vocabulary members are not recoverable from an edge list;
        # the node set is the set of edge endpoints
        node_ids = np.union1d(sorted_unique(src), sorted_unique(dst))
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
# Clique projection
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0, dtype=np.int64)


def _pair_blocks(counts: np.ndarray, budget: int = sys.maxsize):
    """Member pairs of groups laid end to end, group ``g`` holding ``counts[g]``.

    Groups of one size m >= 2 are taken together: each yielded ``(pos, iu,
    ju)`` has one group's member positions per row of ``pos`` and its pairs
    at ``pos[:, iu]``, ``pos[:, ju]``, at most ``budget`` pairs per block.
    The slices of a size's pairs concatenate to ``np.triu_indices(m, 1)``.
    """
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    for m in sorted_unique(counts).tolist():
        if m < 2:
            continue
        sel = starts[counts == m]
        pairs = m * (m - 1) // 2
        rows, cols = max(1, budget // pairs), min(pairs, budget)
        for lo in range(0, sel.size, rows):
            pos = sel[lo:lo + rows, None] + np.arange(m)
            for c in range(0, pairs, cols):
                yield pos, *_triu_slice(m, c, min(c + cols, pairs))


def _triu_slice(m: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``lo:hi`` of ``np.triu_indices(m, 1)``, built without the others."""
    rows = np.arange(m - 1, dtype=np.int64)
    first = rows * (2 * m - 1 - rows) // 2     # row i holds pairs first[i]..first[i]+m-2-i
    span = slice(np.searchsorted(first, lo, "right") - 1, np.searchsorted(first, hi))
    rows, first = rows[span], first[span]
    counts = np.minimum(first + m - 1 - rows, hi) - np.maximum(first, lo)
    return np.repeat(rows, counts), np.arange(lo, hi) - np.repeat(first - rows - 1, counts)


def project(group_ids: np.ndarray, members: np.ndarray,
            labels: tuple[str, ...] | None = None) -> CoocGraph:
    """Clique projection of a (group, member) incidence.

    ``members`` must be grouped by ``group_ids`` (non-decreasing) and be
    distinct and ascending inside each group, as
    :meth:`WalkEnsemble.walk_node_pairs` and :meth:`Corpus.tag_pairs`
    return them.  Each group adds 1
    to the weight of every pair of its members; the vocabulary is the set
    of members, isolated ones included.
    """
    members = np.asarray(members, dtype=np.int64)   # pair keys need 64 bits
    node_ids = sorted_unique(members)
    scale = int(node_ids[-1]) + 1 if node_ids.size else 1
    key_chunks = [_EMPTY]
    for pos, iu, ju in _pair_blocks(np.unique(group_ids, return_counts=True)[1]):
        rows = members[pos]
        key_chunks.append((rows[:, iu] * scale + rows[:, ju]).ravel())
    keys, weights = np.unique(np.concatenate(key_chunks), return_counts=True)
    src, dst, weights = keys // scale, keys % scale, weights.astype(np.int64)
    g = CoocGraph(node_ids=node_ids, src=src, dst=dst, weights=weights, labels=labels)
    g.validate()
    return g
