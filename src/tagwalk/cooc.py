"""Weighted co-occurrence networks built by clique projection.

Each walk trace (or each post's tag set) contributes a clique over its
distinct members; an edge weight counts the distinct walks or posts in
which the pair appeared together.  Weights are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .formats import declared, read_int_table, write_int_rows
from .substrate import _segment_pairs, _upper_entries, sorted_unique

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
    sorted ascending.  Node position ``i`` links to the positions
    ``neighbors[indptr[i]:indptr[i+1]]``, ascending, with ``entry_weights``:
    the symmetric CSR is the only stored form of the edges.
    """

    node_ids: np.ndarray          # int64, sorted, unique
    indptr: np.ndarray            # int64, length node_count + 1
    neighbors: np.ndarray         # int32 positions (int64 from 2**31 nodes)
    entry_weights: np.ndarray     # int64, >= 1, one per adjacency entry

    @classmethod
    def from_edges(cls, node_ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   weights: np.ndarray) -> "CoocGraph":
        """The graph of the sorted, unique edges ``src[e] < dst[e]`` (ids) of weights >= 1."""
        if node_ids.size and np.any(np.diff(node_ids) <= 0):
            raise ContractError("node_ids must be sorted and unique")
        if node_ids.size and node_ids[0] < 0:
            raise ContractError(f"negative node id {node_ids[0]}")
        if not (src.size == dst.size == weights.size):
            raise ContractError("edge arrays disagree in length")
        if np.any(weights < 1):
            raise ContractError("weights must be >= 1")
        if np.any(src >= dst):
            raise ContractError("edges must satisfy src < dst")
        if np.any((src[1:] < src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1]))):
            raise ContractError("edges must be sorted and unique")
        if not (np.isin(src, node_ids).all() and np.isin(dst, node_ids).all()):
            raise ContractError("edge endpoint outside node set")
        pos = np.int32 if node_ids.size < 2 ** 31 else np.int64
        eu, ev = (np.searchsorted(node_ids, ends).astype(pos) for ends in (src, dst))
        # Row i lists first the edges (j, i), then the edges (i, j).  Edges
        # are sorted by (src, dst), so a stable sort by row leaves each row
        # ascending: every j of the first part is below i, every j after it above.
        rows = np.concatenate([ev, eu])
        del eu, ev
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(node_ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=node_ids.size), out=indptr[1:])
        order += src.size       # [eu, ev][p] is rows[(p + m) % 2m], [w, w][p] is w[(p + m) % m]
        return cls(node_ids, *_read_only(indptr, rows.take(order, mode="wrap"),
                                         weights.take(order, mode="wrap")))

    @property
    def node_count(self) -> int:
        return self.node_ids.size

    @property
    def edge_count(self) -> int:
        return sum(entries.size for entries, _ in _upper_entries(self.indptr, self.neighbors))

    @property
    def total_weight(self) -> int:
        return sum(int(self.entry_weights[entries].sum())
                   for entries, _ in _upper_entries(self.indptr, self.neighbors))

    # Arrays derived from the adjacency are cached read-only on first use, for every observable.

    def degrees(self) -> np.ndarray:
        return self._k_s[0]

    def strengths(self) -> np.ndarray:
        return self._k_s[1]

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum (float64 or int64) of ``values`` aligned with ``neighbors``."""
        total = np.zeros(values.size + 1, np.float64 if values.dtype.kind == "f" else np.int64)
        total[1:] = values                  # one running sum, made in place
        np.cumsum(total, out=total)
        total = total[self.indptr]          # frees the running sum before the difference
        return np.diff(total)

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
        indptr, neighbors = self.indptr, self.neighbors
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
        indptr, neighbors = self.indptr, self.neighbors
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
    def _k_s(self) -> tuple[np.ndarray, np.ndarray]:
        return _read_only(np.diff(self.indptr), self.neighbor_sums(self.entry_weights))

    # -- file format: "# nodes=<n> edges=<m> total_weight=<W>", then "i<TAB>j<TAB>w" --

    def write_edge_list(self, path) -> None:
        """Write the edges in row order, ids mapped through ``node_ids``, rows a block at a time."""
        with open(path, "wb") as fh:
            fh.write(f"# nodes={self.node_count} edges={self.edge_count} "
                     f"total_weight={self.total_weight}\n".encode("ascii"))
            ids = self.node_ids
            for entries, rows in _upper_entries(self.indptr, self.neighbors):
                write_int_rows(fh, np.stack([ids[rows], ids[self.neighbors[entries]],
                                             self.entry_weights[entries]], axis=1), b"\t\t\n")

    @classmethod
    def read_edge_list(cls, path) -> "CoocGraph":
        """The graph of a ``cooc.edges`` file, checked against its header's fields."""
        headers, table = read_int_table(path, 3)
        src, dst, weights = table.T             # contiguous columns of one array
        # isolated vocabulary members are not recoverable from an edge list;
        # the node set is the set of edge endpoints
        node_ids = np.union1d(sorted_unique(src), sorted_unique(dst))
        try:
            g = cls.from_edges(node_ids, src, dst, weights)
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None
        # Below 2^31 per strength, every integer sum the observables take fits
        # int64.  Weights below 2^31 keep the strengths' own sums from wrapping,
        # and the strengths bound the total weight compared below.
        if weights.max(initial=0) >= 2 ** 31 or g.strengths().max(initial=0) >= 2 ** 31:
            raise ContractError(f"{path}: a node strength, the sum of its weights, reaches 2^31")
        nodes = declared(path, headers, "nodes", 2 ** 31)
        if nodes is not None and node_ids.size > nodes:
            raise ContractError(f"{path}: more endpoints than declared nodes")
        for field, got in (("edges", src.size), ("total_weight", int(weights.sum()))):
            want = declared(path, headers, field)
            if want not in (None, got):
                raise ContractError(f"{path}: header declares {field}={want}, the file holds {got}")
        return g


# ---------------------------------------------------------------------------
# Clique projection
# ---------------------------------------------------------------------------

def project(group_ids: np.ndarray, members: np.ndarray) -> CoocGraph:
    """Clique projection of a (group, member) incidence.

    ``members`` must be grouped by ``group_ids`` (non-decreasing) and be
    distinct and ascending inside each group, as
    :meth:`WalkEnsemble.walk_node_pairs` and :meth:`Corpus.tag_pairs`
    return them.  Each group adds 1
    to the weight of every pair of its members; the vocabulary is the set
    of members, isolated ones included.  The pairs' keys are made a block
    of :func:`~tagwalk.substrate._segment_pairs` at a time.
    """
    members = np.asarray(members, dtype=np.int64)   # pair keys need 64 bits
    node_ids = sorted_unique(members)
    scale = int(node_ids[-1]) + 1 if node_ids.size else 1
    keys = [np.empty(0, dtype=np.int64)]
    for e, f in _segment_pairs(np.unique(group_ids, return_counts=True)[1]):
        keys.append(members[e] * scale + members[f])
    keys, weights = np.unique(np.concatenate(keys), return_counts=True)
    return CoocGraph.from_edges(node_ids, keys // scale, keys % scale, weights)
