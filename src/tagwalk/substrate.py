"""Substrate graphs: candidate semantic spaces on which walks are performed.

A substrate is an undirected, unweighted graph held in CSR form (``indptr``
plus per-node sorted neighbor lists).  Generators cover a small-world
rewired ring (Watts-Strogatz), a regular tree where every node has ``z+1``
neighbors, and Erdos-Renyi ``G(n, p)``.  Graphs are immutable once built
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ContractError, ParameterError
from .formats import declared_nodes, read_int_table, write_int_rows

__all__ = [
    "SubstrateGraph",
    "GraphSpec",
    "WattsStrogatz",
    "RegularTree",
    "ErdosRenyi",
    "RingProfile",
    "generate_watts_strogatz",
    "generate_regular_tree",
    "generate_erdos_renyi",
    "build_graph",
    "bfs_rings",
    "sorted_unique",
]


def sorted_unique(x) -> np.ndarray:
    """Same result as ``np.unique(x)``, by sorting plus a neighbor mask.

    A bare ``np.unique`` takes numpy's hash-table path (numpy >= 2.3), which
    is many times slower than a sort on large integer arrays.
    """
    x = np.sort(x, axis=None)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


@dataclass(frozen=True)
class SubstrateGraph:
    """Immutable undirected graph with 0-based dense integer node ids."""

    node_count: int
    indptr: np.ndarray   # int64, length node_count + 1
    indices: np.ndarray  # int32, neighbors grouped by node, sorted within a node

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as parallel arrays (i, j) with i < j, sorted lexicographically."""
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees())
        cols = self.indices.astype(np.int64)
        keep = rows < cols
        return rows[keep], cols[keep]

    def validate(self) -> None:
        """Check structural invariants; raises ContractError on violation."""
        n = self.node_count
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0:
            raise ContractError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ContractError("indptr not non-decreasing")
        if self.indices.size != self.indptr[-1]:
            raise ContractError("indices size disagrees with indptr")
        if self.indices.size == 0:
            return
        if self.indices.min() < 0 or self.indices.max() >= n:
            raise ContractError("neighbor id out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        cols = self.indices.astype(np.int64)
        if np.any(rows == cols):
            raise ContractError("self-loop present")
        # within a row, neighbor ids must be strictly increasing
        if cols.size > 1:
            same_row = rows[1:] == rows[:-1]
            if np.any(same_row & (np.diff(cols) <= 0)):
                raise ContractError("neighbor list not strictly increasing")
        # symmetry: the multiset of directed edges equals its own transpose
        fwd = np.sort(rows * n + cols)
        rev = np.sort(cols * n + rows)
        if not np.array_equal(fwd, rev):
            raise ContractError("adjacency not symmetric")

    # -- file format: "# nodes=<n>" header, then "i<TAB>j" per edge, i < j --

    def write_edge_list(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(f"# nodes={self.node_count}\n".encode("ascii"))
            write_int_rows(fh, np.stack(self.edge_arrays(), axis=1), b"\t\n")

    @classmethod
    def read_edge_list(cls, path) -> "SubstrateGraph":
        headers, edges = read_int_table(path, 2)
        n = declared_nodes(path, headers)
        if n is None:
            raise ContractError(f"{path}: missing '# nodes=' header")
        try:
            return from_edge_pairs(n, edges[:, 0], edges[:, 1])
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each ``(a[i], b[i])`` is an edge; int64 ids in ``[0, node_count)``."""
        n = self.node_count
        keys = np.repeat(np.arange(n, dtype=np.int64), self.degrees()) * n + self.indices
        keys = np.append(keys, n * n)           # sentinel above every query
        query = a * n + b
        return keys[np.searchsorted(keys, query)] == query


def from_edge_pairs(n: int, src: np.ndarray, dst: np.ndarray) -> SubstrateGraph:
    """Build a validated graph from undirected int64 edge pairs (any orientation)."""
    if src.size and (n == 0 or min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= n):
        raise ContractError("edge endpoint out of range")
    # both orientations as row-major keys, each below n**2 after the range check
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    g = SubstrateGraph(n, indptr.astype(np.int64), (keys % n).astype(np.int32))
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Generator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WattsStrogatz:
    n: int
    k: int
    p_rewire: float

    def __post_init__(self):
        if self.k % 2 != 0:
            raise ParameterError("k must be even")
        if not (2 <= self.k < self.n):
            raise ParameterError("need 2 <= k < n")
        if not (0.0 <= self.p_rewire <= 1.0):
            raise ParameterError("p_rewire must be in [0, 1]")


@dataclass(frozen=True)
class RegularTree:
    z: int
    depth: int

    def __post_init__(self):
        if self.z < 1:
            raise ParameterError("z must be >= 1")
        if self.depth < 0:
            raise ParameterError("depth must be >= 0")


@dataclass(frozen=True)
class ErdosRenyi:
    n: int
    mean_degree: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not (0.0 <= self.mean_degree <= self.n - 1):
            raise ParameterError("need 0 <= mean_degree <= n-1")


GraphVariant = Union[WattsStrogatz, RegularTree, ErdosRenyi]


@dataclass(frozen=True)
class GraphSpec:
    variant: GraphVariant
    seed: int


def build_graph(spec: GraphSpec) -> SubstrateGraph:
    v = spec.variant
    if isinstance(v, WattsStrogatz):
        return generate_watts_strogatz(v.n, v.k, v.p_rewire, spec.seed)
    if isinstance(v, RegularTree):
        return generate_regular_tree(v.z, v.depth, spec.seed)
    if isinstance(v, ErdosRenyi):
        return generate_erdos_renyi(v.n, v.mean_degree, spec.seed)
    raise ParameterError(f"unknown graph variant {type(v).__name__}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_watts_strogatz(n: int, k: int, p_rewire: float, seed: int) -> SubstrateGraph:
    """Small-world graph by rewiring a ring lattice.

    Each node starts connected to its ``k/2`` nearest neighbors on each side;
    every lattice edge's far endpoint is then rewired with probability
    ``p_rewire`` to a uniformly chosen node, avoiding self-loops and
    duplicate edges.  Rewiring preserves the edge count ``n*k/2`` exactly.

    Determinism contract: the same ``(n, k, p_rewire, seed)`` gives the same
    graph byte for byte.  Rewire targets are drawn in batches that match
    numpy's scalar draws one for one; the test suite pins graphs by hash.
    """
    WattsStrogatz(n, k, p_rewire)   # raises ParameterError on a bad parameter
    rng = np.random.default_rng(seed)
    half = k // 2
    # only changes are tracked: lattice edge (i, i+j) lives in slot (j-1)*n + i
    removed = bytearray(half * n)   # 1 once the slot's edge is rewired away
    added: set[int] = set()         # rewired-in edges as keys i*n + m, both ways
    degree = [k] * n

    def linked(i: int, m: int) -> bool:
        d = (m - i) % n             # the lattice joins exactly the ring gaps <= half
        return ((d <= half and not removed[(d - 1) * n + i])
                or (n - d <= half and not removed[(n - d - 1) * n + m])
                or i * n + m in added)

    for j in range(1, half + 1):
        coins = np.flatnonzero(rng.random(n) < p_rewire).tolist()
        before = rng.bit_generator.state
        draws = rng.integers(n, size=len(coins)).tolist()
        used = 0
        for i in coins:
            if degree[i] >= n - 1:
                continue  # nothing left to rewire to
            while True:
                m = draws[used] if used < len(draws) else int(rng.integers(n))
                used += 1
                if m != i and not linked(i, m):
                    break
            removed[(j - 1) * n + i] = 1
            added.update((i * n + m, m * n + i))
            degree[(i + j) % n] -= 1
            degree[m] += 1
        if used < len(draws):  # rewind to where scalar draws would have left it
            rng.bit_generator.state = before
            rng.integers(n, size=used)
    src = np.tile(np.arange(n, dtype=np.int64), half)
    dst = (src + np.repeat(np.arange(1, half + 1, dtype=np.int64), n)) % n
    keep = ~np.frombuffer(removed, dtype=bool)
    rewired = np.fromiter(added, dtype=np.int64, count=len(added))
    rewired = rewired[rewired // n < rewired % n]
    return from_edge_pairs(n, np.concatenate([src[keep], rewired // n]),
                           np.concatenate([dst[keep], rewired % n]))


def generate_regular_tree(z: int, depth: int, seed: int = 0) -> SubstrateGraph:
    """Rooted tree where every node has ``z+1`` neighbors, truncated at ``depth``.

    The root (node 0) has ``z+1`` children and each internal node ``z``
    further children, so the shell at distance ``l >= 1`` holds
    ``(z+1) * z**(l-1)`` nodes.  Deterministic; ``seed`` is accepted for
    interface uniformity only.
    """
    del seed
    RegularTree(z, depth)           # raises ParameterError on a bad parameter
    total = 1 + sum((z + 1) * z ** (l - 1) for l in range(1, depth + 1))
    # nodes are numbered level by level: the root's children are 1..z+1 and
    # node v >= 1 has children z+2+(v-1)*z .. z+1+v*z
    child = np.arange(1, total, dtype=np.int64)
    parent = np.where(child <= z + 1, 0, (child - z - 2) // z + 1)
    return from_edge_pairs(total, parent, child)


def generate_erdos_renyi(n: int, mean_degree: float, seed: int) -> SubstrateGraph:
    """``G(n, p)`` with ``p = mean_degree / (n - 1)``, via geometric edge skipping."""
    ErdosRenyi(n, mean_degree)      # raises ParameterError on a bad parameter
    p = mean_degree / (n - 1) if n > 1 else 0.0
    total_pairs = n * (n - 1) // 2
    if p <= 0.0 or total_pairs == 0:
        return from_edge_pairs(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    rng = np.random.default_rng(seed)
    positions: list[np.ndarray] = []
    cursor = -1
    batch = int(total_pairs * p * 1.1) + 128
    while True:
        gaps = rng.geometric(p, size=batch)
        cand = cursor + np.cumsum(gaps)
        take = cand[cand < total_pairs]
        positions.append(take)
        if take.size < cand.size:
            break
        cursor = int(cand[-1])
        batch = max(128, int((total_pairs - cursor) * p * 1.2) + 128)
    linear = np.concatenate(positions)
    # decode linear upper-triangle index (row-major) into (i, j)
    row_ends = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    i = np.searchsorted(row_ends, linear, side="right")
    row_start = row_ends[i] - (n - 1 - i)
    j = linear - row_start + i + 1
    return from_edge_pairs(n, i.astype(np.int64), j.astype(np.int64))


# ---------------------------------------------------------------------------
# Ring decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingProfile:
    """Shell populations around an origin: sizes[l] = #nodes at distance l."""

    origin: int
    sizes: np.ndarray  # int64, sizes[0] == 1

    @property
    def max_distance(self) -> int:
        return len(self.sizes) - 1

    @property
    def component_size(self) -> int:
        return int(self.sizes.sum())


def _gather_neighbors(graph: SubstrateGraph, nodes: np.ndarray) -> np.ndarray:
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int32)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return graph.indices[np.repeat(starts, counts) + within]


def bfs_rings(graph: SubstrateGraph, origin: int) -> RingProfile:
    """Breadth-first shell sizes from ``origin``; unreachable nodes excluded."""
    if not (0 <= origin < graph.node_count):
        raise ParameterError(f"origin {origin} out of range")
    seen = np.zeros(graph.node_count, dtype=bool)
    seen[origin] = True
    frontier = np.array([origin], dtype=np.int64)
    sizes = [1]
    while frontier.size:
        nbrs = _gather_neighbors(graph, frontier).astype(np.int64)
        nbrs = sorted_unique(nbrs[~seen[nbrs]])
        if nbrs.size == 0:
            break
        seen[nbrs] = True
        sizes.append(int(nbrs.size))
        frontier = nbrs
    return RingProfile(origin=origin, sizes=np.asarray(sizes, dtype=np.int64))
