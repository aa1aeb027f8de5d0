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
from .formats import declared, read_headers, read_int_table, write_int_rows

__all__ = [
    "SubstrateGraph",
    "WattsStrogatz",
    "RegularTree",
    "ErdosRenyi",
    "generate_watts_strogatz",
    "generate_regular_tree",
    "generate_erdos_renyi",
    "build_graph",
    "read_node_count",
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


def _blocks(costs: np.ndarray, budget: int):
    """Yields the items, item i costing ``costs[i]`` >= 0, as slices ``(lo, hi)`` that tile them.

    A slice takes items while their cost, summed from its start, stays
    within ``budget``, and always takes at least one: it costs at most
    ``budget`` or holds one item.
    """
    ends = np.cumsum(costs)
    del costs           # so that a caller's temporary goes while the slices are taken
    lo = 0
    while lo < ends.size:
        limit = (ends.item(lo - 1) if lo else 0) + budget
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        yield lo, hi
        lo = hi


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[i], starts[i] + counts[i])`` laid end to end."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _segment_pairs(counts: np.ndarray):
    """Every pair ``(e, f)``, e < f, of items in one segment, segment s holding ``counts[s]``
    of the items laid end to end: e ascending, and for each e the later items f of its segment.

    So a segment of m items starting at item a gives ``np.triu_indices(m, 1)`` plus a.
    Yields int64 ``(e, f)`` in blocks cut by :func:`_blocks` at ``_PAIR_BLOCK`` pairs:
    a block holds at most that many, or the pairs of one item.
    """
    later = np.repeat(np.cumsum(counts), counts)      # each item's segment end
    later -= np.arange(1, later.size + 1)
    for lo, hi in _blocks(later, _PAIR_BLOCK):
        n = later[lo:hi]
        yield np.repeat(np.arange(lo, hi), n), _ranges(np.arange(lo + 1, hi + 1), n)


def _upper_entries(indptr: np.ndarray, indices: np.ndarray):
    """Per slice of rows of about ``_KEY_BLOCK`` entries, the entries (i, j), i < j, of a
    symmetric CSR: their positions in ``indices``, ascending, and their rows i."""
    for lo, hi in _blocks(np.diff(indptr), _KEY_BLOCK):
        rows = np.repeat(np.arange(lo, hi, dtype=indices.dtype), np.diff(indptr[lo:hi + 1]))
        upper = np.flatnonzero(rows < indices[indptr[lo]:indptr[hi]])
        yield upper + indptr[lo], rows[upper]


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

    # -- file format: "# nodes=<n>" header, then "i<TAB>j" per edge, i < j --

    def write_edge_list(self, path) -> None:
        """Write the edges in row order, taking rows of about ``_KEY_BLOCK`` entries at a time."""
        with open(path, "wb") as fh:
            fh.write(f"# nodes={self.node_count}\n".encode("ascii"))
            for entries, rows in _upper_entries(self.indptr, self.indices):
                write_int_rows(fh, np.stack([rows, self.indices[entries]], axis=1), b"\t\n")

    @classmethod
    def read_edge_list(cls, path) -> "SubstrateGraph":
        headers, edges = read_int_table(path, 2)
        n = _declared_nodes(path, headers)
        try:
            return from_edge_pairs(n, edges)
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each ``(a[i], b[i])`` is an edge; int64 ids in ``[0, node_count)``.

        Each probe bisects row ``a[i]`` of ``indices`` for ``b[i]``, about
        ``_KEY_BLOCK`` probes at a time, in as many rounds as the longest row
        probed has bits.  So its memory scales with one block of probes, not
        with the graph.
        """
        found = np.empty(a.size, dtype=bool)
        for lo in range(0, a.size, _KEY_BLOCK):
            rows, target = a[lo:lo + _KEY_BLOCK], b[lo:lo + _KEY_BLOCK]
            first, end = self.indptr[rows], self.indptr[rows + 1]
            count = end - first
            # the row's first entry >= target, or its end, lies in
            # [first, first + count], and each round halves count
            while count.any():
                half = count >> 1
                right = (half < count) & (self.indices.take(first + half, mode="clip") < target)
                np.add(first, half + 1, out=first, where=right)
                count = np.where(right, count - half - 1, half)
            hit = first < end
            hit[hit] = self.indices[first[hit]] == target[hit]
            found[lo:lo + _KEY_BLOCK] = hit
        return found


def read_node_count(path) -> int:
    """The node count that an edge list's ``nodes=`` header declares, read
    without its edges, which are therefore not checked."""
    return _declared_nodes(path, read_headers(path))


def _declared_nodes(path, headers: list[str]) -> int:
    n = declared(path, headers, "nodes", 2 ** 31)
    if n is None:
        raise ContractError(f"{path}: missing '# nodes=' header")
    return n


def from_edge_pairs(n: int, edges: np.ndarray) -> SubstrateGraph:
    """Build a validated graph from an ``(m, 2)`` int64 array of undirected edges.

    Both orientations of every pair go in, so the graph is symmetric by
    construction; a repeated pair, in either orientation, shows as a row
    that is not strictly increasing.  The array is handed over: a
    column-major one becomes the sorted row-major keys of both
    orientations, in place, so no copy of the edges is made.
    """
    src, dst = keys = np.asfortranarray(edges, dtype=np.int64).T
    if src.size and (n == 0 or keys.min() < 0 or keys.max() >= n):
        raise ContractError("edge endpoint out of range")
    if np.any(src == dst):
        raise ContractError("self-loop present")
    for lo in range(0, src.size, _KEY_BLOCK):
        i, j = keys[:, lo:lo + _KEY_BLOCK]
        i[:], j[:] = i * n + j, j * n + i
    keys = keys.reshape(-1)
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise ContractError("neighbor list not strictly increasing")
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return SubstrateGraph(n, indptr, keys.astype(np.int32))


# ---------------------------------------------------------------------------
# Generator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WattsStrogatz:
    n: int
    k: int
    p_rewire: float
    node_count = property(lambda self: self.n)

    def __post_init__(self):
        if self.k % 2 != 0:
            raise ParameterError("k must be even")
        if not (2 <= self.k < self.n):
            raise ParameterError("need 2 <= k < n")
        if not (0.0 <= self.p_rewire <= 1.0):
            raise ParameterError("p_rewire must be in [0, 1]")
        _check_node_count(self)


@dataclass(frozen=True)
class RegularTree:
    z: int
    depth: int

    def __post_init__(self):
        if self.z < 1:
            raise ParameterError("z must be >= 1")
        if self.depth < 0:
            raise ParameterError("depth must be >= 0")
        _check_node_count(self)

    @property
    def node_count(self) -> int:
        """Summed shell by shell; the sum stops once it reaches ``_MAX_NODES``."""
        if self.z == 1:
            return 1 + 2 * self.depth
        total, shell = 1, self.z + 1
        for _ in range(self.depth):
            total += shell
            if total >= _MAX_NODES:
                break
            shell *= self.z
        return total


@dataclass(frozen=True)
class ErdosRenyi:
    n: int
    mean_degree: float
    node_count = property(lambda self: self.n)

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("n must be >= 1")
        if not (0.0 <= self.mean_degree <= self.n - 1):
            raise ParameterError("need 0 <= mean_degree <= n-1")
        _check_node_count(self)


_MAX_NODES = 2 ** 31   # substrate ids are int32


def _check_node_count(variant) -> None:
    if variant.node_count >= _MAX_NODES:
        raise ParameterError("node count must be below 2**31")


GraphVariant = Union[WattsStrogatz, RegularTree, ErdosRenyi]


def build_graph(variant: GraphVariant, seed: int) -> SubstrateGraph:
    if isinstance(variant, WattsStrogatz):
        return generate_watts_strogatz(variant.n, variant.k, variant.p_rewire, seed)
    if isinstance(variant, RegularTree):
        return generate_regular_tree(variant.z, variant.depth)
    if isinstance(variant, ErdosRenyi):
        return generate_erdos_renyi(variant.n, variant.mean_degree, seed)
    raise ParameterError(f"unknown graph variant {type(variant).__name__}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# A slice spans at most _BLOCK coins, so a stop costs O(_BLOCK); below
# _VECTOR_MIN coins a numpy pass costs more than the scalar rule.
_BLOCK = 4096
_VECTOR_MIN = 64
# Edges that from_edge_pairs turns into keys at a time, and about the
# adjacency entries that _upper_entries and bfs_rings take at a time.
_KEY_BLOCK = 1 << 16
# About the pairs that _segment_pairs yields at a time, for the clique
# projection and the clustering wedges: their scratch memory is one block's.
_PAIR_BLOCK = 1 << 14


def generate_watts_strogatz(n: int, k: int, p_rewire: float, seed: int) -> SubstrateGraph:
    """Small-world graph by rewiring a ring lattice.

    Each node starts connected to its ``k/2`` nearest neighbors on each side;
    every lattice edge's far endpoint is then rewired with probability
    ``p_rewire`` to a uniformly chosen node, avoiding self-loops and
    duplicate edges.  Rewiring preserves the edge count ``n*k/2`` exactly.

    Round ``j`` tosses a coin for each lattice edge ``(i, i+j)``.  The scalar
    rule takes the coins in order: it skips a node linked to all others, and
    otherwise draws targets until one is neither ``i`` nor a neighbor.  The
    coins run in slices, each settled by :func:`_settle_slice` up to its
    first stop, which alone takes the scalar rule.  A slice doubles in size
    after each slice or coin settled on its first draw, up to ``_BLOCK``, and
    halves after a rejection.

    Determinism contract: the same ``(n, k, p_rewire, seed)`` gives the same
    graph byte for byte.  Draws come from one batch of one per coin, then
    from scalar ``rng.integers(n)``; unused batch draws are rewound, so the
    stream is the scalar draws'.  The test suite pins graphs by hash.
    """
    WattsStrogatz(n, k, p_rewire)   # raises ParameterError on a bad parameter
    rng = np.random.default_rng(seed)
    half = k // 2
    # lattice edge (i, i+j) lives in slot (j-1)*n + i, which holds the node
    # that coin i of round j rewired it to, or -1 while the edge is kept
    edges = np.empty((half * n, 2), dtype=np.int64, order="F")
    partner = edges[:, 1]
    partner.fill(-1)
    degree = np.full(n, k, dtype=np.int64)
    pv, dv = memoryview(partner), memoryview(degree)   # scalar access, same memory

    def linked(i: int, m: int) -> bool:
        d = (m - i) % n             # the lattice joins exactly the ring gaps <= half
        return ((d <= half and pv[(d - 1) * n + i] < 0)
                or (n - d <= half and pv[(n - d - 1) * n + m] < 0)
                or m in pv[i::n] or i in pv[m::n])

    for j in range(1, half + 1):
        coins = np.flatnonzero(rng.random(n) < p_rewire)
        before = rng.bit_generator.state
        draws = rng.integers(n, size=coins.size)
        cv, mv = memoryview(coins), memoryview(draws)
        pos, used, size = 0, 0, 1
        while pos < coins.size:
            span = min(size, coins.size - pos, draws.size - used)
            if span >= _VECTOR_MIN:
                t = _settle_slice(coins[pos:pos + span], draws[used:used + span],
                                  j, partner, degree)
                pos, used = pos + t, used + t
                if t == span:
                    size = min(2 * size, _BLOCK)
                    continue
            i = cv[pos]
            pos += 1
            if dv[i] >= n - 1:
                continue  # nothing left to rewire to
            first = used
            while True:
                m = mv[used] if used < draws.size else int(rng.integers(n))
                used += 1
                if m != i and not linked(i, m):
                    break
            pv[(j - 1) * n + i] = m
            dv[(i + j) % n] -= 1
            dv[m] += 1
            size = min(2 * size, _BLOCK) if used == first + 1 else max(size // 2, 1)
        if used < draws.size:  # rewind to where scalar draws would have left it
            rng.bit_generator.state = before
            rng.integers(n, size=used)
    rows, partners = edges.T.reshape(2, half, n)
    rows[:] = np.arange(n)
    for j in range(1, half + 1):        # kept lattice edges (i, i+j)
        np.copyto(partners[j - 1], (rows[0] + j) % n, where=partners[j - 1] < 0)
    return from_edge_pairs(n, edges)


def _settle_slice(c: np.ndarray, m: np.ndarray, j: int, partner: np.ndarray,
                  degree: np.ndarray) -> int:
    """Rewire coins ``c`` of round ``j`` to their draws ``m`` up to the first stop.

    Coin ``t`` stops the slice when the state at its start cannot tell its
    outcome: ``m_t`` is ``c_t`` or a neighbor (this covers the lattice edge
    an earlier coin ``s`` of the slice removes, ``c_t = c_s + j`` and
    ``m_t = c_s``), or ``m_t = c_s`` and ``m_s = c_t``, the edge an earlier
    coin adds.  A node that the scalar rule would skip stops the slice too:
    all others are its neighbors, so its draw meets one of these.  Returns
    the coins settled.
    """
    n, half = degree.size, partner.size // degree.size
    d = (m - c) % n
    at = np.arange(c.size)
    key, rev = c * n + m, m * n + c             # key ascends with c
    back = np.searchsorted(key, rev)
    rows = partner.reshape(half, n)
    stop = ((m == c)
            | (d <= half) & (partner[(np.minimum(d, half) - 1) * n + c] < 0)
            | (n - d <= half) & (partner[(np.minimum(n - d, half) - 1) * n + m] < 0)
            | (rows[:, c] == m).any(axis=0) | (rows[:, m] == c).any(axis=0)
            | (back < at) & (key[np.minimum(back, c.size - 1)] == rev))
    t = int(stop.argmax()) if stop.any() else c.size
    partner[(j - 1) * n + c[:t]] = m[:t]
    degree[(c[:t] + j) % n] -= 1
    np.add.at(degree, m[:t], 1)
    return t


def generate_regular_tree(z: int, depth: int) -> SubstrateGraph:
    """Rooted tree where every node has ``z+1`` neighbors, truncated at ``depth``.

    The root (node 0) has ``z+1`` children and each internal node ``z``
    further children, so the shell at distance ``l >= 1`` holds
    ``(z+1) * z**(l-1)`` nodes.  Deterministic.
    """
    total = RegularTree(z, depth).node_count   # raises ParameterError on a bad parameter
    # nodes are numbered level by level: the root's children are 1..z+1 and
    # node v >= 1 has children z+2+(v-1)*z .. z+1+v*z
    child = np.arange(1, total, dtype=np.int64)
    parent = np.where(child <= z + 1, 0, (child - z - 2) // z + 1)
    return from_edge_pairs(total, np.stack([parent, child]).T)


def generate_erdos_renyi(n: int, mean_degree: float, seed: int) -> SubstrateGraph:
    """``G(n, p)`` with ``p = mean_degree / (n - 1)``, via geometric edge skipping."""
    ErdosRenyi(n, mean_degree)      # raises ParameterError on a bad parameter
    p = mean_degree / (n - 1) if n > 1 else 0.0
    total_pairs = n * (n - 1) // 2
    if p <= 0.0 or total_pairs == 0:
        return from_edge_pairs(n, np.empty((0, 2), dtype=np.int64))
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
    row_stops = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    i = np.searchsorted(row_stops, linear, side="right")
    row_start = row_stops[i] - (n - 1 - i)
    j = linear - row_start + i + 1
    return from_edge_pairs(n, np.stack([i, j]).T)


# ---------------------------------------------------------------------------
# Ring decomposition
# ---------------------------------------------------------------------------

def bfs_rings(graph: SubstrateGraph, origin: int) -> np.ndarray:
    """Breadth-first shell sizes from ``origin`` (int64): entry l counts the
    nodes at distance l, so entry 0 is 1; unreachable nodes are excluded.

    The frontier's rows are gathered about ``_KEY_BLOCK`` entries at a time.
    Each block keeps its unseen neighbours once and marks them seen, so a
    shell's scratch memory is one block's, and its time grows with its
    entries, not with the node count.
    """
    if not (0 <= origin < graph.node_count):
        raise ParameterError(f"origin {origin} out of range")
    indptr, indices = graph.indptr, graph.indices
    seen = np.zeros(graph.node_count, dtype=bool)
    seen[origin] = True
    frontier = np.array([origin], dtype=np.int64)
    sizes = [1]
    while True:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        shell = []
        for lo, hi in _blocks(counts, _KEY_BLOCK):
            nbrs = indices[_ranges(starts[lo:hi], counts[lo:hi])]
            nbrs = sorted_unique(nbrs[~seen[nbrs]])
            seen[nbrs] = True
            shell.append(nbrs)
        frontier = np.concatenate(shell)
        if frontier.size == 0:
            break
        sizes.append(int(frontier.size))
    return np.asarray(sizes, dtype=np.int64)
