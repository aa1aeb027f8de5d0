"""Statistical observables of weighted co-occurrence graphs.

Covers degree/strength/weight distributions, strength and nearest-neighbor
degree versus degree, unweighted and weighted clustering, the link weight
versus degree-product scatter, cosine similarity between node weight
vectors, frequency-rank series, and least-squares power-law fitting on
log-log axes.

The weighted nearest-neighbor degree and weighted clustering follow the
standard weighted-network definitions of Barrat et al. (PNAS 2004):

    k^w_nn,i = (1/s_i) * sum_j w_ij k_j
    c^w_i    = 1/(s_i (k_i - 1)) * sum_(j,h) (w_ij + w_ih)/2 * a_ij a_ih a_jh

With uniform weights both reduce exactly to their unweighted versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cooc import CoocGraph
from .errors import ContractError, FitError, ParameterError
from .parallel import map_blocks
from .substrate import _blocks, _ranges, _segment_pairs, _upper_entries

__all__ = [
    "Distribution",
    "BinnedSeries",
    "FitResult",
    "Histogram",
    "degree_strength_weight_distributions",
    "s_of_k",
    "knn_of_k",
    "clustering_of_k",
    "weight_vs_kikj",
    "exact_similarities",
    "cosine_similarity_distribution",
    "frequency_rank",
    "fit_power_law",
    "log_bin",
    "assert_accounting",
]

# Cosine similarity takes its exact path wherever the exact cost is at most
# this many times the sampled one (see _exact_similarity_pays).  On 2 cores
# with numpy 2.4 the exact pass cost about 12-21 ns per wedge and the
# sampled one about 60 ns of CPU per probe (37 ns of wall on 2 threads), so
# the wall-clock break-even lies near 3.
EXACT_COST_MULTIPLE = 3
# Sampled pairs are drawn 65,536 at a time (the draws fix the sample).  A
# pair probes min(k_a, k_b) entries, and a draw is intersected in blocks of
# about SIMILARITY_BLOCK_PROBES probes, shared among the worker threads.
SIMILARITY_BLOCK_PROBES = 1 << 17
# The exact path yields its pairs in row blocks of about this many, and adds
# wedge products about this many at a time.
SIMILARITY_BATCH_WEDGES = 1 << 16


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """Raw integer-valued histogram: counts[i] samples had value values[i]."""

    values: np.ndarray  # int64, sorted ascending
    counts: np.ndarray  # int64


@dataclass(frozen=True)
class BinnedSeries:
    """Per-class averages: y[i] is the mean over n[i] samples at x[i]."""

    x: np.ndarray
    y: np.ndarray
    n: np.ndarray  # int64 sample count per class; classes with 0 samples omitted


@dataclass(frozen=True)
class FitResult:
    exponent: float
    stderr: float
    window: tuple[float, float]
    points: int


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray        # bin edges, length bins + 1
    counts: np.ndarray       # int64 per bin
    sampled: bool            # True when pairs were subsampled
    pair_count: int

    def mode_center(self) -> float:
        """Center of the most populated bin."""
        if self.counts.sum() == 0:
            raise ParameterError("empty histogram has no mode")
        b = int(np.argmax(self.counts))
        return float(0.5 * (self.edges[b] + self.edges[b + 1]))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _log_edges(x_min: float, x_max: float, ratio: float) -> np.ndarray:
    if ratio <= 1.0:
        raise ParameterError("bin_ratio must be > 1")
    if x_min <= 0:
        raise ParameterError("log binning needs positive x")
    n_bins = max(1, int(np.ceil(np.log(x_max / x_min) / np.log(ratio) - 1e-9)))
    return x_min * ratio ** np.arange(n_bins + 1)


def _class_means(k: np.ndarray, values: np.ndarray, keep: np.ndarray) -> BinnedSeries:
    """Average ``values`` over nodes grouped by exact degree, rows in ``keep``."""
    classes, inv, counts = np.unique(k[keep], return_inverse=True, return_counts=True)
    sums = np.bincount(inv, weights=values[keep], minlength=classes.size)
    return BinnedSeries(classes.astype(np.float64), sums / counts,
                        counts.astype(np.int64))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def degree_strength_weight_distributions(
        g: CoocGraph) -> tuple[Distribution, Distribution, Distribution]:
    """Raw histograms of node degrees, node strengths, and link weights."""
    def dist(vals: np.ndarray) -> Distribution:
        v, c = np.unique(vals, return_counts=True)
        return Distribution(v.astype(np.int64), c.astype(np.int64))
    weights = [np.empty(0, dtype=np.int64)] + [
        g.entry_weights[e] for e, _ in _upper_entries(g.indptr, g.neighbors)]
    return dist(g.degrees()), dist(g.strengths()), dist(np.concatenate(weights))


def s_of_k(g: CoocGraph) -> BinnedSeries:
    """Mean node strength per degree class."""
    k = g.degrees()
    return _class_means(k, g.strengths().astype(np.float64), np.ones(k.size, dtype=bool))


def knn_of_k(g: CoocGraph) -> tuple[BinnedSeries, BinnedSeries]:
    """Mean plain and weighted nearest-neighbor degree per degree class."""
    k = g.degrees()
    k_nb = k[g.neighbors]
    keep = k >= 1
    plain = np.zeros(k.size)
    weighted = np.zeros(k.size)
    plain[keep] = g.neighbor_sums(k_nb)[keep] / k[keep]
    weighted[keep] = g.neighbor_sums(g.entry_weights * k_nb)[keep] / g.strengths()[keep]
    return _class_means(k, plain, keep), _class_means(k, weighted, keep)


def clustering_of_k(g: CoocGraph) -> tuple[BinnedSeries, BinnedSeries]:
    """Mean plain and weighted clustering coefficient per degree class, k >= 2 only.

    Both numerators need only t_ij, the number of triangles on each edge:
    sum_j t_ij for C(k) and sum_j w_ij t_ij for C^w(k).  Every edge points
    from its lower to its higher end in (degree, position) order, so each
    triangle is found once, as a closed wedge of out-neighbours at its
    lowest node (compact-forward; Latapy, TCS 2008).  Its sum_i C(out_i, 2)
    wedges, the pairs of each out-list, go through :meth:`CoocGraph.find_edges`
    a block of :func:`~tagwalk.substrate._segment_pairs` at a time; the
    triangle counts per adjacency entry are exact.
    """
    neighbors = g.neighbors
    k = g.degrees()
    n = k.size
    rank = k * n + np.arange(n)               # (degree, position) as one key
    outgoing = np.repeat(rank, k) < rank[neighbors]
    out = np.flatnonzero(outgoing)            # out-lists, row by row, each ascending
    c = np.zeros(neighbors.size, dtype=np.int64)   # triangles counted on each entry
    for e, f in _segment_pairs(g.neighbor_sums(outgoing)):
        e, f = out[e], out[f]           # a wedge's two out-entries
        hit, closing = g.find_edges(neighbors[e], neighbors[f])
        np.add.at(c, np.concatenate([closing, e[hit], f[hit]]), 1)
    # t_ij is c at (i, j) plus c at (j, i): a row's own entries and those naming it
    plain, weighted = (np.add(g.neighbor_sums(v), np.bincount(neighbors, v, n),
                              dtype=np.float64) for v in (c, g.entry_weights * c))
    keep = k >= 2
    kk = k[keep]
    plain[keep] /= kk * (kk - 1)
    weighted[keep] /= g.strengths()[keep] * (kk - 1)
    return _class_means(k, plain, keep), _class_means(k, weighted, keep)


def weight_vs_kikj(g: CoocGraph,
                   bin_ratio: float = 2.0) -> tuple[np.ndarray, np.ndarray, BinnedSeries]:
    """Per-edge (k_i*k_j, w_ij) scatter, edges in row order, plus its log-binned mean."""
    k = g.degrees()
    blocks = [(np.empty(0), np.empty(0))] + [(k[rows] * k[g.neighbors[e]], g.entry_weights[e])
                                             for e, rows in _upper_entries(g.indptr, g.neighbors)]
    products, weights = map(np.concatenate, zip(*blocks))   # float64, as the first block
    return products, weights, log_bin(products, weights, bin_ratio)


def _inverse_norms(g: CoocGraph) -> np.ndarray:
    """Per node, 1 / sqrt(sum_j w_ij^2), with the sum exact in integers; 0 if isolated.

    Entry j of node i's unit weight row is ``inv[i] * w_ij``.
    """
    total = np.zeros(g.entry_weights.size + 1, dtype=np.int64)    # running sums of w^2
    np.square(g.entry_weights, out=total[1:])
    np.cumsum(total, out=total)
    squares = np.diff(total[g.indptr])
    return np.divide(1.0, np.sqrt(squares), out=np.zeros(squares.size), where=squares > 0)


def exact_similarities(g: CoocGraph):
    """All-pairs cosine similarities over positive-strength nodes, in blocks.

    The pairs are those of the live nodes ``np.flatnonzero(g.degrees())``
    in condensed upper-triangle order, that of ``itertools.combinations``
    over the live list.  Yields that triangle in blocks of whole first-index
    rows, each of about ``SIMILARITY_BATCH_WEDGES`` pairs, so the memory is
    one block plus 20 bytes per adjacency entry, however many pairs.
    Each pair's products over its common neighbours c are added one at a
    time to 0.0, c descending: the pass visits the centres c from the last
    to the first and adds the product of every pair of c's entries, in
    batches of about ``SIMILARITY_BATCH_WEDGES`` products.
    """
    indptr, neighbors = g.indptr, g.neighbors
    k = g.degrees()
    y = (np.cumsum(k > 0, dtype=np.int32) - 1)[neighbors]   # live position of each entry's column
    m = np.count_nonzero(k)
    x = np.arange(m + 1, dtype=np.int64)
    first = x * (2 * m - x - 1) // 2                # pair (x, x + 1) sits at first[x]
    rows = list(_blocks(m - 1 - x[:-1], SIMILARITY_BATCH_WEDGES))
    block = np.repeat(np.arange(len(rows), dtype=np.int32), [hi - lo for lo, hi in rows])[y]
    # the entries descending, grouped by the row block of their column, last block first
    entries = np.argsort(block, kind="stable")[::-1].astype(np.int32)
    starts = (y.size - np.cumsum(np.bincount(block, minlength=len(rows)))).tolist()
    del block
    unit = _inverse_norms(g)[neighbors]
    unit *= g.entry_weights                         # entry e of row c is y_e's weight at c
    for (lo, hi), start, stop in zip(rows, starts, [y.size] + starts):
        sims = np.zeros(first[hi] - first[lo])
        mine = entries[start:stop]
        # the entries after each in its row
        later = indptr[np.searchsorted(indptr, mine, side="right")] - mine - 1
        for a, b in _blocks(later, SIMILARITY_BATCH_WEDGES):
            e, n = mine[a:b], later[a:b]
            f = _ranges(e + 1, n)
            ye = y[e]       # pair (y_e, j) sits at first[y_e] - y_e - 1 + j
            np.add.at(sims, np.repeat(first[ye] - ye - (1 + first[lo]), n) + y[f],
                      np.repeat(unit[e], n) * unit[f])
        yield sims
        del sims


def _cosines(g: CoocGraph, inv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Similarity of each pair (a[p], b[p]) of distinct live nodes, ``inv`` the inverse norms.

    Each pair probes its shorter row's entries against the longer row with
    :meth:`CoocGraph.find_edges` and sums the products at the common
    neighbours with ``np.add.reduceat``, neighbours ascending; 0.0 if none.
    """
    indptr, weights = g.indptr, g.entry_weights
    k = g.degrees()
    flip = k[a] > k[b]
    short, other = np.where(flip, b, a), np.where(flip, a, b)
    n = k[short]
    start = indptr[short] - np.cumsum(n) + n    # probe p of pair q reads entry p + start[q]
    # only the probes' columns wait out the lookup; each hit's pair is found again
    cols = g.neighbors[_ranges(indptr[short], n)]
    pos, t = g.find_edges(np.repeat(other, n), cols)   # the probes that hit
    del cols
    owner = np.searchsorted(np.cumsum(n), pos, side="right")
    pos += start[owner]
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    products = inv[short][owner]
    products *= weights[pos]
    del pos
    right = inv[other][owner]
    right *= weights[t]
    products *= right
    sims = np.zeros(a.size)
    sims[owner[first]] = np.add.reduceat(products, first)
    return sims


def _sampled_similarities(g: CoocGraph, pair_budget: int, seed: int, threads: int = 1):
    """Cosine similarities of ``pair_budget`` seeded pairs of distinct live nodes.

    Yields one array per draw of at most 65,536 pairs, drawn on the calling
    thread.  A draw is cut into blocks of about ``SIMILARITY_BLOCK_PROBES //
    threads`` probes, which :func:`map_blocks` spreads over ``threads``
    threads, each block into its own slice of the draw.  A pair's bits do
    not depend on its block, so the draws are the same for any ``threads``,
    and the probes in flight, most of a block's memory, stay those of one
    single-thread block.
    """
    k = g.degrees()
    inv = _inverse_norms(g)
    g._edge_table       # like the CSR and degrees, cached before any worker reads it
    live = np.flatnonzero(k)
    rng = np.random.default_rng(seed)
    block_probes = max(1, SIMILARITY_BLOCK_PROBES // threads)
    remaining = pair_budget
    while remaining > 0:
        take = min(remaining, 65536)
        i = rng.integers(live.size, size=take + take // 4 + 16)
        j = rng.integers(live.size, size=i.size)
        ok = i != j
        i, j = live[i[ok][:take]], live[j[ok][:take]]
        sims = np.empty(i.size)

        def block(cut: tuple[int, int]) -> None:
            lo, hi = cut
            sims[lo:hi] = _cosines(g, inv, i[lo:hi], j[lo:hi])

        map_blocks(block, list(_blocks(np.minimum(k[i], k[j]), block_probes)), threads)
        remaining -= i.size
        del i, j, ok        # the next draw need not meet this one's arrays
        yield sims
        del sims


def _exact_similarity_pays(k: np.ndarray, pair_budget: int) -> bool:
    """Whether cosine similarity takes its exact path on a graph of degrees ``k``.

    It does wherever the exact cost, sum_c C(k_c, 2) wedges plus the C(m, 2)
    pairs of the m live nodes, is at most ``EXACT_COST_MULTIPLE`` times the
    sampled cost, ``pair_budget`` x E[min(k_a, k_b)] probes over uniform
    pairs of distinct live nodes.  With the live degrees ascending, that
    expectation is sum_i k_(i) (m - 1 - i) / C(m, 2); the costs are compared
    cross-multiplied, in Python integers, so no rounding decides.  A pair
    has at most min(k_a, k_b) common neighbours and every live degree is at
    least 1, so the wedges are at most the probes and the probes at least
    the pairs: every graph of at most 1.5 x ``pair_budget`` pairs goes exact.
    """
    live = np.sort(k[k > 0])
    m = live.size
    pairs = m * (m - 1) // 2
    wedges = int((live * (live - 1) // 2).sum())
    probes = int((live * np.arange(m - 1, -1, -1)).sum())     # C(m, 2) x E[min(k_a, k_b)]
    return (wedges + pairs) * pairs <= EXACT_COST_MULTIPLE * pair_budget * probes


def cosine_similarity_distribution(g: CoocGraph, pair_budget: int = 10 ** 6,
                                   seed: int = 0, bin_width: float = 0.05,
                                   threads: int = 1) -> Histogram:
    """Histogram of cosine similarity between node weight vectors.

    All unordered pairs are evaluated, on the calling thread, where
    :func:`_exact_similarity_pays`; elsewhere ``pair_budget`` uniformly
    drawn pairs of distinct nodes, intersected on ``threads`` worker
    threads.  The choice does not read ``threads``, so the histogram is the
    same for any ``threads``.  Nodes with zero strength carry no weight
    vector and are excluded.
    """
    if pair_budget < 1:
        raise ParameterError("pair_budget must be >= 1")
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    edges = np.round(np.arange(0.0, 1.0 + bin_width / 2, bin_width), 10)
    sampled = not _exact_similarity_pays(g.degrees(), pair_budget)
    blocks = (_sampled_similarities(g, pair_budget, seed, threads) if sampled
              else exact_similarities(g))
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    pairs = 0
    for sims in blocks:     # binned per block
        counts += np.histogram(np.clip(sims, 0.0, 1.0), bins=edges)[0]
        pairs += sims.size
        del sims
    return Histogram(edges, counts, sampled, pairs)


def frequency_rank(counts) -> tuple[np.ndarray, np.ndarray]:
    """Counts sorted descending against rank 1..N; zero counts dropped.

    ``counts`` is indexed by node id (for a labeled graph, by label
    position); ties keep ascending id order.
    """
    arr = np.asarray(counts, dtype=np.int64)
    ordered = arr[np.argsort(-arr, kind="stable")]
    ordered = ordered[ordered > 0]
    return np.arange(1, ordered.size + 1, dtype=np.int64), ordered


def fit_power_law(x, y, window: tuple[float, float]) -> FitResult:
    """Least-squares line on (log x, log y) restricted to x in ``window``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lo, hi = window
    if not (lo > 0 and hi >= lo):
        raise FitError(f"bad fit window {window}")
    keep = (x >= lo) & (x <= hi) & (x > 0) & (y > 0)
    if keep.sum() < 5:
        raise FitError(f"only {int(keep.sum())} usable points in window {window}")
    lx = np.log10(x[keep])
    ly = np.log10(y[keep])
    n = lx.size
    sxx = np.sum((lx - lx.mean()) ** 2)
    if sxx == 0:
        raise FitError("degenerate fit window: single x value")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    stderr = float(np.sqrt(np.sum(resid ** 2) / max(n - 2, 1) / sxx))
    return FitResult(exponent=float(slope), stderr=stderr,
                     window=(float(lo), float(hi)), points=int(n))


def log_bin(x, y, bin_ratio: float = 2.0) -> BinnedSeries:
    """Average y over geometric bins of x with edges x_min * ratio^m."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        return BinnedSeries(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    edges = _log_edges(x.min(), x.max(), bin_ratio)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)
    n = np.bincount(which, minlength=edges.size - 1)
    sums = np.bincount(which, weights=y, minlength=edges.size - 1)
    keep = n > 0
    centers = np.sqrt(edges[:-1] * edges[1:])
    return BinnedSeries(centers[keep], sums[keep] / n[keep], n[keep].astype(np.int64))


def assert_accounting(g: CoocGraph) -> None:
    """Exact bookkeeping identities every weighted graph must satisfy."""
    if int(g.strengths().sum()) != 2 * g.total_weight:
        raise ContractError("strength sum != twice total weight")
    if int(g.degrees().sum()) != 2 * g.edge_count:
        raise ContractError("degree sum != twice edge count")
