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
from scipy.sparse import csr_matrix

from .cooc import _EMPTY, CoocGraph, _pair_blocks
from .errors import ContractError, FitError, ParameterError

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

# All-pairs cosine similarity is quadratic; above this node count a fixed
# budget of sampled pairs is used instead.
EXACT_SIMILARITY_LIMIT = 2000
# Sampled pairs are drawn 65,536 at a time (the draws fix the sample) and
# their row products formed this many at a time, which bounds the copies
# of R[i] and R[j]; of 2,048 to 65,536, this size also ran fastest.
SIMILARITY_BLOCK_PAIRS = 4096

# Clustering tests wedges (two-paths whose middle node ranks lowest) for
# closure in blocks of at most this many, which bounds its extra memory.
CLUSTERING_BLOCK_PATHS = 1 << 20


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """Raw integer-valued histogram: counts[i] samples had value values[i]."""

    values: np.ndarray  # int64, sorted ascending
    counts: np.ndarray  # int64

    @property
    def sample_size(self) -> int:
        return int(self.counts.sum())


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


def _weight_matrix(g: CoocGraph) -> csr_matrix:
    """The cached adjacency as an integer scipy matrix, sharing its arrays."""
    indptr, neighbors, weights = g.adjacency()
    return csr_matrix((weights, neighbors, indptr), shape=(g.node_count,) * 2)


def _class_means(k: np.ndarray, values: np.ndarray, keep: np.ndarray) -> BinnedSeries:
    """Average ``values`` over nodes grouped by exact degree, rows in ``keep``."""
    kk = k[keep]
    vv = values[keep]
    if kk.size == 0:
        return BinnedSeries(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    classes, inv, counts = np.unique(kk, return_inverse=True, return_counts=True)
    sums = np.bincount(inv, weights=vv, minlength=classes.size)
    return BinnedSeries(classes.astype(np.float64), sums / counts,
                        counts.astype(np.int64))


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def degree_strength_weight_distributions(
        g: CoocGraph) -> tuple[Distribution, Distribution, Distribution]:
    """Raw histograms of node degrees, node strengths, and link weights."""
    def dist(vals: np.ndarray) -> Distribution:
        if vals.size == 0:
            return Distribution(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        v, c = np.unique(vals, return_counts=True)
        return Distribution(v.astype(np.int64), c.astype(np.int64))
    return dist(g.degrees()), dist(g.strengths()), dist(g.weights)


def s_of_k(g: CoocGraph) -> BinnedSeries:
    """Mean node strength per degree class."""
    k = g.degrees()
    return _class_means(k, g.strengths().astype(np.float64), np.ones(k.size, dtype=bool))


def knn_of_k(g: CoocGraph) -> tuple[BinnedSeries, BinnedSeries]:
    """Mean plain and weighted nearest-neighbor degree per degree class."""
    _, neighbors, weights = g.adjacency()
    k = g.degrees()
    k_nb = k[neighbors]
    keep = k >= 1
    plain = np.zeros(k.size)
    weighted = np.zeros(k.size)
    plain[keep] = g.neighbor_sums(k_nb)[keep] / k[keep]
    weighted[keep] = g.neighbor_sums(weights * k_nb)[keep] / g.strengths()[keep]
    return _class_means(k, plain, keep), _class_means(k, weighted, keep)


def clustering_of_k(g: CoocGraph) -> tuple[BinnedSeries, BinnedSeries]:
    """Mean plain and weighted clustering coefficient per degree class, k >= 2 only.

    Both numerators need only t_ij, the number of triangles on each edge:
    sum_j t_ij for C(k) and sum_j w_ij t_ij for C^w(k).  Every edge points
    from its lower to its higher end in (degree, position) order, so each
    triangle is found once, as a closed wedge of out-neighbours at its
    lowest node (compact-forward; Latapy, TCS 2008).  The pass tests
    sum_i C(out_i, 2) wedges in blocks of at most ``CLUSTERING_BLOCK_PATHS``.
    Both sums are exact integers.
    """
    k = g.degrees()
    n = k.size
    eu, ev = g.compact_edges()
    up = k[eu] <= k[ev]                      # eu < ev breaks degree ties
    low = np.where(up, eu, ev)
    order = np.argsort(low, kind="stable")   # out-lists, each ascending
    high = np.where(up, ev, eu)[order].astype(np.int64)
    # sorted edge keys, then a sentinel above every key
    keys = np.append(eu.astype(np.int64) * n + ev, n * n)
    t = np.zeros(eu.size, dtype=np.int64)
    closed: list[np.ndarray] = []
    for pos, iu, ju in _pair_blocks(np.bincount(low, minlength=n), CLUSTERING_BLOCK_PATHS):
        ends, edges = high[pos], order[pos]
        probe = (ends[:, iu] * n + ends[:, ju]).ravel()
        at = np.searchsorted(keys, probe)
        hit = np.flatnonzero(keys[at] == probe)
        row, p = np.divmod(hit, iu.size)
        closed += [edges[row, iu[p]], edges[row, ju[p]], at[hit]]
        if sum(map(len, closed)) >= t.size:   # the ids held pay for an O(edges) flush
            t += np.bincount(np.concatenate(closed), minlength=t.size)
            closed = []
    t += np.bincount(np.concatenate([_EMPTY, *closed]), minlength=t.size)
    plain, weighted = np.zeros((2, n))
    for side in (eu, ev):
        plain += np.bincount(side, t, n)
        weighted += np.bincount(side, g.weights * t, n)
    keep = k >= 2
    kk = k[keep]
    plain[keep] /= kk * (kk - 1)
    weighted[keep] /= g.strengths()[keep] * (kk - 1)
    return _class_means(k, plain, keep), _class_means(k, weighted, keep)


def weight_vs_kikj(g: CoocGraph,
                   bin_ratio: float = 2.0) -> tuple[np.ndarray, np.ndarray, BinnedSeries]:
    """Per-edge (k_i*k_j, w_ij) scatter plus its log-binned mean."""
    k = g.degrees()
    eu, ev = g.compact_edges()
    products = (k[eu] * k[ev]).astype(np.float64)
    weights = g.weights.astype(np.float64)
    return products, weights, log_bin(products, weights, bin_ratio)


def _normalized_rows(g: CoocGraph) -> tuple[np.ndarray, csr_matrix | None]:
    """Unit-norm weight rows of the positive-strength nodes."""
    W = _weight_matrix(g)
    norms = np.sqrt(np.asarray(W.multiply(W).sum(axis=1)).ravel())
    live = np.nonzero(norms > 0)[0]
    if live.size == 0:
        return live, None
    R = csr_matrix((1.0 / norms[live], (np.arange(live.size), np.arange(live.size))),
                   shape=(live.size, live.size)) @ W[live][:, live]
    # note: restricting columns to live nodes drops no mass, since any
    # neighbor of a live node has positive strength itself
    return live, R


def exact_similarities(g: CoocGraph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine similarities over positive-strength nodes.

    Returns the live node positions and their condensed upper triangle
    (pair order matches ``itertools.combinations`` over the live list).
    Quadratic in node count; meant for small graphs and validation.
    """
    live, R = _normalized_rows(g)
    if live.size < 2:
        return live, np.empty(0)
    return live, (R @ R.T).toarray()[np.triu_indices(live.size, k=1)]


def cosine_similarity_distribution(g: CoocGraph, pair_budget: int = 10 ** 6,
                                   seed: int = 0, bin_width: float = 0.05) -> Histogram:
    """Histogram of cosine similarity between node weight vectors.

    All unordered pairs are evaluated when the graph has at most
    ``EXACT_SIMILARITY_LIMIT`` nodes, otherwise ``pair_budget`` uniformly
    drawn pairs of distinct nodes.  Nodes with zero strength carry no
    weight vector and are excluded.
    """
    if pair_budget < 1:
        raise ParameterError("pair_budget must be >= 1")
    edges = np.round(np.arange(0.0, 1.0 + bin_width / 2, bin_width), 10)
    m = np.count_nonzero(g.degrees())     # nodes of positive strength
    if m < 2:
        return Histogram(edges, np.zeros(edges.size - 1, dtype=np.int64), False, 0)

    def histogram(sims: np.ndarray) -> np.ndarray:
        return np.histogram(np.clip(sims, 0.0, 1.0), bins=edges)[0].astype(np.int64)

    if m <= EXACT_SIMILARITY_LIMIT:
        sims = exact_similarities(g)[1]
        return Histogram(edges, histogram(sims), False, sims.size)
    R = _normalized_rows(g)[1]
    rng = np.random.default_rng(seed)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    remaining = pair_budget
    while remaining > 0:   # each drawn chunk is binned on its own
        take = min(remaining, 65536)
        i = rng.integers(m, size=take + take // 4 + 16)
        j = rng.integers(m, size=i.size)
        ok = i != j
        i, j = i[ok][:take], j[ok][:take]
        sims = []
        for lo in range(0, i.size, SIMILARITY_BLOCK_PAIRS):
            a, b = i[lo:lo + SIMILARITY_BLOCK_PAIRS], j[lo:lo + SIMILARITY_BLOCK_PAIRS]
            sims.append(np.asarray(R[a].multiply(R[b]).sum(axis=1)).ravel())
        counts += histogram(np.concatenate(sims))
        remaining -= i.size
    return Histogram(edges, counts, True, pair_budget)


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
