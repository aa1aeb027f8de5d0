"""Brute-force reference implementations used only by the test suite.

Everything here favors obviousness over speed: dict-of-dicts weights,
explicit pair loops, exhaustive walk enumeration.  Production code never
imports this module; tests compare its answers against the incremental
builders and the numpy observables.  The sparse-matrix oracles import
scipy when called, so only the tests that use them need it.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from tagwalk.cooc import CoocGraph, project
from tagwalk.errors import ContractError, ParameterError
from tagwalk.ingest import DEFAULT_TS_MIN, Corpus
import tagwalk.observables as obs
from tagwalk.observables import BinnedSeries, Distribution, _class_means, _log_edges
from tagwalk.rng import _TO_UNIT, GAMMA, mix64
from tagwalk.substrate import SubstrateGraph
from tagwalk.walker import WalkEnsemble, sample_lengths


# ---------------------------------------------------------------------------
# Co-occurrence counting
# ---------------------------------------------------------------------------

def naive_cooc_weights(traces, origin=None, count_origin=True):
    """Map {(i, j): weight} with i < j, one count per trace containing both."""
    weights: dict[tuple[int, int], int] = {}
    for trace in traces:
        distinct = set(int(v) for v in trace)
        if not count_origin and origin is not None:
            distinct.discard(int(origin))
        for i, j in combinations(sorted(distinct), 2):
            weights[(i, j)] = weights.get((i, j), 0) + 1
    return weights


def naive_vocabulary(traces, origin=None, count_origin=True):
    vocab: set[int] = set()
    for trace in traces:
        vocab.update(int(v) for v in trace)
    if not count_origin and origin is not None:
        vocab.discard(int(origin))
    return vocab


def neighbor_weights(weights):
    """{node: {neighbor: weight}} view of a pair-weight map."""
    adj: dict[int, dict[int, int]] = {}
    for (i, j), w in weights.items():
        adj.setdefault(i, {})[j] = w
        adj.setdefault(j, {})[i] = w
    return adj


# ---------------------------------------------------------------------------
# Node-level observables from the adjacency dict
# ---------------------------------------------------------------------------

def naive_degree(adj, i):
    return len(adj.get(i, {}))


def naive_strength(adj, i):
    return sum(adj.get(i, {}).values())


def naive_knn(adj, i, weighted=False):
    """Mean neighbor degree; weighted variant weights neighbors by edge weight."""
    nbrs = adj.get(i, {})
    if not nbrs:
        return None
    if weighted:
        return sum(w * naive_degree(adj, j) for j, w in nbrs.items()) / sum(nbrs.values())
    return sum(naive_degree(adj, j) for j in nbrs) / len(nbrs)


def naive_clustering(adj, i, weighted=False):
    """Triangle fraction at i; weighted variant averages (w_ij + w_ih)/2."""
    nbrs = adj.get(i, {})
    k = len(nbrs)
    if k < 2:
        return None
    total = 0.0
    for j, h in combinations(sorted(nbrs), 2):
        if h in adj.get(j, {}):
            total += (nbrs[j] + nbrs[h]) / 2.0 if weighted else 1.0
    if weighted:
        return 2.0 * total / (naive_strength(adj, i) * (k - 1))
    return 2.0 * total / (k * (k - 1))


def naive_class_means(per_node, key_of):
    """Average per-node values within classes; {class: mean}, None skipped."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for node, value in per_node.items():
        if value is None:
            continue
        cls = key_of(node)
        sums[cls] = sums.get(cls, 0.0) + value
        counts[cls] = counts.get(cls, 0) + 1
    return {cls: sums[cls] / counts[cls] for cls in sums}


def naive_cosine(adj, i, j):
    """Cosine similarity of full weight rows (mutual edge included)."""
    wi, wj = adj.get(i, {}), adj.get(j, {})
    ni = np.sqrt(sum(w * w for w in wi.values()))
    nj = np.sqrt(sum(w * w for w in wj.values()))
    if ni == 0.0 or nj == 0.0:
        return None
    dot = sum(w * wj[l] for l, w in wi.items() if l in wj)
    return dot / (ni * nj)


# ---------------------------------------------------------------------------
# Exhaustive walk enumeration (tiny graphs only)
# ---------------------------------------------------------------------------

def exhaustive_visit_probs(graph, origin, length):
    """Exact per-node visit probabilities for one walk of fixed length.

    Enumerates every neighbor-choice sequence with its exact probability
    (rational arithmetic), so cost is prod(degrees) along paths: keep the
    graph tiny and the length short.
    """
    probs = [Fraction(0)] * graph.node_count

    def recurse(cur, steps_left, visited, prob):
        if steps_left == 0:
            for v in visited:
                probs[v] += prob
            return
        nbrs = neighbors_of(graph, cur)
        if nbrs.size == 0:
            for v in visited:
                probs[v] += prob
            return
        share = prob / len(nbrs)
        for nxt in nbrs.tolist():
            recurse(nxt, steps_left - 1, visited | {nxt}, share)

    recurse(origin, length, {origin}, Fraction(1))
    return np.asarray([float(p) for p in probs])


# ---------------------------------------------------------------------------
# Scalar walk replay
# ---------------------------------------------------------------------------

def run_walk(graph, origin, master_seed, walk_index, lengths, non_backtracking=False):
    """Replay a single walk step by step.

    Produces exactly the trace that ``simulate_walks`` assigns to
    ``walk_index`` under the same master seed.
    """
    seed = walk_seed(master_seed, walk_index)
    length = int(sample_lengths(lengths, stream_uniform(seed, 0)))
    if graph.degree(origin) == 0:
        return np.asarray([origin], dtype=np.int32)
    trace = [origin]
    prev = -1
    cur = origin
    for t in range(length):
        u = stream_uniform(seed, t + 1)
        nbrs = neighbors_of(graph, cur)
        deg = nbrs.size
        if non_backtracking and t > 0:
            k = max(min(int(u * (deg - 1)), deg - 2), 0)
            nxt = int(nbrs[k])
            if nxt == prev:
                nxt = int(nbrs[deg - 1])
        else:
            nxt = int(nbrs[min(int(u * deg), deg - 1)])
        trace.append(nxt)
        prev = cur
        cur = nxt
    return np.asarray(trace, dtype=np.int32)


# ---------------------------------------------------------------------------
# Set-based Watts-Strogatz generator
# ---------------------------------------------------------------------------

def validate_substrate(graph: SubstrateGraph) -> None:
    """Check the CSR invariants of a substrate graph; raises ContractError on violation."""
    n = graph.node_count
    if graph.indptr.shape != (n + 1,) or graph.indptr[0] != 0:
        raise ContractError("malformed indptr")
    if np.any(np.diff(graph.indptr) < 0):
        raise ContractError("indptr not non-decreasing")
    if graph.indices.size != graph.indptr[-1]:
        raise ContractError("indices size disagrees with indptr")
    cols = graph.indices.astype(np.int64)
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ContractError("neighbor id out of range")
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    if np.any(rows == cols):
        raise ContractError("self-loop present")
    # within a row, neighbor ids must be strictly increasing
    if np.any((rows[1:] == rows[:-1]) & (np.diff(cols) <= 0)):
        raise ContractError("neighbor list not strictly increasing")
    # symmetry: the forward keys ascend already and equal the transpose's
    if not np.array_equal(rows * n + cols, np.sort(cols * n + rows)):
        raise ContractError("adjacency not symmetric")


def _graph_from_sets(adj: list[set[int]]) -> SubstrateGraph:
    n = len(adj)
    degrees = np.fromiter((len(s) for s in adj), dtype=np.int64, count=n)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    pos = 0
    for s in adj:
        nbrs = sorted(s)
        indices[pos:pos + len(nbrs)] = nbrs
        pos += len(nbrs)
    g = SubstrateGraph(n, indptr, indices)
    validate_substrate(g)
    return g


def naive_watts_strogatz(n: int, k: int, p_rewire: float, seed: int) -> SubstrateGraph:
    """Rewire a ring lattice held as one adjacency set per node.

    One scalar ``rng.integers(n)`` per target tried; ``generate_watts_strogatz``
    must give the same graph byte for byte.
    """
    if k % 2 != 0:
        raise ParameterError("k must be even")
    if not (2 <= k < n):
        raise ParameterError("need 2 <= k < n")
    if not (0.0 <= p_rewire <= 1.0):
        raise ParameterError("p_rewire must be in [0, 1]")
    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    half = k // 2
    for j in range(1, half + 1):
        for i in range(n):
            v = (i + j) % n
            adj[i].add(v)
            adj[v].add(i)
    for j in range(1, half + 1):
        coins = rng.random(n) < p_rewire
        for i in np.nonzero(coins)[0]:
            i = int(i)
            if len(adj[i]) >= n - 1:
                continue  # nothing left to rewire to
            v = (i + j) % n
            m = int(rng.integers(n))
            while m == i or m in adj[i]:
                m = int(rng.integers(n))
            adj[i].remove(v)
            adj[v].remove(i)
            adj[i].add(m)
            adj[m].add(i)
    return _graph_from_sets(adj)


# ---------------------------------------------------------------------------
# Scalar walk streams
# ---------------------------------------------------------------------------

def walk_seed(master_seed: int, walk_index: int) -> int:
    """Stream seed for one walk: element ``walk_index`` of the master sequence."""
    return mix64(master_seed + (walk_index + 1) * GAMMA)


def stream_uniform(seed: int, counter: int) -> float:
    """Draw ``counter`` of the stream as a float in [0, 1)."""
    bits = mix64(seed + (counter + 1) * GAMMA)
    return (bits >> 11) * _TO_UNIT


# ---------------------------------------------------------------------------
# Per-line text writers
# ---------------------------------------------------------------------------

def edge_arrays(graph: SubstrateGraph) -> tuple[np.ndarray, np.ndarray]:
    """All edges as parallel int32 arrays (i, j) with i < j, sorted lexicographically."""
    rows = np.repeat(np.arange(graph.node_count, dtype=np.int32), graph.degrees())
    keep = rows < graph.indices
    return rows[keep], graph.indices[keep]


def naive_write_substrate(graph, path) -> None:
    """``SubstrateGraph.write_edge_list`` as one f-string per edge."""
    rows, cols = edge_arrays(graph)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# nodes={graph.node_count}\n")
        for i, j in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{i}\t{j}\n")


def cooc_edges(g: CoocGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``g`` as ``(src, dst, weights)`` in ids, ``src < dst``, sorted."""
    rows = np.repeat(np.arange(g.node_count), np.diff(g.indptr))
    upper = rows < g.neighbors
    return g.node_ids[rows[upper]], g.node_ids[g.neighbors[upper]], g.entry_weights[upper]


def graph_from_ids(node_ids, src, dst, weights) -> CoocGraph:
    """``CoocGraph.from_edges`` of the sorted edges ``src < dst`` given in ids of ``node_ids``."""
    node_ids = np.asarray(node_ids, dtype=np.int64)
    pos = np.int32 if node_ids.size < 2 ** 31 else np.int64
    return CoocGraph.from_edges(node_ids, *(np.searchsorted(node_ids, ends).astype(pos)
                                            for ends in (src, dst)), weights)


def argsort_from_edges(node_ids, eu, ev, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``indptr``, ``neighbors`` and ``entry_weights`` of ``CoocGraph.from_edges``, by one
    stable argsort of all 2m adjacency entries by row."""
    pos = np.int32 if node_ids.size < 2 ** 31 else np.int64
    # Row i lists first the edges (j, i), then the edges (i, j).  Edges are
    # sorted by (eu, ev), so a stable sort by row leaves each row ascending.
    rows = np.concatenate([ev, eu]).astype(pos)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(node_ids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=node_ids.size), out=indptr[1:])
    order += eu.size        # [eu, ev][p] is rows[(p + m) % 2m], [w, w][p] is w[(p + m) % m]
    return indptr, rows.take(order, mode="wrap"), weights.take(order, mode="wrap")


def naive_write_cooc(g, path) -> None:
    """``CoocGraph.write_edge_list`` as one f-string per edge."""
    src, dst, weights = cooc_edges(g)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"# nodes={g.node_count} edges={src.size} "
                 f"total_weight={sum(weights.tolist())}\n")
        for i, j, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
            fh.write(f"{i}\t{j}\t{w}\n")


def naive_write_traces(ens, path) -> None:
    """``WalkEnsemble.write_traces`` as one join per walk."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for w in range(ens.walk_count):
            fh.write(" ".join(map(str, walk_trace(ens, w).tolist())))
            fh.write("\n")


def naive_write_jsonl(corpus, path) -> None:
    """``Corpus.write_jsonl`` as one ``json.dumps`` per post."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for p in range(len(corpus)):
            tags = corpus.tag_ids[corpus.offsets[p]:corpus.offsets[p + 1]]
            fh.write(json.dumps({"user": corpus.users[corpus.user_ids[p]],
                                 "resource": corpus.resources[corpus.resource_ids[p]],
                                 "ts": int(corpus.ts[p]),
                                 "tags": sorted(corpus.vocabulary[t] for t in tags)},
                                sort_keys=True))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Helpers only the tests use
# ---------------------------------------------------------------------------

def neighbors_of(graph: SubstrateGraph, node: int) -> np.ndarray:
    """``node``'s CSR row: its neighbours, ascending."""
    return graph.indices[graph.indptr[node]:graph.indptr[node + 1]]


def walk_trace(ens: WalkEnsemble, w: int) -> np.ndarray:
    """The nodes walk ``w`` visited in step order, origin first."""
    return ens.nodes[ens.offsets[w]:ens.offsets[w + 1]]


def walk_lengths(ens: WalkEnsemble) -> np.ndarray:
    """Each walk's step count, one less than its trace's node count."""
    return np.diff(ens.offsets) - 1


def merge(g1: CoocGraph, g2: CoocGraph) -> CoocGraph:
    """Union of node sets with edge weights added."""
    node_ids = np.union1d(g1.node_ids, g2.node_ids)
    scale = int(node_ids[-1]) + 1 if node_ids.size else 1
    (s1, d1, w1), (s2, d2, w2) = cooc_edges(g1), cooc_edges(g2)
    keys = np.concatenate([s1 * scale + d1, s2 * scale + d2])
    uniq, inv = np.unique(keys, return_inverse=True)
    weights = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(weights, inv, np.concatenate([w1, w2]))
    return graph_from_ids(node_ids, uniq // scale, uniq % scale, weights)


def low_sample(series: BinnedSeries, threshold: int = 3) -> np.ndarray:
    """Mask of classes backed by fewer than ``threshold`` samples."""
    return series.n < threshold


def sample_size(dist: Distribution) -> int:
    """Number of samples a raw histogram holds."""
    return int(dist.counts.sum())


def log_binned(dist: Distribution, bin_ratio: float = 2.0) -> BinnedSeries:
    """Probability density per geometric bin (counts / width / total)."""
    total = sample_size(dist)
    if total == 0:
        return BinnedSeries(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    x = dist.values.astype(np.float64)
    edges = _log_edges(x.min(), x.max(), bin_ratio)
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)
    mass = np.bincount(which, weights=dist.counts.astype(np.float64),
                       minlength=edges.size - 1)
    widths = np.diff(edges)
    keep = mass > 0
    centers = np.sqrt(edges[:-1] * edges[1:])
    return BinnedSeries(centers[keep], mass[keep] / widths[keep] / total,
                        mass[keep].astype(np.int64))


def distinct_count(ens: WalkEnsemble, count_origin: bool = True) -> int:
    """Number of distinct nodes the ensemble visited."""
    nodes = ens.nodes
    if not count_origin:
        nodes = nodes[nodes != ens.origin]
    return int(np.unique(nodes).size)


def posts_from_traces(ensemble: WalkEnsemble, user: str = "walker",
                      resource_prefix: str = "walk") -> tuple[list[str], str]:
    """Serialize walk traces as JSON Lines posts, one per walk, in walk order.

    Node ids become zero-padded tags so lexicographic and numeric order
    agree; the origin's tag doubles as the focus tag.  Returns the lines
    and that focus tag.
    """
    width = len(str(max(ensemble.node_count - 1, 1)))

    def label(node: int) -> str:
        return f"n{node:0{width}d}"

    lines = []
    for w in range(ensemble.walk_count):
        tags = sorted({label(int(v)) for v in walk_trace(ensemble, w)})
        lines.append(json.dumps({"user": user, "resource": f"{resource_prefix}-{w}",
                                 "ts": DEFAULT_TS_MIN + w, "tags": tags}, sort_keys=True))
    return lines, label(ensemble.origin)


def corpus_of(posts: Sequence[tuple[str, str, int, Iterable[str]]]) -> Corpus:
    """A columnar corpus holding ``(user, resource, ts, tags)`` posts as given.

    Unlike ``parse_posts``, it neither cleans nor reorders the posts.
    """
    users = sorted({u for u, _, _, _ in posts})
    resources = sorted({r for _, r, _, _ in posts})
    vocabulary = sorted({t for _, _, _, tags in posts for t in tags})
    tag_lists = [sorted(vocabulary.index(t) for t in set(tags)) for _, _, _, tags in posts]
    return Corpus(ts=np.asarray([ts for _, _, ts, _ in posts], dtype=np.int64),
                  user_ids=np.asarray([users.index(u) for u, _, _, _ in posts], dtype=np.int64),
                  resource_ids=np.asarray([resources.index(r) for _, r, _, _ in posts],
                                          dtype=np.int64),
                  offsets=np.cumsum([0] + [len(t) for t in tag_lists], dtype=np.int64),
                  tag_ids=np.asarray([t for ts in tag_lists for t in ts], dtype=np.int64),
                  users=tuple(users), resources=tuple(resources),
                  vocabulary=tuple(vocabulary))


def clean_log(path, lo: int, hi: int):
    """What ``parse_posts`` reads from the log at ``path``, one ``json.loads`` per line.

    Returns the accepted posts as ``(user, resource, ts, tags)`` in time
    order, ties in input order, with ``tags`` the sorted distinct lowercased
    tags; the users and the resources in order of first appearance in an
    accepted post; and the counts ``(malformed, no_tags, bad_timestamp)``.
    """
    posts, rejects = [], Counter()
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                post = json.loads(raw.decode())
            except (ValueError, RecursionError):
                post = None
            if not (isinstance(post, dict) and isinstance(post.get("user"), str)
                    and isinstance(post.get("resource"), str)
                    and isinstance(post.get("ts"), int) and not isinstance(post["ts"], bool)
                    and isinstance(post.get("tags"), list)
                    and all(isinstance(t, str) and not set(t) & {"\n", "\r"}
                            and not any("\ud800" <= c <= "\udfff" for c in t)
                            for t in post["tags"])):
                rejects["malformed"] += 1
                continue
            tags = tuple(sorted({t.lower() for t in post["tags"] if t}))
            if not tags:
                rejects["no_tags"] += 1
            elif not lo <= post["ts"] <= hi:
                rejects["bad_timestamp"] += 1
            else:
                posts.append((post["user"], post["resource"], post["ts"], tags))
    users = tuple(dict.fromkeys(user for user, _, _, _ in posts))
    resources = tuple(dict.fromkeys(resource for _, resource, _, _ in posts))
    posts.sort(key=lambda post: post[2])
    return posts, users, resources, (rejects["malformed"], rejects["no_tags"],
                                     rejects["bad_timestamp"])


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
    return project(*traces.walk_node_pairs(count_origin=count_origin))


def _ensemble_from_sequences(traces: Iterable[Sequence[int]],
                             node_count: int | None) -> WalkEnsemble:
    seqs = [np.asarray(t, dtype=np.int32) for t in traces]
    if any(s.size == 0 for s in seqs):
        raise ParameterError("empty trace")
    flat = np.concatenate(seqs) if seqs else np.empty(0, dtype=np.int32)
    offsets = np.concatenate([[0], np.cumsum([s.size for s in seqs], dtype=np.int64)])
    return WalkEnsemble(origin=int(flat[0]) if flat.size else 0,
                        node_count=node_count or int(flat.max(initial=0)) + 1,
                        offsets=offsets, nodes=flat)


def build_from_posts(posts: Iterable[Sequence[str]],
                     focus_tag: str) -> tuple[CoocGraph, tuple[str, ...]]:
    """Project posts' tag sets into a co-occurrence graph around ``focus_tag``.

    All posts must contain the focus tag; the focus tag itself is dropped
    from every clique.  Nodes are indices into the sorted tag vocabulary,
    returned with the graph.  The focus stream of ``ingest.filter_by_tag``
    through ``cooc.project`` must give the same graph and vocabulary.
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
    return project(group_ids, members), labels


# ---------------------------------------------------------------------------
# Sparse-matrix oracles: row-blocked SpGEMM clustering and scipy cosine
# (``clustering_of_k`` and the cosine paths must match them bit for bit)
# ---------------------------------------------------------------------------

def _weight_matrix(g: CoocGraph):
    """The cached adjacency as an integer scipy matrix, sharing its arrays."""
    from scipy.sparse import csr_matrix
    return csr_matrix((g.entry_weights, g.neighbors, g.indptr), shape=(g.node_count,) * 2)


def _normalized_rows(g: CoocGraph):
    """Unit-norm weight rows of the positive-strength nodes."""
    from scipy.sparse import csr_matrix
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


def takes_exact_path(g: CoocGraph, pair_budget: int = 10 ** 6) -> bool:
    """The cosine path rule, by counting pairs by their smaller degree.

    Exact where the wedges sum_c C(k_c, 2) plus the pairs C(m, 2) number at
    most ``obs.EXACT_COST_MULTIPLE`` times ``pair_budget`` x the mean over
    pairs of min(k_a, k_b), and on fewer than two live nodes, which have no
    pairs to sample.  The pairs whose smaller degree is d are the pairs of
    nodes of degree >= d less those of nodes of degree > d.
    """
    k = [int(d) for d in g.degrees() if d > 0]
    m = len(k)
    if m < 2:
        return True
    pairs = m * (m - 1) // 2
    wedges = sum(d * (d - 1) // 2 for d in k)
    by_degree = Counter(k)
    min_sum = at_least = 0
    for d in sorted(by_degree, reverse=True):
        above = at_least
        at_least += by_degree[d]
        min_sum += d * (at_least * (at_least - 1) // 2 - above * (above - 1) // 2)
    return wedges + pairs <= obs.EXACT_COST_MULTIPLE * pair_budget * Fraction(min_sum, pairs)


def scipy_similarities(g: CoocGraph, pair_budget: int = 10 ** 6,
                       seed: int = 0) -> np.ndarray:
    """Per-pair cosine similarities as the scipy implementation computed them.

    Where :func:`takes_exact_path`: the condensed upper triangle of
    ``R @ R.T``.  Elsewhere: the ``pair_budget`` drawn pairs in draw order,
    ``R[a].multiply(R[b]).sum(axis=1)`` over blocks of 4,096 pairs, which
    bound the copies of rows ``R[a]`` and ``R[b]``.
    """
    live, R = _normalized_rows(g)
    m = live.size
    if takes_exact_path(g, pair_budget):
        if m < 2:
            return np.empty(0)
        return (R @ R.T).toarray()[np.triu_indices(m, k=1)]
    rng = np.random.default_rng(seed)
    sims = []
    remaining = pair_budget
    while remaining > 0:
        take = min(remaining, 65536)
        i = rng.integers(m, size=take + take // 4 + 16)
        j = rng.integers(m, size=i.size)
        ok = i != j
        i, j = i[ok][:take], j[ok][:take]
        for lo in range(0, i.size, 4096):
            a, b = i[lo:lo + 4096], j[lo:lo + 4096]
            sims.append(np.asarray(R[a].multiply(R[b]).sum(axis=1)).ravel())
        remaining -= i.size
    return np.concatenate(sims)


CLUSTERING_BLOCK_PATHS = 1 << 20


def spgemm_clustering_of_k(g: CoocGraph) -> tuple[BinnedSeries, BinnedSeries]:
    """Mean plain and weighted clustering coefficient per degree class, k >= 2 only.

    Both numerators need only t_ij, the number of common neighbors of each
    linked pair: sum_j t_ij for C(k) and sum_j w_ij t_ij for C^w(k).  One
    pass computes t_ij in row blocks of at most ``CLUSTERING_BLOCK_PATHS``
    two-paths (a single row above the budget forms its own block), so the
    extra memory never grows with A^2.  Both sums are exact integers.
    """
    k = g.degrees()
    W = _weight_matrix(g)
    A = W.copy()
    A.data[:] = 1
    paths = np.cumsum(g.neighbor_sums(k[g.neighbors]))  # two-paths from rows 0..i
    plain = np.zeros(k.size)
    weighted = np.zeros(k.size)
    lo = 0
    while lo < k.size:
        done = paths[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(paths, done + CLUSTERING_BLOCK_PATHS,
                                             side="right")))
        T = (A[lo:hi] @ A).multiply(A[lo:hi])  # T[i,j] = t_ij on edges
        plain[lo:hi] = np.asarray(T.sum(axis=1)).ravel()
        weighted[lo:hi] = np.asarray(W[lo:hi].multiply(T).sum(axis=1)).ravel()
        lo = hi
    keep = k >= 2
    kk = k[keep]
    plain[keep] /= kk * (kk - 1)
    weighted[keep] /= g.strengths()[keep] * (kk - 1)
    return _class_means(k, plain, keep), _class_means(k, weighted, keep)
