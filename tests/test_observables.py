import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import tagwalk
import tagwalk.cooc as cooc
import tagwalk.observables as obs
import tagwalk.substrate as substrate
from naive_reference import (build_from_traces, cooc_edges, log_binned,
                             low_sample, naive_class_means, naive_clustering,
                             naive_cooc_weights, naive_cosine, naive_knn, neighbor_weights,
                             sample_size, scipy_similarities,
                             spgemm_clustering_of_k, takes_exact_path)
from tagwalk.cooc import CoocGraph
from tagwalk.errors import FitError, ParameterError
from tagwalk.observables import (cosine_similarity_distribution,
                                 clustering_of_k,
                                 degree_strength_weight_distributions,
                                 fit_power_law, frequency_rank, knn_of_k,
                                 log_bin, s_of_k, assert_accounting,
                                 weight_vs_kikj)
from tagwalk.substrate import generate_watts_strogatz
from tagwalk.walker import PowerLawLength, simulate_walks


def hand_cooc():
    """Weights (0,1)=3, (0,2)=1, (1,2)=2, (2,3)=1."""
    return build_from_traces([[0, 1], [0, 1], [0, 1], [0, 2],
                              [1, 2], [1, 2], [2, 3]])


@pytest.fixture
def hand_graph():
    return hand_cooc()


def random_cooc(seed, n_nodes=60, n_walks=150):
    g = generate_watts_strogatz(n_nodes, 4, 0.3, seed=seed)
    ens = simulate_walks(g, 0, n_walks, PowerLawLength(2.5, 1, 20), seed=seed)
    return build_from_traces(ens)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def test_distributions_hand_values(hand_graph):
    pk, ps, pw = degree_strength_weight_distributions(hand_graph)
    assert pk.values.tolist() == [1, 2, 3]
    assert pk.counts.tolist() == [1, 2, 1]
    assert ps.values.tolist() == [1, 4, 5]
    assert ps.counts.tolist() == [1, 2, 1]
    assert pw.values.tolist() == [1, 2, 3]
    assert pw.counts.tolist() == [2, 1, 1]
    assert sample_size(pk) == 4 and sample_size(pw) == 4


def test_log_binned_density_normalizes(hand_graph):
    pk, _, _ = degree_strength_weight_distributions(hand_graph)
    binned = log_binned(pk, bin_ratio=2.0)
    edges = obs._log_edges(1.0, 3.0, 2.0)
    widths = np.diff(edges)[: binned.y.size]
    assert np.isclose(np.sum(binned.y * widths), 1.0)


# ---------------------------------------------------------------------------
# Degree-conditioned observables
# ---------------------------------------------------------------------------

def test_s_of_k_hand_values(hand_graph):
    series = s_of_k(hand_graph)
    assert series.x.tolist() == [1, 2, 3]
    assert series.y.tolist() == [1.0, 4.5, 4.0]
    assert series.n.tolist() == [1, 2, 1]
    assert low_sample(series, threshold=2).tolist() == [True, False, True]


def test_knn_hand_values(hand_graph):
    plain, weighted = knn_of_k(hand_graph)
    assert plain.x.tolist() == [1, 2, 3]
    assert plain.y == pytest.approx([3.0, 2.5, 5.0 / 3.0])
    assert weighted.y == pytest.approx([3.0, (2.25 + 2.4) / 2.0, 1.75])


def test_clustering_hand_values(hand_graph):
    plain, weighted = clustering_of_k(hand_graph)
    assert plain.x.tolist() == [2, 3]           # k=1 nodes are skipped
    assert plain.y == pytest.approx([1.0, 1.0 / 3.0])
    assert plain.n.tolist() == [2, 1]
    assert weighted.y == pytest.approx([1.0, 3.0 / 8.0])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_uniform_weights_reduce_to_unweighted(seed):
    # every edge weight 1: weighted and plain variants must coincide exactly
    rng = np.random.default_rng(seed)
    n = 30
    traces = [[int(a), int(b)] for a, b in rng.integers(0, n, (150, 2))
              if a != b]
    seen = set()
    unique_traces = []
    for t in traces:
        key = (min(t), max(t))
        if key not in seen:
            seen.add(key)
            unique_traces.append(t)
    g = build_from_traces(unique_traces)
    assert np.all(g.entry_weights == 1)
    for a, b in (knn_of_k(g), clustering_of_k(g)):
        assert np.array_equal(a.x, b.x)
        assert a.y == pytest.approx(b.y.tolist(), abs=1e-12)


@pytest.mark.parametrize("seed", [5, 6])
def test_class_observables_match_naive(seed):
    g = random_cooc(seed)
    traces = None  # naive built from the weight map directly
    adj = neighbor_weights({(int(i), int(j)): int(w) for i, j, w in zip(*cooc_edges(g))})
    ids = g.node_ids.tolist()
    for weighted, got, got_c in zip((False, True), knn_of_k(g), clustering_of_k(g)):
        want = naive_class_means(
            {v: naive_knn(adj, v, weighted=weighted) for v in ids},
            key_of=lambda v: len(adj.get(v, {})))
        assert {float(x): pytest.approx(y, abs=1e-9)
                for x, y in zip(got.x, got.y)} == want
        want_c = naive_class_means(
            {v: naive_clustering(adj, v, weighted=weighted) for v in ids},
            key_of=lambda v: len(adj.get(v, {})))
        assert {float(x): pytest.approx(y, abs=1e-9)
                for x, y in zip(got_c.x, got_c.y)} == want_c
    assert traces is None


def random_cliques(seed, n_nodes=40, n_posts=120):
    """Graph from random 2-5 node cliques: many triangles, uneven weights."""
    rng = np.random.default_rng(seed)
    return build_from_traces([rng.choice(n_nodes, size=int(rng.integers(2, 6)),
                                         replace=False).tolist()
                              for _ in range(n_posts)])


def cooc_graph(node_ids, pairs):
    """Graph on ``node_ids`` with edges ``pairs`` (i < j), weighted i % 3 + j % 5 + 1."""
    src, dst = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T.copy()
    return CoocGraph.from_edges(np.asarray(node_ids, dtype=np.int64).reshape(-1),
                                src, dst, src % 3 + dst % 5 + 1)


def hub_ring(n):
    """Hub 0 linked to every node of the ring 1..n-1, uneven weights.

    Every row of A^2 has about n entries, so full A@A holds at least n^2.
    """
    ring = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return cooc_graph(range(n), [(0, i) for i in range(1, n)] + ring)


@pytest.mark.parametrize("graph", [random_cooc(7), random_cooc(8),
                                   random_cliques(1), random_cliques(2)])
def test_clustering_matches_networkx(graph):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(graph.node_ids.tolist())
    G.add_edges_from(zip(*(e.tolist() for e in cooc_edges(graph)[:2])))
    per_node = nx.clustering(G)
    want = naive_class_means(
        {v: per_node[v] if G.degree(v) >= 2 else None for v in G},
        key_of=G.degree)
    plain, _ = clustering_of_k(graph)
    assert {float(x): pytest.approx(y, abs=1e-12)
            for x, y in zip(plain.x, plain.y)} == want


@pytest.mark.parametrize("graph", [hub_ring(300), random_cliques(3)],
                         ids=["hub_ring", "cliques"])
def test_clustering_blocks_are_bit_identical(graph, monkeypatch):
    # one block: a budget above sum k^2, so above every wedge count
    monkeypatch.setattr(substrate, "_PAIR_BLOCK", int((graph.degrees() ** 2).sum()) + 1)
    whole = clustering_of_k(graph)
    # the hub row alone has 3 * 299 = 897 two-paths, a ring row 305
    for budget in (700, 1):
        monkeypatch.setattr(substrate, "_PAIR_BLOCK", budget)
        for got, want in zip(clustering_of_k(graph), whole):
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)
            assert np.array_equal(got.n, want.n)


def test_clustering_memory_stays_below_full_product(monkeypatch):
    n = 3000
    g = hub_ring(n)
    a2_bytes = 12 * n * n  # n^2 entries of 8-byte value plus 4-byte index

    def peak():
        tracemalloc.start()
        try:
            clustering_of_k(g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < a2_bytes / 3
    monkeypatch.setattr(substrate, "_PAIR_BLOCK", 1 << 16)
    assert peak() < a2_bytes / 30


def test_clustering_scratch_memory_is_one_block():
    # K_211,211 (see below) has 211 C(211, 2) = 4.67e6 wedges, 285 blocks
    m = 211
    g = cooc_graph(range(2 * m), [(i, j) for i in range(m) for j in range(m, 2 * m)])
    g.degrees(), g.strengths(), g._edge_table
    tracemalloc.start()
    try:
        clustering_of_k(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pass's arrays per adjacency entry, plus about 80 bytes per wedge of a block
    assert peak < 40 * g.neighbors.size + 128 * substrate._PAIR_BLOCK


ORACLE_GRAPHS = {
    "random_cooc": random_cooc(7),
    "random_cliques": random_cliques(1),
    "hub_ring": hub_ring(300),
    # degrees tie (all of them, or all but the hub's), so position orients
    "complete": cooc_graph(range(12), list(combinations(range(12), 2))),
    "ring": cooc_graph(range(20), [(i, i + 1) for i in range(19)] + [(0, 19)]),
    "star": cooc_graph(range(10), [(0, i) for i in range(1, 10)]),
    "isolated": cooc_graph([0, 2, 3, 5, 8, 9], [(2, 3), (2, 5), (3, 5), (5, 8)]),
    "empty": cooc_graph([], []),
    "triangle": cooc_graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
}


def assert_matches_oracle(graph, want=None):
    want = spgemm_clustering_of_k(graph) if want is None else want
    for got, ref in zip(clustering_of_k(graph), want):
        for field in ("x", "y", "n"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field


# 1 << 20 leaves every graph here in one block
@pytest.mark.parametrize("budget", [1, 700, 1 << 20])
@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_clustering_matches_spgemm_oracle(name, budget, monkeypatch):
    monkeypatch.setattr(substrate, "_PAIR_BLOCK", budget)
    assert_matches_oracle(ORACLE_GRAPHS[name])


@pytest.mark.parametrize("budget", [1, 700, 5000])
def test_clustering_blocks_stay_within_budget(budget, monkeypatch):
    sizes, beyond = [], []

    def recorded(counts):
        for e, f in substrate._segment_pairs(counts):
            sizes.append(e.size)
            # a block holds at most the budget plus its first item's pairs
            beyond.append(e.size - np.count_nonzero(e == e[0]) if e.size else 0)
            yield e, f

    monkeypatch.setattr(substrate, "_PAIR_BLOCK", budget)
    monkeypatch.setattr(obs, "_segment_pairs", recorded)
    g = ORACLE_GRAPHS["hub_ring"]
    assert_matches_oracle(g)
    assert max(beyond) <= budget and max(sizes) <= budget + 2
    # the hub ranks last; 297 ring nodes point to two others, one to three
    assert sum(sizes) == 297 * 1 + 3


@pytest.mark.parametrize("table_bytes", [0, 1])
@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_clustering_matches_spgemm_oracle_through_a_colliding_table(name, table_bytes,
                                                                     monkeypatch):
    # 0 bytes leaves one slot, which every key shares; 1 byte leaves one
    # slot per one or two entries
    monkeypatch.setattr(cooc, "EDGE_TABLE_BYTES", table_bytes)
    graph = replace(ORACLE_GRAPHS[name])     # builds its own table
    if graph.edge_count:
        assert graph._edge_table.mask + 1 < graph.neighbors.size
    assert_matches_oracle(graph)


def test_projection_and_clustering_keep_nothing_after_they_return():
    # A group of 1237 members and an out-degree of 211 occur in no other
    # test, so no cache of pair indices can already hold them.
    def held_after(call):
        tracemalloc.start()
        try:
            result = call()
            # A full collection empties CPython's free lists: after one, 80
            # keyword calls leave 80 dict-key blocks (9.6 kB) traced in them.
            gc.collect()
            return result, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    g, held = held_after(lambda: cooc.project(np.zeros(1237, dtype=np.int64),
                                              np.arange(1237)))
    assert g.edge_count == 1237 * 1236 // 2
    assert held < sum(a.nbytes for a in (g.node_ids, g.indptr, g.neighbors,
                                         g.entry_weights)) + 10_000
    # K_211,211: all degrees tie, so each node of the first side points to
    # all 211 of the second, and the second side points nowhere
    m = 211
    g = cooc_graph(range(2 * m), [(i, j) for i in range(m) for j in range(m, 2 * m)])
    g.degrees(), g.strengths(), g._edge_table
    (plain, weighted), held = held_after(lambda: clustering_of_k(g))
    assert plain.x.tolist() == [m] and plain.y.tolist() == [0.0] == weighted.y.tolist()
    assert held < 10_000


def test_a_graph_at_rest_holds_its_csr_and_per_node_arrays():
    # After every observable: int32 neighbours and int64 weights, 12 bytes
    # per adjacency entry, the edge table, and int64 arrays per node.
    g = random_cliques(9, n_nodes=100, n_posts=2000)
    degree_strength_weight_distributions(g), s_of_k(g), knn_of_k(g), clustering_of_k(g)
    weight_vs_kikj(g), cosine_similarity_distribution(g), assert_accounting(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obs, "EXACT_COST_MULTIPLE", 0)
        assert cosine_similarity_distribution(g, pair_budget=1000).sampled
    held = {}

    def collect(value):
        if isinstance(value, np.ndarray):
            assert value.base is None       # so that nbytes is the memory it holds
            held[id(value)] = value.nbytes
        elif isinstance(value, tuple):
            for item in value:
                collect(item)
    collect(tuple(v for name, v in vars(g).items() if name != "_edge_table"))
    entries = g.neighbors.size
    assert entries > 20 * g.node_count
    assert sum(held.values()) <= 12 * entries + 5 * 8 * (g.node_count + 1)


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(0, 16))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return cooc_graph(range(n), chosen)


@seed(20041)
@given(weighted_graphs())
@settings(max_examples=80, deadline=None)
def test_clustering_matches_spgemm_oracle_on_any_graph(graph):
    want = spgemm_clustering_of_k(graph)
    for budget in (1, 700, substrate._PAIR_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(substrate, "_PAIR_BLOCK", budget)
            assert_matches_oracle(graph, want)


# ---------------------------------------------------------------------------
# Weight versus degree product
# ---------------------------------------------------------------------------

def test_weight_vs_product_hand_values(hand_graph):
    products, weights, binned = weight_vs_kikj(hand_graph)
    src, dst, _ = cooc_edges(hand_graph)
    by_pair = dict(zip(zip(src.tolist(), dst.tolist()),
                       zip(products.tolist(), weights.tolist())))
    assert by_pair[(0, 1)] == (4.0, 3.0)
    assert by_pair[(0, 2)] == (6.0, 1.0)
    assert by_pair[(1, 2)] == (6.0, 2.0)
    assert by_pair[(2, 3)] == (3.0, 1.0)
    # bin accounting: every edge lands in exactly one bin
    assert int(binned.n.sum()) == 4
    assert np.sum(binned.y * binned.n) == pytest.approx(weights.sum())


def test_weight_vs_product_empty():
    g = build_from_traces([[3]], node_count=4)
    products, weights, binned = weight_vs_kikj(g)
    assert products.size == 0 and binned.x.size == 0


# ---------------------------------------------------------------------------
# Cosine similarity
# ---------------------------------------------------------------------------

def test_similarity_hand_histogram(hand_graph):
    hist = cosine_similarity_distribution(hand_graph)
    assert not hist.sampled
    assert hist.pair_count == 6
    assert hist.edges.size == 21
    want = np.zeros(20, dtype=np.int64)
    want[0] = 1    # pair (2,3): no shared context
    want[3] = 1    # sim(0,1) ~ 0.175
    want[6] = 2    # sim(0,3) ~ 0.316, sim(1,2) ~ 0.340
    want[11] = 1   # sim(1,3) ~ 0.555
    want[15] = 1   # sim(0,2) ~ 0.775
    assert hist.counts.tolist() == want.tolist()
    assert hist.mode_center() == pytest.approx(0.325)


def test_exact_similarities_hand_values(hand_graph):
    sims = exact_similarities(hand_graph)
    assert np.flatnonzero(hand_graph.degrees()).tolist() == [0, 1, 2, 3]
    want = [2 / np.sqrt(130), 6 / np.sqrt(60), 1 / np.sqrt(10),
            3 / np.sqrt(78), 2 / np.sqrt(13), 0.0]
    assert sims == pytest.approx(want, abs=1e-12)


def test_similarity_matches_naive(hand_graph):
    adj = neighbor_weights({(int(i), int(j)): int(w)
                          for i, j, w in zip(*cooc_edges(hand_graph))})
    assert naive_cosine(adj, 0, 2) == pytest.approx(6.0 / np.sqrt(60.0))
    assert naive_cosine(adj, 2, 3) == pytest.approx(0.0)


def test_similarity_identical_vectors_hit_top_bin():
    # 0 and 1 share the same two neighbors with equal weights: sim = 1
    g = build_from_traces([[0, 2], [0, 3], [1, 2], [1, 3]])
    hist = cosine_similarity_distribution(g)
    assert hist.counts[-1] >= 1


def test_similarity_sampling_path(monkeypatch):
    g = random_cooc(9)
    exact = cosine_similarity_distribution(g)
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    sampled = cosine_similarity_distribution(g, pair_budget=40_000, seed=1)
    assert sampled.sampled and sampled.pair_count == 40_000
    assert exact.counts.sum() > 0
    p_exact = exact.counts / exact.counts.sum()
    p_samp = sampled.counts / sampled.counts.sum()
    assert np.max(np.abs(p_exact - p_samp)) < 0.03


def test_similarity_sample_does_not_depend_on_block_size(monkeypatch):
    g = random_cooc(9)
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    counts = []
    for probes in (1 << 20, obs.SIMILARITY_BLOCK_PROBES, 999):
        monkeypatch.setattr(obs, "SIMILARITY_BLOCK_PROBES", probes)
        counts.append(cosine_similarity_distribution(g, pair_budget=150_000, seed=3).counts)
    assert all(np.array_equal(counts[0], c) for c in counts[1:])


def test_similarity_sample_memory_does_not_grow_with_budget(monkeypatch, threads=1):
    # a ring of 2,100 nodes: its weight rows are tiny, so the peak is that
    # of the sampling itself
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    n = 2100
    g = build_from_traces([[i, (i + 1) % n] for i in range(n)])

    def peak(pair_budget, threads):
        tracemalloc.start()
        try:
            hist = cosine_similarity_distribution(g, pair_budget=pair_budget, seed=2,
                                                  threads=threads)
            assert hist.sampled and hist.pair_count == pair_budget
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(65_536, 1)     # caches the graph's arrays, so neither peak below holds them
    # 10**6 similarities held at once take 8 MB per copy; one draw of
    # 65,536 pairs holds about 3.5 MB of index arrays and similarities.  The
    # bound is that of one draw on one thread, whichever way two threads'
    # blocks happen to overlap.
    assert peak(10 ** 6, threads) < 1.5 * peak(65_536, 1)


def test_similarity_sample_memory_does_not_grow_with_budget_on_two_threads(monkeypatch):
    test_similarity_sample_memory_does_not_grow_with_budget(monkeypatch, threads=2)


def test_exact_similarity_memory_is_one_block_not_the_triangle():
    # 1,900 live nodes and a hub: the whole triangle alone would take 13.8 MiB
    g = ring_of_hubs(1900, 1)
    m = np.count_nonzero(g.degrees())
    assert takes_exact_path(g)
    tracemalloc.start()
    try:
        hist = cosine_similarity_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hist.sampled and hist.pair_count == m * (m - 1) // 2
    assert peak < 8 * hist.pair_count / 3


def test_similarity_excludes_isolated_nodes():
    g = build_from_traces([[0, 1], [5]], node_count=6)
    hist = cosine_similarity_distribution(g)
    # only nodes 0 and 1 carry weight; their mutual similarity is defined
    assert hist.pair_count == 1


def test_similarity_degenerate_graph():
    g = build_from_traces([[2]], node_count=3)
    hist = cosine_similarity_distribution(g)
    assert hist.counts.sum() == 0
    with pytest.raises(ParameterError):
        hist.mode_center()


# The per-pair similarities must equal, bit for bit, those of the scipy
# implementation they replaced (``naive_reference.scipy_similarities``):
# with integer weights a value can sit exactly on a bin edge, so another
# summation order could move histogram counts.

COSINE_GRAPHS = {
    "hand": hand_cooc(),
    "random_cooc": random_cooc(7),
    "hub_ring": hub_ring(300),
    "complete": ORACLE_GRAPHS["complete"],
    "star": ORACLE_GRAPHS["star"],
    "ring": ORACLE_GRAPHS["ring"],
    "isolated": ORACLE_GRAPHS["isolated"],
}


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def exact_similarities(graph):
    return np.concatenate([np.empty(0), *obs.exact_similarities(graph)])


def sampled_similarities(graph, pair_budget, seed, threads=1):
    return np.concatenate([np.empty(0), *obs._sampled_similarities(graph, pair_budget, seed,
                                                                    threads)])


# batches: past every graph's pair count, the default, a wedge or a row at a time, a few
@pytest.mark.parametrize("batch", [1 << 18, obs.SIMILARITY_BATCH_WEDGES, 1, 7])
@pytest.mark.parametrize("name", COSINE_GRAPHS)
def test_exact_similarities_match_scipy_oracle(name, batch, monkeypatch):
    graph = COSINE_GRAPHS[name]
    want = scipy_similarities(graph)
    monkeypatch.setattr(obs, "SIMILARITY_BATCH_WEDGES", batch)
    blocks = list(obs.exact_similarities(graph))
    assert same_bits(np.concatenate([np.empty(0), *blocks]), want)
    # each block holds whole first-index rows, at most the budget past its first row
    m = np.count_nonzero(graph.degrees())
    rows = np.arange(m)
    starts = rows * (2 * m - rows - 1) // 2
    assert set(np.cumsum([b.size for b in blocks]).tolist()) <= set(starts.tolist()) | {want.size}
    assert all(b.size <= batch + m - 1 for b in blocks)


# (pairs drawn, probes per block): one block, the default, a pair per block, a few pairs
@pytest.mark.parametrize("pairs, probes", [(1, 10 ** 9), (999, 10 ** 9), (4096, 10 ** 9),
                                           (4096, obs.SIMILARITY_BLOCK_PROBES), (4096, 1),
                                           (999, 50)])
@pytest.mark.parametrize("name", COSINE_GRAPHS)
def test_sampled_similarities_match_scipy_oracle(name, pairs, probes, monkeypatch):
    graph = COSINE_GRAPHS[name]
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    want = scipy_similarities(graph, pair_budget=pairs, seed=5)
    assert want.size == pairs
    monkeypatch.setattr(obs, "SIMILARITY_BLOCK_PROBES", probes)
    assert same_bits(sampled_similarities(graph, pairs, 5), want)


def test_sampled_similarities_match_scipy_oracle_across_draws(monkeypatch, threads=1):
    graph = random_cooc(8)
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    want = scipy_similarities(graph, pair_budget=140_000, seed=9)   # three draws
    draws = list(obs._sampled_similarities(graph, 140_000, 9, threads))
    assert [d.size for d in draws] == [65536, 65536, 8928]
    assert same_bits(np.concatenate(draws), want)


# Worker w of t takes blocks w, w + t, ... of each draw; every pair keeps its bits.
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", COSINE_GRAPHS)
def test_sampled_similarities_match_scipy_oracle_on_threads(name, threads, monkeypatch):
    graph = COSINE_GRAPHS[name]
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    monkeypatch.setattr(obs, "SIMILARITY_BLOCK_PROBES", 999)    # several blocks per worker
    want = scipy_similarities(graph, pair_budget=3000, seed=5)
    assert same_bits(sampled_similarities(graph, 3000, 5, threads), want)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sampled_similarities_match_scipy_oracle_across_draws_on_threads(threads,
                                                                          monkeypatch):
    test_sampled_similarities_match_scipy_oracle_across_draws(monkeypatch, threads)


def test_similarity_rejects_no_threads():
    with pytest.raises(ParameterError, match="threads must be >= 1"):
        cosine_similarity_distribution(hand_cooc(), threads=0)


@pytest.mark.parametrize("table_bytes", [0, 1])
@pytest.mark.parametrize("name", ["hand", "random_cooc", "hub_ring", "complete"])
def test_sampled_similarities_survive_a_colliding_table(name, table_bytes, monkeypatch):
    # 0 bytes leaves one slot, which every key shares; 1 byte leaves one
    # slot per one or two entries
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    want = scipy_similarities(COSINE_GRAPHS[name], pair_budget=3000, seed=6)
    monkeypatch.setattr(cooc, "EDGE_TABLE_BYTES", table_bytes)
    graph = replace(COSINE_GRAPHS[name])     # builds its own table
    rows = graph._edge_table
    assert rows.mask + 1 < graph.neighbors.size   # fewer slots than keys
    assert rows.shared_ids.size > 1
    assert same_bits(sampled_similarities(graph, 3000, 6), want)


def test_sampled_similarities_with_a_row_past_int16(monkeypatch):
    # a hub of 2^15 + 2 leaves needs 4-byte row offsets
    n = 2 ** 15 + 3
    graph = cooc_graph(range(n), [(0, i) for i in range(1, n)] + [(1, 2), (2, 3)])
    assert graph._edge_table.table.dtype == np.int32
    want = scipy_similarities(graph, pair_budget=4000, seed=2)
    assert same_bits(sampled_similarities(graph, 4000, 2), want)
    monkeypatch.setattr(cooc, "EDGE_TABLE_BYTES", 0)
    assert same_bits(sampled_similarities(replace(graph), 4000, 2), want)


@st.composite
def cosine_graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = list(combinations(range(n), 2))
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    src, dst = np.array(chosen, dtype=np.int64).reshape(-1, 2).T.copy()
    weights = np.array(draw(st.lists(st.integers(1, 60), min_size=len(chosen),
                                     max_size=len(chosen))), dtype=np.int64)
    return CoocGraph.from_edges(np.arange(n, dtype=np.int64), src, dst, weights)


@seed(20091)
@given(cosine_graphs())
@settings(max_examples=60, deadline=None)
def test_cosine_matches_scipy_oracle_on_any_graph(graph):
    assert same_bits(exact_similarities(graph), scipy_similarities(graph))
    if np.count_nonzero(graph.degrees()) < 2:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obs, "EXACT_COST_MULTIPLE", 0)
        want = scipy_similarities(graph, pair_budget=600, seed=4)
        for table_bytes in (0, cooc.EDGE_TABLE_BYTES):
            mp.setattr(cooc, "EDGE_TABLE_BYTES", table_bytes)
            assert same_bits(sampled_similarities(replace(graph), 600, 4), want)


def ring_of_hubs(n, hubs):
    """``hubs`` nodes linked to every node, the other nodes on a ring."""
    ring = [(i, i + 1) for i in range(hubs, n - 1)] + [(hubs, n - 1)]
    return cooc_graph(range(n), [(h, j) for h in range(hubs) for j in range(h + 1, n)]
                      + ring)


MEMORY_CASES = [(50_000, 4, 10 ** 6), (2_200, 100, 200_000)]


@pytest.mark.parametrize("n, hubs, pair_budget", MEMORY_CASES)
def test_similarity_sample_memory_is_the_graph_plus_one_block(n, hubs, pair_budget, threads=1):
    # Most drawn pairs touch a hub row.  With 100 hubs every pair probes
    # about 100 entries, so a block holds some 1,300 pairs.  The ring of
    # the same size holds the same draws, in blocks of as many probes over
    # rows of two entries.
    graph, ring = ring_of_hubs(n, hubs), ring_of_hubs(n, 0)
    assert not (takes_exact_path(graph, pair_budget) or takes_exact_path(ring, pair_budget))

    def peak(g):
        g.degrees()
        tracemalloc.start()
        try:
            hist = cosine_similarity_distribution(g, pair_budget=pair_budget, seed=2,
                                                  threads=threads)
            assert hist.sampled
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    adjacency = sum(a.nbytes for a in (graph.indptr, graph.neighbors, graph.entry_weights))
    assert peak(graph) <= 2 * adjacency + peak(ring)


@pytest.mark.parametrize("n, hubs, pair_budget", MEMORY_CASES)
def test_similarity_sample_memory_is_the_graph_plus_one_block_on_two_threads(n, hubs,
                                                                               pair_budget):
    # two workers hold two blocks, each of at most half the probes of one
    test_similarity_sample_memory_is_the_graph_plus_one_block(n, hubs, pair_budget, threads=2)


# Cosine takes the exact path wherever the exact cost is at most
# EXACT_COST_MULTIPLE times the sampled one.  That holds on every graph of
# at most 1.5 x pair_budget pairs, so the fixed graphs below have more.

def test_similarity_goes_exact_above_the_limit_where_that_is_cheaper():
    # 2,100 nodes in random cliques: about 1e6 wedges and 2.2e6 pairs,
    # against 10^6 sampled pairs of some 20 probes each
    g = random_cliques(1, n_nodes=2100, n_posts=6000)
    m = np.count_nonzero(g.degrees())
    assert m * (m - 1) // 2 > 1.5 * 10 ** 6 and takes_exact_path(g)
    hist = cosine_similarity_distribution(g)
    want = scipy_similarities(g)
    assert not hist.sampled and hist.pair_count == want.size == m * (m - 1) // 2
    assert hist.counts.tolist() == np.histogram(np.clip(want, 0.0, 1.0),
                                                bins=hist.edges)[0].tolist()
    assert same_bits(exact_similarities(g), want)


def test_similarity_stays_sampled_on_a_hub_heavy_graph():
    # a star of 2,100 nodes: C(2099, 2) wedges at the hub plus C(2100, 2)
    # pairs, 4.4e6, against 10^6 sampled pairs of one probe each
    g = cooc_graph(range(2100), [(0, i) for i in range(1, 2100)])
    assert not takes_exact_path(g)
    hist = cosine_similarity_distribution(g, seed=1)
    assert hist.sampled and hist.pair_count == 10 ** 6


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_similarity_at_the_cost_boundary_goes_exact_on_any_thread_count(threads):
    # A ring of m = 2,003 nodes has m wedges and C(m, 2) pairs, 2,007,006 in
    # all, and each sampled pair probes 2 entries: the exact cost is 3 times
    # the sampled one at 334,501 pairs, and above it at one pair fewer.
    m = 2003
    g = ring_of_hubs(m, 0)
    assert takes_exact_path(g, 334_501) and not takes_exact_path(g, 334_500)
    at = cosine_similarity_distribution(g, pair_budget=334_501, threads=threads)
    assert not at.sampled and at.pair_count == m * (m - 1) // 2
    below = cosine_similarity_distribution(g, pair_budget=334_500, threads=threads)
    assert below.sampled and below.pair_count == 334_500


@seed(20092)
@given(cosine_graphs(), st.integers(1, 100))
@settings(max_examples=60, deadline=None)
def test_similarity_path_rule_matches_the_counting_oracle(graph, pair_budget):
    assert (obs._exact_similarity_pays(graph.degrees(), pair_budget)
            == takes_exact_path(graph, pair_budget))


def test_exact_similarity_memory_is_below_the_estimates(monkeypatch):
    # A walk graph of over 2,000 live nodes, on which the exact path is the
    # cheaper: it must also hold less than the estimate, whose peak
    # includes the edge table it builds.  One draw of pairs holds as much
    # as many (test_similarity_sample_memory_does_not_grow_with_budget).
    walks = simulate_walks(generate_watts_strogatz(20_000, 8, 0.1, seed=1), 0, 20_000,
                           PowerLawLength(2.5, 1, 100), seed=1)
    g = build_from_traces(walks)
    assert np.count_nonzero(g.degrees()) > 2000
    assert takes_exact_path(g)

    def peak(graph, **kwargs):
        graph.degrees()
        tracemalloc.start()
        try:
            hist = cosine_similarity_distribution(graph, **kwargs)
            return hist.sampled, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    exact_sampled, exact = peak(g)
    monkeypatch.setattr(obs, "EXACT_COST_MULTIPLE", 0)
    sampled_sampled, sampled = peak(replace(g), pair_budget=65_536, seed=2)
    assert not exact_sampled and sampled_sampled
    assert exact < sampled


NO_SCIPY = """
import sys
from tagwalk.cli import main

run, ingest, stats = sys.argv[1:4]
assert "scipy" not in sys.modules, "import"
for command, config in (("run", run), ("ingest", ingest), ("stats", stats)):
    out = config.replace(".json", "_out")
    assert main([command, "--config", config, "--out", out]) == 0, command
    assert "scipy" not in sys.modules, command
"""


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter: run on a graph of the exact cosine path, ingest,
    # and stats on a graph of the sampled path, each leaving scipy unimported
    run = tmp_path / "run.json"
    run.write_text(json.dumps({
        "seed": 3, "graph": {"type": "watts_strogatz", "n": 300, "k": 4, "p_rewire": 0.1},
        "walk": {"origin": 0, "n_rw": 300, "lengths": {
            "type": "power_law", "exponent": 2.5, "l_min": 1, "l_max": 50}}}))
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({"user": "u", "resource": f"r{i}", "ts": 10 ** 9 + i,
                                       "tags": ["web", f"t{i % 5}", f"t{i % 3}"]}) + "\n"
                           for i in range(30)))
    ingest = tmp_path / "ingest.json"
    ingest.write_text(json.dumps({"seed": 3, "ingest": {"input": str(log), "focus_tag": "web"}}))
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({**json.loads(run.read_text()),
                                 "observables": {"similarity_pair_budget": 20_000}}))
    n = 2100
    (tmp_path / "stats_out").mkdir()
    cooc_graph(range(n), [(i, i + 1) for i in range(n - 1)]).write_edge_list(
        tmp_path / "stats_out" / "cooc.edges")
    src = str(Path(tagwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(run), str(ingest), str(stats)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run_out" / "observables" / "similarity_hist.csv").exists()
    assert (tmp_path / "stats_out" / "observables" / "similarity_hist.csv").exists()


# ---------------------------------------------------------------------------
# Frequency rank
# ---------------------------------------------------------------------------

def test_frequency_rank_of_label_ordered_counts():
    # the counts of the labels ("a", "b", "c", "d")
    ranks, ordered = frequency_rank(np.asarray([5, 2, 5, 0]))
    assert ranks.tolist() == [1, 2, 3]
    assert ordered.tolist() == [5, 5, 2]


def test_frequency_rank_from_array():
    ranks, ordered = frequency_rank(np.asarray([3, 0, 7]))
    assert ranks.tolist() == [1, 2]
    assert ordered.tolist() == [7, 3]


def test_frequency_rank_empty():
    ranks, ordered = frequency_rank(np.zeros(0, dtype=np.int64))
    assert ranks.size == 0 and ordered.size == 0


# ---------------------------------------------------------------------------
# Fitting and binning
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_power_law():
    x = np.logspace(0, 3, 40)
    y = 2.5 * x ** -1.7
    fit = fit_power_law(x, y, (1.0, 1000.0))
    assert fit.exponent == pytest.approx(-1.7, abs=1e-6)
    assert fit.stderr < 1e-9
    assert fit.points == 40


def test_fit_window_restricts_points():
    x = np.logspace(0, 3, 40)
    y = x ** -2.0
    y[x > 100] *= 17.0          # corrupt the tail, then exclude it
    fit = fit_power_law(x, y, (1.0, 100.0))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
    assert fit.points == int((x <= 100).sum())


def test_fit_errors():
    x = np.logspace(0, 2, 10)
    y = x ** -1.0
    with pytest.raises(FitError):
        fit_power_law(x, y, (0.0, 10.0))          # bad window
    with pytest.raises(FitError):
        fit_power_law(x[:4], y[:4], (1.0, 100.0))  # too few points
    with pytest.raises(FitError):
        fit_power_law(np.full(6, 2.0), np.full(6, 3.0), (1.0, 10.0))
    with pytest.raises(FitError):
        fit_power_law(x, np.zeros_like(y), (1.0, 100.0))  # nothing positive


def test_log_bin_example():
    x = np.arange(1.0, 8.0)
    y = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    binned = log_bin(x, y, bin_ratio=2.0)
    # bins [1,2), [2,4), [4,8): means 1, 2.5, 5.5
    assert binned.n.tolist() == [1, 2, 4]
    assert binned.y == pytest.approx([1.0, 2.5, 5.5])
    assert binned.x == pytest.approx([np.sqrt(2.0), np.sqrt(8.0), np.sqrt(32.0)])


def test_log_bin_rejects_bad_input():
    with pytest.raises(ParameterError):
        log_bin([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ParameterError):
        log_bin([1.0, 2.0], [1.0, 1.0], bin_ratio=1.0)


@given(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=6),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_accounting_holds_for_any_projection(traces):
    g = build_from_traces(traces)
    assert_accounting(g)
    want = naive_cooc_weights(traces)
    assert g.total_weight == sum(want.values())
