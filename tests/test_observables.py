import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagwalk.observables as obs
from naive_reference import (adjacency_dict, log_binned, low_sample,
                             naive_class_means, naive_clustering,
                             naive_cooc_weights, naive_cosine, naive_knn)
from tagwalk.cooc import CoocGraph, build_from_traces
from tagwalk.errors import FitError, ParameterError
from tagwalk.observables import (cosine_similarity_distribution,
                                 clustering_of_k,
                                 degree_strength_weight_distributions,
                                 fit_power_law, frequency_rank, knn_of_k,
                                 log_bin, s_of_k, assert_accounting,
                                 weight_vs_kikj)
from tagwalk.substrate import generate_watts_strogatz
from tagwalk.walker import PowerLawLength, simulate_walks


@pytest.fixture
def hand_graph():
    """Weights (0,1)=3, (0,2)=1, (1,2)=2, (2,3)=1."""
    return build_from_traces([[0, 1], [0, 1], [0, 1], [0, 2],
                              [1, 2], [1, 2], [2, 3]])


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
    assert pk.sample_size == 4 and pw.sample_size == 4


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
    assert np.all(g.weights == 1)
    for a, b in (knn_of_k(g), clustering_of_k(g)):
        assert np.array_equal(a.x, b.x)
        assert a.y == pytest.approx(b.y.tolist(), abs=1e-12)


@pytest.mark.parametrize("seed", [5, 6])
def test_class_observables_match_naive(seed):
    g = random_cooc(seed)
    traces = None  # naive built from the weight map directly
    adj = adjacency_dict({(int(i), int(j)): int(w)
                          for i, j, w in zip(g.src, g.dst, g.weights)})
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


def hub_ring(n):
    """Hub 0 linked to every node of the ring 1..n-1, uneven weights.

    Every row of A^2 has about n entries, so full A@A holds at least n^2.
    """
    ring = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([np.zeros(n - 1, dtype=np.int64), ring[:-1], [1]])
    dst = np.concatenate([ring, ring[1:], [n - 1]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    g = CoocGraph(node_ids=np.arange(n, dtype=np.int64), src=src, dst=dst,
                  weights=src % 3 + dst % 5 + 1)
    g.validate()
    return g


@pytest.mark.parametrize("graph", [random_cooc(7), random_cooc(8),
                                   random_cliques(1), random_cliques(2)])
def test_clustering_matches_networkx(graph):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(graph.node_ids.tolist())
    G.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
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
    whole = clustering_of_k(graph)  # one block: budget far above sum k^2
    assert int((graph.degrees() ** 2).sum()) <= obs.CLUSTERING_BLOCK_PATHS
    # the hub row alone has 3 * 299 = 897 two-paths, a ring row 305
    for budget in (700, 1):
        monkeypatch.setattr(obs, "CLUSTERING_BLOCK_PATHS", budget)
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
    monkeypatch.setattr(obs, "CLUSTERING_BLOCK_PATHS", 1 << 16)
    assert peak() < a2_bytes / 30


# ---------------------------------------------------------------------------
# Weight versus degree product
# ---------------------------------------------------------------------------

def test_weight_vs_product_hand_values(hand_graph):
    products, weights, binned = weight_vs_kikj(hand_graph)
    by_pair = dict(zip(zip(hand_graph.src.tolist(), hand_graph.dst.tolist()),
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
    live, sims = obs.exact_similarities(hand_graph)
    assert live.tolist() == [0, 1, 2, 3]
    want = [2 / np.sqrt(130), 6 / np.sqrt(60), 1 / np.sqrt(10),
            3 / np.sqrt(78), 2 / np.sqrt(13), 0.0]
    assert sims == pytest.approx(want, abs=1e-12)


def test_similarity_matches_naive(hand_graph):
    adj = adjacency_dict({(int(i), int(j)): int(w)
                          for i, j, w in zip(hand_graph.src, hand_graph.dst,
                                             hand_graph.weights)})
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
    monkeypatch.setattr(obs, "EXACT_SIMILARITY_LIMIT", 5)
    sampled = cosine_similarity_distribution(g, pair_budget=40_000, seed=1)
    assert sampled.sampled and sampled.pair_count == 40_000
    assert exact.counts.sum() > 0
    p_exact = exact.counts / exact.counts.sum()
    p_samp = sampled.counts / sampled.counts.sum()
    assert np.max(np.abs(p_exact - p_samp)) < 0.03


def test_similarity_sample_does_not_depend_on_block_size(monkeypatch):
    g = random_cooc(9)
    monkeypatch.setattr(obs, "EXACT_SIMILARITY_LIMIT", 5)
    counts = []
    for block in (1 << 16, obs.SIMILARITY_BLOCK_PAIRS, 999):
        monkeypatch.setattr(obs, "SIMILARITY_BLOCK_PAIRS", block)
        counts.append(cosine_similarity_distribution(g, pair_budget=150_000, seed=3).counts)
    assert all(np.array_equal(counts[0], c) for c in counts[1:])


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


# ---------------------------------------------------------------------------
# Frequency rank
# ---------------------------------------------------------------------------

def test_frequency_rank_from_mapping():
    ranks, ordered = frequency_rank({"a": 5, "b": 2, "c": 5, "d": 0})
    assert ranks.tolist() == [1, 2, 3]
    assert ordered.tolist() == [5, 5, 2]


def test_frequency_rank_from_array():
    ranks, ordered = frequency_rank(np.asarray([3, 0, 7]))
    assert ranks.tolist() == [1, 2]
    assert ordered.tolist() == [7, 3]


def test_frequency_rank_empty():
    ranks, ordered = frequency_rank({})
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
