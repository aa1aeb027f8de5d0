"""End-to-end acceptance checks, one numbered PASS/FAIL line per criterion.

The first two fixtures run the full CLI pipeline twice each (1 and 8 worker
threads) so the final criterion can compare the artifact trees byte for
byte.  All tolerances are fixed here; seeds are pinned so the suite is
deterministic.
"""

import hashlib
import itertools
import json
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from naive_reference import (build_from_traces, cooc_edges, distinct_count,
                             naive_class_means, naive_clustering,
                             naive_cooc_weights, naive_cosine, naive_degree,
                             naive_knn, naive_strength, naive_vocabulary, neighbor_weights)
from tagwalk.cli import main
from tagwalk.cooc import CoocGraph
from tagwalk.formats import read_csv
from tagwalk.observables import (clustering_of_k,
                                 degree_strength_weight_distributions,
                                 exact_similarities, fit_power_law, knn_of_k,
                                 s_of_k, weight_vs_kikj)
from tagwalk.substrate import generate_regular_tree, generate_watts_strogatz
from tagwalk.theory import (ExponentialRings, PowerLawRings, RingModelSpec,
                            n_distinct_random_length)
from tagwalk.walker import (FixedLength, PowerLawLength, heaps_curve,
                            node_frequencies, simulate_walks)
from theory_reference import (asymptotic_log_corrected, estimate_visit_probs,
                              n_distinct_exact, simulate_mean_distinct)

GROWTH_CONFIG = {
    "seed": 5,
    "graph": {"type": "watts_strogatz", "n": 50_000, "k": 8, "p_rewire": 0.1},
    "walk": {"origin": 0, "n_rw": 50_000,
             "lengths": {"type": "power_law", "exponent": 3.0,
                         "l_min": 1, "l_max": 1000}},
}

# same walk ensemble on a sparser substrate, where the low-weight plateau
# and the heavy tail of w(k_i k_j) are both visible
TAIL_CONFIG = {
    "seed": 5,
    "graph": {"type": "watts_strogatz", "n": 100_000, "k": 8, "p_rewire": 0.1},
    "walk": GROWTH_CONFIG["walk"],
}


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
              f"[{detail}]", flush=True)
    assert ok, f"{name}: {detail}"


def run_twice(tmp_path_factory, label, config):
    root = tmp_path_factory.mktemp(label)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    t0 = time.perf_counter()
    assert main(["run", "--config", str(cfg), "--out", str(root / "t1"),
                 "--threads", "1"]) == 0
    elapsed = time.perf_counter() - t0
    assert main(["run", "--config", str(cfg), "--out", str(root / "t8"),
                 "--threads", "8"]) == 0
    fits = json.loads((root / "t1" / "fits.json").read_text())
    return SimpleNamespace(t1=root / "t1", t8=root / "t8",
                           seconds=elapsed, fits=fits)


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    return run_twice(tmp_path_factory, "growth", GROWTH_CONFIG)


@pytest.fixture(scope="module")
def tail_run(tmp_path_factory):
    return run_twice(tmp_path_factory, "tail", TAIL_CONFIG)


def test_01_vocabulary_growth_exponent(growth_run, capsys):
    alpha = growth_run.fits["heaps"]["exponent"]
    ok = 0.60 <= alpha <= 0.80 and growth_run.seconds < 60.0
    report(capsys, 1, "vocabulary growth exponent", ok,
           f"alpha={alpha:.3f} in [0.60,0.80]; "
           f"pipeline {growth_run.seconds:.1f}s < 60s")


def test_02_rank_slope_and_growth_consistency(growth_run, capsys):
    slope = growth_run.fits["zipf"]["exponent"]
    product = growth_run.fits["zipf_heaps_product"]
    ok = -1.6 <= slope <= -1.2 and 0.8 <= product <= 1.2
    report(capsys, 2, "frequency-rank slope and rank*growth product", ok,
           f"slope={slope:.3f} in [-1.6,-1.2]; product={product:.3f} in 1+-0.2")


def test_03_power_law_ring_growth_exponents(capsys):
    t0 = time.perf_counter()
    n = np.logspace(2, 7, 51)
    slopes = {}
    for a in (1.0, 2.0):
        spec = RingModelSpec(PowerLawRings(a), PowerLawLength(3.0, 1, 10**5))
        y = n_distinct_random_length(spec, n)
        slopes[a] = fit_power_law(n, y, (1e2, 1e7)).exponent
    dt = time.perf_counter() - t0
    ok = (abs(slopes[1.0] - 2.0 / 3.0) <= 0.05
          and abs(slopes[2.0] - 3.0 / 4.0) <= 0.05 and dt < 5.0)
    report(capsys, 3, "ring-model growth exponents", ok,
           f"a=1: {slopes[1.0]:.3f} vs 2/3; a=2: {slopes[2.0]:.3f} vs 3/4 "
           f"(+-0.05); {dt:.2f}s < 5s")


def test_04_exponential_ring_log_corrected_growth(capsys):
    t0 = time.perf_counter()
    spec = RingModelSpec(ExponentialRings(2.0), PowerLawLength(3.0, 1, 10**5))
    n = np.logspace(4, 7, 31)
    y = n_distinct_random_length(spec, n)
    ratio = y / asymptotic_log_corrected(3.0, n)
    ratio = ratio / ratio.mean()
    dt = time.perf_counter() - t0
    ok = ratio.min() >= 0.8 and ratio.max() <= 1.2 and dt < 5.0
    report(capsys, 4, "log-corrected growth for doubling rings", ok,
           f"ratio/mean in [{ratio.min():.3f},{ratio.max():.3f}] within "
           f"+-20%; {dt:.2f}s < 5s")


def test_05_exact_prediction_matches_simulation(capsys):
    t0 = time.perf_counter()
    g = generate_watts_strogatz(200, 4, 0.1, seed=5)
    probs = estimate_visit_probs(g, 0, FixedLength(5), 10**6, seed=5)
    zs = []
    for n_rw in (10, 100, 1000):
        mean, se = simulate_mean_distinct(g, 0, FixedLength(5), n_rw,
                                          reps=1000, seed=5 + n_rw)
        pred = n_distinct_exact(probs, n_rw)
        zs.append((mean - pred) / se)
    dt = time.perf_counter() - t0
    ok = all(abs(z) <= 3.0 for z in zs) and dt < 120.0
    report(capsys, 5, "visit-probability prediction vs simulation", ok,
           "z-scores " + ", ".join(f"{z:+.2f}" for z in zs)
           + f" all within +-3; {dt:.1f}s < 120s")


def test_06_tree_coverage_saturates_exactly(capsys):
    g = generate_regular_tree(2, 6)
    ens = simulate_walks(g, 0, 10**5, FixedLength(3), seed=5)
    distinct = distinct_count(ens)
    ok = distinct == 22
    report(capsys, 6, "three-step tree coverage saturation", ok,
           f"distinct={distinct}, shells 0..3 hold exactly 22 nodes")


def test_07_weight_vs_degree_product_shape(tail_run, capsys):
    plateau = tail_run.fits["weight_product_plateau"]
    tail = tail_run.fits["weight_product_tail"]["exponent"]
    ok = 1.0 <= plateau <= 1.5 and 1.2 <= tail <= 1.6
    report(capsys, 7, "weight plateau and large-product tail", ok,
           f"plateau={plateau:.3f} in [1.0,1.5]; tail slope={tail:.2f} "
           "in [1.2,1.6]")


def test_08_weighted_dominance_at_high_degree(growth_run, capsys):
    g = CoocGraph.read_edge_list(growth_run.t1 / "cooc.edges")
    threshold = np.quantile(g.degrees(), 0.9)
    _, knn_rows = read_csv(growth_run.t1 / "observables" / "knn_of_k.csv")
    _, c_rows = read_csv(growth_run.t1 / "observables" / "clustering_of_k.csv")
    knn_top = [(float(r[1]), float(r[2])) for r in knn_rows
               if float(r[0]) >= threshold]
    c_top = [(float(r[1]), float(r[2])) for r in c_rows
             if float(r[0]) >= threshold]
    frac_knn = np.mean([w >= p for p, w in knn_top])
    frac_c = np.mean([w >= p for p, w in c_top])
    ok = frac_knn >= 0.9 and frac_c >= 0.9
    report(capsys, 8, "weighted correlations dominate at high degree", ok,
           f"top-decile classes: knn_w>=knn {frac_knn:.0%} "
           f"({len(knn_top)} classes), c_w>=c {frac_c:.0%} "
           f"({len(c_top)} classes), need >=90%")


def test_09_similarity_mode_is_low(growth_run, capsys):
    mode = growth_run.fits["similarity_mode"]
    ok = mode < 0.3
    report(capsys, 9, "cosine-similarity mode", ok,
           f"mode bin center {mode:.3f} < 0.3")


def test_10_observables_match_naive_references(capsys):
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    pair_checks = 0
    for case in range(100):
        n_nodes = int(rng.integers(20, 201))
        graph_seed = int(rng.integers(2**32))
        walk_seed = int(rng.integers(2**32))
        n_rw = max(1, int(round(10 ** rng.uniform(0.0, 3.0))))
        l_max = int(rng.integers(2, 16))
        count_origin = bool(rng.integers(2))
        g = generate_watts_strogatz(n_nodes, 4, 0.3, seed=graph_seed)
        ens = simulate_walks(g, 0, n_rw, PowerLawLength(2.5, 1, l_max),
                             seed=walk_seed)
        traces = [ens.trace(w).tolist() for w in range(ens.walk_count)]
        cg = build_from_traces(ens, count_origin=count_origin)
        ctx = f"case {case}: n={n_nodes} n_rw={n_rw} origin={count_origin}"

        # pair counting (exact integers); edges carry original node ids
        want = naive_cooc_weights(traces, origin=0, count_origin=count_origin)
        ids = [int(v) for v in cg.node_ids]
        got = {(int(i), int(j)): int(w) for i, j, w in zip(*cooc_edges(cg))}
        assert got == want, ctx

        # vocabulary (exact integers)
        vocab = naive_vocabulary(traces, origin=0, count_origin=count_origin)
        assert set(ids) == vocab, ctx
        wids, nodes = ens.walk_node_pairs(count_origin=count_origin)
        _, curve = heaps_curve(wids, nodes, ens.walk_count,
                               np.asarray([ens.walk_count]))
        assert int(curve[-1]) == len(vocab), ctx

        # degrees, strengths, and their histograms (exact integers)
        adj = neighbor_weights(want)
        deg = [int(d) for d in cg.degrees()]
        stren = [int(s) for s in cg.strengths()]
        assert deg == [naive_degree(adj, v) for v in ids], ctx
        assert stren == [naive_strength(adj, v) for v in ids], ctx
        pk, ps, pw = degree_strength_weight_distributions(cg)
        assert dict(zip(pk.values.tolist(), pk.counts.tolist())) == Counter(deg), ctx
        assert dict(zip(ps.values.tolist(), ps.counts.tolist())) == Counter(stren), ctx
        assert dict(zip(pw.values.tolist(), pw.counts.tolist())) == \
            Counter(want.values()), ctx

        # per-walk node frequencies (exact integers)
        freqs = node_frequencies(nodes, g.node_count)
        naive_freqs = np.zeros(g.node_count, dtype=np.int64)
        for trace in traces:
            distinct = set(trace)
            if not count_origin:
                distinct.discard(0)
            for v in distinct:
                naive_freqs[v] += 1
        assert np.array_equal(freqs, naive_freqs), ctx

        # degree-product scatter (integer-valued floats)
        products, weights, _ = weight_vs_kikj(cg)
        want_products = [float(naive_degree(adj, i) * naive_degree(adj, j))
                         for i, j in sorted(want)]
        assert products.tolist() == want_products, ctx
        assert weights.tolist() == [float(w) for _, w in sorted(want.items())], ctx

        # degree-class means (floats, 1e-9)
        degree_of = {v: naive_degree(adj, v) for v in ids}
        checks = [(s_of_k(cg), {v: float(naive_strength(adj, v)) for v in ids})]
        for weighted, knn, clustering in zip((False, True), knn_of_k(cg),
                                             clustering_of_k(cg)):
            checks.append((knn,
                           {v: naive_knn(adj, v, weighted=weighted) for v in ids}))
            checks.append((clustering,
                           {v: naive_clustering(adj, v, weighted=weighted)
                            for v in ids}))
        for series, per_node in checks:
            want_means = naive_class_means(per_node, key_of=degree_of.get)
            got_means = dict(zip((int(x) for x in series.x), series.y))
            assert set(got_means) == set(want_means), ctx
            for cls, value in want_means.items():
                assert abs(got_means[cls] - value) <= 1e-9, (ctx, cls)

        # cosine similarities (floats, 1e-9)
        live = np.flatnonzero(cg.degrees())
        sims = np.concatenate([np.empty(0), *exact_similarities(cg)])
        live_ids = [ids[int(p)] for p in live]
        for (u, v), sim in zip(itertools.combinations(live_ids, 2), sims):
            assert abs(sim - naive_cosine(adj, u, v)) <= 1e-9, (ctx, u, v)
            pair_checks += 1
    dt = time.perf_counter() - t0
    report(capsys, 10, "incremental builder and observables vs naive", True,
           f"100 ensembles, {pair_checks} similarity pairs, ints exact, "
           f"floats 1e-9; {dt:.1f}s")


def test_11_thread_count_invariance(growth_run, tail_run, capsys):
    same_growth = tree_hash(growth_run.t1) == tree_hash(growth_run.t8)
    same_tail = tree_hash(tail_run.t1) == tree_hash(tail_run.t8)
    ok = same_growth and same_tail
    report(capsys, 11, "byte-identical artifacts across thread counts", ok,
           f"growth run identical={same_growth}, tail run identical={same_tail}")
