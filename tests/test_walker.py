import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_pairs
from naive_reference import (distinct_count, naive_vocabulary, neighbors_of, run_walk,
                             walk_lengths, walk_trace)
from tagwalk import walker
from tagwalk.errors import ContractError, ParameterError
from tagwalk.observables import fit_power_law
from tagwalk.rng import stream_uniforms, walk_seeds
from tagwalk.substrate import generate_regular_tree, generate_watts_strogatz
from tagwalk.walker import (FixedLength, PowerLawLength, WalkConfig,
                            WalkEnsemble, heaps_checkpoints,
                            heaps_curve, length_pmf, node_frequencies,
                            run_ensemble, sample_lengths, simulate_walks)
from theory_reference import estimate_visit_probs


# ---------------------------------------------------------------------------
# Length distributions
# ---------------------------------------------------------------------------

def test_length_validation():
    with pytest.raises(ParameterError):
        FixedLength(-1)
    with pytest.raises(ParameterError):
        PowerLawLength(3.0, 0, 10)
    with pytest.raises(ParameterError):
        PowerLawLength(3.0, 5, 4)
    FixedLength(0)  # a 0-step walk is legal


def test_length_pmf_normalized():
    values, pmf = length_pmf(PowerLawLength(3.0, 1, 1000))
    assert values[0] == 1 and values[-1] == 1000
    assert abs(pmf.sum() - 1.0) < 1e-12
    # P(l) ratios follow l^-3
    assert pmf[0] / pmf[1] == pytest.approx(8.0)
    fv, fp = length_pmf(FixedLength(7))
    assert fv.tolist() == [7] and fp.tolist() == [1.0]


def test_sample_lengths_inverts_cdf():
    dist = PowerLawLength(3.0, 2, 50)
    assert sample_lengths(dist, np.asarray([0.0]))[0] == 2
    assert sample_lengths(dist, np.asarray([1.0 - 1e-15]))[0] == 50
    fixed = sample_lengths(FixedLength(4), np.linspace(0, 0.999, 9))
    assert np.all(fixed == 4)


@pytest.mark.parametrize("dist", [FixedLength(0), FixedLength(7),
                                  PowerLawLength(3.0, 2, 50)],
                         ids=["fixed0", "fixed7", "power_law"])
def test_sample_lengths_scalar_uniform(dist):
    # naive_reference.run_walk passes one Python float per walk
    for u in (0.0, 0.3, 0.9, 1.0 - 1e-15):
        one = sample_lengths(dist, np.asarray([u]))
        assert one.shape == (1,) and one.dtype == np.int64
        for scalar in (u, np.float64(u), np.asarray(u)):
            got = sample_lengths(dist, scalar)
            assert np.ndim(got) == 0 and got.dtype == np.int64
            assert int(got) == int(one[0])


def test_sampled_length_distribution_matches_pmf():
    dist = PowerLawLength(3.0, 1, 1000)
    seeds = walk_seeds(42, 0, 1_000_000)
    lengths = sample_lengths(dist, stream_uniforms(seeds, 0))
    values, pmf = length_pmf(dist)
    counts = np.bincount(lengths, minlength=1001)[1:]
    empirical = counts / counts.sum()
    assert np.max(np.abs(empirical[:50] - pmf[:50])) < 2e-3


def test_sampled_length_histogram_slope():
    # empirical density of sampled lengths recovers the -3 exponent
    dist = PowerLawLength(3.0, 1, 1000)
    seeds = walk_seeds(7, 0, 1_000_000)
    lengths = sample_lengths(dist, stream_uniforms(seeds, 0))
    values, counts = np.unique(lengths, return_counts=True)
    fit = fit_power_law(values.astype(float), counts / counts.sum(), (1.0, 100.0))
    assert fit.exponent == pytest.approx(-3.0, abs=0.1)


# ---------------------------------------------------------------------------
# Single-walk semantics
# ---------------------------------------------------------------------------

def test_k2_single_walk_covers_both_nodes(k2):
    ens = simulate_walks(k2, 0, 1, FixedLength(1), seed=0)
    n, d = heaps_curve(*ens.walk_node_pairs(), ens.walk_count)
    assert (n.tolist(), d.tolist()) == ([1], [2])
    assert walk_trace(ens, 0).tolist() == [0, 1]


def test_zero_step_walk_is_origin_only(triangle):
    ens = simulate_walks(triangle, 2, 3, FixedLength(0), seed=9)
    for w in range(3):
        assert walk_trace(ens, w).tolist() == [2]
    assert distinct_count(ens) == 1
    assert distinct_count(ens, count_origin=False) == 0


def test_steps_land_on_neighbors(path4):
    ens = simulate_walks(path4, 0, 50, FixedLength(6), seed=4)
    for w in range(50):
        t = walk_trace(ens, w)
        for a, b in zip(t[:-1], t[1:]):
            assert b in neighbors_of(path4, int(a))


def test_run_walk_replays_ensemble_traces():
    g = generate_watts_strogatz(60, 4, 0.2, seed=1)
    dist = PowerLawLength(2.5, 1, 40)
    ens = simulate_walks(g, 3, 200, dist, seed=77)
    for w in (0, 1, 57, 123, 199):
        solo = run_walk(g, 3, 77, w, dist)
        assert np.array_equal(solo, walk_trace(ens, w))


def test_run_walk_replays_non_backtracking():
    g = generate_watts_strogatz(60, 6, 0.2, seed=2)
    dist = FixedLength(12)
    ens = simulate_walks(g, 5, 100, dist, seed=13, non_backtracking=True)
    for w in (0, 42, 99):
        solo = run_walk(g, 5, 13, w, dist, non_backtracking=True)
        assert np.array_equal(solo, walk_trace(ens, w))


def test_non_backtracking_never_reverses():
    g = generate_watts_strogatz(100, 6, 0.1, seed=8)
    ens = simulate_walks(g, 0, 300, FixedLength(20), seed=21,
                         non_backtracking=True)
    for w in range(300):
        t = walk_trace(ens, w)
        for i in range(2, t.size):
            assert t[i] != t[i - 2]


def test_non_backtracking_on_leaf_must_return(path4):
    # degree-1 nodes leave no choice: the walk bounces back
    ens = simulate_walks(path4, 0, 10, FixedLength(2), seed=5,
                         non_backtracking=True)
    for w in range(10):
        assert walk_trace(ens, w).tolist() == [0, 1, 2]


def test_step_choice_is_uniform(triangle):
    ens = simulate_walks(triangle, 0, 20000, FixedLength(1), seed=31)
    first = np.asarray([walk_trace(ens, w)[1] for w in range(20000)])
    frac = (first == 1).mean()
    assert abs(frac - 0.5) < 0.02


def test_isolated_origin_truncates_with_warning(caplog):
    g = graph_from_pairs(3, [(1, 2)])
    with caplog.at_level(logging.WARNING):
        ens = simulate_walks(g, 0, 5, FixedLength(3), seed=0)
    assert all(walk_trace(ens, w).tolist() == [0] for w in range(5))
    assert any("isolated" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# Ensemble invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("non_backtracking", [False, True])
def test_block_size_invariance(monkeypatch, non_backtracking):
    g = generate_watts_strogatz(200, 4, 0.1, seed=3)
    dist = PowerLawLength(2.0, 1, 100)
    runs = []
    for block_size in (walker.BLOCK_SIZE, 1, 7):
        monkeypatch.setattr(walker, "BLOCK_SIZE", block_size)
        runs.append(simulate_walks(g, 0, 300, dist, seed=55,
                                   non_backtracking=non_backtracking))
    for ens in runs[1:]:
        assert np.array_equal(ens.offsets, runs[0].offsets)
        assert np.array_equal(ens.nodes, runs[0].nodes)


def test_walk_count_and_lengths():
    g = generate_watts_strogatz(50, 4, 0.0, seed=0)
    ens = simulate_walks(g, 0, 40, FixedLength(5), seed=1)
    assert ens.walk_count == 40
    assert np.all(walk_lengths(ens) == 5)


def test_empty_ensemble():
    g = generate_watts_strogatz(50, 4, 0.0, seed=0)
    ens = simulate_walks(g, 0, 0, FixedLength(5), seed=1)
    assert ens.walk_count == 0
    assert distinct_count(ens) == 0
    assert walk_lengths(ens).size == 0


def test_parameter_errors(triangle):
    with pytest.raises(ParameterError):
        simulate_walks(triangle, 9, 1, FixedLength(1), seed=0)
    with pytest.raises(ParameterError):
        simulate_walks(triangle, 0, -1, FixedLength(1), seed=0)
    with pytest.raises(ParameterError):
        WalkConfig(origin=0, n_rw=-2, lengths=FixedLength(1), seed=0)


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_walk_node_pairs_match_python_sets(seed, n_rw):
    g = generate_watts_strogatz(30, 4, 0.3, seed=5)
    ens = simulate_walks(g, 2, n_rw, PowerLawLength(2.0, 1, 15), seed=seed)
    wids, nodes = ens.walk_node_pairs()
    got = set(zip(wids.tolist(), nodes.tolist()))
    want = {(w, int(v)) for w in range(n_rw) for v in set(walk_trace(ens, w).tolist())}
    assert got == want
    # excluding the origin removes exactly the origin entries
    wids2, nodes2 = ens.walk_node_pairs(count_origin=False)
    assert set(zip(wids2.tolist(), nodes2.tolist())) == \
        {(w, v) for w, v in want if v != 2}


# ---------------------------------------------------------------------------
# Vocabulary growth
# ---------------------------------------------------------------------------

def test_heaps_checkpoints_shape():
    pts = heaps_checkpoints(50_000)
    assert pts[0] == 1 and pts[-1] == 50_000
    assert np.all(np.diff(pts) > 0)
    dense = pts[pts <= 1000]
    assert dense.size == 1000                      # every count up to 1000
    per_decade = ((pts > 1000) & (pts <= 10_000)).sum()
    assert 40 <= per_decade <= 60
    assert heaps_checkpoints(0).size == 0
    assert heaps_checkpoints(5).tolist() == [1, 2, 3, 4, 5]


def test_heaps_curve_matches_brute_force():
    g = generate_watts_strogatz(80, 6, 0.2, seed=6)
    ens = simulate_walks(g, 1, 120, PowerLawLength(2.5, 1, 30), seed=17)
    n, d = heaps_curve(*ens.walk_node_pairs(), 120, checkpoints=np.arange(1, 121))
    for count_origin in (True, False):
        n2, d2 = heaps_curve(*ens.walk_node_pairs(count_origin=count_origin), 120,
                             checkpoints=np.arange(1, 121))
        for idx in (0, 10, 59, 119):
            traces = [walk_trace(ens, w) for w in range(idx + 1)]
            want = len(naive_vocabulary(traces, origin=1,
                                        count_origin=count_origin))
            assert d2[idx] == want
    assert np.all(np.diff(d) >= 0)
    assert d[-1] == distinct_count(ens)


def test_heaps_curve_rejects_bad_checkpoints(k2):
    ens = simulate_walks(k2, 0, 5, FixedLength(1), seed=0)
    with pytest.raises(ParameterError):
        heaps_curve(*ens.walk_node_pairs(), 5, checkpoints=np.asarray([0]))
    with pytest.raises(ParameterError):
        heaps_curve(*ens.walk_node_pairs(), 5, checkpoints=np.asarray([6]))


def test_node_frequencies_and_visit_probabilities(triangle):
    ens = simulate_walks(triangle, 0, 500, FixedLength(2), seed=2)
    wids, nodes = ens.walk_node_pairs()
    freqs = node_frequencies(nodes, triangle.node_count)
    assert freqs[0] == 500                      # origin in every walk
    assert freqs.sum() == wids.size
    p = estimate_visit_probs(triangle, 0, FixedLength(2), 500, seed=2).p
    assert p[0] == 1.0
    assert np.array_equal(p * 500, freqs.astype(float))


def test_run_ensemble_bundles_everything():
    g = generate_regular_tree(2, 4)
    cfg = WalkConfig(origin=0, n_rw=64, lengths=FixedLength(3), seed=10,
                     count_origin=False)
    ens, (wids, nodes), (n, d), freqs = run_ensemble(g, cfg)
    assert ens.walk_count == 64
    assert set(zip(wids.tolist(), nodes.tolist())) == \
        {(w, v) for w in range(64) for v in walk_trace(ens, w).tolist() if v != 0}
    assert n[-1] == 64
    assert freqs[0] == 0                        # origin excluded
    assert d[-1] == distinct_count(ens, count_origin=False)


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def test_trace_round_trip(tmp_path):
    g = generate_watts_strogatz(40, 4, 0.2, seed=9)
    ens = simulate_walks(g, 0, 25, PowerLawLength(2.0, 1, 12), seed=44)
    path = tmp_path / "traces.txt"
    ens.write_traces(path)
    back = WalkEnsemble.read_traces(path, g, 0)
    assert back.origin == ens.origin
    assert back.node_count == g.node_count
    assert np.array_equal(back.offsets, ens.offsets)
    assert np.array_equal(back.nodes, ens.nodes)


def test_read_traces_empty_file_rejected(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text("")
    g = generate_watts_strogatz(40, 4, 0.2, seed=9)
    with pytest.raises(ContractError):
        WalkEnsemble.read_traces(path, g, g.node_count)
