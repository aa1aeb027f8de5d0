import tracemalloc

import numpy as np
import pytest

from naive_reference import exhaustive_visit_probs
from tagwalk.errors import EvaluationError, ParameterError
from tagwalk import theory
from tagwalk.observables import fit_power_law
from tagwalk.substrate import bfs_rings, generate_regular_tree, generate_watts_strogatz
from tagwalk.theory import RingModelSpec, n_distinct_random_length
from tagwalk.walker import FixedLength, PowerLawLength
from theory_reference import (VisitProbabilities, asymptotic_exponent,
                              asymptotic_log_corrected, estimate_visit_probs,
                              exponential_rings, n_distinct_exact,
                              n_distinct_fixed_length, n_distinct_ring_sum,
                              power_law_rings, simulate_mean_distinct)


# ---------------------------------------------------------------------------
# Exact expectation from visit probabilities
# ---------------------------------------------------------------------------

def test_exact_hand_values():
    assert n_distinct_exact([1.0], 1) == pytest.approx(1.0)
    assert n_distinct_exact([0.5], 1) == pytest.approx(0.5)
    assert n_distinct_exact([0.5], 2) == pytest.approx(0.75)
    assert n_distinct_exact([0.5, 0.5], 2) == pytest.approx(1.5)
    assert n_distinct_exact([0.3, 0.0, 1.0], 1) == pytest.approx(1.3)


def test_exact_single_walk_is_sum_of_probs():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, 1.0, 50)
    assert n_distinct_exact(p, 1) == pytest.approx(p.sum())


def test_exact_limits_and_monotonicity():
    p = np.asarray([0.9, 0.2, 0.05, 0.0])
    n = np.asarray([0, 1, 5, 50, 5000])
    out = n_distinct_exact(p, n)
    assert out.shape == n.shape
    assert out[0] == 0.0
    assert np.all(np.diff(out) > 0)
    assert out[-1] == pytest.approx(3.0, abs=1e-6)  # only three reachable nodes


def test_exact_accepts_visit_probabilities():
    vp = VisitProbabilities(p=np.asarray([0.5, 0.5]), n_samples=0,
                            stderr=np.zeros(2))
    assert n_distinct_exact(vp, 2) == pytest.approx(1.5)


def test_visit_probabilities_rejects_out_of_range():
    with pytest.raises(ParameterError):
        VisitProbabilities(p=np.asarray([1.5]), n_samples=0,
                           stderr=np.zeros(1))


# ---------------------------------------------------------------------------
# Shell sizes
# ---------------------------------------------------------------------------

def test_ring_sizes_parametric():
    fixed4 = FixedLength(4)
    assert power_law_rings(1.0, fixed4).tolist() == [1, 1, 2, 3, 4]
    assert power_law_rings(2.0, fixed4, c_n=2.0).tolist() == [1, 2, 8, 18, 32]
    assert exponential_rings(2.0, fixed4) == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0])
    # one ring per distance a walk reaches, up to the evaluator's cap
    assert power_law_rings(1.0, PowerLawLength(3.0, 2, 9)).size == 10
    assert exponential_rings(2.0, PowerLawLength(1.05, 1, 200_000)).size == theory.RING_CAP + 1


def test_ring_sizes_profile_zero_beyond_frontier():
    g = generate_regular_tree(2, 3)
    rings = bfs_rings(g, 0)
    assert rings.dtype == np.int64 and rings.tolist() == [1, 3, 6, 12]
    # walks of 10 steps run past the last shell, which holds the tree's 22 nodes
    spec = RingModelSpec(rings, FixedLength(10))
    assert n_distinct_random_length(spec, 1e9) == 22.0


def test_ring_parameter_errors():
    with pytest.raises(ParameterError):
        power_law_rings(0.0, FixedLength(3))
    with pytest.raises(ParameterError):
        power_law_rings(1.0, FixedLength(3), c_n=-1.0)
    with pytest.raises(ParameterError):
        exponential_rings(1.0, FixedLength(3))


# ---------------------------------------------------------------------------
# Ring-model expectations
# ---------------------------------------------------------------------------

def test_fixed_length_zero_steps_covers_origin_only():
    rings = power_law_rings(1.0, FixedLength(0))
    assert n_distinct_fixed_length(rings, 0, 1) == pytest.approx(1.0)
    assert n_distinct_fixed_length(rings, 0, 100) == pytest.approx(1.0)


def test_fixed_length_saturates_to_ring_sum():
    rings = power_law_rings(1.0, FixedLength(3))
    assert n_distinct_fixed_length(rings, 3, 10**9) == pytest.approx(
        float(rings.sum()), rel=1e-9)


def test_fixed_length_rejects_negative():
    with pytest.raises(ParameterError):
        n_distinct_fixed_length(power_law_rings(1.0, FixedLength(0)), -1, 10)


@pytest.mark.parametrize("l_max", [0, 1, 3, 7])
def test_random_length_degenerates_to_fixed(l_max):
    rings = power_law_rings(1.3, FixedLength(l_max), c_n=2.0)
    n = np.asarray([1.0, 10.0, 1e3, 1e6])
    spec = RingModelSpec(rings, FixedLength(l_max))
    a = n_distinct_random_length(spec, n)
    b = n_distinct_fixed_length(rings, l_max, n)
    assert a == pytest.approx(b.tolist(), rel=1e-12)


@pytest.mark.parametrize("make_rings", [
    lambda lengths: np.asarray([1] + [2] * 300, dtype=np.int64),
    lambda lengths: power_law_rings(1.0, lengths)],
    ids=["profile", "power_law"])
@pytest.mark.parametrize("lengths", [FixedLength(0), FixedLength(255), FixedLength(256),
                                     PowerLawLength(3.0, 1, 257)],
                         ids=["fixed0", "fixed255", "fixed256", "power_law257"])
def test_ring_blocks_end_at_the_support(make_rings, lengths):
    # supports that end inside the first 256-ring block, at its last ring,
    # or one or two rings into the next
    rings = make_rings(lengths)
    n = np.asarray([1.0, 1e3, 1e6])
    got = n_distinct_random_length(RingModelSpec(rings, lengths), n)
    assert got == pytest.approx(n_distinct_ring_sum(rings, lengths, n).tolist(), rel=1e-12)


def test_tree_profile_saturates_at_shell_sum():
    g = generate_regular_tree(2, 6)
    prof = bfs_rings(g, 0)
    spec = RingModelSpec(prof, FixedLength(3))
    # shells 0..3 hold 1 + 3 + 6 + 12 = 22 nodes
    assert n_distinct_random_length(spec, 1e9) == pytest.approx(22.0, abs=1e-6)
    # walks longer than the tree is deep saturate at the full node count
    deep = RingModelSpec(prof, FixedLength(50))
    assert n_distinct_random_length(deep, 1e9) == pytest.approx(
        float(g.node_count), abs=1e-6)


def test_random_length_monotone_in_n():
    lengths = PowerLawLength(3.0, 1, 1000)
    spec = RingModelSpec(power_law_rings(1.0, lengths), lengths)
    n = np.logspace(0, 6, 25)
    out = n_distinct_random_length(spec, n)
    assert np.all(np.diff(out) > 0)


LENGTHS_1000 = PowerLawLength(3.0, 1, 1000)


@pytest.mark.parametrize("rings", [power_law_rings(1.0, LENGTHS_1000),
                                   exponential_rings(2.0, LENGTHS_1000),
                                   bfs_rings(generate_regular_tree(2, 6), 0)],
                         ids=["power_law", "exponential", "bfs"])
@pytest.mark.parametrize("n", [1e4, np.logspace(0, 6, 60).reshape(3, 20)],
                         ids=["scalar", "grid"])
def test_point_blocks_leave_every_bit(monkeypatch, rings, n):
    spec = RingModelSpec(rings, LENGTHS_1000)
    want = n_distinct_random_length(spec, n)
    for block in (1, 7):
        monkeypatch.setattr(theory, "POINT_BLOCK", block)
        got = n_distinct_random_length(spec, n)
        assert np.shape(got) == np.shape(n)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_ring_sum_memory_does_not_grow_with_the_points():
    # 10**5 points held whole over blocks of 256 rings would peak near 800 MiB
    spec = RingModelSpec(bfs_rings(generate_regular_tree(2, 12), 0),
                         PowerLawLength(2.0, 1, 1000))
    n = np.arange(1, 10 ** 5 + 1, dtype=np.float64)
    tracemalloc.start()
    try:
        n_distinct_random_length(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("b", [2.5, 3.0, 3.5])
def test_power_law_regime_matches_asymptotic_exponent(a, b):
    lengths = PowerLawLength(b, 1, 10**5)
    spec = RingModelSpec(power_law_rings(a, lengths), lengths)
    n = np.logspace(2, 7, 51)
    y = n_distinct_random_length(spec, n)
    fit = fit_power_law(n, y, (1e4, 1e7))
    assert fit.exponent == pytest.approx(asymptotic_exponent(a, b), abs=0.05)


def test_exponential_regime_matches_log_corrected_shape():
    lengths = PowerLawLength(3.0, 1, 10**5)
    spec = RingModelSpec(exponential_rings(2.0, lengths), lengths)
    n = np.logspace(4, 7, 31)
    y = n_distinct_random_length(spec, n)
    shape = asymptotic_log_corrected(3.0, n)
    ratio = y / shape
    ratio = ratio / ratio.mean()
    assert np.all(np.abs(ratio - 1.0) < 0.2)


def test_slow_decay_raises_evaluation_error():
    lengths = PowerLawLength(1.05, 1, 200_000)
    spec = RingModelSpec(power_law_rings(1.0, lengths), lengths)
    with pytest.raises(EvaluationError):
        n_distinct_random_length(spec, 1e6)


# ---------------------------------------------------------------------------
# Asymptotic forms
# ---------------------------------------------------------------------------

def test_asymptotic_exponent_values():
    assert asymptotic_exponent(1.0, 3.0) == pytest.approx(2.0 / 3.0)
    assert asymptotic_exponent(2.0, 3.0) == pytest.approx(3.0 / 4.0)
    with pytest.raises(ParameterError):
        asymptotic_exponent(0.0, 3.0)
    with pytest.raises(ParameterError):
        asymptotic_exponent(1.0, 1.0)


def test_asymptotic_log_corrected():
    n = np.asarray([10.0, 100.0, 1e6])
    assert asymptotic_log_corrected(1.0, n) == pytest.approx(n.tolist())
    assert asymptotic_log_corrected(2.0, 100.0) == pytest.approx(
        100.0 / np.log(100.0))
    with pytest.raises(ParameterError):
        asymptotic_log_corrected(0.5, 100.0)
    with pytest.raises(ParameterError):
        asymptotic_log_corrected(2.0, 2.0)


# ---------------------------------------------------------------------------
# Monte Carlo estimates against exhaustive enumeration
# ---------------------------------------------------------------------------

def test_estimated_probs_match_exhaustive(path4):
    want = exhaustive_visit_probs(path4, 0, 2)
    assert want == pytest.approx([1.0, 1.0, 0.5, 0.0])
    est = estimate_visit_probs(path4, 0, FixedLength(2), 20_000, seed=11)
    assert est.n_samples == 20_000
    assert est.p[0] == 1.0 and est.stderr[0] == 0.0
    assert est.p[3] == 0.0
    slack = 5.0 * est.stderr + 1e-12
    assert np.all(np.abs(est.p - want) <= slack)


def test_estimated_probs_triangle(triangle):
    want = exhaustive_visit_probs(triangle, 0, 2)
    # step 1 leaves the origin; step 2 returns with probability 1/2
    assert want == pytest.approx([1.0, 0.75, 0.75])
    est = estimate_visit_probs(triangle, 0, FixedLength(2), 40_000, seed=3)
    assert np.all(np.abs(est.p - want) <= 5.0 * est.stderr + 1e-12)


def test_estimate_rejects_zero_samples(triangle):
    with pytest.raises(ParameterError):
        estimate_visit_probs(triangle, 0, FixedLength(1), 0, seed=1)


def test_simulated_mean_matches_exact_prediction(triangle):
    # one step from the origin: distinct = origin + distinct sampled neighbors,
    # E = 1 + 2 * (1 - 2**-n)
    n_rw = 3
    mean, se = simulate_mean_distinct(triangle, 0, FixedLength(1), n_rw,
                                      reps=2000, seed=7)
    want = 1.0 + 2.0 * (1.0 - 0.5 ** n_rw)
    assert abs(mean - want) <= 4.5 * se
    probs = exhaustive_visit_probs(triangle, 0, 1)
    assert n_distinct_exact(probs, n_rw) == pytest.approx(want)


def test_simulated_mean_without_origin(triangle):
    n_rw = 4
    mean, se = simulate_mean_distinct(triangle, 0, FixedLength(1), n_rw,
                                      reps=2000, seed=8, count_origin=False)
    want = 2.0 * (1.0 - 0.5 ** n_rw)
    assert abs(mean - want) <= 4.5 * se


def test_simulated_mean_reps_one_has_zero_stderr(triangle):
    mean, se = simulate_mean_distinct(triangle, 0, FixedLength(2), 5,
                                      reps=1, seed=9)
    assert se == 0.0 and 1.0 <= mean <= 3.0
    with pytest.raises(ParameterError):
        simulate_mean_distinct(triangle, 0, FixedLength(2), 0, reps=1, seed=9)


def test_exact_prediction_tracks_simulation_on_substrate():
    g = generate_watts_strogatz(200, 4, 0.1, seed=21)
    lengths = PowerLawLength(3.0, 1, 50)
    probs = estimate_visit_probs(g, 0, lengths, 200_000, seed=22)
    for n_rw in (10, 100):
        mean, se = simulate_mean_distinct(g, 0, lengths, n_rw,
                                          reps=1500, seed=23 + n_rw)
        pred = n_distinct_exact(probs, n_rw)
        # estimation error in p propagates roughly linearly at these sizes
        p_err = float(np.sum(probs.stderr * n_rw * (1 - probs.p) ** (n_rw - 1)))
        assert abs(mean - pred) <= 4.5 * se + 3.0 * p_err
