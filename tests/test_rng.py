import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_reference import stream_uniform, walk_seed
from tagwalk.rng import (GAMMA, MASK64, derive_seed, mix64, mix64_array,
                         stream_uniforms, walk_seeds)

U64 = st.integers(min_value=0, max_value=MASK64)


def reference_stream(seed, count):
    """Stateful finalizer stream written independently of the closed form."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


@given(U64, st.integers(min_value=0, max_value=2000))
@settings(max_examples=50, deadline=None)
def test_walk_seed_matches_stateful_reference(master, idx):
    assert walk_seed(master, idx) == reference_stream(master, idx + 1)[-1]


@given(U64)
def test_mix64_array_matches_scalar(master):
    xs = np.arange(64, dtype=np.uint64) + np.uint64(master & 0xFFFF)
    vec = mix64_array(xs)
    for x, m in zip(xs.tolist(), vec.tolist()):
        assert mix64(int(x)) == int(m)


@given(U64, st.integers(min_value=0, max_value=5000),
       st.integers(min_value=0, max_value=64))
@settings(max_examples=50)
def test_walk_seeds_matches_scalar(master, start, count):
    seeds = walk_seeds(master, start, count)
    assert seeds.dtype == np.uint64
    assert seeds.size == count
    for off, s in enumerate(seeds.tolist()):
        assert int(s) == walk_seed(master, start + off)


@given(U64, st.integers(min_value=0, max_value=2 ** 20))
def test_stream_uniform_range_and_vector_parity(seed, counter):
    u = stream_uniform(seed, counter)
    assert 0.0 <= u < 1.0
    vec = stream_uniforms(np.asarray([seed], dtype=np.uint64), counter)
    assert vec[0] == u


def test_mix64_is_injective_on_sample():
    xs = np.random.default_rng(0).integers(0, 2 ** 64, size=200_000,
                                           dtype=np.uint64)
    assert np.unique(mix64_array(xs)).size == np.unique(xs).size


def test_bit_avalanche():
    # flipping any single input bit should flip about half the output bits
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64)
    for bit in (0, 17, 43, 63):
        flipped = xs ^ np.uint64(1 << bit)
        diff = mix64_array(xs) ^ mix64_array(flipped)
        mean_bits = np.unpackbits(diff.view(np.uint8)).mean() * 64.0
        assert 28.0 < mean_bits < 36.0


def test_uniform_moments():
    seeds = walk_seeds(7, 0, 50_000)
    u = stream_uniforms(seeds, 0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_walk_streams_differ_between_walks():
    a = [stream_uniform(walk_seed(5, 0), t) for t in range(8)]
    b = [stream_uniform(walk_seed(5, 1), t) for t in range(8)]
    assert a != b


def test_derive_seed_departs_from_walk_seeds():
    master = 99
    derived = {derive_seed(master, salt) for salt in range(64)}
    walks = {walk_seed(master, i) for i in range(64)}
    assert len(derived) == 64
    assert not derived & walks


def test_master_seed_wraps_mod_2_64():
    for idx in range(4):
        assert walk_seed(-1, idx) == walk_seed(MASK64, idx)
        assert walk_seed(2 ** 64 + 5, idx) == walk_seed(5, idx)
