"""Counter-based random streams for reproducible walk ensembles.

Every walk owns an independent stream keyed by ``(master seed, walk index)``,
so an ensemble produces identical results however its walk indices are
partitioned across batches or worker threads.  The construction is the
SplitMix64 sequence (Steele, Lea & Flood 2014): a stream's state advances by
a fixed odd increment per draw, and outputs pass through an avalanching
finalizer.  Draw ``t`` of the stream with seed ``s`` is

    bits(s, t) = mix64(s + (t + 1) * GAMMA)   (mod 2^64)

Convention used by the walker: counter 0 is reserved for the walk-length
draw and counters 1..l drive the l steps, so scalar and vectorized walk
code consume identical values.

Scalar helpers work on plain Python ints (masked to 64 bits); vectorized
twins operate on ``uint64`` numpy arrays, where overflow wraps silently.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_TO_UNIT = 2.0 ** -53


def mix64(x: int) -> int:
    """SplitMix64 finalizer of a 64-bit integer (scalar)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * _U_M1
    x = (x ^ (x >> np.uint64(27))) * _U_M2
    return x ^ (x >> np.uint64(31))


def walk_seeds(master_seed: int, start: int, count: int) -> np.ndarray:
    """Stream seeds for walks ``start .. start+count-1`` as a uint64 array."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64_array(np.uint64(master_seed & MASK64) + idx * _U_GAMMA)


def stream_uniforms(seeds: np.ndarray, counter: int) -> np.ndarray:
    """One uniform per stream, all at the same counter position."""
    inc = np.uint64(((counter + 1) * GAMMA) & MASK64)
    bits = mix64_array(seeds + inc)
    return (bits >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def derive_seed(master_seed: int, salt: int) -> int:
    """Derive an independent sub-seed for auxiliary randomness (e.g. pair sampling)."""
    return mix64(mix64(master_seed ^ salt) + GAMMA)

