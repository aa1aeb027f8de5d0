"""Analytical predictions for vocabulary growth under independent walks.

The exact expectation for the number of distinct visited nodes after
``n_rw`` independent walks is

    N_distinct(n) = sum_i (1 - (1 - p_i)^n)

with p_i the per-walk visit probability of node i.  On substrates with
ring structure (N_l nodes at distance l from the origin, each assumed
equally likely to be visited), this specializes to

    fixed length l_max:  sum_{l<=l_max} N_l (1 - (1 - 1/N_l)^n)
    random lengths:      sum_l N_l (1 - (1 - 1/N_l)^(n * P_>(l)))

where P_>(l) is the probability that a walk is at least l steps long.
Asymptotically the random-length form grows as n^((a+1)/(a+b-1)) for
N_l ~ l^a with length exponent b, and as n/(ln n)^(b-1) for N_l ~ z^l.
This module evaluates the random-length sum; the test suite's
``theory_reference`` holds the exact, fixed-length and asymptotic forms
it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParameterError
from .substrate import RingProfile
from .walker import LengthDist, length_pmf

__all__ = [
    "PowerLawRings",
    "ExponentialRings",
    "RingStructure",
    "RingModelSpec",
    "ring_sizes",
    "n_distinct_random_length",
]

# Ring sums stop once a term falls below this threshold, and may never run
# past the hard cap.
TERM_THRESHOLD = 1e-12
RING_CAP = 10 ** 5

# The sum takes the points in blocks of this many, so that its memory is
# bounded whatever the number of points: a block's arrays hold one value
# per point and ring of 256 rings, 512 KiB each.
POINT_BLOCK = 256

# exp(700) is near the float64 ceiling; exponential ring sizes are clipped
# there, which only matters once the term is already ~n*P_> regardless
_LOG_CLIP = 700.0


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawRings:
    """Ring sizes N_l = max(1, round(c_n * l**a)); N_0 = 1."""

    a: float = 1.0
    c_n: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ParameterError("a must be > 0")
        if self.c_n <= 0:
            raise ParameterError("c_n must be > 0")


@dataclass(frozen=True)
class ExponentialRings:
    """Ring sizes N_l = z**l."""

    z: float

    def __post_init__(self):
        if self.z <= 1:
            raise ParameterError("z must be > 1")


RingStructure = Union[PowerLawRings, ExponentialRings, RingProfile]


@dataclass(frozen=True)
class RingModelSpec:
    """Ring structure plus the walk-length distribution feeding it."""

    rings: RingStructure
    lengths: LengthDist


def ring_sizes(rings: RingStructure, l: np.ndarray) -> np.ndarray:
    """N_l for the given distances (float64).

    Parametric structures are positive everywhere; a measured profile
    reports 0 beyond its reachable frontier, so walks longer than the
    graph's eccentricity simply add no new rings.
    """
    l = np.asarray(l, dtype=np.float64)
    if isinstance(rings, PowerLawRings):
        return np.maximum(1.0, np.round(rings.c_n * l ** rings.a))
    if isinstance(rings, ExponentialRings):
        return np.exp(np.minimum(l * np.log(rings.z), _LOG_CLIP))
    if isinstance(rings, RingProfile):
        idx = l.astype(np.int64)
        inside = idx <= rings.max_distance
        out = np.zeros(idx.shape, dtype=np.float64)
        out[inside] = rings.sizes[idx[inside]]
        return out
    raise ParameterError(f"unknown ring structure {type(rings).__name__}")


# ---------------------------------------------------------------------------
# Ring-model expectation
# ---------------------------------------------------------------------------

def _coverage(sizes: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    """N * (1 - (1 - 1/N)^m), stable for large N and large m.

    Zero when the ring is empty or sees no walks (m <= 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.expm1(exposure * np.log1p(-1.0 / sizes))
    return np.where((exposure <= 0.0) | (sizes <= 0.0), 0.0, sizes * t)


def n_distinct_random_length(spec: RingModelSpec, n_rw):
    """Ring-model expectation with walk lengths drawn from a distribution.

    Each ring at distance l is exposed only to the walks of length >= l.
    The sum over l stops when the term drops below ``TERM_THRESHOLD`` or
    the length support ends; configurations still growing at ``RING_CAP``
    raise an evaluation error.
    """
    values, pmf = length_pmf(spec.lengths)
    support_end = int(values[-1])
    n = np.asarray(n_rw, dtype=np.float64)
    flat = n.reshape(-1)
    total = np.zeros(flat.size)
    # tail probability P_>(l) for l = 0..support_end (1 below the support)
    tail = np.zeros(support_end + 1)
    np.add.at(tail, values, pmf)
    tail = np.cumsum(tail[::-1])[::-1]
    tail[:int(values[0]) + 1] = 1.0

    block = 256
    l = 0
    while True:
        stop = min(l + block, support_end + 1, RING_CAP + 1)
        ls = np.arange(l, stop)
        sizes = ring_sizes(spec.rings, ls)
        last = 0.0
        for p in range(0, flat.size, POINT_BLOCK):
            terms = _coverage(sizes, flat[p:p + POINT_BLOCK, None] * tail[ls])
            total[p:p + POINT_BLOCK] += terms.sum(axis=-1)
            last = np.maximum(last, terms[:, -1].max())
        if last < TERM_THRESHOLD:
            break
        if stop > support_end:
            break
        if stop > RING_CAP:
            raise EvaluationError(
                f"ring terms not decaying below {TERM_THRESHOLD} by l={RING_CAP}")
        l = stop
    return total.reshape(n.shape) if n.ndim else float(total[0])
