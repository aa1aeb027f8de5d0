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
This module evaluates the random-length sum over an array of shell sizes,
``rings[l] = N_l``, such as ``bfs_rings`` measures on a substrate.  The
test suite's ``theory_reference`` holds the parametric shells N_l ~ l^a
and N_l ~ z^l and the exact, fixed-length and asymptotic forms the sum is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .walker import LengthDist, length_pmf

__all__ = [
    "RingModelSpec",
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


@dataclass(frozen=True)
class RingModelSpec:
    """Shell sizes plus the walk-length distribution feeding them.

    ``rings[l]`` is N_l, the number of nodes at distance l from the origin
    (``bfs_rings`` measures them); rings past the array's end are empty.
    """

    rings: np.ndarray
    lengths: LengthDist


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
    rings = np.asarray(spec.rings, dtype=np.float64)
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
        sizes = np.zeros(stop - l)
        inside = rings[l:stop]
        sizes[:inside.size] = inside
        last = 0.0
        for p in range(0, flat.size, POINT_BLOCK):
            terms = _coverage(sizes, flat[p:p + POINT_BLOCK, None] * tail[l:stop])
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
