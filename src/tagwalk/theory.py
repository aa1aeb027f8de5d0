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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ParameterError
from .rng import derive_seed
from .substrate import RingProfile, SubstrateGraph, sorted_unique
from .walker import LengthDist, length_pmf, node_frequencies, simulate_walks

__all__ = [
    "VisitProbabilities",
    "PowerLawRings",
    "ExponentialRings",
    "RingStructure",
    "RingModelSpec",
    "ring_sizes",
    "n_distinct_exact",
    "n_distinct_fixed_length",
    "n_distinct_random_length",
    "asymptotic_exponent",
    "asymptotic_log_corrected",
    "estimate_visit_probs",
    "simulate_mean_distinct",
]

# Ring sums stop once a term falls below this threshold, and may never run
# past the hard cap.
TERM_THRESHOLD = 1e-12
RING_CAP = 10 ** 5

# exp(700) is near the float64 ceiling; exponential ring sizes are clipped
# there, which only matters once the term is already ~n*P_> regardless
_LOG_CLIP = 700.0


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisitProbabilities:
    """Per-node probability that one walk visits each node, with errors."""

    p: np.ndarray        # float64 in [0, 1]
    n_samples: int       # 0 means exact (not estimated)
    stderr: np.ndarray   # float64, zeros when exact

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.size and (p.min() < 0.0 or p.max() > 1.0):
            raise ParameterError("probabilities must lie in [0, 1]")


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
# Exact and ring-model expectations
# ---------------------------------------------------------------------------

def _coverage(sizes: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    """N * (1 - (1 - 1/N)^m), stable for large N and large m.

    Zero when the ring is empty or sees no walks (m <= 0).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -np.expm1(exposure * np.log1p(-1.0 / sizes))
    return np.where((exposure <= 0.0) | (sizes <= 0.0), 0.0, sizes * t)


def n_distinct_exact(p, n_rw):
    """Expected distinct-node count from per-node visit probabilities.

    ``n_rw`` may be a scalar or an array of ensemble sizes.
    """
    if isinstance(p, VisitProbabilities):
        p = p.p
    p = np.asarray(p, dtype=np.float64)
    n = np.asarray(n_rw, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        decay = n[..., None] * np.log1p(-p)
        out = np.sum(np.where(p > 0.0, -np.expm1(decay), 0.0), axis=-1)
    return out if out.ndim else float(out)


def n_distinct_fixed_length(rings: RingStructure, l_max: int, n_rw):
    """Ring-model expectation when every walk has exactly ``l_max`` steps."""
    if l_max < 0:
        raise ParameterError("l_max must be >= 0")
    sizes = ring_sizes(rings, np.arange(l_max + 1))
    n = np.asarray(n_rw, dtype=np.float64)
    out = np.sum(_coverage(sizes, n[..., None] * np.ones_like(sizes)), axis=-1)
    return out if out.ndim else float(out)


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
    total = np.zeros(n.shape if n.ndim else ())
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
        if ls.size:
            sizes = ring_sizes(spec.rings, ls)
            exposure = n[..., None] * tail[ls]
            terms = _coverage(sizes, exposure)
            total = total + terms.sum(axis=-1)
            if np.max(terms[..., -1]) < TERM_THRESHOLD:
                break
        if stop > support_end:
            break
        if stop > RING_CAP:
            raise EvaluationError(
                f"ring terms not decaying below {TERM_THRESHOLD} by l={RING_CAP}")
        l = stop
    return total if total.ndim else float(total)


def asymptotic_exponent(a: float, b: float) -> float:
    """Growth exponent (a+1)/(a+b-1) of the power-law-ring regime."""
    if a <= 0:
        raise ParameterError("a must be > 0")
    if b <= 1:
        raise ParameterError("b must be > 1")
    return (a + 1.0) / (a + b - 1.0)


def asymptotic_log_corrected(b: float, n_rw):
    """Shape n/(ln n)^(b-1) of the exponential-ring regime (constant free)."""
    if b < 1:
        raise ParameterError("b must be >= 1")
    n = np.asarray(n_rw, dtype=np.float64)
    if np.any(n < 3):
        raise ParameterError("n_rw must be >= 3")
    out = n / np.log(n) ** (b - 1.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Monte Carlo support
# ---------------------------------------------------------------------------

def estimate_visit_probs(graph: SubstrateGraph, origin: int, lengths: LengthDist,
                         n_samples: int, seed: int,
                         threads: int = 1) -> VisitProbabilities:
    """Estimate p_i as the fraction of independent walks visiting node i."""
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    ens = simulate_walks(graph, origin, n_samples, lengths, seed, threads=threads)
    p = node_frequencies(ens.walk_node_pairs()[1], graph.node_count) / float(n_samples)
    stderr = np.sqrt(p * (1.0 - p) / n_samples)
    return VisitProbabilities(p=p, n_samples=n_samples, stderr=stderr)


def simulate_mean_distinct(graph: SubstrateGraph, origin: int, lengths: LengthDist,
                           n_rw: int, reps: int, seed: int, threads: int = 1,
                           count_origin: bool = True) -> tuple[float, float]:
    """Mean and standard error of N_distinct over ``reps`` fresh ensembles.

    All ``reps * n_rw`` walks are simulated as one batch and split into
    consecutive blocks of ``n_rw``; walks are independent, so every block
    is a valid ensemble.
    """
    if n_rw < 1 or reps < 1:
        raise ParameterError("n_rw and reps must be >= 1")
    ens = simulate_walks(graph, origin, n_rw * reps, lengths,
                         derive_seed(seed, 0x726570), threads=threads)
    wid, nodes = ens.walk_node_pairs(count_origin=count_origin)
    rep_node = sorted_unique((wid // n_rw) * graph.node_count + nodes)
    counts = np.bincount(rep_node // graph.node_count, minlength=reps)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return mean, stderr
