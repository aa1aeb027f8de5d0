"""Theory used only by the test suite to cross-check the ring model.

The parametric shell sizes N_l ~ l^a and N_l ~ z^l, the exact coverage
expectation from per-node visit probabilities, the fixed-length ring sum,
the random-length ring sum over the whole length support in one pass, the
asymptotic growth shapes, and Monte Carlo estimates of visit probabilities
and of the mean distinct-node count.
The theory stage itself needs only :func:`tagwalk.theory.n_distinct_random_length`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tagwalk.errors import ParameterError
from tagwalk.rng import derive_seed
from tagwalk.substrate import SubstrateGraph, sorted_unique
from tagwalk.theory import RING_CAP, _coverage
from tagwalk.walker import LengthDist, length_pmf, node_frequencies, simulate_walks


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


def n_distinct_exact(p, n_rw):
    """Expected distinct-node count sum_i (1 - (1 - p_i)^n) from visit probabilities.

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


def _distances(lengths: LengthDist) -> np.ndarray:
    """l = 0 .. the length support's end, as far as the evaluator's cap."""
    return np.arange(min(int(length_pmf(lengths)[0][-1]), RING_CAP) + 1, dtype=np.float64)


def power_law_rings(a: float, lengths: LengthDist, c_n: float = 1.0) -> np.ndarray:
    """Shell sizes N_l = max(1, round(c_n * l**a)), so N_0 = 1, for every
    distance a walk of ``lengths`` reaches."""
    if a <= 0:
        raise ParameterError("a must be > 0")
    if c_n <= 0:
        raise ParameterError("c_n must be > 0")
    return np.maximum(1.0, np.round(c_n * _distances(lengths) ** a))


def exponential_rings(z: float, lengths: LengthDist) -> np.ndarray:
    """Shell sizes N_l = z**l for every distance a walk of ``lengths``
    reaches; the exponent is clipped at 700, near the float64 ceiling,
    where the term is already about n * P_>(l)."""
    if z <= 1:
        raise ParameterError("z must be > 1")
    return np.exp(np.minimum(_distances(lengths) * np.log(z), 700.0))


def n_distinct_fixed_length(rings, l_max: int, n_rw):
    """Ring-model expectation when every walk has exactly ``l_max`` steps."""
    if l_max < 0:
        raise ParameterError("l_max must be >= 0")
    sizes = np.asarray(rings, dtype=np.float64)[:l_max + 1]  # missing rings add 0
    n = np.asarray(n_rw, dtype=np.float64)
    out = np.sum(_coverage(sizes, n[..., None] * np.ones_like(sizes)), axis=-1)
    return out if out.ndim else float(out)


def n_distinct_ring_sum(rings, lengths: LengthDist, n_rw):
    """Random-length ring-model expectation, every ring of the length support
    summed at once: no ring blocks, stopping threshold or cap."""
    values, pmf = length_pmf(lengths)
    l = np.arange(int(values[-1]) + 1)
    tail = np.asarray([1.0 if x <= values[0] else pmf[values >= x].sum() for x in l])
    sizes = np.asarray(rings, dtype=np.float64)[:l.size]
    n = np.asarray(n_rw, dtype=np.float64)
    out = np.sum(_coverage(sizes, n[..., None] * tail[:sizes.size]), axis=-1)
    return out if out.ndim else float(out)


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


def estimate_visit_probs(graph: SubstrateGraph, origin: int, lengths: LengthDist,
                         n_samples: int, seed: int) -> VisitProbabilities:
    """Estimate p_i as the fraction of independent walks visiting node i."""
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    ens = simulate_walks(graph, origin, n_samples, lengths, seed)
    p = node_frequencies(ens.walk_node_pairs()[1], graph.node_count) / float(n_samples)
    stderr = np.sqrt(p * (1.0 - p) / n_samples)
    return VisitProbabilities(p=p, n_samples=n_samples, stderr=stderr)


def simulate_mean_distinct(graph: SubstrateGraph, origin: int, lengths: LengthDist,
                           n_rw: int, reps: int, seed: int,
                           count_origin: bool = True) -> tuple[float, float]:
    """Mean and standard error of N_distinct over ``reps`` fresh ensembles.

    All ``reps * n_rw`` walks are simulated as one batch and split into
    consecutive blocks of ``n_rw``; walks are independent, so every block
    is a valid ensemble.
    """
    if n_rw < 1 or reps < 1:
        raise ParameterError("n_rw and reps must be >= 1")
    ens = simulate_walks(graph, origin, n_rw * reps, lengths,
                         derive_seed(seed, 0x726570))
    wid, nodes = ens.walk_node_pairs(count_origin=count_origin)
    rep_node = sorted_unique((wid // n_rw) * graph.node_count + nodes)
    counts = np.bincount(rep_node // graph.node_count, minlength=reps)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return mean, stderr
