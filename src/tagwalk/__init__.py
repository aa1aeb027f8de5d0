"""Generative model of social annotation via random walks on a substrate.

Ensembles of finite random walks from a fixed origin stand in for tagging
events; each walk's distinct node set becomes a clique in a weighted
co-occurrence network.  The package provides substrate generators, the
deterministic walk engine, the network projection, weighted-network
observables, closed-form coverage predictions, an ingest path for real
annotation logs, and a config-driven CLI.
"""

from .cooc import CoocGraph, build_from_posts, build_from_traces, project
from .errors import (ConfigError, ContractError, EvaluationError, FitError,
                     IngestError, ParameterError, TagwalkError)
from .observables import (clustering_of_k, cosine_similarity_distribution,
                          degree_strength_weight_distributions, fit_power_law,
                          frequency_rank, knn_of_k, s_of_k, weight_vs_kikj)
from .pipeline import (ExperimentConfig, IngestConfig, compare, load_config,
                       run_experiment, run_ingest, run_stage)
from .substrate import (ErdosRenyi, GraphSpec, RegularTree, RingProfile,
                        SubstrateGraph, WattsStrogatz, bfs_rings, build_graph,
                        generate_erdos_renyi, generate_regular_tree,
                        generate_watts_strogatz)
from .theory import (ExponentialRings, PowerLawRings, RingModelSpec,
                     asymptotic_exponent, asymptotic_log_corrected,
                     estimate_visit_probs, n_distinct_exact,
                     n_distinct_fixed_length, n_distinct_random_length,
                     simulate_mean_distinct)
from .walker import (FixedLength, PowerLawLength, WalkConfig, WalkEnsemble,
                     heaps_curve, run_ensemble, simulate_walks)

__version__ = "0.1.0"

__all__ = [
    "CoocGraph", "build_from_posts", "build_from_traces", "project",
    "TagwalkError", "ParameterError", "ConfigError", "ContractError",
    "FitError", "EvaluationError", "IngestError",
    "ExperimentConfig", "IngestConfig", "load_config",
    "run_experiment", "run_ingest", "run_stage", "compare",
    "SubstrateGraph", "GraphSpec", "WattsStrogatz", "RegularTree",
    "ErdosRenyi", "RingProfile", "build_graph", "bfs_rings",
    "generate_watts_strogatz", "generate_regular_tree", "generate_erdos_renyi",
    "RingModelSpec", "PowerLawRings", "ExponentialRings",
    "n_distinct_exact", "n_distinct_fixed_length", "n_distinct_random_length",
    "asymptotic_exponent", "asymptotic_log_corrected",
    "estimate_visit_probs", "simulate_mean_distinct",
    "FixedLength", "PowerLawLength", "WalkConfig", "WalkEnsemble",
    "simulate_walks", "run_ensemble", "heaps_curve",
    "degree_strength_weight_distributions", "s_of_k", "knn_of_k",
    "clustering_of_k", "weight_vs_kikj", "cosine_similarity_distribution",
    "frequency_rank", "fit_power_law",
    "__version__",
]
