"""Generative model of social annotation via random walks on a substrate.

Ensembles of finite random walks from a fixed origin stand in for tagging
events; each walk's distinct node set becomes a clique in a weighted
co-occurrence network.  The package provides substrate generators, the
deterministic walk engine, the network projection, weighted-network
observables, closed-form coverage predictions, an ingest path for real
annotation logs, and a config-driven CLI.
"""

from .cooc import CoocGraph, project
from .errors import (ConfigError, ContractError, EvaluationError, FitError,
                     IngestError, ParameterError, TagwalkError)
from .observables import (clustering_of_k, cosine_similarity_distribution,
                          degree_strength_weight_distributions, fit_power_law,
                          frequency_rank, knn_of_k, s_of_k, weight_vs_kikj)
from .pipeline import (ExperimentConfig, IngestConfig, compare, load_config,
                       run_experiment, run_ingest, run_stage)
from .substrate import (ErdosRenyi, RegularTree, SubstrateGraph, WattsStrogatz,
                        bfs_rings, build_graph, generate_erdos_renyi,
                        generate_regular_tree, generate_watts_strogatz)
from .theory import RingModelSpec, n_distinct_random_length
from .walker import (FixedLength, PowerLawLength, WalkConfig, WalkEnsemble,
                     heaps_curve, run_ensemble, simulate_walks)

__version__ = "0.1.0"

__all__ = [
    "CoocGraph", "project",
    "TagwalkError", "ParameterError", "ConfigError", "ContractError",
    "FitError", "EvaluationError", "IngestError",
    "ExperimentConfig", "IngestConfig", "load_config",
    "run_experiment", "run_ingest", "run_stage", "compare",
    "SubstrateGraph", "WattsStrogatz", "RegularTree", "ErdosRenyi",
    "build_graph", "bfs_rings",
    "generate_watts_strogatz", "generate_regular_tree", "generate_erdos_renyi",
    "RingModelSpec", "n_distinct_random_length",
    "FixedLength", "PowerLawLength", "WalkConfig", "WalkEnsemble",
    "simulate_walks", "run_ensemble", "heaps_curve",
    "degree_strength_weight_distributions", "s_of_k", "knn_of_k",
    "clustering_of_k", "weight_vs_kikj", "cosine_similarity_distribution",
    "frequency_rank", "fit_power_law",
    "__version__",
]
