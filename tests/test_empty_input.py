"""Results on empty input: an empty graph, zero walks and a graph of one node.

Each case states the values, shapes and dtypes that the result must have,
so that any code path the empty input takes must give exactly these.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from conftest import graph_from_pairs
from tagwalk.cooc import CoocGraph, project
from tagwalk.observables import (BinnedSeries, Distribution, Histogram,
                                 assert_accounting, clustering_of_k,
                                 cosine_similarity_distribution,
                                 degree_strength_weight_distributions, knn_of_k,
                                 s_of_k)
from tagwalk.theory import RingModelSpec, n_distinct_random_length
from tagwalk.walker import (PowerLawLength, WalkEnsemble, heaps_checkpoints,
                            simulate_walks)

NO_IDS = np.empty(0, dtype=np.int64)
NO_SERIES = BinnedSeries(np.empty(0), np.empty(0), NO_IDS)
NO_VALUES = Distribution(NO_IDS, NO_IDS)
NO_SIMILARITIES = Histogram(np.round(np.arange(0.0, 1.025, 0.05), 10),
                            np.zeros(20, dtype=np.int64), False, 0)


def empty_graph() -> CoocGraph:
    return project(NO_IDS, NO_IDS)


def one_node() -> CoocGraph:
    return project(np.zeros(1, dtype=np.int64), np.asarray([5]))


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)
    elif is_dataclass(want):
        assert type(got) is type(want)
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("call, want", [
    pytest.param(lambda: simulate_walks(graph_from_pairs(3, [(0, 1)]), 1, 0,
                                        PowerLawLength(2.0, 1, 5), seed=1),
                 WalkEnsemble(origin=1, node_count=3, offsets=np.zeros(1, dtype=np.int64),
                              nodes=np.empty(0, dtype=np.int32)),
                 id="simulate_walks-zero_walks"),
    pytest.param(lambda: heaps_checkpoints(0), NO_IDS, id="heaps_checkpoints-zero_walks"),
    pytest.param(lambda: project(NO_IDS, NO_IDS),
                 CoocGraph.from_edges(NO_IDS, NO_IDS, NO_IDS, NO_IDS), id="project-empty"),
    pytest.param(lambda: project(np.zeros(1, dtype=np.int64), np.asarray([5])),
                 CoocGraph.from_edges(np.asarray([5]), NO_IDS, NO_IDS, NO_IDS),
                 id="project-one_node"),
    pytest.param(lambda: degree_strength_weight_distributions(empty_graph()),
                 (NO_VALUES,) * 3, id="distributions-empty"),
    pytest.param(lambda: s_of_k(empty_graph()), NO_SERIES, id="s_of_k-empty"),
    pytest.param(lambda: s_of_k(one_node()),
                 BinnedSeries(np.zeros(1), np.zeros(1), np.ones(1, dtype=np.int64)),
                 id="s_of_k-one_node"),
    pytest.param(lambda: knn_of_k(empty_graph()), (NO_SERIES,) * 2, id="knn_of_k-empty"),
    pytest.param(lambda: knn_of_k(one_node()), (NO_SERIES,) * 2, id="knn_of_k-one_node"),
    pytest.param(lambda: clustering_of_k(empty_graph()), (NO_SERIES,) * 2,
                 id="clustering_of_k-empty"),
    pytest.param(lambda: clustering_of_k(one_node()), (NO_SERIES,) * 2,
                 id="clustering_of_k-one_node"),
    pytest.param(lambda: cosine_similarity_distribution(empty_graph(), threads=2),
                 NO_SIMILARITIES, id="cosine-empty"),
    pytest.param(lambda: cosine_similarity_distribution(one_node()), NO_SIMILARITIES,
                 id="cosine-one_node"),
    pytest.param(lambda: assert_accounting(empty_graph()), None, id="accounting-empty"),
    pytest.param(lambda: n_distinct_random_length(
                     RingModelSpec(np.ones(6), PowerLawLength(2.0, 1, 5)), np.empty(0)),
                 np.empty(0), id="theory-empty_grid"),
])
def test_empty_input_results(call, want):
    assert_same(call(), want)
