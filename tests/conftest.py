import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from naive_reference import corpus_of
from tagwalk.cooc import CoocGraph, project
from tagwalk.ingest import Corpus, filter_by_tag
from tagwalk.substrate import SubstrateGraph, from_edge_pairs


def graph_from_pairs(n, pairs) -> SubstrateGraph:
    return from_edge_pairs(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def focus_stream(tagsets, focus_tag="t") -> Corpus:
    """The focus stream of one post per tag set, in the given order."""
    return filter_by_tag(corpus_of([("u", f"r{i}", i, tags)
                                    for i, tags in enumerate(tagsets)]), focus_tag)


def focus_graph(tagsets, focus_tag="t") -> CoocGraph:
    """Co-occurrence graph of :func:`focus_stream`, by the ingest path."""
    stream = focus_stream(tagsets, focus_tag)
    return project(*stream.tag_pairs())


@pytest.fixture
def k2():
    return graph_from_pairs(2, [(0, 1)])


@pytest.fixture
def triangle():
    return graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4():
    # 0 - 1 - 2 - 3
    return graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star5():
    # hub 0 with four leaves
    return graph_from_pairs(5, [(0, i) for i in range(1, 5)])
