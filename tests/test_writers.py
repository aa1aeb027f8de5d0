"""The bulk text writers against the per-line writers they replaced.

Each writer must give exactly the bytes of its oracle in
``naive_reference``, across block boundaries (the block constants are
shrunk so that small inputs span several blocks).
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagwalk.formats as formats
import tagwalk.ingest as ingest
import tagwalk.substrate as substrate
from conftest import graph_from_pairs
from naive_reference import (corpus_of, graph_from_ids, naive_write_cooc, naive_write_jsonl,
                             naive_write_substrate, naive_write_traces)
from tagwalk.cooc import CoocGraph
from tagwalk.errors import ParameterError
from tagwalk.formats import write_int_rows
from tagwalk.ingest import Corpus
from tagwalk.substrate import SubstrateGraph
from tagwalk.walker import WalkEnsemble

ORACLE = settings(max_examples=150, deadline=None)
LIMIT = 10 ** 18

# 0, both sides of every power of ten, and anything below 10**18
values = st.one_of(st.integers(0, LIMIT - 1),
                   st.sampled_from([0] + [10 ** e + d for e in range(1, 18) for d in (-1, 0)]))
blocks = st.sampled_from([1, 2, 3, 7, formats.WRITE_BLOCK_FIELDS])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


def same_bytes(workdir, write, oracle, obj, block) -> bool:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "WRITE_BLOCK_FIELDS", block)
        mp.setattr(ingest, "WRITE_BLOCK_POSTS", block)
        mp.setattr(substrate, "_KEY_BLOCK", block)
        write(obj, workdir / "new")
    oracle(obj, workdir / "old")
    return (workdir / "new").read_bytes() == (workdir / "old").read_bytes()


# ---------------------------------------------------------------------------
# write_int_rows
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(values, st.sampled_from(b" \t\n"))), blocks)
@ORACLE
def test_write_int_rows_matches_str(fields, block):
    vals = np.asarray([v for v, _ in fields], dtype=np.int64)
    seps = bytes(s for _, s in fields)
    fh = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "WRITE_BLOCK_FIELDS", block)
        write_int_rows(fh, vals, seps)
    assert fh.getvalue() == "".join(f"{v}{chr(s)}" for v, s in fields).encode()


def test_write_int_rows_broadcasts_a_row_pattern():
    fh = io.BytesIO()
    write_int_rows(fh, np.asarray([[0, 10], [99999999, 7]], dtype=np.int32), b"\t\n")
    assert fh.getvalue() == b"0\t10\n99999999\t7\n"


@pytest.mark.parametrize("bad", [-1, -LIMIT + 1, LIMIT, np.iinfo(np.int64).max])
def test_write_int_rows_rejects_values_outside_contract(bad):
    fh = io.BytesIO()
    with pytest.raises(ParameterError, match=r"\[0, 10\*\*18\)"):
        write_int_rows(fh, np.asarray([5, bad, 6], dtype=np.int64), b" ")
    assert fh.getvalue() == b""


# ---------------------------------------------------------------------------
# The three integer files
# ---------------------------------------------------------------------------

@st.composite
def substrates(draw):
    n = draw(st.sampled_from([0, 1, 2, 5, 20, 99_999]))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
                          .map(lambda p: (min(p), max(p))), unique=True, max_size=30))
    return graph_from_pairs(n, pairs)


@given(substrates(), blocks)
@ORACLE
def test_substrate_writer_matches_oracle(workdir, g, block):
    assert same_bytes(workdir, SubstrateGraph.write_edge_list, naive_write_substrate, g, block)


@st.composite
def cooc_graphs(draw):
    # at most 9 weights below 10**18, so total_weight stays inside int64
    keys = draw(st.lists(st.tuples(values, values).filter(lambda p: p[0] != p[1])
                         .map(lambda p: (min(p), max(p))), unique=True, max_size=9))
    keys.sort()
    weights = draw(st.lists(st.integers(1, LIMIT - 1), min_size=len(keys),
                            max_size=len(keys)))
    src = np.asarray([i for i, _ in keys], dtype=np.int64)
    dst = np.asarray([j for _, j in keys], dtype=np.int64)
    return graph_from_ids(np.unique(np.concatenate([src, dst])), src, dst,
                          np.asarray(weights, dtype=np.int64))


@given(cooc_graphs(), blocks)
@ORACLE
def test_cooc_writer_matches_oracle(workdir, g, block):
    assert same_bytes(workdir, CoocGraph.write_edge_list, naive_write_cooc, g, block)


node_ids = st.one_of(st.integers(0, 2 ** 31 - 1), st.integers(0, 12))
walks = st.lists(st.lists(node_ids, max_size=6), max_size=10)


@given(node_ids, walks, blocks)
@ORACLE
def test_traces_writer_matches_oracle(workdir, origin, tails, block):
    flat = np.asarray([v for t in tails for v in [origin, *t]], dtype=np.int32)
    offsets = np.concatenate([[0], np.cumsum([1 + len(t) for t in tails])]).astype(np.int64)
    ens = WalkEnsemble(origin=origin, node_count=2 ** 31, offsets=offsets, nodes=flat)
    assert same_bytes(workdir, WalkEnsemble.write_traces, naive_write_traces, ens, block)


# ---------------------------------------------------------------------------
# corpus.jsonl
# ---------------------------------------------------------------------------

# quotes, backslashes, control and non-ASCII characters, lone surrogates;
# timestamps span the int64 column that holds them
texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7fé \ud800\U0001f600 a'))
posts = st.tuples(texts, texts, st.integers(-2 ** 63, 2 ** 63 - 1),
                  st.frozensets(texts, max_size=5))


@given(st.lists(posts, max_size=12), blocks)
@ORACLE
def test_jsonl_writer_matches_oracle(workdir, post_list, block):
    corpus = corpus_of(post_list)
    assert same_bytes(workdir, Corpus.write_jsonl, naive_write_jsonl, corpus, block)
