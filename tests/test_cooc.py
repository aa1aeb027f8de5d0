import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from conftest import focus_graph, focus_stream
from naive_reference import (argsort_from_edges, build_from_traces, cooc_edges, merge,
                             naive_cooc_weights, neighbor_weights, walk_trace)
import tagwalk.cooc as cooc
from tagwalk.cooc import CoocGraph
from tagwalk.errors import ContractError, ParameterError
import tagwalk.substrate as substrate
from tagwalk.substrate import generate_watts_strogatz
from tagwalk.walker import PowerLawLength, simulate_walks


def weight_map(g: CoocGraph) -> dict:
    return {(int(i), int(j)): int(w) for i, j, w in zip(*cooc_edges(g))}


# ---------------------------------------------------------------------------
# Projection from traces
# ---------------------------------------------------------------------------

def test_single_walk_clique():
    g = build_from_traces([[0, 1, 2]])
    assert g.node_count == 3
    assert weight_map(g) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_revisits_count_once():
    g = build_from_traces([[0, 1, 0, 1, 2, 1]])
    assert weight_map(g) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_shared_pair_accumulates():
    g = build_from_traces([[0, 1, 2], [2, 1, 3]])
    assert weight_map(g) == {(0, 1): 1, (0, 2): 1, (1, 2): 2,
                             (1, 3): 1, (2, 3): 1}


def test_zero_step_walks_add_no_edges():
    g = build_from_traces([[4], [4], [4]], node_count=5)
    assert g.edge_count == 0
    assert g.node_count == 1          # vocabulary is just the visited node


def test_count_origin_false_drops_origin():
    ens_like = [[0, 1, 2], [0, 2, 3]]
    g = build_from_traces(ens_like, count_origin=False)
    want = naive_cooc_weights(ens_like, origin=0, count_origin=False)
    assert weight_map(g) == want
    assert 0 not in set(g.node_ids.tolist())


def test_build_from_walk_ensemble_matches_sequences():
    graph = generate_watts_strogatz(60, 4, 0.2, seed=4)
    ens = simulate_walks(graph, 0, 150, PowerLawLength(2.5, 1, 25), seed=9)
    direct = build_from_traces(ens)
    via_lists = build_from_traces([walk_trace(ens, w).tolist()
                                   for w in range(ens.walk_count)])
    assert np.array_equal(direct.node_ids, via_lists.node_ids)
    assert weight_map(direct) == weight_map(via_lists)


@given(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=8),
                max_size=25), st.booleans())
@settings(max_examples=80, deadline=None)
def test_projection_matches_naive_counting(traces, count_origin):
    g = build_from_traces(traces, count_origin=count_origin)
    want = naive_cooc_weights(traces, origin=traces[0][0] if traces else None,
                              count_origin=count_origin)
    assert weight_map(g) == want
    for budget in (1, 7):       # walks whose pairs are split across blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(substrate, "_PAIR_BLOCK", budget)
            assert weight_map(build_from_traces(traces, count_origin=count_origin)) == want
    # total weight identity: sum over walks of C(distinct, 2)
    assert g.total_weight == sum(want.values())


def test_empty_trace_rejected():
    with pytest.raises(ParameterError):
        build_from_traces([[0, 1], []])


# ---------------------------------------------------------------------------
# Projection from posts
# ---------------------------------------------------------------------------

def test_single_post_triangle():
    g = focus_graph([{"t", "a", "b", "c"}], "t")
    assert focus_stream([{"t", "a", "b", "c"}], "t").vocabulary == ("a", "b", "c")
    assert weight_map(g) == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_posts_share_pair():
    g = focus_graph([{"t", "a", "b"}, {"t", "b", "a"}], "t")
    assert weight_map(g) == {(0, 1): 2}


def test_focus_only_posts_make_empty_graph():
    g = focus_graph([{"t"}, {"t"}], "t")
    assert g.node_count == 0 and g.edge_count == 0


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

def test_merge_equals_joint_build():
    t1 = [[0, 1, 2], [1, 3]]
    t2 = [[2, 3, 4], [0, 1]]
    merged = merge(build_from_traces(t1), build_from_traces(t2))
    joint = build_from_traces(t1 + t2)
    assert np.array_equal(merged.node_ids, joint.node_ids)
    assert weight_map(merged) == weight_map(joint)


def test_merge_with_empty_is_identity():
    g = build_from_traces([[0, 1, 2]])
    empty = build_from_traces([[5]], node_count=6)
    merged = merge(g, empty)
    assert set(merged.node_ids.tolist()) == {0, 1, 2, 5}
    assert weight_map(merged) == weight_map(g)


def test_merge_of_focus_graphs_adds_weights():
    # ids are positions in each stream's vocabulary, here the same one
    a = focus_graph([{"t", "x", "y"}], "t")
    b = focus_graph([{"t", "x", "y"}], "t")
    assert weight_map(merge(a, b)) == {(0, 1): 2}


@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6),
                max_size=12),
       st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6),
                max_size=12))
@settings(max_examples=40, deadline=None)
def test_merge_is_concatenation(t1, t2):
    merged = merge(build_from_traces(t1), build_from_traces(t2))
    joint = build_from_traces(t1 + t2)
    assert np.array_equal(merged.node_ids, joint.node_ids)
    assert weight_map(merged) == weight_map(joint)


# ---------------------------------------------------------------------------
# Degrees, strengths, validation
# ---------------------------------------------------------------------------

def test_degrees_and_strengths_match_adjacency():
    traces = [[0, 1, 2], [1, 2, 3], [0, 2]]
    g = build_from_traces(traces)
    adj = neighbor_weights(naive_cooc_weights(traces))
    for pos, node in enumerate(g.node_ids.tolist()):
        assert g.degrees()[pos] == len(adj.get(node, {}))
        assert g.strengths()[pos] == sum(adj.get(node, {}).values())


CORRUPT = {   # the clique {0, 1, 2} in a cooc.edges with one row changed, and the check it breaks
    "zero_weight": ("0\t1\t1\n0\t2\t0\n1\t2\t1\n", "weights must be >= 1"),
    "swapped_ends": ("0\t1\t1\n2\t0\t1\n1\t2\t1\n", "edges must satisfy src < dst"),
}


@pytest.mark.parametrize("body, message", CORRUPT.values(), ids=CORRUPT.keys())
def test_validate_rejects_corrupt_graphs(tmp_path, body, message):
    path = tmp_path / "cooc.edges"
    path.write_text(body)
    with pytest.raises(ContractError) as err:
        CoocGraph.read_edge_list(path)
    assert str(err.value) == f"{path}: {message}"


def test_edge_order_is_checked_without_overflow(tmp_path):
    # ids up to 10**18 would wrap an int64 key src * (max_id + 1) + dst
    path = tmp_path / "cooc.edges"
    path.write_text("0\t1\t1\n9\t999999999999999999\t1\n")
    assert cooc_edges(CoocGraph.read_edge_list(path))[1].tolist() == [1, 999999999999999999]
    # rows out of order whose key 10 * 10**18 + 999999999999999999 would wrap below 1
    path.write_text("10\t999999999999999999\t1\n0\t1\t1\n")
    with pytest.raises(ContractError) as err:
        CoocGraph.read_edge_list(path)
    assert str(err.value) == f"{path}: edges must be sorted and unique"


def edges_in_positions(n, pairs, weights, dtype=np.int32):
    """``from_edges``' arguments for the sorted pairs ``(eu, ev)`` over n nodes of sparse ids."""
    eu, ev = np.array(pairs, dtype=dtype).reshape(-1, 2).T.copy()
    return np.arange(0, 3 * n, 3, dtype=np.int64), eu, ev, np.array(weights, dtype=np.int64)


@st.composite
def position_edges(draw):
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    weights = draw(st.lists(st.integers(1, 2 ** 40), min_size=len(chosen), max_size=len(chosen)))
    return edges_in_positions(n, chosen, weights, draw(st.sampled_from([np.int32, np.int64])))


# The examples: the empty graph; isolated nodes 0 and 3; row 0 with only
# upper entries and rows 1-3 with only lower ones.
@given(position_edges())
@example(edges_in_positions(0, [], []))
@example(edges_in_positions(4, [(1, 2)], [5]))
@example(edges_in_positions(4, [(0, 1), (0, 2), (0, 3)], [4, 5, 6]))
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_the_argsort_build(edges):
    g = CoocGraph.from_edges(*edges)
    for got, want in zip((g.indptr, g.neighbors, g.entry_weights), argsort_from_edges(*edges)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adjacency_is_the_canonical_csr_and_shared():
    rng = np.random.default_rng(4)
    traces = [rng.choice(40, size=int(rng.integers(1, 7)), replace=False).tolist()
              for _ in range(60)]
    g = build_from_traces(traces)
    pairs = naive_cooc_weights(traces)
    n = g.node_count
    eu, ev = (np.searchsorted(g.node_ids, [p[i] for p in pairs]) for i in (0, 1))
    w = np.concatenate([list(pairs.values())] * 2)
    want = csr_matrix((w, (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
                      shape=(n, n))
    want.sort_indices()
    indptr, neighbors, weights = g.indptr, g.neighbors, g.entry_weights
    assert np.array_equal(indptr, want.indptr)
    assert np.array_equal(neighbors, want.indices)
    assert np.array_equal(weights, want.data)
    assert np.array_equal(g.degrees(), np.diff(want.indptr))
    assert np.array_equal(g.strengths(), np.asarray(want.sum(axis=1)).ravel())
    assert neighbors.dtype == np.int32
    for derived in (g.degrees(), g.strengths(), indptr, neighbors, weights):
        assert not derived.flags.writeable
    assert g.degrees() is g.degrees()


def test_projection_peak_is_under_2_9_times_its_graph():
    # 146,618 edges from 1000 walks.  The builder holds its edges in int32
    # positions with their weights (16 bytes per edge), the 2m adjacency
    # entries (24), a row mask (2) and the argsort of the m lower entries
    # with one gather (16): 2.44 times the graph's bytes.  A stable argsort
    # of all 2m entries by row, with ids mapped to positions inside the
    # builder, took 3.34.
    graph = generate_watts_strogatz(20_000, 8, 0.1, seed=1)
    pairs = simulate_walks(graph, 0, 1000, PowerLawLength(2.0, 1, 1000), seed=1).walk_node_pairs()
    tracemalloc.start()
    try:
        g = cooc.project(*pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * sum(a.nbytes for a in (g.node_ids, g.indptr, g.neighbors,
                                                g.entry_weights))


@pytest.mark.parametrize("dtype", [bool, np.int32, np.int64, np.float64])
def test_neighbor_sums_hold_one_copy_of_their_values(dtype):
    # one walk over 300 nodes: 89,700 adjacency entries over 300 rows
    g = build_from_traces([list(range(300))])
    indptr, neighbors = g.indptr, g.neighbors
    values = (np.arange(neighbors.size) % 7 * 0.25).astype(dtype)
    want = np.concatenate([[0], np.cumsum(values)])
    want = want[indptr[1:]] - want[indptr[:-1]]
    tracemalloc.start()
    try:
        sums = g.neighbor_sums(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.dtype == want.dtype and np.array_equal(sums, want)
    # one copy of the values, as a running sum of the result's type, plus the result
    assert peak <= neighbors.size * sums.itemsize + sums.nbytes + 1000


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("table_bytes", [0, 1, 8])
@pytest.mark.parametrize("seed", range(3))
def test_find_edges_matches_the_edge_set(seed, table_bytes, dtype, monkeypatch):
    # 0 bytes per entry leaves one slot shared by every key, 1 byte fewer
    # slots than keys.  Probes name node positions; the node ids are sparse.
    monkeypatch.setattr(cooc, "EDGE_TABLE_BYTES", table_bytes)
    rng = np.random.default_rng(seed)
    traces = [rng.choice(3 * 40, size=int(rng.integers(1, 7)), replace=False).tolist()
              for _ in range(50)]
    g = build_from_traces(traces)
    n = g.node_count
    src, dst, _ = cooc_edges(g)
    edges = set(zip(np.searchsorted(g.node_ids, src).tolist(),
                    np.searchsorted(g.node_ids, dst).tolist()))
    indptr, neighbors = g.indptr, g.neighbors
    rows, cols = rng.integers(0, n, (2, 4000)).astype(dtype)
    hit, entries = g.find_edges(rows, cols)
    assert hit.tolist() == [p for p, (r, c) in enumerate(zip(rows, cols))
                            if (min(r, c), max(r, c)) in edges]
    assert np.array_equal(neighbors[entries], cols[hit])
    assert np.all((indptr[rows[hit]] <= entries) & (entries < indptr[rows[hit] + 1]))
    assert (g._edge_table.mask + 1 < neighbors.size) == (table_bytes < 8)
    assert g._edge_table is g._edge_table


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    g = build_from_traces([[0, 1, 2], [1, 2, 7], [2, 7]])
    path = tmp_path / "cooc.edges"
    g.write_edge_list(path)
    back = CoocGraph.read_edge_list(path)
    assert np.array_equal(back.node_ids, g.node_ids)
    assert weight_map(back) == weight_map(g)
    header = path.read_text().splitlines()[0]
    assert header == (f"# nodes={g.node_count} edges={g.edge_count} "
                      f"total_weight={g.total_weight}")


def test_labels_file(tmp_path):
    # the focus stream names the graph's ids: position i of its vocabulary
    path = tmp_path / "labels.tsv"
    focus_stream([{"t", "b", "a"}], "t").write_labels(path)
    assert path.read_text() == "id\tlabel\n0\ta\n1\tb\n"


def test_read_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# nodes=1 edges=1 total_weight=1\n0\t1\t1\n")
    with pytest.raises(ContractError):
        CoocGraph.read_edge_list(path)


@pytest.mark.parametrize("field, value", [("nodes", "x"), ("nodes", "2147483648"),
                                          ("edges", "-1"), ("total_weight", "1e3"),
                                          ("total_weight", "9223372036854775808")])
def test_read_edge_list_rejects_bad_header_values(tmp_path, field, value):
    path = tmp_path / "bad.edges"
    path.write_text(f"# {field}={value}\n0\t1\t1000\n")
    with pytest.raises(ContractError) as err:
        CoocGraph.read_edge_list(path)
    assert str(err.value) == f"{path}: bad {field}={value!r} in header"


def test_read_edge_list_rejects_negative_node_id(tmp_path):
    path = tmp_path / "neg.edges"
    path.write_text("# nodes=3 edges=2 total_weight=2\n-5\t3\t1\n-5\t7\t1\n")
    with pytest.raises(ContractError) as err:
        CoocGraph.read_edge_list(path)
    assert str(err.value) == f"{path}: negative node id -5"


@pytest.mark.parametrize("bad, message", [
    (b'foo', "invalid literal for int() with base 10: 'foo'"),
    (b'0\t1', 'expected 3 fields, got 2'),
    (b'0\t1\t1#x', "invalid literal for int() with base 10: '1#x'"),
    (b'0\t1\t\xc3\xa9', "invalid literal for int() with base 10: '\\udcc3\\udca9'"),
    (b'0\t1\t99999999999999999999', 'integer 99999999999999999999 out of range'),
], ids=['foo', 'two_columns', 'inline_hash', 'non_ascii', 'overflow'])
def test_read_edge_list_names_bad_line(tmp_path, bad, message):
    path = tmp_path / "g.edges"
    build_from_traces([[0, 1, 2], [1, 2, 7]]).write_edge_list(path)
    lines = path.read_bytes().split(b"\n")
    lines.insert(1, b"")                  # blank lines still count
    lines[2] = bad
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ContractError) as err:
        CoocGraph.read_edge_list(path)
    assert str(err.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("budget", [1, 3, 7, 64, 1000, 2 ** 20])
def test_pair_slices_concatenate_to_triu_indices(budget, monkeypatch):
    # one segment of every size 0..60, then a second of each size 2..11
    counts = np.concatenate([np.arange(0, 61), np.arange(2, 12)])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    monkeypatch.setattr(substrate, "_PAIR_BLOCK", budget)
    blocks = list(substrate._segment_pairs(counts))
    for e, f in blocks:
        # at most the budget plus the pairs of the block's first item, whose
        # own pairs come first if it has any
        first = np.count_nonzero(e == e[0]) if e.size else 0
        assert e.size == f.size and e.size - first <= budget
    for side, got in enumerate(zip(*blocks)):
        got = np.concatenate(got)
        want = np.concatenate([start + np.triu_indices(m, 1)[side]
                               for start, m in zip(starts, counts)])
        assert got.dtype == np.int64 and np.array_equal(got, want)
