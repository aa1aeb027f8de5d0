import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_pairs
from naive_reference import (edge_arrays, naive_watts_strogatz, neighbors_of,
                             validate_substrate)
from tagwalk import substrate
from tagwalk.errors import ContractError, ParameterError
from tagwalk.substrate import (ErdosRenyi, RegularTree, SubstrateGraph,
                               WattsStrogatz, bfs_rings,
                               build_graph, from_edge_pairs,
                               generate_erdos_renyi, generate_regular_tree,
                               generate_watts_strogatz, read_node_count)


# ---------------------------------------------------------------------------
# Watts-Strogatz
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_ws_edge_count_exact(p):
    n, k = 400, 6
    g = generate_watts_strogatz(n, k, p, seed=5)
    assert g.edge_count == n * k // 2
    src, dst = edge_arrays(g)
    assert np.all(src < dst)
    assert np.unique(src * n + dst).size == g.edge_count  # no duplicates
    validate_substrate(g)


def test_ws_zero_rewire_is_ring_lattice():
    n, k = 20, 4
    g = generate_watts_strogatz(n, k, 0.0, seed=0)
    for i in range(n):
        expect = sorted({(i + d) % n for d in (-2, -1, 1, 2)})
        assert neighbors_of(g, i).tolist() == expect


def test_ws_full_rewire_departs_from_lattice():
    n, k = 200, 4
    g = generate_watts_strogatz(n, k, 1.0, seed=3)
    lattice = generate_watts_strogatz(n, k, 0.0, seed=3)
    assert not np.array_equal(g.indices, lattice.indices)
    assert g.degrees().mean() == k
    assert g.degrees().min() >= 0


def test_ws_seed_determinism():
    a = generate_watts_strogatz(300, 8, 0.1, seed=11)
    b = generate_watts_strogatz(300, 8, 0.1, seed=11)
    c = generate_watts_strogatz(300, 8, 0.1, seed=12)
    assert np.array_equal(a.indices, b.indices)
    assert not np.array_equal(a.indices, c.indices)


def assert_same_graph(fast, slow, case):
    assert fast.indptr.dtype == slow.indptr.dtype, case
    assert fast.indices.dtype == slow.indices.dtype, case
    assert fast.indptr.tobytes() == slow.indptr.tobytes(), case
    assert fast.indices.tobytes() == slow.indices.tobytes(), case


# (k, p, seed) cases at the sizes of the bench workloads, where slices run
# to the block size; every other n sweeps k, p and seeds
BENCH_SIZED = {200_000: [(8, 0.1, 1000), (8, 0.1, 1001)], 50_000: [(8, 1.0, 1)]}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 17, 50, 301, 5000, *BENCH_SIZED])
def test_ws_matches_set_based_oracle(n):
    # n = k+1 and n = k+2 saturate nodes, so the skip of a node linked to
    # every other one and the rewind of unused draws both run; the rewind
    # changes a later round's coins only rarely (n=9, k=6, p=0.5, seed 5 and
    # n=10, k=8, p=0.5, seed 2), hence the many seeds on small rings
    seeds = range(40) if n <= 17 else (0, 1, 7)
    cases = BENCH_SIZED.get(n) or [(k, p, seed) for k in (2, 4, 6, 8, 10, 16) if k < n
                                   for p in (0.0, 0.05, 0.5, 0.9, 1.0) for seed in seeds]
    for k, p, seed in cases:
        assert_same_graph(generate_watts_strogatz(n, k, p, seed),
                          naive_watts_strogatz(n, k, p, seed), (n, k, p, seed))


def _stop_reasons(c, m, j, partner, degree, t):
    """Why coin ``t`` of a slice cannot be settled in bulk, from the slice's start state."""
    n, half = degree.size, partner.size // degree.size
    src = np.tile(np.arange(n), half)
    dst = np.where(partner < 0, (src + np.repeat(np.arange(1, half + 1), n)) % n, partner)
    edges = set(zip(src.tolist(), dst.tolist())) | set(zip(dst.tolist(), src.tolist()))
    ct, mt, before = int(c[t]), int(m[t]), range(t)
    reasons = set()
    if mt == ct or (ct, mt) in edges:
        reasons.add("rejected draw")
    if any(c[s] == mt and (c[s] + j) % n == ct for s in before):
        reasons.add("removed lattice edge")
    if any(c[s] == mt and m[s] == ct for s in before):
        reasons.add("reverse of a new edge")
    if degree[ct] + np.sum(m[:t] == ct) - np.sum((c[:t] + j) % n == ct) >= n - 1:
        reasons.add("skip at degree n-1")
    return reasons


def test_ws_slice_stops_cover_every_condition(monkeypatch):
    # every slice goes through the numpy pass, so small rings reach each stop
    # condition often; the graphs must still equal the scalar oracle's
    seen = {}
    settle, default_rng = substrate._settle_slice, np.random.default_rng

    def recording_settle(c, m, j, partner, degree):
        start = partner.copy(), degree.copy()
        t = settle(c, m, j, partner, degree)
        if t < c.size:
            for reason in _stop_reasons(c, m, j, *start, t):
                seen.setdefault(reason, case)
        return t

    class CountingRng:
        """A generator whose scalar ``integers`` draws are those past a round's batch."""
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def integers(self, high, size=None):
            if size is None:
                seen.setdefault("past the batch", case)
            return self.rng.integers(high, size=size)

    monkeypatch.setattr(substrate, "_VECTOR_MIN", 1)
    monkeypatch.setattr(substrate, "_settle_slice", recording_settle)
    for case in itertools.product((5, 9, 20), (2, 4, 6, 8), (0.5, 1.0), range(12)):
        n, k, p, seed = case
        if k >= n:
            continue
        with monkeypatch.context() as patched:
            patched.setattr(np.random, "default_rng", CountingRng)
            fast = generate_watts_strogatz(n, k, p, seed)
        assert_same_graph(fast, naive_watts_strogatz(n, k, p, seed), case)
    assert sorted(seen) == ["past the batch", "rejected draw", "removed lattice edge",
                            "reverse of a new edge", "skip at degree n-1"], seen


@pytest.mark.parametrize("n", [3, 1000, 2**31 + 11, 2**40])
def test_numpy_batch_draws_equal_scalar_draws(n):
    batch, scalar = np.random.default_rng(9), np.random.default_rng(9)
    assert batch.integers(n, size=25).tolist() == [int(scalar.integers(n)) for _ in range(25)]
    assert batch.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed, digest", [
    (1, "9db3232dda69f26993f111ff4574928c5f662b86fbe1e13e48d4040104f6a11e"),
    (2024, "38d15ce4661427a6ef15279d3b45c3f04821c80db7f1549ba98ac89f59d7b530"),
])
def test_ws_graph_pinned_by_hash(seed, digest):
    # recorded from the set-based generator; a numpy release that changes
    # the draws, or a batch that stops matching scalar draws, fails here
    g = generate_watts_strogatz(20000, 8, 0.1, seed)
    assert hashlib.sha256(g.indptr.tobytes() + g.indices.tobytes()).hexdigest() == digest


def test_ws_parameter_errors():
    with pytest.raises(ParameterError):
        generate_watts_strogatz(10, 3, 0.1, seed=0)   # odd k
    with pytest.raises(ParameterError):
        generate_watts_strogatz(4, 4, 0.1, seed=0)    # k >= n
    with pytest.raises(ParameterError):
        generate_watts_strogatz(10, 4, 1.5, seed=0)   # p out of range


# ---------------------------------------------------------------------------
# Regular tree
# ---------------------------------------------------------------------------

def test_tree_shells_and_degrees():
    g = generate_regular_tree(z=2, depth=6)
    rings = bfs_rings(g, 0)
    assert rings.tolist() == [1, 3, 6, 12, 24, 48, 96]
    assert g.node_count == 190
    deg = g.degrees()
    assert deg[0] == 3
    leaves = deg == 1
    assert leaves.sum() == 96
    assert np.all(deg[~leaves] == 3)
    validate_substrate(g)


def test_tree_depth_zero_and_one():
    g0 = generate_regular_tree(z=3, depth=0)
    assert g0.node_count == 1 and g0.edge_count == 0
    g1 = generate_regular_tree(z=3, depth=1)
    assert g1.node_count == 5 and g1.edge_count == 4
    assert neighbors_of(g1, 0).tolist() == [1, 2, 3, 4]


def test_tree_first_shell_sum():
    # distances 0..3 from the root of a z=2 tree hold 1+3+6+12 = 22 nodes
    g = generate_regular_tree(z=2, depth=6)
    rings = bfs_rings(g, 0)
    assert rings[:4].sum() == 22


@pytest.mark.parametrize("z", [1, 2, 3, 7])
def test_tree_node_count_is_the_shell_sum(z):
    for depth in range(8):
        shells = sum((z + 1) * z ** (l - 1) for l in range(1, depth + 1))
        assert RegularTree(z, depth).node_count == 1 + shells


@pytest.mark.parametrize("z, depth, nodes", [(1, 2 ** 30 - 1, 2 ** 31 - 1),
                                            (2, 29, 1_610_612_734), (1289, 3, 2_145_026_191)])
def test_tree_node_count_bound_is_exact(z, depth, nodes):
    # the largest depth whose tree still fits int32 ids, and one more level
    assert RegularTree(z, depth).node_count == nodes
    with pytest.raises(ParameterError, match="node count must be below 2"):
        RegularTree(z, depth + 1)


# ---------------------------------------------------------------------------
# Erdos-Renyi
# ---------------------------------------------------------------------------

def test_er_complete_triangle():
    g = generate_erdos_renyi(3, 2.0, seed=0)
    assert g.edge_count == 3
    assert neighbors_of(g, 0).tolist() == [1, 2]
    assert neighbors_of(g, 1).tolist() == [0, 2]


def test_er_empty_and_bounds():
    g = generate_erdos_renyi(50, 0.0, seed=1)
    assert g.edge_count == 0
    with pytest.raises(ParameterError):
        generate_erdos_renyi(10, 9.5, seed=1)   # above n-1
    with pytest.raises(ParameterError):
        generate_erdos_renyi(10, -1.0, seed=1)


def test_er_mean_degree_statistics():
    g = generate_erdos_renyi(3000, 6.0, seed=7)
    assert abs(g.degrees().mean() - 6.0) < 0.3
    validate_substrate(g)


def test_er_seed_determinism():
    a = generate_erdos_renyi(200, 4.0, seed=9)
    b = generate_erdos_renyi(200, 4.0, seed=9)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


# ---------------------------------------------------------------------------
# build_graph: a config's graph variant and seed to its generator
# ---------------------------------------------------------------------------

def test_build_graph_dispatch():
    assert build_graph(WattsStrogatz(20, 4, 0.0), 0).node_count == 20
    assert build_graph(RegularTree(2, 2), 0).node_count == 10
    assert build_graph(ErdosRenyi(5, 1.0), 0).node_count == 5


# ---------------------------------------------------------------------------
# Structure, validation, serialization
# ---------------------------------------------------------------------------

def test_neighbors_sorted_and_degree(path4):
    assert neighbors_of(path4, 1).tolist() == [0, 2]
    assert path4.degree(0) == 1
    assert path4.degrees().tolist() == [1, 2, 2, 1]
    assert path4.edge_count == 3


def test_validate_rejects_self_loop():
    with pytest.raises(ContractError):
        from_edge_pairs(3, np.asarray([[0, 0], [1, 2]]))


def test_validate_rejects_duplicate_edge():
    with pytest.raises(ContractError):
        from_edge_pairs(3, np.asarray([[0, 1], [0, 1]]))


def test_validate_rejects_out_of_range():
    with pytest.raises(ContractError):
        from_edge_pairs(2, np.asarray([[0, 5]]))


def test_validate_rejects_asymmetry():
    # handcrafted one-directional edge
    g = SubstrateGraph(2, np.asarray([0, 1, 1], dtype=np.int64),
                       np.asarray([1], dtype=np.int32))
    with pytest.raises(ContractError):
        validate_substrate(g)


@pytest.mark.parametrize("body, message", [
    ("0\t1\n1\t2\n0\t1\n", "neighbor list not strictly increasing"),
    ("0\t1\n1\t2\n1\t0\n", "neighbor list not strictly increasing"),
    ("0\t1\n2\t2\n", "self-loop present"),
], ids=["duplicate", "duplicate_reversed", "self_loop"])
def test_read_edge_list_rejects_duplicates_and_self_loops(tmp_path, body, message):
    # from_edge_pairs inserts both orientations of each pair and skips the
    # symmetry check, so these rows must still fail the row checks
    path = tmp_path / "g.edges"
    path.write_text("# nodes=4\n" + body)
    with pytest.raises(ContractError) as err:
        SubstrateGraph.read_edge_list(path)
    assert str(err.value) == f"{path}: {message}"


def test_edge_list_round_trip(tmp_path, triangle):
    path = tmp_path / "g.edges"
    triangle.write_edge_list(path)
    back = SubstrateGraph.read_edge_list(path)
    assert back.node_count == triangle.node_count
    assert np.array_equal(back.indptr, triangle.indptr)
    assert np.array_equal(back.indices, triangle.indices)


def test_edge_list_keeps_isolated_nodes(tmp_path):
    g = graph_from_pairs(5, [(0, 1)])   # nodes 2..4 isolated
    path = tmp_path / "g.edges"
    g.write_edge_list(path)
    back = SubstrateGraph.read_edge_list(path)
    assert back.node_count == 5
    assert back.degree(4) == 0


@pytest.mark.parametrize("text, count", [
    ("# nodes=5\n0\t1\n", 5),
    ("0\t1\n# nodes=7\n1\t2\n", 7),
    ("# nodes=3\n0\t1\n# edges=1 nodes=9\n", 9),
], ids=["first_line", "between_edges", "last_of_two"])
def test_node_count_is_the_one_the_edge_reader_takes(tmp_path, text, count):
    path = tmp_path / "g.edges"
    path.write_text(text)
    assert read_node_count(path) == SubstrateGraph.read_edge_list(path).node_count == count


@pytest.mark.parametrize("text, message", [
    ("0\t1\n", "missing '# nodes=' header"),
    ("# nodes=-3\n", "bad nodes='-3' in header"),
    ("# nodes=2147483648\n", "bad nodes='2147483648' in header"),
], ids=["missing", "negative", "past_int32"])
def test_node_count_header_errors(tmp_path, text, message):
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ContractError) as err:
        read_node_count(path)
    assert str(err.value) == f"{path}: {message}"


def test_node_count_reads_no_edge(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# nodes=4\n0\t9\nfoo\n2\t2\n")
    assert read_node_count(path) == 4


@st.composite
def probed_graphs(draw):
    """A graph with a hub row, an isolated node (at times the first or the last)
    and, unless a draw falls on a self pair or the isolated node, an edge at
    each of its first and last nodes."""
    n = draw(st.integers(3, 30))
    hub, lonely = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    pairs += [(hub, v) for v in draw(st.sets(ends, min_size=n // 2))]
    pairs += [(0, draw(ends)), (n - 1, draw(ends))]
    edges = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j and lonely not in (i, j)})
    return n, edges


@given(probed_graphs(), st.sampled_from([substrate._KEY_BLOCK, 1, 2, 7]))
@settings(max_examples=150, deadline=None)
def test_has_edges_matches_a_set_of_edges(graph, block):
    n, edges = graph
    g = graph_from_pairs(n, edges)
    # every ordered pair: the edges both ways, absent pairs and self pairs
    a, b = np.divmod(np.arange(n * n, dtype=np.int64), n)
    with mock.patch.object(substrate, "_KEY_BLOCK", block):
        got = g.has_edges(a, b)
    linked = set(edges) | {(j, i) for i, j in edges}
    assert got.tolist() == [(i, j) in linked for i, j in zip(a.tolist(), b.tolist())]


def test_has_edges_with_no_edges_and_no_probes():
    g = graph_from_pairs(3, [])
    assert g.has_edges(np.array([0, 2, 1]), np.array([2, 0, 1])).tolist() == [False] * 3
    assert g.has_edges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).size == 0


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_edge_pairs_round_trip(n, data):
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True,
                                max_size=len(all_pairs)))
    g = graph_from_pairs(n, chosen)
    assert g.edge_count == len(chosen)
    src, dst = edge_arrays(g)
    assert {(int(a), int(b)) for a, b in zip(src, dst)} == set(chosen)
    validate_substrate(g)


# ---------------------------------------------------------------------------
# BFS shell sizes
# ---------------------------------------------------------------------------

def test_bfs_rings_path(path4):
    rings = bfs_rings(path4, 0)
    assert rings.dtype == np.int64 and rings.tolist() == [1, 1, 1, 1]
    assert bfs_rings(path4, 1).tolist() == [1, 2, 1]


def test_bfs_rings_star(star5):
    rings = bfs_rings(star5, 0)
    assert rings.tolist() == [1, 4]
    assert bfs_rings(star5, 1).tolist() == [1, 1, 3]


def test_bfs_rings_disconnected():
    g = graph_from_pairs(4, [(0, 1), (2, 3)])
    rings = bfs_rings(g, 0)
    assert rings.tolist() == [1, 1]


def test_bfs_rings_bad_origin(triangle):
    with pytest.raises(ParameterError):
        bfs_rings(triangle, 7)


@pytest.mark.parametrize("block", [1, 5, substrate._KEY_BLOCK])
@pytest.mark.parametrize("seed", range(4))
def test_bfs_rings_match_networkx_shells(seed, block, monkeypatch):
    nx = pytest.importorskip("networkx")
    # mean degree 1.5 leaves about a fifth of the nodes isolated
    g = generate_erdos_renyi(300, 1.5, seed)
    isolated = np.flatnonzero(g.degrees() == 0)
    assert isolated.size
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    G.add_edges_from(zip(*edge_arrays(g)))
    monkeypatch.setattr(substrate, "_KEY_BLOCK", block)
    hub = int(np.argmax(g.degrees()))
    for origin in (0, hub, int(isolated[0])):
        distances = nx.single_source_shortest_path_length(G, origin)
        want = np.bincount(list(distances.values()))
        assert bfs_rings(g, origin).tolist() == want.tolist()


@given(st.lists(st.tuples(st.integers(-5, 50), st.integers(0, 6)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_ranges_concatenate_aranges(spans):
    starts, counts = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    want = [np.arange(s, s + n) for s, n in spans]
    got = substrate._ranges(starts, counts)
    assert got.dtype == np.int64 and np.array_equal(got, np.concatenate([[], *want]))


@given(st.lists(st.integers(0, 20), max_size=30), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_blocks_tile_the_items_within_the_budget(costs, budget):
    slices = list(substrate._blocks(np.array(costs, dtype=np.int64), budget))
    bounds = [0] + [hi for _, hi in slices]
    assert [lo for lo, _ in slices] == bounds[:-1] and bounds[-1] == len(costs)
    for lo, hi in slices:
        assert lo < hi
        assert sum(costs[lo:hi]) <= budget or hi - lo == 1
        # the slice stops only where the next item would pass the budget
        assert hi == len(costs) or sum(costs[lo:hi + 1]) > budget


def test_blocks_memory_does_not_grow_with_total_over_budget():
    # 16 items of 2^17 each: at budget 1 a list of every cut would hold 2^21 of them
    costs = np.full(16, 1 << 17, dtype=np.int64)
    slices = []
    peak = traced_peak(lambda: slices.extend(substrate._blocks(costs, 1)))
    assert slices == [(i, i + 1) for i in range(16)]
    assert peak < 10_000


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ws_200k():
    g = generate_watts_strogatz(200_000, 8, 0.1, seed=1)
    return g, g.indptr.nbytes + g.indices.nbytes


def test_bfs_rings_memory_is_one_block_per_shell(ws_200k):
    # The largest shell's 68,862 nodes have about 550k entries, 4.2 MiB as
    # int64, so a shell gathered whole, with its index arrays, passes the bound.
    g, graph_bytes = ws_200k
    assert traced_peak(lambda: bfs_rings(g, 0)) < 0.75 * graph_bytes


def test_has_edges_memory_does_not_grow_with_the_graph(ws_200k):
    # the same 50k probes, half of them edges of the small graph: a key per
    # adjacency entry would take 1.2 MiB at n=20k and 12.2 MiB at n=200k
    small = generate_watts_strogatz(20_000, 8, 0.1, seed=1)
    rng = np.random.default_rng(3)
    a = rng.integers(20_000, size=50_000)
    picks = small.indptr[a] + rng.integers(0, small.degrees()[a])
    b = np.where(np.arange(a.size) % 2 == 0, small.indices[picks], rng.integers(20_000, size=a.size))
    found = {}
    peaks = [traced_peak(lambda: found.setdefault(g.node_count, g.has_edges(a, b)))
             for g in (small, ws_200k[0])]
    assert found[20_000][::2].all()
    assert abs(peaks[0] - peaks[1]) < 2 ** 20


def test_write_edge_list_memory_is_one_block(ws_200k, tmp_path):
    # The 800k edges take 6.1 MiB as int32 pairs, so a copy of them all and
    # its stacked table pass the bound.
    g, graph_bytes = ws_200k
    path = tmp_path / "g.edges"
    assert traced_peak(lambda: g.write_edge_list(path)) < graph_bytes
    back = SubstrateGraph.read_edge_list(path)
    assert np.array_equal(back.indptr, g.indptr) and np.array_equal(back.indices, g.indices)


@pytest.mark.parametrize("bad, message", [
    (b'foo', "invalid literal for int() with base 10: 'foo'"),
    (b'0\t1\t2', 'expected 2 fields, got 3'),
    (b'0\t1#x', "invalid literal for int() with base 10: '1#x'"),
    (b'0\t\xc3\xa9', "invalid literal for int() with base 10: '\\udcc3\\udca9'"),
    (b'0\t99999999999999999999', 'integer 99999999999999999999 out of range'),
], ids=['foo', 'three_columns', 'inline_hash', 'non_ascii', 'overflow'])
def test_read_edge_list_names_bad_line(tmp_path, triangle, bad, message):
    path = tmp_path / "g.edges"
    triangle.write_edge_list(path)
    lines = path.read_bytes().split(b"\n")
    lines.insert(1, b"")                  # blank lines still count
    lines[2] = bad
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ContractError) as err:
        SubstrateGraph.read_edge_list(path)
    assert str(err.value) == f"{path}:3: {message}"
