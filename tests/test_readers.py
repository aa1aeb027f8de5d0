"""Property tests for the three text readers: substrate.edges, traces.txt, cooc.edges.

Round trips check that whatever the writers produce reads back equal.
Hostile input (arbitrary bytes, truncated and mutated files) must end in
``ContractError`` or a successful read, never another exception or a warning.
"""

import contextlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_pairs
from naive_reference import build_from_traces
from tagwalk import formats
from tagwalk.cli import main
from tagwalk.cooc import CoocGraph
from tagwalk.errors import ContractError
from tagwalk.formats import read_int_rows, read_int_table
from tagwalk.substrate import SubstrateGraph, generate_watts_strogatz
from tagwalk.walker import PowerLawLength, WalkEnsemble, simulate_walks

FUZZ = settings(max_examples=150, deadline=None)

# The readers' own block size, or blocks of a few bytes, which cut lines,
# CRLF pairs and headers at every place.
blocks = st.sampled_from([formats.READ_BLOCK_BYTES]) | st.integers(1, 8)


@contextlib.contextmanager
def blocks_of(size: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "READ_BLOCK_BYTES", size)
        yield


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 20))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_pairs(n, chosen)


walk_lists = st.integers(0, 30).flatmap(lambda origin: st.lists(
    st.lists(st.integers(0, 40), max_size=8).map(lambda t: [origin] + t),
    min_size=1, max_size=12))


def ensemble_of(walks) -> WalkEnsemble:
    flat = np.asarray([v for w in walks for v in w], dtype=np.int32)
    offsets = np.concatenate([[0], np.cumsum([len(w) for w in walks])]).astype(np.int64)
    return WalkEnsemble(origin=walks[0][0], node_count=int(flat.max()) + 1,
                        offsets=offsets, nodes=flat)


# Every node of walk_lists, each pair of them one step apart
COMPLETE = graph_from_pairs(41, [(i, j) for i in range(41) for j in range(i + 1, 41)])


def without_repeats(walks):
    """The walks with each step that stays on its node left out, so that they walk COMPLETE."""
    return [[v for i, v in enumerate(w) if i == 0 or v != w[i - 1]] for w in walks]


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@given(graphs(), blocks)
@FUZZ
def test_substrate_round_trip(workdir, g, block):
    path = workdir / "substrate.edges"
    g.write_edge_list(path)
    with blocks_of(block):
        back = SubstrateGraph.read_edge_list(path)
    assert back.node_count == g.node_count
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


@given(walk_lists, blocks)
@FUZZ
def test_traces_round_trip(workdir, walks, block):
    ens = ensemble_of(without_repeats(walks))
    path = workdir / "traces.txt"
    ens.write_traces(path)
    with blocks_of(block):
        back = WalkEnsemble.read_traces(path, COMPLETE, ens.origin)
    assert (back.origin, back.node_count) == (ens.origin, COMPLETE.node_count)
    assert np.array_equal(back.offsets, ens.offsets)
    assert np.array_equal(back.nodes, ens.nodes)


def test_empty_ensemble_round_trip(workdir):
    g = generate_watts_strogatz(40, 4, 0.3, seed=3)
    ens = simulate_walks(g, 7, 0, PowerLawLength(2.0, 1, 15), seed=3)
    path = workdir / "no_walks.txt"
    ens.write_traces(path)
    assert path.read_bytes() == b""
    back = WalkEnsemble.read_traces(path, g, 7)
    assert (back.origin, back.node_count, back.walk_count) == (7, 40, 0)
    assert np.array_equal(back.offsets, ens.offsets)
    assert np.array_equal(back.nodes, ens.nodes) and back.nodes.dtype == np.int32
    assert back.walk_node_pairs()[1].size == 0
    for origin in (40, -1):
        with pytest.raises(ContractError, match=r"no origin in \[0, 40\) given"):
            WalkEnsemble.read_traces(path, g, origin)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 39))
@settings(max_examples=30, deadline=None)
def test_simulated_traces_pass_the_substrate_checks(workdir, seed, origin):
    g = generate_watts_strogatz(40, 4, 0.3, seed=seed % 1000)
    ens = simulate_walks(g, origin, 30, PowerLawLength(2.0, 1, 15), seed=seed)
    path = workdir / "walked.txt"
    ens.write_traces(path)
    back = WalkEnsemble.read_traces(path, g, origin)
    assert np.array_equal(back.offsets, ens.offsets)
    assert np.array_equal(back.nodes, ens.nodes)


@given(walk_lists, blocks)
@FUZZ
def test_cooc_round_trip(workdir, walks, block):
    g = build_from_traces(walks)
    path = workdir / "cooc.edges"
    g.write_edge_list(path)
    with blocks_of(block):
        back = CoocGraph.read_edge_list(path)
    endpoints = np.unique(np.concatenate([g.src, g.dst]))
    assert np.array_equal(back.node_ids, endpoints)
    for name in ("src", "dst", "weights"):
        assert np.array_equal(getattr(back, name), getattr(g, name))


# ---------------------------------------------------------------------------
# Hostile input
# ---------------------------------------------------------------------------

READERS = {
    "substrate": SubstrateGraph.read_edge_list,
    "traces": lambda path: WalkEnsemble.read_traces(path, COMPLETE, 0),
    "cooc": CoocGraph.read_edge_list,
}


def read_or_contract_error(reader, path):
    """Run ``reader``; any outcome other than success or ContractError fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reader(path)
        except ContractError:
            pass


@pytest.mark.parametrize("kind", sorted(READERS))
@given(data=st.binary(max_size=200))
@FUZZ
def test_arbitrary_bytes(workdir, kind, data):
    path = workdir / f"garbage.{kind}"
    path.write_bytes(data)
    read_or_contract_error(READERS[kind], path)


def valid_bytes(kind, walks, workdir) -> bytes:
    path = workdir / f"valid.{kind}"
    if kind == "substrate":
        generate_watts_strogatz(12, 4, 0.2, seed=len(walks)).write_edge_list(path)
    elif kind == "traces":     # walks from node 0 on COMPLETE, which READERS reads them with
        ensemble_of(without_repeats([[0, *w[1:]] for w in walks])).write_traces(path)
    else:
        build_from_traces(walks).write_edge_list(path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", sorted(READERS))
@given(walks=walk_lists, data=st.data(), block=blocks)
@FUZZ
def test_truncated_and_mutated_files(workdir, kind, walks, data, block):
    good = valid_bytes(kind, walks, workdir)
    cut = data.draw(st.integers(0, len(good)))
    spot = data.draw(st.integers(0, cut))
    extra = data.draw(st.sampled_from([b"", b"x", b"\xe9", b"#", b"-", b"\t", b" ",
                                       b"\n", b"\r\n", b"99999999999999999999"]))
    path = workdir / f"mutated.{kind}"
    path.write_bytes(good[:spot] + extra + good[spot:cut])
    with blocks_of(block):
        read_or_contract_error(READERS[kind], path)


# ---------------------------------------------------------------------------
# The vectorised row reader against a line-by-line statement of its format
# ---------------------------------------------------------------------------

def reference_rows(data: bytes):
    """``(headers, rows)`` of an integer-row file, or the number of its first bad line."""
    headers, rows = [], []
    for number, line in enumerate(data.split(b"\n"), start=1):
        if line.startswith(b"#"):
            if not line.isascii():
                return number
            headers.append(line.decode("ascii").rstrip("\r"))
            continue
        fields = [f for f in re.split(rb"[ \t\r]", line) if f]
        if not all(re.fullmatch(rb"[+-]?[0-9]+", f) and abs(int(f)) < 10 ** 18
                   for f in fields):
            return number
        if fields:
            rows.append((number, [int(f) for f in fields]))
    return headers, rows


pieces = st.sampled_from([b"0", b"7", b"12", b"-3", b"+", b"-", b" ", b"\t", b"\r",
                          b"\n", b"\n", b"#", b"x", b"\xe9", b"99999999999999999999"])


@given(st.lists(pieces, max_size=40).map(b"".join), blocks)
@settings(max_examples=400, deadline=None)
def test_row_reader_matches_line_by_line_reference(workdir, data, block):
    with blocks_of(block):
        assert_rows_match_reference(workdir / "rows.txt", data)


@pytest.mark.parametrize("data", [
    b"",
    b"# nodes=3\n0 1\n# second header\n1 2\n",
    b"1\t2\r\n3 4\r\n\r\n-5 +6\r\n",
    b"# h\r\n7 8\n9",
    b"# last line is a header",
    b"1 2\n3 x\n4 5\n",
    b"1 2\n# \xe9\n",
], ids=["empty", "headers", "crlf", "no_final_newline", "header_only", "bad_field",
        "non_ascii_header"])
def test_row_reader_at_every_block_size(workdir, data):
    for block in range(1, len(data) + 2):
        with blocks_of(block):
            assert_rows_match_reference(workdir / "cut.txt", data)


def assert_rows_match_reference(path, data: bytes):
    path.write_bytes(data)
    expected = reference_rows(data)
    if isinstance(expected, int):
        with pytest.raises(ContractError, match=rf"^{re.escape(str(path))}:{expected}: "):
            read_int_rows(path)
        return
    headers, values, counts, lines = read_int_rows(path)
    assert headers == expected[0]
    assert lines.tolist() == [number for number, _ in expected[1]]
    assert counts.tolist() == [len(row) for _, row in expected[1]]
    assert values.tolist() == [v for _, row in expected[1] for v in row]


def test_a_later_malformed_line_outranks_an_earlier_short_row(workdir):
    path = workdir / "precedence.edges"
    path.write_bytes(b"0\t1\n2\n" + b"3\t4\n" * 10 + b"5\tx\n")
    for block in (4, formats.READ_BLOCK_BYTES):
        with blocks_of(block), pytest.raises(ContractError) as err:
            read_int_table(path, 2)
        assert str(err.value) == f"{path}:13: invalid literal for int() with base 10: 'x'"


# ---------------------------------------------------------------------------
# Memory: the output plus one block
# ---------------------------------------------------------------------------

def traced_peak(read):
    tracemalloc.start()
    try:
        return read(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_reader_peak_is_twice_its_output_plus_one_block(workdir):
    path = workdir / "big.edges"
    table = np.random.default_rng(2).integers(0, 10 ** 6, size=(400_000, 2))
    with open(path, "wb") as fh:
        fh.write(b"# nodes=1000000\n")
        formats.write_int_rows(fh, table, b"\t\n")
    assert path.stat().st_size >= 20 * formats.READ_BLOCK_BYTES
    (headers, back), peak = traced_peak(lambda: read_int_table(path, 2))
    assert headers == ["# nodes=1000000"] and np.array_equal(back, table)
    assert peak <= 2 * back.nbytes + formats.READ_BLOCK_BYTES


@pytest.fixture(scope="module")
def staged_artifacts(tmp_path_factory):
    """The substrate, traces and cooc.edges of the benchmark's staged input 1000."""
    work = tmp_path_factory.mktemp("staged")
    config = work / "config.json"
    config.write_text(json.dumps({
        "seed": 1000,
        "graph": {"type": "watts_strogatz", "n": 100_000, "k": 8, "p_rewire": 0.1},
        "walk": {"origin": 0, "n_rw": 80_000,
                 "lengths": {"type": "power_law", "exponent": 2.5,
                             "l_min": 1, "l_max": 100}},
        "observables": {"clustering": False}}))
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(config), "--out", str(work)]) == 0
    return work


@pytest.mark.parametrize("read, name, limit_mib", [
    (SubstrateGraph.read_edge_list, "substrate.edges", 20),
    (CoocGraph.read_edge_list, "cooc.edges", 12),
], ids=["substrate", "cooc"])
def test_graph_reader_peaks_on_the_staged_benchmark_input(staged_artifacts, read, name,
                                                          limit_mib):
    # 400k substrate edges (a 3.8 MiB graph) and 140k cooc edges (3.3 MiB)
    _, peak = traced_peak(lambda: read(staged_artifacts / name))
    assert peak <= limit_mib * 2 ** 20
