import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagwalk
from naive_reference import neighbors_of
from tagwalk import observables, pipeline
from tagwalk.cli import build_parser, main
from tagwalk.cooc import CoocGraph
from tagwalk.errors import ConfigError
from tagwalk.formats import read_csv, sha256_of
from tagwalk.ingest import DEFAULT_TS_MIN
from tagwalk.pipeline import (ExperimentConfig, IngestConfig, compare,
                              load_config)
from tagwalk.substrate import RegularTree, SubstrateGraph
from tagwalk.walker import PowerLawLength, WalkEnsemble

BASE = {
    "seed": 5,
    "graph": {"type": "watts_strogatz", "n": 60, "k": 4, "p_rewire": 0.1},
    "walk": {"origin": 0, "n_rw": 200,
             "lengths": {"type": "power_law", "exponent": 3.0,
                         "l_min": 1, "l_max": 20}},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def tree_hash(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_load_config_kinds(tmp_path):
    assert isinstance(load_config(write_config(tmp_path)), ExperimentConfig)
    ing = tmp_path / "ing.json"
    ing.write_text(json.dumps({"seed": 1, "ingest": {
        "input": "x.jsonl", "focus_tag": "t"}}))
    assert isinstance(load_config(ing), IngestConfig)


def test_defaults_fill_in(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"seed": 2, "graph": BASE["graph"],
                                "walk": {"n_rw": 10}}))
    cfg = load_config(path)
    assert cfg.walk.origin == 0
    assert cfg.walk.count_origin and not cfg.walk.non_backtracking
    assert cfg.walk.lengths == PowerLawLength(3.0, 1, 1000)
    assert cfg.observables.similarity_pair_budget == 10 ** 6


# Values of the right shape that the config schema rejects, each with the
# message that ends the command at load.
def bad_value(number, mutate, message):
    """BAD_VALUES case ``number``: its test ids come from its number, not its place."""
    return pytest.param(mutate, message, id=f"mutate{number}-{message}")


def removed_section(number, mutate, old_message):
    """A case that sets a key of the removed ``fits`` or ``theory`` section.

    It keeps the id it had while the section was read, from the message the
    schema gave then, and now stops at load as an unknown key of the config.
    """
    [section] = mutate
    return pytest.param(mutate, f"unknown key(s) in config: {section}",
                        id=f"mutate{number}-{old_message}")


def shape_id(case):
    """The id of a BAD_VALUES case in the shape test, after the 15 shape-only cases."""
    return f"mutate{15 + int(case.id.removeprefix('mutate').split('-', 1)[0])}"


BAD_VALUES = [
    # the analysis is fixed, so a config that names its old sections stops at load,
    # whatever value it gives them
    removed_section(0, {"theory": {"rings": {"type": "power_law", "a": "x"}}},
                    "theory.rings.a must be a number"),
    removed_section(1, {"theory": {"rings": {"type": "exponential"}}},
                    "missing required key 'theory.rings.z'"),
    removed_section(2, {"theory": {"rings": {"type": "exponential", "z": "2"}}},
                    "theory.rings.z must be a number"),
    removed_section(3, {"theory": {"rings": {"type": "power_law", "a": 10 ** 400}}},
                    "theory.rings.a must be a finite number"),
    removed_section(4, {"theory": {"n_grid": {"min": "a", "max": 10, "points": 5}}},
                    "theory.n_grid.min must be a number"),
    removed_section(5, {"theory": {"n_grid": {"min": 1, "max": 10, "points": -3}}},
                    "theory.n_grid.points must be >= 1"),
    removed_section(6, {"theory": {"n_grid": {"min": 1, "max": 10, "points": 5.5}}},
                    "theory.n_grid.points must be an integer"),
    removed_section(7, {"theory": {"n_grid": {"min": 0, "max": 10, "points": 5}}},
                    "theory.n_grid.min must be > 0"),
    removed_section(8, {"theory": 3}, "theory must be an object"),
    bad_value(9, {"observables": [1]}, "observables must be an object"),
    bad_value(10, {"walk": {"n_rw": 10, "lengths": 3}}, "walk.lengths must be an object"),
    removed_section(11, {"fits": "x"}, "fits must be an object"),
    removed_section(12, {"fits": {"zipf_max_rank": 0}}, "fits.zipf_max_rank must be >= 1"),
    removed_section(13, {"fits": {"heaps_min": 0}}, "fits.heaps_min must be > 0"),
    removed_section(14, {"fits": {"heaps_min": float("nan")}},
                    "fits.heaps_min must be a finite number"),
    removed_section(15, {"fits": {"tail_decades": 0}}, "fits.tail_decades must be in (0, 308]"),
    removed_section(16, {"fits": {"tail_decades": 400}},
                    "fits.tail_decades must be in (0, 308]"),
    bad_value(17, {"observables": {"similarity_pair_budget": 0}},
              "observables.similarity_pair_budget must be >= 1"),
    bad_value(18, {"graph": {"type": "watts_strogatz", "n": 60, "k": 3, "p_rewire": 0.1}},
              "graph.k must be even"),
    bad_value(19, {"walk": {"n_rw": 10, "origin": -1}}, "walk.origin must be >= 0"),
    bad_value(20, {"walk": {"n_rw": 10, "origin": 100}},
              "walk.origin must be < 60, the graph's node count"),
    bad_value(21, {"walk": {"n_rw": 10, "origin": 60}},
              "walk.origin must be < 60, the graph's node count"),
    bad_value(22, {"graph": {"type": "regular_tree", "z": 10, "depth": 40}},
              "graph: node count must be below 2**31"),
    bad_value(23, {"graph": {"type": "regular_tree", "z": 1, "depth": 2 ** 30}},
              "graph: node count must be below 2**31"),
    bad_value(24, {"graph": {"type": "regular_tree", "z": 3, "depth": 10 ** 18}},
              "graph: node count must be below 2**31"),
    bad_value(25, {"graph": {"type": "erdos_renyi", "n": 2 ** 31, "mean_degree": 1}},
              "graph: node count must be below 2**31"),
    removed_section(26, {"theory": {"n_grid": {"min": 1, "max": 10, "points": 10 ** 12}}},
                    "theory.n_grid.points must be <= 10000"),
    # every observable is written, so none of them has an on/off key
    *(bad_value(27 + i, {"observables": {key: False}}, f"unknown key(s) in observables: {key}")
      for i, key in enumerate(["distributions", "s_of_k", "knn", "weight_vs_product",
                               "similarity", "frequency_rank"])),
    removed_section(33, {"theory": {"ring_prediction": True}},
                    "unknown key(s) in theory: ring_prediction"),
    # the old sections' default values stop at load too
    bad_value(34, {"fits": {"heaps_min": 100.0}}, "unknown key(s) in config: fits"),
    bad_value(35, {"theory": {"rings": "bfs"}}, "unknown key(s) in config: theory"),
    bad_value(36, {"walk": {"n_rw": 10, "lengths": {"type": "power_law", "exponent": 10 ** 400}}},
              "walk.lengths.exponent must be a finite number"),
    bad_value(37, {"graph": {"type": "watts_strogatz", "n": 60, "k": 4}},
              "missing required key 'graph.p_rewire'"),
    bad_value(38, {"graph": {"type": "regular_tree", "z": 0, "depth": 2}}, "graph.z must be >= 1"),
    bad_value(39, {"graph": {"type": "regular_tree", "z": 2, "depth": -1}},
              "graph.depth must be >= 0"),
    bad_value(40, {"graph": {"type": "erdos_renyi", "n": 0, "mean_degree": 1}},
              "graph.n must be >= 1"),
]


@pytest.mark.parametrize("mutate", [
    {"bogus": 1},
    {"graph": {"type": "watts_strogatz", "n": 60, "k": 4, "p_rewire": 0.1,
               "extra": 0}},
    {"walk": {"n_rw": 10, "surprise": True}},
    {"observables": {"similarty": True}},
    {"walk": {"n_rw": 10, "lengths": "power_law"}},
    {"graph": {"n": 60, "k": 4, "p_rewire": 0.1}},
    {"walk": {"origin": 0}},
    {"observables": {"clustering": 1}},
    {"format_version": 2},
    {"seed": "five"},
    {"seed": True},
    {"graph": {"type": "watts_strogatz", "n": 60.5, "k": 4, "p_rewire": 0.1}},
    {"walk": {"n_rw": 10, "count_origin": 1}},
    {"walk": {"n_rw": 10, "lengths": {"type": "gaussian"}}},
    {"graph": {"type": "hypercube", "n": 8}},
    *[pytest.param(case.values[0], id=shape_id(case)) for case in BAD_VALUES],
])
def test_config_rejects_bad_shapes(tmp_path, mutate):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, **mutate))


@pytest.mark.parametrize("mutate, message", BAD_VALUES)
def test_bad_config_value_exits_1_at_load(tmp_path, capsys, mutate, message):
    cfg = write_config(tmp_path, **mutate)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"tagwalk: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"seed": 1, "\xff": 2}', b"[" * 100_000,
                                     b'{"seed": ' + b"9" * 5000 + b"}"],
                         ids=["non_utf8", "deep_nesting", "huge_integer"])
def test_unparsable_config_exits_1(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"tagwalk: error: config {path} is not ")


def valid_config(draw, kind):
    """A valid config of ``kind``, each optional key present or left to its default."""
    def some(section):
        return {k: v for k, v in section.items() if draw(st.booleans())}
    count = st.integers(0, 10 ** 6)
    number = st.one_of(st.integers(1, 10 ** 6), st.floats(1e-3, 1e6))
    cfg = {"seed": draw(st.integers(0, 2 ** 64 - 1)),
           "observables": some({"clustering": draw(st.booleans()),
                                "similarity_pair_budget": draw(st.integers(1, 10 ** 7))}),
           "format_version": 1}
    if kind == "ingest":
        ts_min = draw(st.integers(-2 ** 70, 2 ** 70))
        cfg["ingest"] = {"input": draw(st.text()), "focus_tag": draw(st.text()),
                         **some({"ts_min": ts_min,
                                 "ts_max": draw(st.none() | st.integers(
                                     max(ts_min, DEFAULT_TS_MIN), 2 ** 70))})}
        return some(cfg) | {"seed": cfg["seed"], "ingest": cfg["ingest"]}
    n = draw(st.integers(3, 10 ** 6))
    cfg["graph"] = draw(st.sampled_from([
        {"type": "watts_strogatz", "n": n, "k": 2 * draw(st.integers(1, (n - 1) // 2)),
         "p_rewire": draw(st.floats(0, 1))},
        {"type": "regular_tree", "z": draw(st.integers(1, 5)), "depth": draw(st.integers(0, 9))},
        {"type": "erdos_renyi", "n": n, "mean_degree": draw(st.integers(0, n - 1))}]))
    g = cfg["graph"]
    nodes = g["n"] if "n" in g else RegularTree(g["z"], g["depth"]).node_count
    l_min = draw(st.integers(1, 100))
    cfg["walk"] = {"n_rw": draw(count), **some({
        "origin": draw(st.integers(0, nodes - 1)), "count_origin": draw(st.booleans()),
        "non_backtracking": draw(st.booleans()),
        "lengths": draw(st.sampled_from([
            {"type": "fixed", "value": draw(count)},
            {"type": "power_law", **some({"exponent": draw(number), "l_min": l_min,
                                          "l_max": draw(st.integers(l_min, 10 ** 4))})}]))})}
    cfg["emit_traces"] = draw(st.booleans())
    return some(cfg) | {"seed": cfg["seed"], "graph": cfg["graph"], "walk": cfg["walk"]}


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["run", "ingest"]))
def test_resolved_config_reloads_to_itself(tmp_path_factory, data, kind):
    path = tmp_path_factory.mktemp("config") / "cfg.json"
    path.write_text(json.dumps(valid_config(data.draw, kind)))
    resolved = load_config(path).resolved()
    path.write_text(json.dumps(resolved))
    assert load_config(path).resolved() == resolved


def test_config_requires_seed_unless_overridden(tmp_path):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"graph": BASE["graph"], "walk": {"n_rw": 5}}))
    with pytest.raises(ConfigError):
        load_config(path)
    cfg = load_config(path, seed_override=9)
    assert cfg.seed == 9 and cfg.walk.seed == 9


def test_ingest_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "ingest": {
        "input": "x", "focus_tag": "t", "ts_max": True}}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps({"seed": 1, "ingest": {"focus_tag": "t"}}))
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text(json.dumps({"seed": 1, "ingest": {
        "input": "x", "focus_tag": "t", "ts_min": 10, "ts_max": 5}}))
    with pytest.raises(ConfigError, match="ingest: validity window is empty"):
        load_config(bad)


@pytest.mark.parametrize("content", ["{", "[1]", ""])
def test_config_must_be_a_json_object(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_text(content)
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(tmp_path):
    for argv in ([], ["frobnicate"], ["run", "--config"],
                 ["run", "--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1


def test_config_errors_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, bogus=1)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--config", str(tmp_path / "ghost.json"),
                 "--out", str(out)]) == 1


def test_wrong_config_kind_exits_1(tmp_path):
    exp = write_config(tmp_path)
    assert main(["ingest", "--config", str(exp), "--out",
                 str(tmp_path / "a")]) == 1
    ing = tmp_path / "ing.json"
    ing.write_text(json.dumps({"seed": 1, "ingest": {
        "input": "x.jsonl", "focus_tag": "t"}}))
    assert main(["run", "--config", str(ing), "--out", str(tmp_path / "b")]) == 1


def test_missing_prerequisites_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["cooc", "--config", str(cfg), "--out", str(out)]) == 2
    assert "walk stage" in capsys.readouterr().err
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2


@pytest.mark.parametrize("token, message", [
    ("60", "node id 60 outside [0, 60)"),
    ("-1", "node id -1 outside [0, 60)"),
    ("7x", "invalid literal for int() with base 10: '7x'"),
    ("\udcc3\udca9", r"invalid literal for int() with base 10: '\udcc3\udca9'"),
], ids=["id_past_node_count", "negative_id", "non_integer", "non_ascii"])
def test_cooc_rejects_bad_trace_token(tmp_path, capsys, token, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    traces = out / "traces.txt"
    lines = traces.read_text().splitlines()
    lines.insert(1, "")                   # blank lines still count
    lines[3] += f" {token}"
    traces.write_bytes(("\n".join(lines) + "\n").encode("ascii", "surrogateescape"))
    capsys.readouterr()
    assert main(["cooc", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {traces}:4: {message}\n"
    assert not (out / "cooc.edges").exists()


@pytest.mark.parametrize("name, bad, message", [
    ("substrate.edges", b"foo", "invalid literal for int() with base 10: 'foo'"),
    ("substrate.edges", b"0\t1\t2", "expected 2 fields, got 3"),
    ("substrate.edges", b"0\t1#x", "invalid literal for int() with base 10: '1#x'"),
    ("substrate.edges", b"0\t\xc3\xa9",
     r"invalid literal for int() with base 10: '\udcc3\udca9'"),
    ("cooc.edges", b"0\t1", "expected 3 fields, got 2"),
], ids=["foo", "three_columns", "inline_hash", "non_ascii", "cooc_two_columns"])
def test_malformed_edge_list_line_exits_2(tmp_path, capsys, name, bad, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    path = out / name
    lines = path.read_bytes().split(b"\n")
    lines.insert(1, b"")                  # blank lines still count
    lines[3] = bad
    path.write_bytes(b"\n".join(lines))
    stage = "cooc" if name == "substrate.edges" else "stats"
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {path}:4: {message}\n"


def test_negative_cooc_node_id_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "cooc.edges"
    path.write_text("# nodes=3 edges=2 total_weight=2\n-5\t3\t1\n-5\t7\t1\n")
    capsys.readouterr()
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {path}: negative node id -5\n"


@pytest.mark.parametrize("body, message", [
    ("0\t1\t1\n0\t2\t0\n", "weights must be >= 1"),
    ("0\t1\t1\n2\t1\t1\n", "edges must satisfy src < dst"),
    ("0\t2\t1\n0\t1\t1\n", "edges must be sorted and unique"),
    ("0\t1\t1\n0\t1\t2\n", "edges must be sorted and unique"),
], ids=["zero_weight", "swapped_ends", "out_of_order", "repeated_row"])
def test_cooc_edges_that_break_the_edge_contract_exit_2(tmp_path, capsys, body, message):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "cooc.edges"
    path.write_text(body)
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {path}: {message}\n"


@pytest.mark.parametrize("field", ["edges", "total_weight"])
def test_cooc_edges_that_disagree_with_their_header_exit_2(tmp_path, capsys, field):
    # a file cut at a line end still parses; only the header's counts tell
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "cooc.edges"
    header, *lines = path.read_text().splitlines(keepends=True)
    declared = dict(f.split("=") for f in header[2:].split())
    if field == "edges":
        path.write_text(header + "".join(lines[:-1]))
        got = len(lines) - 1
    else:
        i, j, w = lines[-1].split()
        path.write_text(header + "".join(lines[:-1]) + f"{i}\t{j}\t{int(w) + 1}\n")
        got = int(declared["total_weight"]) + 1
    capsys.readouterr()
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"tagwalk: error: {path}: header declares "
                                       f"{field}={declared[field]}, the file holds {got}\n")


@pytest.mark.parametrize("edges", [
    "0\t2\t4000000000\n1\t2\t4000000000\n",        # w^2 wraps int64
    "# nodes=12\n" + "".join(f"0\t{j}\t900000000000000000\n" for j in range(1, 12)),
], ids=["squares_wrap", "strength_wraps"])
def test_cooc_edges_whose_strength_reaches_2_31_exit_2(tmp_path, capsys, edges):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "cooc.edges"
    path.write_text(edges)
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"tagwalk: error: {path}: a node strength, "
                                       f"the sum of its weights, reaches 2^31\n")


def test_cooc_edges_just_below_the_strength_bound_give_exact_results(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    # node 2's strength is 2^31 - 1; nodes 0 and 1 share their one neighbour
    (out / "cooc.edges").write_text(f"0\t2\t{2 ** 30}\n1\t2\t{2 ** 30 - 1}\n")
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 0
    obs_dir = out / "observables"
    assert (obs_dir / "strength_dist.csv").read_text() == (
        f"value,count\n{2 ** 30 - 1},1\n{2 ** 30},1\n{2 ** 31 - 1},1\n")
    assert (obs_dir / "weight_dist.csv").read_text() == (
        f"value,count\n{2 ** 30 - 1},1\n{2 ** 30},1\n")
    assert (obs_dir / "s_of_k.csv").read_text() == (
        f"k,mean_s,n\n1.0,{(2 ** 31 - 1) / 2},2\n2.0,{float(2 ** 31 - 1)},1\n")
    counts = [line.split(",")[2] for line in
              (obs_dir / "similarity_hist.csv").read_text().splitlines()[1:]]
    assert counts == ["2"] + ["0"] * 18 + ["1"]    # (0, 1) alike; (0, 2), (1, 2) disjoint


@pytest.mark.parametrize("stage", ["stats", "theory"])
@pytest.mark.parametrize("bad", ["12,abc", "12", "12,5,1", "-1,5", "1\udcc3,5"],
                         ids=["non_integer", "short_row", "long_row", "negative",
                              "non_ascii"])
def test_bad_heaps_row_exits_2(tmp_path, capsys, stage, bad):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for step in ("generate", "walk", "cooc"):
        assert main([step, "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "heaps.csv"
    lines = path.read_bytes().split(b"\n")
    lines.insert(1, b"")                  # blank lines still count
    lines[3] = bad.encode("ascii", "surrogateescape")
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {path}:4: expected two counts 'n_rw,n_distinct', "
        f"got {bad!r}\n")


def test_empty_heaps_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "heaps.csv").write_text("# nothing\n\n")
    capsys.readouterr()
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {out / 'heaps.csv'}: empty CSV\n"


@pytest.mark.parametrize("stage", ["walk", "theory", "stats"])
def test_origin_outside_external_substrate_exits_2(tmp_path, capsys, stage):
    # walk.origin 150 fits the configured 200 nodes, not the file's 100
    cfg = write_config(tmp_path, graph={"type": "watts_strogatz", "n": 200, "k": 4,
                                        "p_rewire": 0.1},
                       walk={**BASE["walk"], "origin": 150})
    out = tmp_path / "out"
    out.mkdir()
    path = out / "substrate.edges"
    path.write_text("# nodes=100\n" + "".join(f"{i}\t{i + 1}\n" for i in range(99)))
    if stage == "theory":
        (out / "heaps.csv").write_text("n_rw,n_distinct\n1,1\n")
    if stage == "stats":
        (out / "cooc.edges").write_text("150\t151\t1\n")
        (out / "traces.txt").write_text("150 151\n")
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main([stage, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {path}: walk.origin 150 is not one of its 100 nodes\n")
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("defect", ["wrong_first_node", "step_off_edge"])
def test_cooc_rejects_traces_off_the_substrate(tmp_path, capsys, defect):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    graph = SubstrateGraph.read_edge_list(out / "substrate.edges")
    traces = out / "traces.txt"
    lines = traces.read_text().splitlines()
    walk = [int(v) for v in lines[2].split()]
    if defect == "wrong_first_node":
        walk[0] = int(neighbors_of(graph, 0)[0])
        message = f"walk starts at node {walk[0]}, not at the origin 0"
    else:
        off = next(v for v in range(graph.node_count)
                   if v != walk[-1] and v not in neighbors_of(graph, walk[-1]))
        message = f"step {walk[-1]} -> {off} is not a substrate edge"
        walk.append(off)
    lines[2] = " ".join(map(str, walk))
    traces.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["cooc", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {traces}:3: {message}\n"


def staged_through_cooc(tmp_path, cfg):
    out = tmp_path / "out"
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_stats_reads_neither_substrate_edges_nor_a_built_graph(tmp_path, monkeypatch):
    # the same bytes from the substrate's nodes= header and from the config alone
    cfg = write_config(tmp_path, emit_traces=True)
    out = staged_through_cooc(tmp_path, cfg)
    bare = tmp_path / "bare"
    shutil.copytree(out, bare)
    (bare / "substrate.edges").unlink()

    def no_graph(*args):
        raise AssertionError("stats loaded or built the substrate graph")
    monkeypatch.setattr(pipeline, "build_graph", no_graph)
    monkeypatch.setattr(SubstrateGraph, "read_edge_list", no_graph)
    for directory in (out, bare):
        assert main(["stats", "--config", str(cfg), "--out", str(directory)]) == 0
    assert (bare / "observables" / "frequency_rank.csv").exists()
    (out / "substrate.edges").unlink()
    assert tree_hash(out) == tree_hash(bare)


@pytest.mark.parametrize("defect, substrate", [
    ("wrong_first_node", "file"),
    ("wrong_first_node", "config"),
    ("id_past_nodes", "file"),
    ("id_past_nodes", "config"),
])
def test_stats_rejects_traces_at_their_line(tmp_path, capsys, defect, substrate):
    out = staged_through_cooc(tmp_path, write_config(tmp_path))
    if substrate == "file":
        # the file's 60 nodes bound the ids, not the config's 200
        cfg = write_config(tmp_path, "big.json", graph={**BASE["graph"], "n": 200})
    else:
        cfg = write_config(tmp_path)
        (out / "substrate.edges").unlink()
    traces = out / "traces.txt"
    lines = traces.read_text().splitlines()
    walk = lines[2].split()
    if defect == "wrong_first_node":
        walk[0] = "1"
        message = "walk starts at node 1, not at the origin 0"
    else:
        walk.append("60")
        message = "node id 60 outside [0, 60)"
    lines[2] = " ".join(walk)
    traces.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {traces}:3: {message}\n"
    assert not (out / "fits.json").exists()


def test_a_step_off_the_substrate_passes_stats_and_fails_cooc(tmp_path, capsys):
    # cooc, whose projection is built from the steps, alone checks them
    cfg = write_config(tmp_path)
    out = staged_through_cooc(tmp_path, cfg)
    graph = SubstrateGraph.read_edge_list(out / "substrate.edges")
    traces = out / "traces.txt"
    lines = traces.read_text().splitlines()
    last = int(lines[2].split()[-1])
    off = next(v for v in range(graph.node_count)
               if v != last and v not in neighbors_of(graph, last))
    lines[2] += f" {off}"
    traces.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["cooc", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {traces}:3: step {last} -> {off} is not a substrate edge\n")


def test_missing_ingest_input_exits_2(tmp_path):
    ing = tmp_path / "ing.json"
    ing.write_text(json.dumps({"seed": 1, "ingest": {
        "input": str(tmp_path / "absent.jsonl"), "focus_tag": "t"}}))
    assert main(["ingest", "--config", str(ing), "--out",
                 str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# Synthetic runs
# ---------------------------------------------------------------------------

def test_run_produces_expected_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    for name in ("substrate.edges", "heaps.csv", "cooc.edges", "fits.json",
                 "manifest.json", "theory/prediction.csv",
                 "theory/comparison.csv", "observables/degree_dist.csv",
                 "observables/similarity_hist.csv",
                 "observables/frequency_rank.csv"):
        assert (out / name).exists(), name
    assert not (out / "traces.txt").exists()   # only emitted on request
    fits = json.loads((out / "fits.json").read_text())
    assert set(fits) >= {"heaps", "zipf", "zipf_heaps_product",
                         "similarity_mode", "weight_product_plateau",
                         "weight_product_tail"}


def test_rerun_and_threads_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert main(["run", "--config", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(outs[1])]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(outs[2]),
                 "--threads", "3"]) == 0
    hashes = {tree_hash(o) for o in outs}
    assert len(hashes) == 1


def sampled_similarity_count(out):
    _, rows = read_csv(out / "observables" / "similarity_hist.csv")
    return sum(int(row[2]) for row in rows)


@pytest.mark.parametrize("command", ["stats", "ingest"])
def test_stats_and_ingest_are_byte_identical_on_any_thread_count(tmp_path, monkeypatch,
                                                                   command):
    # cosine similarity takes its sampled path, the one that runs on threads
    monkeypatch.setattr(observables, "EXACT_COST_MULTIPLE", 0)
    budget = {"observables": {"similarity_pair_budget": 150_000}}   # three draws
    if command == "stats":
        cfg = write_config(tmp_path, emit_traces=True, **budget)
        staged = tmp_path / "staged"
        for stage in ("generate", "walk", "cooc"):
            assert main([stage, "--config", str(cfg), "--out", str(staged)]) == 0
    else:
        _, ingest_cfg, _ = make_log(tmp_path)
        cfg = tmp_path / "sampled.json"
        cfg.write_text(json.dumps(json.loads(ingest_cfg.read_text()) | budget))
    hashes = set()
    for number, threads in enumerate([["--threads", "1"], ["--threads", "3"], []]):
        out = tmp_path / f"out{number}"
        if command == "stats":
            shutil.copytree(staged, out)
        assert main([command, "--config", str(cfg), "--out", str(out), *threads]) == 0
        assert sampled_similarity_count(out) == 150_000
        hashes.add(tree_hash(out))
    assert len(hashes) == 1


def test_threads_default_to_the_usable_cpus(monkeypatch):
    argv = ["--config", "cfg.json", "--out", "out"]
    for command in ("run", "stats", "ingest"):
        args = build_parser().parse_args([command, *argv])
        assert args.threads == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)))
    assert build_parser().parse_args(["stats", *argv]).threads == 256
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert build_parser().parse_args(["stats", *argv]).threads == 5


@pytest.mark.parametrize("threads, bound", [("0", ">= 1"), ("-1", ">= 1"), ("257", "<= 256")])
@pytest.mark.parametrize("command", ["run", "stats", "ingest"])
def test_bad_thread_count_exits_1_before_any_output(tmp_path, capsys, command, threads,
                                                    bound):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(write_config(tmp_path)), "--out", str(out),
              "--threads", threads])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith(f"usage: tagwalk {command} ")
    assert message.endswith(f"argument --threads: must be {bound}, got {threads}\n")
    assert not out.exists()


def test_walk_takes_no_thread_count(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["walk", "--config", str(write_config(tmp_path)), "--out", str(out),
              "--threads", "2"])
    assert err.value.code == 1
    message = capsys.readouterr().err
    assert message.startswith("usage: tagwalk ")
    assert message.endswith("error: unrecognized arguments: --threads 2\n")
    assert not out.exists()


def test_non_integer_thread_count_exits_1_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["run", "--config", str(write_config(tmp_path)), "--out", str(out),
              "--threads", "abc"])
    assert err.value.code == 1
    assert capsys.readouterr().err.endswith(
        "argument --threads: invalid int value: 'abc'\n")
    assert not out.exists()


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b),
                 "--seed", "99"]) == 0
    man = json.loads((b / "manifest.json").read_text())
    assert man["config"]["seed"] == 99
    assert (a / "cooc.edges").read_bytes() != (b / "cooc.edges").read_bytes()


def test_an_unchanged_manifest_is_not_rewritten(tmp_path):
    cfg = write_config(tmp_path)
    out = staged_through_cooc(tmp_path, cfg)
    stats = ["stats", "--config", str(cfg), "--out", str(out)]
    assert main(stats) == 0
    manifest = out / "manifest.json"
    os.utime(manifest, ns=(10 ** 9, 10 ** 9))   # any rewrite would move it
    inode = manifest.stat().st_ino
    assert main(stats) == 0
    assert (manifest.stat().st_ino, manifest.stat().st_mtime_ns) == (inode, 10 ** 9)
    assert main(stats + ["--seed", "99"]) == 0
    assert manifest.stat().st_mtime_ns != 10 ** 9
    assert json.loads(manifest.read_text())["config"]["seed"] == 99


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_substrate_write_exits_2_without_a_manifest(tmp_path, capsys, threads):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    (out / "substrate.edges").mkdir(parents=True)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tagwalk: error: ") and str(out / "substrate.edges") in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def assert_staged_matches_run(tmp_path, cfg):
    mono, staged = tmp_path / "mono", tmp_path / "staged"
    assert main(["run", "--config", str(cfg), "--out", str(mono)]) == 0
    for stage in ("generate", "walk", "cooc", "stats", "theory"):
        assert main([stage, "--config", str(cfg), "--out", str(staged)]) == 0
    assert tree_hash(mono) == tree_hash(staged)


def test_staged_run_matches_monolithic(tmp_path):
    assert_staged_matches_run(tmp_path, write_config(tmp_path, emit_traces=True))


def test_staged_run_without_walks_matches_monolithic(tmp_path):
    # the walk stage writes an empty traces.txt, which cooc and stats read back
    cfg = write_config(tmp_path, emit_traces=True, walk={"n_rw": 0})
    assert_staged_matches_run(tmp_path, cfg)
    assert (tmp_path / "staged" / "traces.txt").read_bytes() == b""


def test_empty_ensemble_is_valid(tmp_path):
    cfg = write_config(tmp_path, walk={"n_rw": 0})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "heaps.csv")
    assert header == ["n_rw", "n_distinct"] and rows == []
    fits = json.loads((out / "fits.json").read_text())
    assert fits["heaps"] is None and fits["zipf_heaps_product"] is None
    header, rows = read_csv(out / "theory" / "comparison.csv")
    assert header == ["n_rw", "simulated", "predicted", "ratio"] and rows == []


def test_walk_into_empty_directory_writes_the_generated_substrate(tmp_path):
    cfg = write_config(tmp_path)
    gen, walk = tmp_path / "gen", tmp_path / "walk"
    assert main(["generate", "--config", str(cfg), "--out", str(gen)]) == 0
    assert main(["walk", "--config", str(cfg), "--out", str(walk)]) == 0
    assert (walk / "substrate.edges").read_bytes() == \
        (gen / "substrate.edges").read_bytes()
    assert (walk / "traces.txt").exists() and (walk / "heaps.csv").exists()


def test_stats_leaves_out_what_its_missing_inputs_feed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    for stage in ("generate", "walk", "cooc"):
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    (out / "traces.txt").unlink()
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "observables" / "frequency_rank.csv").exists()
    fits = json.loads((out / "fits.json").read_text())
    assert "zipf" not in fits and fits["zipf_heaps_product"] is None
    assert fits["heaps"]["points"] > 0

    (out / "heaps.csv").unlink()
    assert main(["stats", "--config", str(cfg), "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["heaps"] is None
    assert (out / "observables" / "degree_dist.csv").exists()


def count_calls(monkeypatch, owner, name, counts):
    """Count calls of ``owner.name``: a plain method, a class method or a cached property."""
    attr = owner.__dict__[name]
    cached = isinstance(attr, functools.cached_property)
    func = attr.func if cached else getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)
    if cached:
        counted = functools.cached_property(counted)
        counted.__set_name__(owner, name)
    elif isinstance(attr, classmethod):
        counted = staticmethod(counted)     # func is already bound to owner
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("staged", [False, True], ids=["run", "stats"])
def test_shared_arrays_are_built_once(tmp_path, monkeypatch, staged):
    # the (walk, node) dedup, the graph's one build and its degrees and strengths
    cfg = write_config(tmp_path, emit_traces=True)
    out = tmp_path / "out"
    if staged:
        for stage in ("generate", "walk", "cooc"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
    counts = dict.fromkeys(["walk_node_pairs", "from_edges", "_k_s"], 0)
    count_calls(monkeypatch, WalkEnsemble, "walk_node_pairs", counts)
    count_calls(monkeypatch, CoocGraph, "from_edges", counts)
    count_calls(monkeypatch, CoocGraph, "_k_s", counts)
    command = "stats" if staged else "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert counts == {"walk_node_pairs": 1, "from_edges": 1, "_k_s": 1}


def test_manifest_hash_matches_resolved_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    blob = json.dumps(man["config"], sort_keys=True, separators=(",", ":"))
    assert man["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()
    assert man["config"] == load_config(cfg).resolved()


def test_prediction_shifts_by_one_without_origin(tmp_path):
    base = {"seed": 5, "graph": {"type": "regular_tree", "z": 2, "depth": 6},
            "walk": {"n_rw": 1000, "lengths": {"type": "fixed", "value": 3}}}
    preds = {}
    for flag in (True, False):
        cfg = json.loads(json.dumps(base))
        cfg["walk"]["count_origin"] = flag
        path = tmp_path / f"cfg{flag}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{flag}"
        for stage in ("generate", "walk", "theory"):
            assert main([stage, "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "theory" / "prediction.csv")
        assert [int(r[0]) for r in rows] == list(range(1, 1001))
        preds[flag] = np.asarray([float(r[1]) for r in rows])
    assert preds[True] - preds[False] == pytest.approx(np.ones(1000), abs=1e-9)
    # shells 0..3 of the z=2 tree hold 22 nodes, which the walks saturate
    assert np.all(np.diff(preds[True]) >= 0) and np.all(preds[True] <= 22.0)
    assert preds[True][-1] == pytest.approx(22.0, abs=1e-6)


def test_prediction_without_origin_is_zero_before_any_walk(tmp_path):
    # an external heaps.csv may start at n_rw = 0, where the origin ring adds 0
    cfg = write_config(tmp_path, walk={**BASE["walk"], "count_origin": False})
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "heaps.csv").write_text("n_rw,n_distinct\n0,0\n1,1\n")
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "theory" / "prediction.csv")
    assert float(rows[0][1]) == 0.0 and float(rows[1][1]) > 0.0


def test_theory_without_heaps_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {out / 'heaps.csv'} not found; run the walk stage first\n")
    assert not (out / "theory").exists()


# ---------------------------------------------------------------------------
# Ingest runs
# ---------------------------------------------------------------------------

def make_log(tmp_path, n_posts=40):
    t0 = 1_000_000_000
    lines = []
    for i in range(n_posts):
        tags = ["walks", f"tag{i % 7}", f"tag{(i + 1) % 7}"]
        lines.append(json.dumps({"user": f"u{i % 3}", "resource": f"r{i}",
                                 "ts": t0 + i, "tags": tags}))
    lines.insert(3, "this is not json")
    lines.insert(10, json.dumps({"user": "u", "resource": "r",
                                 "ts": 100, "tags": ["old"]}))
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"seed": 4, "ingest": {
        "input": str(path), "focus_tag": "walks",
        "ts_min": t0, "ts_max": t0 + 10_000}}))
    return path, cfg, n_posts


def test_ingest_cli_artifacts(tmp_path):
    log, cfg, n_posts = make_log(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("corpus.jsonl", "rejects.csv", "heaps.csv", "cooc.edges",
                 "cooc_labels.tsv", "fits.json", "manifest.json",
                 "observables/frequency_rank.csv"):
        assert (out / name).exists(), name
    assert (out / "rejects.csv").read_text() == (
        "reason,count\nbad_timestamp,1\nmalformed,1\nno_tags,0\n")
    man = json.loads((out / "manifest.json").read_text())
    prov = man["provenance"]
    assert prov["accepted"] == n_posts
    assert prov["focus_posts"] == n_posts
    assert prov["lines"] == n_posts + 2
    assert prov["input_sha256"] == sha256_of(log)
    _, rows = read_csv(out / "heaps.csv")
    assert len(rows) == n_posts
    assert int(rows[-1][1]) == 7     # tag0..tag6 co-occur with the focus


def test_ingest_strict_aborts(tmp_path):
    _, cfg, _ = make_log(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out),
                 "--strict"]) == 2


@pytest.mark.parametrize("bad", [
    b"[" * 200_000,
    b'{"user": "u\xff"}',
    b'{"ts": ' + b"1" * 5000 + b"}",
    *(b'{"user": "u", "resource": "r", "ts": 1000000000, "tags": ["walks", "%s"]}' % tag
      for tag in (b"b\\ud800", b"c\\nd", b"c\\rd")),
], ids=["nesting_too_deep", "byte_0xff", "int_of_5000_digits", "tag_lone_surrogate",
        "tag_line_feed", "tag_carriage_return"])
def test_ingest_counts_an_unparsable_line_as_malformed(tmp_path, capsys, bad):
    post = json.dumps({"user": "u", "resource": "r", "ts": 1_000_000_000,
                       "tags": ["walks", "a"]}).encode("ascii")
    log = tmp_path / "log.jsonl"
    log.write_bytes(post + b"\n" + bad + b"\n" + post + b"\n")
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"seed": 4, "ingest": {
        "input": str(log), "focus_tag": "walks", "ts_max": 2_000_000_000}}))
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "rejects.csv").read_text() == (
        "reason,count\nbad_timestamp,0\nmalformed,1\nno_tags,0\n")
    assert json.loads((out / "manifest.json").read_text())["provenance"]["accepted"] == 2
    capsys.readouterr()
    assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "strict"),
                 "--strict"]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: malformed post at {log}:2\n"


POST = json.dumps({"user": "u", "resource": "r", "ts": 1_000_000_000,
                   "tags": ["walks", "a"]}).encode("ascii")


@pytest.mark.parametrize("content, lines, malformed", [
    (POST.replace(b", ", b",\r", 1) + b"\n" + POST + b"\n", 2, 0),
    (POST + b"\r\n" + POST + b"\r\n", 2, 0),
    (POST + b"\r" + POST + b"\r", 1, 1),
    (b"\xef\xbb\xbf" + POST + b"\n" + POST + b"\n", 2, 1),
    # JSON whitespace is space, tab, CR and LF; other Unicode whitespace is not
    (POST + b"\x0c\n" + POST + b"\n", 2, 1),
    ("\u00a0".encode() + POST + b"\n" + POST + b"\n", 2, 1),
    (POST + "\u2028".encode() + b"\n" + POST + b"\n", 2, 1),
    (b"\x1c" + POST + b"\n" + POST + b"\n", 2, 1),
], ids=["cr_between_fields", "crlf", "bare_cr_line_ends", "byte_order_mark",
        "form_feed_after", "nbsp_before", "line_separator_after", "file_separator_before"])
def test_ingest_lines_end_at_line_feeds(tmp_path, capsys, content, lines, malformed):
    log = tmp_path / "log.jsonl"
    log.write_bytes(content)
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"seed": 4, "ingest": {
        "input": str(log), "focus_tag": "walks", "ts_max": 2_000_000_000}}))
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    prov = json.loads((out / "manifest.json").read_text())["provenance"]
    assert (prov["lines"], prov["accepted"]) == (lines, lines - malformed)
    assert (out / "rejects.csv").read_text() == (
        f"reason,count\nbad_timestamp,0\nmalformed,{malformed}\nno_tags,0\n")
    capsys.readouterr()
    strict = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "strict"),
                   "--strict"])
    assert (strict, capsys.readouterr().err) == (
        (2, f"tagwalk: error: malformed post at {log}:1\n") if malformed else (0, ""))


@pytest.mark.parametrize("command", ["run", "walk"])
def test_out_of_memory_in_a_stage_exits_2(tmp_path, capsys, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(pipeline, "_walk", exhausted)
    cfg = write_config(tmp_path)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"tagwalk: error: out of memory in {command}\n"
    assert captured.out == ""


def test_ingest_open_window_ignores_the_clock(tmp_path, monkeypatch):
    log, _, n_posts = make_log(tmp_path)
    cfg = tmp_path / "open.json"
    cfg.write_text(json.dumps({"seed": 4, "ingest": {
        "input": str(log), "focus_tag": "walks", "ts_max": None}}))
    runs = []
    for now in (1_000_000_020, 2_000_000_000):   # inside, then after the posts
        monkeypatch.setattr(time, "time", lambda t=now: t)
        runs.append(tmp_path / f"out{now}")
        assert main(["ingest", "--config", str(cfg), "--out", str(runs[-1])]) == 0
    assert tree_hash(runs[0]) == tree_hash(runs[1])
    prov = json.loads((runs[0] / "manifest.json").read_text())["provenance"]
    assert prov["ts_max"] is None and prov["accepted"] == n_posts


def test_ingest_rerun_is_byte_identical(tmp_path):
    _, cfg, _ = make_log(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["ingest", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["ingest", "--config", str(cfg), "--out", str(b)]) == 0
    assert tree_hash(a) == tree_hash(b)


def test_ingest_is_byte_identical_across_hash_seeds(tmp_path):
    # set and dict order follow the string hash, which PYTHONHASHSEED picks
    spellings = ["walks", "Walks", "WALKS", "wALKS"]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps({
        "user": f"U{i % 7}", "resource": f"r{i % 23}", "ts": 1_000_000_000 + i % 31,
        "tags": [spellings[i % 4], spellings[(i + 1) % 4], f"Tag{i % 11}", f"TAG{i % 5}",
                 "\u039f\u0394\u039f\u03a3"[:i % 5]]})
        + "\n" for i in range(300)), encoding="utf-8")
    cfg = tmp_path / "ingest.json"
    cfg.write_text(json.dumps({"seed": 4, "ingest": {"input": str(log), "focus_tag": "walks"}}))
    src = str(Path(tagwalk.__file__).resolve().parents[1])
    trees = []
    for seed in ("0", "1"):
        trees.append(tmp_path / f"out{seed}")
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "tagwalk.cli", "ingest", "--config",
                               str(cfg), "--out", str(trees[-1]), "--threads", "1"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    assert tree_hash(trees[0]) == tree_hash(trees[1])


# ---------------------------------------------------------------------------
# Comparison reports
# ---------------------------------------------------------------------------

def test_compare_run_with_itself(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = tmp_path / "rep"
    assert main(["compare", str(out), str(out), "--out", str(rep)]) == 0
    summary = json.loads((rep / "summary.json").read_text())
    fits = json.loads((out / "fits.json").read_text())
    # null fits (too little data for that window) surface as warnings only
    assert summary["warnings"] == sorted(
        f"fit '{k}' unavailable on left" for k, v in fits.items() if v is None)
    assert set(summary["fits"]) == {k for k, v in fits.items() if v is not None}
    for entry in summary["fits"].values():
        assert entry["difference"] == 0.0
    header, rows = read_csv(rep / "heaps.csv")
    assert header == ["n_rw", "left_n_distinct", "right_n_distinct"]
    assert all(r[1] == r[2] for r in rows)


def test_compare_reports_missing_side(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "heaps.csv").write_bytes((out / "heaps.csv").read_bytes())
    rep = compare(out, bare, tmp_path / "rep")
    summary = json.loads((rep / "summary.json").read_text())
    assert any("missing on right" in w for w in summary["warnings"])
    assert any("unavailable on right" in w for w in summary["warnings"])
    assert summary["fits"] == {}


def test_compare_joins_every_column(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rep = compare(out, out, tmp_path / "rep")
    header, rows = read_csv(rep / "observables" / "clustering_of_k.csv")
    assert header == ["k", "left_c", "right_c", "left_c_w", "right_c_w",
                      "left_n", "right_n"]
    _, own = read_csv(out / "observables" / "clustering_of_k.csv")
    assert rows == [[r[0]] + [v for v in r[1:] for _ in "lr"] for r in own]


def test_compare_warns_on_one_sided_column(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    other = tmp_path / "other"
    (other / "observables").mkdir(parents=True)
    header, rows = read_csv(out / "observables" / "clustering_of_k.csv")
    (other / "observables" / "clustering_of_k.csv").write_text(
        "".join(",".join(r[:2] + r[3:]) + "\n" for r in [header] + rows))
    rep = compare(out, other, tmp_path / "rep")
    joined, _ = read_csv(rep / "observables" / "clustering_of_k.csv")
    assert joined == ["k", "left_c", "right_c", "left_n", "right_n"]
    summary = json.loads((rep / "summary.json").read_text())
    assert ("observables/clustering_of_k.csv: column(s) c_w missing on right"
            in summary["warnings"])


def test_compare_corrupt_fits_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "fits.json").write_text('{"heaps": ')
    capsys.readouterr()
    assert main(["compare", str(out), str(out), "--out",
                 str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tagwalk: error: {out / 'fits.json'}: ")


def test_compare_fits_that_are_no_object_exit_2(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "fits.json").write_text("[1, 2]")
    assert main(["compare", str(run), str(run), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {run / 'fits.json'}: expected a JSON object\n")


@pytest.mark.parametrize("side", ["missing", "file"])
def test_compare_side_that_is_no_directory_exits_2(tmp_path, capsys, side):
    run, other = tmp_path / "run", tmp_path / "other"
    run.mkdir()
    if side == "file":
        other.write_text("not an artifact directory\n")
    rep = tmp_path / "rep"
    assert main(["compare", str(run), str(other), "--out", str(rep)]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {other}: not a directory\n"
    assert not rep.exists()


@pytest.mark.parametrize("value", ['"x"', "true", "[1]", "NaN", '{"exponent": "x"}',
                                   '{"exponent": false}', '{"stderr": 0.1}'],
                         ids=["string", "bool", "list", "nan", "string_exponent",
                              "bool_exponent", "no_exponent"])
def test_compare_fits_of_no_usable_value_exit_2(tmp_path, capsys, value):
    run = tmp_path / "run"
    run.mkdir()
    (run / "fits.json").write_text(f'{{"heaps": null, "zipf": {value}}}')
    assert main(["compare", str(run), str(run), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: {run / 'fits.json'}: fit 'zipf' is neither null, a finite "
        f"number nor an object with such an exponent\n")


def test_compare_reads_null_numbers_and_exponents(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "fits.json").write_text(json.dumps({
        "a": None, "b": 2, "c": -1.5, "d": {"exponent": None}, "e": {"exponent": 3}}))
    summary = json.loads((compare(run, run, tmp_path / "rep") / "summary.json").read_text())
    assert summary["fits"] == {"b": {"left": 2, "right": 2, "difference": 0},
                               "c": {"left": -1.5, "right": -1.5, "difference": 0.0},
                               "e": {"left": 3, "right": 3, "difference": 0}}
    assert summary["warnings"] == ["fit 'a' unavailable on left", "fit 'd' unavailable on left"]


def test_compare_warns_on_csvs_that_share_no_column_or_no_x(tmp_path):
    left, right = tmp_path / "left", tmp_path / "right"
    for side, knn, s_of_k in [(left, "k,knn\n1,2.0\n", "k,mean_s,n\n1,2.0,3\n"),
                              (right, "k,knn_w\n1,2.0\n", "k,mean_s,n\n2,2.0,3\n")]:
        (side / "observables").mkdir(parents=True)
        (side / "observables" / "knn_of_k.csv").write_text(knn)
        (side / "observables" / "s_of_k.csv").write_text(s_of_k)
    rep = compare(left, right, tmp_path / "rep")
    assert json.loads((rep / "summary.json").read_text())["warnings"] == [
        "observables/knn_of_k.csv has no shared data columns",
        "observables/s_of_k.csv: no common x values"]
    assert read_csv(rep / "observables" / "s_of_k.csv") == (
        ["k", "left_mean_s", "right_mean_s", "left_n", "right_n"], [])


def test_read_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# written by hand\n\nk,n\n  \n1,2\n# a note\n3,4\n")
    assert read_csv(path) == (["k", "n"], [["1", "2"], ["3", "4"]])


@pytest.mark.parametrize("name, bad, message", [
    ("s_of_k.csv", b"1,2.0", ":3: expected 3 cells, got 2"),
    ("knn_of_k.csv", b"1,\xff,2.0,3", ":3: non-ASCII byte"),
    ("knn_of_k.csv", None, ": empty CSV"),
], ids=["short_row", "non_ascii", "empty"])
def test_compare_malformed_csv_exits_2(tmp_path, capsys, name, bad, message):
    cfg = write_config(tmp_path)
    out, right = tmp_path / "out", tmp_path / "right"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    shutil.copytree(out, right)
    path = right / "observables" / name
    lines = path.read_bytes().split(b"\n")
    lines[2] = bad
    path.write_bytes(b"" if bad is None else b"\n".join(lines))
    capsys.readouterr()
    assert main(["compare", str(out), str(right), "--out",
                 str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == f"tagwalk: error: {path}{message}\n"
