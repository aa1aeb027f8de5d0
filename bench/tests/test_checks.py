import json

import pytest

from tagwalk.cli import main

import checks
import workloads


@pytest.fixture
def run_dir(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 2,
        "graph": {"type": "watts_strogatz", "n": 400, "k": 6, "p_rewire": 0.1},
        "walk": {"n_rw": 600,
                 "lengths": {"type": "power_law", "exponent": 2.5,
                             "l_min": 1, "l_max": 50}}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


def test_intact_run_passes(run_dir):
    assert checks.check_outputs(run_dir, None) == []


def test_corrupted_cooc_weight_is_flagged(run_dir):
    path = run_dir / "cooc.edges"
    before = checks.tree_hash(run_dir)
    header, first, rest = path.read_text().split("\n", 2)
    i, j, w = first.split("\t")
    path.write_text(f"{header}\n{i}\t{j}\t{int(w) + 1}\n{rest}")
    problems = checks.check_outputs(run_dir, None)
    assert any("total_weight" in p for p in problems)
    assert checks.tree_hash(run_dir) != before


def test_dropped_edge_and_short_rank_table_are_flagged(run_dir):
    cooc = run_dir / "cooc.edges"
    lines = cooc.read_text().splitlines(keepends=True)
    cooc.write_text("".join(lines[:-1]))
    ranks = run_dir / "observables" / "frequency_rank.csv"
    rows = ranks.read_text().splitlines(keepends=True)
    ranks.write_text("".join(rows[:-1]))
    problems = checks.check_outputs(run_dir, None)
    assert any("edges=" in p for p in problems)
    assert any("vocabulary disagrees" in p for p in problems)


def test_missing_artifact_is_a_problem_not_a_crash(run_dir):
    (run_dir / "heaps.csv").unlink()
    assert checks.check_outputs(run_dir, None)[0].startswith("unreadable")


def test_ingest_counts_checked_against_the_generator(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INGEST_LINES", 3000)
    wl = workloads.build("ingest", 4, tmp_path)
    assert main(wl.commands[0]) == 0
    assert checks.check_outputs(wl.out_dir, wl.log) == []
    wrong = workloads.LogCounts(**{**vars(wl.log),
                                   "accepted": wl.log.accepted + 1})
    assert any("accepted" in p for p in checks.check_outputs(wl.out_dir, wrong))
