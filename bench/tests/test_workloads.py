from tagwalk import ingest

import workloads
from workloads import FOCUS_TAG, TS_MAX, TS_MIN, generate_log


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    counts_a = generate_log(a, 7, 3000)
    counts_b = generate_log(b, 7, 3000)
    counts_c = generate_log(c, 8, 3000)
    assert a.read_bytes() == b.read_bytes()
    assert counts_a == counts_b
    assert a.read_bytes() != c.read_bytes()


def test_generator_counts_match_the_parser(tmp_path):
    path = tmp_path / "posts.jsonl"
    counts = generate_log(path, 11, 5000)
    assert counts.malformed > 0 and counts.out_of_window > 0
    corpus, report = ingest.parse_posts(
        path, window=ingest.ValidityWindow(TS_MIN, TS_MAX))
    assert report.total_lines == counts.lines
    assert report.malformed == counts.malformed
    assert report.bad_timestamp == counts.out_of_window
    assert report.no_tags == 0
    assert report.accepted == counts.accepted
    assert len(ingest.filter_by_tag(corpus, FOCUS_TAG)) == counts.focus_posts


def test_every_workload_builds(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INGEST_LINES", 200)
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, tmp_path / name)
        assert wl.commands and (tmp_path / name / "config.json").is_file()
        assert (wl.log is not None) == (name == "ingest")
