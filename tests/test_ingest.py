import json

import numpy as np
import pytest

from naive_reference import posts_from_traces
from tagwalk.cooc import build_from_traces
from tagwalk.errors import ContractError, IngestError, ParameterError
from tagwalk.ingest import (DEFAULT_TS_MIN, Post, ValidityWindow,
                            empirical_cooc, filter_by_tag, parse_posts,
                            tag_post_counts, vocabulary_growth)
from tagwalk.substrate import generate_watts_strogatz
from tagwalk.walker import PowerLawLength, heaps_curve, simulate_walks

T0 = DEFAULT_TS_MIN
WINDOW = ValidityWindow(ts_min=T0, ts_max=T0 + 10_000)


def line(user="u", resource="r", ts=T0 + 1, tags=("a", "b")):
    return json.dumps({"user": user, "resource": resource, "ts": ts,
                       "tags": list(tags)})


# ---------------------------------------------------------------------------
# Cleaning rules
# ---------------------------------------------------------------------------

def test_tags_fold_case_and_deduplicate():
    corpus, report = parse_posts([line(tags=["Web", "web", "DESIGN"])], WINDOW)
    assert report.accepted == 1
    assert corpus.posts[0].tags == frozenset({"web", "design"})


def test_empty_and_blank_tags_reject():
    corpus, report = parse_posts([line(tags=[]), line(tags=["", ""])], WINDOW)
    assert len(corpus) == 0
    assert report.no_tags == 2


def test_timestamp_window_is_inclusive():
    lines = [line(ts=T0 - 1), line(ts=T0), line(ts=T0 + 10_000),
             line(ts=T0 + 10_001)]
    corpus, report = parse_posts(lines, WINDOW)
    assert report.bad_timestamp == 2
    assert [p.ts for p in corpus.posts] == [T0, T0 + 10_000]


@pytest.mark.parametrize("bad", [
    "not json",
    "[1, 2]",                                        # not an object
    json.dumps({"user": "u", "ts": T0, "tags": ["a"]}),   # missing resource
    json.dumps({"user": 3, "resource": "r", "ts": T0, "tags": ["a"]}),
    json.dumps({"user": "u", "resource": "r", "ts": True, "tags": ["a"]}),
    json.dumps({"user": "u", "resource": "r", "ts": 1.5, "tags": ["a"]}),
    json.dumps({"user": "u", "resource": "r", "ts": T0, "tags": "a"}),
    json.dumps({"user": "u", "resource": "r", "ts": T0, "tags": ["a", 7]}),
])
def test_malformed_variants(bad):
    corpus, report = parse_posts([bad], WINDOW)
    assert len(corpus) == 0
    assert report.malformed == 1


def test_strict_mode_reports_line_number():
    lines = [line(), "broken", line()]
    with pytest.raises(IngestError, match=r"posts\.jsonl:2"):
        parse_posts(lines, WINDOW, strict=True, source_name="posts.jsonl")
    with pytest.raises(IngestError, match="line 2"):
        parse_posts(lines, WINDOW, strict=True)


def test_strict_mode_still_counts_other_rejects():
    lines = [line(tags=[]), line(ts=T0 - 5), line()]
    corpus, report = parse_posts(lines, WINDOW, strict=True)
    assert (report.no_tags, report.bad_timestamp, report.accepted) == (1, 1, 1)
    assert len(corpus) == 1


def test_ordering_by_timestamp_is_stable():
    lines = [line(resource="r1", ts=T0 + 5), line(resource="r2", ts=T0 + 1),
             line(resource="r3", ts=T0 + 5), line(resource="r4", ts=T0 + 2)]
    corpus, _ = parse_posts(lines, WINDOW)
    assert [p.resource for p in corpus.posts] == ["r2", "r4", "r1", "r3"]


def test_accounting_and_report_rows(tmp_path):
    lines = [line(), "junk", line(tags=[]), line(ts=T0 - 1), line()]
    corpus, report = parse_posts(lines, WINDOW)
    assert report.total_lines == 5
    assert report.accepted == len(corpus) == 2
    out = tmp_path / "rejects.csv"
    report.write_csv(out)
    assert out.read_text() == ("reason,count\n"
                               "bad_timestamp,1\nmalformed,1\nno_tags,1\n")


def test_parse_serialize_parse_identity(tmp_path):
    lines = [line(resource=f"r{i}", ts=T0 + 50 - i, tags=["X", "y", f"t{i}"])
             for i in range(20)]
    corpus, _ = parse_posts(lines, WINDOW)
    path = tmp_path / "clean.jsonl"
    corpus.write_jsonl(path)
    again, report = parse_posts(path, WINDOW)
    assert report.total_lines == report.accepted == 20
    assert again.posts == corpus.posts
    assert again.provenance["source"] == str(path)


def test_file_source_records_provenance(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(line() + "\n")
    corpus, _ = parse_posts(path, WINDOW)
    assert corpus.provenance["lines"] == 1
    assert corpus.provenance["ts_min"] == T0
    assert corpus.provenance["ts_max"] == T0 + 10_000


def test_validity_window():
    with pytest.raises(ParameterError):
        ValidityWindow(ts_min=10, ts_max=5).resolve()
    lo, hi = ValidityWindow().resolve()
    assert lo == DEFAULT_TS_MIN and hi >= lo


# ---------------------------------------------------------------------------
# Focus-tag analysis
# ---------------------------------------------------------------------------

def posts_for(tagsets, t0=T0):
    return tuple(Post(user="u", resource=f"r{i}", ts=t0 + i,
                      tags=frozenset(tags))
                 for i, tags in enumerate(tagsets))


def test_filter_by_tag():
    corpus, _ = parse_posts(
        [line(resource="r0", tags=["t", "a"]), line(resource="r1", tags=["b"]),
         line(resource="r2", tags=["T", "c"])], WINDOW)
    stream = filter_by_tag(corpus, "t")
    assert [p.resource for p in stream] == ["r0", "r2"]
    with pytest.raises(ParameterError):
        filter_by_tag(corpus, "T")


def test_vocabulary_growth_hand_case():
    stream = posts_for([{"t", "a", "b"}, {"t", "b", "c"}])
    n, d = vocabulary_growth(stream, "t")
    assert n.tolist() == [1, 2]
    assert d.tolist() == [2, 3]


def test_vocabulary_growth_focus_only_posts():
    stream = posts_for([{"t"}, {"t"}, {"t"}])
    _, d = vocabulary_growth(stream, "t")
    assert d.tolist() == [0, 0, 0]


def test_vocabulary_growth_rejects_foreign_post():
    stream = posts_for([{"t", "a"}, {"a", "b"}])
    with pytest.raises(ContractError):
        vocabulary_growth(stream, "t")


def test_empirical_cooc_weights_and_labels():
    stream = posts_for([{"t", "a", "b"}, {"t", "a", "b"}, {"t", "b", "c"}])
    g = empirical_cooc(stream, "t")
    assert g.labels == ("a", "b", "c")
    pairs = {(int(i), int(j)): int(w)
             for i, j, w in zip(g.src, g.dst, g.weights)}
    assert pairs == {(0, 1): 2, (1, 2): 1}
    _, d = vocabulary_growth(stream, "t")
    assert g.node_count == int(d[-1])


def test_tag_post_counts():
    stream = posts_for([{"t", "a", "b"}, {"t", "a"}, {"t"}])
    assert tag_post_counts(stream, "t") == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# Walker traces round-tripped through the post format
# ---------------------------------------------------------------------------

def test_posts_from_traces_round_trip(tmp_path):
    g = generate_watts_strogatz(80, 4, 0.2, seed=14)
    ens = simulate_walks(g, 0, 300, PowerLawLength(3.0, 1, 30), seed=15)
    posts, focus = posts_from_traces(ens)
    assert focus == "n00"
    assert len(posts) == 300
    assert posts[0].ts == DEFAULT_TS_MIN

    path = tmp_path / "walks.jsonl"
    with open(path, "w") as fh:
        for p in posts:
            fh.write(p.to_json() + "\n")
    corpus, report = parse_posts(path, ValidityWindow(ts_max=DEFAULT_TS_MIN + 10**6))
    assert report.accepted == 300
    stream = filter_by_tag(corpus, focus)
    assert len(stream) == 300   # every walk trace contains its origin

    # vocabulary excludes the focus tag, so compare against the
    # origin-excluded walker curve
    n, d = vocabulary_growth(stream, focus)
    walks, distinct = heaps_curve(ens, np.arange(1, 301), count_origin=False)
    assert n.tolist() == walks.tolist()
    assert d.tolist() == distinct.tolist()

    emp = empirical_cooc(stream, focus)
    syn = build_from_traces(ens, count_origin=False)
    assert emp.edge_count == syn.edge_count
    assert np.array_equal(emp.weights, syn.weights)
    # zero-padded labels sort numerically
    want_labels = tuple(f"n{int(v):02d}" for v in syn.node_ids)
    assert emp.labels == want_labels


def test_duplicate_posts_accumulate_weight():
    stream = posts_for([{"t", "x", "y"}, {"t", "x", "y"}])
    g = empirical_cooc(stream, "t")
    assert g.weights.tolist() == [2]
