import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import focus_graph, focus_stream
from naive_reference import build_from_posts, build_from_traces, posts_from_traces
from tagwalk.cooc import project
from tagwalk.errors import IngestError, ParameterError
from tagwalk.ingest import (DEFAULT_TS_MIN, ValidityWindow, filter_by_tag,
                            parse_posts)
from tagwalk.substrate import generate_watts_strogatz
from tagwalk.walker import (PowerLawLength, heaps_curve, node_frequencies,
                            simulate_walks)

T0 = DEFAULT_TS_MIN
WINDOW = ValidityWindow(ts_min=T0, ts_max=T0 + 10_000)


def posts_of(corpus):
    """The corpus as ``(user, resource, ts, tags)`` tuples, in order."""
    bounds = corpus.offsets.tolist()
    return [(corpus.users[u], corpus.resources[r], ts,
             tuple(corpus.vocabulary[t] for t in corpus.tag_ids[a:b]))
            for u, r, ts, a, b in zip(corpus.user_ids.tolist(), corpus.resource_ids.tolist(),
                                      corpus.ts.tolist(), bounds, bounds[1:])]


def line(user="u", resource="r", ts=T0 + 1, tags=("a", "b")):
    return json.dumps({"user": user, "resource": resource, "ts": ts,
                       "tags": list(tags)})


# ---------------------------------------------------------------------------
# Cleaning rules
# ---------------------------------------------------------------------------

def test_tags_fold_case_and_deduplicate():
    corpus, report = parse_posts([line(tags=["Web", "web", "DESIGN"])], WINDOW)
    assert report.accepted == 1
    assert corpus.vocabulary == ("design", "web")
    assert corpus.tag_ids.tolist() == [0, 1]


def test_empty_and_blank_tags_reject():
    corpus, report = parse_posts([line(tags=[]), line(tags=["", ""])], WINDOW)
    assert len(corpus) == 0
    assert report.no_tags == 2


def test_timestamp_window_is_inclusive():
    lines = [line(ts=T0 - 1), line(ts=T0), line(ts=T0 + 10_000),
             line(ts=T0 + 10_001)]
    corpus, report = parse_posts(lines, WINDOW)
    assert report.bad_timestamp == 2
    assert corpus.ts.tolist() == [T0, T0 + 10_000]


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
    assert [corpus.resources[r] for r in corpus.resource_ids] == ["r2", "r4", "r1", "r3"]


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
    assert posts_of(again) == posts_of(corpus)
    assert again.provenance["source"] == str(path)


def test_file_source_records_provenance(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(line() + "\n")
    corpus, _ = parse_posts(path, WINDOW)
    assert corpus.provenance["lines"] == 1
    assert corpus.provenance["ts_min"] == T0
    assert corpus.provenance["ts_max"] == T0 + 10_000


def test_timestamps_must_fit_int64():
    top = 2 ** 63 - 1
    lines = [line(ts=top), line(ts=top + 1), line(ts=-top - 1), line(ts=-top - 2)]
    corpus, report = parse_posts(lines, ValidityWindow(ts_min=-2 ** 80), strict=True)
    assert corpus.ts.tolist() == [-top - 1, top]
    assert report.bad_timestamp == 2     # counted, not an abort under strict
    _, report = parse_posts([line(ts=top + 1)], ValidityWindow(ts_min=0))
    assert report.bad_timestamp == 1


def test_parse_memory_per_post(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "log.jsonl"
    with open(path, "w") as fh:
        for _ in range(4000):
            tags = [f"t{k}" for k in rng.integers(300, size=int(rng.integers(1, 9)))]
            fh.write(line(user=f"u{rng.integers(200)}", resource=f"r{rng.integers(2000)}",
                          ts=T0 + int(rng.integers(10_000)), tags=tags) + "\n")
    tracemalloc.start()
    try:
        _, report = parse_posts(path, WINDOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.accepted == 4000
    # columns plus interned strings take about 220 bytes a post; an object
    # and a frozenset per post took about 970
    assert peak / report.accepted < 400


def test_validity_window():
    with pytest.raises(ParameterError):
        ValidityWindow(ts_min=10, ts_max=5).resolve()
    lo, hi = ValidityWindow().resolve()
    assert lo == DEFAULT_TS_MIN and hi >= lo


# ---------------------------------------------------------------------------
# Focus-tag analysis
# ---------------------------------------------------------------------------

def growth(stream):
    n = len(stream)
    return heaps_curve(*stream.tag_pairs(), n, np.arange(1, n + 1))


def test_filter_by_tag():
    corpus, _ = parse_posts(
        [line(resource="r0", tags=["t", "a"]), line(resource="r1", tags=["b"]),
         line(resource="r2", tags=["T", "c"])], WINDOW)
    stream = filter_by_tag(corpus, "t")
    assert [stream.resources[r] for r in stream.resource_ids] == ["r0", "r2"]
    assert stream.vocabulary == ("a", "c")
    with pytest.raises(ParameterError):
        filter_by_tag(corpus, "T")


def test_vocabulary_growth_hand_case():
    stream = focus_stream([{"t", "a", "b"}, {"t", "b", "c"}])
    n, d = growth(stream)
    assert n.tolist() == [1, 2]
    assert d.tolist() == [2, 3]


def test_vocabulary_growth_focus_only_posts():
    stream = focus_stream([{"t"}, {"t"}, {"t"}])
    _, d = growth(stream)
    assert d.tolist() == [0, 0, 0]


def test_empirical_cooc_weights_and_labels():
    stream = focus_stream([{"t", "a", "b"}, {"t", "a", "b"}, {"t", "b", "c"}])
    g = project(*stream.tag_pairs(), stream.vocabulary)
    assert g.labels == ("a", "b", "c")
    pairs = {(int(i), int(j)): int(w)
             for i, j, w in zip(g.src, g.dst, g.weights)}
    assert pairs == {(0, 1): 2, (1, 2): 1}
    _, d = growth(stream)
    assert g.node_count == int(d[-1])


def test_tag_post_counts():
    stream = focus_stream([{"t", "a", "b"}, {"t", "a"}, {"t"}])
    counts = node_frequencies(stream.tag_pairs()[1], len(stream.vocabulary))
    assert dict(zip(stream.vocabulary, counts.tolist())) == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# Walker traces round-tripped through the post format
# ---------------------------------------------------------------------------

def test_posts_from_traces_round_trip(tmp_path):
    g = generate_watts_strogatz(80, 4, 0.2, seed=14)
    ens = simulate_walks(g, 0, 300, PowerLawLength(3.0, 1, 30), seed=15)
    posts, focus = posts_from_traces(ens)
    assert focus == "n00"
    assert len(posts) == 300
    assert json.loads(posts[0])["ts"] == DEFAULT_TS_MIN

    path = tmp_path / "walks.jsonl"
    path.write_text("".join(p + "\n" for p in posts))
    corpus, report = parse_posts(path, ValidityWindow(ts_max=DEFAULT_TS_MIN + 10**6))
    assert report.accepted == 300
    stream = filter_by_tag(corpus, focus)
    assert len(stream) == 300   # every walk trace contains its origin

    # vocabulary excludes the focus tag, so compare against the
    # origin-excluded walker curve
    n, d = growth(stream)
    walks, distinct = heaps_curve(*ens.walk_node_pairs(count_origin=False),
                                  ens.walk_count, np.arange(1, 301))
    assert n.tolist() == walks.tolist()
    assert d.tolist() == distinct.tolist()

    emp = project(*stream.tag_pairs(), stream.vocabulary)
    syn = build_from_traces(ens, count_origin=False)
    assert emp.edge_count == syn.edge_count
    assert np.array_equal(emp.weights, syn.weights)
    # zero-padded labels sort numerically
    want_labels = tuple(f"n{int(v):02d}" for v in syn.node_ids)
    assert emp.labels == want_labels


tag_sets = st.frozensets(st.sampled_from(["t", "a", "b", "c", "é", "t2"]), max_size=5)


@given(st.lists(st.tuples(st.integers(0, 5), tag_sets), max_size=20))
@settings(max_examples=100, deadline=None)
def test_focus_stream_matches_python_loops(posts):
    lines = [line(resource=f"r{i}", ts=T0 + dt, tags=sorted(tags))
             for i, (dt, tags) in enumerate(posts)]
    stream = filter_by_tag(parse_posts(lines, WINDOW)[0], "t")
    kept = [tags for _, tags in sorted(posts, key=lambda p: p[0]) if "t" in tags]
    assert len(stream) == len(kept)

    got, want = project(*stream.tag_pairs(), stream.vocabulary), build_from_posts(kept, "t")
    assert got.labels == want.labels
    for name in ("node_ids", "src", "dst", "weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name))

    seen, distinct = set(), []
    for tags in kept:
        seen |= tags - {"t"}
        distinct.append(len(seen))
    assert growth(stream)[1].tolist() == distinct
    counts = node_frequencies(stream.tag_pairs()[1], len(stream.vocabulary))
    assert dict(zip(stream.vocabulary, counts.tolist())) == \
        Counter(tag for tags in kept for tag in tags - {"t"})


def test_duplicate_posts_accumulate_weight():
    g = focus_graph([{"t", "x", "y"}, {"t", "x", "y"}])
    assert g.weights.tolist() == [2]
