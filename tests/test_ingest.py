import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import focus_graph, focus_stream
from naive_reference import (build_from_posts, build_from_traces, clean_log, cooc_edges,
                             posts_from_traces)
from tagwalk import ingest
from tagwalk.cli import main
from tagwalk.cooc import project
from tagwalk.errors import IngestError, ParameterError
from tagwalk.formats import sha256_of
from tagwalk.ingest import (DEFAULT_TS_MIN, PARSE_BLOCK_LINES, ValidityWindow,
                            filter_by_tag, parse_posts)
from tagwalk.pipeline import load_config, run_ingest
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


def parse_lines(lines, window=WINDOW, strict=False):
    """:func:`parse_posts` on a file ``posts.jsonl`` that holds ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "posts.jsonl"
        path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")
        return parse_posts(path, window, strict)


# ---------------------------------------------------------------------------
# Cleaning rules
# ---------------------------------------------------------------------------

def test_tags_fold_case_and_deduplicate():
    corpus, report = parse_lines([line(tags=["Web", "web", "DESIGN"])])
    assert report.accepted == 1
    assert corpus.vocabulary == ("design", "web")
    assert corpus.tag_ids.tolist() == [0, 1]


def test_tags_fold_one_by_one_with_full_unicode_lowercase():
    tags = ["\u039f\u0394\u039f\u03a3", "\u03a3\u0391", "\u0130x", "", "Web", "WEB"]
    corpus, report = parse_lines([line(tags=tags)])
    assert report.accepted == 1
    assert corpus.vocabulary == tuple(sorted({t.lower() for t in tags if t}))
    # a final sigma, a sigma before a letter, and a capital that folds to two code points
    assert corpus.vocabulary == ("i\u0307x", "web", "\u03bf\u03b4\u03bf\u03c2",
                                 "\u03c3\u03b1")
    assert corpus.offsets.tolist() == [0, 4]


def test_empty_and_blank_tags_reject():
    corpus, report = parse_lines([line(tags=[]), line(tags=["", ""])])
    assert len(corpus) == 0
    assert report.no_tags == 2


def test_timestamp_window_is_inclusive():
    lines = [line(ts=T0 - 1), line(ts=T0), line(ts=T0 + 10_000),
             line(ts=T0 + 10_001)]
    corpus, report = parse_lines(lines)
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
    # a label is one line of UTF-8
    json.dumps({"user": "u", "resource": "r", "ts": T0, "tags": ["a", "b\ud800"]}),
    json.dumps({"user": "u", "resource": "r", "ts": T0, "tags": ["a", "c\nd"]}),
    json.dumps({"user": "u", "resource": "r", "ts": T0, "tags": ["a", "c\rd"]}),
])
def test_malformed_variants(bad):
    corpus, report = parse_lines([bad])
    assert len(corpus) == 0
    assert report.malformed == 1


def test_escaped_tags_that_are_labels_are_kept():
    corpus, report = parse_lines([line(tags=["tab\there", "caf\u00e9", "\U0001f600", "a\\b"])])
    assert report.accepted == 1
    assert corpus.vocabulary == ("a\\b", "caf\u00e9", "tab\there", "\U0001f600")


def test_strict_mode_reports_line_number():
    lines = [line(), "broken", line()]
    with pytest.raises(IngestError, match=r"posts\.jsonl:2$"):
        parse_lines(lines, strict=True)


def test_strict_mode_still_counts_other_rejects():
    lines = [line(tags=[]), line(ts=T0 - 5), line()]
    corpus, report = parse_lines(lines, strict=True)
    assert (report.no_tags, report.bad_timestamp, report.accepted) == (1, 1, 1)
    assert len(corpus) == 1


def test_ordering_by_timestamp_is_stable():
    lines = [line(resource="r1", ts=T0 + 5), line(resource="r2", ts=T0 + 1),
             line(resource="r3", ts=T0 + 5), line(resource="r4", ts=T0 + 2)]
    corpus, _ = parse_lines(lines)
    assert [corpus.resources[r] for r in corpus.resource_ids] == ["r2", "r4", "r1", "r3"]


def test_accounting_and_report_rows(tmp_path):
    lines = [line(), "junk", line(tags=[]), line(ts=T0 - 1), line()]
    corpus, report = parse_lines(lines)
    assert report.total_lines == 5
    assert report.accepted == len(corpus) == 2
    out = tmp_path / "rejects.csv"
    report.write_csv(out)
    assert out.read_text() == ("reason,count\n"
                               "bad_timestamp,1\nmalformed,1\nno_tags,1\n")


def test_parse_serialize_parse_identity(tmp_path):
    lines = [line(resource=f"r{i}", ts=T0 + 50 - i, tags=["X", "y", f"t{i}"])
             for i in range(20)]
    corpus, _ = parse_lines(lines)
    path = tmp_path / "clean.jsonl"
    corpus.write_jsonl(path)
    again, report = parse_posts(path, WINDOW)
    assert report.total_lines == report.accepted == 20
    assert posts_of(again) == posts_of(corpus)


def test_file_source_records_provenance(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text(line(tags=["t", "a"]) + "\njunk\n" + line() + "\n")
    config = tmp_path / "ingest.json"
    config.write_text(json.dumps({"seed": 1, "ingest": {
        "input": str(path), "focus_tag": "t", "ts_min": T0, "ts_max": T0 + 10_000}}))
    out = run_ingest(load_config(config), tmp_path / "out")
    assert json.loads((out / "manifest.json").read_text())["provenance"] == {
        "source": str(path), "lines": 3, "ts_min": T0, "ts_max": T0 + 10_000,
        "input_sha256": sha256_of(path), "accepted": 2, "focus_posts": 1}


def test_timestamps_must_fit_int64():
    top = 2 ** 63 - 1
    lines = [line(ts=top), line(ts=top + 1), line(ts=-top - 1), line(ts=-top - 2)]
    corpus, report = parse_lines(lines, ValidityWindow(ts_min=-2 ** 80), strict=True)
    assert corpus.ts.tolist() == [-top - 1, top]
    assert report.bad_timestamp == 2     # counted, not an abort under strict
    _, report = parse_lines([line(ts=top + 1)], ValidityWindow(ts_min=0))
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


def test_blocks_hold_whole_lines(tmp_path, capsys):
    # two blocks and three lines: block 1 ends in a CRLF line, block 2
    # opens with a malformed line, and the last line has no line feed
    n = 2 * PARSE_BLOCK_LINES + 3
    lines = [line(resource=f"r{i}", ts=T0 + i % 97).encode() + b"\n" for i in range(n)]
    lines[PARSE_BLOCK_LINES - 1] = lines[PARSE_BLOCK_LINES - 1].replace(b"\n", b"\r\n")
    lines[PARSE_BLOCK_LINES] = b"broken\n"
    lines[-1] = lines[-1].rstrip(b"\n")
    path = tmp_path / "posts.jsonl"
    path.write_bytes(b"".join(lines))
    corpus, report = parse_posts(path, WINDOW)
    assert report.total_lines == n
    assert (report.malformed, report.accepted) == (1, n - 1)
    assert corpus.resources == tuple(f"r{i}" for i in range(n) if i != PARSE_BLOCK_LINES)
    config = tmp_path / "ingest.json"
    config.write_text(json.dumps({"seed": 1, "ingest": {
        "input": str(path), "focus_tag": "a", "ts_min": T0, "ts_max": T0 + 10_000}}))
    assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--strict"]) == 2
    assert capsys.readouterr().err == (
        f"tagwalk: error: malformed post at {path}:{PARSE_BLOCK_LINES + 1}\n")


@pytest.mark.parametrize("block_lines", [1, 2, 3, PARSE_BLOCK_LINES])
def test_ids_follow_first_appearance_in_accepted_posts(monkeypatch, block_lines):
    monkeypatch.setattr(ingest, "PARSE_BLOCK_LINES", block_lines)
    lines = [json.dumps({"user": "m", "resource": "rm", "ts": "late", "tags": ["a"]}),
             line(user="n", resource="rn", tags=[""]),
             line(user="b", resource="rb", ts=T0 - 1),
             line(user="u2", resource="r2", ts=T0 + 9),
             line(user="u1", resource="r1", ts=T0 + 1),
             line(user="m", resource="r2", ts=T0 + 5),
             line(user="u2", resource="r3", ts=T0 + 2)]
    corpus, report = parse_lines(lines)
    assert (report.malformed, report.no_tags, report.bad_timestamp) == (1, 1, 1)
    # input order, not time order; names seen only on rejected lines get no id
    assert corpus.users == ("u2", "u1", "m")
    assert corpus.resources == ("r2", "r1", "r3")
    assert [corpus.users[u] for u in corpus.user_ids] == ["u1", "u2", "m", "u2"]


SPELLINGS = ["web", "Web", "WEB", "", "\u039f\u0394\u039f\u03a3", "\u03a3\u0391",
             "\u0130x", "stra\u00dfe", "tab\there", "a\\b", "c\nd", "e\rf", "g\ud800", 7]
POST_LINES = st.builds(
    lambda user, resource, ts, tags, cr: json.dumps(
        {"user": user, "resource": resource, "ts": ts, "tags": tags},
        ensure_ascii=False).encode("utf-8", "surrogatepass") + b"\r" * cr,
    st.sampled_from(["u1", "u2", "U1"]), st.sampled_from(["r1", "r2", "r3"]),
    st.sampled_from([T0 - 1, T0, T0 + 5, T0 + 10_000, T0 + 10_001, True, 1.5]),
    st.lists(st.sampled_from(SPELLINGS), max_size=5), st.booleans())
LOG_LINES = POST_LINES | st.sampled_from([
    b"", b"broken", b"[1, 2]", b"{} {}", b"\xef\xbb\xbf{}", b'{"user": "u\xff"}',
    b'{"user": 1, "resource": "r", "ts": %d, "tags": ["a"]}' % T0,
    b'{"user": "u", "resource": "r", "ts": %d, "tags": "a"}' % T0])


@settings(max_examples=200, deadline=None)
@given(st.lists(LOG_LINES, max_size=12), st.booleans(), st.integers(1, 4))
def test_parse_matches_one_json_loads_per_line(lines, final_line_feed, block_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "posts.jsonl"
        path.write_bytes(b"\n".join(lines) + (b"\n" if final_line_feed and lines else b""))
        with mock.patch.object(ingest, "PARSE_BLOCK_LINES", block_lines):
            corpus, report = parse_posts(path, WINDOW)
        posts, users, resources, rejects = clean_log(path, *WINDOW.resolve())
    assert posts_of(corpus) == posts
    assert (corpus.users, corpus.resources) == (users, resources)
    assert corpus.vocabulary == tuple(sorted({t for _, _, _, tags in posts for t in tags}))
    assert (report.malformed, report.no_tags, report.bad_timestamp) == rejects
    assert report.accepted == len(posts)


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
    corpus, _ = parse_lines(
        [line(resource="r0", tags=["t", "a"]), line(resource="r1", tags=["b"]),
         line(resource="r2", tags=["T", "c"])])
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
    g = project(*stream.tag_pairs())
    assert stream.vocabulary == ("a", "b", "c")
    pairs = {(int(i), int(j)): int(w) for i, j, w in zip(*cooc_edges(g))}
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

    emp = project(*stream.tag_pairs())
    syn = build_from_traces(ens, count_origin=False)
    assert emp.edge_count == syn.edge_count
    assert np.array_equal(cooc_edges(emp)[2], cooc_edges(syn)[2])
    # zero-padded labels sort numerically
    want_labels = tuple(f"n{int(v):02d}" for v in syn.node_ids)
    assert tuple(stream.vocabulary[i] for i in emp.node_ids) == want_labels


tag_sets = st.frozensets(st.sampled_from(["t", "a", "b", "c", "é", "t2"]), max_size=5)


@given(st.lists(st.tuples(st.integers(0, 5), tag_sets), max_size=20))
@settings(max_examples=100, deadline=None)
def test_focus_stream_matches_python_loops(posts):
    lines = [line(resource=f"r{i}", ts=T0 + dt, tags=sorted(tags))
             for i, (dt, tags) in enumerate(posts)]
    stream = filter_by_tag(parse_lines(lines)[0], "t")
    kept = [tags for _, tags in sorted(posts, key=lambda p: p[0]) if "t" in tags]
    assert len(stream) == len(kept)

    got, (want, labels) = project(*stream.tag_pairs()), build_from_posts(kept, "t")
    assert stream.vocabulary == labels
    assert np.array_equal(got.node_ids, want.node_ids)
    for a, b in zip(cooc_edges(got), cooc_edges(want)):
        assert np.array_equal(a, b)

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
    assert cooc_edges(g)[2].tolist() == [2]
