"""Parsing and cleaning of empirical annotation logs.

Input is JSON Lines, one post per line, with fields ``user`` (string),
``resource`` (string), ``ts`` (integer epoch seconds), ``tags`` (array of
strings).  Cleaning lowercases each tag with ``str.lower``, drops duplicate
tags within a post, rejects posts with no tags left, and rejects timestamps
outside a validity window or outside the int64 range.  The log is read in
blocks of whole lines: each line is decoded and checked alone, and a
block's strings are interned and its tags lowercased together.  The cleaned
corpus is held as columns, ordered by timestamp with input order breaking
ties.

Analysis of a cleaned corpus is organized around one focus tag.  The posts
containing it form a stream: a (post, tag) incidence of the same form as a
walk ensemble's (walk, node) pairs, in which the focus tag plays the walk
origin with ``count_origin`` false.  It is dropped from every post, so the
stream's vocabulary is the co-occurring tags, and the stream goes through
the walker's vocabulary curve and node frequencies and the clique
projection unchanged.
"""

from __future__ import annotations

import json
import re
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import IngestError, ParameterError
from .formats import write_csv
from .substrate import sorted_unique

__all__ = [
    "DEFAULT_TS_MIN",
    "Corpus",
    "ValidityWindow",
    "RejectionReport",
    "parse_posts",
    "filter_by_tag",
]

# 2001-01-01 00:00:00 UTC, before which no public tagging system operated
DEFAULT_TS_MIN = 978307200

# Corpus.write_jsonl joins this many posts per write.
WRITE_BLOCK_POSTS = 4096

# parse_posts reads this many lines per block.  A block's strings stay alive
# until it is interned, and blocks past a few hundred lines gain no speed.
PARSE_BLOCK_LINES = 512

# The string escaper of json.dumps with ensure_ascii=True, quotes included.
_quote = json.encoder.encode_basestring_ascii

_INT64 = np.iinfo(np.int64)

# What a tag must not hold, since a label is one line of UTF-8: a line
# break, or a lone surrogate, which only a JSON escape can give.
_NOT_A_LABEL = re.compile("[\n\r\ud800-\udfff]")


@dataclass(frozen=True)
class ValidityWindow:
    """Inclusive timestamp bounds; ``ts_max=None`` means no upper bound (not "now")."""

    ts_min: int = DEFAULT_TS_MIN
    ts_max: int | None = None

    def __post_init__(self):
        if self.ts_max is not None and self.ts_max < self.ts_min:
            raise ParameterError("validity window is empty")

    def resolve(self) -> tuple[int, int]:
        """The bounds, narrowed to the int64 range that ``Corpus.ts`` holds."""
        hi = _INT64.max if self.ts_max is None else min(self.ts_max, _INT64.max)
        return max(self.ts_min, _INT64.min), hi


@dataclass
class RejectionReport:
    """Counts of skipped input lines by reason, plus the accepted count."""

    malformed: int = 0
    no_tags: int = 0
    bad_timestamp: int = 0
    accepted: int = 0

    @property
    def total_lines(self) -> int:
        return self.malformed + self.no_tags + self.bad_timestamp + self.accepted

    def write_csv(self, path) -> None:
        write_csv(path, ["reason", "count"], [["bad_timestamp", "malformed", "no_tags"],
                                              [self.bad_timestamp, self.malformed, self.no_tags]])


@dataclass(frozen=True)
class Corpus:
    """Cleaned posts as columns, in ascending timestamp order (ties keep input order).

    Post ``p`` was made at ``ts[p]`` by ``users[user_ids[p]]`` on
    ``resources[resource_ids[p]]`` and carries the tags ``vocabulary[t]``
    for ``t`` in ``tag_ids[offsets[p]:offsets[p+1]]``, ascending.
    """

    ts: np.ndarray              # int64
    user_ids: np.ndarray        # int64 into users
    resource_ids: np.ndarray    # int64 into resources
    offsets: np.ndarray         # int64, (post_count + 1,)
    tag_ids: np.ndarray         # int64 into vocabulary
    users: tuple[str, ...]
    resources: tuple[str, ...]
    vocabulary: tuple[str, ...]  # sorted

    def __len__(self) -> int:
        return self.ts.size

    def tag_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(post, tag id) pairs, post-major with tags ascending.

        This is the form of :meth:`WalkEnsemble.walk_node_pairs`, so the
        walker's summaries and :func:`cooc.project` read the pairs as they are.
        """
        return (np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets)),
                self.tag_ids)

    def write_labels(self, path) -> None:
        """The id-to-tag table: a header, then ``i<TAB>vocabulary[i]`` per tag id."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id\tlabel\n")
            fh.writelines(f"{i}\t{tag}\n" for i, tag in enumerate(self.vocabulary))

    def write_jsonl(self, path) -> None:
        """One line per post, the bytes of ``json.dumps`` with sorted keys."""
        users = [_quote(u) for u in self.users]
        resources = [_quote(r) for r in self.resources]
        tags = [_quote(t) for t in self.vocabulary]
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for lo in range(0, len(self), WRITE_BLOCK_POSTS):
                hi = min(lo + WRITE_BLOCK_POSTS, len(self))
                bounds = (self.offsets[lo:hi + 1] - self.offsets[lo]).tolist()
                names = [tags[t] for t in
                         self.tag_ids[self.offsets[lo]:self.offsets[hi]].tolist()]
                fh.write("".join(
                    f'{{"resource": {resources[r]}, '
                    f'"tags": [{", ".join(names[a:b])}], '
                    f'"ts": {ts}, "user": {users[u]}}}\n'
                    for r, a, b, ts, u in zip(self.resource_ids[lo:hi].tolist(),
                                              bounds, bounds[1:],
                                              self.ts[lo:hi].tolist(),
                                              self.user_ids[lo:hi].tolist())))


def parse_posts(source, window: ValidityWindow | None = None,
                strict: bool = False) -> tuple[Corpus, RejectionReport]:
    """Read, clean, and time-order the JSON-Lines post log at path ``source``.

    A line ends at ``\n`` only, as JSON Lines defines it; a ``\r`` before
    it or between two JSON tokens is whitespace.
    Malformed lines are counted and skipped, or abort with ``source:line``
    when ``strict``.  A malformed line is checked for before a post with no
    tags, and that before a timestamp outside ``window``.  Users and
    resources get ids in order of first appearance in an accepted post.
    """
    window = window or ValidityWindow()
    lo, hi = window.resolve()
    scan = json.JSONDecoder().scan_once     # json.loads without its wrapper
    report = RejectionReport()
    # the columns hold ids of interned strings: looking a new string up
    # gives it the next id.  The empty tag is id 0 until the sort below
    # drops it.
    users, resources, tags = (defaultdict(count().__next__) for _ in range(3))
    tags[""]
    ts, user_ids, resource_ids, counts, tag_ids = (array("q") for _ in range(5))
    lineno = 0
    with open(source, "rb") as fh:
        while block := list(islice(fh, PARSE_BLOCK_LINES)):
            block_users, block_resources, block_ts, block_counts, block_tags = [], [], [], [], []
            for lineno, raw in enumerate(block, lineno + 1):
                try:
                    line = raw.decode().strip(" \t\n\r")     # strict UTF-8, JSON whitespace
                    post, end = scan(line, 0)
                except (ValueError, StopIteration, RecursionError):
                    post = None     # also: nested too deep, an int of over 4300 digits
                # the scanner gives exact dicts, lists, strs, ints, floats, bools and None
                if type(post) is dict and end == len(line):
                    user, resource = post.get("user"), post.get("resource")
                    stamp, names = post.get("ts"), post.get("tags")
                    if (type(user) is str and type(resource) is str and type(stamp) is int
                            and type(names) is list and all(map(str.__instancecheck__, names))
                            and not ("\\" in line and any(map(_NOT_A_LABEL.search, names)))):
                        if not any(names):
                            report.no_tags += 1
                        elif not lo <= stamp <= hi:
                            report.bad_timestamp += 1
                        else:
                            block_users.append(user)
                            block_resources.append(resource)
                            block_ts.append(stamp)
                            block_counts.append(len(names))
                            block_tags += names
                        continue
                if strict:
                    raise IngestError(f"malformed post at {source}:{lineno}")
                report.malformed += 1
            ts.fromlist(block_ts)
            counts.fromlist(block_counts)
            user_ids.fromlist(list(map(users.__getitem__, block_users)))
            resource_ids.fromlist(list(map(resources.__getitem__, block_resources)))
            tag_ids.fromlist(list(map(tags.__getitem__, map(str.lower, block_tags))))

    ts, user_ids, resource_ids, counts, tag_ids = (
        np.frombuffer(a, dtype=np.int64) for a in (ts, user_ids, resource_ids, counts, tag_ids))
    report.accepted = ts.size
    labels = sorted(tags)   # the empty tag first
    # rank[i]: the place in labels of the tag interned as i
    rank = np.argsort(np.fromiter(map(tags.get, labels), np.int64, len(tags)))
    order = np.argsort(ts, kind="stable")
    # one sort by (new post position, tag rank) moves each post's tags to
    # its place in ascending order; of each run of equal keys the first is
    # kept, unless it is the empty tag's
    scale = len(tags)
    keys = np.repeat(np.argsort(order), counts)
    keys *= scale
    keys += rank[tag_ids]
    del tag_ids     # frees the raw tag column before the dedup below copies keys
    keys.sort()
    keep = keys % scale != 0
    keep[1:] &= keys[1:] != keys[:-1]
    keys = keys[keep]
    counts = np.bincount(keys // scale, minlength=ts.size)
    keys %= scale
    keys -= 1
    corpus = Corpus(ts=ts[order], user_ids=user_ids[order], resource_ids=resource_ids[order],
                    offsets=np.concatenate([[0], np.cumsum(counts)]), tag_ids=keys,
                    users=tuple(users), resources=tuple(resources),
                    vocabulary=tuple(labels[1:]))
    return corpus, report


def filter_by_tag(corpus: Corpus, focus_tag: str) -> Corpus:
    """The posts that carry ``focus_tag``, in order, with the focus tag dropped.

    The stream's vocabulary is the sorted set of tags that co-occur with
    the focus tag; a focus tag that no post carries gives an empty stream.
    """
    if focus_tag != focus_tag.lower():
        raise ParameterError("focus tag must be lowercase")
    posts, tag_ids = corpus.tag_pairs()
    at = bisect_left(corpus.vocabulary, focus_tag)
    focus = tag_ids == (at if corpus.vocabulary[at:at + 1] == (focus_tag,) else -1)
    select = posts[focus]
    member = np.isin(posts, select) & ~focus
    used = sorted_unique(tag_ids[member])
    kept = np.diff(corpus.offsets)[select] - 1   # tags are distinct within a post
    return Corpus(ts=corpus.ts[select], user_ids=corpus.user_ids[select],
                  resource_ids=corpus.resource_ids[select],
                  offsets=np.concatenate([[0], np.cumsum(kept)]),
                  tag_ids=np.searchsorted(used, tag_ids[member]),
                  users=corpus.users, resources=corpus.resources,
                  vocabulary=tuple(corpus.vocabulary[t] for t in used.tolist()))
