"""Parsing and cleaning of empirical annotation logs.

Input is JSON Lines, one post per line, with fields ``user`` (string),
``resource`` (string), ``ts`` (integer epoch seconds), ``tags`` (array of
strings).  Cleaning lowercases tags, drops duplicate tags within a post,
rejects posts with no tags left, and rejects timestamps outside a validity
window or outside the int64 range.  The cleaned corpus is held as columns,
ordered by timestamp with input order breaking ties.

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
from dataclasses import dataclass

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


def _clean_line(raw: bytes, lo: int, hi: int) -> tuple[str, str, int, set[str]] | str:
    """Parse one input line into ``(user, resource, ts, tags)`` or a rejection reason."""
    try:
        line = raw.decode()     # strict UTF-8; json.loads skips JSON whitespace only
        obj = json.loads(line)
    except (ValueError, RecursionError):    # also: an int of over 4300 digits, deep nesting
        return "malformed"
    if not isinstance(obj, dict):
        return "malformed"
    user = obj.get("user")
    resource = obj.get("resource")
    ts = obj.get("ts")
    tags = obj.get("tags")
    if not (isinstance(user, str) and isinstance(resource, str)):
        return "malformed"
    if not isinstance(ts, int) or isinstance(ts, bool):
        return "malformed"
    if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
        return "malformed"
    if "\\" in line and any(map(_NOT_A_LABEL.search, tags)):
        return "malformed"
    folded = {t.lower() for t in tags if t}
    if not folded:
        return "no_tags"
    if not (lo <= ts <= hi):
        return "bad_timestamp"
    return user, resource, ts, folded


def parse_posts(source, window: ValidityWindow | None = None,
                strict: bool = False) -> tuple[Corpus, RejectionReport]:
    """Read, clean, and time-order the JSON-Lines post log at path ``source``.

    A line ends at ``\n`` only, as JSON Lines defines it; a ``\r`` before
    it or between two JSON tokens is whitespace.
    Malformed lines are counted and skipped, or abort with ``source:line``
    when ``strict``.
    """
    window = window or ValidityWindow()
    lo, hi = window.resolve()
    report = RejectionReport()
    # strings are interned as they are read; the columns hold their ids
    users: dict[str, int] = {}
    resources: dict[str, int] = {}
    tags: dict[str, int] = {}
    ts, user_ids, resource_ids, counts, tag_ids = (array("q") for _ in range(5))
    with open(source, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            outcome = _clean_line(line, lo, hi)
            if isinstance(outcome, str):
                if outcome == "malformed" and strict:
                    raise IngestError(f"malformed post at {source}:{lineno}")
                setattr(report, outcome, getattr(report, outcome) + 1)
                continue
            user, resource, stamp, folded = outcome
            report.accepted += 1
            ts.append(stamp)
            user_ids.append(users.setdefault(user, len(users)))
            resource_ids.append(resources.setdefault(resource, len(resources)))
            counts.append(len(folded))
            tag_ids.extend([tags.setdefault(t, len(tags)) for t in folded])

    ts, user_ids, resource_ids, counts, tag_ids = (
        np.frombuffer(a, dtype=np.int64) for a in (ts, user_ids, resource_ids, counts, tag_ids))
    vocabulary = tuple(sorted(tags))
    # rank[i]: the place in the vocabulary of the tag interned as i
    rank = np.argsort(np.fromiter(map(tags.get, vocabulary), np.int64, len(tags)))
    order = np.argsort(ts, kind="stable")
    # one sort by (new post position, tag rank) moves each post's tags to
    # its place and puts them in ascending order
    scale = max(len(tags), 1)
    keys = np.repeat(np.argsort(order), counts)
    keys *= scale
    keys += rank[tag_ids]
    keys.sort()
    keys %= scale
    corpus = Corpus(ts=ts[order], user_ids=user_ids[order], resource_ids=resource_ids[order],
                    offsets=np.concatenate([[0], np.cumsum(counts[order])]), tag_ids=keys,
                    users=tuple(users), resources=tuple(resources),
                    vocabulary=vocabulary)
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
