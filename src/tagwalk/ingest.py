"""Parsing and cleaning of empirical annotation logs.

Input is JSON Lines, one post per line, with fields ``user`` (string),
``resource`` (string), ``ts`` (integer epoch seconds), ``tags`` (array of
strings).  Cleaning lowercases tags, drops duplicate tags within a post,
rejects posts with no tags left, and rejects timestamps outside a validity
window.  The cleaned corpus is ordered by timestamp with input order
breaking ties.

Analysis of a cleaned corpus is organized around one focus tag: the posts
containing it form a stream whose co-occurring tags are the vocabulary
(the focus tag itself is excluded, unlike the walker's origin, which is
included by default; the two vocabularies therefore differ by exactly one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, IngestError, ParameterError
from .cooc import CoocGraph, build_from_posts

__all__ = [
    "DEFAULT_TS_MIN",
    "Post",
    "Corpus",
    "ValidityWindow",
    "RejectionReport",
    "parse_posts",
    "filter_by_tag",
    "vocabulary_growth",
    "empirical_cooc",
    "tag_post_counts",
]

# 2001-01-01 00:00:00 UTC, before which no public tagging system operated
DEFAULT_TS_MIN = 978307200

# Corpus.write_jsonl joins this many posts per write.
WRITE_BLOCK_POSTS = 4096

# The string escaper of json.dumps with ensure_ascii=True, quotes included.
_quote = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class Post:
    """One annotation event: a user attaches a set of tags to a resource."""

    user: str
    resource: str
    ts: int
    tags: frozenset[str]

    def to_json(self) -> str:
        """The bytes of ``json.dumps`` with sorted keys: ASCII, ``", "`` and ``": "``."""
        tags = ", ".join(map(_quote, sorted(self.tags)))
        return (f'{{"resource": {_quote(self.resource)}, "tags": [{tags}], '
                f'"ts": {self.ts}, "user": {_quote(self.user)}}}')


@dataclass(frozen=True)
class ValidityWindow:
    """Inclusive timestamp bounds; ``ts_max=None`` means no upper bound (not "now")."""

    ts_min: int = DEFAULT_TS_MIN
    ts_max: int | None = None

    def resolve(self) -> tuple[int, float]:
        hi = math.inf if self.ts_max is None else self.ts_max
        if hi < self.ts_min:
            raise ParameterError("validity window is empty")
        return self.ts_min, hi


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

    def as_rows(self) -> list[tuple[str, int]]:
        return [("bad_timestamp", self.bad_timestamp),
                ("malformed", self.malformed),
                ("no_tags", self.no_tags)]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("reason,count\n")
            for reason, count in self.as_rows():
                fh.write(f"{reason},{count}\n")


@dataclass(frozen=True)
class Corpus:
    """Cleaned posts in ascending timestamp order (ties keep input order)."""

    posts: tuple[Post, ...]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.posts)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for lo in range(0, len(self.posts), WRITE_BLOCK_POSTS):
                block = self.posts[lo:lo + WRITE_BLOCK_POSTS]
                fh.write("".join(f"{post.to_json()}\n" for post in block))


def _clean_line(line: str, lo: int, hi: float) -> Post | str:
    """Parse one input line; returns a Post or a rejection reason."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
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
    folded = frozenset(t.lower() for t in tags if t)
    if not folded:
        return "no_tags"
    if not (lo <= ts <= hi):
        return "bad_timestamp"
    return Post(user=user, resource=resource, ts=ts, tags=folded)


def parse_posts(source, window: ValidityWindow | None = None,
                strict: bool = False,
                source_name: str | None = None) -> tuple[Corpus, RejectionReport]:
    """Read, clean, and time-order a JSON-Lines post log.

    ``source`` is a path or an iterable of lines.  Malformed lines are
    counted and skipped, or abort with line number when ``strict``.
    """
    window = window or ValidityWindow()
    lo, hi = window.resolve()
    report = RejectionReport()
    kept: list[Post] = []

    def consume(lines: Iterable[str], name: str | None) -> None:
        for lineno, line in enumerate(lines, start=1):
            outcome = _clean_line(line.strip(), lo, hi)
            if isinstance(outcome, Post):
                report.accepted += 1
                kept.append(outcome)
            else:
                if outcome == "malformed" and strict:
                    where = f"{name}:{lineno}" if name else f"line {lineno}"
                    raise IngestError(f"malformed post at {where}")
                setattr(report, outcome, getattr(report, outcome) + 1)

    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        name = source_name or str(source)
        with open(source, "r", encoding="utf-8") as fh:
            consume(fh, name)
    else:
        name = source_name
        consume(source, source_name)

    ordered = tuple(sorted(kept, key=lambda p: p.ts))
    provenance = {"source": name,
                  "lines": report.total_lines,
                  "ts_min": window.ts_min, "ts_max": window.ts_max}
    return Corpus(posts=ordered, provenance=provenance), report


def filter_by_tag(corpus: Corpus, focus_tag: str) -> tuple[Post, ...]:
    """Posts whose tag set contains the focus tag, order preserved."""
    if focus_tag != focus_tag.lower():
        raise ParameterError("focus tag must be lowercase")
    return tuple(p for p in corpus.posts if focus_tag in p.tags)


def vocabulary_growth(stream: Sequence[Post],
                      focus_tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct co-occurring tags after each post of a focus-tag stream.

    Returns ``(n_posts, n_distinct)`` with one point per post; the focus
    tag itself never counts toward the vocabulary.
    """
    seen: set[str] = set()
    distinct = np.empty(len(stream), dtype=np.int64)
    for idx, post in enumerate(stream):
        if focus_tag not in post.tags:
            raise ContractError(f"post {idx} does not contain focus tag {focus_tag!r}")
        seen.update(post.tags)
        seen.discard(focus_tag)
        distinct[idx] = len(seen)
    return np.arange(1, len(stream) + 1, dtype=np.int64), distinct


def empirical_cooc(stream: Sequence[Post], focus_tag: str) -> CoocGraph:
    """Co-occurrence graph of the focus tag's stream (focus tag excluded)."""
    return build_from_posts([p.tags for p in stream], focus_tag)


def tag_post_counts(stream: Sequence[Post], focus_tag: str) -> dict[str, int]:
    """Number of posts containing each co-occurring tag (focus excluded)."""
    counts: dict[str, int] = {}
    for post in stream:
        for tag in post.tags:
            if tag != focus_tag:
                counts[tag] = counts.get(tag, 0) + 1
    return counts

