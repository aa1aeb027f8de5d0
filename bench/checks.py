"""Output checks that hold for every seed, and the artifact tree hash.

Each check returns a list of problems; an empty list means the run's
outputs are correct.  A problem counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from workloads import LogCounts

_HEADER = re.compile(rb"# nodes=(\d+) edges=(\d+) total_weight=(\d+)\n")


def _last_heaps_distinct(path: Path) -> int:
    last = path.read_text(encoding="ascii").strip().splitlines()[-1]
    return int(last.split(",")[1])


def _data_rows(path: Path) -> int:
    return len(path.read_text(encoding="ascii").strip().splitlines()) - 1


def check_cooc_edges(path: Path) -> tuple[int | None, list[str]]:
    """Declared node count, and whether the header agrees with the body."""
    data = path.read_bytes()
    match = _HEADER.match(data)
    if not match:
        return None, [f"{path.name}: bad header"]
    nodes, edges, total = (int(g) for g in match.groups())
    body = np.array(data[match.end():].split(), dtype=np.int64)
    problems = []
    if body.size % 3:
        problems.append(f"{path.name}: body is not i/j/w triples")
        return nodes, problems
    triples = body.reshape(-1, 3)
    if triples.shape[0] != edges:
        problems.append(f"{path.name}: header edges={edges}, "
                        f"body has {triples.shape[0]}")
    if int(triples[:, 2].sum()) != total:
        problems.append(f"{path.name}: header total_weight={total}, "
                        f"body sums to {int(triples[:, 2].sum())}")
    return nodes, problems


def check_vocabulary(out: Path) -> list[str]:
    """heaps.csv, cooc.edges and frequency_rank.csv agree on the vocabulary."""
    nodes, problems = check_cooc_edges(out / "cooc.edges")
    heaps = _last_heaps_distinct(out / "heaps.csv")
    ranks = _data_rows(out / "observables" / "frequency_rank.csv")
    if not heaps == nodes == ranks:
        problems.append(f"vocabulary disagrees: heaps.csv {heaps}, "
                        f"cooc.edges nodes={nodes}, frequency_rank.csv {ranks}")
    return problems


def check_ingest(out: Path, log: LogCounts) -> list[str]:
    """Rejections and acceptances match what the generator wrote."""
    rows = (out / "rejects.csv").read_text(encoding="ascii").split()[1:]
    rejects = {reason: int(n) for reason, n in (r.split(",") for r in rows)}
    provenance = json.loads((out / "manifest.json").read_text())["provenance"]
    expected = {"malformed": log.malformed, "bad_timestamp": log.out_of_window,
                "no_tags": 0}
    problems = [f"rejects.csv {reason}={rejects.get(reason)}, generated {n}"
                for reason, n in expected.items() if rejects.get(reason) != n]
    accepted = provenance["accepted"]
    if sum(rejects.values()) + accepted != log.lines:
        problems.append(f"rejects {sum(rejects.values())} + accepted {accepted}"
                        f" != {log.lines} lines")
    if accepted != log.accepted:
        problems.append(f"accepted {accepted}, generated {log.accepted}")
    if provenance["focus_posts"] != log.focus_posts:
        problems.append(f"focus_posts {provenance['focus_posts']}, "
                        f"generated {log.focus_posts}")
    return problems


def check_outputs(out: Path, log: LogCounts | None) -> list[str]:
    try:
        problems = check_vocabulary(out)
        if log is not None:
            problems += check_ingest(out, log)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
    return problems


def tree_hash(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of every file under ``root``
    matching ``pattern``, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
