"""Seeded workload definitions: configs, generated inputs and CLI commands.

A workload is built once per benchmark run, before any timing starts.  The
benchmark seed selects the inputs; the program only ever sees the config
files and the JSON Lines log written here.  See ``bench/README.md`` for why
each workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# 2001-01-01 and 2010-01-01 UTC.  ts_max is always explicit: a null ts_max
# makes the program read the wall clock, and reruns would then differ.
TS_MIN = 978307200
TS_MAX = 1262304000

FOCUS_TAG = "semantic"
# Spellings of the focus tag as users type them; all fold to FOCUS_TAG.
FOCUS_SPELLINGS = ("Semantic", "SEMANTIC", "semantic", "SeMaNtIc")


@dataclass(frozen=True)
class LogCounts:
    """What the generator put into a JSON Lines log, line by line."""

    lines: int
    malformed: int
    out_of_window: int
    accepted: int
    focus_posts: int


@dataclass
class Workload:
    """The CLI commands of one workload and the facts its checks need."""

    commands: list[list[str]]
    out_dir: Path
    config: dict = field(default_factory=dict)
    log: LogCounts | None = None

    def describe(self) -> dict:
        """Inputs as recorded in the results file."""
        return {"commands": [c[0] for c in self.commands],
                "config": self.config,
                "log": asdict(self.log) if self.log else None}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="ascii")


def _synthetic_config(seed: int, n: int, exponent: float, l_max: int,
                      n_rw: int, clustering: bool) -> dict:
    return {
        "seed": seed,
        "graph": {"type": "watts_strogatz", "n": n, "k": 8, "p_rewire": 0.1},
        "walk": {"origin": 0, "n_rw": n_rw,
                 "lengths": {"type": "power_law", "exponent": exponent,
                             "l_min": 1, "l_max": l_max}},
        "observables": {"clustering": clustering},
    }


# Shape of the generated annotation log.
N_TAGS = 8000
ZIPF_EXPONENT = 1.1
FOCUS_SHARE = 0.30
MALFORMED_SHARE = 0.01
OLD_SHARE = 0.01


def generate_log(path: Path, seed: int, n_lines: int) -> LogCounts:
    """Write a seeded JSON Lines annotation log and return what it holds.

    Every line is exactly one of: malformed (truncated JSON), a well-formed
    post stamped before ``TS_MIN``, or a well-formed post inside
    [TS_MIN, TS_MAX].  Posts carry 1-8 tags drawn from a Zipf law over
    ``N_TAGS`` lowercase tags, with all draws made by one vectorised
    ``choice``; a ``FOCUS_SHARE`` of posts also carries the focus tag in
    one of several letter cases.
    """
    rng = np.random.default_rng(seed)
    zipf = np.arange(1, N_TAGS + 1, dtype=np.float64) ** (-ZIPF_EXPONENT)
    per_post = rng.integers(1, 9, size=n_lines)
    offsets = np.concatenate([[0], np.cumsum(per_post)])
    tag_ids = rng.choice(N_TAGS, size=int(offsets[-1]), p=zipf / zipf.sum())
    kind = rng.random(n_lines)
    malformed = kind < MALFORMED_SHARE
    old = (kind >= MALFORMED_SHARE) & (kind < MALFORMED_SHARE + OLD_SHARE)
    focus = rng.random(n_lines) < FOCUS_SHARE
    spelling = rng.integers(len(FOCUS_SPELLINGS), size=n_lines)
    ts = np.where(old, rng.integers(TS_MIN - 10 ** 8, TS_MIN, size=n_lines),
                  rng.integers(TS_MIN, TS_MAX + 1, size=n_lines))
    users = rng.integers(5000, size=n_lines)
    resources = rng.integers(50000, size=n_lines)

    names = [f'"t{i:04d}"' for i in range(N_TAGS)]
    ids = tag_ids.tolist()
    bounds = offsets.tolist()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i in range(n_lines):
            tags = [names[t] for t in ids[bounds[i]:bounds[i + 1]]]
            if focus[i]:
                tags.append(f'"{FOCUS_SPELLINGS[spelling[i]]}"')
            line = (f'{{"user": "u{users[i]}", "resource": "r{resources[i]}", '
                    f'"ts": {ts[i]}, "tags": [{", ".join(tags)}]}}')
            if malformed[i]:
                line = line[:-2]
            fh.write(line + "\n")
    good = ~(malformed | old)
    return LogCounts(lines=n_lines, malformed=int(malformed.sum()),
                     out_of_window=int(old.sum()), accepted=int(good.sum()),
                     focus_posts=int((good & focus).sum()))


# Input sizes, scaled down from the ROADMAP's so that a run of ``--seconds``
# seconds holds repetitions on several inputs; README.md says why each.
FULL_WALKS = 50_000
STAGED_WALKS = 80_000
STAGED_L_MAX = 100
INGEST_LINES = 70_000


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a benchmark run with ``seed``."""
    return seed * 1000 + index


def build(name: str, seed: int, work: Path, threads: int = 2) -> Workload:
    """Write the inputs of workload ``name`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    config_path = work / "config.json"
    common = ["--config", str(config_path), "--out", str(out)]
    log = None
    if name == "full":
        config = _synthetic_config(seed, 200_000, 3.0, 1000, FULL_WALKS,
                                   clustering=True)
        commands = [["run", *common, "--threads", str(threads)]]
    elif name == "staged":
        # Clustering stays off: this workload bypasses it, and at the
        # ROADMAP's size its dense A@A needs several GB (see README.md).
        config = _synthetic_config(seed, 100_000, 2.5, STAGED_L_MAX,
                                   STAGED_WALKS, clustering=False)
        commands = [[stage, *common]
                    for stage in ("generate", "walk", "cooc", "stats", "theory")]
    elif name == "ingest":
        log_path = work / "posts.jsonl"
        log = generate_log(log_path, seed, INGEST_LINES)
        config = {"seed": seed,
                  "ingest": {"input": str(log_path), "focus_tag": FOCUS_TAG,
                             "ts_min": TS_MIN, "ts_max": TS_MAX}}
        commands = [["ingest", *common]]
    else:
        raise ValueError(f"unknown workload {name!r}")
    _write_json(config_path, config)
    return Workload(commands, out, config, log)


WORKLOADS = ("full", "staged", "ingest")
