"""Config-driven experiment pipelines with reproducible artifact directories.

A single JSON config drives either a synthetic run (substrate, walks,
co-occurrence network, observables, ring-model prediction) or an empirical
ingest run (cleaned corpus, focus-tag stream, the same observables).  All
randomness flows from one master seed, outputs are byte-stable across
reruns and thread counts, and the manifest records the fully resolved
config plus its hash so a directory can be reproduced from the manifest
alone.
"""

# No ``from __future__ import annotations``: the config loader reads the
# dataclasses' annotations as types, and evaluating them from strings on
# first use would cost more than the load itself.

import functools
import hashlib
import json
import math
import re
import sys
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import cooc, ingest, observables, theory, walker
from .errors import ConfigError, ContractError, FitError, ParameterError
from .formats import read_csv, sha256_of, write_csv, write_json
from .rng import derive_seed
from .substrate import (ErdosRenyi, GraphVariant, RegularTree, SubstrateGraph,
                        WattsStrogatz, bfs_rings, build_graph)
from .walker import FixedLength, PowerLawLength, WalkConfig, WalkEnsemble

__all__ = [
    "ObservableFlags",
    "IngestSource",
    "ExperimentConfig",
    "IngestConfig",
    "load_config",
    "run_experiment",
    "run_ingest",
    "run_stage",
    "compare",
]

FORMAT_VERSION = 1

# salts separating auxiliary random streams from the walk streams
_GRAPH_SALT = 0x67727068
_SIM_SALT = 0x73696D70

# Fit windows: vocabulary growth over n_rw >= HEAPS_FIT_MIN, frequency rank
# over ranks [1, ZIPF_FIT_MAX_RANK], and the weight versus degree-product
# tail over the top TAIL_FIT_DECADES decades of the product axis.
HEAPS_FIT_MIN = 100.0
ZIPF_FIT_MAX_RANK = 1000
TAIL_FIT_DECADES = 2.5

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableFlags:
    """Every observable is written; ``clustering`` false leaves out C(k), and
    sampled cosine similarity stops at ``similarity_pair_budget`` pairs."""

    clustering: bool = True
    similarity_pair_budget: int = 10 ** 6

    def __post_init__(self):
        if self.similarity_pair_budget < 1:
            raise ParameterError("similarity_pair_budget must be >= 1")


@dataclass(frozen=True, kw_only=True)
class IngestSource(ingest.ValidityWindow):
    """The annotation log of an empirical run, its focus tag and validity window."""

    input: str
    focus_tag: str


@dataclass(frozen=True, kw_only=True)
class _RunConfig:
    seed: int
    observables: ObservableFlags = ObservableFlags()
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ParameterError(f"unsupported format_version {self.format_version}")

    def resolved(self) -> dict:
        """The config as it ran, every default filled in: the inverse of :func:`load_config`."""
        return _dump(self)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(_RunConfig):
    """Resolved synthetic-run configuration."""

    graph: GraphVariant
    walk: WalkConfig
    emit_traces: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.walk.origin >= self.graph.node_count:
            raise ParameterError(f"walk.origin must be < {self.graph.node_count}, "
                                 "the graph's node count")

    @property
    def graph_seed(self) -> int:
        return derive_seed(self.seed, _GRAPH_SALT)


@dataclass(frozen=True, kw_only=True)
class IngestConfig(_RunConfig):
    """Resolved empirical-run configuration."""

    ingest: IngestSource


# The value of "type" that picks each class out of a union of sections.
_TYPE_NAMES = {WattsStrogatz: "watts_strogatz", RegularTree: "regular_tree",
               ErdosRenyi: "erdos_renyi", FixedLength: "fixed",
               PowerLawLength: "power_law"}
_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", type(None): "null"}


_hints = functools.cache(typing.get_type_hints)


def _build(cls, d, path: str, seed: int | None = None):
    """``cls`` read off the config object ``d`` at the dotted key ``path``.

    The keys of ``d`` are the fields of ``cls``, with their annotated types
    and their defaults.  A section's ``seed`` field is no key of its own
    but the config's ``seed``.  A ``ParameterError`` from the constructor
    becomes a ``ConfigError`` that names the section.
    """
    where = path or "config"
    keys = {f.name for f in fields(cls)} - ({"seed"} if path else set())
    unknown = sorted(set(d) - keys)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    kw = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        if f.name not in keys:
            kw["seed"] = seed
        elif f.name in d:
            kw[f.name] = _value(_hints(cls)[f.name], d[f.name], key, kw.get("seed", seed))
        elif f.default is MISSING:
            raise ConfigError(f"missing required key '{key}'")
    try:
        return cls(**kw)
    except ParameterError as exc:
        # a check that opens with a field's name (or dotted key) names its dotted key
        if str(exc).split(" ", 1)[0].split(".")[0] in keys:
            raise ConfigError(f"{path}.{exc}" if path else str(exc)) from None
        raise ConfigError(f"{where}: {exc}") from None


def _value(hint, value, key: str, seed: int | None):
    """``value`` read as a ``hint``: a scalar, a section, or a union of them."""
    options = typing.get_args(hint) or (hint,)
    sections = [c for c in options if is_dataclass(c)]
    if sections and isinstance(value, dict):
        if sections[0] not in _TYPE_NAMES:
            return _build(sections[0], value, key, seed)
        value = dict(value)
        kind = value.pop("type", None)
        for cls in sections:
            if _TYPE_NAMES[cls] == kind:
                return _build(cls, value, key, seed)
        names = ", ".join(repr(_TYPE_NAMES[c]) for c in sections)
        raise ConfigError(f"{key}.type must be one of {names}, got {kind!r}")
    for kind in options:
        if type(value) is kind or (kind is float and type(value) is int):
            if kind is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{key} must be a finite number")
            return float(value) if kind is float else value
    expected = " or ".join(dict.fromkeys(_KINDS.get(kind, "an object") for kind in options))
    raise ConfigError(f"{key} must be {expected}")


def _dump(obj, nested: bool = False) -> dict:
    """The config object of a section: the inverse of :func:`_build`."""
    d = {"type": _TYPE_NAMES[type(obj)]} if type(obj) in _TYPE_NAMES else {}
    for f in fields(obj):
        if not (nested and f.name == "seed"):
            v = getattr(obj, f.name)
            d[f.name] = _dump(v, nested=True) if is_dataclass(v) else v
    return d


def load_config(path, seed_override: int | None = None) -> ExperimentConfig | IngestConfig:
    """Parse a config file into an ExperimentConfig or IngestConfig.

    The file's keys, types, defaults and ranges are those of the config
    dataclasses; any violation raises ``ConfigError`` naming the dotted key.
    """
    try:
        d = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:    # a bad byte, bad JSON, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if seed_override is not None:
        d["seed"] = seed_override
    return _build(IngestConfig if "ingest" in d else ExperimentConfig, d, "")


# ---------------------------------------------------------------------------
# Fit helpers
# ---------------------------------------------------------------------------

def _fit_or_none(x, y, window) -> dict | None:
    try:
        fr = observables.fit_power_law(x, y, window)
    except FitError:
        return None
    return {"exponent": fr.exponent, "stderr": fr.stderr,
            "window": [fr.window[0], fr.window[1]], "points": fr.points}


# ---------------------------------------------------------------------------
# The stats stage (shared by synthetic and empirical runs)
# ---------------------------------------------------------------------------

def _stats(cfg: ExperimentConfig | IngestConfig, out: Path, g: cooc.CoocGraph,
           heaps: tuple[np.ndarray, np.ndarray] | None, counts, n_max: int,
           threads: int) -> None:
    """Observables and ``fits.json`` of a co-occurrence graph.

    ``heaps`` is the vocabulary curve, fitted over ``[HEAPS_FIT_MIN, n_max]``;
    ``counts`` the frequencies behind the frequency-rank series.  Either
    may be None when it is not at hand, and its results are then left out.
    Every other observable is written, clustering unless switched off.
    ``threads`` workers share the sampled cosine similarities.
    """
    flags = cfg.observables
    fits: dict = {"heaps": None if heaps is None else
                  _fit_or_none(*heaps, (HEAPS_FIT_MIN, max(n_max, 1)))}
    obs_dir = out / "observables"
    obs_dir.mkdir(parents=True, exist_ok=True)
    observables.assert_accounting(g)
    pk, ps, pw = observables.degree_strength_weight_distributions(g)
    for name, dist in [("degree_dist", pk), ("strength_dist", ps),
                       ("weight_dist", pw)]:
        write_csv(obs_dir / f"{name}.csv", ["value", "count"],
                  [dist.values, dist.counts])
    series = observables.s_of_k(g)
    write_csv(obs_dir / "s_of_k.csv", ["k", "mean_s", "n"],
              [series.x, series.y, series.n])
    plain, weighted = observables.knn_of_k(g)
    write_csv(obs_dir / "knn_of_k.csv", ["k", "knn", "knn_w", "n"],
              [plain.x, plain.y, weighted.y, plain.n])
    if flags.clustering:
        plain, weighted = observables.clustering_of_k(g)
        write_csv(obs_dir / "clustering_of_k.csv", ["k", "c", "c_w", "n"],
                  [plain.x, plain.y, weighted.y, plain.n])
    products, weights, binned = observables.weight_vs_kikj(g)
    write_csv(obs_dir / "weight_vs_product.csv", ["kikj", "mean_w", "n"],
              [binned.x, binned.y, binned.n])
    fits["weight_product_plateau"] = fits["weight_product_tail"] = None
    if products.size:
        decile = np.quantile(products, 0.10)
        fits["weight_product_plateau"] = float(weights[products <= decile].mean())
        p_max = float(products.max())
        fits["weight_product_tail"] = _fit_or_none(
            binned.x, binned.y, (p_max / 10 ** TAIL_FIT_DECADES, p_max))
    hist = observables.cosine_similarity_distribution(
        g, pair_budget=flags.similarity_pair_budget,
        seed=derive_seed(cfg.seed, _SIM_SALT), threads=threads)
    write_csv(obs_dir / "similarity_hist.csv", ["bin_lo", "bin_hi", "count"],
              [hist.edges[:-1], hist.edges[1:], hist.counts])
    fits["similarity_mode"] = (float(hist.mode_center())
                               if hist.counts.sum() else None)
    if counts is not None:
        ranks, ordered = observables.frequency_rank(counts)
        write_csv(obs_dir / "frequency_rank.csv", ["rank", "count"], [ranks, ordered])
        fits["zipf"] = _fit_or_none(ranks, ordered, (1, ZIPF_FIT_MAX_RANK))
    zipf = fits.get("zipf")
    fits["zipf_heaps_product"] = (abs(zipf["exponent"]) * fits["heaps"]["exponent"]
                                  if fits["heaps"] and zipf else None)
    write_json(out / "fits.json", fits)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _write_manifest(out: Path, resolved: dict, provenance: dict | None = None) -> None:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {"format_version": resolved["format_version"],
                "config": resolved,
                "config_sha256": hashlib.sha256(blob.encode("ascii")).hexdigest()}
    if provenance is not None:
        manifest["provenance"] = provenance
    write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Synthetic pipeline
# ---------------------------------------------------------------------------

def _read_heaps(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_rw`` and ``n_distinct`` columns of a ``heaps.csv``.

    As in :func:`read_csv`, blank and ``#`` lines are skipped and the first
    other line is the header.  Every later line must hold two counts below
    10**18, else ``ContractError`` at ``path:line``.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = [(number, line.strip()) for number, line in enumerate(fh, start=1)]
    lines = [(number, line) for number, line in lines if line and not line.startswith("#")]
    if not lines:
        raise ContractError(f"{path}: empty CSV")
    for number, line in lines[1:]:
        if not re.fullmatch(r"[0-9]{1,18},[0-9]{1,18}", line):
            raise ContractError(f"{path}:{number}: expected two counts "
                                f"'n_rw,n_distinct', got {line!r}")
    table = np.asarray([line.split(",") for _, line in lines[1:]], dtype=np.int64)
    table = table.reshape(-1, 2)
    return table[:, 0], table[:, 1]


# Each stage is a function of in-memory inputs that writes its artifacts and
# returns what later stages read.  ``run`` chains them; ``run_stage`` loads
# a stage's inputs from the artifact directory and calls the same function.

def _generate(cfg: ExperimentConfig, out: Path) -> SubstrateGraph:
    graph = build_graph(cfg.graph, cfg.graph_seed)
    graph.write_edge_list(out / "substrate.edges")
    return graph


def _walk(cfg: ExperimentConfig, out: Path, graph: SubstrateGraph, traces: bool):
    """Walks, their traces (when ``traces``) and ``heaps.csv``.

    Returns the deduplicated (walk, node) pairs, the vocabulary curve and
    the node frequencies.
    """
    ens, pairs, heaps, freqs = walker.run_ensemble(graph, cfg.walk)
    if traces:
        ens.write_traces(out / "traces.txt")
    write_csv(out / "heaps.csv", ["n_rw", "n_distinct"], heaps)
    return pairs, heaps, freqs


def _cooc(out: Path, pairs: tuple[np.ndarray, np.ndarray]) -> cooc.CoocGraph:
    g = cooc.project(*pairs)
    g.write_edge_list(out / "cooc.edges")
    return g


def _theory(cfg: ExperimentConfig, out: Path, graph: SubstrateGraph,
            heaps: tuple[np.ndarray, np.ndarray]) -> None:
    """Ring-model prediction from the substrate's BFS shells, at the points
    of ``heaps`` and compared with it."""
    theory_dir = out / "theory"
    theory_dir.mkdir(parents=True, exist_ok=True)
    spec = theory.RingModelSpec(rings=bfs_rings(graph, cfg.walk.origin),
                                lengths=cfg.walk.lengths)
    n_values, simulated = heaps
    predicted = theory.n_distinct_random_length(spec, n_values.astype(np.float64))
    if not cfg.walk.count_origin:
        # the origin ring contributes exactly 1 once there is a walk, 0 before
        predicted = predicted - np.minimum(n_values, 1)
    write_csv(theory_dir / "prediction.csv", ["n_rw", "prediction"],
              [n_values, predicted])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(predicted > 0, simulated / predicted, np.nan)
    write_csv(theory_dir / "comparison.csv",
              ["n_rw", "simulated", "predicted", "ratio"],
              [n_values, simulated, predicted, ratio])


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> Path:
    """End-to-end synthetic run: generate, walk, cooc, stats and theory, chained in memory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = _generate(cfg, out)
    pairs, heaps, freqs = _walk(cfg, out, graph, cfg.emit_traces)
    g = _cooc(out, pairs)
    del pairs  # only the projection needs them
    _stats(cfg, out, g, heaps, freqs, cfg.walk.n_rw, threads)
    _theory(cfg, out, graph, heaps)
    _write_manifest(out, cfg.resolved())
    return out


def _substrate(cfg: ExperimentConfig, out: Path, write: bool = False) -> SubstrateGraph:
    """``out``'s ``substrate.edges``, which must hold ``walk.origin``; when it
    is missing, the configured graph, written there when ``write``."""
    path = out / "substrate.edges"
    if not path.exists():
        return _generate(cfg, out) if write else build_graph(cfg.graph, cfg.graph_seed)
    graph = SubstrateGraph.read_edge_list(path)
    if cfg.walk.origin >= graph.node_count:
        raise ContractError(f"{path}: walk.origin {cfg.walk.origin} is not one "
                            f"of its {graph.node_count} nodes")
    return graph


def _input(out: Path, name: str, stage: str) -> Path:
    path = out / name
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run the {stage} stage first")
    return path


def run_stage(cfg: ExperimentConfig, out_dir, stage: str, threads: int = 1) -> Path:
    """Run one pipeline stage into (or out of) an artifact directory.

    Stages: ``generate`` writes the substrate; ``walk`` writes traces and
    the vocabulary curve; ``cooc`` projects an existing traces file;
    ``stats`` analyzes an existing co-occurrence network; ``theory`` adds
    the ring-model prediction.  Later stages read earlier stages' files,
    so externally supplied inputs in the same formats work too.  A missing
    substrate is generated, and written only by ``walk``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    count_origin = cfg.walk.count_origin
    if stage == "generate":
        _generate(cfg, out)
    elif stage == "walk":
        _walk(cfg, out, _substrate(cfg, out, write=True), traces=True)
    elif stage == "cooc":
        ens = WalkEnsemble.read_traces(_input(out, "traces.txt", "walk"),
                                       _substrate(cfg, out), cfg.walk.origin)
        _cooc(out, ens.walk_node_pairs(count_origin=count_origin))
    elif stage == "stats":
        g = cooc.CoocGraph.read_edge_list(_input(out, "cooc.edges", "cooc"))
        heaps_path, traces_path = out / "heaps.csv", out / "traces.txt"
        heaps = _read_heaps(heaps_path) if heaps_path.exists() else None
        freqs = None
        if traces_path.exists():
            ens = WalkEnsemble.read_traces(traces_path, _substrate(cfg, out),
                                           cfg.walk.origin)
            freqs = walker.node_frequencies(
                ens.walk_node_pairs(count_origin=count_origin)[1], ens.node_count)
        _stats(cfg, out, g, heaps, freqs, cfg.walk.n_rw, threads)
    elif stage == "theory":
        heaps = _read_heaps(_input(out, "heaps.csv", "walk"))
        _theory(cfg, out, _substrate(cfg, out), heaps)
    else:
        raise ParameterError(f"unknown stage '{stage}'")
    _write_manifest(out, cfg.resolved())
    return out


# ---------------------------------------------------------------------------
# Empirical pipeline
# ---------------------------------------------------------------------------

def run_ingest(cfg: IngestConfig, out_dir, strict: bool = False, threads: int = 1) -> Path:
    """Parse, clean, and analyze an annotation log around one focus tag."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source = cfg.ingest
    corpus, report = ingest.parse_posts(source.input, window=source, strict=strict)
    corpus.write_jsonl(out / "corpus.jsonl")
    report.write_csv(out / "rejects.csv")
    stream = ingest.filter_by_tag(corpus, source.focus_tag.lower())
    del corpus  # the analysis reads only the focus stream
    # the stream's (post, tag) pairs take the path of a walk ensemble's pairs
    pairs, n = stream.tag_pairs(), len(stream)
    heaps = walker.heaps_curve(*pairs, n, np.arange(1, n + 1))
    write_csv(out / "heaps.csv", ["n_rw", "n_distinct"], heaps)
    g = _cooc(out, pairs)
    stream.write_labels(out / "cooc_labels.tsv")   # the graph's ids are vocabulary positions
    _stats(cfg, out, g, heaps, walker.node_frequencies(pairs[1], len(stream.vocabulary)),
           n, threads)
    provenance = {"source": source.input, "lines": report.total_lines,
                  "ts_min": source.ts_min, "ts_max": source.ts_max,
                  "input_sha256": sha256_of(source.input), "accepted": report.accepted,
                  "focus_posts": n}
    _write_manifest(out, cfg.resolved(), provenance=provenance)
    return out


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------

def _compare_csv(left: Path, right: Path, name: str, out: Path,
                 warnings: list[str]) -> None:
    lp, rp = left / name, right / name
    if not lp.exists() or not rp.exists():
        missing = "left" if not lp.exists() else "right"
        if lp.exists() or rp.exists():
            warnings.append(f"{name} missing on {missing}")
        return
    lh, lrows = read_csv(lp)
    rh, rrows = read_csv(rp)
    shared = [c for c in lh[1:] if c in rh[1:]]
    if not shared:
        warnings.append(f"{name} has no shared data columns")
        return
    for side, own, other in (("right", lh, rh), ("left", rh, lh)):
        missing = [c for c in own[1:] if c not in other[1:]]
        if missing:
            warnings.append(f"{name}: column(s) {', '.join(missing)} missing on {side}")
    pairs = [(lh.index(c), rh.index(c)) for c in shared]
    rmap = {row[0]: row for row in rrows}
    joined = [[row[0]] + [v for i, j in pairs for v in (row[i], rmap[row[0]][j])]
              for row in lrows if row[0] in rmap]
    dest = out / name
    dest.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dest, [lh[0]] + [f"{side}_{c}" for c in shared for side in ("left", "right")],
              zip(*joined))
    if not joined:
        warnings.append(f"{name}: no common x values")


def _read_fits(directory: Path) -> dict:
    """Fitted exponents of an artifact directory, by key; empty when it has none.

    A key holds null, a finite number (not a bool), or an object whose
    ``exponent`` is one of those; anything else raises ``ContractError``.
    """
    path = directory / "fits.json"
    if not path.exists():
        return {}
    try:
        fits = json.loads(path.read_text(encoding="ascii"))
    except ValueError as exc:
        raise ContractError(f"{path}: {exc}") from None
    if not isinstance(fits, dict):
        raise ContractError(f"{path}: expected a JSON object")
    exponents = {}
    for key, value in fits.items():
        if isinstance(value, dict):
            value = value.get("exponent", ...)
        if not (value is None or type(value) is int
                or type(value) is float and math.isfinite(value)):
            raise ContractError(f"{path}: fit {key!r} is neither null, a finite number "
                                f"nor an object with such an exponent")
        exponents[key] = value
    return exponents


def compare(left_dir, right_dir, out_dir) -> Path:
    """Side-by-side report of two artifact directories.

    Joins ``heaps.csv`` and every ``observables/*.csv`` of either side on
    its x column and diffs the fitted exponents; files present on only one
    side are listed as warnings in summary.json rather than failing.  A
    side that is not a directory raises ``ContractError``.
    """
    left, right, out = Path(left_dir), Path(right_dir), Path(out_dir)
    for side in (left, right):
        if not side.is_dir():
            raise ContractError(f"{side}: not a directory")
    out.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    _compare_csv(left, right, "heaps.csv", out, warnings)
    names = {p.name for side in (left, right) for p in (side / "observables").glob("*.csv")}
    for name in sorted(names):
        _compare_csv(left, right, f"observables/{name}", out, warnings)

    summary: dict = {"left": str(left), "right": str(right), "fits": {}}
    lfits, rfits = _read_fits(left), _read_fits(right)
    for key in sorted(set(lfits) | set(rfits)):
        lv, rv = lfits.get(key), rfits.get(key)
        if lv is None or rv is None:
            warnings.append(f"fit '{key}' unavailable on "
                            f"{'left' if lv is None else 'right'}")
            continue
        summary["fits"][key] = {"left": lv, "right": rv,
                                "difference": lv - rv}
    summary["warnings"] = sorted(warnings)
    write_json(out / "summary.json", summary)
    return out
