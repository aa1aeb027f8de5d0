"""Config-driven experiment pipelines with reproducible artifact directories.

A single JSON config drives either a synthetic run (substrate, walks,
co-occurrence network, observables, ring-model prediction) or an empirical
ingest run (cleaned corpus, focus-tag stream, the same observables).  All
randomness flows from one master seed, outputs are byte-stable across
reruns and thread counts, and the manifest records the fully resolved
config plus its hash so a directory can be reproduced from the manifest
alone.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import cooc, ingest, observables, theory, walker
from .errors import ConfigError, ContractError, FitError, ParameterError
from .formats import read_csv, sha256_of, write_csv, write_json
from .rng import derive_seed
from .substrate import (ErdosRenyi, GraphSpec, RegularTree, SubstrateGraph,
                        WattsStrogatz, bfs_rings, build_graph)
from .walker import (FixedLength, LengthDist, PowerLawLength, WalkConfig,
                     WalkEnsemble)

__all__ = [
    "FitWindows",
    "ObservableFlags",
    "TheoryOptions",
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

_OBSERVABLE_FILES = [
    "degree_dist.csv", "strength_dist.csv", "weight_dist.csv",
    "s_of_k.csv", "knn_of_k.csv", "clustering_of_k.csv",
    "weight_vs_product.csv", "similarity_hist.csv", "frequency_rank.csv",
]


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _get(mapping: dict, key: str, kind, where: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"'{key}' in {where} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise ConfigError(f"'{key}' in {where} must be {kind.__name__}")
    return value


@dataclass(frozen=True)
class FitWindows:
    """Documented default fitting windows for the standard analyses.

    Vocabulary growth is fitted for n_rw >= heaps_min; the frequency-rank
    series over ranks [1, zipf_max_rank]; the weight versus degree-product
    tail over the top tail_decades decades of the product axis, with the
    plateau read off the lowest product decile.
    """

    heaps_min: float = 100.0
    zipf_max_rank: int = 1000
    tail_decades: float = 2.5

    @classmethod
    def from_dict(cls, d: dict) -> "FitWindows":
        _check_keys(d, {"heaps_min", "zipf_max_rank", "tail_decades"}, "fits")
        return cls(heaps_min=_get(d, "heaps_min", float, "fits", 100.0),
                   zipf_max_rank=_get(d, "zipf_max_rank", int, "fits", 1000),
                   tail_decades=_get(d, "tail_decades", float, "fits", 2.5))


@dataclass(frozen=True)
class ObservableFlags:
    distributions: bool = True
    s_of_k: bool = True
    knn: bool = True
    clustering: bool = True
    weight_vs_product: bool = True
    similarity: bool = True
    frequency_rank: bool = True
    similarity_pair_budget: int = 10 ** 6

    @classmethod
    def from_dict(cls, d: dict) -> "ObservableFlags":
        allowed = {"distributions", "s_of_k", "knn", "clustering",
                   "weight_vs_product", "similarity", "frequency_rank",
                   "similarity_pair_budget"}
        _check_keys(d, allowed, "observables")
        kw = {}
        for key in allowed - {"similarity_pair_budget"}:
            kw[key] = _get(d, key, bool, "observables", True)
        kw["similarity_pair_budget"] = _get(d, "similarity_pair_budget", int,
                                            "observables", 10 ** 6)
        return cls(**kw)


@dataclass(frozen=True)
class TheoryOptions:
    """Ring-model prediction settings for the theory stage."""

    ring_prediction: bool = True
    rings: str | dict = "bfs"      # "bfs" or a ring-structure dict
    n_grid: dict | None = None     # {"min","max","points"} log grid override

    @classmethod
    def from_dict(cls, d: dict) -> "TheoryOptions":
        _check_keys(d, {"ring_prediction", "rings", "n_grid"}, "theory")
        rings = d.get("rings", "bfs")
        if isinstance(rings, dict):
            _check_keys(rings, {"type", "a", "c_n", "z"}, "theory.rings")
            kind = _get(rings, "type", str, "theory.rings", required=True)
            if kind not in ("power_law", "exponential"):
                raise ConfigError(f"unknown ring structure type '{kind}'")
        elif rings != "bfs":
            raise ConfigError("theory.rings must be 'bfs' or a ring-structure object")
        n_grid = d.get("n_grid")
        if n_grid is not None:
            _check_keys(n_grid, {"min", "max", "points"}, "theory.n_grid")
            for key in ("min", "max", "points"):
                if key not in n_grid:
                    raise ConfigError(f"missing '{key}' in theory.n_grid")
        return cls(ring_prediction=_get(d, "ring_prediction", bool, "theory", True),
                   rings=rings, n_grid=n_grid)

    def ring_structure(self, graph: SubstrateGraph, origin: int):
        if self.rings == "bfs":
            return bfs_rings(graph, origin)
        if self.rings["type"] == "power_law":
            return theory.PowerLawRings(a=float(self.rings.get("a", 1.0)),
                                        c_n=float(self.rings.get("c_n", 1.0)))
        return theory.ExponentialRings(z=float(self.rings["z"]))


def _lengths_from_dict(d: dict) -> LengthDist:
    kind = _get(d, "type", str, "walk.lengths", required=True)
    if kind == "fixed":
        _check_keys(d, {"type", "value"}, "walk.lengths")
        return FixedLength(_get(d, "value", int, "walk.lengths", required=True))
    if kind == "power_law":
        _check_keys(d, {"type", "exponent", "l_min", "l_max"}, "walk.lengths")
        return PowerLawLength(
            exponent=_get(d, "exponent", float, "walk.lengths", 3.0),
            l_min=_get(d, "l_min", int, "walk.lengths", 1),
            l_max=_get(d, "l_max", int, "walk.lengths", 1000))
    raise ConfigError(f"unknown length distribution type '{kind}'")


def _lengths_to_dict(lengths: LengthDist) -> dict:
    if isinstance(lengths, FixedLength):
        return {"type": "fixed", "value": lengths.value}
    return {"type": "power_law", "exponent": lengths.exponent,
            "l_min": lengths.l_min, "l_max": lengths.l_max}


def _graph_from_dict(d: dict, seed: int) -> GraphSpec:
    kind = _get(d, "type", str, "graph", required=True)
    if kind == "watts_strogatz":
        _check_keys(d, {"type", "n", "k", "p_rewire"}, "graph")
        variant = WattsStrogatz(n=_get(d, "n", int, "graph", required=True),
                                k=_get(d, "k", int, "graph", required=True),
                                p_rewire=_get(d, "p_rewire", float, "graph",
                                              required=True))
    elif kind == "regular_tree":
        _check_keys(d, {"type", "z", "depth"}, "graph")
        variant = RegularTree(z=_get(d, "z", int, "graph", required=True),
                              depth=_get(d, "depth", int, "graph", required=True))
    elif kind == "erdos_renyi":
        _check_keys(d, {"type", "n", "mean_degree"}, "graph")
        variant = ErdosRenyi(n=_get(d, "n", int, "graph", required=True),
                             mean_degree=_get(d, "mean_degree", float, "graph",
                                              required=True))
    else:
        raise ConfigError(f"unknown graph type '{kind}'")
    return GraphSpec(variant=variant, seed=derive_seed(seed, _GRAPH_SALT))


def _graph_to_dict(spec: GraphSpec) -> dict:
    v = spec.variant
    if isinstance(v, WattsStrogatz):
        return {"type": "watts_strogatz", "n": v.n, "k": v.k, "p_rewire": v.p_rewire}
    if isinstance(v, RegularTree):
        return {"type": "regular_tree", "z": v.z, "depth": v.depth}
    return {"type": "erdos_renyi", "n": v.n, "mean_degree": v.mean_degree}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved synthetic-run configuration."""

    seed: int
    graph: GraphSpec
    walk: WalkConfig
    observables: ObservableFlags = ObservableFlags()
    theory: TheoryOptions = TheoryOptions()
    fits: FitWindows = FitWindows()
    emit_traces: bool = False
    format_version: int = FORMAT_VERSION

    @classmethod
    def from_dict(cls, d: dict, seed_override: int | None = None) -> "ExperimentConfig":
        allowed = {"format_version", "seed", "graph", "walk", "observables",
                   "theory", "fits", "emit_traces"}
        _check_keys(d, allowed, "config")
        version = _get(d, "format_version", int, "config", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported format_version {version}")
        seed = seed_override if seed_override is not None else \
            _get(d, "seed", int, "config", required=True)
        graph = _graph_from_dict(_get(d, "graph", dict, "config", required=True), seed)
        wd = _get(d, "walk", dict, "config", required=True)
        _check_keys(wd, {"origin", "n_rw", "lengths", "count_origin",
                         "non_backtracking"}, "walk")
        lengths = _lengths_from_dict(wd["lengths"]) if "lengths" in wd else \
            PowerLawLength(3.0, 1, 1000)
        walk = WalkConfig(origin=_get(wd, "origin", int, "walk", 0),
                          n_rw=_get(wd, "n_rw", int, "walk", required=True),
                          lengths=lengths, seed=seed,
                          count_origin=_get(wd, "count_origin", bool, "walk", True),
                          non_backtracking=_get(wd, "non_backtracking", bool,
                                                "walk", False))
        return cls(seed=seed, graph=graph, walk=walk,
                   observables=ObservableFlags.from_dict(d.get("observables", {})),
                   theory=TheoryOptions.from_dict(d.get("theory", {})),
                   fits=FitWindows.from_dict(d.get("fits", {})),
                   emit_traces=_get(d, "emit_traces", bool, "config", False),
                   format_version=version)

    def resolved(self) -> dict:
        return {"format_version": self.format_version,
                "seed": self.seed,
                "graph": _graph_to_dict(self.graph),
                "walk": {"origin": self.walk.origin, "n_rw": self.walk.n_rw,
                         "lengths": _lengths_to_dict(self.walk.lengths),
                         "count_origin": self.walk.count_origin,
                         "non_backtracking": self.walk.non_backtracking},
                "observables": asdict(self.observables),
                "theory": asdict(self.theory),
                "fits": asdict(self.fits),
                "emit_traces": self.emit_traces}


@dataclass(frozen=True)
class IngestConfig:
    """Resolved empirical-run configuration."""

    seed: int
    input_path: str
    focus_tag: str
    ts_min: int = ingest.DEFAULT_TS_MIN
    ts_max: int | None = None
    observables: ObservableFlags = ObservableFlags()
    fits: FitWindows = FitWindows()
    format_version: int = FORMAT_VERSION

    @classmethod
    def from_dict(cls, d: dict, seed_override: int | None = None) -> "IngestConfig":
        allowed = {"format_version", "seed", "ingest", "observables", "fits"}
        _check_keys(d, allowed, "config")
        version = _get(d, "format_version", int, "config", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported format_version {version}")
        seed = seed_override if seed_override is not None else \
            _get(d, "seed", int, "config", required=True)
        sub = _get(d, "ingest", dict, "config", required=True)
        _check_keys(sub, {"input", "focus_tag", "ts_min", "ts_max"}, "ingest")
        ts_max = sub.get("ts_max")
        if ts_max is not None and (isinstance(ts_max, bool) or
                                   not isinstance(ts_max, int)):
            raise ConfigError("'ts_max' in ingest must be int or null")
        return cls(seed=seed,
                   input_path=_get(sub, "input", str, "ingest", required=True),
                   focus_tag=_get(sub, "focus_tag", str, "ingest", required=True),
                   ts_min=_get(sub, "ts_min", int, "ingest", ingest.DEFAULT_TS_MIN),
                   ts_max=ts_max,
                   observables=ObservableFlags.from_dict(d.get("observables", {})),
                   fits=FitWindows.from_dict(d.get("fits", {})),
                   format_version=version)

    def resolved(self) -> dict:
        return {"format_version": self.format_version,
                "seed": self.seed,
                "ingest": {"input": self.input_path, "focus_tag": self.focus_tag,
                           "ts_min": self.ts_min, "ts_max": self.ts_max},
                "observables": asdict(self.observables),
                "fits": asdict(self.fits)}


def load_config(path, seed_override: int | None = None):
    """Parse a config file into an ExperimentConfig or IngestConfig."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    try:
        d = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "ingest" in d:
        return IngestConfig.from_dict(d, seed_override)
    return ExperimentConfig.from_dict(d, seed_override)


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


def _finite_or_none(value) -> float | None:
    value = float(value)
    return value if np.isfinite(value) else None


# ---------------------------------------------------------------------------
# The stats stage (shared by synthetic and empirical runs)
# ---------------------------------------------------------------------------

def _stats(cfg: ExperimentConfig | IngestConfig, out: Path, g: cooc.CoocGraph,
           heaps: tuple[np.ndarray, np.ndarray] | None, counts, n_max: int) -> None:
    """Observables and ``fits.json`` of a co-occurrence graph.

    ``heaps`` is the vocabulary curve, fitted over ``[heaps_min, n_max]``;
    ``counts`` the frequencies behind the frequency-rank series.  Either
    may be None when it is not at hand, and its results are then left out.
    """
    flags, fitw = cfg.observables, cfg.fits
    fits: dict = {"heaps": None if heaps is None else
                  _fit_or_none(*heaps, (fitw.heaps_min, max(n_max, 1)))}
    obs_dir = out / "observables"
    obs_dir.mkdir(parents=True, exist_ok=True)
    if g.edge_count:
        observables.assert_accounting(g)
    if flags.distributions:
        pk, ps, pw = observables.degree_strength_weight_distributions(g)
        for name, dist in [("degree_dist", pk), ("strength_dist", ps),
                           ("weight_dist", pw)]:
            write_csv(obs_dir / f"{name}.csv", ["value", "count"],
                      zip(dist.values, dist.counts))
    if flags.s_of_k:
        series = observables.s_of_k(g)
        write_csv(obs_dir / "s_of_k.csv", ["k", "mean_s", "n"],
                  zip(series.x, series.y, series.n))
    if flags.knn:
        plain, weighted = observables.knn_of_k(g)
        write_csv(obs_dir / "knn_of_k.csv", ["k", "knn", "knn_w", "n"],
                  zip(plain.x, plain.y, weighted.y, plain.n))
    if flags.clustering:
        plain, weighted = observables.clustering_of_k(g)
        write_csv(obs_dir / "clustering_of_k.csv", ["k", "c", "c_w", "n"],
                  zip(plain.x, plain.y, weighted.y, plain.n))
    if flags.weight_vs_product:
        products, weights, binned = observables.weight_vs_kikj(g)
        write_csv(obs_dir / "weight_vs_product.csv", ["kikj", "mean_w", "n"],
                  zip(binned.x, binned.y, binned.n))
        if products.size:
            decile = np.quantile(products, 0.10)
            fits["weight_product_plateau"] = _finite_or_none(
                weights[products <= decile].mean())
            p_max = float(products.max())
            fits["weight_product_tail"] = _fit_or_none(
                binned.x, binned.y, (p_max / 10 ** fitw.tail_decades, p_max))
        else:
            fits["weight_product_plateau"] = None
            fits["weight_product_tail"] = None
    if flags.similarity:
        hist = observables.cosine_similarity_distribution(
            g, pair_budget=flags.similarity_pair_budget,
            seed=derive_seed(cfg.seed, _SIM_SALT))
        write_csv(obs_dir / "similarity_hist.csv", ["bin_lo", "bin_hi", "count"],
                  zip(hist.edges[:-1], hist.edges[1:], hist.counts))
        fits["similarity_mode"] = (float(hist.mode_center())
                                   if hist.counts.sum() else None)
    if flags.frequency_rank and counts is not None:
        ranks, ordered = observables.frequency_rank(counts)
        write_csv(obs_dir / "frequency_rank.csv", ["rank", "count"], zip(ranks, ordered))
        fits["zipf"] = _fit_or_none(ranks, ordered, (1, fitw.zipf_max_rank))
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
    graph = build_graph(cfg.graph)
    graph.write_edge_list(out / "substrate.edges")
    return graph


def _walk(cfg: ExperimentConfig, out: Path, graph: SubstrateGraph, threads: int,
          traces: bool):
    """Walks, their traces (when ``traces``) and ``heaps.csv``.

    Returns the deduplicated (walk, node) pairs, the vocabulary curve and
    the node frequencies.
    """
    ens, pairs, heaps, freqs = walker.run_ensemble(graph, cfg.walk, threads=threads)
    if traces:
        ens.write_traces(out / "traces.txt")
    write_csv(out / "heaps.csv", ["n_rw", "n_distinct"], zip(*heaps))
    return pairs, heaps, freqs


def _cooc(out: Path, pairs: tuple[np.ndarray, np.ndarray]) -> cooc.CoocGraph:
    g = cooc.project(*pairs)
    g.write_edge_list(out / "cooc.edges")
    return g


def _theory(cfg: ExperimentConfig, out: Path, graph: SubstrateGraph,
            heaps: tuple[np.ndarray, np.ndarray] | None) -> None:
    """Ring-model prediction, at the points of ``heaps`` and compared with it.

    A configured ``n_grid`` replaces those points and drops the comparison.
    """
    if not cfg.theory.ring_prediction:
        return
    theory_dir = out / "theory"
    theory_dir.mkdir(parents=True, exist_ok=True)
    rings = cfg.theory.ring_structure(graph, cfg.walk.origin)
    spec = theory.RingModelSpec(rings=rings, lengths=cfg.walk.lengths)
    simulated = None
    if cfg.theory.n_grid is not None:
        grid_cfg = cfg.theory.n_grid
        n_values = np.logspace(np.log10(float(grid_cfg["min"])),
                               np.log10(float(grid_cfg["max"])),
                               int(grid_cfg["points"]))
    elif heaps is not None:
        n_values, simulated = heaps
    else:
        n_values = np.empty(0, dtype=np.int64)
    predicted = theory.n_distinct_random_length(spec, n_values.astype(np.float64)) \
        if n_values.size else np.empty(0)
    if not cfg.walk.count_origin:
        predicted = predicted - 1.0  # the origin ring contributes exactly 1
    write_csv(theory_dir / "prediction.csv", ["n_rw", "prediction"],
              zip(n_values, predicted))
    if simulated is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(predicted > 0, simulated / predicted, np.nan)
        write_csv(theory_dir / "comparison.csv",
                  ["n_rw", "simulated", "predicted", "ratio"],
                  zip(n_values, simulated, predicted, ratio))


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> Path:
    """End-to-end synthetic run: generate, walk, cooc, stats and theory, chained in memory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = _generate(cfg, out)
    pairs, heaps, freqs = _walk(cfg, out, graph, threads, cfg.emit_traces)
    g = _cooc(out, pairs)
    del pairs  # only the projection needs them
    _stats(cfg, out, g, heaps, freqs, cfg.walk.n_rw)
    _theory(cfg, out, graph, heaps)
    _write_manifest(out, cfg.resolved())
    return out


def _substrate(cfg: ExperimentConfig, out: Path) -> SubstrateGraph:
    path = out / "substrate.edges"
    return SubstrateGraph.read_edge_list(path) if path.exists() else build_graph(cfg.graph)


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
    heaps_path, traces_path = out / "heaps.csv", out / "traces.txt"
    count_origin = cfg.walk.count_origin
    if stage == "generate":
        _generate(cfg, out)
    elif stage == "walk":
        graph = _substrate(cfg, out) if (out / "substrate.edges").exists() \
            else _generate(cfg, out)
        _walk(cfg, out, graph, threads, traces=True)
    elif stage == "cooc":
        ens = WalkEnsemble.read_traces(_input(out, "traces.txt", "walk"),
                                       _substrate(cfg, out), cfg.walk.origin)
        _cooc(out, ens.walk_node_pairs(count_origin=count_origin))
    elif stage == "stats":
        g = cooc.CoocGraph.read_edge_list(_input(out, "cooc.edges", "cooc"))
        heaps = _read_heaps(heaps_path) if heaps_path.exists() else None
        freqs = None
        if cfg.observables.frequency_rank and traces_path.exists():
            ens = WalkEnsemble.read_traces(traces_path, _substrate(cfg, out),
                                           cfg.walk.origin)
            freqs = walker.node_frequencies(
                ens.walk_node_pairs(count_origin=count_origin)[1], ens.node_count)
        _stats(cfg, out, g, heaps, freqs, cfg.walk.n_rw)
    elif stage == "theory":
        graph = _substrate(cfg, out)
        reads_heaps = cfg.theory.ring_prediction and cfg.theory.n_grid is None
        _theory(cfg, out, graph, _read_heaps(heaps_path)
                if reads_heaps and heaps_path.exists() else None)
    else:
        raise ParameterError(f"unknown stage '{stage}'")
    _write_manifest(out, cfg.resolved())
    return out


# ---------------------------------------------------------------------------
# Empirical pipeline
# ---------------------------------------------------------------------------

def run_ingest(cfg: IngestConfig, out_dir, strict: bool = False) -> Path:
    """Parse, clean, and analyze an annotation log around one focus tag."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    window = ingest.ValidityWindow(ts_min=cfg.ts_min, ts_max=cfg.ts_max)
    corpus, report = ingest.parse_posts(cfg.input_path, window=window,
                                        strict=strict)
    corpus.write_jsonl(out / "corpus.jsonl")
    report.write_csv(out / "rejects.csv")
    stream = ingest.filter_by_tag(corpus, cfg.focus_tag.lower())
    provenance = dict(corpus.provenance)
    del corpus  # the analysis reads only the focus stream
    # the stream's (post, tag) pairs take the path of a walk ensemble's pairs
    pairs, n = stream.tag_pairs(), len(stream)
    heaps = walker.heaps_curve(*pairs, n, np.arange(1, n + 1))
    write_csv(out / "heaps.csv", ["n_rw", "n_distinct"], zip(*heaps))
    g = cooc.project(*pairs, stream.vocabulary)
    g.write_edge_list(out / "cooc.edges")
    g.write_labels(out / "cooc_labels.tsv")
    counts = walker.node_frequencies(pairs[1], len(stream.vocabulary)) \
        if cfg.observables.frequency_rank else None
    _stats(cfg, out, g, heaps, counts, n)
    provenance["input_sha256"] = sha256_of(cfg.input_path)
    provenance["accepted"] = report.accepted
    provenance["focus_posts"] = len(stream)
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
    with open(dest, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join([lh[0]] + [f"{side}_{c}" for c in shared
                                     for side in ("left", "right")]) + "\n")
        for cells in joined:
            fh.write(",".join(cells) + "\n")
    if not joined:
        warnings.append(f"{name}: no common x values")


def _read_fits(directory: Path) -> dict:
    """Fitted exponents of an artifact directory; empty when it has none."""
    path = directory / "fits.json"
    if not path.exists():
        return {}
    try:
        fits = json.loads(path.read_text(encoding="ascii"))
    except ValueError as exc:
        raise ContractError(f"{path}: {exc}") from None
    if not isinstance(fits, dict):
        raise ContractError(f"{path}: expected a JSON object")
    return fits


def compare(left_dir, right_dir, out_dir) -> Path:
    """Side-by-side report of two artifact directories.

    Joins every shared observable CSV on its x column and diffs the fitted
    exponents; observables present on only one side are listed as warnings
    in summary.json rather than failing.
    """
    left, right, out = Path(left_dir), Path(right_dir), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    _compare_csv(left, right, "heaps.csv", out, warnings)
    for name in _OBSERVABLE_FILES:
        _compare_csv(left, right, f"observables/{name}", out, warnings)

    summary: dict = {"left": str(left), "right": str(right), "fits": {}}
    lfits, rfits = _read_fits(left), _read_fits(right)
    for key in sorted(set(lfits) | set(rfits)):
        lv, rv = lfits.get(key), rfits.get(key)
        if isinstance(lv, dict):
            lv = lv.get("exponent")
        if isinstance(rv, dict):
            rv = rv.get("exponent")
        if lv is None or rv is None:
            warnings.append(f"fit '{key}' unavailable on "
                            f"{'left' if lv is None else 'right'}")
            continue
        summary["fits"][key] = {"left": lv, "right": rv,
                                "difference": lv - rv}
    summary["warnings"] = sorted(warnings)
    write_json(out / "summary.json", summary)
    return out
