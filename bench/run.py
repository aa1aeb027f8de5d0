"""tagwalk benchmark: end-to-end and per-layer timings on seeded workloads.

Usage (from the repository root)::

    python3 bench/run.py --workload full --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's real CLI command(s) in a fresh child
process (``bench/child.py``) under an address-space limit, then checks the
outputs.  ``--trace 0`` reports the end-to-end metrics as medians over the
repetitions; ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics (medians over the traced ones).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A JSON results file with every sample, every
error text and the software versions is written to ``.bench_results/``.

The benchmark exits with status 2, printing no result, when the tagwalk
sources are not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (bench/ is on sys.path as the script directory)
import tracer  # noqa: E402
import workloads  # noqa: E402

# Set in the child only.  All three workloads at their full ROADMAP sizes
# completed under about 4.8 GiB; the scaled sizes here need far less.
ADDRESS_SPACE_LIMIT = 4 << 30
CHILD_TIMEOUT_S = 120
MIN_REPETITIONS = 4
# Import-only children run before timing starts; the first warms the file
# cache and is discarded, the rest are set-up samples.
SETUP_PROBES = 4
# BLAS pools would add threads beyond the CLI's own --threads.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    """What one child process did."""

    setup_s: float | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage, killing it after ``timeout``."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def run_child(commands: list[list[str]], trace: bool, work: Path,
              label: str) -> Child:
    job_path = work / f"{label}.job.json"
    result_path = work / f"{label}.result.jsonl"
    stderr_path = work / f"{label}.stderr"
    job_path.write_text(json.dumps({"src": str(SRC), "commands": commands,
                                    "trace": trace,
                                    "result": str(result_path)}))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    with open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path),
             repr(spawned)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=_limit_address_space)
        try:
            code, usage, timed_out = _wait(proc, CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise

    child = Child(cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    lines = (result_path.read_text(encoding="utf-8").splitlines()
             if result_path.exists() else [])
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:  # cut short by a kill
            break
        if rec["kind"] == "setup":
            child.setup_s = rec["setup_s"]
        elif rec["kind"] == "command":
            child.attempted += 1
            child.wall_s += rec["wall_s"]
            if rec["rc"] != 0:
                child.failed += 1
                child.errors.append(f"{rec['argv'][0]}: exit {rec['rc']}"
                                    f"{': ' + rec['error'] if rec['error'] else ''}")
        elif rec["kind"] == "trace":
            child.trace = rec
    stderr_tail = stderr_path.read_text(errors="replace")[-2000:].strip()
    if code != 0 or timed_out or child.setup_s is None:
        reason = ("timed out" if timed_out else
                  f"killed by signal {-code}" if code < 0 else f"exit {code}")
        if child.setup_s is None:
            # tagwalk never finished importing, so no command could run
            reason += " before importing tagwalk"
            child.attempted = child.failed = len(commands)
        elif child.attempted < len(commands) and not child.failed:
            child.attempted += 1   # the command that was running
            child.failed += 1
        child.errors.append(f"child {reason}: {stderr_tail}")
    elif child.failed and stderr_tail:
        child.errors.append(stderr_tail)
    return child


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def schedule(position: int, trace: bool) -> tuple[int, bool]:
    """Input index and trace flag of the repetition at ``position``.

    Untraced runs go 0, 0, 1, 2, 3, ...: one fresh input per repetition, so
    the medians average over several inputs, and input 0 twice, to check
    that a rerun gives the same bytes.  Traced runs pair an untraced and a
    traced repetition of each input.
    """
    if trace:
        return position // 2, position % 2 == 1
    return max(position - 1, 0), False


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            threads: int) -> dict:
    probes = [run_child([], False, work, f"probe{i}").setup_s
              for i in range(SETUP_PROBES)][1:]
    reps: list[dict] = []
    inputs: list[dict] = []
    hashes: dict[int, str] = {}
    wl = None
    start = time.monotonic()
    while True:
        index, traced = schedule(len(reps), trace)
        if index == len(inputs):
            if wl is not None:
                shutil.rmtree(wl.out_dir.parent)
            wl = workloads.build(name, workloads.input_seed(seed, index),
                                 work / f"input{index}", threads)
            inputs.append(wl.describe())
        shutil.rmtree(wl.out_dir, ignore_errors=True)
        began = time.monotonic()
        child = run_child(wl.commands, traced, work, f"rep{len(reps)}")
        if not child.failed:
            problems = checks.check_outputs(wl.out_dir, wl.log)
            digest = checks.tree_hash(wl.out_dir)
            if hashes.setdefault(index, digest) != digest:
                problems.append(f"input {index}: artifact tree differs "
                                "between repetitions")
            if problems:
                child.failed += 1
                child.errors += problems
        reps.append({"input": index, "traced": traced, "child": child,
                     "elapsed_s": time.monotonic() - began})
        # stop before a repetition (or a traced pair) that would overrun
        step = reps[-1]["elapsed_s"] * (2 if trace else 1)
        if len(reps) >= MIN_REPETITIONS and not (trace and len(reps) % 2) \
                and time.monotonic() - start + step > seconds:
            break
    setup = probes + [r["child"].setup_s for r in reps]
    return {"setup_samples": [s for s in setup if s is not None],
            "repetitions": reps, "inputs": inputs}


def _median_over_inputs(reps: list[dict], value) -> float:
    """Median over inputs of the median over each input's repetitions."""
    groups: dict[int, list[float]] = {}
    for r in reps:
        groups.setdefault(r["input"], []).append(value(r["child"]))
    return _median([_median(v) for v in groups.values()])


def end_to_end(measured: dict) -> dict:
    untraced = [r for r in measured["repetitions"] if not r["traced"]]
    ok = [r for r in untraced if not r["child"].failed] or untraced
    return {"wall_s": (_median_over_inputs(ok, lambda c: c.wall_s), "s"),
            "cpu_s": (_median_over_inputs(ok, lambda c: c.cpu_s), "s"),
            "peak_rss_mb": (_median_over_inputs(ok, lambda c: c.peak_rss_mb),
                            "MB"),
            # no sample only when tagwalk never imported: a failed run
            "setup_s": (_median(measured["setup_samples"] or [0.0]), "s")}


def per_layer(measured: dict) -> dict:
    reps = measured["repetitions"]
    traced = {r["input"]: r["child"] for r in reps
              if r["traced"] and r["child"].trace}
    untraced = {r["input"]: r["child"] for r in reps if not r["traced"]}
    samples = [tracer.layer_metrics(c.trace) for c in traced.values()]
    samples = samples or [tracer.layer_metrics(tracer.Tracer().dump())]
    out = {}
    for name, unit in tracer.metric_names():
        if name == "trace.overhead_s":
            value = _median([c.wall_s - untraced[i].wall_s
                             for i, c in traced.items()] or [0.0])
        else:
            value = _median([s[name] for s in samples])
        out[name] = (value, unit)
    return out


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(),
            "source_sha256": checks.tree_hash(SRC, "*.py"),
            "address_space_limit_bytes": ADDRESS_SPACE_LIMIT}


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)

    if not (SRC / "tagwalk" / "cli.py").is_file():
        print(f"bench: no tagwalk sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        measured = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), work,
                           threads=min(2, len(os.sched_getaffinity(0))))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = [r["child"] for r in measured["repetitions"]]
    metrics = per_layer(measured) if args.trace else end_to_end(measured)
    result = {"correct": not any(c.failed for c in children),
              "attempted": sum(c.attempted for c in children),
              "failed": sum(c.failed for c in children),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    absent = sorted({a for c in children if c.trace for a in c.trace["absent"]})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "inputs": measured["inputs"],
              "setup_samples_s": measured["setup_samples"],
              "repetitions": [
                  {"input": r["input"], "traced": r["traced"],
                   "wall_s": r["child"].wall_s,
                   "cpu_s": r["child"].cpu_s,
                   "peak_rss_mb": r["child"].peak_rss_mb,
                   "attempted": r["child"].attempted,
                   "failed": r["child"].failed, "errors": r["child"].errors}
                  for r in measured["repetitions"]],
              "absent_trace_targets": absent, "result": result}
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / (f"BENCH_{args.workload}_seed{args.seed}"
                          f"_trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for c in children:
        for error in c.errors:
            print(f"bench: failed operation: {error}", file=sys.stderr)
    for name in absent:
        print(f"bench: trace target absent: {name}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
