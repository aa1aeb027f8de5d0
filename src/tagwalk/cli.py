"""Command-line front end.

Subcommands cover the full pipeline (``run``, ``ingest``, ``compare``) and
its individual stages (``generate``, ``walk``, ``cooc``, ``stats``,
``theory``) so intermediate artifacts can be inspected or swapped out.
Exit status is 0 on success, 1 for usage or config problems, 2 for
runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ParameterError, TagwalkError
from .pipeline import (IngestConfig, compare, load_config, run_experiment,
                       run_ingest, run_stage)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Each worker is an OS thread, and numpy work that takes turns at the GIL
# gains nothing from many more threads than cores.
MAX_THREADS = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on, at most ``MAX_THREADS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_THREADS)


def _thread_count(text: str) -> int:
    """``--threads``: an integer in [1, MAX_THREADS], checked before anything runs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_THREADS}, got {value}")
    return value


def _add_common(sub, threads: bool = False) -> None:
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--out", required=True, help="artifact directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed override")
    if threads:
        sub.add_argument("--threads", type=_thread_count, default=_usable_cpus(),
                         help="worker threads, by default the usable CPUs "
                              "(results are thread-count invariant)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tagwalk",
                     description="random-walk model of social annotation")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, threads, doc in [
            ("run", True, "full synthetic pipeline"),
            ("generate", False, "write the substrate graph"),
            ("walk", False, "simulate the walk ensemble"),
            ("cooc", False, "project traces into a co-occurrence network"),
            ("stats", True, "compute observables and fits"),
            ("theory", False, "ring-model prediction for the vocabulary curve")]:
        p = sub.add_parser(name, help=doc)
        _add_common(p, threads=threads)

    p = sub.add_parser("ingest", help="clean and analyze an annotation log")
    _add_common(p, threads=True)
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed input line")

    p = sub.add_parser("compare", help="side-by-side report of two runs")
    p.add_argument("left", help="first artifact directory")
    p.add_argument("right", help="second artifact directory")
    p.add_argument("--out", required=True, help="report directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            out = compare(args.left, args.right, args.out)
        else:
            cfg = load_config(args.config, seed_override=args.seed)
            ingest = args.command == "ingest"
            if isinstance(cfg, IngestConfig) != ingest:
                raise ConfigError(f"'{args.command}' needs a config "
                                  f"{'with' if ingest else 'without'} an ingest section")
            if ingest:
                out = run_ingest(cfg, args.out, strict=args.strict, threads=args.threads)
            elif args.command == "run":
                out = run_experiment(cfg, args.out, threads=args.threads)
            else:
                threads = getattr(args, "threads", 1)
                out = run_stage(cfg, args.out, args.command, threads=threads)
    except (ConfigError, ParameterError) as exc:
        print(f"tagwalk: error: {exc}", file=sys.stderr)
        return 1
    except (TagwalkError, OSError) as exc:
        print(f"tagwalk: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"tagwalk: error: out of memory in {args.command}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
