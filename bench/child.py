"""One benchmark child: import tagwalk, run CLI commands, report.

Usage: ``python3 child.py JOB.json SPAWN_TIME``.  ``SPAWN_TIME`` is the
parent's ``time.monotonic()`` just before it spawned this process (the
clock is shared by all processes on the machine), so set-up time covers
interpreter start and the import of ``tagwalk.cli`` with numpy and scipy.

The job names the source directory, the commands and whether to trace.
Results go to the job's result file as JSON Lines: one ``setup`` record,
one ``command`` record per finished command (flushed, so a killed child
still shows how far it got), and for traced runs one ``trace`` record.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spawn_time = float(sys.argv[2])
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import tagwalk.cli
    setup_s = time.monotonic() - spawn_time

    src = Path(job["src"]).resolve()
    if src not in Path(tagwalk.cli.__file__).resolve().parents:
        print(f"tagwalk imported from {tagwalk.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    with open(job["result"], "w", encoding="utf-8") as out:
        def emit(record: dict) -> None:
            out.write(json.dumps(record) + "\n")
            out.flush()

        emit({"kind": "setup", "setup_s": setup_s})
        tracer = None
        if job["trace"]:
            from tracer import ROOT_SPAN, Tracer
            tracer = Tracer()
            tracer.install()

        for argv in job["commands"]:
            error = None
            span = tracer.begin(ROOT_SPAN) if tracer else None
            start = time.perf_counter()
            try:
                rc = tagwalk.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except MemoryError:
                rc, error = -1, "MemoryError"
            except Exception as exc:  # a crash is a failed operation
                rc, error = -1, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            if tracer:
                tracer.end(span)
            emit({"kind": "command", "argv": argv, "rc": rc, "wall_s": wall,
                  "error": error})
            if rc != 0:
                break
        if tracer:
            emit({"kind": "trace", **tracer.dump()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
