"""Blocks of work spread over threads, with results that ignore the thread count.

The work is numpy calls that release the GIL on large arrays (gathers,
arithmetic, ``np.bincount``), so threads overlap.  ``np.add.at`` and
``np.repeat`` hold the GIL: work made mostly of them, like the exact
cosine pass, gained little on two threads and stays on one.  Each worker
thread gets its own malloc arena, which keeps the memory that the
worker's blocks freed; the calling thread therefore takes a share of the
blocks itself, and ``t`` workers start only ``t - 1`` threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

__all__ = ["map_blocks"]


def map_blocks(fn: Callable, blocks: Sequence, threads: int) -> list:
    """``[fn(b) for b in blocks]``, computed on up to ``threads`` threads.

    With t = min(threads, len(blocks)) workers, worker w computes blocks
    w, w + t, w + 2t, ... in turn; the calling thread is worker 0.  The
    results come back in block order, so they are the same for any
    ``threads`` whenever each ``fn(b)`` is.  An exception from any worker
    is raised here once every worker has stopped.
    """
    workers = min(threads, len(blocks))
    if workers <= 1:
        return [fn(b) for b in blocks]

    def share(w: int) -> list:
        return [fn(b) for b in blocks[w::workers]]

    with ThreadPoolExecutor(workers - 1) as pool:
        others = [pool.submit(share, w) for w in range(1, workers)]
        shares = [share(0)] + [future.result() for future in others]
    return [shares[i % workers][i // workers] for i in range(len(blocks))]
