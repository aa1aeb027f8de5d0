import sys
import threading
import time

import numpy as np
import pytest

from tagwalk.parallel import map_blocks


@pytest.mark.parametrize("threads", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n_blocks", [0, 1, 2, 7, 20])
def test_results_come_back_in_block_order(n_blocks, threads):
    used = set()

    def square(b):
        used.add(threading.get_ident())
        return b * b

    blocks = list(range(n_blocks))
    assert map_blocks(square, blocks, threads) == [b * b for b in blocks]
    # the calling thread is one of the workers, and no worker goes without a block
    assert len(used) <= max(1, min(threads, n_blocks))
    if n_blocks:
        assert threading.get_ident() in used


def test_workers_write_disjoint_slices_under_forced_switching():
    # more threads than cores, switching as often as the interpreter allows:
    # a lost or misplaced write would leave a slice short of its value
    out = np.zeros(64 * 500)
    cuts = [(lo, lo + 500) for lo in range(0, out.size, 500)]

    def fill(cut):
        lo, hi = cut
        for x in range(lo, hi, 50):
            out[x:x + 50] = lo + 1.0
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        map_blocks(fill, cuts, 8)
        assert time.monotonic() - started < 60
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.repeat([lo + 1.0 for lo, _ in cuts], 500))


def test_a_worker_error_is_raised_once_every_worker_stopped():
    done = []

    def work(b):
        if b == 3:
            raise ValueError("block 3")
        time.sleep(0.01)
        done.append(b)

    # worker 0, the calling thread, fails at its second block, 3; workers
    # 1 and 2 still finish blocks 1, 4, 7 and 2, 5, 8 before the error surfaces
    with pytest.raises(ValueError, match="block 3"):
        map_blocks(work, list(range(9)), 3)
    assert sorted(done) == [0, 1, 2, 4, 5, 7, 8]
