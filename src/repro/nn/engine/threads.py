"""Intra-op thread tiling for large engine GEMMs.

numpy's matmul releases the GIL while BLAS runs, so a small persistent
thread pool can split one large GEMM into column (or batch) tiles and
run them concurrently.  This only pays when the host has spare cores
and the GEMM is big enough to amortize the handoff; both conditions are
checked per call, so on a single-core host every helper degenerates to
a plain ``np.matmul`` with no pool ever created.

Worker processes of the serving process pool default to one intra-op
thread each — the pool already provides the core-level parallelism and
oversubscription would thrash the shared caches.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "MIN_TILED_MACS",
    "get_intra_op_threads",
    "intra_op_matmul",
    "set_intra_op_threads",
]

# Below this many multiply-accumulates a tile handoff costs more than
# the BLAS call it would split.
_MIN_MACS_PER_THREAD = 2_000_000
#: Smallest GEMM :func:`intra_op_matmul` ever splits (two tiles' worth);
#: anything below runs as one plain matmul at every thread setting.
MIN_TILED_MACS = 2 * _MIN_MACS_PER_THREAD

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _default_threads() -> int:
    env = os.environ.get("REPRO_INTRA_OP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1 if (os.cpu_count() or 1) <= 1 else min(4, os.cpu_count() or 1)


_threads = _default_threads()


def set_intra_op_threads(n: int) -> None:
    """Set the number of intra-op GEMM threads (1 disables tiling)."""
    global _threads
    _threads = max(1, int(n))


def get_intra_op_threads() -> int:
    return _threads


def _executor(size: int) -> ThreadPoolExecutor:
    global _pool, _pool_size
    with _lock:
        if _pool is None or _pool_size < size:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-intra-op")
            _pool_size = size
        return _pool


def intra_op_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b, out=out)``, column-tiled across the intra-op pool.

    ``a`` is 2-D ``(M, K)``; ``b`` is 2-D ``(K, N)`` or stacked 3-D
    ``(B, K, N)`` with a matching ``out``.  2-D GEMMs split the N axis;
    stacked GEMMs split the batch axis.  Falls back to a single matmul
    when tiling cannot pay for itself.
    """
    n_threads = _threads
    if n_threads <= 1:
        return np.matmul(a, b, out=out)
    macs = a.shape[-2] * a.shape[-1] * b.shape[-1] * (
        b.shape[0] if b.ndim == 3 else 1)
    tiles = min(n_threads, max(1, macs // _MIN_MACS_PER_THREAD))
    if tiles <= 1:
        return np.matmul(a, b, out=out)

    jobs = []
    if b.ndim == 3:
        tiles = min(tiles, b.shape[0])
        step = -(-b.shape[0] // tiles)
        for lo in range(0, b.shape[0], step):
            sl = slice(lo, lo + step)
            jobs.append((a[sl] if a.ndim == 3 else a, b[sl], out[sl]))
    else:
        tiles = min(tiles, b.shape[-1])
        step = -(-b.shape[-1] // tiles)
        for lo in range(0, b.shape[-1], step):
            sl = slice(lo, lo + step)
            jobs.append((a, b[:, sl], out[:, sl]))
    if len(jobs) <= 1:
        return np.matmul(a, b, out=out)
    pool = _executor(n_threads)
    futures = [pool.submit(np.matmul, ta, tb, out=to)
               for ta, tb, to in jobs[1:]]
    np.matmul(jobs[0][0], jobs[0][1], out=jobs[0][2])
    for f in futures:
        f.result()
    return out
