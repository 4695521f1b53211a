"""Shared intra-query thread pool for GIL-releasing numpy kernels.

numpy's searchsorted / cumsum / gather / compress kernels release the
GIL, and at posting-stream sizes they are memory-latency- or
bandwidth-bound, so chunking one logical pass across a few threads
scales ~3-4× (measured on the phrase membership path).  One pool is
shared process-wide: latency paths run one query at a time, and Ray
workers are separate processes, so each worker lazily builds its own.
"""

from __future__ import annotations

import os
import sys
import threading

_POOL = None
_POOL_KEY = None  # (pid, threads) the pool was built for
_POOL_LOCK = threading.Lock()

#: minimum elements per chunk — inputs below 2×CHUNK run inline.
#: Measured crossover: chunked searchsorted already wins 1.6× at 64k
#: probes and ~4× at 512k; below 128k the dispatch overhead and the
#: risk of thread oversubscription in concurrent per-range tasks
#: outweigh the gain.
CHUNK = 1 << 16

#: most threads the pool runs, however many CPUs the process may use
MAX_THREADS = 8


def usable_cpus() -> int:
    """The CPUs this process may use: inside a Ray worker the CPUs Ray
    assigned to its task or actor (at least 1), elsewhere the CPUs of
    the process's affinity mask — not the host's count, which
    oversubscribes a worker that shares the host."""
    ray = sys.modules.get("ray")  # a Ray worker has imported it
    if ray is not None and ray.is_initialized():
        ctx = ray.get_runtime_context()
        if ctx.worker.mode == ray.WORKER_MODE:
            return max(1, int(ctx.get_assigned_resources().get("CPU", 0)))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool():
    """The shared executor of ``min(MAX_THREADS, usable_cpus())``
    threads, rebuilt after fork (a child inheriting the parent's
    executor object has none of its worker threads — submitting there
    would hang forever) and when that size changes (a reused Ray worker
    runs a task with other CPUs), and built under a lock (two racing
    first callers must not leak a second pool's threads)."""
    global _POOL, _POOL_KEY
    key = (os.getpid(), min(MAX_THREADS, usable_cpus()))
    if _POOL is None or _POOL_KEY != key:
        with _POOL_LOCK:
            if _POOL is None or _POOL_KEY != key:
                from concurrent.futures import ThreadPoolExecutor

                if _POOL is not None and _POOL_KEY[0] == key[0]:
                    _POOL.shutdown(wait=False)
                _POOL = ThreadPoolExecutor(key[1])
                _POOL_KEY = key
    return _POOL


def n_chunks(size: int) -> int:
    return min(MAX_THREADS, -(-size // CHUNK))
