"""Shared sizing helpers for Ray Data stages and raw-task waves."""

from __future__ import annotations

import time

import ray


def stable_bucket(series, n_buckets: int):
    """Content-only bucket hash for a pandas Series.

    NOT ``pd.util.hash_pandas_object``: its row hashes depend on row
    POSITION within the series (measured: the same key string hashed to
    bucket 48 in one batch slice and 60 in another), which silently
    splits one key across shuffle buckets. Integer keys use a plain
    modulo; everything else goes through ``pd.util.hash_array`` —
    vectorized SipHash of the VALUES only (fixed default key, position-
    independent, deterministic across processes — the same primitive the
    shingle hashing relies on).
    """
    import numpy as np
    import pandas as pd

    if pd.api.types.is_integer_dtype(series.dtype):
        return (series.to_numpy(dtype=np.int64) % n_buckets).astype(np.int64)
    vals = series.to_numpy(dtype=object)
    return (pd.util.hash_array(vals) % np.uint64(n_buckets)).astype(np.int64)


def stable_bucket_cols(df, keys: list, n_buckets: int):
    """Content-only bucket hash over MULTIPLE key columns, vectorized:
    per-column ``hash_array`` folded with odd-multiplier mixing (order-
    sensitive so (a, b) and (b, a) differ). Replaces the per-row
    ``astype(str).agg("\\x00".join)`` string build, which measured ~10 s
    per million rows on pair-key aggregates."""
    import numpy as np
    import pandas as pd

    h = np.zeros(len(df), dtype=np.uint64)
    for i, k in enumerate(keys):
        col = df[k]
        if pd.api.types.is_integer_dtype(col.dtype):
            ch = col.to_numpy().astype(np.uint64, copy=False)
        else:
            ch = pd.util.hash_array(col.to_numpy(dtype=object))
        h = h * np.uint64(0x9E3779B97F4A7C15) + ch + np.uint64(i + 1)
    return (h % np.uint64(n_buckets)).astype(np.int64)


# Per-worker-process instance cache for task-based stateful stages.
# An actor pool is the right home for EXPENSIVE state (models, big
# indexes) — but a pool also RESERVES CPUs for the pipeline's lifetime,
# and two pools inside one multi-shuffle execution livelock a 4-CPU
# cluster (observed: minhash pipeline, r2). Cheap state (hash params,
# broadcast refs) lives here instead: tasks run on ordinary CPU slots
# and each worker process builds the instance once.
_WORKER_CACHE: dict = {}


def cached_instance(key, factory):
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = factory()
    return _WORKER_CACHE[key]


def pool_size(requested: int) -> int:
    """Clamp an actor-pool size so the pool can never reserve every CPU
    (a pool holding all CPUs starves the read/write stages and the
    pipeline deadlocks — observed with concurrency=4 on a 4-CPU local
    cluster). Leaves ≥2 CPUs for task-based stages."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(1, min(requested, cpus - 2))


# Ray's resource view (the GCS's) trails the raylets by about one
# resource report: measured 50-100 ms after a wave ended, the view still
# counted its tasks' slots as taken. A wave started within that time of
# the previous one keeps the previous width instead of reading those
# slots as busy, which would shrink every back-to-back wave to 1.
_VIEW_LAG_S = 0.5
_last_wave = {"width": 0, "end": float("-inf")}


def submit_windowed(thunks) -> list:
    """Run a wave of raw tasks with no more in flight than the CPU slots
    free when the wave starts (at least 1). Each thunk submits one task
    and returns its ObjectRef, or the ref list of a ``num_returns > 1``
    task; a finished task (its first ref ready) frees a slot for the
    next thunk. Returns the thunks' results in submission order once
    every task has finished; errors surface at the caller's ``ray.get``.

    Why not submit the whole wave at once: the owner then reports the
    queued tasks as a lease backlog, and the raylet prestarts worker
    processes for it (``enable_worker_prestart``) even while warm
    workers are about to take the tasks. Measured on one pinned core
    with 2 Ray CPUs: a 41-block fresh_crawl started 4 such workers,
    ~0.7 s of CPU each, and none of them ran a task. With the window
    the backlog stays empty and no worker starts."""
    width = int(ray.available_resources().get("CPU", 0))
    if time.monotonic() - _last_wave["end"] < _VIEW_LAG_S:
        width = max(width, _last_wave["width"])
    width = max(1, width)
    out, pending = [], []
    for thunk in thunks:
        if len(pending) >= width:
            _, pending = ray.wait(pending, num_returns=1, fetch_local=False)
        res = thunk()
        out.append(res)
        pending.append(res[0] if isinstance(res, list) else res)
    if pending:
        ray.wait(pending, num_returns=len(pending), fetch_local=False)
    _last_wave.update(width=width, end=time.monotonic())
    return out


@ray.remote(num_cpus=1)
def _touch_pages(mb: int) -> int:
    """Fault ``mb`` MiB of heap into this worker process and free it.
    glibc keeps the arena, so later large allocations in the same
    worker reuse already-faulted pages."""
    import numpy as np
    a = np.empty((mb << 20) // 8, dtype=np.float64)
    a.fill(1.0)
    return int(a[0])


def warm_workers(n: int | None = None, mb: int = 32) -> int:
    """Pre-fault worker heaps across the cluster.

    On lazily-backed VMs (measured on this sandbox) the FIRST large
    allocation in a fresh worker process runs 100-1000× slower than a
    warm one — a 2000×2000 matmul measured 6.3 s cold vs 0.02 s warm in
    the same worker; refilling freed pages measured 4.9 GB/s vs 7 MB/s
    for first-touch during the host's degraded windows. ``n`` concurrent
    1-CPU tasks land on ``n`` distinct workers (default: all CPUs) and
    each faults ``mb`` MiB once (glibc keeps the arena). ``mb`` is
    deliberately small: warming pays the same first-touch tax up front,
    so it must stay bounded — size it to the typical per-task numpy
    temporary, not the whole heap. Call AFTER ray.init, before timed
    work."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    n = n or cpus
    ray.get([_touch_pages.remote(mb) for _ in range(n)])
    # a finished wave as far as submit_windowed is concerned: Ray's view
    # still counts these n slots as taken for a moment
    _last_wave.update(width=n, end=time.monotonic())
    return n
