"""Shared sizing helpers for Ray Data stages and raw-task waves, and
the one key shuffle."""

from __future__ import annotations

import time

import ray


def stable_bucket(series, n: int):
    """``bucket_of`` for one pandas Series (the catalog tail's split,
    which sizes its own count by its input blocks)."""
    return bucket_of(series.to_frame("k"), ["k"], n)


def shuffle_buckets() -> int:
    """The bucket count of every key shuffle: the next power of two
    ≥ 2 × the cluster's CPUs (64 at 32 CPUs, 8 at 4, 4 at 2).

    Why derived, not a per-operator option: each bucket is one
    ``map_groups`` task, so the count sets a shuffle's parallelism and
    its fixed task cost, and the right value is a property of the
    cluster, not of the operator. Two buckets per CPU keep every CPU
    busy when bucket sizes are uneven; more buckets only add tasks (a
    fixed 64 made ``top3_orders_per_cust`` 3.5× slower than 4 in a
    2-CPU session). A power of two keeps the integer-key hash a mask
    of the low bits. Results never depend on the count: every bucket
    holds whole keys (``tests/test_bucket_invariance.py``)."""
    cpus = float(ray.cluster_resources().get("CPU", 1))
    n = 1
    while n < 2 * cpus:
        n *= 2
    return n


def bucket_of(batch, keys, n: int):
    """Content-only bucket ids (int64 in ``[0, n)``) of a pandas or
    Arrow batch. ``keys`` is a list of key column names or a function
    of the batch returning one integer key per row.

    A single integer key (or a derived key) buckets by its low bits —
    ``x mod n``, position-independent and skew-free for dense ids.
    Other columns go through ``pd.util.hash_array`` (SipHash of the
    VALUES with a fixed key, identical on every worker; NOT
    ``hash_pandas_object``, whose row hashes depend on row position).
    Several keys fold with an odd multiplier, order-sensitive so
    (a, b) and (b, a) differ."""
    import numpy as np
    import pandas as pd

    if len(batch) == 0:
        return np.zeros(0, dtype=np.int64)
    cols = [keys(batch)] if callable(keys) else [
        np.asarray(batch[k].to_numpy()) for k in keys]
    if len(cols) == 1 and cols[0].dtype.kind in "iub":
        return cols[0].astype(np.int64) % n
    h = None
    for v in cols:
        if v.dtype.kind in "iub":
            ch = v.astype(np.uint64)
        elif v.dtype.kind in "fmM":
            ch = pd.util.hash_array(v)
        else:
            ch = pd.util.hash_array(v.astype(object))
        h = ch if h is None else h * np.uint64(0x9E3779B97F4A7C15) + ch
    return (h % np.uint64(n)).astype(np.int64)


def key_shuffle(ds, fn, keys, **map_groups_kw):
    """THE key shuffle: co-locate every row of one key in one group and
    run ``fn`` over each group (``map_groups_kw`` go to ``map_groups``).
    ``ds`` may be a list of datasets (join sides), tagged side by side
    and unioned. Each block is tagged with ``bucket_of(keys)`` at the
    count ``shuffle_buckets()``, in its own format and fused into the
    upstream map; the group pass is Ray Data's sort-based
    ``groupby("__bucket").map_groups``. A group holds whole keys — one
    bucket, many keys — and ``fn`` sees it without the tag column."""
    import pandas as pd
    import pyarrow as pa

    n = shuffle_buckets()

    def tag(batch):
        b = bucket_of(batch, keys, n)
        if isinstance(batch, pd.DataFrame):
            return batch.assign(__bucket=b)
        return batch.append_column("__bucket", pa.array(b, pa.int64()))

    def untagged(g):
        if isinstance(g, pd.DataFrame):
            return fn(g.drop(columns="__bucket"))
        return fn(g.drop_columns("__bucket"))

    sides = [s.map_batches(tag, batch_format=None)
             for s in (ds if isinstance(ds, list) else [ds])]
    tagged = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    return tagged.groupby("__bucket").map_groups(untagged, **map_groups_kw)


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


def _fan(fn, n: int, *args):
    # num_returns=1 stores the WHOLE return value under its one ref, so
    # the 1-tuple must be unwrapped or the consumer gets it double-wrapped
    parts = fn(*args)
    return parts if n > 1 else parts[0]


_fan_task = ray.remote(_fan)


def fanout(fn, n: int, *args) -> list:
    """Run the splitting kernel ``fn(*args)`` — which returns a
    sequence of ``n`` parts — as one task with a return per part.
    Always a list of ``n`` refs: this is the one place that normalizes
    Ray's bare ref at ``num_returns=1``."""
    refs = _fan_task.options(num_returns=n).remote(fn, n, *args)
    return refs if isinstance(refs, list) else [refs]


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
