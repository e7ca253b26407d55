"""Corpus storage: Lance when available, Parquet otherwise.

BASELINE.json mandates a Lance table of interleaved documents; the
``pylance`` package is not installed in this sandbox, so the storage
layer is format-gated: identical layout and API over Lance
(``lance.write_dataset`` / ``ray.data.read_lance``) or partitioned
Parquet (``write_parquet`` / ``read_parquet``). Everything downstream
sees a ``ray.data.Dataset`` of CORPUS_SCHEMA rows either way.

Layout: one directory per corpus, data hive-partitioned by host and
url salt (``host=<quoted-host>/salt=<S>/part-*.parquet``) so the fetch
stage loads ONLY the partitions its (host, salt) blocks touch — at
10^10 documents a worker's resident corpus state is proportional to the
partitions it serves, not the corpus (Lance gets the same effect through
filter pushdown on the host and salt columns). Files are capped at
``rows_per_file`` so a hot partition splits into many files and a
partial read stays cheap.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import uuid
from urllib.parse import quote, unquote

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import stable_hash64_array
from ..functions.urls import canonicalize_url

try:  # pragma: no cover - lance not installed in this sandbox
    import lance  # type: ignore
    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def atomic_write(path: str, write) -> None:
    """All-or-nothing file write that stays safe when a retried Ray task
    runs beside a still-live earlier attempt: ``write(tmp)`` fills a
    temp name unique to this attempt (pid + uuid), then ``os.replace``
    publishes it. Racing attempts each publish a complete file (last
    rename wins) and never rename or truncate each other's temp."""
    tmp = f"{path}.{os.getpid()}-{uuid.uuid4().hex}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def corpus_path(root: str) -> str:
    return os.path.join(root, "corpus.lance" if HAVE_LANCE else "corpus_parquet")


# Second partition level: salt = stable_hash64(canonical url) % CORPUS_SALTS.
# The crawl salts its (host, salt) fetch blocks with the SAME function, so
# a block's worker reads exactly one corpus partition — the "one
# partitioning key reused across stages" rule. Raising this divides both
# per-worker resident corpus state and per-partition file size.
CORPUS_SALTS = 16


def url_salts(urls) -> "np.ndarray":
    """Salt bucket per url — MUST stay in lockstep with the crawl's
    frontier hash (pipelines/crawl.py::link_hashes). Imports hoisted to
    module level: a function-level relative import executes at CALL
    time on workers, where the package is pickled by value and not on
    sys.path (the worker-import trap)."""
    import numpy as np
    return (stable_hash64_array([canonicalize_url(u) for u in urls])
            % np.uint64(CORPUS_SALTS)).astype(np.int64)


def write_corpus(table: pa.Table, root: str,
                 rows_per_file: int = 250_000) -> str:
    """Write the corpus table (host, salt)-partitioned; returns the
    dataset path. Hive layout ``host=H/salt=S/part-*.parquet``, files
    capped at ``rows_per_file`` rows."""
    path = corpus_path(root)
    os.makedirs(root, exist_ok=True)
    salts = url_salts(table.column("doc_id").to_pylist())
    if HAVE_LANCE:  # pragma: no cover
        lance.write_dataset(table.append_column("salt", pa.array(salts)),
                            path, mode="overwrite")
        return path
    os.makedirs(path, exist_ok=True)
    import numpy as np
    enc = pc.dictionary_encode(table.column("host")).combine_chunks()
    if isinstance(enc, pa.ChunkedArray):
        if enc.num_chunks == 0:
            return path
        enc = enc.chunk(0)
    dictionary = enc.dictionary
    code_np = enc.indices.to_numpy()
    for code, host in enumerate(dictionary.to_pylist()):
        hrows = code_np == code
        hdir = os.path.join(path, f"host={quote(host, safe='')}")
        for salt in range(CORPUS_SALTS):
            rows = np.flatnonzero(hrows & (salts == salt))
            if not len(rows):
                continue
            sub = table.take(pa.array(rows))
            sdir = os.path.join(hdir, f"salt={salt}")
            os.makedirs(sdir, exist_ok=True)
            for k, lo in enumerate(range(0, sub.num_rows, rows_per_file)):
                pq.write_table(sub.slice(lo, rows_per_file),
                               os.path.join(sdir, f"part-{k:05d}.parquet"))
    return path


def corpus_hosts(path: str) -> list[str]:
    """Hosts present in a host-partitioned parquet corpus."""
    return sorted(unquote(d.split("=", 1)[1])
                  for d in os.listdir(path) if d.startswith("host="))


def host_partition_table(path: str, host: str, salt: int) -> pa.Table:
    """ONE (host, salt) slice of the corpus — the partition-pruned read
    the fetch stage uses (Lance: filtered scan; Parquet: the hive dir
    ``host=H/salt=S``). ``None`` when the store has no such partition."""
    if HAVE_LANCE and path.endswith(".lance"):  # pragma: no cover
        return lance.dataset(path).to_table(
            filter=f"host == '{host}' and salt == {salt}"
        ).drop_columns(["salt"])
    sdir = os.path.join(path, f"host={quote(host, safe='')}",
                        f"salt={salt}")
    return pq.read_table(sdir) if os.path.isdir(sdir) else None


def is_host_partitioned(path: str) -> bool:
    """True iff ``path`` holds ``write_corpus``'s layout: host=H dirs,
    each split into salt=S dirs."""
    if HAVE_LANCE and path.endswith(".lance"):  # pragma: no cover
        return True   # pushdown-capable either way
    if not os.path.isdir(path):
        return False
    hdirs = [os.path.join(path, d) for d in os.listdir(path)
             if d.startswith("host=")]
    return bool(hdirs) and all(
        any(s.startswith("salt=") for s in os.listdir(h)) for h in hdirs)


def read_corpus(path: str, columns=None):
    """Corpus as a ray.data.Dataset (lazy, streaming)."""
    import ray.data as rd
    if HAVE_LANCE and path.endswith(".lance"):  # pragma: no cover
        return rd.read_lance(path, columns=columns)
    return rd.read_parquet(path, columns=columns)


class BlockRefs:
    """Arrow table blocks held as Ray object refs, in order: what
    ``read_parquet_sized``, ``assemble_records`` and the catalog sink
    pass between them in place of a ``ray.data.Dataset``.

    Every block is already computed when a handle is made, so no Ray
    Data executor, plan or singleton actor is involved (a Dataset over
    the same refs starts Ray Data's stats actor when it is built and
    its autoscaling-requester actor on ``to_arrow_refs()``, and
    ``ray.data.from_arrow_refs`` runs a metadata task per ref).
    A caller that needs Dataset operators builds one itself:
    ``ray.data.from_arrow_refs(h.to_arrow_refs())``.

    ``catalogs``, when set, is the sorted list of distinct ``catalog``
    values the blocks can hold (``assemble_records`` fills it from its
    split wave; the catalog sink sizes its writer wave by it)."""

    def __init__(self, refs: list, catalogs: list[str] | None = None):
        self._refs = list(refs)
        self.catalogs = catalogs

    def to_arrow_refs(self) -> list:
        return list(self._refs)

    def materialize(self) -> "BlockRefs":
        """The blocks are already computed: returns the handle itself."""
        return self

    def count(self) -> int:
        import ray
        return sum(t.num_rows for t in ray.get(self._refs))

    def to_pandas(self):
        import ray
        return pa.concat_tables(ray.get(self._refs)).to_pandas()


def _read_slices(slices: list, columns) -> pa.Table:
    """One block of ``read_parquet_sized``: the (file, offset, length)
    row slices of consecutive files, concatenated in order."""
    return pa.concat_tables([
        pq.read_table(f, columns=columns).slice(lo, n)
        for f, lo, n in slices])


# Row floor of one block: a block is split off only once it carries at
# least this many rows (derivation in read_parquet_sized's docstring).
ROWS_PER_BLOCK = 1 << 15


def block_count(rows: int, nbytes: int, rows_per_block: int) -> int:
    """Blocks for a parquet read of ``rows`` rows in ``nbytes`` file
    bytes: one per 32 MiB of file once the input is big (Ray's own
    target), with a small-input floor of one block per
    ``rows_per_block`` rows capped at 2 × the cluster's CPUs."""
    from ..ops.util import cluster_cpus

    return max(math.ceil(nbytes / (32 << 20)),
               min(2 * cluster_cpus(), math.ceil(rows / rows_per_block)),
               1)


def read_parquet_sized(path: str, columns=None) -> BlockRefs:
    """Parquet file/dir → ``BlockRefs`` whose block count follows the
    data.

    A crawl run's records/ dir holds one small fragment per crawl block
    (41 files on the fresh_crawl benchmark, hundreds at the 2.4M-page
    bench); one block per file would make every downstream exchange pay
    a blocks² fan-out. Blocks are sized by DATA instead: ~32 MB of file
    bytes per block (Ray's own target), and by rows one block per
    ``ROWS_PER_BLOCK`` rows capped at 2×CPUs. ``assemble_records`` uses
    this count as its bucket count, and the catalog sink its writer
    count as ``min(buckets, catalogs)``.

    The row floor is where a block's row work pays for what the block
    adds. Two costs, both measured on one pinned core of a 4-vCPU VM
    with Ray ``num_cpus=2``:

    - per row, the tail (read, assemble, render, write) costs ~29 µs:
      0.71 s for fresh_crawl's 24,255 record rows in one process;
    - per block, the tail gains one task in each of its five waves
      (read, bucket split, bucket emit, render split, write while
      writers < catalogs), ~15 ms each with warm workers (a 4-block
      tail ran 15 more tasks in +0.23 s in a probe run that started
      no process), and its waves become two wide, which can start one
      more worker process: 0.6-2.2 s of CPU in the same probe runs,
      ~0.8 s typical.

    So a block should carry (5 × 0.015 s + 0.8 s) / 29 µs ≈ 30k rows of
    work that another CPU can take; ``ROWS_PER_BLOCK`` is the power of
    two above that, 32,768. fresh_crawl's 24,255 rows at 2 CPUs read as
    ONE block, so its tail runs one task per wave, while the 2×CPU cap
    still binds at bench.py's 2.4M-page, 32-CPU assembly session (64
    blocks).

    This floor is fitted to that one shape. The ~0.8 s worker start,
    which dominates the sum, is what a two-wide wave costs on ONE
    saturated pinned core; on a host with more free cores and warm
    workers it is absent and a much lower floor may pay. The floor sets
    the block and bucket count for every input between ~33k and ~2M
    rows at any CPU count (200k rows at 8 CPUs: 7 blocks, where the
    earlier 2,048-row floor gave 16), and neither benchmarked shape
    falls in that range (fresh_crawl is below it, bench.py at the 2×CPU
    cap), so the constant is not shown to be a good choice there.

    The files, in sorted path order, are cut into that many contiguous
    runs of about equal row counts; each block is one plain Ray task
    reading its run. The read tasks go out through
    ``ops/util.py::submit_windowed``, no more in flight than the free
    CPU slots, and the call returns once every block is read. Row order
    is file order. Hive partition columns (the crawl's ``round=R`` dirs)
    are not added. ``rd.read_parquet`` was not used: past 24 files it
    launches a remote metadata-fetch task wave (Ray's
    PARALLELIZE_META_FETCH_THRESHOLD), past 16 paths on a non-local
    filesystem a file-size-fetch wave
    (FILE_SIZE_FETCH_PARALLELIZATION_THRESHOLD), and it samples files
    for an encoding ratio in remote tasks — all before a row is read,
    and the cost of each wave is fixed while the data here is a few MB.
    """
    import ray

    from ..ops.util import submit_windowed

    if os.path.isdir(path):
        files = sorted(os.path.join(base, n)
                       for base, _dirs, names in os.walk(path)
                       for n in names if n.endswith(".parquet"))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    counts = [pq.ParquetFile(f).metadata.num_rows for f in files]
    rows = sum(counts)
    nb = block_count(rows, sum(os.path.getsize(f) for f in files),
                     ROWS_PER_BLOCK)

    # block k holds rows [k*rows//nb, (k+1)*rows//nb) of the file-order
    # concatenation; a block with no rows reads an empty slice of the
    # first file so it still carries the schema
    starts = list(itertools.accumulate(counts, initial=0))
    bounds = [k * rows // nb for k in range(nb + 1)]
    groups = [[(f, max(a, s) - s, min(b, s + n) - max(a, s))
               for f, s, n in zip(files, starts, counts)
               if s < b and s + n > a] or [(files[0], 0, 0)]
              for a, b in zip(bounds, bounds[1:])]
    read_r = ray.remote(_read_slices)
    return BlockRefs(submit_windowed(
        functools.partial(read_r.remote, g, columns) for g in groups))


def read_corpus_table(path: str) -> pa.Table:
    """Whole corpus store as one Arrow table (fixtures and tests). Host
    columns are materialized from the hive dir names."""
    if HAVE_LANCE and path.endswith(".lance"):  # pragma: no cover
        return lance.dataset(path).to_table().drop_columns(["salt"])
    tables = []
    for host in corpus_hosts(path):
        t = pq.read_table(os.path.join(path, f"host={quote(host, safe='')}"))
        t = t.drop_columns(["salt"])   # hive partition col, not schema
        if "host" not in t.column_names:
            t = t.append_column(
                "host", pa.array([host] * t.num_rows, pa.string()))
        tables.append(t)
    return pa.concat_tables(tables)


def write_partitioned_resumable(ds, root: str, part_col: str,
                                rows_per_file: int = 1 << 20) -> "pa.Table":
    """Resumable partitioned parquet sink: one directory per distinct
    ``part_col`` value, each finalized by an atomic ``_SUCCESS`` marker
    written AFTER its data files. A re-run after a crash skips every
    partition whose marker exists and rewrites only unfinished ones —
    the 'failed 100-TB job resumes, not restarts' output contract
    (SURVEY §7: resumable output; same discipline as the crawl's
    per-round checkpoints and the graph operators' iteration
    checkpoints).

    One partition-bucket shuffle, then each partition writes from its
    own worker task (the parallel per-catalog writer shape) with
    deterministic file names, so a partial rewrite converges to the
    same layout. Returns a (partition, rows, skipped) summary table —
    row counts of SKIPPED partitions are read from their footers, not
    recomputed."""
    import pandas as pd

    os.makedirs(root, exist_ok=True)

    def write_group(g: "pd.DataFrame") -> "pd.DataFrame":
        val = str(g[part_col].iloc[0])
        pdir = os.path.join(root, f"{part_col}={val}")
        marker = os.path.join(pdir, "_SUCCESS")
        if os.path.exists(marker):
            n = 0
            for name in sorted(os.listdir(pdir)):
                if name.endswith(".parquet"):
                    n += pq.ParquetFile(
                        os.path.join(pdir, name)).metadata.num_rows
            return pd.DataFrame({"partition": [val], "rows": [n],
                                 "skipped": [True]})
        os.makedirs(pdir, exist_ok=True)
        # Unfinished partition: a prior crashed run may have left MORE
        # part files than this run will write (fewer rows, larger
        # rows_per_file) — stale leftovers would get blessed by the
        # marker below and silently duplicate rows for readers. Clear
        # the directory before rewriting.
        for name in os.listdir(pdir):
            if name.endswith(".parquet"):
                os.remove(os.path.join(pdir, name))
        # hive layout: the partition value lives in the dir name only
        # (keeping the column in the files too makes readers' inferred
        # dictionary type clash with the stored string type)
        t = pa.Table.from_pandas(g.drop(columns=[part_col]),
                                 preserve_index=False)
        for i, lo in enumerate(range(0, len(t), rows_per_file)):
            pq.write_table(t.slice(lo, rows_per_file),
                           os.path.join(pdir, f"part-{i:05d}.parquet"))
        def write_marker(tmp: str) -> None:
            with open(tmp, "w") as fp:
                fp.write(str(len(t)))
        atomic_write(marker, write_marker)
        return pd.DataFrame({"partition": [val], "rows": [len(t)],
                             "skipped": [False]})

    out = (ds.groupby(part_col)
           .map_groups(write_group, batch_format="pandas").to_pandas()
           .sort_values("partition", ignore_index=True))
    return pa.Table.from_pandas(out, preserve_index=False)
