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
import types
import uuid
from urllib.parse import quote, unquote

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

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
    """Arrow table blocks held as Ray object refs, in order: what a
    query and the crawl-to-catalog tail pass between operators in place
    of a ``ray.data.Dataset``. ``read_parquet_sized`` makes one, and
    every ``ops/`` operator and ``ops/util.py::key_shuffle`` return one.

    Every block is already computed when a handle is made, so no Ray
    Data executor, plan or singleton actor is involved (a Dataset over
    the same refs starts Ray Data's stats actor when it is built and
    its autoscaling-requester actor on ``to_arrow_refs()``, and each
    Dataset execution costs 0.11-0.17 s against ~0.01 s for a raw-task
    wave). Every method is eager: one raw task per block through
    ``ops/util.py::submit_windowed`` (``map_batches``,
    ``select_columns``, ``sum``/``min``/``max``), or a driver read of
    the blocks' metadata (``count``, ``schema``, ``size_bytes``).
    Batches convert to and from ``pandas``/``pyarrow``/numpy exactly as
    Ray Data converts them. The surface is the Dataset subset the
    operators use, with Dataset semantics, so an operator takes either.
    A caller that needs any other Dataset operator builds a Dataset
    itself: ``ray.data.from_arrow_refs(h.to_arrow_refs())``.

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

    def num_blocks(self) -> int:
        return len(self._refs)

    def _tables(self) -> list:
        import ray
        return ray.get(self._refs)

    def count(self) -> int:
        return sum(t.num_rows for t in self._tables())

    def size_bytes(self) -> int:
        return sum(t.nbytes for t in self._tables())

    def schema(self):
        """The blocks' Arrow schemas unified, as Dataset's: a null-typed
        column (an empty pandas output block) takes its type from the
        other blocks. ``None`` without blocks."""
        if not self._refs:
            return None
        schemas = [t.schema for t in self._tables()]
        try:
            return pa.unify_schemas(schemas, promote_options="default")
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            return schemas[0]

    def to_pandas(self):
        import pandas as pd
        if not self._refs:
            return pd.DataFrame()
        return as_batch(concat_blocks(self._tables()), "pandas")

    def union(self, *others) -> "BlockRefs":
        """Blocks of ``self`` then of each other handle or Dataset."""
        return BlockRefs(self._refs + [r for o in others
                                       for r in o.to_arrow_refs()])

    def map_batches(self, fn, *, batch_format: str = "default",
                    batch_size: int | None = None) -> "BlockRefs":
        """``fn`` over every block, one task per block: the block as one
        batch in ``batch_format`` (``"default"``/``"numpy"``,
        ``"pandas"``, ``"pyarrow"`` or ``None`` for the Arrow block),
        or as ``batch_size``-row slices of it, one output block per
        batch. As in Ray Data, an empty block gets no call and yields
        no block, except that when every block is empty ``fn`` runs
        once over the first if it has columns, so the result keeps one
        typed block."""
        import ray

        from ..ops.util import fanout, submit_windowed

        tables = self._tables()
        rows = [t.num_rows for t in tables]
        keep = [(r, n) for r, n in zip(self._refs, rows) if n] or \
            [(r, 0) for r, t in zip(self._refs, tables[:1]) if t.num_columns]
        fn_ref = ray.put(fn)
        step = batch_size or max(rows, default=1) or 1
        parts = submit_windowed(
            functools.partial(fanout, _map_block, max(1, -(-n // step)),
                              fn_ref, batch_format, step, r)
            for r, n in keep)
        return BlockRefs([r for p in parts for r in p])

    def select_columns(self, cols) -> "BlockRefs":
        cols = [cols] if isinstance(cols, str) else list(cols)
        return self.map_batches(lambda t: t.select(cols),
                                batch_format="pyarrow")

    def _reduce(self, op: str, on):
        """``op`` (sum|min|max) of column(s) ``on`` over the non-null
        values of every block, as Dataset's aggregates: a scalar for one
        column name, a dict for a list, ``None`` where no value."""
        import ray

        from ..ops.util import submit_windowed

        cols = [on] if isinstance(on, str) else list(on)
        parts = ray.get(submit_windowed(
            functools.partial(_reduce_task.remote, op, cols, r)
            for r in self._refs))
        fold = {"sum": sum, "min": min, "max": max}[op]
        out = {}
        for i, c in enumerate(cols):
            vals = [p[i] for p in parts if p[i] is not None]
            out[c] = fold(vals) if vals else None
        return out[on] if isinstance(on, str) else out

    def sum(self, on):
        return self._reduce("sum", on)

    def min(self, on):
        return self._reduce("min", on)

    def max(self, on):
        return self._reduce("max", on)


def one_block(table) -> BlockRefs:
    """A driver-side Arrow table or pandas frame as a one-block
    handle."""
    return BlockRefs([ray.put(as_block(table))])


def as_batch(t: pa.Table, batch_format):
    """An Arrow block as a batch in ``batch_format``, converted as Ray
    Data converts it (``"default"`` is numpy)."""
    from ray.data.block import BlockAccessor
    fmt = "numpy" if batch_format == "default" else batch_format
    return BlockAccessor.for_block(t).to_batch_format(fmt)


def as_block(batch) -> pa.Table:
    """A function's output batch (pandas, Arrow or a dict of arrays) as
    an Arrow block, converted as Ray Data converts it."""
    from ray.data.block import BlockAccessor
    return BlockAccessor.for_block(
        BlockAccessor.batch_to_block(batch)).to_arrow()


def concat_blocks(tables: list) -> pa.Table:
    """Blocks concatenated in order; a column missing from a block is
    null there, and a null-typed column takes its type from the others."""
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="default")


def _map_block(fn, batch_format, step: int, t: pa.Table) -> list:
    """``fn`` over each ``step``-row slice of one block (the whole empty
    block when it has no rows): one Arrow output block per slice."""
    outs = []
    for lo in range(0, max(t.num_rows, 1), step):
        out = fn(as_batch(t.slice(lo, step), batch_format))
        outs.append(concat_blocks([as_block(b) for b in (
            out if isinstance(out, types.GeneratorType) else [out])]))
    return outs


def _reduce_block(op: str, cols: list, t: pa.Table) -> list:
    fn = {"sum": pc.sum, "min": pc.min, "max": pc.max}[op]
    return [fn(t[c]).as_py() if t.num_rows else None for c in cols]


_reduce_task = ray.remote(_reduce_block)


def apply_spec(t: pa.Table, derive: dict | None, where) -> pa.Table:
    """``where`` and ``derive`` (``pyarrow.compute`` Expressions; see
    ``read_parquet_sized``) evaluated over one block."""
    if derive is None and where is None:
        return t
    import pyarrow.dataset as pads
    out = pads.dataset(t).to_table(columns=derive, filter=where,
                                   use_threads=False)
    return out if derive is None else out.replace_schema_metadata(None)


def _read_run(units: list, columns, derive, where, cuts: list) -> list:
    """One read task of ``read_parquet_sized``: the (file, row groups)
    units read once, in order, cut at the run-relative row offsets
    ``cuts`` into ``len(cuts) - 1`` pieces, each with the spec
    applied."""
    t = pa.concat_tables([
        pq.ParquetFile(f).read_row_groups(rgs, columns=columns)
        if rgs else pq.read_table(f, columns=columns).slice(0, 0)
        for f, rgs in units])
    return [apply_spec(t.slice(a, b - a), derive, where)
            for a, b in zip(cuts, cuts[1:])]


def _concat_pieces(*pieces) -> pa.Table:
    return pa.concat_tables(pieces)


# Row floor of one block: a block is split off only once it carries at
# least this many rows (derivation in read_parquet_sized's docstring).
ROWS_PER_BLOCK = 1 << 15


def block_count(rows: int, nbytes: int) -> int:
    """Blocks for a parquet read of ``rows`` rows in ``nbytes`` file
    bytes: one per 32 MiB of file once the input is big (Ray's own
    target), with a small-input floor of one block per
    ``ROWS_PER_BLOCK`` rows capped at 2 × the cluster's CPUs, and never
    more blocks than rows."""
    from ..ops.util import cluster_cpus

    return max(min(max(math.ceil(nbytes / (32 << 20)),
                       min(2 * cluster_cpus(),
                           math.ceil(rows / ROWS_PER_BLOCK))), rows), 1)


def _row_groups(files: list) -> list:
    """(file, row group, rows) of every row group, in file order."""
    return [(f, i, md.row_group(i).num_rows) for f in files
            for md in [pq.ParquetFile(f).metadata]
            for i in range(md.num_row_groups)]


def _read_plan(rgs: list, nb: int):
    """Read tasks and block assembly of ``read_parquet_sized`` over the
    ``_row_groups`` ``rgs``.

    Blocks are the ``nb`` row-balanced cuts of the file-order rows:
    block k holds rows ``[k*rows//nb, (k+1)*rows//nb)``. Each inner cut
    is snapped to the nearest row-group boundary to make the task runs,
    so every row group belongs to one run and is read once; a run is
    cut at the block bounds inside it into pieces. Returns the runs as
    ``(units, cuts)`` and, per block, the ``(run, piece)`` list it
    concatenates."""
    starts = list(itertools.accumulate((n for _, _, n in rgs), initial=0))
    rows = starts[-1]
    bounds = [k * rows // nb for k in range(nb + 1)]
    edges = sorted({0, rows} | {min(starts, key=lambda s: (abs(s - b), s))
                                for b in bounds[1:-1]})
    runs, pieces = [], []     # pieces: (block, run, piece) in row order
    for a, b in zip(edges, edges[1:]):
        units: dict = {}
        for (f, i, _n), s in zip(rgs, starts):
            if a <= s < b:
                units.setdefault(f, []).append(i)
        cuts = [a] + [x for x in bounds[1:-1] if a < x < b] + [b]
        for j, lo in enumerate(cuts[:-1]):
            pieces.append((max(k for k in range(nb) if bounds[k] <= lo),
                           len(runs), j))
        runs.append((list(units.items()), [x - a for x in cuts]))
    blocks = [[(r, j) for k2, r, j in pieces if k2 == k] for k in range(nb)]
    return runs, blocks


def read_parquet_sized(path: str, columns=None, *, derive: dict | None = None,
                       where=None) -> BlockRefs:
    """Parquet file/dir → ``BlockRefs`` whose block count follows the
    data, with a spec evaluated in the read tasks.

    ``where`` is one boolean ``pyarrow.compute`` Expression over the
    read columns; rows where it is false or null are dropped. ``derive``
    maps each output name to an Expression over the read columns; when
    it is given a block holds exactly its columns, in its order, without
    the source file's pandas schema metadata. A block whose rows are all
    dropped keeps the typed schema.

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
    cap), so the constant is not shown to be a good choice there. It is
    also the one floor of every query read (sf0.01 lineitem, 60k rows,
    reads as 2 blocks).

    The files, in sorted path order, are cut into that many contiguous
    blocks of about equal row counts (``_read_plan``). No byte is read
    twice: each read task reads whole row groups once and splits them
    into its blocks with ``ops/util.py::fanout`` (one 600k-row row
    group reads as one task with up to 2×CPUs outputs); a block that
    straddles two tasks' runs is one more small concatenating task. The
    tasks go out through ``ops/util.py::submit_windowed``, no more in
    flight than the free CPU slots, and the call returns once every
    block is read. Row order is file order. Hive partition columns (the
    crawl's ``round=R`` dirs) are not added. ``rd.read_parquet`` was not
    used: past 24 files it launches a remote metadata-fetch task wave
    (Ray's PARALLELIZE_META_FETCH_THRESHOLD), past 16 paths on a
    non-local filesystem a file-size-fetch wave
    (FILE_SIZE_FETCH_PARALLELIZATION_THRESHOLD), and it samples files
    for an encoding ratio in remote tasks — all before a row is read,
    and the cost of each wave is fixed while the data here is a few MB.
    """
    from ..ops.util import fanout, submit_windowed

    if os.path.isdir(path):
        files = sorted(os.path.join(base, n)
                       for base, _dirs, names in os.walk(path)
                       for n in names if n.endswith(".parquet"))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    rgs = _row_groups(files)
    rows = sum(n for _, _, n in rgs)
    if not rows:
        # one typed empty block
        runs, blocks = [([(files[0], [])], [0, 0])], [[(0, 0)]]
    else:
        runs, blocks = _read_plan(
            rgs, block_count(rows, sum(os.path.getsize(f) for f in files)))
    parts = submit_windowed(
        functools.partial(fanout, _read_run, len(cuts) - 1, units,
                          columns, derive, where, cuts)
        for units, cuts in runs)
    joined = iter(submit_windowed(
        functools.partial(_concat_task.remote,
                          *[parts[r][j] for r, j in b])
        for b in blocks if len(b) > 1))
    return BlockRefs([parts[b[0][0]][b[0][1]] if len(b) == 1
                      else next(joined) for b in blocks])


_concat_task = ray.remote(_concat_pieces)


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
