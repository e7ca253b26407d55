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


def read_parquet_sized(path: str, columns=None):
    """read_parquet over a file/dir with data-proportional block count.

    A crawl run's records/ dir holds one small fragment per writer task
    (hundreds of ~1 MB files at sf0.1); Ray's default one-block-per-file
    read then makes every downstream all-to-all pay a blocks² fan-out
    (measured: the assemble-phase Sort spends 18 s shuffling 40k
    intermediate objects while actual compute is ~6 s). Size blocks by
    DATA instead: ~32 MB of file bytes per block (Ray's own target) with
    a floor of one block per ~2048 rows capped at 2×CPUs so small runs
    still parallelize."""
    import math

    import ray
    import ray.data as rd
    try:
        files = []
        if os.path.isdir(path):
            for base, _dirs, names in os.walk(path):
                files += [os.path.join(base, n) for n in names
                          if n.endswith(".parquet")]
        else:
            files = [path]
        nbytes = sum(os.path.getsize(f) for f in files)
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        cpus = int(ray.cluster_resources().get("CPU", 8))
        nb = max(math.ceil(nbytes / (32 << 20)),
                 min(2 * cpus, math.ceil(rows / 2048)), 1)
    except Exception:
        return rd.read_parquet(path, columns=columns)
    return rd.read_parquet(path, columns=columns, override_num_blocks=nb)


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
