"""Fetch stage: turns frontier rows into (frontier row + spans).

In this sandbox a "fetch" is a hash lookup of the URL against the
interleaved-document corpus (BASELINE.json: "in-sandbox fetch = join of
frontier URLs against the Lance corpus") — the I/O-free proxy for the
HTTP GET in ``get_website_safe`` (Common.py:107-138); a real deployment
swaps the lookup body for an HTTP client without touching the pipeline.

There is one fetch path: every crawl reads the (host, salt)-partitioned
corpus store that ``corpus/storage.py::write_corpus`` writes, and each
worker loads only the partitions its blocks touch
(``PartitionedFetcher``). Each partition's URL index is a pandas Index
(C hash table: ~0.3 s to build for 500k URLs vs ~3 s for a python dict;
lookups vectorized via ``get_indexer``), built once per worker process.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..corpus.schema import SPAN_TYPE
from ..corpus.storage import CORPUS_SALTS, host_partition_table


class Fetcher:
    """URL → spans lookup over one in-memory corpus table."""

    def __init__(self, table: pa.Table):
        # ChunkedArray.take on nested types is ~300x slower than
        # Array.take (measured 98 ms vs 0.33 ms per 256-row gather); a
        # partition read from several files or row groups arrives
        # chunked, so combine it once here, not per batch.
        spans = table.column("spans")
        self.spans_col = (spans.chunk(0) if spans.num_chunks == 1
                          else spans.combine_chunks())
        self.index = pd.Index(table.column("doc_id").to_pandas())
        # force the lazy hash-table build once (not per batch)
        self.index.get_indexer(self.index[:1])

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = self.index.get_indexer(batch.column("url").to_pandas())
        hit = idx >= 0
        sub = batch.filter(pa.array(hit))
        spans = self.spans_col.take(pa.array(idx[hit], type=pa.int64()))
        return sub.append_column("spans", spans)


class PartitionedFetcher:
    """Fetch against the (host, salt)-partitioned corpus store: each
    partition's slice (doc index + spans) is loaded lazily on FIRST
    contact and cached. The crawl salts its fetch blocks with the SAME
    url hash that partitioned the corpus (corpus/storage.py::url_salts),
    so a salt-aligned block touches exactly ONE corpus partition — a
    worker's resident corpus state is proportional to the partitions it
    serves: ~hosts×salts-touched/CORPUS_SALTS of the corpus, never the
    whole thing. A (host, salt) with no partition on disk fetches no
    rows (its URLs dead-letter as missing)."""

    def __init__(self, path: str):
        self.path = path
        self.parts: dict[tuple, Fetcher | None] = {}

    def _part_fetcher(self, host: str, salt: int) -> Fetcher | None:
        key = (host, salt)
        if key not in self.parts:
            t = host_partition_table(self.path, host, salt)
            self.parts[key] = None if t is None else Fetcher(t)
        return self.parts[key]

    @property
    def hosts_loaded(self) -> list[str]:
        return sorted({h for h, _ in self.parts})

    @property
    def partitions_loaded(self) -> list[tuple]:
        return sorted(self.parts)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # frontier blocks carry the url hash ``h`` the corpus was
        # salted with
        salts = (batch.column("h").to_numpy().astype(np.uint64)
                 % np.uint64(CORPUS_SALTS)).astype(np.int64)
        hosts = batch.column("host")
        outs = []
        for host in pc.unique(hosts).to_pylist():
            hmask = pc.equal(hosts, host).to_numpy(zero_copy_only=False)
            for salt in np.unique(salts[hmask]):
                f = self._part_fetcher(host, int(salt))
                if f is not None:
                    outs.append(f(batch.filter(
                        pa.array(hmask & (salts == salt)))))
        if not outs:
            return batch.slice(0, 0).append_column(
                "spans", pa.array([], type=SPAN_TYPE))
        return pa.concat_tables(outs)


# Per-worker-process fetcher cache, keyed by corpus store path. The
# fetcher is logically an actor-pool stage (stateful: loaded partitions,
# built once, used per batch). Because the crawl is a short LOOP of
# rounds, a literal map_batches(Fetcher, concurrency=N) pool would be
# torn down and re-created every round — measured at 30-40 s of pure
# actor start-up per round at 32 CPUs. Ray worker PROCESSES persist
# across rounds, so caching the instance in the worker process gives
# identical once-per-worker state semantics with zero per-round
# spin-up. Bounded LRU: warm workers outlive a crawl, and each engine
# built from an in-memory table writes its own store.
_FETCHERS: "OrderedDict[str, PartitionedFetcher]" = OrderedDict()
_FETCHERS_CAP = 4


def get_fetcher(path: str) -> PartitionedFetcher:
    if path in _FETCHERS:
        _FETCHERS.move_to_end(path)
    else:
        _FETCHERS[path] = PartitionedFetcher(path)
        while len(_FETCHERS) > _FETCHERS_CAP:
            _FETCHERS.popitem(last=False)
    return _FETCHERS[path]
